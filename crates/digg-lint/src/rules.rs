//! The determinism-and-robustness rules.
//!
//! Every rule is line-level over the blanked code of a [`SourceMap`]
//! (comments and string bodies can never match), scoped by file kind
//! and by the `#[cfg(test)]` region map. DESIGN.md §13 names the
//! workspace invariant each rule enforces.

use crate::lexer::{has_token, SourceMap};
use crate::walk::FileKind;

/// Stable rule identifiers (the ids pragmas name).
pub const NO_UNORDERED_SERIALIZE: &str = "no-unordered-serialize";
pub const NO_TRUNCATING_CAST: &str = "no-truncating-cast";
/// Workspace analysis (DESIGN.md §18): a named field of a type with an
/// `impl Snapshot`/`Restore` that the corresponding impl bodies never
/// reference.
pub const SNAPSHOT_COVERAGE: &str = "snapshot-coverage";
/// Boundary rule: async constructs in a kernel crate.
pub const NO_ASYNC_KERNEL: &str = "no-async-kernel";
/// Boundary rule: a kernel crate's `[dependencies]` names a shell
/// crate (reported against the `Cargo.toml` line; no pragma escape).
pub const KERNEL_DEP_SHELL: &str = "kernel-dep-shell";
/// Workspace analysis: heap allocation in (or one call level below) a
/// `// digg-lint: hot-path` function.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Workspace analysis: hash-order iteration reachable from a
/// serialization or artifact-write sink.
pub const UNORDERED_TAINT: &str = "unordered-taint";
/// Meta-rule: an `allow` pragma that suppressed nothing. Errors, so
/// the pragma ledger can only shrink — dead exemptions never linger.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Meta-rule: a pragma the engine cannot honour (unknown rule id,
/// missing reason). Never suppressible.
pub const MALFORMED_PRAGMA: &str = "malformed-pragma";

/// The suppressible rules, in reporting order.
pub const RULES: [&str; 7] = [
    NO_UNORDERED_SERIALIZE,
    NO_TRUNCATING_CAST,
    SNAPSHOT_COVERAGE,
    NO_ASYNC_KERNEL,
    KERNEL_DEP_SHELL,
    HOT_PATH_ALLOC,
    UNORDERED_TAINT,
];

/// One-line description per rule (for `--explain` style output and
/// the JSON report).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        NO_UNORDERED_SERIALIZE => {
            "HashMap/HashSet field in a #[derive(Serialize)] item or a type implementing the \
             digg_snapshot::Snapshot trait; serialized artifacts and snapshots must use \
             BTreeMap, a sorted Vec, or encode in an explicit order so bytes are \
             iteration-order independent"
        }
        NO_TRUNCATING_CAST => {
            "narrowing `as` cast to a <=32-bit integer; use try_into or a checked-id helper \
             (UserId::from_index, StoryId::from_index, try_build)"
        }
        SNAPSHOT_COVERAGE => {
            "named field of a Snapshot/Restore type never referenced in that impl's bodies \
             (per side, one same-file call level deep); a silently dropped field is the \
             PR-7 voter_pos bug class — reference it or justify the derived state with a \
             field-level pragma"
        }
        NO_ASYNC_KERNEL => {
            "async construct (async fn/.await/tokio) in a kernel crate; the replay kernel is \
             synchronous by decree — async belongs in shell crates (lint-boundary.toml)"
        }
        KERNEL_DEP_SHELL => {
            "kernel crate lists a shell crate in [dependencies]; the kernel must not reach \
             the shell through the build graph (dev-dependencies are exempt). Fix the edge \
             or move the crate in lint-boundary.toml — there is no pragma escape"
        }
        HOT_PATH_ALLOC => {
            "heap allocation in (or one call level below) a `// digg-lint: hot-path` \
             function; the per-vote kernels must stay allocation-free"
        }
        UNORDERED_TAINT => {
            "HashMap/HashSet iteration reachable from a serialization or artifact-write \
             sink through the intra-crate call graph; sort the collected entries or reduce \
             order-independently on the same line"
        }
        UNUSED_ALLOW => "digg-lint allow pragma that suppressed no violation",
        MALFORMED_PRAGMA => "unparseable digg-lint pragma (unknown rule id or missing reason)",
        _ => "unknown rule",
    }
}

/// A single violation (pre-pragma-filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Per-file scope configuration resolved by the caller.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub kind: FileKind,
    /// File belongs to a shell crate (`lint-boundary.toml`): the
    /// harness/driver layer. Async and truncating casts are legal
    /// there; the artifact-order rules are not.
    pub shell: bool,
}

/// Run every rule over one lexed file. Returned violations are in
/// line order; pragma filtering happens in [`crate::pragma`].
pub fn check(map: &SourceMap, scope: Scope, raw_lines: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, code) in map.code.iter().enumerate() {
        let line = idx + 1;
        let in_test = map.in_test.get(idx).copied().unwrap_or(false);
        let snippet = || {
            raw_lines
                .get(idx)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };
        let mut push = |rule: &'static str| {
            out.push(Violation {
                rule,
                line,
                snippet: snippet(),
            })
        };

        if !scope.shell
            && (has_token(code, "async")
                || code.contains(".await")
                || has_token(code, "tokio")
                || has_token(code, "async_std"))
        {
            push(NO_ASYNC_KERNEL);
        }

        if scope.kind == FileKind::Lib && !in_test && !scope.shell && has_narrowing_cast(code) {
            push(NO_TRUNCATING_CAST);
        }

        let in_serialize = map.in_serialize.get(idx).copied().unwrap_or(false);
        let in_snapshot = map.in_snapshot.get(idx).copied().unwrap_or(false);
        if (in_serialize || in_snapshot)
            && (has_token(code, "HashMap") || has_token(code, "HashSet"))
        {
            // A `#[serde(skip)]`-annotated field (attribute on the same
            // or the preceding line) never reaches the serialized
            // bytes, so its iteration order is unobservable. That
            // exemption does NOT extend to Snapshot-implementing types:
            // a hand-written `snapshot()` sees every field regardless
            // of serde attributes, so an exemption there needs a
            // pragma naming the ordering argument.
            let skipped = !in_snapshot
                && (code.contains("serde(skip")
                    || idx
                        .checked_sub(1)
                        .and_then(|p| map.code.get(p))
                        .is_some_and(|prev| prev.contains("serde(skip")));
            if !skipped {
                push(NO_UNORDERED_SERIALIZE);
            }
        }
    }
    out
}

/// `expr as u8|u16|u32|i8|i16|i32` — the id/count-truncating casts.
/// Casts to `u64`/`usize` are exempt: ids are `u32`, so those widen on
/// every supported target (`usize` is at least 32 bits here, and the
/// CSR builders reject graphs that would overflow it).
fn has_narrowing_cast(code: &str) -> bool {
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let tokens: Vec<&str> = code
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
        .collect();
    tokens
        .windows(2)
        .any(|w| w[0] == "as" && NARROW.contains(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lib_scope() -> Scope {
        Scope {
            kind: FileKind::Lib,
            shell: false,
        }
    }

    fn check_src(src: &str, scope: Scope) -> Vec<Violation> {
        let map = lex(src);
        let raw: Vec<&str> = src.split('\n').collect();
        check(&map, scope, &raw)
    }

    #[test]
    fn narrowing_casts_flag_only_narrow_targets() {
        assert!(has_narrowing_cast("let x = n as u32;"));
        assert!(has_narrowing_cast("powi(p as i32)"));
        assert!(!has_narrowing_cast("let x = n as u64;"));
        assert!(!has_narrowing_cast("let x = n as usize;"));
        assert!(!has_narrowing_cast("let x = nas u32;"));
    }

    #[test]
    fn casts_only_fire_in_lib_non_test() {
        let src = "fn f() { n as u32; }\n#[cfg(test)]\nmod t {\n    fn g() { m as u32; }\n}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        let bin = Scope {
            kind: FileKind::Bin,
            ..lib_scope()
        };
        assert!(check_src(src, bin).is_empty());
    }

    #[test]
    fn code_in_string_or_comment_is_ignored() {
        let src = "// n as u32 is banned\nlet s = \"n as u32\";";
        assert!(check_src(src, lib_scope()).is_empty());
    }

    #[test]
    fn serialize_derive_with_hashmap_fires() {
        let src = "#[derive(Serialize)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_UNORDERED_SERIALIZE);
        let plain = "#[derive(Debug)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        assert!(check_src(plain, lib_scope()).is_empty());
    }

    #[test]
    fn serde_skip_field_is_exempt() {
        let src = "#[derive(Serialize)]\nstruct S {\n    #[serde(skip)]\n    m: HashSet<u32>,\n}";
        assert!(check_src(src, lib_scope()).is_empty());
        let inline = "#[derive(Serialize)]\nstruct S {\n    #[serde(skip)] m: HashSet<u32>,\n}";
        assert!(check_src(inline, lib_scope()).is_empty());
    }

    #[test]
    fn snapshot_impl_with_hashmap_fires() {
        let src = "struct Q {\n    m: HashMap<u64, u64>,\n}\nimpl Snapshot for Q {\n    fn snapshot(&self) -> Vec<u8> { Vec::new() }\n}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_UNORDERED_SERIALIZE);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn serde_skip_does_not_exempt_snapshot_types() {
        // serde(skip) keeps a field out of serde bytes, but a
        // hand-written snapshot() still sees it.
        let src = "#[derive(Serialize)]\nstruct Q {\n    #[serde(skip)]\n    m: HashSet<u32>,\n}\nimpl Snapshot for Q {}";
        let v = check_src(src, lib_scope());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_UNORDERED_SERIALIZE);
    }

    #[test]
    fn async_is_banned_in_kernel_but_legal_in_shell() {
        let shell = Scope {
            shell: true,
            ..lib_scope()
        };
        for src in [
            "pub async fn pump() {}",
            "let x = fut.await;",
            "tokio::spawn(task);",
        ] {
            let v = check_src(src, lib_scope());
            assert!(v.iter().any(|v| v.rule == NO_ASYNC_KERNEL), "{src}: {v:?}");
            assert!(
                check_src(src, shell)
                    .iter()
                    .all(|v| v.rule != NO_ASYNC_KERNEL),
                "{src} must be legal in a shell crate"
            );
        }
        // Comments and identifiers with the substring do not fire.
        assert!(check_src("// async is shell-only\nlet asynchrony = 1;", lib_scope()).is_empty());
    }

    #[test]
    fn shell_scope_waives_casts_but_keeps_artifact_order() {
        let shell = Scope {
            shell: true,
            ..lib_scope()
        };
        let harness = "fn main() { let n = big as u32; }";
        assert!(check_src(harness, shell).is_empty());
        assert_eq!(check_src(harness, lib_scope()).len(), 1);
        let ordered = "#[derive(Serialize)]\nstruct S {\n    m: HashMap<u32, u32>,\n}";
        assert_eq!(check_src(ordered, shell).len(), 1);
    }
}
