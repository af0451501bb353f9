//! The `digg-lint: allow(...)` pragma: the only way to suppress a
//! violation, and itself policed.
//!
//! Grammar (inside any comment):
//!
//! ```text
//! digg-lint: allow(rule-id[, rule-id…]) — reason text
//! ```
//!
//! The separator may be an em-dash, `--`, or `:`; the reason is
//! mandatory. A pragma covers its own line and, when it is the only
//! thing on its line, the next code line. Every allow must suppress at
//! least one violation — an unused allow is an error ([`UNUSED_ALLOW`])
//! so the exemption ledger can only shrink over time.
//!
//! Stock rustc/clippy lints are suppressed with `#[expect(lint, reason
//! = "…")]` instead; the compiler polices those (`allow_attributes*`,
//! `unfulfilled_lint_expectations`), and [`expect_lints`] feeds them
//! into the same shrink-only ledger.

use crate::lexer::SourceMap;
use crate::rules::{Violation, MALFORMED_PRAGMA, RULES, UNUSED_ALLOW};

/// One parsed allow pragma.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule ids this pragma suppresses.
    pub rules: Vec<String>,
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Justification text (non-empty by construction).
    pub reason: String,
}

/// Scan a file's comments for pragmas. Returns the well-formed allows
/// plus violations for every malformed one.
pub fn parse(map: &SourceMap, raw_lines: &[&str]) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (idx, comment) in map.comments.iter().enumerate() {
        // Doc comments (`///`, `//!`) are documentation — they may
        // *describe* the pragma syntax (as this module does) without
        // being pragmas. The lexer strips only the leading `//`, so a
        // doc comment's text starts with `/` or `!`.
        if comment.starts_with('/') || comment.starts_with('!') {
            continue;
        }
        let Some(at) = comment.find("digg-lint:") else {
            continue;
        };
        let line = idx + 1;
        let snippet = raw_lines
            .get(idx)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let rest = comment[at + "digg-lint:".len()..].trim_start();
        // The `hot-path` marker is not a pragma: it is parsed (and
        // policed for dangling placement) by [`crate::symbols`].
        if rest.trim() == "hot-path" {
            continue;
        }
        let mut fail = |_why: &str| {
            bad.push(Violation {
                rule: MALFORMED_PRAGMA,
                line,
                snippet: snippet.clone(),
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            fail("expected `allow(`");
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("unclosed allow(");
            continue;
        };
        let ids: Vec<String> = args[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if ids.is_empty() || ids.iter().any(|id| !RULES.contains(&id.as_str())) {
            fail("unknown rule id");
            continue;
        }
        let mut reason = args[close + 1..].trim_start();
        for sep in ["—", "--", "-", ":"] {
            if let Some(r) = reason.strip_prefix(sep) {
                reason = r.trim_start();
                break;
            }
        }
        if reason.trim().is_empty() {
            fail("missing reason");
            continue;
        }
        allows.push(Allow {
            rules: ids,
            line,
            reason: reason.trim().to_string(),
        });
    }
    (allows, bad)
}

/// Apply `allows` to `violations`: a violation on the pragma's line or
/// on the next line (for a pragma standing alone on its line) is
/// suppressed. Returns the surviving violations plus an
/// [`UNUSED_ALLOW`] violation per pragma that suppressed nothing.
pub fn apply(
    map: &SourceMap,
    raw_lines: &[&str],
    violations: Vec<Violation>,
    allows: &[Allow],
) -> Vec<Violation> {
    apply_counted(map, raw_lines, violations, allows).0
}

/// [`apply`], also returning the rule id of every suppressed
/// violation — the per-rule ledger the baseline gate compares.
pub fn apply_counted(
    map: &SourceMap,
    raw_lines: &[&str],
    violations: Vec<Violation>,
    allows: &[Allow],
) -> (Vec<Violation>, Vec<&'static str>) {
    let mut used = vec![false; allows.len()];
    let mut suppressed: Vec<&'static str> = Vec::new();
    let mut out = Vec::new();
    'violations: for v in violations {
        for (i, a) in allows.iter().enumerate() {
            if !a.rules.iter().any(|r| r == v.rule) {
                continue;
            }
            let own_line = v.line == a.line;
            // A comment-only pragma line covers the next line.
            let comment_only = map
                .code
                .get(a.line - 1)
                .is_some_and(|c| c.trim().is_empty());
            let next_line = comment_only && v.line == a.line + 1;
            if own_line || next_line {
                used[i] = true;
                suppressed.push(v.rule);
                continue 'violations;
            }
        }
        out.push(v);
    }
    for (i, a) in allows.iter().enumerate() {
        if !used[i] {
            out.push(Violation {
                rule: UNUSED_ALLOW,
                line: a.line,
                snippet: raw_lines
                    .get(a.line - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    (out, suppressed)
}

/// Lint names of every `#[expect(…)]` / `#![expect(…)]` attribute in a
/// file, one entry per named lint (`reason = …` excluded). Scans the
/// blanked code, so attributes quoted in comments or strings never
/// count, and an attribute wrapped over several lines still does.
pub fn expect_lints(map: &SourceMap) -> Vec<String> {
    let code = map.code.join("\n");
    let mut out = Vec::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find('#') {
        let attr = rest[at + 1..].trim_start();
        let attr = attr.strip_prefix('!').unwrap_or(attr).trim_start();
        rest = &rest[at + 1..];
        let Some(args) = attr
            .strip_prefix('[')
            .map(str::trim_start)
            .and_then(|a| a.strip_prefix("expect"))
            .map(str::trim_start)
            .and_then(|a| a.strip_prefix('('))
        else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        out.extend(
            args[..close]
                .split(',')
                .map(str::trim)
                .filter(|item| !item.is_empty() && !item.starts_with("reason"))
                .map(|item| item.split_whitespace().collect::<String>()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{check, Scope, NO_TRUNCATING_CAST};
    use crate::walk::FileKind;

    fn run(src: &str) -> Vec<Violation> {
        let map = lex(src);
        let raw: Vec<&str> = src.split('\n').collect();
        let scope = Scope {
            kind: FileKind::Lib,
            shell: false,
        };
        let (allows, mut bad) = parse(&map, &raw);
        let mut v = apply(&map, &raw, check(&map, scope, &raw), &allows);
        v.append(&mut bad);
        v.sort_by_key(|v| v.line);
        v
    }

    #[test]
    fn trailing_pragma_suppresses_own_line() {
        let src =
            "fn f() { n as u32; } // digg-lint: allow(no-truncating-cast) — invariant: n < 2^32";
        assert!(run(src).is_empty());
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let src = "// digg-lint: allow(no-truncating-cast) — checked above\nfn f() { n as u32; }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// digg-lint: allow(no-truncating-cast) — stale\nfn f() {}";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNUSED_ALLOW);
    }

    #[test]
    fn pragma_does_not_reach_across_code() {
        let src =
            "// digg-lint: allow(no-truncating-cast) — misplaced\nfn f() {}\nfn g() { n as u32; }";
        let v = run(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == UNUSED_ALLOW));
        assert!(v.iter().any(|v| v.rule == NO_TRUNCATING_CAST));
    }

    #[test]
    fn missing_reason_or_unknown_rule_is_malformed() {
        for src in [
            "fn f() { n as u32; } // digg-lint: allow(no-truncating-cast)",
            "fn f() {} // digg-lint: allow(made-up-rule) — why",
            "fn f() {} // digg-lint: allowing things",
        ] {
            let v = run(src);
            assert!(v.iter().any(|v| v.rule == MALFORMED_PRAGMA), "{src}: {v:?}");
        }
    }

    #[test]
    fn multi_rule_pragma() {
        let src = "async fn f() -> u32 { n as u32 } // digg-lint: allow(no-truncating-cast, no-async-kernel) — fixture exercising both";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn expect_attributes_name_their_lints() {
        let src = "#![expect(unsafe_code, reason = \"mmap\")]\n#[expect(\n    clippy::panic,\n    clippy::expect_used,\n    reason = \"a, b (c)\"\n)]\nfn f() {}\n#[expect (clippy::disallowed_methods)]\nfn g() {}\n";
        assert_eq!(
            expect_lints(&lex(src)),
            vec![
                "unsafe_code",
                "clippy::panic",
                "clippy::expect_used",
                "clippy::disallowed_methods"
            ]
        );
    }

    #[test]
    fn quoted_or_commented_expect_is_not_counted() {
        let src = "// #[expect(clippy::panic)]\nlet s = \"#[expect(clippy::panic)]\";\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(expect_lints(&lex(src)).is_empty());
    }
}
