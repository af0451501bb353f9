//! `digg-lint` — the workspace determinism-and-robustness linter.
//!
//! Every result this reproduction ships rests on an unwritten
//! contract: all randomness flows through `des_core::StreamRng`,
//! payloads are bit-identical at any `DIGG_THREADS`, artifacts never
//! depend on wall-clock or hash-iteration order, and library code
//! reports failures as typed errors instead of panicking. Stock lints
//! enforce the parts they can express (DESIGN.md §13): `clippy.toml`
//! bans the wall clock, ambient entropy and raw `std::thread` fan-out;
//! each kernel crate's `lib.rs` denies `clippy::unwrap_used` and the
//! other panic lints; `[workspace.lints]` denies `unsafe_code` and bare
//! or reason-less `#[allow]`s. This crate is the rest: a
//! self-contained static-analysis pass (own comment/string-aware
//! lexer, item parser and workspace symbol graph, zero dependencies)
//! for the rules no stock lint can state. CI runs both on every push.
//!
//! Seven rules — see [`rules`] for the ids, DESIGN.md §13 for the
//! per-line invariants and §18 for the workspace analyses:
//!
//! | rule | guards |
//! |------|--------|
//! | `no-unordered-serialize` | serialized bytes independent of hash order |
//! | `no-truncating-cast` | ids/counts never silently truncated (`u64→usize` is exempt, unlike `clippy::cast_possible_truncation`) |
//! | `snapshot-coverage` | every field of a Snapshot/Restore type round-trips |
//! | `no-async-kernel` | the replay kernel is synchronous |
//! | `kernel-dep-shell` | kernel crates cannot depend on shell crates |
//! | `hot-path-alloc` | the per-vote kernels stay allocation-free |
//! | `unordered-taint` | no hash-order data reaches a serialization sink |
//!
//! The kernel/shell crate partition lives in `lint-boundary.toml` at
//! the workspace root ([`manifest`]). Inline suppression of a digg-lint
//! rule is only possible via
//!
//! ```text
//! // digg-lint: allow(no-truncating-cast) — reason the invariant holds
//! ```
//!
//! and an allow that suppresses nothing is itself an error. Stock
//! lints are suppressed with `#[expect(lint, reason = "…")]` at the
//! site, which the compiler polices the same way. Both kinds land in
//! one ledger that can only shrink — enforced in CI by the baseline
//! gate (`--baseline results/lint_baseline.json`). Run with
//! `cargo run -p digg-lint -- --workspace` (add `--json` for the
//! machine-readable report).

pub mod analysis;
pub mod baseline;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod walk;

use model::WorkspaceModel;
use rules::{Scope, Violation};
use std::collections::BTreeMap;
use std::path::Path;

/// Linter configuration. In workspace mode this is derived from
/// `lint-boundary.toml` when present; the default (every file is
/// kernel code) serves single-file and unit-test use.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-relative path prefixes of shell crates (the
    /// harness/driver layer): async and truncating casts are legal
    /// there.
    pub shell_paths: Vec<String>,
}

impl Config {
    fn scope_for(&self, rel: &str) -> Scope {
        Scope {
            kind: walk::classify(rel),
            shell: self
                .shell_paths
                .iter()
                .any(|p| !p.is_empty() && rel.starts_with(p)),
        }
    }

    /// Resolve the effective workspace config from `lint-boundary.toml`
    /// and return the shell crate names. Every workspace crate must be
    /// assigned to exactly one side — a new crate cannot land
    /// unpartitioned.
    fn from_boundary(
        boundary: &manifest::BoundaryFile,
        crates: &[model::CrateInfo],
    ) -> Result<(Config, Vec<String>), String> {
        for name in boundary.kernel.iter().chain(boundary.shell.iter()) {
            if !crates.iter().any(|c| c.name == *name) {
                return Err(format!("lint-boundary.toml names unknown crate `{name}`"));
            }
        }
        for c in crates {
            let in_kernel = boundary.kernel.iter().any(|n| n == &c.name);
            let in_shell = boundary.shell.iter().any(|n| n == &c.name);
            match (in_kernel, in_shell) {
                (true, true) => {
                    return Err(format!(
                        "lint-boundary.toml lists crate `{}` as both kernel and shell",
                        c.name
                    ))
                }
                (false, false) => {
                    return Err(format!(
                        "lint-boundary.toml does not partition crate `{}` (add it to \
                         [crates] kernel or shell)",
                        c.name
                    ))
                }
                _ => {}
            }
        }
        let shell_paths = crates
            .iter()
            .filter(|c| boundary.shell.iter().any(|n| n == &c.name))
            .map(|c| c.dir_prefix.clone())
            .collect();
        Ok((Config { shell_paths }, boundary.shell.clone()))
    }
}

/// Lint result for one file.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Surviving violations (pragmas already applied), in line order.
    pub violations: Vec<Violation>,
    /// Allow pragmas that suppressed at least one violation, plus
    /// one per lint named in an `#[expect(…)]` attribute.
    pub allows_honoured: usize,
    /// Rule id of every violation a pragma suppressed, and the lint
    /// name (e.g. `clippy::unwrap_used`) of every `#[expect(…)]` entry.
    pub suppressed_rules: Vec<String>,
}

/// Lint one file's source text (the unit the fixture tests drive).
/// Runs the per-line rules plus the source-level workspace analyses
/// over a single-file model, so fixtures exercise the same code paths
/// as `--workspace`.
pub fn lint_source(rel_path: &str, src: &str, config: &Config) -> FileReport {
    let map = lexer::lex(src);
    let raw: Vec<&str> = src.split('\n').collect();
    let scope = config.scope_for(rel_path);
    let mut raw_violations = rules::check(&map, scope, &raw);
    raw_violations.extend(analysis::file_local(rel_path, src));
    raw_violations.sort_by_key(|v| v.line);
    finish_file(rel_path, &map, &raw, raw_violations)
}

/// Shared tail of per-file linting: pragma parse/apply and counting.
fn finish_file(
    rel_path: &str,
    map: &lexer::SourceMap,
    raw: &[&str],
    raw_violations: Vec<Violation>,
) -> FileReport {
    let (allows, mut malformed) = pragma::parse(map, raw);
    let (mut violations, suppressed) = pragma::apply_counted(map, raw, raw_violations, &allows);
    let unused = violations
        .iter()
        .filter(|v| v.rule == rules::UNUSED_ALLOW)
        .count();
    violations.append(&mut malformed);
    violations.sort_by_key(|v| v.line);
    let expects = pragma::expect_lints(map);
    FileReport {
        path: rel_path.to_string(),
        violations,
        allows_honoured: allows.len().saturating_sub(unused) + expects.len(),
        suppressed_rules: suppressed
            .into_iter()
            .map(String::from)
            .chain(expects)
            .collect(),
    }
}

/// Outcome of a workspace lint.
#[derive(Debug, Clone)]
pub struct WorkspaceReport {
    /// Per-file reports that contain at least one violation.
    pub dirty: Vec<FileReport>,
    /// Total files scanned.
    pub files_scanned: usize,
    /// Total suppressions across the tree: allow pragmas honoured
    /// plus lints named in `#[expect(…)]` attributes.
    pub allows_honoured: usize,
    /// Suppression count per digg-lint rule id or stock lint name (the
    /// per-rule ledger the baseline gate keeps shrink-only).
    pub suppressed_by_rule: BTreeMap<String, usize>,
}

impl WorkspaceReport {
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }

    pub fn violation_count(&self) -> usize {
        self.dirty.iter().map(|f| f.violations.len()).sum()
    }
}

/// Lint every workspace source under `root`: per-line rules, the
/// workspace symbol-graph analyses, and the manifest-level boundary
/// check, all merged before pragma filtering.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<WorkspaceReport> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);

    // Crate discovery + effective boundary config.
    let crates = model::discover_crates(root)?;
    let boundary_path = root.join("lint-boundary.toml");
    let (config, shell_names) = match std::fs::read_to_string(&boundary_path) {
        Ok(text) => {
            let b = manifest::parse_boundary(&text)
                .map_err(|e| invalid(format!("lint-boundary.toml: {e}")))?;
            Config::from_boundary(&b, &crates).map_err(invalid)?
        }
        Err(_) => (config.clone(), Vec::new()),
    };

    // Build the workspace model.
    let rels = walk::workspace_files(root)?;
    let files_scanned = rels.len();
    let mut files = Vec::with_capacity(rels.len());
    for rel in &rels {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(root.join(rel))?;
        let map = lexer::lex(&src);
        let syms = symbols::parse(&map);
        files.push(model::FileEntry {
            crate_idx: WorkspaceModel::crate_for(&crates, &rel_str),
            rel: rel_str,
            map,
            raw: src.split('\n').map(str::to_string).collect(),
            syms,
        });
    }
    let ws = WorkspaceModel { crates, files };

    // Workspace analyses, grouped per file.
    let mut extra: BTreeMap<usize, Vec<Violation>> = BTreeMap::new();
    for (fi, v) in analysis::run_all(&ws) {
        extra.entry(fi).or_default().push(v);
    }

    // Per-file merge + pragma filtering.
    let mut dirty = Vec::new();
    let mut allows = 0usize;
    let mut suppressed_by_rule: BTreeMap<String, usize> = BTreeMap::new();
    for (fi, entry) in ws.files.iter().enumerate() {
        let mut scope = config.scope_for(&entry.rel);
        if let Some(ci) = entry.crate_idx {
            scope.shell = shell_names.iter().any(|n| n == &ws.crates[ci].name);
        }
        let raw: Vec<&str> = entry.raw.iter().map(String::as_str).collect();
        let mut raw_violations = rules::check(&entry.map, scope, &raw);
        if let Some(mut v) = extra.remove(&fi) {
            raw_violations.append(&mut v);
        }
        raw_violations.sort_by_key(|v| v.line);
        let fr = finish_file(&entry.rel, &entry.map, &raw, raw_violations);
        allows += fr.allows_honoured;
        for r in &fr.suppressed_rules {
            *suppressed_by_rule.entry(r.clone()).or_insert(0) += 1;
        }
        if !fr.violations.is_empty() {
            dirty.push(fr);
        }
    }

    // Manifest-level boundary violations (no pragma path: boundary
    // moves are lint-boundary.toml edits).
    let mut by_manifest: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for (manifest_rel, v) in analysis::boundary::run(&ws.crates, &shell_names) {
        by_manifest.entry(manifest_rel).or_default().push(v);
    }
    for (path, violations) in by_manifest {
        dirty.push(FileReport {
            path,
            violations,
            allows_honoured: 0,
            suppressed_rules: Vec::new(),
        });
    }
    dirty.sort_by(|a, b| a.path.cmp(&b.path));

    Ok(WorkspaceReport {
        dirty,
        files_scanned,
        allows_honoured: allows,
        suppressed_by_rule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_is_clean() {
        let fr = lint_source(
            "crates/x/src/lib.rs",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
            &Config::default(),
        );
        assert!(fr.violations.is_empty());
    }

    #[test]
    fn allows_honoured_are_counted() {
        let src = "fn f() -> u32 { n as u32 } // digg-lint: allow(no-truncating-cast) — fixture\n";
        let fr = lint_source("crates/x/src/lib.rs", src, &Config::default());
        assert!(fr.violations.is_empty());
        assert_eq!(fr.allows_honoured, 1);
        assert_eq!(fr.suppressed_rules, vec![rules::NO_TRUNCATING_CAST]);
        // Stock-lint expectations join the same ledger, one per lint.
        let src = "#[expect(clippy::panic, clippy::todo, reason = \"fixture\")]\nfn g() {}\n";
        let fr = lint_source("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(fr.allows_honoured, 2);
        assert_eq!(fr.suppressed_rules, vec!["clippy::panic", "clippy::todo"]);
    }

    #[test]
    fn shell_paths_waive_harness_rules() {
        let config = Config {
            shell_paths: vec!["crates/bench/".to_string()],
        };
        let src = "pub async fn t() {}";
        let fr = lint_source("crates/bench/src/chaos.rs", src, &config);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        let fr = lint_source("crates/core/src/pipeline.rs", src, &config);
        assert_eq!(fr.violations.len(), 1);
    }

    #[test]
    fn snapshot_coverage_runs_in_single_file_mode() {
        let src = "struct S {\n    a: u64,\n    b: u64,\n}\nimpl Snapshot for S {\n    fn snapshot(&self, w: &mut W) {\n        w.put(self.a);\n    }\n}\n";
        let fr = lint_source("crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(fr.violations.len(), 1, "{:?}", fr.violations);
        assert_eq!(fr.violations[0].rule, rules::SNAPSHOT_COVERAGE);
        // A field-level pragma on the uncovered field suppresses it.
        let with_pragma = src.replace(
            "    b: u64,",
            "    // digg-lint: allow(snapshot-coverage) — derived, rebuilt on restore\n    b: u64,",
        );
        let fr = lint_source("crates/x/src/lib.rs", &with_pragma, &Config::default());
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.allows_honoured, 1);
    }
}
