//! Mutation self-test: prove the linter *catches* the bug classes it
//! exists for, not merely that the current tree is clean. Each case
//! seeds one source mutation — the minimal edit a distracted refactor
//! would make — into a miniature two-crate workspace and asserts that
//! exactly the expected rule fires. The final test replays the PR-7
//! `voter_pos` incident against the real tree: deleting one field
//! write from `Sim::snapshot` must turn the lint red.

use digg_lint::{lint_source, lint_workspace, Config};
use std::path::{Path, PathBuf};

/// The pristine mini workspace: a kernel crate with a Snapshot type,
/// a hot-path fn, and a sorted serialization path; a shell crate it
/// must not depend on. Lints clean before any mutation.
const BOUNDARY: &str = r#"
[crates]
kernel = ["mini-kern"]
shell = ["mini-shell"]

[allow]
wallclock = []
fanout = []
unsafe_mmap = []
"#;

const ROOT_MANIFEST: &str = r#"
[workspace]
members = ["crates/mini-kern", "crates/mini-shell"]
"#;

const KERN_MANIFEST: &str = r#"
[package]
name = "mini-kern"
version = "0.1.0"

[dependencies]
"#;

const SHELL_MANIFEST: &str = r#"
[package]
name = "mini-shell"
version = "0.1.0"

[dependencies]
"#;

const KERN_LIB: &str = r#"//! Mini kernel crate for mutation tests.

use std::collections::HashMap;

pub struct Cursor {
    pub pos: u64,
    pub budget: u64,
}

impl Snapshot for Cursor {
    fn snapshot(&self, w: &mut ByteWriter) {
        w.put_u64(self.pos);
        w.put_u64(self.budget);
    }
}

// digg-lint: hot-path
pub fn lookup(xs: &[u32], x: u32) -> bool {
    xs.binary_search(&x).is_ok()
}

pub fn summarize(counts: &HashMap<u32, u64>) -> Vec<String> {
    let mut rows: Vec<(u32, u64)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_unstable();
    rows.into_iter().map(|(k, v)| format_row(k, v)).collect()
}

fn format_row(k: u32, v: u64) -> String {
    format!("{k} {v}")
}

pub fn export(counts: &HashMap<u32, u64>, w: &mut impl std::io::Write) {
    for r in summarize(counts) {
        let _ = w.write_all(r.as_bytes());
    }
}

pub fn step(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}
"#;

const SHELL_LIB: &str = r#"//! Mini shell crate: timing and CLI panics are legal here.

pub fn measure() -> std::time::Duration {
    let t0 = std::time::Instant::now();
    t0.elapsed()
}
"#;

struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    /// Write the pristine tree under a per-process temp dir.
    fn new(case: &str) -> MiniWorkspace {
        let root =
            std::env::temp_dir().join(format!("digg-lint-mutation-{}-{case}", std::process::id()));
        // A leftover tree from a crashed prior run would corrupt the
        // case; start from nothing.
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in [
            ("Cargo.toml", ROOT_MANIFEST),
            ("lint-boundary.toml", BOUNDARY),
            ("crates/mini-kern/Cargo.toml", KERN_MANIFEST),
            ("crates/mini-kern/src/lib.rs", KERN_LIB),
            ("crates/mini-shell/Cargo.toml", SHELL_MANIFEST),
            ("crates/mini-shell/src/lib.rs", SHELL_LIB),
        ] {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
            std::fs::write(&path, text).expect("write fixture");
        }
        MiniWorkspace { root }
    }

    /// Apply one string mutation to one file. Panics if the needle is
    /// absent — a vacuous mutation must fail loudly.
    fn mutate(&self, rel: &str, from: &str, to: &str) {
        let path = self.root.join(rel);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains(from), "mutation needle `{from}` not in {rel}");
        std::fs::write(&path, text.replace(from, to)).expect("write");
    }

    /// Rule ids surviving a workspace lint, deduped and sorted.
    fn fired(&self) -> Vec<String> {
        let ws = lint_workspace(&self.root, &Config::default()).expect("lint");
        let mut rules: Vec<String> = ws
            .dirty
            .iter()
            .flat_map(|f| f.violations.iter().map(|v| v.rule.to_string()))
            .collect();
        rules.sort();
        rules.dedup();
        rules
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn pristine_mini_workspace_is_clean() {
    let ws = MiniWorkspace::new("pristine");
    assert_eq!(ws.fired(), Vec::<String>::new());
}

#[test]
fn deleting_a_snapshot_field_write_fires_snapshot_coverage() {
    let ws = MiniWorkspace::new("snapfield");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "        w.put_u64(self.budget);\n",
        "",
    );
    assert_eq!(ws.fired(), vec!["snapshot-coverage".to_string()]);
}

#[test]
fn wallclock_in_kernel_fires_no_wallclock() {
    let ws = MiniWorkspace::new("wallclock");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    let _t = std::time::Instant::now();",
    );
    assert_eq!(ws.fired(), vec!["no-wallclock".to_string()]);
}

#[test]
fn alloc_in_hot_path_fires_hot_path_alloc() {
    let ws = MiniWorkspace::new("hotalloc");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "    xs.binary_search(&x).is_ok()",
        "    let owned = xs.to_vec();\n    owned.binary_search(&x).is_ok()",
    );
    assert_eq!(ws.fired(), vec!["hot-path-alloc".to_string()]);
}

#[test]
fn kernel_depending_on_shell_fires_kernel_dep_shell() {
    let ws = MiniWorkspace::new("depshell");
    ws.mutate(
        "crates/mini-kern/Cargo.toml",
        "[dependencies]\n",
        "[dependencies]\nmini-shell = { path = \"../mini-shell\" }\n",
    );
    assert_eq!(ws.fired(), vec!["kernel-dep-shell".to_string()]);
}

#[test]
fn async_in_kernel_fires_no_async_kernel() {
    let ws = MiniWorkspace::new("async");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub async fn step(seed: u64) -> u64 {",
    );
    assert_eq!(ws.fired(), vec!["no-async-kernel".to_string()]);
}

#[test]
fn removing_the_sort_rescue_fires_unordered_taint() {
    let ws = MiniWorkspace::new("taint");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "    rows.sort_unstable();\n",
        "",
    );
    assert_eq!(ws.fired(), vec!["unordered-taint".to_string()]);
}

#[test]
fn ambient_rng_in_kernel_fires_no_ambient_rng() {
    let ws = MiniWorkspace::new("rng");
    ws.mutate(
        "crates/mini-kern/src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    let _r: u64 = rand::thread_rng().gen();",
    );
    assert_eq!(ws.fired(), vec!["no-ambient-rng".to_string()]);
}

#[test]
fn same_mutations_are_legal_in_the_shell_crate() {
    // The boundary is the whole point: the wallclock/async edits that
    // turn the kernel red are fine in the shell crate.
    let ws = MiniWorkspace::new("shellok");
    ws.mutate(
        "crates/mini-shell/src/lib.rs",
        "pub fn measure() -> std::time::Duration {",
        "pub async fn measure_async() {}\n\npub fn measure() -> std::time::Duration {",
    );
    assert_eq!(ws.fired(), Vec::<String>::new());
}

/// The PR-7 incident replayed against the real tree: `Sim::snapshot`
/// once forgot a field and replay diverged after restore. Deleting
/// that field's write today must fire snapshot-coverage even though
/// `Sim::restore`'s struct literal still names every field (coverage
/// is per-side, not a union).
#[test]
fn deleting_a_real_sim_snapshot_write_fires() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let engine = std::fs::read_to_string(root.join("crates/digg-sim/src/engine.rs"))
        .expect("read engine.rs");
    let config = Config::default();

    let clean = lint_source("crates/digg-sim/src/engine.rs", &engine, &config);
    assert!(
        clean.violations.is_empty(),
        "pristine engine.rs must lint clean: {:?}",
        clean.violations
    );

    let needle = "        w.put_usize(self.external_lo);\n";
    assert!(
        engine.contains(needle),
        "snapshot write moved — update test"
    );
    let mutated = engine.replace(needle, "");
    let report = lint_source("crates/digg-sim/src/engine.rs", &mutated, &config);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "snapshot-coverage" && v.snippet.contains("external_lo")),
        "deleting the external_lo write must fire snapshot-coverage, got {:?}",
        report.violations
    );
}
