//! Mutation self-test: prove the lint configuration *catches* the bug
//! classes it exists for, not merely that the current tree is clean.
//! Each case seeds one source mutation — the minimal edit a distracted
//! refactor would make — into a miniature workspace and asserts that
//! the expected rule fires.
//!
//! Two halves: digg-lint's own rules run in-process over a two-crate
//! mini workspace; the stock rustc/clippy half (wall clock, raw
//! threads, library panics, `unsafe`, bare or reason-less lint
//! attributes) runs the real `cargo clippy` over a compilable mini
//! workspace carrying the repo's own `clippy.toml`, `[workspace.lints]`
//! table and kernel `#![deny(…)]` header. One test replays the
//! `voter_pos` snapshot incident against the real tree: deleting one
//! field write from `Sim::snapshot` must turn the lint red.

use digg_lint::{lint_source, lint_workspace, Config};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The pristine mini workspace: a kernel crate with a Snapshot type,
/// a hot-path fn, and a sorted serialization path; a shell crate it
/// must not depend on. Lints clean before any mutation.
const BOUNDARY: &str = r#"
[crates]
kernel = ["mini-kern"]
shell = ["mini-shell"]
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

const SHELL_LIB: &str = r#"//! Mini shell crate: async and CLI panics are legal here.

pub fn measure(xs: &[u64]) -> u64 {
    xs.iter().sum()
}
"#;

struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    /// Write the pristine tree under a per-process temp dir.
    fn new(case: &str) -> MiniWorkspace {
        MiniWorkspace::with_files(
            case,
            &[
                ("Cargo.toml", ROOT_MANIFEST),
                ("lint-boundary.toml", BOUNDARY),
                ("crates/mini-kern/Cargo.toml", KERN_MANIFEST),
                ("crates/mini-kern/src/lib.rs", KERN_LIB),
                ("crates/mini-shell/Cargo.toml", SHELL_MANIFEST),
                ("crates/mini-shell/src/lib.rs", SHELL_LIB),
            ],
        )
    }

    fn with_files(case: &str, files: &[(&str, &str)]) -> MiniWorkspace {
        let root =
            std::env::temp_dir().join(format!("digg-lint-mutation-{}-{case}", std::process::id()));
        // A leftover tree from a crashed prior run would corrupt the
        // case; start from nothing.
        let _ = std::fs::remove_dir_all(&root);
        for (rel, text) in files {
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
fn same_mutations_are_legal_in_the_shell_crate() {
    // The boundary is the whole point: the async and cast edits that
    // turn the kernel red are fine in the shell crate.
    let ws = MiniWorkspace::new("shellok");
    ws.mutate(
        "crates/mini-shell/src/lib.rs",
        "pub fn measure(xs: &[u64]) -> u64 {",
        "pub async fn measure_async(n: usize) -> u32 {\n    n as u32\n}\n\npub fn measure(xs: &[u64]) -> u64 {",
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

/// The workspace root of this repository.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// The shipped `[workspace.lints…]` tables, verbatim from the root
/// manifest.
fn shipped_workspace_lints() -> String {
    let manifest =
        std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("read root Cargo.toml");
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(
        out.contains("unsafe_code") && out.contains("allow_attributes"),
        "root Cargo.toml lost its [workspace.lints] table:\n{out}"
    );
    out
}

/// The shipped kernel `#![deny(clippy::unwrap_used, …)]` header,
/// verbatim from a real kernel crate.
fn shipped_kernel_header() -> String {
    let lib = std::fs::read_to_string(repo_root().join("crates/des-core/src/lib.rs"))
        .expect("read des-core lib.rs");
    let start = lib
        .find("#![deny(")
        .expect("des-core lib.rs has a #![deny(…)] header");
    let len = lib[start..].find(")]").expect("header closes") + 2;
    let header = &lib[start..start + len];
    assert!(header.contains("clippy::unwrap_used"), "{header}");
    header.to_string()
}

const STOCK_KERN_LIB: &str = r#"//! Mini kernel crate for the stock-lint mutation tests.
HEADER

/// Advance an LCG state.
pub fn step(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// First element, or zero.
pub fn first(xs: &[u64]) -> u64 {
    xs.first().copied().unwrap_or(0)
}
"#;

const STOCK_KERN_TEST: &str = r#"#[test]
fn arithmetic() {
    assert_eq!(2 + 2, 4);
}
"#;

/// `(case, file, needle, replacement, lint that must fire)`: one
/// mini crate per case. `None` means any compile error will do.
const STOCK_MUTATIONS: [(&str, &str, &str, &str, Option<&str>); 9] = [
    (
        "wallclock",
        "src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    let _t = std::time::Instant::now();",
        Some("clippy::disallowed_methods"),
    ),
    (
        "scope",
        "src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    std::thread::scope(|_| {});",
        Some("clippy::disallowed_methods"),
    ),
    (
        "builder",
        "src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    let _b = std::thread::Builder::new();",
        Some("clippy::disallowed_types"),
    ),
    (
        "unwrap",
        "src/lib.rs",
        ".unwrap_or(0)",
        ".unwrap()",
        Some("clippy::unwrap_used"),
    ),
    (
        "unsafe-test",
        "tests/it.rs",
        "    assert_eq!(2 + 2, 4);",
        "    assert_eq!(2 + 2, 4);\n    unsafe {}",
        Some("unsafe_code"),
    ),
    (
        "expect-no-reason",
        "src/lib.rs",
        "/// First element",
        "#[expect(dead_code)]\nfn unused() {}\n\n/// First element",
        Some("clippy::allow_attributes_without_reason"),
    ),
    (
        "bare-allow",
        "src/lib.rs",
        "/// First element",
        "#[allow(dead_code)]\nfn unused() {}\n\n/// First element",
        Some("clippy::allow_attributes"),
    ),
    (
        "stale-expect",
        "src/lib.rs",
        "/// First element",
        "#[expect(clippy::unwrap_used, reason = \"stale\")]\n/// First element",
        Some("unfulfilled_lint_expectations"),
    ),
    (
        "ambient-rng",
        "src/lib.rs",
        "pub fn step(seed: u64) -> u64 {",
        "pub fn step(seed: u64) -> u64 {\n    let _r: u64 = rand::thread_rng().gen();",
        None,
    ),
];

/// The text between the first `needle` in a cargo JSON message line
/// and the next `"`.
fn json_after<'a>(line: &'a str, needle: &str) -> Option<&'a str> {
    let at = line.find(needle)? + needle.len();
    let end = line[at..].find('"')? + at;
    Some(&line[at..end])
}

/// Every stock-lint mutation fails clippy and names its lint, and the
/// pristine crate passes — all in one `cargo clippy` run over a mini
/// workspace with one member crate per case, so the shipped
/// configuration is exercised end to end. Missing clippy is a failure,
/// never a skip.
#[test]
fn stock_lint_mutations_fail_clippy_and_name_their_lint() {
    let header = shipped_kernel_header();
    let lib = STOCK_KERN_LIB.replace("HEADER", &header);
    let clippy_toml =
        std::fs::read_to_string(repo_root().join("clippy.toml")).expect("read clippy.toml");
    let cases: Vec<&str> = std::iter::once("pristine")
        .chain(STOCK_MUTATIONS.iter().map(|m| m.0))
        .collect();
    let members: Vec<String> = cases.iter().map(|c| format!("\"crates/{c}\"")).collect();
    let root_manifest = format!(
        "[workspace]\nmembers = [{}]\nresolver = \"2\"\n\n{}",
        members.join(", "),
        shipped_workspace_lints()
    );
    let mut files: Vec<(String, String)> = vec![
        ("Cargo.toml".into(), root_manifest),
        ("clippy.toml".into(), clippy_toml),
    ];
    for case in &cases {
        let manifest = format!(
            "[package]\nname = \"{case}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[lints]\nworkspace = true\n"
        );
        files.push((format!("crates/{case}/Cargo.toml"), manifest));
        files.push((format!("crates/{case}/src/lib.rs"), lib.clone()));
        files.push((format!("crates/{case}/tests/it.rs"), STOCK_KERN_TEST.into()));
    }
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    let ws = MiniWorkspace::with_files("stock", &refs);
    for (case, file, from, to, _) in STOCK_MUTATIONS {
        ws.mutate(&format!("crates/{case}/{file}"), from, to);
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--keep-going",
            "--message-format=json",
            "--",
            "-D",
            "warnings",
        ])
        .current_dir(&ws.root)
        .env("CARGO_TARGET_DIR", ws.root.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .env_remove("RUSTFLAGS")
        .output()
        .expect("spawn cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the mutated crates must fail clippy:\n{stderr}"
    );

    // Per case: lint codes of error-level diagnostics, and the targets
    // that checked to completion.
    let mut codes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut checked: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in stdout.lines() {
        let Some(manifest) = json_after(line, "\"manifest_path\":\"") else {
            continue;
        };
        let case = Path::new(manifest)
            .parent()
            .and_then(Path::file_name)
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if line.contains("\"reason\":\"compiler-artifact\"") {
            let target = json_after(line, "\"name\":\"").unwrap_or_default();
            checked.entry(case).or_default().push(target.to_string());
        } else if line.contains("\"message\":{\"rendered\":\"error") {
            // Child notes carry `"code":null`, so the first object-valued
            // code is the diagnostic's own.
            let code = json_after(line, "\"code\":{\"code\":\"").unwrap_or("<compile error>");
            codes.entry(case).or_default().push(code.to_string());
        }
    }

    assert!(
        !codes.contains_key("pristine"),
        "the pristine crate must pass clippy, got {:?}\n{stderr}",
        codes.get("pristine")
    );
    let pristine = checked.get("pristine").cloned().unwrap_or_default();
    assert!(
        pristine.iter().any(|t| t == "pristine") && pristine.iter().any(|t| t == "it"),
        "the pristine lib and test targets must check to completion (is clippy installed?), \
         checked {pristine:?}\n{stderr}"
    );
    for (case, _, _, _, lint) in STOCK_MUTATIONS {
        let fired = codes.get(case).cloned().unwrap_or_default();
        match lint {
            Some(lint) => assert!(
                fired.iter().any(|c| c == lint),
                "mutation `{case}` must fail with `{lint}`, got {fired:?}\n{stderr}"
            ),
            None => assert!(
                !fired.is_empty(),
                "mutation `{case}` must fail to check\n{stderr}"
            ),
        }
    }
}
