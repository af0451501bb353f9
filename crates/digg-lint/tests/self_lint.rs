//! The workspace must lint clean with every shipped pragma earning
//! its keep — the same gate CI runs via `cargo run -p digg-lint --
//! --workspace`, pinned here so `cargo test` alone catches a
//! regression.

use digg_lint::{lint_workspace, Config};

#[test]
fn workspace_is_clean_with_no_unused_pragmas() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = digg_lint::walk::workspace_root(here).expect("workspace root above digg-lint");
    let report = lint_workspace(&root, &Config::default()).expect("workspace readable");
    assert!(report.files_scanned > 100, "walker must see the whole tree");
    let mut message = String::new();
    for file in &report.dirty {
        for v in &file.violations {
            message.push_str(&format!(
                "{}:{}: [{}] {}\n",
                file.path, v.line, v.rule, v.snippet
            ));
        }
    }
    assert!(
        report.is_clean(),
        "workspace must lint clean (unused pragmas included):\n{message}"
    );
}

/// The stock-lint half of the contract: every crate `lint-boundary.toml`
/// calls kernel denies the clippy panic lints in its `src/lib.rs`, so
/// the boundary file stays the single source of truth for which crates
/// are kernel.
#[test]
fn every_kernel_crate_denies_the_panic_lints() {
    const HEADER: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                          clippy::unreachable, clippy::todo, clippy::unimplemented)]";
    let squash = |s: &str| s.split_whitespace().collect::<String>();
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = digg_lint::walk::workspace_root(here).expect("workspace root above digg-lint");
    let boundary = std::fs::read_to_string(root.join("lint-boundary.toml")).expect("boundary");
    let boundary = digg_lint::manifest::parse_boundary(&boundary).expect("boundary parses");
    let crates = digg_lint::model::discover_crates(&root).expect("crates");
    assert!(!boundary.kernel.is_empty());
    for name in &boundary.kernel {
        let krate = crates
            .iter()
            .find(|c| &c.name == name)
            .unwrap_or_else(|| panic!("kernel crate `{name}` not in the workspace"));
        let lib = root.join(&krate.dir_prefix).join("src/lib.rs");
        let text =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        assert!(
            squash(&text).contains(&squash(HEADER)),
            "{} must carry `{HEADER}`",
            lib.display()
        );
    }
}
