//! Workspace discovery: which `.rs` files get linted, and as what.

use std::path::{Path, PathBuf};

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies, including the
    /// narrowing-cast rule.
    Lib,
    /// Binary target (`src/bin/*`, `src/main.rs`): the cast rule is
    /// waived, the determinism rules still apply.
    Bin,
    /// Integration tests, benches, examples: determinism rules only.
    TestOrBench,
}

/// Classify a path (workspace-relative, `/`-separated).
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    let has_dir = |d: &str| parts.contains(&d);
    if has_dir("tests") || has_dir("benches") || has_dir("examples") {
        return FileKind::TestOrBench;
    }
    if rel.ends_with("src/main.rs") || rel.contains("/src/bin/") {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Directories never linted: vendored third-party subsets, build
/// output, and the linter's own rule fixtures (which are deliberate
/// violations).
fn skip_dir(rel: &str) -> bool {
    rel == "vendor"
        || rel == "target"
        || rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.starts_with("crates/digg-lint/tests/fixtures")
        || rel.split('/').any(|p| p.starts_with('.'))
}

/// Find the workspace root: ascend from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All workspace `.rs` files under `root`, as sorted workspace-relative
/// paths — sorted so reports and JSON output are byte-stable across
/// filesystems and runs.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect(root, Path::new(""), &mut out)?;
    out.sort();
    Ok(out)
}

fn collect(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if skip_dir(&rel_str) {
        return Ok(());
    }
    let abs = root.join(rel);
    let mut entries: Vec<_> = std::fs::read_dir(&abs)?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .collect();
    entries.sort();
    for name in entries {
        let child_rel = rel.join(&name);
        let child_abs = root.join(&child_rel);
        // Never follow symlinks: a link back up the tree would recurse
        // forever, and a link out of the tree would lint files that are
        // not part of the workspace. `symlink_metadata` stats the link
        // itself where `is_dir` would stat the target.
        let meta = std::fs::symlink_metadata(&child_abs)?;
        if meta.file_type().is_symlink() {
            continue;
        }
        if meta.is_dir() {
            collect(root, &child_rel, out)?;
        } else if child_rel.extension().is_some_and(|e| e == "rs") {
            out.push(child_rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/digg-sim/src/engine.rs"), FileKind::Lib);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/calibrate.rs"), FileKind::Bin);
        assert_eq!(
            classify("crates/core/tests/thread_invariance.rs"),
            FileKind::TestOrBench
        );
        assert_eq!(
            classify("crates/bench/benches/perf.rs"),
            FileKind::TestOrBench
        );
        assert_eq!(classify("examples/quickstart.rs"), FileKind::TestOrBench);
    }

    #[test]
    fn skips_vendor_fixtures_and_dotdirs() {
        assert!(skip_dir("vendor"));
        assert!(skip_dir("vendor/serde"));
        assert!(skip_dir("target/debug"));
        assert!(skip_dir("crates/digg-lint/tests/fixtures"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("crates/digg-lint/tests"));
        assert!(!skip_dir("crates"));
    }

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = workspace_root(here).expect("workspace root not found");
        assert!(root.join("crates/digg-lint").is_dir());
    }

    /// Scratch tree under the target dir, removed on drop. Named by
    /// pid + case so concurrent test binaries cannot collide.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(case: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("digg-lint-walk-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            Scratch(dir)
        }

        fn write(&self, rel: &str, text: &str) {
            let p = self.0.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, text).expect("write");
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn rels(dir: &Path) -> Vec<String> {
        workspace_files(dir)
            .expect("walk")
            .into_iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect()
    }

    #[test]
    fn visits_files_in_sorted_order() {
        let s = Scratch::new("sorted");
        s.write("src/zeta.rs", "");
        s.write("src/alpha.rs", "");
        s.write("crates/a/src/lib.rs", "");
        s.write("notes.md", "");
        assert_eq!(
            rels(&s.0),
            vec!["crates/a/src/lib.rs", "src/alpha.rs", "src/zeta.rs"]
        );
    }

    #[test]
    fn excludes_target_and_vendor_trees() {
        let s = Scratch::new("excl");
        s.write("src/lib.rs", "");
        s.write("target/debug/build/gen.rs", "");
        s.write("vendor/dep/src/lib.rs", "");
        s.write("crates/digg-lint/tests/fixtures/x/bad.rs", "");
        assert_eq!(rels(&s.0), vec!["src/lib.rs"]);
    }

    #[cfg(unix)]
    #[test]
    fn symlink_cycles_terminate_and_links_are_not_followed() {
        let s = Scratch::new("cycle");
        s.write("src/lib.rs", "");
        s.write("outside.rs", "");
        // A directory symlink pointing back at the root: following it
        // would recurse forever.
        std::os::unix::fs::symlink(&s.0, s.0.join("src/loop")).expect("symlink");
        // A file symlink to an .rs file: linked sources are not
        // workspace members.
        std::os::unix::fs::symlink(s.0.join("outside.rs"), s.0.join("src/linked.rs"))
            .expect("symlink");
        assert_eq!(rels(&s.0), vec!["outside.rs", "src/lib.rs"]);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_names_do_not_panic() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        let s = Scratch::new("nonutf8");
        s.write("src/lib.rs", "");
        let weird_dir = s.0.join(OsStr::from_bytes(b"src/b\xc3dir\xff"));
        std::fs::create_dir_all(&weird_dir).expect("mkdir");
        std::fs::write(weird_dir.join("inner.rs"), "").expect("write");
        std::fs::write(s.0.join(OsStr::from_bytes(b"src/we\xffird.rs")), "").expect("write");
        let got = rels(&s.0);
        assert!(got.contains(&"src/lib.rs".to_string()), "{got:?}");
        // The mangled names are still walked (lossily) without panics.
        assert_eq!(got.len(), 3, "{got:?}");
    }
}
