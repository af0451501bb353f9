//! `kernel-dep-shell`: the manifest half of the determinism boundary.
//!
//! `lint-boundary.toml` partitions the workspace into kernel crates
//! (bit-replayable — the in-source rules stay strict there) and shell
//! crates (harness/driver layer — async, truncating casts and CLI
//! panics are theirs to own). The partition is only sound if the
//! kernel cannot *reach* the shell: a kernel crate listing a shell
//! crate in `[dependencies]` would let nondeterminism back in through
//! the build graph, so that edge is an error reported against the
//! offending `Cargo.toml` line. Dev-dependencies are exempt — tests
//! may drive the kernel with shell tooling without shipping it.
//!
//! There is deliberately no pragma escape here: moving a crate across
//! the boundary is a `lint-boundary.toml` edit reviewed as such, not
//! an inline exemption.

use crate::model::CrateInfo;
use crate::rules::{Violation, KERNEL_DEP_SHELL};

/// Check every kernel crate's `[dependencies]` against the shell
/// list. Returns violations keyed by manifest path.
pub fn run(crates: &[CrateInfo], shell: &[String]) -> Vec<(String, Violation)> {
    let is_shell = |name: &str| shell.iter().any(|s| s == name);
    let mut out = Vec::new();
    for c in crates {
        if is_shell(&c.name) {
            continue;
        }
        for (dep, line) in &c.deps {
            if is_shell(dep) {
                out.push((
                    c.manifest_rel.clone(),
                    Violation {
                        rule: KERNEL_DEP_SHELL,
                        line: *line,
                        snippet: format!(
                            "kernel crate `{}` depends on shell crate `{dep}`",
                            c.name
                        ),
                    },
                ));
            }
        }
    }
    out.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn krate(name: &str, deps: &[(&str, usize)]) -> CrateInfo {
        CrateInfo {
            name: name.to_string(),
            manifest_rel: format!("crates/{name}/Cargo.toml"),
            dir_prefix: format!("crates/{name}/"),
            deps: deps.iter().map(|(d, l)| (d.to_string(), *l)).collect(),
        }
    }

    #[test]
    fn kernel_to_shell_edge_fires() {
        let crates = vec![
            krate("kern", &[("shelly", 7), ("other-kern", 8)]),
            krate("other-kern", &[]),
            krate("shelly", &[("kern", 5)]),
        ];
        let shell = vec!["shelly".to_string()];
        let v = run(&crates, &shell);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, "crates/kern/Cargo.toml");
        assert_eq!(v[0].1.rule, KERNEL_DEP_SHELL);
        assert_eq!(v[0].1.line, 7);
    }

    #[test]
    fn shell_may_depend_on_kernel_and_shell() {
        let crates = vec![krate("shelly", &[("kern", 3), ("shelly2", 4)])];
        let shell = vec!["shelly".to_string(), "shelly2".to_string()];
        assert!(run(&crates, &shell).is_empty());
    }
}
