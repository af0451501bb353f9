//! Fixture tests: for every rule, the `bad.rs` fixture fires exactly
//! that rule and the `good.rs` fixture is silent; pragma fixtures
//! prove suppression works and that stale or unparseable pragmas are
//! themselves errors. Together these pin the acceptance property that
//! reintroducing a banned pattern (or deleting a load-bearing pragma)
//! turns the lint red.

use digg_lint::{lint_source, Config};

/// Lint fixture text as library code (every rule in scope).
fn lint_lib(src: &str) -> Vec<(String, usize)> {
    lint_source("crates/fixture/src/lib.rs", src, &Config::default())
        .violations
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

fn rules_fired(src: &str) -> Vec<String> {
    let mut rules: Vec<String> = lint_lib(src).into_iter().map(|(r, _)| r).collect();
    rules.sort();
    rules.dedup();
    rules
}

macro_rules! rule_fixture {
    ($test:ident, $dir:literal, $rule:literal) => {
        #[test]
        fn $test() {
            let bad = include_str!(concat!("fixtures/", $dir, "/bad.rs"));
            let good = include_str!(concat!("fixtures/", $dir, "/good.rs"));
            assert_eq!(
                rules_fired(bad),
                vec![$rule.to_string()],
                "bad.rs must fire exactly {}",
                $rule
            );
            assert!(
                lint_lib(good).is_empty(),
                "good.rs must be silent, got {:?}",
                lint_lib(good)
            );
        }
    };
}

rule_fixture!(
    no_unordered_serialize_fixture,
    "no-unordered-serialize",
    "no-unordered-serialize"
);
rule_fixture!(
    no_truncating_cast_fixture,
    "no-truncating-cast",
    "no-truncating-cast"
);
rule_fixture!(
    snapshot_coverage_fixture,
    "snapshot-coverage",
    "snapshot-coverage"
);
rule_fixture!(hot_path_alloc_fixture, "hot-path-alloc", "hot-path-alloc");
rule_fixture!(
    unordered_taint_fixture,
    "unordered-taint",
    "unordered-taint"
);
rule_fixture!(
    no_async_kernel_fixture,
    "no-async-kernel",
    "no-async-kernel"
);

#[test]
fn hot_path_callee_alloc_reports_at_callee_line() {
    // The `tick` -> `refill` chain in the bad fixture must anchor the
    // violation at `refill`'s .extend( line, where the fix belongs.
    let bad = include_str!("fixtures/hot-path-alloc/bad.rs");
    let lines: Vec<usize> = lint_lib(bad)
        .into_iter()
        .filter(|(r, _)| r == "hot-path-alloc")
        .map(|(_, l)| l)
        .collect();
    let extend_line = bad
        .lines()
        .position(|l| l.contains(".extend("))
        .expect("fixture has .extend(")
        + 1;
    assert!(lines.contains(&extend_line), "{lines:?} vs {extend_line}");
}

#[test]
fn async_is_waived_in_shell_crates() {
    let bad = include_str!("fixtures/no-async-kernel/bad.rs");
    let config = Config {
        shell_paths: vec!["crates/fixture/".to_string()],
    };
    let report = lint_source("crates/fixture/src/lib.rs", bad, &config);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn bad_fixtures_flag_every_expected_line() {
    // Spot-check line anchoring on the cast fixture.
    let bad = include_str!("fixtures/no-truncating-cast/bad.rs");
    let lines: Vec<usize> = lint_lib(bad).into_iter().map(|(_, l)| l).collect();
    assert_eq!(lines, vec![4, 8], "the `as u32` and `as i32` sites");
}

#[test]
fn allow_pragmas_suppress_in_both_placements() {
    let src = include_str!("fixtures/pragmas/allowed.rs");
    let report = lint_source("crates/fixture/src/lib.rs", src, &Config::default());
    assert!(
        report.violations.is_empty(),
        "both pragma placements must suppress, got {:?}",
        report.violations
    );
    assert_eq!(report.allows_honoured, 2);
}

#[test]
fn unused_allow_is_an_error() {
    let src = include_str!("fixtures/pragmas/unused.rs");
    assert_eq!(rules_fired(src), vec!["unused-allow".to_string()]);
}

#[test]
fn malformed_and_misplaced_pragmas_do_not_suppress() {
    let src = include_str!("fixtures/pragmas/malformed.rs");
    let fired = rules_fired(src);
    // Unknown rule id and missing reason are malformed; the casts
    // they failed to cover still fire; the pragma one line too far up
    // is unused.
    assert_eq!(
        fired,
        vec![
            "malformed-pragma".to_string(),
            "no-truncating-cast".to_string(),
            "unused-allow".to_string(),
        ]
    );
    let casts = lint_lib(src)
        .into_iter()
        .filter(|(r, _)| r == "no-truncating-cast")
        .count();
    assert_eq!(casts, 3, "none of the three casts may be suppressed");
}

#[test]
fn bin_files_skip_casts_but_keep_determinism_rules() {
    let src = "pub async fn main() {\n    let _ = 7usize as u32;\n}\n";
    let report = lint_source("crates/fixture/src/bin/tool.rs", src, &Config::default());
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["no-async-kernel"]);
}
