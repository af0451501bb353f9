//! Report rendering: human text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (the linter is dependency-free by
//! design) and emits keys in a fixed order with sorted file entries,
//! so the report bytes are stable for a given tree — stable enough to
//! commit as the baseline the CI gate compares against ([`crate::baseline`]).

use crate::FileReport;
use std::collections::BTreeMap;

/// Human-readable report: one `path:line: [rule] snippet` per
/// violation plus a summary line.
pub fn render_text(reports: &[FileReport], files_scanned: usize, allows: usize) -> String {
    let mut out = String::new();
    let mut total = 0usize;
    for fr in reports {
        for v in &fr.violations {
            total += 1;
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                fr.path, v.line, v.rule, v.snippet
            ));
        }
    }
    if total == 0 {
        out.push_str(&format!(
            "digg-lint: clean — {files_scanned} files, {allows} justified suppression(s)\n"
        ));
    } else {
        out.push_str(&format!(
            "digg-lint: {total} violation(s) in {files_scanned} files ({allows} suppression(s) honoured)\n"
        ));
    }
    out
}

/// Machine-readable report. `suppressed_by_rule` is the per-rule
/// suppression ledger; pass an empty map in single-file mode.
pub fn render_json(
    reports: &[FileReport],
    files_scanned: usize,
    allows: usize,
    suppressed_by_rule: &BTreeMap<String, usize>,
) -> String {
    let mut out = String::from("{\n");
    let total: usize = reports.iter().map(|r| r.violations.len()).sum();
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"allows_honoured\": {allows},\n"));
    out.push_str(&format!("  \"violations\": {total},\n"));
    out.push_str("  \"suppressed_by_rule\": {");
    let mut first = true;
    for (rule, n) in suppressed_by_rule {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {n}", json_str(rule)));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    out.push_str("  \"findings\": [");
    let mut first = true;
    for fr in reports {
        for v in &fr.violations {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}}}",
                json_str(&fr.path),
                v.line,
                json_str(v.rule),
                json_str(&v.snippet)
            ));
        }
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Violation;

    fn sample() -> Vec<FileReport> {
        vec![FileReport {
            path: "crates/x/src/lib.rs".into(),
            violations: vec![Violation {
                rule: "no-truncating-cast",
                line: 3,
                snippet: "n as u32; \"q\"".into(),
            }],
            allows_honoured: 2,
            suppressed_rules: vec!["clippy::panic".into(), "clippy::panic".into()],
        }]
    }

    #[test]
    fn text_report_lists_and_sums() {
        let text = render_text(&sample(), 5, 2);
        assert!(text.contains("crates/x/src/lib.rs:3: [no-truncating-cast]"));
        assert!(text.contains("1 violation(s) in 5 files (2 suppression(s) honoured)"));
        let clean = render_text(&[], 5, 2);
        assert!(clean.contains("clean"));
    }

    #[test]
    fn json_report_is_valid_and_escaped() {
        let ledger: BTreeMap<String, usize> = [("clippy::panic".to_string(), 2)].into();
        let json = render_json(&sample(), 5, 2, &ledger);
        assert!(json.contains("\"files_scanned\": 5"));
        assert!(json.contains("\\\"q\\\""));
        assert!(json.contains("\"rule\": \"no-truncating-cast\""));
        assert!(json.contains("\"clippy::panic\": 2"));
        // Balanced braces/brackets as a cheap validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_ledger_renders_empty_object() {
        let json = render_json(&[], 0, 0, &BTreeMap::new());
        assert!(json.contains("\"suppressed_by_rule\": {},"));
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
