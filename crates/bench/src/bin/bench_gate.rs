//! Bench-regression gate: fail CI when the incremental sweep or the
//! simulator engine gets slower.
//!
//! ```text
//! bench_gate [CANDIDATE [BASELINE]]
//! ```
//!
//! `CANDIDATE` defaults to `$DIGG_RESULTS_DIR/bench_summary.json`
//! (`./bench_summary.json` otherwise); `BASELINE` defaults to the
//! committed `results/bench_baseline.json`.
//!
//! Raw votes/sec is machine-bound — a slower CI runner would fail
//! every build — so the gate compares two **dimensionless speed
//! ratios** from each file, each of two rows measured in the same
//! process on the same box, so the machine cancels:
//!
//! * `incr_sweep_apply.per_sec / incr_sweep_batch_resweep.per_sec`
//!   (the `incr_sweep` experiment): the incremental path's speed;
//! * `sim_engine_run.per_sec / sim_tick_reference.per_sec` (the
//!   `sim_sweep` experiment): the event engine against the tick loop
//!   on the same paper-regime cells.
//!
//! The gate fails (exit 1) when either candidate ratio drops more than
//! `DIGG_GATE_TOLERANCE` (default 0.15, i.e. >15%) below the
//! baseline's. Set `DIGG_GATE_ABSOLUTE=1` to additionally compare raw
//! `incr_sweep_apply` votes/sec with the same tolerance — for runs on
//! the reference box where absolute rates are comparable.
//!
//! Exit codes: 0 pass, 1 regression, 2 missing/malformed input.

use serde::Value;
use std::path::PathBuf;

/// A JSON number as f64, whatever integer/float variant carried it.
fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// Minimal view of a summary file: just the scale rows the gate reads.
struct Rows(Value);

impl Rows {
    fn load(path: &PathBuf) -> Result<Rows, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        if v.get_field("scale").and_then(|s| s.as_array()).is_none() {
            return Err(format!("{} has no `scale` rows", path.display()));
        }
        Ok(Rows(v))
    }

    /// `per_sec` of the named scale row.
    fn per_sec(&self, name: &str) -> Result<f64, String> {
        self.0
            .get_field("scale")
            .and_then(|s| s.as_array())
            .into_iter()
            .flatten()
            .find(|r| matches!(r.get_field("name"), Some(Value::Str(n)) if n == name))
            .and_then(|r| r.get_field("per_sec").and_then(as_f64))
            .filter(|p| p.is_finite() && *p > 0.0)
            .ok_or_else(|| format!("no positive `{name}` scale row"))
    }

    /// `per_sec` of row `fast` over `per_sec` of row `reference`.
    fn ratio(&self, fast: &str, reference: &str) -> Result<f64, String> {
        Ok(self.per_sec(fast)? / self.per_sec(reference)?)
    }
}

/// One tolerance check; prints its verdict and returns pass/fail.
fn check(label: &str, candidate: f64, baseline: f64, tolerance: f64) -> bool {
    let change = candidate / baseline - 1.0;
    let ok = change >= -tolerance;
    println!(
        "{}: {label} baseline {baseline:.4}, candidate {candidate:.4} ({:+.1}%, tolerance -{:.0}%)",
        if ok { "ok" } else { "REGRESSION" },
        change * 100.0,
        tolerance * 100.0,
    );
    ok
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let candidate_path = args.next().map(PathBuf::from).unwrap_or_else(|| {
        let dir = std::env::var("DIGG_RESULTS_DIR").unwrap_or_else(|_| ".".to_string());
        PathBuf::from(dir).join("bench_summary.json")
    });
    let baseline_path = args
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/bench_baseline.json"));
    let tolerance = std::env::var("DIGG_GATE_TOLERANCE")
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|t| t.is_finite() && (0.0..1.0).contains(t))
        .unwrap_or(0.15);

    let candidate = Rows::load(&candidate_path)?;
    let baseline = Rows::load(&baseline_path)?;
    println!(
        "bench_gate: {} vs baseline {}",
        candidate_path.display(),
        baseline_path.display()
    );

    let mut ok = true;
    for (label, fast, reference) in [
        (
            "incr_sweep apply/batch ratio",
            "incr_sweep_apply",
            "incr_sweep_batch_resweep",
        ),
        (
            "sim engine/tick-loop ratio",
            "sim_engine_run",
            "sim_tick_reference",
        ),
    ] {
        ok &= check(
            label,
            candidate.ratio(fast, reference)?,
            baseline.ratio(fast, reference)?,
            tolerance,
        );
    }
    if std::env::var("DIGG_GATE_ABSOLUTE").ok().as_deref() == Some("1") {
        ok &= check(
            "incr_sweep_apply votes/sec",
            candidate.per_sec("incr_sweep_apply")?,
            baseline.per_sec("incr_sweep_apply")?,
            tolerance,
        );
    }
    Ok(ok)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    }
}
