//! Statistics, digests, host facts and the result a workload returns.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (NaN when
/// empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// FNV-1a 64-bit, for digests of artifacts, datasets and grid rows.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn digest(data: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(data);
    h.finish()
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The CPU model string, for the record.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each timed pass, seconds.
    pub pass_s: Vec<f64>,
    /// Votes one pass processes: simulated, or replayed.
    pub votes: u64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Statistical paper-shape claims checked, and how many missed.
    pub shape_claims: u64,
    /// See `shape_claims`.
    pub shape_misses: u64,
    /// Hard check failures (determinism, decomposition equality).
    pub errors: Vec<String>,
    /// The workload's own end-to-end metrics (printed, not gated).
    pub summary: Vec<Metric>,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<Metric>,
    /// Exact counts that must repeat for the same seed.
    pub counts: Vec<(String, u64)>,
    /// Recorded spans, one JSON object per line.
    pub spans_jsonl: String,
}

impl Outcome {
    /// Record a named end-to-end value.
    pub fn summary(&mut self, name: &str, value: f64, unit: &'static str) {
        self.summary.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a named per-layer value; a later pass overwrites an
    /// earlier one.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if let Some(m) = self.layers.iter_mut().find(|m| m.name == name) {
            m.value = value;
            return;
        }
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record an exact count: reported as a per-layer metric and held
    /// to exact repetition. A count already recorded under `name`
    /// must agree.
    pub fn count(&mut self, name: &str, value: u64) {
        if self.exact(name, value) {
            self.layer(name, value as f64, "count");
        }
    }

    /// Hold `value` to exact repetition under `name` (across passes,
    /// and across runs through the count ledger) without reporting it.
    /// Returns whether this is the first value under `name`.
    pub fn exact(&mut self, name: &str, value: u64) -> bool {
        if let Some((_, old)) = self.counts.iter().find(|(n, _)| n == name) {
            if *old != value {
                let msg = format!("{name} differs between passes: {old:#x} vs {value:#x}");
                self.errors.push(msg);
            }
            return false;
        }
        self.counts.push((name.to_string(), value));
        true
    }

    /// Note a hard check failure.
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Look up a per-layer value.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Compare this run's exact counts with the ledger of earlier runs of
/// the same build, workload, seed and mode, then record them. The
/// ledger lives under the benchmark's scratch directory; a build with
/// different bytes starts a new ledger.
pub fn check_count_ledger(path: &Path, counts: &[(String, u64)]) -> Result<(), String> {
    let mut text = String::new();
    for (name, v) in counts {
        let _ = writeln!(text, "{name} {v}");
    }
    match std::fs::read_to_string(path) {
        Ok(old) if old == text => Ok(()),
        Ok(old) => Err(format!(
            "exact counts differ from an earlier run of this build and seed ({}):\nearlier:\n{old}now:\n{text}",
            path.display()
        )),
        Err(_) => std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn repeated_count_must_agree() {
        let mut o = Outcome::default();
        o.count("x", 3);
        o.count("x", 3);
        assert!(o.errors.is_empty());
        o.count("x", 4);
        assert_eq!(o.errors.len(), 1);
        assert_eq!(o.layers.len(), 1);
    }
}
