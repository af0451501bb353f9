//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! library layer: its name (`layer.op`), start and end (nanoseconds
//! since the recorder was made), its parent span, and the unit of work
//! it belongs to (a story id, a grid cell, an artifact name or the run
//! itself). Spans stay in memory until [`Tracer::write_jsonl`] at the
//! end of the run. A disabled recorder runs the closure and reads no
//! clock, which is what the untraced path uses.

use digg_bench::timing::{stopwatch, Stopwatch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The unit of work a span belongs to; spans of one unit share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unit {
    /// The whole workload pass.
    Run,
    /// One story (simulator story id).
    Story(usize),
    /// One scenario-grid cell (row-major index).
    Cell(usize),
    /// One paper artifact or experiment, by name.
    Artifact(String),
}

impl Unit {
    fn render(&self) -> String {
        match self {
            Unit::Run => "run".to_string(),
            Unit::Story(id) => format!("story:{id}"),
            Unit::Cell(i) => format!("cell:{i}"),
            Unit::Artifact(name) => format!("artifact:{name}"),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.op`, e.g. `sim.run`.
    pub name: &'static str,
    /// Unit of work.
    pub unit: Unit,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. One per pass.
pub struct Tracer {
    enabled: bool,
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn nanos(sw: &Stopwatch) -> u64 {
    u64::try_from(sw.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: stopwatch(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` for `unit`. Spans opened by
    /// `f` become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: Unit,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns: nanos(&self.origin),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = nanos(&self.origin);
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = end;
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Self time per layer (ms): each span's duration minus the part
    /// its direct children cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(c) = child_ns.get_mut(p) {
                    *c += s.duration_ns();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) +=
                s.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Append every span as one JSON line to `out`.
    pub fn write_jsonl(&self, pass: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{i},\"name\":\"{}\",\"unit\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.unit.render(),
                s.start_ns,
                s.end_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.span("outer.run", Unit::Run, |t| {
            t.span("inner.op", Unit::Cell(0), |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let by_layer = t.self_ms_by_layer();
        let total = t.total_ms("outer.run");
        let sum: f64 = by_layer.values().sum();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a.b", Unit::Run, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
