//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_pipeline|vote_replay|scenario_grid>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --work <dir> [--worker <sweep_worker binary>]
//! ```
//!
//! Each workload builds its inputs from the seed (set-up, repeated and
//! reported as a median), then runs timed passes until `--seconds` have
//! elapsed (at least one). Every pass's outputs are checked. Human
//! readable lines go first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `LAYERS.md` for what each metric means.

mod grid;
mod measure;
mod pipeline;
mod replay;
mod trace;

use digg_bench::timing::stopwatch;
use digg_core::incremental::IncrementalSweep;
use digg_sim::metrics::SimMetrics;
use digg_sim::Sim;
use measure::{Metric, Outcome};
use social_graph::{FanView, UserId};
use std::fmt::Debug;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("votes_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload measures, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 26] = [
    ("population.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.votes", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.ns_per_vote", "ns"),
    ("sim.exposures_scheduled", "count"),
    ("sim.exposures_fired", "count"),
    ("sim.exposure_yield", "ratio"),
    ("sweep.apply_ms", "ms"),
    ("sweep.votes_applied", "count"),
    ("sweep.ns_per_vote", "ns"),
    ("sweep.in_network_frac", "ratio"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "count"),
    ("snapshot.checkpoints", "count"),
    ("supervisor.respawns", "count"),
    ("supervisor.fallbacks", "count"),
    ("supervisor.cells_failed", "count"),
    ("population.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("sweep.self_ms", "ms"),
    ("snapshot.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    work: PathBuf,
    /// The `sweep_worker` binary for `scenario_grid`.
    pub worker: Option<PathBuf>,
    /// Worker subprocesses and `DIGG_THREADS`, at most the CPU count.
    pub workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = None;
    let mut worker = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--worker" => worker = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: work.ok_or("--work is required")?,
        worker,
        workers: cpus.min(2),
    })
}

/// Run set-up `reps` times; each run returns a key that must repeat
/// exactly and the set-up product. Returns the last product and the
/// median set-up time in seconds.
pub fn repeat_setup<K: PartialEq + Debug, V>(
    reps: usize,
    mut f: impl FnMut() -> Result<(K, V), String>,
) -> (Result<V, String>, f64) {
    let mut times = Vec::new();
    let mut first: Option<K> = None;
    let mut product = Err("set-up did not run".to_string());
    for _ in 0..reps.max(1) {
        let sw = stopwatch();
        let r = f();
        times.push(sw.elapsed().as_secs_f64());
        match r {
            Ok((k, v)) => {
                if let Some(f0) = &first {
                    if *f0 != k {
                        let msg = format!("set-up is not deterministic: {f0:?} vs {k:?}");
                        return (Err(msg), measure::median(&times));
                    }
                } else {
                    first = Some(k);
                }
                product = Ok(v);
            }
            Err(e) => return (Err(e), measure::median(&times)),
        }
    }
    (product, measure::median(&times))
}

/// Vote, in-network and flag totals of story sweeps.
#[derive(Default)]
pub struct SweepTally {
    votes: u64,
    flags: u64,
    in_network: u64,
}

impl SweepTally {
    /// Replay one story's voters through `incr` and tally the result.
    pub fn replay<G: FanView>(
        &mut self,
        incr: &mut IncrementalSweep,
        graph: &G,
        voters: &[UserId],
    ) {
        incr.begin(graph);
        for &v in voters {
            incr.apply_vote(graph, v);
        }
        let flags = incr.sweep().flags();
        self.votes += voters.len() as u64;
        self.flags += flags.len() as u64;
        self.in_network += flags.iter().filter(|&&f| f).count() as u64;
    }
}

/// `sim.*` metrics from simulator counters and the `sim.run` spans.
pub fn layer_sim_counts(out: &mut Outcome, t: &Tracer, events: u64, m: &SimMetrics) {
    let run_ms = t.total_ms("sim.run");
    let votes = m.total_votes();
    out.layer("sim.run_ms", run_ms, "ms");
    out.count("sim.events", events);
    out.count("sim.votes", votes);
    out.count("sim.exposures_scheduled", m.exposures_scheduled);
    out.count("sim.exposures_fired", m.exposures_fired);
    out.layer(
        "sim.ns_per_event",
        run_ms * 1e6 / events.max(1) as f64,
        "ns",
    );
    out.layer("sim.ns_per_vote", run_ms * 1e6 / votes.max(1) as f64, "ns");
    out.layer(
        "sim.exposure_yield",
        m.votes_friends as f64 / m.exposures_fired.max(1) as f64,
        "ratio",
    );
}

/// `sim.*` metrics of one simulation.
pub fn layer_sim_metrics(out: &mut Outcome, t: &Tracer, sim: &Sim) {
    layer_sim_counts(out, t, sim.events_fired(), sim.metrics());
}

/// `sweep.*` metrics from a tally and the `sweep.apply` spans.
pub fn layer_sweep_metrics(out: &mut Outcome, t: &Tracer, tally: &SweepTally) {
    let ms = t.total_ms("sweep.apply");
    out.layer("sweep.apply_ms", ms, "ms");
    out.count("sweep.votes_applied", tally.votes);
    out.layer(
        "sweep.ns_per_vote",
        ms * 1e6 / tally.votes.max(1) as f64,
        "ns",
    );
    out.layer(
        "sweep.in_network_frac",
        tally.in_network as f64 / tally.flags.max(1) as f64,
        "ratio",
    );
}

/// `<layer>.self_ms` for every layer `t` saw.
pub fn layer_self_times(out: &mut Outcome, t: &Tracer) {
    for (layer, ms) in t.self_ms_by_layer() {
        out.layer(&format!("{layer}.self_ms"), ms, "ms");
    }
}

/// Digest of this executable, so the count ledger never compares two
/// different builds.
fn exe_digest() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| measure::digest(&bytes))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Analytics fan out over DIGG_THREADS; pin it (and the grid's
    // worker count) to at most the CPU count, capped at two.
    std::env::set_var("DIGG_THREADS", args.workers.to_string());
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let mut out = match args.workload.as_str() {
        "paper_pipeline" => pipeline::run(&args, &args.work.join("pipeline")),
        "vote_replay" => replay::run(&args),
        "scenario_grid" => grid::run(&args, &args.work.join("grid")),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(args.work.join("pipeline"));
    let _ = std::fs::remove_dir_all(args.work.join("grid"));
    if out.pass_s.is_empty() {
        for e in &out.errors {
            eprintln!("perfbench: {e}");
        }
        std::process::exit(1);
    }
    let mode = if args.trace { 1 } else { 0 };
    let ledger = args.work.join(format!(
        "counts-{:016x}-{}-{}-{mode}.txt",
        exe_digest(),
        args.workload,
        args.seed
    ));
    if let Err(e) = measure::check_count_ledger(&ledger, &out.counts) {
        out.error(e);
    }
    if args.trace {
        let written = out.spans_jsonl.lines().count();
        out.layer("trace.spans", written as f64, "count");
        let spans = args
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&spans, &out.spans_jsonl) {
            out.error(format!("write {}: {e}", spans.display()));
        }
    }

    let pass_s = measure::median(&out.pass_s);
    // Throughput over the whole run (total votes ÷ total pass time):
    // the host's speed drifts over tens of seconds, and a run-long
    // average follows that drift more smoothly than a median of passes.
    let busy: f64 = out.pass_s.iter().sum();
    let e2e = [
        out.setup_s,
        out.votes as f64 * out.pass_s.len() as f64 / busy,
        measure::peak_rss_mb(),
    ];
    println!(
        "perfbench workload={} seed={} seconds={} trace={mode}",
        args.workload, args.seed, args.seconds
    );
    println!(
        "host: cpu=\"{}\" nproc={} DIGG_THREADS={} workers={}",
        measure::cpu_model(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.workers,
        args.workers
    );
    println!(
        "pass_s = {pass_s:.6} s (passes {}, p10 {:.6}, q1 {:.6}, q3 {:.6}, p90 {:.6})",
        out.pass_s.len(),
        measure::quantile(&out.pass_s, 0.1),
        measure::quantile(&out.pass_s, 0.25),
        measure::quantile(&out.pass_s, 0.75),
        measure::quantile(&out.pass_s, 0.9)
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("{name} = {v:.6} {unit}");
    }
    for Metric { name, value, unit } in &out.summary {
        println!("{name} = {value:.6} {unit}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ratio (failed {} of {} attempted)",
        out.failed, out.attempted
    );
    if out.shape_claims > 0 {
        println!(
            "paper_shape_misses = {} of {} claims",
            out.shape_misses, out.shape_claims
        );
    }
    if args.trace {
        println!("per-layer (traced run):");
        for Metric { name, value, unit } in &out.layers {
            println!("  {name} = {value:.6} {unit}");
        }
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layer_value(name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let correct = out.errors.is_empty()
        && out.failed == 0
        && out.attempted > 0
        && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}
