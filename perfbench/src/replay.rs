//! `vote_replay`: per-vote analytics in the paper's in-network regime.
//!
//! Set-up runs a short June-2006 simulation. The timed phase replays
//! every story's chronological voter log through
//! `IncrementalSweep::begin` / `apply_vote`, one story at a time, and
//! times each story. Every replayed story is checked against a batch
//! `StorySweeper::sweep` of the same voters: flags, cascade and
//! influence must be identical.

use crate::measure::{quantile, Outcome};
use crate::trace::{Tracer, Unit};
use crate::{layer_sim_metrics, layer_sweep_metrics, Args, SweepTally};
use digg_bench::timing::stopwatch;
use digg_core::incremental::IncrementalSweep;
use digg_core::story_metrics::{StorySweep, StorySweeper};
use digg_sim::time::DAY;
use digg_sim::{scenario, Sim};
use social_graph::SocialGraph;

/// Simulated days the set-up runs.
const SETUP_DAYS: u64 = 2;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 3;
/// Salt `synthesize` uses for the population; kept so a replay seed
/// and a pipeline seed simulate the same site.
const POPULATION_SALT: u64 = 0x9E37_79B9;

/// Set-up under `t`: population, `Sim::new`, `Sim::run`.
fn simulate(seed: u64, t: &mut Tracer) -> Sim {
    let pop = t.span("population.build", Unit::Run, |_| {
        scenario::june2006_population(seed ^ POPULATION_SALT)
    });
    let mut sim = t.span("sim.new", Unit::Run, |_| {
        Sim::new(scenario::june2006(seed), pop)
    });
    t.span("sim.run", Unit::Run, |_| sim.run(SETUP_DAYS * DAY));
    sim
}

/// Replay every story once, timing each; returns the per-story
/// seconds and the number of stories that disagree with `reference`.
fn replay_pass(
    graph: &SocialGraph,
    stories: &[&[social_graph::UserId]],
    reference: &[StorySweep],
    incr: &mut IncrementalSweep,
    latencies: &mut Vec<f64>,
) -> (f64, u64) {
    let mut total = 0.0;
    let mut mismatches = 0u64;
    for (voters, want) in stories.iter().zip(reference) {
        let sw = stopwatch();
        incr.begin(graph);
        for &v in voters.iter() {
            incr.apply_vote(graph, v);
        }
        let s = sw.elapsed().as_secs_f64();
        total += s;
        latencies.push(s);
        if incr.sweep() != want {
            mismatches += 1;
        }
    }
    (total, mismatches)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (sim, setup_s) = crate::repeat_setup(SETUP_REPS, || {
        let sim = simulate(args.seed, &mut Tracer::new(false));
        Ok(((sim.events_fired(), sim.metrics().clone()), sim))
    });
    out.setup_s = setup_s;
    let sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    out.count("sim.events", sim.events_fired());
    let mut setup_spans = String::new();
    if args.trace {
        // The simulator layers run in set-up: trace one more set-up
        // to measure them, and checkpoint its result once.
        let mut t = Tracer::new(true);
        let traced = simulate(args.seed, &mut t);
        if traced.metrics() != sim.metrics() || traced.events_fired() != sim.events_fired() {
            out.error("traced set-up simulation differs from the untraced one".to_string());
        }
        crate::pipeline::snapshot_roundtrip(&traced, &mut t, &mut out);
        layer_sim_metrics(&mut out, &t, &traced);
        out.layer("population.build_ms", t.total_ms("population.build"), "ms");
        crate::layer_self_times(&mut out, &t);
        t.write_jsonl(0, &mut setup_spans);
    }
    let graph = &sim.population().graph;
    let stories: Vec<&[social_graph::UserId]> =
        sim.stories().iter().map(|s| s.votes.users()).collect();
    let votes: usize = stories.iter().map(|v| v.len()).sum();

    // The batch reference every replayed story must reproduce.
    let mut batch = StorySweeper::new(graph);
    let reference: Vec<StorySweep> = stories
        .iter()
        .map(|v| batch.sweep(graph, v).clone())
        .collect();

    let mut incr = IncrementalSweep::new(graph);
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut traced = Vec::new();
    let clock = stopwatch();
    while out.pass_s.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let (seconds, mismatches) =
            replay_pass(graph, &stories, &reference, &mut incr, &mut latencies);
        out.pass_s.push(seconds);
        rates.push(votes as f64 / seconds);
        out.attempted += stories.len() as u64;
        out.failed += mismatches;
        if args.trace {
            let mut t = Tracer::new(true);
            let mut tally = SweepTally::default();
            let sw = stopwatch();
            for (i, voters) in stories.iter().enumerate() {
                t.span("sweep.apply", Unit::Story(i), |_| {
                    tally.replay(&mut incr, graph, voters)
                });
            }
            traced.push(sw.elapsed().as_secs_f64());
            layer_sweep_metrics(&mut out, &t, &tally);
            crate::layer_self_times(&mut out, &t);
            out.spans_jsonl.clear();
            t.write_jsonl(out.pass_s.len(), &mut out.spans_jsonl);
        }
    }
    out.spans_jsonl.insert_str(0, &setup_spans);
    let in_network: usize = reference
        .iter()
        .map(|r| r.flags().iter().filter(|&&f| f).count())
        .sum();
    let flags: usize = reference.iter().map(|r| r.flags().len()).sum();
    out.count("replay.stories", stories.len() as u64);
    out.count("replay.votes", votes as u64);
    out.votes = votes as u64;
    out.summary("replay_votes_per_s", crate::measure::median(&rates), "1/s");
    out.summary("story_p50_us", quantile(&latencies, 0.5) * 1e6, "us");
    out.summary("story_p999_us", quantile(&latencies, 0.999) * 1e6, "us");
    out.summary("story_samples", latencies.len() as f64, "count");
    out.summary(
        "in_network_frac",
        in_network as f64 / flags.max(1) as f64,
        "ratio",
    );
    if args.trace {
        let untraced = crate::measure::median(&out.pass_s);
        out.layer(
            "trace.overhead_ms",
            (crate::measure::median(&traced) - untraced) * 1e3,
            "ms",
        );
    }
    out
}
