//! The scenario-sweep experiments: deterministic parallel fan-outs of
//! independent `(config, seed)` runs on the `des-core` kernels.
//!
//! Two standalone registry entries live here:
//!
//! * `sim_sweep` — checks the event-driven [`Sim`] against the seed
//!   tick loop ([`TickSim`]) metric-for-metric on several seeds,
//!   shards a toy scenario grid through the supervised runner
//!   [`digg_sim::supervisor::run_sweep_supervised`] (subprocess
//!   `sweep_worker`s when the binary is present, the bit-identical
//!   in-process path otherwise), and times the engine against the tick
//!   loop on a *sparse* long-horizon scenario (recorded as a baseline
//!   row in `bench_summary.json`).
//! * `epi_sweep` — checks the event-driven cascade kernel against the
//!   full-scan model bit-for-bit, sweeps an SIR `(beta, gamma)` grid
//!   and a cascade `phi` grid on the event kernels, and times the
//!   event kernels against the step/scan loops.
//!
//! Every payload here is **timing-free and thread-invariant**: the
//! grids fan out with [`digg_core::par_map`] (contiguous chunks,
//! outputs concatenated in chunk order), so the artifact JSON is
//! byte-identical at any `DIGG_THREADS`. The integration test
//! `tests/sweep_invariance.rs` pins that by running the payload
//! builders at the thread counts `DIGG_THREADS=1/2/8` would select —
//! [`digg_core::worker_threads`] is the one place that env var is
//! parsed. Timings go to the bench summary's run and baseline records
//! instead.

use crate::baseline::BaselineRecord;
use crate::registry::{record_baselines, Artifact};
use crate::timing::time_ms;
use digg_epidemics::{cascade_model, des};
use digg_sim::baseline::TickSim;
use digg_sim::population::{Population, PopulationConfig};
use digg_sim::supervisor::{run_sweep_supervised, SupervisorConfig};
use digg_sim::sweep::{CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::{Kernel, Sim, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use social_graph::generators::{erdos_renyi, modular};
use social_graph::{GraphBuilder, SocialGraph, UserId};

// ------------------------------------------------------------ sim_sweep

/// One tick-loop-vs-event-kernel equivalence verdict.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EquivalenceCheck {
    /// Seed the pair of runs used.
    pub seed: u64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Submissions observed (same on both sides when `ok`).
    pub submissions: u64,
    /// Votes observed (same on both sides when `ok`).
    pub votes: u64,
    /// Whether the full `SimMetrics` structs were identical.
    pub ok: bool,
}

/// Identity of a sweep cell whose simulation panicked. The sweep
/// itself survives — panic isolation in the fan-out — and the loss is
/// surfaced here instead of aborting the experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PanickedCell {
    /// Scenario name of the failed cell.
    pub scenario: String,
    /// Seed of the failed run.
    pub seed: u64,
    /// Rendered panic payload.
    pub message: String,
}

/// The timing-free `sim_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSweepPayload {
    /// Per-seed tick-loop equivalence verdicts (all must hold).
    pub equivalence: Vec<EquivalenceCheck>,
    /// The scenario grid results, row-major (panicked cells omitted).
    pub runs: Vec<ScenarioRun>,
    /// Cells that panicked. Empty — and omitted from the JSON, keeping
    /// the payload byte-identical to before the field existed — on a
    /// healthy sweep.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub panicked: Vec<PanickedCell>,
}

/// The toy scenario grid swept by `sim_sweep`.
pub fn sim_sweep_specs() -> Vec<ScenarioSpec> {
    let mut quiet = SimConfig::toy(0);
    quiet.submissions_per_minute = 0.05;
    quiet.frontpage_sessions_per_minute = 1.0;
    vec![
        ScenarioSpec {
            name: "toy-compat".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::Compat,
            minutes: 240,
        },
        ScenarioSpec {
            name: "toy-quiet".into(),
            cfg: quiet,
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::Compat,
            minutes: 240,
        },
    ]
}

/// Run the tick-loop equivalence checks and the scenario grid with an
/// explicit thread count (in-process supervisor shards). Contains no
/// timings by construction.
pub fn sim_sweep_payload(seed: u64, threads: usize) -> SimSweepPayload {
    sim_sweep_payload_with(seed, &SupervisorConfig::in_process(threads))
}

/// [`sim_sweep_payload`] under an explicit [`SupervisorConfig`] — the
/// grid goes through [`run_sweep_supervised`], so the experiment binary
/// shards it across `sweep_worker` subprocesses when the binary is
/// available, while library tests drive the identical in-process path.
/// The payload is worker-mode invariant: subprocess and in-process
/// sweeps serialize byte-identically.
pub fn sim_sweep_payload_with(seed: u64, sup: &SupervisorConfig) -> SimSweepPayload {
    let minutes = 480;
    let equivalence = (0..3)
        .map(|i| {
            let cfg = SimConfig::toy(seed.wrapping_add(i));
            let mut pop_rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0_17AB1E);
            let pop = Population::generate(&mut pop_rng, &PopulationConfig::toy(cfg.users));
            let mut tick = TickSim::new(cfg.clone(), pop.clone());
            let mut event = Sim::new(cfg.clone(), pop);
            tick.run(minutes);
            event.run(minutes);
            EquivalenceCheck {
                seed: cfg.seed,
                minutes,
                submissions: tick.metrics().submissions,
                votes: tick.metrics().total_votes(),
                ok: tick.metrics() == event.metrics(),
            }
        })
        .collect();
    let seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(100 + i)).collect();
    // The panic-isolated supervised runner: a poisoned cell costs only
    // its own grid slot, reported in `panicked`, not the whole
    // experiment — whether the cell ran in-process or in a subprocess.
    let outcomes = match run_sweep_supervised(&sim_sweep_specs(), &seeds, sup) {
        Ok(outcomes) => outcomes,
        Err(e) => panic!("sim_sweep supervisor failed: {e}"),
    };
    let mut runs = Vec::new();
    let mut panicked = Vec::new();
    for o in outcomes {
        match o {
            CellOutcome::Ok(run) => runs.push(run),
            CellOutcome::Panicked {
                scenario,
                seed,
                message,
            } => panicked.push(PanickedCell {
                scenario,
                seed,
                message,
            }),
        }
    }
    SimSweepPayload {
        equivalence,
        runs,
        panicked,
    }
}

/// A sparse, long-horizon scenario: almost nothing happens per minute,
/// so the row measures the per-minute cost of the engine's heartbeat
/// events against the tick loop's idle rescans.
fn sparse_config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::toy(seed);
    cfg.submissions_per_minute = 0.0005;
    cfg.frontpage_sessions_per_minute = 0.001;
    cfg.upcoming_sessions_per_minute = 0.001;
    cfg.external_rate = 0.001;
    cfg
}

/// Time the tick loop against the event-driven engine on the sparse
/// scenario. Returns the baseline row (`seed` = tick loop, `new` and
/// `new(1t)` = the engine, which reproduces the tick loop's exact
/// results) and the minutes simulated.
fn sparse_kernel_timing(seed: u64) -> (BaselineRecord, u64) {
    let minutes = 100_000;
    let cfg = sparse_config(seed);
    let mut pop_rng = StdRng::seed_from_u64(seed ^ 0x5BA_A5E);
    let pop = Population::generate(&mut pop_rng, &PopulationConfig::toy(cfg.users));

    let (tick, tick_ms) = time_ms(|| {
        let mut sim = TickSim::new(cfg.clone(), pop.clone());
        sim.run(minutes);
        sim.metrics().clone()
    });
    let (compat, compat_ms) = time_ms(|| {
        let mut sim = Sim::new(cfg.clone(), pop.clone());
        sim.run(minutes);
        sim.metrics().clone()
    });
    assert_eq!(
        tick, compat,
        "event engine diverged from the tick loop on the sparse scenario"
    );
    (
        BaselineRecord::new("sim_kernel_sparse", tick_ms, compat_ms, compat_ms),
        minutes,
    )
}

/// The `sim_sweep` standalone experiment. Shards the grid across
/// `sweep_worker` subprocesses when the binary is available (the
/// experiment binaries build it as a sibling), falling back to the
/// bit-identical in-process supervisor path otherwise.
pub fn run_sim_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let threads = digg_core::worker_threads();
    let sup = match crate::checkpoint::sweep_worker_cmd() {
        Some(cmd) => SupervisorConfig {
            worker_cmd: Some(cmd),
            ..SupervisorConfig::in_process(threads)
        },
        None => SupervisorConfig::in_process(threads),
    };
    let mode = if sup.worker_cmd.is_some() {
        "subprocess workers"
    } else {
        "in-process shards"
    };
    let (payload, sweep_ms) = time_ms(|| sim_sweep_payload_with(seed, &sup));
    let scenarios = payload.runs.len();
    let (sparse, sparse_minutes) = sparse_kernel_timing(seed);

    let equivalence_ok = payload.equivalence.iter().all(|e| e.ok);
    let mut rendered = String::from("Scenario sweep (event kernel)\n");
    rendered.push_str(&format!(
        "tick-loop equivalence on {} seeds: {}\n",
        payload.equivalence.len(),
        if equivalence_ok { "exact" } else { "DIVERGED" }
    ));
    for e in &payload.equivalence {
        rendered.push_str(&format!(
            "  seed {:>6}: {} submissions, {} votes over {} min — {}\n",
            e.seed,
            e.submissions,
            e.votes,
            e.minutes,
            if e.ok { "identical" } else { "DIVERGED" }
        ));
    }
    rendered.push_str(&format!(
        "swept {scenarios} scenarios in {sweep_ms:.1} ms on {threads} {mode} ({:.1} scenarios/sec)\n",
        scenarios as f64 / (sweep_ms / 1e3).max(1e-9)
    ));
    for r in &payload.runs {
        rendered.push_str(&format!(
            "  {:<16} seed {:>4}: {:>4} stories, {:>6} votes, {:>3} promotions\n",
            r.scenario,
            r.seed,
            r.stories,
            r.metrics.total_votes(),
            r.metrics.promotions
        ));
    }
    for p in &payload.panicked {
        rendered.push_str(&format!(
            "  PANICKED {:<16} seed {:>4}: {}\n",
            p.scenario, p.seed, p.message
        ));
    }
    rendered.push_str(&format!(
        "sparse scenario ({sparse_minutes} min): tick loop {:.1} ms, event engine {:.1} ms ({:.1}x)\n",
        sparse.seed_ms, sparse.new_ms, sparse.speedup
    ));
    let ok = equivalence_ok && payload.panicked.is_empty();
    record_baselines(vec![sparse]);
    (
        vec![Artifact::new("sim_sweep", rendered, &payload).with_ok(ok)],
        scenarios,
    )
}

// ------------------------------------------------------------ epi_sweep

/// One SIR grid cell result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SirCell {
    /// Per-contact transmission probability.
    pub beta: f64,
    /// Per-step recovery probability.
    pub gamma: f64,
    /// Run seed.
    pub seed: u64,
    /// Final epidemic size (including the seed node).
    pub total_infected: usize,
    /// Steps until extinction.
    pub duration: usize,
}

/// One cascade grid cell result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CascadeCell {
    /// Activation threshold.
    pub phi: f64,
    /// Final number of active nodes.
    pub total_active: usize,
    /// Productive steps until the cascade froze.
    pub steps: usize,
}

/// The timing-free `epi_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpiSweepPayload {
    /// Event-driven cascade matched the full-scan model bit-for-bit.
    pub cascade_exact: bool,
    /// SIR `(beta, gamma)` grid on the event kernel.
    pub sir: Vec<SirCell>,
    /// Cascade `phi` grid on the event kernel.
    pub cascades: Vec<CascadeCell>,
}

/// Run the epidemic grids with an explicit thread count. Contains no
/// timings by construction.
pub fn epi_sweep_payload(seed: u64, threads: usize) -> EpiSweepPayload {
    let mut rng = StdRng::seed_from_u64(seed);
    let er = erdos_renyi(&mut rng, 400, 0.02);
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let mod_graph = modular(&mut rng, 240, 3, 0.2, 0.01);

    // Bit-exactness of the event-driven cascade against the scan model
    // on the modular graph, across the phi grid.
    let phis = [0.0, 0.1, 0.25, 0.5, 0.9];
    let seeds: Vec<UserId> = cascade_model::block_members(240, 3)[0][..6].to_vec();
    let cascade_exact = phis.iter().all(|&phi| {
        des::cascade(&mod_graph, &seeds, phi, 500)
            == cascade_model::run(&mod_graph, &seeds, phi, 500)
    });

    let grid: Vec<(f64, f64, u64)> = [0.1, 0.3, 0.6]
        .iter()
        .flat_map(|&beta| {
            [0.2, 0.5]
                .iter()
                .flat_map(move |&gamma| (0..3).map(move |i| (beta, gamma, seed.wrapping_add(i))))
        })
        .collect();
    let sir = digg_core::par_map(&grid, threads, |&(beta, gamma, s)| {
        let out = des::sir(&er, &[UserId(0)], beta, gamma, 2_000, s);
        SirCell {
            beta,
            gamma,
            seed: s,
            total_infected: out.total_infected,
            duration: out.duration,
        }
    });

    let phi_cells: Vec<f64> = phis.to_vec();
    let cascades = digg_core::par_map(&phi_cells, threads, |&phi| {
        let out = des::cascade(&mod_graph, &seeds, phi, 500);
        CascadeCell {
            phi,
            total_active: out.total_active(),
            steps: out.growth.len(),
        }
    });

    EpiSweepPayload {
        cascade_exact,
        sir,
        cascades,
    }
}

/// A long watch-chain: the scan model rescans all `n` nodes on each of
/// `n` steps (quadratic), the event kernel walks the frontier once.
fn chain_graph(n: u32) -> SocialGraph {
    let mut b = GraphBuilder::new(n as usize);
    for i in 1..n {
        b.add_watch(UserId(i), UserId(i - 1));
    }
    b.build()
}

/// Time the event kernels against the scan/step loops. The cascade row
/// also asserts bit-exactness on the timed workload.
fn epi_kernel_timing(seed: u64) -> Vec<BaselineRecord> {
    let n = 3_000u32;
    let chain = chain_graph(n);
    let (scan_out, scan_ms) =
        time_ms(|| cascade_model::run(&chain, &[UserId(0)], 0.5, n as usize + 10));
    let (event_out, event_ms) =
        time_ms(|| des::cascade(&chain, &[UserId(0)], 0.5, n as usize + 10));
    assert_eq!(
        scan_out, event_out,
        "event-driven cascade diverged on the timing workload"
    );
    let cascade_row = BaselineRecord::new("cascade_kernel_chain", scan_ms, event_ms, event_ms);

    // SIR with slow recovery: the step loop re-flips coins for every
    // infectious node's whole neighbourhood on every step of a long
    // infectious period; the event kernel draws once per edge.
    let mut rng = StdRng::seed_from_u64(seed);
    let er = erdos_renyi(&mut rng, 1_500, 0.01);
    let (_, step_ms) = time_ms(|| {
        let mut r = StdRng::seed_from_u64(seed ^ 2);
        digg_epidemics::sir::run(&mut r, &er, &[UserId(0)], 0.002, 0.005, 8_000)
    });
    let (_, des_ms) = time_ms(|| des::sir(&er, &[UserId(0)], 0.002, 0.005, 8_000, seed ^ 2));
    vec![
        cascade_row,
        BaselineRecord::new("sir_kernel_slow_recovery", step_ms, des_ms, des_ms),
    ]
}

/// The `epi_sweep` standalone experiment.
pub fn run_epi_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let threads = digg_core::worker_threads();
    let (payload, sweep_ms) = time_ms(|| epi_sweep_payload(seed, threads));
    let scenarios = payload.sir.len() + payload.cascades.len();
    let rows = epi_kernel_timing(seed);

    let mut rendered = String::from("Epidemic sweep (event kernel)\n");
    rendered.push_str(&format!(
        "cascade event kernel vs full scan: {}\n",
        if payload.cascade_exact {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    ));
    rendered.push_str(&format!(
        "swept {scenarios} scenarios in {sweep_ms:.1} ms on {threads} threads ({:.1} scenarios/sec)\n",
        scenarios as f64 / (sweep_ms / 1e3).max(1e-9)
    ));
    rendered.push_str("  SIR grid (Erdos-Renyi n=400):\n");
    for c in &payload.sir {
        rendered.push_str(&format!(
            "    beta {:.1} gamma {:.1} seed {:>4}: {:>3} infected over {:>4} steps\n",
            c.beta, c.gamma, c.seed, c.total_infected, c.duration
        ));
    }
    rendered.push_str("  cascade grid (modular n=240):\n");
    for c in &payload.cascades {
        rendered.push_str(&format!(
            "    phi {:.2}: {:>3} active after {:>2} productive steps\n",
            c.phi, c.total_active, c.steps
        ));
    }
    for r in &rows {
        rendered.push_str(&format!(
            "  {}: scan/step {:.1} ms, event {:.1} ms ({:.1}x)\n",
            r.experiment, r.seed_ms, r.new_ms, r.speedup
        ));
    }
    let ok = payload.cascade_exact;
    record_baselines(rows);
    (
        vec![Artifact::new("epi_sweep", rendered, &payload).with_ok(ok)],
        scenarios,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_config_is_actually_sparse() {
        let cfg = sparse_config(1);
        assert!(cfg.submissions_per_minute < 0.05);
        assert!(cfg.frontpage_sessions_per_minute < 0.1);
    }

    #[test]
    fn epi_payload_reports_exact_cascades() {
        let p = epi_sweep_payload(7, 2);
        assert!(p.cascade_exact);
        assert_eq!(p.sir.len(), 18);
        assert_eq!(p.cascades.len(), 5);
    }

    #[test]
    fn chain_cascade_kernels_agree() {
        let g = chain_graph(50);
        assert_eq!(
            cascade_model::run(&g, &[UserId(0)], 0.5, 60),
            des::cascade(&g, &[UserId(0)], 0.5, 60)
        );
    }
}
