//! The parallel scenario-sweep runner.
//!
//! A sweep is the cross product of scenario specs and seeds, each cell
//! an independent simulation run. Runs fan out across threads with
//! [`des_core::par_map`] — contiguous chunks, outputs concatenated in
//! chunk order — so a sweep's results are **bit-identical at any
//! `DIGG_THREADS`**. [`ScenarioRun`] deliberately carries no wall-time
//! (timing lives in the bench registry's run records), which is what
//! lets the thread-invariance test demand exact payload equality.

use crate::config::SimConfig;
use crate::engine::{Kernel, Sim};
use crate::metrics::SimMetrics;
use crate::population::{Population, PopulationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Salt mixed into each run's seed when generating its population, so
/// the population draw and the simulation draw streams differ.
const POPULATION_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One cell of a sweep grid: a named configuration to run for
/// `minutes`. Serializable because the multi-process
/// supervisor ([`crate::supervisor`]) ships specs to worker
/// subprocesses over the frame protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Stable name recorded on every run of this scenario.
    pub name: String,
    /// Simulator configuration; its `seed` field is overridden per run.
    pub cfg: SimConfig,
    /// Population to generate for each run.
    pub pop_cfg: PopulationConfig,
    /// Always [`Kernel::Compat`], the only kernel. Kept only because
    /// the benchmark harness in `perfbench/` and the worker frame
    /// format name it.
    pub kernel: Kernel,
    /// Simulated minutes per run.
    pub minutes: u64,
}

/// The outcome of one `(scenario, seed)` run. Serializable into bench
/// payloads; contains no timings (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioRun {
    /// Name of the scenario that produced this run.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// Simulated minutes.
    pub minutes: u64,
    /// Stories submitted over the run.
    pub stories: usize,
    /// Full metric counters.
    pub metrics: SimMetrics,
}

/// The population a `(spec, seed)` cell runs against — a pure function
/// of the pair, which is what lets the checkpoint/replay machinery
/// regenerate it on restore instead of serializing it.
pub fn scenario_population(spec: &ScenarioSpec, seed: u64) -> Population {
    let mut pop_rng = StdRng::seed_from_u64(seed ^ POPULATION_SALT);
    Population::generate(&mut pop_rng, &spec.pop_cfg)
}

/// The fully-seeded [`Sim`] a `(spec, seed)` cell starts from.
pub fn scenario_sim(spec: &ScenarioSpec, seed: u64) -> Sim {
    let mut cfg = spec.cfg.clone();
    cfg.seed = seed;
    Sim::new(cfg, scenario_population(spec, seed))
}

/// Package a finished cell simulation into its [`ScenarioRun`].
pub(crate) fn scenario_run(spec: &ScenarioSpec, seed: u64, sim: &Sim) -> ScenarioRun {
    ScenarioRun {
        scenario: spec.name.clone(),
        seed,
        minutes: spec.minutes,
        stories: sim.stories().len(),
        metrics: sim.metrics().clone(),
    }
}

/// Run one `(spec, seed)` cell to completion.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> ScenarioRun {
    let mut sim = scenario_sim(spec, seed);
    sim.run(spec.minutes);
    scenario_run(spec, seed, &sim)
}

/// The outcome of one sweep cell under the panic-isolating runner:
/// either the completed run, or the identity of the scenario that
/// panicked plus its rendered panic message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell ran to completion.
    Ok(ScenarioRun),
    /// The cell's simulation panicked; the rest of the batch is
    /// unaffected.
    Panicked {
        /// Name of the scenario that failed.
        scenario: String,
        /// The seed of the failed run.
        seed: u64,
        /// Rendered panic payload.
        message: String,
    },
}

impl CellOutcome {
    /// The completed run, if the cell succeeded.
    pub fn run(&self) -> Option<&ScenarioRun> {
        match self {
            CellOutcome::Ok(run) => Some(run),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// Did the cell fail?
    pub fn is_panicked(&self) -> bool {
        matches!(self, CellOutcome::Panicked { .. })
    }
}

/// Run the full `specs x seeds` grid, fanned across `threads` worker
/// threads. Output order is the grid in row-major order (all seeds of
/// `specs[0]`, then `specs[1]`, …) regardless of thread count.
///
/// A panic in any cell aborts the whole sweep (layered on
/// [`try_run_sweep`], which callers that must survive a poisoned
/// scenario should use instead).
pub fn run_sweep(specs: &[ScenarioSpec], seeds: &[u64], threads: usize) -> Vec<ScenarioRun> {
    let outcomes = match try_run_sweep(specs, seeds, threads) {
        Ok(outcomes) => outcomes,
        #[expect(
            clippy::panic,
            reason = "infallible-layer contract: re-raise the aggregated WorkerPanic for fail-fast callers"
        )]
        Err(e) => panic!("worker thread panicked: {e}"),
    };
    outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(run) => run,
            #[expect(
                clippy::panic,
                reason = "infallible-layer contract: a poisoned cell is fatal here; survivors use try_run_sweep"
            )]
            CellOutcome::Panicked {
                scenario,
                seed,
                message,
            } => panic!("scenario '{scenario}' (seed {seed}) panicked: {message}"),
        })
        .collect()
}

/// Panic-isolated sweep: each `(scenario, seed)` cell runs under its
/// own `catch_unwind`, so one poisoned scenario fails *that cell* —
/// reported as [`CellOutcome::Panicked`] in grid position — while
/// every other cell completes normally. Cells fan out through
/// [`des_core::try_par_map`] (defense in depth: a panic escaping the
/// per-cell catch still only fails its shard, not the process).
///
/// With no panic anywhere the cell payloads are bit-identical to
/// [`run_sweep`] at any thread count.
pub fn try_run_sweep(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    threads: usize,
) -> Result<Vec<CellOutcome>, des_core::WorkerPanic> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cells: Vec<(usize, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| seeds.iter().map(move |&s| (i, s)))
        .collect();
    des_core::try_par_map(&cells, threads, |&(i, seed)| {
        let spec = &specs[i];
        // AssertUnwindSafe: a panicking cell's partially built Sim is
        // dropped during the unwind; only the outcome value escapes.
        match catch_unwind(AssertUnwindSafe(|| run_scenario(spec, seed))) {
            Ok(run) => CellOutcome::Ok(run),
            Err(p) => CellOutcome::Panicked {
                scenario: spec.name.clone(),
                seed,
                message: des_core::panic_message(p.as_ref()),
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_specs() -> Vec<ScenarioSpec> {
        let mut quiet = SimConfig::toy(0);
        quiet.submissions_per_minute = 0.05;
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

    #[test]
    fn sweep_is_thread_count_invariant() {
        let specs = toy_specs();
        let seeds = [1u64, 2, 3];
        let one = run_sweep(&specs, &seeds, 1);
        for threads in [2, 3, 8] {
            assert_eq!(run_sweep(&specs, &seeds, threads), one);
        }
        assert_eq!(one.len(), 6);
    }

    #[test]
    fn try_sweep_matches_run_sweep_without_faults() {
        let specs = toy_specs();
        let seeds = [1u64, 2, 3];
        let plain = run_sweep(&specs, &seeds, 1);
        for threads in [1, 2, 8] {
            let outcomes = try_run_sweep(&specs, &seeds, threads).unwrap();
            let runs: Vec<&ScenarioRun> = outcomes.iter().filter_map(|o| o.run()).collect();
            assert_eq!(runs.len(), plain.len());
            for (a, b) in runs.iter().zip(&plain) {
                assert_eq!(*a, b);
            }
        }
    }

    #[test]
    fn poisoned_scenario_fails_only_its_cells() {
        // A zero-user population trips `Population::generate`'s
        // non-empty assert — a deterministic in-cell panic.
        let mut specs = toy_specs();
        specs.insert(
            1,
            ScenarioSpec {
                name: "poisoned".into(),
                cfg: SimConfig::toy(0),
                pop_cfg: PopulationConfig::toy(0),
                kernel: Kernel::Compat,
                minutes: 240,
            },
        );
        let seeds = [7u64, 8];
        let one = try_run_sweep(&specs, &seeds, 1).unwrap();
        assert_eq!(one.len(), 6);
        // Only the poisoned scenario's cells fail, in grid position,
        // carrying the cell identity and the panic message.
        for (k, outcome) in one.iter().enumerate() {
            if k == 2 || k == 3 {
                match outcome {
                    CellOutcome::Panicked {
                        scenario,
                        seed,
                        message,
                    } => {
                        assert_eq!(scenario, "poisoned");
                        assert_eq!(*seed, seeds[k - 2]);
                        assert!(
                            message.contains("population must be non-empty"),
                            "unexpected panic message: {message}"
                        );
                    }
                    CellOutcome::Ok(_) => panic!("poisoned cell {k} completed"),
                }
            } else {
                assert!(!outcome.is_panicked(), "healthy cell {k} failed");
            }
        }
        // The healthy cells are bit-identical to an all-healthy sweep,
        // and the whole outcome grid is thread-count invariant.
        let healthy = run_sweep(&toy_specs(), &seeds, 1);
        let survivors: Vec<&ScenarioRun> = one.iter().filter_map(|o| o.run()).collect();
        assert_eq!(survivors.len(), healthy.len());
        for (a, b) in survivors.iter().zip(&healthy) {
            assert_eq!(*a, b);
        }
        for threads in [2, 8] {
            assert_eq!(try_run_sweep(&specs, &seeds, threads).unwrap(), one);
        }
    }

    #[test]
    fn runs_are_grid_ordered_and_seeded() {
        let specs = toy_specs();
        let runs = run_sweep(&specs, &[7, 8], 2);
        let labels: Vec<(&str, u64)> = runs.iter().map(|r| (r.scenario.as_str(), r.seed)).collect();
        assert_eq!(
            labels,
            vec![
                ("toy-compat", 7),
                ("toy-compat", 8),
                ("toy-quiet", 7),
                ("toy-quiet", 8),
            ]
        );
        // Each run actually simulated: the clock advanced and the
        // submission counter matches the story list.
        for r in &runs {
            assert_eq!(r.metrics.minutes, r.minutes);
            assert_eq!(r.metrics.submissions as usize, r.stories);
        }
    }
}
