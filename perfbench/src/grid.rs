//! `scenario_grid`: a {june2006, september2006} x 4-seed grid of
//! one-day cells on the 25k-user population, run by
//! `run_sweep_supervised_lenient` on `sweep_worker` subprocesses that
//! checkpoint every `CHECKPOINT_EVERY` events. Every odd cell carries a
//! deterministic `ChaosFault::Kill` after its first checkpoint, so each
//! pass exercises the respawn-and-restore path.
//!
//! The traced run replays the same cells in process through
//! `scenario_population` → `Sim::with_kernel` → `run_budgeted` →
//! `Sim::snapshot` / `Sim::restore`, killing the same cells at the same
//! checkpoint, and its `ScenarioRun` rows must equal the supervised
//! ones.

use crate::measure::{Fnv, Outcome};
use crate::trace::{Tracer, Unit};
use crate::{layer_sweep_metrics, Args, SweepTally};
use digg_bench::timing::stopwatch;
use digg_core::incremental::IncrementalSweep;
use digg_sim::population::Population;
use digg_sim::scenario::{self, june2006_population_config};
use digg_sim::supervisor::{
    run_sweep_supervised_lenient, ChaosFault, SupervisorConfig, SweepDegradationReport,
};
use digg_sim::sweep::{scenario_population, ScenarioRun, ScenarioSpec};
use digg_sim::time::{Minute, DAY};
use digg_sim::{Kernel, Sim};
use digg_snapshot::{read_snapshot, write_snapshot, Restore, Snapshot};
use std::path::{Path, PathBuf};

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 9;
/// Seeds per scenario.
const SEEDS: u64 = 4;
/// Events between worker checkpoints.
const CHECKPOINT_EVERY: u64 = 75_000;
/// The checkpoint after which a faulted cell's worker dies.
const KILL_AFTER: u32 = 1;

fn specs() -> Vec<ScenarioSpec> {
    let spec = |name: &str, cfg| ScenarioSpec {
        name: name.to_string(),
        cfg,
        pop_cfg: june2006_population_config(),
        kernel: Kernel::default(),
        minutes: DAY,
    };
    vec![
        spec("june2006", scenario::june2006(0)),
        spec("september2006", scenario::september2006(0)),
    ]
}

fn seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS)
        .map(|i| seed.wrapping_mul(SEEDS).wrapping_add(i))
        .collect()
}

/// The chaos plan: kill every odd cell's worker after its first
/// checkpoint.
fn fault(cell: usize) -> Option<ChaosFault> {
    (cell % 2 == 1).then_some(ChaosFault::Kill {
        after_checkpoints: KILL_AFTER,
    })
}

/// Everything a pass needs, built in set-up.
struct Grid {
    specs: Vec<ScenarioSpec>,
    seeds: Vec<u64>,
    cfg: SupervisorConfig,
    dir: PathBuf,
}

/// Set-up: check the worker binary (never fall back to in-process
/// workers), build the grid and supervisor configuration, and generate
/// each distinct cell population once to fingerprint the inputs.
fn setup(args: &Args, work: &Path) -> Result<(Vec<u64>, Grid), String> {
    let worker = args
        .worker
        .clone()
        .ok_or_else(|| "scenario_grid needs --worker <sweep_worker binary>".to_string())?;
    if !worker.is_file() {
        return Err(format!(
            "sweep_worker binary {} is missing; refusing to fall back to in-process workers",
            worker.display()
        ));
    }
    let specs = specs();
    let seeds = seeds(args.seed);
    let dir = work.join("checkpoints");
    let mut cfg = SupervisorConfig::subprocess(
        vec![worker.to_string_lossy().into_owned()],
        args.workers,
        CHECKPOINT_EVERY,
        dir.clone(),
    );
    let cells = specs.len() * seeds.len();
    cfg.chaos = (0..cells).map(fault).collect();
    // Both scenarios share the population config, so one population
    // per seed covers every cell.
    let fingerprints = seeds
        .iter()
        .map(|&s| scenario_population(&specs[0], s).fingerprint())
        .collect();
    Ok((
        fingerprints,
        Grid {
            specs,
            seeds,
            cfg,
            dir,
        },
    ))
}

fn rows_digest(rows: &[ScenarioRun]) -> u64 {
    let mut h = Fnv::default();
    for r in rows {
        h.bytes(serde_json::to_string(r).unwrap_or_default().as_bytes());
    }
    h.finish()
}

/// One supervised pass: the rows of the completed cells, the number of
/// cells that did not complete, and the degradation ledger.
fn supervised_pass(g: &Grid) -> Result<(Vec<ScenarioRun>, u64, SweepDegradationReport), String> {
    let _ = std::fs::remove_dir_all(&g.dir);
    let (results, report) =
        run_sweep_supervised_lenient(&g.specs, &g.seeds, &g.cfg).map_err(|e| e.to_string())?;
    let rows: Vec<ScenarioRun> = results.iter().filter_map(|r| r.run().cloned()).collect();
    let incomplete = (results.len() - rows.len()) as u64
        + (g.specs.len() * g.seeds.len()).saturating_sub(results.len()) as u64;
    Ok((rows, incomplete, report))
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (grid, setup_s) = crate::repeat_setup(SETUP_REPS, || setup(args, work));
    out.setup_s = setup_s;
    let g = match grid {
        Ok(g) => g,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let cells = (g.specs.len() * g.seeds.len()) as u64;
    let mut rows_seen = Vec::new();
    let mut cell_rates = Vec::new();
    let clock = stopwatch();
    while out.pass_s.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let sw = stopwatch();
        let pass = supervised_pass(&g);
        let seconds = sw.elapsed().as_secs_f64();
        out.pass_s.push(seconds);
        out.attempted += cells;
        let (rows, incomplete, report) = match pass {
            Ok(p) => p,
            Err(e) => {
                out.failed += cells;
                out.error(format!("supervised sweep failed: {e}"));
                break;
            }
        };
        cell_rates.push(rows.len() as f64 / seconds);
        out.failed += incomplete;
        out.exact("grid.rows_digest", rows_digest(&rows));
        out.count("supervisor.respawns", u64::from(report.respawns));
        out.count(
            "supervisor.fallbacks",
            u64::from(report.observed.corrupt_checkpoint),
        );
        out.count("supervisor.cells_failed", report.failed.len() as u64);
        rows_seen = rows;
    }
    let _ = std::fs::remove_dir_all(&g.dir);
    out.summary(
        "grid_cells_per_s",
        crate::measure::median(&cell_rates),
        "1/s",
    );
    let votes: u64 = rows_seen.iter().map(|r| r.metrics.total_votes()).sum();
    out.count("grid.votes", votes);
    out.votes = votes;
    if args.trace {
        traced_grid(&g, &rows_seen, &mut out);
    }
    out
}

/// What the in-process decomposition of one cell counted.
#[derive(Default)]
struct CellTally {
    events: u64,
    checkpoints: u64,
    snapshot_bytes: u64,
    restores: u64,
}

/// One cell in process under `t`: build, run in checkpoint-sized
/// slices, snapshot at each slice boundary, and on a faulted cell drop
/// the simulation after the kill checkpoint and restore it from disk.
fn traced_cell(
    spec: &ScenarioSpec,
    seed: u64,
    cell: usize,
    dir: &Path,
    t: &mut Tracer,
    tally: &mut CellTally,
) -> Result<Sim, String> {
    let pop: Population = t.span("population.build", Unit::Cell(cell), |_| {
        scenario_population(spec, seed)
    });
    let mut cfg = spec.cfg.clone();
    cfg.seed = seed;
    let mut sim = t.span("sim.new", Unit::Cell(cell), |_| {
        Sim::with_kernel(cfg, pop, spec.kernel)
    });
    let horizon = Minute(spec.minutes);
    let path = dir.join(format!("cell_{cell}.snap"));
    let mut written = 0u32;
    while !t.span("sim.run", Unit::Cell(cell), |_| {
        sim.run_budgeted(horizon, CHECKPOINT_EVERY)
    }) {
        written += 1;
        let bytes = t.span("snapshot.encode", Unit::Cell(cell), |_| sim.snapshot());
        tally.checkpoints += 1;
        tally.snapshot_bytes += bytes.len() as u64;
        t.span("snapshot.write", Unit::Cell(cell), |_| {
            write_snapshot(&path, &bytes)
        })
        .map_err(|e| e.to_string())?;
        if fault(cell)
            == Some(ChaosFault::Kill {
                after_checkpoints: written,
            })
        {
            tally.events += sim.events_fired();
            drop(sim);
            let bytes = t
                .span("snapshot.read", Unit::Cell(cell), |_| read_snapshot(&path))
                .map_err(|e| e.to_string())?;
            let pop = t.span("population.build", Unit::Cell(cell), |_| {
                scenario_population(spec, seed)
            });
            sim = t
                .span("snapshot.restore", Unit::Cell(cell), |_| {
                    Sim::restore(&bytes, pop)
                })
                .map_err(|e| e.to_string())?;
            tally.restores += 1;
        }
    }
    tally.events += sim.events_fired();
    let _ = std::fs::remove_file(&path);
    Ok(sim)
}

/// The traced decomposition of the grid, run three times: spans off to
/// warm up, spans off again (the reference for the tracing overhead),
/// and spans on.
fn traced_grid(g: &Grid, supervised: &[ScenarioRun], out: &mut Outcome) {
    let dir = g.dir.join("traced");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.error(format!("create {}: {e}", dir.display()));
        return;
    }
    let mut seconds = [0.0f64; 3];
    for (i, enabled) in [false, false, true].into_iter().enumerate() {
        let mut t = Tracer::new(enabled);
        let mut tally = CellTally::default();
        let mut sweep = SweepTally::default();
        let mut rows = Vec::new();
        let mut last = None;
        let sw = stopwatch();
        for (spec_idx, spec) in g.specs.iter().enumerate() {
            for (seed_idx, &seed) in g.seeds.iter().enumerate() {
                let cell = spec_idx * g.seeds.len() + seed_idx;
                let sim = t.span("grid.cell", Unit::Cell(cell), |t| {
                    traced_cell(spec, seed, cell, &dir, t, &mut tally)
                });
                match sim {
                    Ok(sim) => {
                        rows.push(ScenarioRun {
                            scenario: spec.name.clone(),
                            seed,
                            minutes: spec.minutes,
                            stories: sim.stories().len(),
                            metrics: sim.metrics().clone(),
                        });
                        last = Some(sim);
                    }
                    Err(e) => out.error(format!("traced cell {cell}: {e}")),
                }
            }
        }
        seconds[i] = sw.elapsed().as_secs_f64();
        if rows != supervised {
            out.error("in-process decomposition rows differ from the supervised rows".to_string());
        }
        if out.layer_value("supervisor.respawns") != Some(tally.restores as f64) {
            out.error("decomposition restores differ from supervisor respawns".to_string());
        }
        if !enabled {
            continue;
        }
        // Sweep layer: replay the last cell's stories once.
        if let Some(sim) = &last {
            let graph = &sim.population().graph;
            let mut incr = IncrementalSweep::new(graph);
            for (k, s) in sim.stories().iter().enumerate() {
                t.span("sweep.apply", Unit::Story(k), |_| {
                    sweep.replay(&mut incr, graph, s.votes.users())
                });
            }
        }
        let mut total = digg_sim::metrics::SimMetrics::default();
        for r in &rows {
            let m = &r.metrics;
            total.votes_friends += m.votes_friends;
            total.votes_frontpage += m.votes_frontpage;
            total.votes_upcoming += m.votes_upcoming;
            total.votes_external += m.votes_external;
            total.exposures_scheduled += m.exposures_scheduled;
            total.exposures_fired += m.exposures_fired;
        }
        crate::layer_sim_counts(out, &t, tally.events, &total);
        layer_sweep_metrics(out, &t, &sweep);
        out.layer("population.build_ms", t.total_ms("population.build"), "ms");
        out.layer("snapshot.encode_ms", t.total_ms("snapshot.encode"), "ms");
        out.layer("snapshot.restore_ms", t.total_ms("snapshot.restore"), "ms");
        out.layer("snapshot.write_ms", t.total_ms("snapshot.write"), "ms");
        out.layer("snapshot.read_ms", t.total_ms("snapshot.read"), "ms");
        out.count("snapshot.bytes", tally.snapshot_bytes);
        out.count("snapshot.checkpoints", tally.checkpoints);
        out.count("snapshot.restores", tally.restores);
        crate::layer_self_times(out, &t);
        t.write_jsonl(0, &mut out.spans_jsonl);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer("trace.overhead_ms", (seconds[2] - seconds[1]) * 1e3, "ms");
}
