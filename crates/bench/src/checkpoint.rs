//! The `checkpoint_sweep` experiment: end-to-end proof that the
//! fault-tolerant multi-process sweep runner (DESIGN.md §15) recovers
//! killed workers without perturbing results, plus the cost ledger of
//! checkpointing itself.
//!
//! Three measurements, one artifact:
//!
//! 1. **Recovery identity.** The same scenario grid runs twice through
//!    [`run_sweep_supervised`] with subprocess workers: once clean, once
//!    under a [`SweepKillPlan`] that kills *every* worker right after
//!    one of its checkpoints. The killed sweep's rows must serialize
//!    **byte-identical** to the clean sweep's — recovery resumes each
//!    cell from its last snapshot and a restored `Sim` is bit-identical
//!    to the one that wrote it. Without a worker binary (library test
//!    runs, exotic CI sandboxes) the sweep falls back to in-process
//!    workers and the kill half is skipped — reported in the artifact,
//!    never silently. Environments that exist to exercise the kill
//!    path (CI) set `DIGG_REQUIRE_WORKER=1`, which turns the skip into
//!    an artifact failure instead of a note.
//! 2. **Checkpoint overhead.** One grid cell timed with checkpointing
//!    off versus every-N events, recorded as a `sim_checkpoint` baseline
//!    row (events/sec both ways; `speedup` < 1 is the overhead).
//! 3. **Snapshot scale.** A `DIGG_CHECKPOINT_USERS`-user simulation
//!    (default one million; CI smoke uses 50k) snapshotted and restored
//!    once, recording encode/decode wall time and container size as
//!    `scale` rows (bytes/sec).
//!
//! The artifact payload is timing-free; rates live in the rendered text
//! and the bench-summary records, like every other experiment here.

use crate::baseline::BaselineRecord;
use crate::registry::{record_baselines, record_scale, Artifact, ScaleRecord};
use crate::timing::time_ms;
use digg_data::SweepKillPlan;
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{
    run_cell_checkpointed, run_sweep_supervised, CellCheckpointing, SupervisorConfig, SweepError,
};
use digg_sim::sweep::{scenario_population, scenario_sim, CellOutcome, ScenarioRun, ScenarioSpec};
use digg_sim::{Kernel, Sim, SimConfig};
use digg_snapshot::{Restore, Snapshot};
use serde::Serialize;
use std::path::PathBuf;

/// Workload dimensions, scaled off `DIGG_CHECKPOINT_USERS`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CheckpointParams {
    /// Users per sweep cell and in the snapshot-scale sim
    /// (`DIGG_CHECKPOINT_USERS`, default 1,000,000; CI smoke: 50,000).
    pub users: usize,
    /// Simulated minutes per sweep cell.
    pub minutes: u64,
    /// Events between checkpoints.
    pub checkpoint_every: u64,
}

impl CheckpointParams {
    /// Dimensions from the environment (≥ 1,000 users enforced so the
    /// grid always carries real graph state into its snapshots).
    pub fn from_env() -> CheckpointParams {
        let users = std::env::var("DIGG_CHECKPOINT_USERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1_000_000)
            .max(1_000);
        CheckpointParams {
            users,
            minutes: 240,
            checkpoint_every: 300,
        }
    }
}

/// The scenario grid the recovery drill sweeps: a toy-rate and a quiet
/// cell shape at the scaled user count (event counts stay bounded —
/// rates are population-wide, not per-user).
pub fn checkpoint_specs(params: &CheckpointParams) -> Vec<ScenarioSpec> {
    let mut cfg = SimConfig::toy(0);
    cfg.users = params.users;
    let mut quiet = cfg.clone();
    quiet.submissions_per_minute = 0.05;
    vec![
        ScenarioSpec {
            name: "ckpt-compat".into(),
            cfg: cfg.clone(),
            pop_cfg: PopulationConfig::toy(params.users),
            kernel: Kernel::Compat,
            minutes: params.minutes,
        },
        ScenarioSpec {
            name: "ckpt-quiet".into(),
            cfg: quiet,
            pop_cfg: PopulationConfig::toy(params.users),
            kernel: Kernel::Compat,
            minutes: params.minutes,
        },
    ]
}

/// Locate the `sweep_worker` subprocess binary: the `DIGG_SWEEP_WORKER`
/// env override, else a sibling of the current executable (where cargo
/// puts workspace binaries next to `experiments`). `None` means
/// subprocess supervision is unavailable and callers fall back to
/// in-process workers.
pub fn sweep_worker_cmd() -> Option<Vec<String>> {
    if let Ok(p) = std::env::var("DIGG_SWEEP_WORKER") {
        if !p.is_empty() {
            return Some(vec![p]);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let sibling = exe
        .parent()?
        .join(format!("sweep_worker{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        Some(vec![sibling.to_string_lossy().into_owned()])
    } else {
        None
    }
}

/// The timing-free `checkpoint_sweep` artifact payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CheckpointSweepPayload {
    /// Users per cell.
    pub users: usize,
    /// Whether the recovery drill ran subprocess workers (`false` =
    /// no worker binary found; the kill half was skipped).
    pub subprocess: bool,
    /// Cells in the grid.
    pub cells: usize,
    /// Cells the kill plan scheduled a worker death for.
    pub kills_injected: usize,
    /// The clean sweep's rows, row-major.
    pub clean: Vec<ScenarioRun>,
    /// Killed-and-recovered rows byte-identical to the clean rows
    /// (vacuously true when the kill half was skipped — see
    /// `subprocess`).
    pub recovered_identical: bool,
    /// Snapshot container size for the scaled sim, bytes.
    pub snapshot_bytes: usize,
    /// The scaled snapshot round-tripped: the restored sim re-encodes
    /// to the same bytes.
    pub snapshot_round_trip: bool,
}

fn rows(outcomes: &[CellOutcome]) -> Vec<ScenarioRun> {
    outcomes.iter().filter_map(|o| o.run().cloned()).collect()
}

fn sweep_or_panic(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    cfg: &SupervisorConfig,
) -> Vec<CellOutcome> {
    run_sweep_supervised(specs, seeds, cfg)
        .unwrap_or_else(|e: SweepError| panic!("checkpoint_sweep supervisor failed: {e}"))
}

/// The `checkpoint_sweep` standalone experiment.
pub fn run_checkpoint_sweep(seed: u64) -> (Vec<Artifact>, usize) {
    let params = CheckpointParams::from_env();
    let threads = digg_core::worker_threads();
    let specs = checkpoint_specs(&params);
    let seeds: Vec<u64> = (0..2).map(|i| seed.wrapping_add(i)).collect();
    let cells = specs.len() * seeds.len();
    let dir = std::env::temp_dir().join(format!("digg-checkpoint-sweep-{}", std::process::id()));

    let worker_cmd = sweep_worker_cmd();
    let subprocess = worker_cmd.is_some();
    let require_worker = std::env::var("DIGG_REQUIRE_WORKER")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);

    // 1. Recovery identity: clean sweep vs killed-and-recovered sweep.
    let clean_cfg = match &worker_cmd {
        Some(cmd) => {
            SupervisorConfig::subprocess(cmd.clone(), threads, params.checkpoint_every, dir.clone())
        }
        None => SupervisorConfig {
            checkpoint_every: params.checkpoint_every,
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorConfig::in_process(threads)
        },
    };
    let (clean_outcomes, clean_ms) = time_ms(|| sweep_or_panic(&specs, &seeds, &clean_cfg));
    let clean = rows(&clean_outcomes);

    let kill_plan = SweepKillPlan::kill_all(seed, 2);
    let kills = kill_plan.chaos(cells);
    let kills_injected = if subprocess {
        kills.iter().flatten().count()
    } else {
        0
    };
    let (recovered_identical, killed_ms) = if subprocess {
        let killed_cfg = SupervisorConfig {
            chaos: kills,
            ..clean_cfg.clone()
        };
        let (killed_outcomes, killed_ms) = time_ms(|| sweep_or_panic(&specs, &seeds, &killed_cfg));
        let identical =
            serde_json::to_string(&rows(&killed_outcomes)) == serde_json::to_string(&clean);
        (identical, Some(killed_ms))
    } else {
        (true, None)
    };
    let _ = std::fs::remove_dir_all(&dir);

    // 2. Checkpoint overhead: the first cell, checkpointing off vs
    // every-N, events/sec both ways.
    let overhead_dir =
        std::env::temp_dir().join(format!("digg-checkpoint-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&overhead_dir).expect("create overhead temp dir");
    let overhead_path: PathBuf = overhead_dir.join("cell_overhead.snap");
    let spec = &specs[0];
    let ((run_off, events_off), off_ms) = time_ms(|| {
        let mut sim = scenario_sim(spec, seed);
        sim.run(spec.minutes);
        let run = ScenarioRun {
            scenario: spec.name.clone(),
            seed,
            minutes: spec.minutes,
            stories: sim.stories().len(),
            metrics: sim.metrics().clone(),
        };
        (run, sim.events_fired())
    });
    let on = CellCheckpointing {
        every_events: params.checkpoint_every,
        path: Some(&overhead_path),
        ..CellCheckpointing::default()
    };
    let ((run_on, report), on_ms) = time_ms(|| {
        run_cell_checkpointed(spec, seed, &on)
            .unwrap_or_else(|e| panic!("overhead probe failed: {e}"))
    });
    let overhead_ok = run_on == run_off && report.checkpoints_written > 0;
    let _ = std::fs::remove_dir_all(&overhead_dir);

    // 3. Snapshot scale: encode/decode one scaled sim.
    let scale_spec = &specs[0];
    let mut scaled = scenario_sim(scale_spec, seed);
    scaled.run(60);
    let edges = scaled.population().graph.edge_count();
    let (bytes, encode_ms) = time_ms(|| scaled.snapshot());
    let snapshot_bytes = bytes.len();
    let (restored, decode_ms) = time_ms(|| {
        Sim::restore(&bytes, scenario_population(scale_spec, seed))
            .unwrap_or_else(|e| panic!("scaled snapshot failed to restore: {e}"))
    });
    let snapshot_round_trip = restored.snapshot() == bytes;

    let payload = CheckpointSweepPayload {
        users: params.users,
        subprocess,
        cells,
        kills_injected,
        clean,
        recovered_identical,
        snapshot_bytes,
        snapshot_round_trip,
    };

    record_baselines(vec![BaselineRecord::new(
        "sim_checkpoint",
        off_ms,
        on_ms,
        on_ms,
    )]);
    record_scale(vec![
        ScaleRecord {
            name: "sim_snapshot_encode".into(),
            users: params.users,
            edges,
            wall_ms: encode_ms,
            per_sec: snapshot_bytes as f64 / (encode_ms / 1e3).max(1e-9),
            unit: "bytes",
            speedup_vs_serial: None,
        },
        ScaleRecord {
            name: "sim_snapshot_decode".into(),
            users: params.users,
            edges,
            wall_ms: decode_ms,
            per_sec: snapshot_bytes as f64 / (decode_ms / 1e3).max(1e-9),
            unit: "bytes",
            speedup_vs_serial: None,
        },
    ]);

    let mut rendered = format!(
        "Checkpoint/replay sweep ({} users, {} cells, checkpoint every {} events)\n",
        params.users, cells, params.checkpoint_every
    );
    rendered.push_str(&format!(
        "clean sweep: {cells} cells in {clean_ms:.1} ms via {} workers ({threads} shards)\n",
        if subprocess {
            "subprocess"
        } else {
            "in-process"
        }
    ));
    match killed_ms {
        Some(killed_ms) => rendered.push_str(&format!(
            "killed sweep: {kills_injected} worker deaths injected, recovered in {killed_ms:.1} ms — rows {}\n",
            if payload.recovered_identical {
                "byte-identical to clean"
            } else {
                "DIVERGED"
            }
        )),
        None => rendered.push_str(if require_worker {
            "killed sweep: FAILED (DIGG_REQUIRE_WORKER set but no sweep_worker binary found; build digg-bench binaries or set DIGG_SWEEP_WORKER)\n"
        } else {
            "killed sweep: SKIPPED (no sweep_worker binary found; build digg-bench binaries or set DIGG_SWEEP_WORKER)\n"
        }),
    }
    rendered.push_str(&format!(
        "checkpoint overhead: off {off_ms:.1} ms, every-{} {on_ms:.1} ms ({} checkpoints, {:.2}M events/sec off, {:.2}M events/sec on) — {}\n",
        params.checkpoint_every,
        report.checkpoints_written,
        events_off as f64 / (off_ms / 1e3).max(1e-9) / 1e6,
        events_off as f64 / (on_ms / 1e3).max(1e-9) / 1e6,
        if overhead_ok { "identical results" } else { "DIVERGED" }
    ));
    rendered.push_str(&format!(
        "snapshot at {} users: {:.2} MB, encode {encode_ms:.1} ms, decode {decode_ms:.1} ms — {}\n",
        params.users,
        snapshot_bytes as f64 / 1e6,
        if snapshot_round_trip {
            "round-trips byte-identically"
        } else {
            "DIVERGED"
        }
    ));

    let ok = payload.recovered_identical
        && overhead_ok
        && snapshot_round_trip
        && payload.clean.len() == cells
        && (subprocess || !require_worker);
    (
        vec![Artifact::new("checkpoint_sweep", rendered, &payload).with_ok(ok)],
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> CheckpointParams {
        CheckpointParams {
            users: 1_000,
            minutes: 120,
            checkpoint_every: 200,
        }
    }

    #[test]
    fn checkpoint_specs_cover_two_cell_shapes() {
        let specs = checkpoint_specs(&tiny_params());
        assert_eq!(specs.len(), 2);
        assert!(specs[1].cfg.submissions_per_minute < specs[0].cfg.submissions_per_minute);
        assert!(specs.iter().all(|s| s.cfg.users == 1_000));
    }

    #[test]
    fn in_process_checkpointed_sweep_matches_plain_runs() {
        let params = tiny_params();
        let specs = checkpoint_specs(&params);
        let seeds = [3u64, 4];
        let dir = std::env::temp_dir().join(format!(
            "digg-checkpoint-module-test-{}",
            std::process::id()
        ));
        let cfg = SupervisorConfig {
            checkpoint_every: params.checkpoint_every,
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorConfig::in_process(2)
        };
        let outcomes = run_sweep_supervised(&specs, &seeds, &cfg).unwrap();
        let got = rows(&outcomes);
        let want: Vec<ScenarioRun> = specs
            .iter()
            .flat_map(|spec| {
                seeds
                    .iter()
                    .map(move |&s| digg_sim::sweep::run_scenario(spec, s))
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
