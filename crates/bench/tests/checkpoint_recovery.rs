//! End-to-end recovery drill against the real `sweep_worker` binary:
//! the supervisor shards a grid across subprocesses, a deterministic
//! chaos plan makes workers die, stall, emit garbage, or tear their
//! checkpoints, and the recovered sweep must serialize byte-identical
//! to an uninterrupted one. This is the tentpole property of the
//! checkpoint/replay stack (DESIGN.md §15, hardened §17) exercised
//! across a true process boundary — JSON frames, heartbeats,
//! watchdog SIGKILLs, respawns, generation files and all.

use digg_data::{ChaosPlan, SweepKillPlan};
use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{
    run_sweep_supervised, run_sweep_supervised_lenient, ChaosFault, FailureKind, SupervisorConfig,
};
use digg_sim::sweep::{run_scenario, ScenarioSpec};
use digg_sim::{Kernel, SimConfig};
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_sweep_worker").to_string()]
}

fn small_specs() -> Vec<ScenarioSpec> {
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("digg-ckpt-recovery-{tag}-{}", std::process::id()))
}

#[test]
fn subprocess_sweep_matches_in_process_runs() {
    let specs = small_specs();
    let seeds = [11u64, 12];
    let cfg = SupervisorConfig {
        worker_cmd: Some(worker_cmd()),
        ..SupervisorConfig::in_process(2)
    };
    let outcomes = run_sweep_supervised(&specs, &seeds, &cfg).unwrap();
    assert_eq!(outcomes.len(), 4);
    let mut expected = Vec::new();
    for spec in &specs {
        for &s in &seeds {
            expected.push(run_scenario(spec, s));
        }
    }
    for (o, want) in outcomes.iter().zip(&expected) {
        assert_eq!(o.run(), Some(want));
    }
}

#[test]
fn killed_workers_recover_to_byte_identical_rows() {
    let specs = small_specs();
    let seeds = [21u64, 22];
    let cells = specs.len() * seeds.len();

    let clean_dir = temp_dir("clean");
    let clean_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, clean_dir.clone());
    let clean = run_sweep_supervised(&specs, &seeds, &clean_cfg).unwrap();

    // Every cell's worker dies after its first or second checkpoint.
    let plan = SweepKillPlan::kill_all(7, 2);
    let kills = plan.chaos(cells);
    assert_eq!(kills.iter().flatten().count(), cells, "kill_all must kill");
    let killed_dir = temp_dir("killed");
    let killed_cfg = SupervisorConfig {
        chaos: kills,
        ..SupervisorConfig::subprocess(worker_cmd(), 2, 150, killed_dir.clone())
    };
    let recovered = run_sweep_supervised(&specs, &seeds, &killed_cfg).unwrap();

    assert_eq!(recovered, clean);
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&clean).unwrap(),
        "recovered sweep rows are not byte-identical to the clean sweep"
    );
    // And both match straight single-process runs of the same cells.
    let mut k = 0;
    for spec in &specs {
        for &s in &seeds {
            assert_eq!(recovered[k].run(), Some(&run_scenario(spec, s)));
            k += 1;
        }
    }
    // Checkpoint files were consumed and removed on the way out.
    for dir in [clean_dir, killed_dir] {
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover checkpoints: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn respawn_budget_exhaustion_is_a_typed_error() {
    // A kill at every checkpoint index the budget allows: the worker
    // dies on the first attempt, resumes clean afterwards — so to
    // force exhaustion the budget must be zero.
    let specs = small_specs();
    let dir = temp_dir("exhaust");
    let mut cfg = SupervisorConfig::subprocess(worker_cmd(), 1, 150, dir.clone());
    cfg.max_respawns = 0;
    cfg.chaos = vec![Some(ChaosFault::Kill {
        after_checkpoints: 1,
    })];
    match run_sweep_supervised(&specs[..1], &[31], &cfg) {
        Err(digg_sim::supervisor::SweepError::WorkerExhausted { cell: 0, .. }) => {}
        other => panic!("expected WorkerExhausted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_chaos_matrix_recovers_to_byte_identical_rows() {
    // Six cells, one fault class each (round-robin): kill, stall,
    // dawdle, corrupt frame, torn checkpoint, bit-flipped checkpoint.
    // The watchdog must SIGKILL the stalled and dawdling workers, the
    // generation ladder must absorb the damaged checkpoints, and the
    // recovered rows must still be byte-identical to a clean sweep.
    let specs = small_specs();
    let seeds = [41u64, 42, 43];
    let cells = specs.len() * seeds.len();

    let clean_dir = temp_dir("chaos-clean");
    let clean_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, clean_dir.clone());
    let clean = run_sweep_supervised(&specs, &seeds, &clean_cfg).unwrap();

    let chaos_dir = temp_dir("chaos-matrix");
    let mut chaos_cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, chaos_dir.clone());
    chaos_cfg.chaos = ChaosPlan::fault_all(7, 2).matrix(cells);
    // Tight deadlines keep the stall and dawdle cells from dominating
    // the suite; toy cells finish well inside the 5 s deadline.
    chaos_cfg.watchdog.heartbeat_timeout = Duration::from_millis(500);
    chaos_cfg.watchdog.cell_deadline = Some(Duration::from_secs(5));
    let (results, report) = run_sweep_supervised_lenient(&specs, &seeds, &chaos_cfg).unwrap();

    assert_eq!(report.failed, vec![], "every faulted cell must recover");
    assert_eq!(report.completed, cells);
    let recovered: Vec<_> = results
        .iter()
        .map(|r| r.run().expect("completed cell").clone())
        .collect();
    let clean_rows: Vec<_> = clean.iter().map(|o| o.run().unwrap().clone()).collect();
    assert_eq!(
        serde_json::to_string(&recovered).unwrap(),
        serde_json::to_string(&clean_rows).unwrap(),
        "chaos-recovered rows are not byte-identical to the clean sweep"
    );
    // Every fault class left its signature in the observed counters.
    assert!(report.observed.hung >= 1, "stall: {:?}", report.observed);
    assert!(
        report.observed.deadline_exceeded >= 1,
        "dawdle: {:?}",
        report.observed
    );
    assert!(
        report.observed.corrupt_frame >= 1,
        "corrupt frame: {:?}",
        report.observed
    );
    assert!(report.observed.crashed >= 1, "kill: {:?}", report.observed);
    assert!(
        report.observed.corrupt_checkpoint >= 2,
        "torn + bit-flip fallbacks: {:?}",
        report.observed
    );
    assert!(report.respawns >= 6, "all six faults force a respawn");
    // Generation files were consumed and removed on the way out.
    for dir in [clean_dir, chaos_dir] {
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "leftover checkpoints: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn flipped_section_count_falls_back_as_a_corrupt_checkpoint() {
    // Bit 127 is the top bit of the container's section count (bytes
    // 12..16, little-endian): the damaged checkpoint claims 2^31 more
    // sections than it holds. The recovering worker must see a typed
    // restore error and fall back one generation, not abort on the
    // allocation.
    let specs = small_specs();
    let dir = temp_dir("count-flip");
    let mut cfg = SupervisorConfig::subprocess(worker_cmd(), 1, 150, dir.clone());
    cfg.chaos = vec![Some(ChaosFault::BitFlipCheckpoint {
        at_checkpoint: 2,
        bit: 127,
    })];
    let (results, report) = run_sweep_supervised_lenient(&specs[..1], &[51], &cfg).unwrap();
    assert_eq!(report.failed, vec![]);
    assert_eq!(results[0].run(), Some(&run_scenario(&specs[0], 51)));
    assert!(
        report.observed.corrupt_checkpoint >= 1,
        "count flip: {:?}",
        report.observed
    );
    // The injected exit is the only crash: the recovering worker
    // never aborts.
    assert_eq!(report.respawns, 1, "{:?}", report.observed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lenient_sweep_degrades_one_cell_without_losing_survivors() {
    // Zero respawn budget + one killed cell: the batch must come back
    // with exactly that cell degraded and every survivor byte-equal
    // to its single-process run.
    let specs = small_specs();
    let seeds = [51u64, 52];
    let cells = specs.len() * seeds.len();
    let dir = temp_dir("lenient");
    let mut cfg = SupervisorConfig::subprocess(worker_cmd(), 2, 150, dir.clone());
    cfg.max_respawns = 0;
    cfg.chaos = vec![None; cells];
    cfg.chaos[1] = Some(ChaosFault::Kill {
        after_checkpoints: 1,
    });
    let (results, report) = run_sweep_supervised_lenient(&specs, &seeds, &cfg).unwrap();
    assert_eq!(results.len(), cells);
    assert_eq!(report.completed, cells - 1);
    assert_eq!(report.failed.len(), 1);
    let failure = &report.failed[0];
    assert_eq!(failure.cell, 1);
    assert_eq!(failure.kind, FailureKind::Crashed);
    assert_eq!(failure.respawns, 0);
    assert_eq!(results[1].failure(), Some(failure));
    let mut k = 0;
    for spec in &specs {
        for &s in &seeds {
            if k != 1 {
                assert_eq!(results[k].run(), Some(&run_scenario(spec, s)));
            }
            k += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
