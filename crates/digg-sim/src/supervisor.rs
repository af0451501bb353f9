//! The fault-tolerant multi-process sweep runner.
//!
//! [`run_sweep_supervised`] shards a `specs x seeds` grid across worker
//! **subprocesses** (DESIGN.md §15, hardened in §17). The supervisor
//! assigns each worker a static contiguous row-major shard of the grid
//! and drives it one cell at a time over a stdin/stdout frame
//! protocol; workers checkpoint their simulation every N events
//! through [`digg_snapshot`]'s versioned containers, and a worker that
//! dies, hangs, or emits garbage mid-cell is killed, re-spawned, and
//! resumes from the youngest readable checkpoint generation. Because a
//! restored [`Sim`] is bit-identical to the one that wrote the
//! snapshot, a sweep that lost workers produces output
//! **byte-identical to an uninterrupted run** — the property the
//! `checkpoint_sweep` and `chaos_sweep` benches assert end to end.
//!
//! ## Protocol
//!
//! Frames are `u32` little-endian length + JSON payload. The
//! supervisor sends one [`CellRequest`] per cell; the worker answers
//! with a stream of [`WorkerFrame`]s — a progress [`Heartbeat`]
//! immediately on receipt, one more after every checkpoint it writes,
//! and finally `Done` carrying the [`CellResponse`]. Decode failures
//! are typed ([`FrameError`]): an oversized or short length prefix, a
//! truncated payload, non-UTF-8 bytes, or unparseable JSON each name
//! themselves instead of masquerading as generic pipe failure.
//!
//! ## Watchdog
//!
//! A reader thread drains each worker's stdout into a channel; the
//! supervisor waits with `recv_timeout`. Silence longer than
//! [`WatchdogConfig::heartbeat_timeout`] marks the worker
//! [`FailureKind::Hung`]; a cell whose wall-clock run exceeds
//! [`WatchdogConfig::cell_deadline`] — even with heartbeats still
//! flowing — is [`FailureKind::DeadlineExceeded`]. Either way the
//! worker is SIGKILLed and re-spawned (counted against
//! [`SupervisorConfig::max_respawns`]), and the cell resumes from its
//! last good checkpoint. The timers gate only *recovery scheduling*;
//! results remain pure functions of `(spec, seed)`.
//!
//! ## Checkpoint generations
//!
//! Checkpoints are generational: `cell_<i>.snap.<gen>` with the last
//! [`GENERATIONS_KEPT`] generations retained. Restore walks the ladder
//! youngest-first — any typed [`SnapshotError`] (torn write, bit rot)
//! falls back one generation, and running out of generations
//! cold-restarts the cell from scratch as the final rung. Corrupt
//! generations are deleted on the way down so they are never retried.
//!
//! ## Failure taxonomy and lenient mode
//!
//! Every worker failure is classified as a [`FailureKind`]: `Hung`,
//! `Crashed`, `CorruptFrame`, `CorruptCheckpoint`, or
//! `DeadlineExceeded`. [`run_sweep_supervised`] fails the whole grid
//! when one cell exhausts its respawn budget;
//! [`run_sweep_supervised_lenient`] instead degrades that cell to a
//! [`CellFailure`] in its [`SweepDegradationReport`] and keeps every
//! surviving cell — the posture a long-horizon production sweep wants.
//!
//! ## Determinism
//!
//! Sharding is static (contiguous chunks, like [`des_core::par_map`])
//! and outcomes are reassembled in grid order, so results don't depend
//! on worker scheduling. Deterministic faults come from
//! [`CellRequest::fault`] (a [`ChaosFault`] drawn per cell by
//! `digg_data::ChaosPlan`): the worker injects its own death, stall,
//! corrupt frame, or damaged checkpoint at a plan-chosen point, so
//! where a fault lands in the event stream is a pure function of the
//! plan — no signal races. With no subprocess binary available the
//! supervisor falls back to running shards in-process (same sharding,
//! same checkpoint cadence, faults ignored), which keeps every
//! consumer runnable in environments that cannot spawn.

use crate::engine::Sim;
use crate::sweep::{
    scenario_population, scenario_run, scenario_sim, CellOutcome, ScenarioRun, ScenarioSpec,
};
use crate::time::Minute;
use digg_snapshot::{read_snapshot, write_snapshot, Restore, Snapshot, SnapshotError};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

/// Exit code a worker uses when a chaos plan tells it to die after a
/// checkpoint — distinguishable from a real crash in worker logs.
pub const WORKER_KILL_EXIT_CODE: i32 = 101;

/// Exit code a worker uses after injecting a non-kill chaos fault
/// (corrupt frame, torn or bit-flipped checkpoint): the fault has
/// landed and the process removes itself so the supervisor's recovery
/// path — not a half-poisoned worker — finishes the cell.
pub const WORKER_CHAOS_EXIT_CODE: i32 = 102;

/// Checkpoint generations retained per cell. Two is the minimum that
/// makes the fallback ladder useful: a fault that tears generation
/// `g` mid-write still leaves `g - 1` intact.
pub const GENERATIONS_KEPT: u32 = 2;

/// Ceiling on a single protocol frame; a length prefix beyond this is
/// a corrupt stream, not a real message.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

// ------------------------------------------------------------- errors

/// A typed frame-decode failure: the byte stream violated the length-
/// prefixed JSON framing. Distinct from [`SweepError::Io`] (the pipe
/// itself broke) so supervisors can tell a garbage-emitting worker
/// from a dead one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The enforced cap.
        cap: u32,
    },
    /// The stream ended inside the 4-byte length prefix (1–3 bytes
    /// short of a frame boundary).
    ShortLengthPrefix {
        /// Prefix bytes actually read before EOF.
        got: usize,
    },
    /// The stream ended before the declared payload did.
    TruncatedPayload {
        /// Declared payload length.
        expected: u32,
        /// Payload bytes actually read before EOF.
        got: usize,
    },
    /// The payload is not UTF-8.
    NotUtf8,
    /// The payload is not the expected JSON shape.
    BadJson(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, cap } => {
                write!(f, "frame length {len} exceeds the {cap}-byte cap")
            }
            FrameError::ShortLengthPrefix { got } => {
                write!(f, "stream ended {got} byte(s) into a length prefix")
            }
            FrameError::TruncatedPayload { expected, got } => {
                write!(f, "frame payload truncated: declared {expected}, got {got}")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::BadJson(why) => write!(f, "frame payload is not valid JSON: {why}"),
        }
    }
}

/// Everything that can go wrong driving a supervised sweep.
#[derive(Debug)]
pub enum SweepError {
    /// An I/O error on the worker pipe or a checkpoint file.
    Io(io::Error),
    /// A malformed frame on the worker pipe (typed decode failure).
    Frame(FrameError),
    /// An out-of-order or structurally invalid protocol exchange.
    Protocol(String),
    /// A checkpoint could not be written, read, or restored.
    Snapshot(SnapshotError),
    /// A worker died more times than the respawn budget allows.
    WorkerExhausted {
        /// Grid index of the cell being retried when the budget ran out.
        cell: usize,
        /// Respawns attempted for that cell.
        respawns: u32,
    },
    /// The configuration asked for checkpointing without a directory,
    /// or for subprocess workers without a command.
    BadConfig(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep i/o error: {e}"),
            SweepError::Frame(e) => write!(f, "sweep frame error: {e}"),
            SweepError::Protocol(msg) => write!(f, "sweep protocol error: {msg}"),
            SweepError::Snapshot(e) => write!(f, "sweep checkpoint error: {e}"),
            SweepError::WorkerExhausted { cell, respawns } => write!(
                f,
                "worker for cell {cell} died through all {respawns} respawns"
            ),
            SweepError::BadConfig(msg) => write!(f, "sweep config error: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> SweepError {
        SweepError::Io(e)
    }
}

impl From<SnapshotError> for SweepError {
    fn from(e: SnapshotError) -> SweepError {
        SweepError::Snapshot(e)
    }
}

/// Why a worker was declared dead on one cell attempt — the sweep's
/// failure taxonomy. Recovered failures are counted per kind in
/// [`FailureCounts`]; a cell that exhausts its respawn budget carries
/// the final kind in its [`CellFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The worker went silent past the heartbeat timeout.
    Hung,
    /// The worker's pipe closed or broke mid-cell (process death).
    Crashed,
    /// The worker emitted a frame that failed to decode
    /// ([`FrameError`]).
    CorruptFrame,
    /// A checkpoint generation failed to restore (typed
    /// [`SnapshotError`]) and the ladder fell back past it.
    CorruptCheckpoint,
    /// The cell's wall-clock deadline elapsed, heartbeats or not.
    DeadlineExceeded,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FailureKind::Hung => "hung",
            FailureKind::Crashed => "crashed",
            FailureKind::CorruptFrame => "corrupt-frame",
            FailureKind::CorruptCheckpoint => "corrupt-checkpoint",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
        };
        f.write_str(name)
    }
}

// -------------------------------------------------------------- chaos

/// Which way a chaos-injected corrupt response frame is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptFrameKind {
    /// A well-framed payload of non-UTF-8 garbage bytes.
    Garbage,
    /// A length prefix beyond [`MAX_FRAME_BYTES`].
    Oversized,
    /// A declared payload cut off by EOF.
    Truncated,
}

/// One deterministic fault a worker injects into its own execution —
/// the generalization of the old kill-after-checkpoint plan into a
/// full chaos matrix. Drawn per grid cell by `digg_data::ChaosPlan`
/// and shipped in the [`CellRequest`]; never set on resume re-sends,
/// so each fault fires at most once per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosFault {
    /// Exit with [`WORKER_KILL_EXIT_CODE`] right after writing this
    /// many checkpoints (the original `SweepKillPlan` fault).
    Kill {
        /// Checkpoint count that triggers the exit.
        after_checkpoints: u32,
    },
    /// Go silent forever right after writing this many checkpoints:
    /// no heartbeats, no exit. Only the watchdog's SIGKILL ends it.
    Stall {
        /// Checkpoint count that triggers the stall.
        after_checkpoints: u32,
    },
    /// Keep heartbeating but stop progressing after this many
    /// checkpoints — alive by the heartbeat rule, dead by the cell
    /// deadline. Exercises [`FailureKind::DeadlineExceeded`].
    Dawdle {
        /// Checkpoint count that triggers the dawdle.
        after_checkpoints: u32,
    },
    /// Run the cell to completion, then replace the `Done` frame with
    /// a malformed one and exit.
    CorruptFrame {
        /// How the frame is malformed.
        kind: CorruptFrameKind,
    },
    /// Tear the Nth checkpoint: write only a prefix of the container
    /// straight to the generation file (no tmp/fsync/rename), then
    /// exit — the torn-write disk failure the atomic path prevents.
    TornCheckpoint {
        /// Checkpoint count whose write is torn.
        at_checkpoint: u32,
    },
    /// Flip one bit in the Nth checkpoint's bytes before they land,
    /// then exit — silent media corruption under the checksum.
    BitFlipCheckpoint {
        /// Checkpoint count whose bytes are damaged.
        at_checkpoint: u32,
        /// Bit to flip, taken modulo the container's bit length.
        bit: u64,
    },
}

// ---------------------------------------------------------- protocol

/// Supervisor → worker: run one grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRequest {
    /// Grid index of the cell (row-major over `specs x seeds`).
    pub cell: usize,
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// The cell's seed.
    pub seed: u64,
    /// Events between checkpoints; 0 disables checkpointing.
    pub checkpoint_every: u64,
    /// Generation base path for this cell's checkpoints — generation
    /// `g` lives at `<path>.<g>` (absent = no checkpointing).
    pub checkpoint_path: Option<String>,
    /// Resume from the youngest readable checkpoint generation (set
    /// on re-sends after a worker death).
    pub resume: bool,
    /// Deterministic fault to self-inject. Never set on a resume
    /// re-send, so recovery always runs clean.
    pub fault: Option<ChaosFault>,
}

/// Worker → supervisor: the finished cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResponse {
    /// Echo of [`CellRequest::cell`].
    pub cell: usize,
    /// The cell's outcome (a worker-side checkpoint error is reported
    /// as a [`CellOutcome::Panicked`] carrying the rendered error).
    pub outcome: CellOutcome,
    /// Checkpoints the worker wrote while running this cell.
    pub checkpoints_written: u32,
    /// Whether the worker resumed from a checkpoint generation.
    pub resumed: bool,
    /// Checkpoint generations that failed to restore (typed
    /// [`SnapshotError`]) and were skipped by the fallback ladder
    /// during this execution's resume.
    pub fallbacks: u32,
}

/// Worker → supervisor progress signal: proof of life plus how far
/// the cell has advanced. Emitted on cell receipt and after every
/// checkpoint write, so heartbeat cadence tracks checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Grid index of the cell being run.
    pub cell: usize,
    /// Events fired so far in this cell's simulation.
    pub events_done: u64,
    /// Checkpoints written so far in this execution.
    pub checkpoints_written: u32,
}

/// Every frame a worker sends upstream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerFrame {
    /// Progress signal; the watchdog's food.
    Heartbeat(Heartbeat),
    /// The cell finished (successfully or panicked).
    Done(CellResponse),
}

/// Write one length-prefixed JSON frame.
fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode frame: {e}")))?;
    let len = u32::try_from(json.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(json.as_bytes())?;
    w.flush()
}

/// Fill `buf` from `r`, tolerating short reads. Returns the bytes
/// actually read; fewer than `buf.len()` means EOF landed mid-buffer.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, SweepError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(SweepError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one length-prefixed JSON frame; `Ok(None)` on clean EOF at a
/// frame boundary (the shutdown signal). Every malformed-stream path —
/// a partial length prefix, an oversized declared length, a truncated
/// payload, garbage bytes — is a typed [`FrameError`], never a generic
/// pipe failure.
fn read_frame<T: serde::Deserialize, R: Read>(r: &mut R) -> Result<Option<T>, SweepError> {
    let mut len_buf = [0u8; 4];
    match read_up_to(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(SweepError::Frame(FrameError::ShortLengthPrefix { got })),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(SweepError::Frame(FrameError::Oversized {
            len,
            cap: MAX_FRAME_BYTES,
        }));
    }
    let mut buf = vec![0u8; len as usize];
    let got = read_up_to(r, &mut buf)?;
    if got < buf.len() {
        return Err(SweepError::Frame(FrameError::TruncatedPayload {
            expected: len,
            got,
        }));
    }
    let text = String::from_utf8(buf).map_err(|_| SweepError::Frame(FrameError::NotUtf8))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| SweepError::Frame(FrameError::BadJson(e.to_string())))
}

// ------------------------------------------------- checkpoint ladder

/// The file holding generation `g` of a cell's checkpoint.
fn generation_path(base: &Path, generation: u32) -> PathBuf {
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    base.with_file_name(format!("{name}.{generation}"))
}

/// Existing checkpoint generations for `base`, ascending. Unreadable
/// directories yield the empty ladder (treated as "no checkpoints").
fn list_generations(base: &Path) -> Vec<u32> {
    let (Some(parent), Some(name)) = (base.parent(), base.file_name()) else {
        return Vec::new();
    };
    let prefix = format!("{}.", name.to_string_lossy());
    let mut gens = Vec::new();
    if let Ok(entries) = std::fs::read_dir(parent) {
        for entry in entries.flatten() {
            let file = entry.file_name().to_string_lossy().into_owned();
            if let Some(suffix) = file.strip_prefix(&prefix) {
                if let Ok(g) = suffix.parse::<u32>() {
                    gens.push(g);
                }
            }
        }
    }
    gens.sort_unstable();
    gens
}

/// Delete every generation of a cell's checkpoint.
fn remove_generations(base: &Path) {
    for g in list_generations(base) {
        let _ = std::fs::remove_file(generation_path(base, g));
    }
}

/// Write one checkpoint generation, applying any checkpoint-targeting
/// chaos fault: a torn write lands a prefix of the container straight
/// at the generation file (bypassing the atomic tmp/fsync/rename
/// discipline, as a disk-level tear would), a bit flip lands the full
/// length with one damaged bit. Both then exit the process — the
/// fault is only observable to a *recovering* worker.
fn write_checkpoint_generation(
    base: &Path,
    generation: u32,
    sim: &Sim,
    written: u32,
    fault: Option<ChaosFault>,
) -> Result<(), SweepError> {
    let path = generation_path(base, generation);
    let mut bytes = sim.snapshot();
    match fault {
        Some(ChaosFault::TornCheckpoint { at_checkpoint }) if at_checkpoint == written => {
            let keep = bytes.len() / 3;
            std::fs::write(&path, &bytes[..keep])?;
            std::process::exit(WORKER_CHAOS_EXIT_CODE);
        }
        Some(ChaosFault::BitFlipCheckpoint { at_checkpoint, bit }) if at_checkpoint == written => {
            if !bytes.is_empty() {
                let at = (bit % (bytes.len() as u64 * 8)) as usize;
                bytes[at / 8] ^= 1 << (at % 8);
            }
            std::fs::write(&path, &bytes)?;
            std::process::exit(WORKER_CHAOS_EXIT_CODE);
        }
        _ => write_snapshot(&path, &bytes).map_err(SweepError::from),
    }
}

// ------------------------------------------------------------ worker

/// How one cell execution should checkpoint (and misbehave).
#[derive(Debug, Clone, Default)]
pub struct CellCheckpointing<'a> {
    /// Events between checkpoints; 0 disables checkpointing.
    pub every_events: u64,
    /// Generation base path for this cell — generation `g` is written
    /// to `<path>.<g>`, keeping the last [`GENERATIONS_KEPT`].
    pub path: Option<&'a Path>,
    /// Restore from the youngest readable generation, falling back
    /// one generation per typed restore failure, cold-starting when
    /// the ladder runs out.
    pub resume: bool,
    /// Deterministic chaos fault to self-inject. Kill/stall/torn/
    /// bit-flip faults end or hang the *process* and are only
    /// meaningful in subprocess workers.
    pub fault: Option<ChaosFault>,
}

/// What [`run_cell_checkpointed`] did besides the run itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCheckpointReport {
    /// Checkpoints written during this execution.
    pub checkpoints_written: u32,
    /// Whether execution started from a restored checkpoint.
    pub resumed: bool,
    /// Checkpoint generations skipped (typed restore failure) on the
    /// way to the one that loaded — each is a fallback rung taken.
    pub fallbacks: u32,
}

/// Run one `(spec, seed)` cell with checkpointing, invoking `progress`
/// with `(checkpoints_written, events_fired)` after every checkpoint
/// lands — the hook the worker protocol turns into heartbeats. See
/// [`run_cell_checkpointed`] for the semantics.
pub fn run_cell_with(
    spec: &ScenarioSpec,
    seed: u64,
    ckpt: &CellCheckpointing<'_>,
    progress: &mut dyn FnMut(u32, u64) -> Result<(), SweepError>,
) -> Result<(ScenarioRun, CellCheckpointReport), SweepError> {
    let mut resumed = false;
    let mut fallbacks = 0u32;
    let mut generation = 0u32;
    let mut sim: Option<Sim> = None;
    if let Some(base) = ckpt.path {
        let gens = list_generations(base);
        generation = gens.last().copied().unwrap_or(0);
        if ckpt.resume {
            // The fallback ladder: youngest generation first; any
            // typed restore failure deletes the corrupt rung and
            // falls back one generation; running out of rungs
            // cold-restarts the cell from scratch below.
            for &g in gens.iter().rev() {
                let path = generation_path(base, g);
                let restored = read_snapshot(&path)
                    .and_then(|bytes| Sim::restore(&bytes, scenario_population(spec, seed)));
                match restored {
                    Ok(s) => {
                        sim = Some(s);
                        resumed = true;
                        break;
                    }
                    Err(_) => {
                        fallbacks += 1;
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
    }
    let mut sim = match sim {
        Some(sim) => sim,
        None => scenario_sim(spec, seed),
    };
    let horizon = Minute(spec.minutes);
    let mut written = 0u32;
    match (ckpt.every_events, ckpt.path) {
        (0, _) | (_, None) => {
            sim.run_budgeted(horizon, u64::MAX);
        }
        (every, Some(base)) => {
            while !sim.run_budgeted(horizon, every) {
                generation += 1;
                written += 1;
                write_checkpoint_generation(base, generation, &sim, written, ckpt.fault)?;
                if generation > GENERATIONS_KEPT {
                    let _ =
                        std::fs::remove_file(generation_path(base, generation - GENERATIONS_KEPT));
                }
                match ckpt.fault {
                    Some(ChaosFault::Kill { after_checkpoints })
                        if after_checkpoints == written =>
                    {
                        std::process::exit(WORKER_KILL_EXIT_CODE);
                    }
                    Some(ChaosFault::Stall { after_checkpoints })
                        if after_checkpoints == written =>
                    {
                        // Hang silently: the checkpoint above survives,
                        // heartbeats stop, and only the watchdog's
                        // SIGKILL ends this loop.
                        loop {
                            std::thread::sleep(Duration::from_secs(3600));
                        }
                    }
                    _ => {}
                }
                progress(written, sim.events_fired())?;
            }
        }
    }
    Ok((
        scenario_run(spec, seed, &sim),
        CellCheckpointReport {
            checkpoints_written: written,
            resumed,
            fallbacks,
        },
    ))
}

/// Run one `(spec, seed)` cell with generational checkpointing:
/// resume from the youngest readable generation when asked, then
/// alternate `run_budgeted` slices of `every_events` with atomic
/// snapshot writes until the horizon is drained. The result is
/// bit-identical to [`crate::sweep::run_scenario`] — checkpointing
/// only pauses the simulation, never perturbs it, and a resume that
/// fell down the whole ladder replays from scratch to the same bytes.
pub fn run_cell_checkpointed(
    spec: &ScenarioSpec,
    seed: u64,
    ckpt: &CellCheckpointing<'_>,
) -> Result<(ScenarioRun, CellCheckpointReport), SweepError> {
    run_cell_with(spec, seed, ckpt, &mut |_, _| Ok(()))
}

/// Emit a deliberately malformed frame in place of a `Done` response.
fn write_corrupt_frame<W: Write>(w: &mut W, kind: CorruptFrameKind) -> io::Result<()> {
    match kind {
        CorruptFrameKind::Garbage => {
            const GARBAGE_LEN: u32 = 16;
            w.write_all(&GARBAGE_LEN.to_le_bytes())?;
            w.write_all(&[0xFFu8; GARBAGE_LEN as usize])?;
        }
        CorruptFrameKind::Oversized => {
            w.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())?;
        }
        CorruptFrameKind::Truncated => {
            w.write_all(&64u32.to_le_bytes())?;
            w.write_all(b"short")?;
        }
    }
    w.flush()
}

/// Serve one [`CellRequest`]: heartbeat immediately, run the cell
/// (panic-isolated — a poisoned scenario yields
/// [`CellOutcome::Panicked`], not a dead worker) with a heartbeat
/// after every checkpoint, then send `Done` — or, under a
/// corrupt-frame chaos fault, garbage instead.
fn serve_cell<W: Write>(req: &CellRequest, output: &mut W) -> Result<(), SweepError> {
    write_frame(
        output,
        &WorkerFrame::Heartbeat(Heartbeat {
            cell: req.cell,
            events_done: 0,
            checkpoints_written: 0,
        }),
    )?;
    let path = req.checkpoint_path.as_ref().map(PathBuf::from);
    let ckpt = CellCheckpointing {
        every_events: req.checkpoint_every,
        path: path.as_deref(),
        resume: req.resume,
        fault: req.fault,
    };
    // AssertUnwindSafe: a panicking cell's partially built Sim is
    // dropped during the unwind; only the outcome value escapes. The
    // output stream is reused after the unwind only for the complete
    // Done frame, never a partial one.
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_cell_with(&req.spec, req.seed, &ckpt, &mut |written, events| {
            if let Some(ChaosFault::Dawdle { after_checkpoints }) = req.fault {
                if written >= after_checkpoints {
                    // Alive but useless: heartbeats keep flowing while
                    // progress stops. Only the cell deadline (and its
                    // SIGKILL) ends this loop.
                    loop {
                        write_frame(
                            output,
                            &WorkerFrame::Heartbeat(Heartbeat {
                                cell: req.cell,
                                events_done: events,
                                checkpoints_written: written,
                            }),
                        )?;
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            write_frame(
                output,
                &WorkerFrame::Heartbeat(Heartbeat {
                    cell: req.cell,
                    events_done: events,
                    checkpoints_written: written,
                }),
            )
            .map_err(SweepError::Io)
        })
    }));
    let (outcome, report) = match result {
        Ok(Ok((run, report))) => (CellOutcome::Ok(run), Some(report)),
        Ok(Err(e)) => (
            CellOutcome::Panicked {
                scenario: req.spec.name.clone(),
                seed: req.seed,
                message: format!("checkpoint error: {e}"),
            },
            None,
        ),
        Err(p) => (
            CellOutcome::Panicked {
                scenario: req.spec.name.clone(),
                seed: req.seed,
                message: des_core::panic_message(p.as_ref()),
            },
            None,
        ),
    };
    if let Some(ChaosFault::CorruptFrame { kind }) = req.fault {
        write_corrupt_frame(output, kind)?;
        std::process::exit(WORKER_CHAOS_EXIT_CODE);
    }
    write_frame(
        output,
        &WorkerFrame::Done(CellResponse {
            cell: req.cell,
            outcome,
            checkpoints_written: report.as_ref().map_or(0, |r| r.checkpoints_written),
            resumed: report.as_ref().is_some_and(|r| r.resumed),
            fallbacks: report.as_ref().map_or(0, |r| r.fallbacks),
        }),
    )
    .map_err(SweepError::Io)
}

/// The worker side of the protocol: serve cells until EOF. Generic
/// over the transport so tests can drive it over in-memory buffers.
pub fn worker_main<R: Read, W: Write>(input: &mut R, output: &mut W) -> Result<(), SweepError> {
    while let Some(req) = read_frame::<CellRequest, _>(input)? {
        serve_cell(&req, output)?;
    }
    Ok(())
}

/// [`worker_main`] over stdin/stdout — the body of the `sweep_worker`
/// binary. Returns the process exit code.
pub fn worker_main_stdio() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    match worker_main(&mut stdin.lock(), &mut stdout.lock()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep_worker: {e}");
            1
        }
    }
}

// -------------------------------------------------------- supervisor

/// Liveness deadlines the supervisor enforces per cell attempt. Both
/// timers gate only recovery scheduling — which attempt finishes a
/// cell — never the cell's result, so results stay pure functions of
/// `(spec, seed)` at any timeout setting.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Maximum silence between worker frames before the worker is
    /// declared [`FailureKind::Hung`] and SIGKILLed. Heartbeats flow
    /// on checkpoint cadence, so this must comfortably exceed the
    /// wall time of `checkpoint_every` events.
    pub heartbeat_timeout: Duration,
    /// Wall-clock ceiling for one cell across all its heartbeats;
    /// exceeding it is [`FailureKind::DeadlineExceeded`]. `None`
    /// disables the ceiling.
    pub cell_deadline: Option<Duration>,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            heartbeat_timeout: Duration::from_secs(60),
            cell_deadline: None,
        }
    }
}

/// How [`run_sweep_supervised`] shards, checkpoints, and recovers.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker count — the grid is split into this many contiguous
    /// row-major shards (clamped to the cell count).
    pub workers: usize,
    /// Events between worker checkpoints; 0 disables checkpointing.
    pub checkpoint_every: u64,
    /// Directory for per-cell checkpoint generations
    /// (`cell_<index>.snap.<gen>`). Required when
    /// `checkpoint_every > 0`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Respawn budget per cell; a worker that dies more often than
    /// this on one cell fails the sweep (strict) or degrades the cell
    /// (lenient).
    pub max_respawns: u32,
    /// Worker subprocess command (program + fixed args). `None` runs
    /// shards in-process (no faults possible, checkpoints still
    /// written).
    pub worker_cmd: Option<Vec<String>>,
    /// Deterministic chaos plan: per grid cell, the fault its worker
    /// self-injects. Empty = no faults. Only meaningful with
    /// subprocess workers.
    pub chaos: Vec<Option<ChaosFault>>,
    /// Liveness deadlines per cell attempt.
    pub watchdog: WatchdogConfig,
}

impl SupervisorConfig {
    /// In-process sharded execution, no checkpointing — behaviourally
    /// the panic-isolated [`crate::sweep::try_run_sweep`], reshaped
    /// through the supervisor path.
    pub fn in_process(workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            checkpoint_every: 0,
            checkpoint_dir: None,
            max_respawns: 3,
            worker_cmd: None,
            chaos: Vec::new(),
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Subprocess workers running `cmd`, checkpointing every
    /// `checkpoint_every` events into `dir`.
    pub fn subprocess(
        cmd: Vec<String>,
        workers: usize,
        checkpoint_every: u64,
        dir: PathBuf,
    ) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            checkpoint_every,
            checkpoint_dir: Some(dir),
            max_respawns: 3,
            worker_cmd: Some(cmd),
            chaos: Vec::new(),
            watchdog: WatchdogConfig::default(),
        }
    }

    fn cell_checkpoint_path(&self, cell: usize) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("cell_{cell}.snap")))
    }

    fn fault_for(&self, cell: usize) -> Option<ChaosFault> {
        self.chaos.get(cell).copied().flatten()
    }
}

/// One grid cell: its global row-major index and coordinates.
#[derive(Debug, Clone, Copy)]
struct Cell {
    index: usize,
    spec_idx: usize,
    seed: u64,
}

/// A cell that exhausted its respawn budget under the lenient runner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Grid index of the failed cell.
    pub cell: usize,
    /// Name of its scenario.
    pub scenario: String,
    /// Its seed.
    pub seed: u64,
    /// The failure kind of the final, budget-exhausting attempt.
    pub kind: FailureKind,
    /// Respawns spent before giving up (== `max_respawns`).
    pub respawns: u32,
}

/// The lenient runner's per-cell verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellResult {
    /// The cell's worker produced a response (possibly a panicked
    /// outcome) within the respawn budget.
    Completed(CellOutcome),
    /// The cell exhausted its respawn budget.
    Failed(CellFailure),
}

impl CellResult {
    /// The completed run, if the cell succeeded end to end.
    pub fn run(&self) -> Option<&ScenarioRun> {
        match self {
            CellResult::Completed(o) => o.run(),
            CellResult::Failed(_) => None,
        }
    }

    /// The failure, if the cell exhausted its budget.
    pub fn failure(&self) -> Option<&CellFailure> {
        match self {
            CellResult::Completed(_) => None,
            CellResult::Failed(f) => Some(f),
        }
    }
}

/// Observed worker-failure events by kind, recovered or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureCounts {
    /// Heartbeat-timeout expiries.
    pub hung: u32,
    /// Pipe closures / process deaths.
    pub crashed: u32,
    /// Undecodable frames.
    pub corrupt_frame: u32,
    /// Checkpoint generations skipped by the fallback ladder.
    pub corrupt_checkpoint: u32,
    /// Cell-deadline expiries.
    pub deadline_exceeded: u32,
}

impl FailureCounts {
    fn note(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Hung => self.hung += 1,
            FailureKind::Crashed => self.crashed += 1,
            FailureKind::CorruptFrame => self.corrupt_frame += 1,
            FailureKind::CorruptCheckpoint => self.corrupt_checkpoint += 1,
            FailureKind::DeadlineExceeded => self.deadline_exceeded += 1,
        }
    }

    fn merge(&mut self, other: &FailureCounts) {
        self.hung += other.hung;
        self.crashed += other.crashed;
        self.corrupt_frame += other.corrupt_frame;
        self.corrupt_checkpoint += other.corrupt_checkpoint;
        self.deadline_exceeded += other.deadline_exceeded;
    }

    /// Total failure events observed.
    pub fn total(&self) -> u32 {
        self.hung
            + self.crashed
            + self.corrupt_frame
            + self.corrupt_checkpoint
            + self.deadline_exceeded
    }
}

/// What the lenient sweep survived: the degradation ledger returned
/// beside the per-cell results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepDegradationReport {
    /// Cells in the grid.
    pub cells: usize,
    /// Cells that completed (possibly with a panicked outcome).
    pub completed: usize,
    /// Cells that exhausted their respawn budget.
    pub failed: Vec<CellFailure>,
    /// Worker respawns across the whole sweep.
    pub respawns: u32,
    /// Every observed failure event by kind, recovered or terminal.
    pub observed: FailureCounts,
}

/// A live worker subprocess: its pipes plus the reader thread that
/// turns its stdout into a frame channel the watchdog can wait on
/// with a timeout.
struct Worker {
    child: Child,
    stdin: std::process::ChildStdin,
    frames: Receiver<Result<WorkerFrame, SweepError>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker, SweepError> {
        let program = cmd
            .first()
            .ok_or_else(|| SweepError::BadConfig("empty worker command".into()))?;
        let mut child = Command::new(program)
            .args(&cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| SweepError::Protocol("worker stdin not piped".into()))?;
        let mut stdout = child
            .stdout
            .take()
            .ok_or_else(|| SweepError::Protocol("worker stdout not piped".into()))?;
        let (tx, frames) = mpsc::channel();
        #[expect(
            clippy::disallowed_types,
            reason = "blocking-I/O watchdog pump; results are still reassembled in grid order by the shard driver"
        )]
        let reader = std::thread::Builder::new()
            .name("sweep-worker-reader".into())
            .spawn(move || loop {
                match read_frame::<WorkerFrame, _>(&mut stdout) {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    // Clean EOF: hang up by dropping the sender.
                    Ok(None) => return,
                    // A decode failure poisons the stream position;
                    // report it and stop reading.
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            })?;
        Ok(Worker {
            child,
            stdin,
            frames,
            reader: Some(reader),
        })
    }

    /// Send one request and await its `Done` response under the
    /// watchdog: heartbeats reset the silence timer, silence past the
    /// heartbeat timeout is `Hung`, blowing the cell deadline (even
    /// with heartbeats flowing) is `DeadlineExceeded`, a decode
    /// failure is `CorruptFrame`, and a broken or closed pipe is
    /// `Crashed`. On `Err` the caller must `kill_and_reap`.
    fn exchange(
        &mut self,
        req: &CellRequest,
        wd: &WatchdogConfig,
    ) -> Result<CellResponse, FailureKind> {
        if write_frame(&mut self.stdin, req).is_err() {
            return Err(FailureKind::Crashed);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the watchdog anchors recovery deadlines in real time but never lets them touch a cell's result (DESIGN.md §17)"
        )]
        let started = std::time::Instant::now();
        loop {
            let elapsed = started.elapsed();
            let mut wait = wd.heartbeat_timeout;
            let mut deadline_is_nearer = false;
            if let Some(deadline) = wd.cell_deadline {
                let Some(remaining) = deadline.checked_sub(elapsed) else {
                    return Err(FailureKind::DeadlineExceeded);
                };
                if remaining < wait {
                    wait = remaining;
                    deadline_is_nearer = true;
                }
            }
            match self.frames.recv_timeout(wait) {
                Ok(Ok(WorkerFrame::Done(resp))) => return Ok(resp),
                Ok(Ok(WorkerFrame::Heartbeat(_))) => {}
                Ok(Err(SweepError::Frame(_))) => return Err(FailureKind::CorruptFrame),
                Ok(Err(_)) => return Err(FailureKind::Crashed),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(if deadline_is_nearer {
                        FailureKind::DeadlineExceeded
                    } else {
                        FailureKind::Hung
                    });
                }
                Err(RecvTimeoutError::Disconnected) => return Err(FailureKind::Crashed),
            }
        }
    }

    /// SIGKILL the worker and reap it. Safe on an already-dead child;
    /// never blocks (the kill guarantees the wait returns).
    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    /// Grace ticks a clean shutdown waits before escalating to
    /// SIGKILL (at [`SHUTDOWN_POLL`] per tick).
    const SHUTDOWN_GRACE_POLLS: u32 = 200;

    /// Shut the worker down: closing stdin is the clean-exit signal;
    /// a worker that ignores it (hung, stalled, mid-chaos) is
    /// SIGKILLed after a bounded grace period — this path must never
    /// block forever on a child that will not exit.
    fn shutdown(mut self) {
        drop(self.stdin);
        for _ in 0..Self::SHUTDOWN_GRACE_POLLS {
            match self.child.try_wait() {
                Ok(Some(_)) => {
                    if let Some(reader) = self.reader.take() {
                        let _ = reader.join();
                    }
                    return;
                }
                Ok(None) => std::thread::sleep(SHUTDOWN_POLL),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Poll interval of the bounded shutdown grace loop.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// One shard's lenient results plus its slice of the degradation
/// ledger.
struct ShardOutcome {
    results: Vec<CellResult>,
    respawns: u32,
    observed: FailureCounts,
}

/// Build the row-major cell list.
fn grid_cells(specs: &[ScenarioSpec], seeds: &[u64]) -> Vec<Cell> {
    specs
        .iter()
        .enumerate()
        .flat_map(|(spec_idx, _)| seeds.iter().map(move |&seed| (spec_idx, seed)))
        .enumerate()
        .map(|(index, (spec_idx, seed))| Cell {
            index,
            spec_idx,
            seed,
        })
        .collect()
}

/// Run the full `specs x seeds` grid under the supervisor, failing
/// the whole sweep if any cell exhausts its respawn budget. Outcomes
/// come back in row-major grid order; with no faults anywhere the
/// cell payloads are bit-identical to [`crate::sweep::try_run_sweep`]
/// at any worker count, and with faults they are *still*
/// bit-identical — recovery resumes each killed, hung, or corrupted
/// cell from its youngest readable checkpoint generation.
pub fn run_sweep_supervised(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    cfg: &SupervisorConfig,
) -> Result<Vec<CellOutcome>, SweepError> {
    let (results, report) = run_sweep_supervised_lenient(specs, seeds, cfg)?;
    if let Some(f) = report.failed.first() {
        return Err(SweepError::WorkerExhausted {
            cell: f.cell,
            respawns: f.respawns,
        });
    }
    Ok(results
        .into_iter()
        .filter_map(|r| match r {
            CellResult::Completed(o) => Some(o),
            CellResult::Failed(_) => None,
        })
        .collect())
}

/// The lenient supervised sweep: identical recovery machinery to
/// [`run_sweep_supervised`], but a cell that exhausts its respawn
/// budget degrades to a [`CellFailure`] in grid position instead of
/// sinking the batch — every surviving cell's payload is still
/// byte-identical to a clean sweep's. Returns the per-cell results in
/// row-major order plus the [`SweepDegradationReport`] ledger.
pub fn run_sweep_supervised_lenient(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    cfg: &SupervisorConfig,
) -> Result<(Vec<CellResult>, SweepDegradationReport), SweepError> {
    if cfg.checkpoint_every > 0 && cfg.checkpoint_dir.is_none() {
        return Err(SweepError::BadConfig(
            "checkpoint_every > 0 requires checkpoint_dir".into(),
        ));
    }
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir)?;
    }
    let cells = grid_cells(specs, seeds);
    if cells.is_empty() {
        return Ok((Vec::new(), SweepDegradationReport::default()));
    }
    let workers = cfg.workers.clamp(1, cells.len());
    let chunk = cells.len().div_ceil(workers);
    let shards: Vec<&[Cell]> = cells.chunks(chunk).collect();
    let shard_results = des_core::par_map(&shards, shards.len(), |shard| match &cfg.worker_cmd {
        Some(cmd) => drive_shard_subprocess(cmd, shard, specs, cfg),
        None => Ok(drive_shard_in_process(shard, specs, cfg)),
    });
    let mut results = Vec::with_capacity(cells.len());
    let mut report = SweepDegradationReport {
        cells: cells.len(),
        ..SweepDegradationReport::default()
    };
    for shard_result in shard_results {
        let shard = shard_result?;
        report.respawns += shard.respawns;
        report.observed.merge(&shard.observed);
        for result in shard.results {
            match &result {
                CellResult::Completed(_) => report.completed += 1,
                CellResult::Failed(f) => report.failed.push(f.clone()),
            }
            results.push(result);
        }
    }
    Ok((results, report))
}

/// In-process fallback shard driver: same sharding and checkpoint
/// cadence as the subprocess path, faults ignored (there is no
/// separate process to lose).
fn drive_shard_in_process(
    shard: &[Cell],
    specs: &[ScenarioSpec],
    cfg: &SupervisorConfig,
) -> ShardOutcome {
    let results = shard
        .iter()
        .map(|cell| {
            let spec = &specs[cell.spec_idx];
            let path = cfg.cell_checkpoint_path(cell.index);
            let ckpt = CellCheckpointing {
                every_events: cfg.checkpoint_every,
                path: path.as_deref(),
                resume: false,
                fault: None,
            };
            // AssertUnwindSafe: as in `serve_cell` — only the outcome
            // value escapes the unwind.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                run_cell_checkpointed(spec, cell.seed, &ckpt)
            })) {
                Ok(Ok((run, _))) => CellOutcome::Ok(run),
                Ok(Err(e)) => CellOutcome::Panicked {
                    scenario: spec.name.clone(),
                    seed: cell.seed,
                    message: format!("checkpoint error: {e}"),
                },
                Err(p) => CellOutcome::Panicked {
                    scenario: spec.name.clone(),
                    seed: cell.seed,
                    message: des_core::panic_message(p.as_ref()),
                },
            };
            if let Some(path) = &path {
                remove_generations(path);
            }
            CellResult::Completed(outcome)
        })
        .collect();
    ShardOutcome {
        results,
        respawns: 0,
        observed: FailureCounts::default(),
    }
}

/// Subprocess shard driver: one worker serves the shard's cells in
/// order; a failure of any [`FailureKind`] SIGKILLs and re-spawns the
/// worker and re-sends the current cell with `resume = true` and the
/// chaos fault stripped. A cell that exhausts the respawn budget
/// becomes a [`CellResult::Failed`] and the driver moves on.
fn drive_shard_subprocess(
    cmd: &[String],
    shard: &[Cell],
    specs: &[ScenarioSpec],
    cfg: &SupervisorConfig,
) -> Result<ShardOutcome, SweepError> {
    let mut worker = Worker::spawn(cmd)?;
    let mut out = ShardOutcome {
        results: Vec::with_capacity(shard.len()),
        respawns: 0,
        observed: FailureCounts::default(),
    };
    for cell in shard {
        let spec = &specs[cell.spec_idx];
        let path = cfg.cell_checkpoint_path(cell.index);
        let mut respawns = 0u32;
        let result = loop {
            let resuming = respawns > 0;
            let req = CellRequest {
                cell: cell.index,
                spec: spec.clone(),
                seed: cell.seed,
                checkpoint_every: cfg.checkpoint_every,
                checkpoint_path: path.as_ref().map(|p| p.to_string_lossy().into_owned()),
                resume: resuming,
                fault: if resuming {
                    None
                } else {
                    cfg.fault_for(cell.index)
                },
            };
            match worker.exchange(&req, &cfg.watchdog) {
                Ok(resp) => {
                    if resp.cell != cell.index {
                        worker.kill_and_reap();
                        return Err(SweepError::Protocol(format!(
                            "worker answered cell {} while running cell {}",
                            resp.cell, cell.index
                        )));
                    }
                    // Fallback rungs the worker took are the
                    // supervisor's only view of checkpoint corruption.
                    out.observed.corrupt_checkpoint += resp.fallbacks;
                    break CellResult::Completed(resp.outcome);
                }
                Err(kind) => {
                    worker.kill_and_reap();
                    out.observed.note(kind);
                    respawns += 1;
                    out.respawns += 1;
                    if respawns > cfg.max_respawns {
                        worker = Worker::spawn(cmd)?;
                        break CellResult::Failed(CellFailure {
                            cell: cell.index,
                            scenario: spec.name.clone(),
                            seed: cell.seed,
                            kind,
                            respawns: respawns - 1,
                        });
                    }
                    worker = Worker::spawn(cmd)?;
                }
            }
        };
        if let Some(path) = &path {
            remove_generations(path);
        }
        out.results.push(result);
    }
    worker.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Kernel;
    use crate::population::PopulationConfig;
    use crate::sweep::{run_scenario, try_run_sweep};

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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("digg-supervisor-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let req = CellRequest {
            cell: 7,
            spec: toy_specs().remove(1),
            seed: 99,
            checkpoint_every: 5_000,
            checkpoint_path: Some("/tmp/cell_7.snap".into()),
            resume: true,
            fault: Some(ChaosFault::BitFlipCheckpoint {
                at_checkpoint: 2,
                bit: 12345,
            }),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let back: CellRequest = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(back.cell, 7);
        assert_eq!(back.seed, 99);
        assert_eq!(back.spec.name, "toy-quiet");
        assert_eq!(
            back.spec.cfg.submissions_per_minute.to_bits(),
            0.05f64.to_bits()
        );
        assert!(back.resume);
        assert_eq!(
            back.fault,
            Some(ChaosFault::BitFlipCheckpoint {
                at_checkpoint: 2,
                bit: 12345,
            })
        );
        // The next read hits EOF at a frame boundary: clean shutdown.
        assert!(read_frame::<CellRequest, _>(&mut cursor).unwrap().is_none());
    }

    fn sample_response_frame() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &WorkerFrame::Done(CellResponse {
                cell: 0,
                outcome: CellOutcome::Ok(run_scenario(&toy_specs()[0], 1)),
                checkpoints_written: 0,
                resumed: false,
                fallbacks: 0,
            }),
        )
        .unwrap();
        buf
    }

    #[test]
    fn truncated_payload_is_a_typed_frame_error() {
        let mut buf = sample_response_frame();
        buf.truncate(buf.len() - 3);
        let mut cursor = io::Cursor::new(buf);
        match read_frame::<WorkerFrame, _>(&mut cursor) {
            Err(SweepError::Frame(FrameError::TruncatedPayload { expected, got })) => {
                assert!(got + 3 == expected as usize);
            }
            other => panic!("expected TruncatedPayload, got {other:?}"),
        }
    }

    #[test]
    fn short_length_prefix_is_a_typed_frame_error_not_clean_eof() {
        for cut in 1..4usize {
            let mut cursor = io::Cursor::new(vec![0x10u8; cut]);
            match read_frame::<WorkerFrame, _>(&mut cursor) {
                Err(SweepError::Frame(FrameError::ShortLengthPrefix { got })) => {
                    assert_eq!(got, cut)
                }
                other => panic!("cut {cut}: expected ShortLengthPrefix, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_a_typed_frame_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        match read_frame::<WorkerFrame, _>(&mut cursor) {
            Err(SweepError::Frame(FrameError::Oversized { len, cap })) => {
                assert_eq!(len, MAX_FRAME_BYTES + 1);
                assert_eq!(cap, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_is_a_typed_frame_error() {
        let mut buf = Vec::new();
        write_corrupt_frame(&mut buf, CorruptFrameKind::Garbage).unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame::<WorkerFrame, _>(&mut cursor) {
            Err(SweepError::Frame(FrameError::NotUtf8)) => {}
            other => panic!("expected NotUtf8, got {other:?}"),
        }
        // Valid UTF-8 that isn't the expected JSON shape.
        let mut buf = Vec::new();
        write_frame(&mut buf, &42u32).unwrap();
        let mut cursor = io::Cursor::new(buf);
        match read_frame::<WorkerFrame, _>(&mut cursor) {
            Err(SweepError::Frame(FrameError::BadJson(_))) => {}
            other => panic!("expected BadJson, got {other:?}"),
        }
    }

    #[test]
    fn worker_main_serves_cells_over_buffers() {
        let specs = toy_specs();
        let mut input = Vec::new();
        for (i, seed) in [(0usize, 5u64), (1, 6)] {
            write_frame(
                &mut input,
                &CellRequest {
                    cell: i,
                    spec: specs[i].clone(),
                    seed,
                    checkpoint_every: 0,
                    checkpoint_path: None,
                    resume: false,
                    fault: None,
                },
            )
            .unwrap();
        }
        let mut output = Vec::new();
        worker_main(&mut io::Cursor::new(input), &mut output).unwrap();
        let mut cursor = io::Cursor::new(output);
        let mut done = Vec::new();
        let mut heartbeats = 0usize;
        while let Some(frame) = read_frame::<WorkerFrame, _>(&mut cursor).unwrap() {
            match frame {
                WorkerFrame::Heartbeat(hb) => {
                    assert_eq!(hb.cell, done.len());
                    heartbeats += 1;
                }
                WorkerFrame::Done(resp) => done.push(resp),
            }
        }
        assert_eq!(heartbeats, 2, "one receipt heartbeat per cell");
        for ((i, seed), resp) in [(0usize, 5u64), (1, 6)].into_iter().zip(&done) {
            assert_eq!(resp.cell, i);
            assert_eq!(resp.outcome.run(), Some(&run_scenario(&specs[i], seed)));
            assert!(!resp.resumed);
            assert_eq!(resp.fallbacks, 0);
        }
    }

    #[test]
    fn in_process_supervision_matches_try_run_sweep() {
        let specs = toy_specs();
        let seeds = [1u64, 2, 3];
        let plain = try_run_sweep(&specs, &seeds, 1).unwrap();
        for workers in [1, 2, 5, 16] {
            let cfg = SupervisorConfig::in_process(workers);
            let supervised = run_sweep_supervised(&specs, &seeds, &cfg).unwrap();
            assert_eq!(supervised, plain, "workers = {workers}");
        }
    }

    #[test]
    fn checkpointed_cell_matches_the_uninterrupted_run() {
        let dir = temp_dir("gen-roundtrip");
        let specs = toy_specs();
        let spec = &specs[0];
        let base = dir.join("cell_0.snap");
        let ckpt = CellCheckpointing {
            every_events: 200,
            path: Some(&base),
            resume: false,
            fault: None,
        };
        let (run, report) = run_cell_checkpointed(spec, 11, &ckpt).unwrap();
        assert!(report.checkpoints_written > 0, "cadence never fired");
        assert_eq!(run, run_scenario(spec, 11));
        // Only the youngest GENERATIONS_KEPT generations survive.
        let gens = list_generations(&base);
        assert!(gens.len() <= GENERATIONS_KEPT as usize, "gens: {gens:?}");
        assert_eq!(
            gens.last().copied(),
            Some(report.checkpoints_written),
            "youngest generation tracks the checkpoint count"
        );
        // The youngest generation is a usable resume point: restoring
        // it and draining the horizon reproduces the same run.
        let bytes = read_snapshot(&generation_path(&base, *gens.last().unwrap())).unwrap();
        let mut resumed = Sim::restore(&bytes, scenario_population(spec, 11)).unwrap();
        resumed.run_budgeted(Minute(spec.minutes), u64::MAX);
        assert_eq!(scenario_run(spec, 11, &resumed), run);
        // And the resume path of run_cell_checkpointed takes it.
        let ckpt = CellCheckpointing {
            every_events: 200,
            path: Some(&base),
            resume: true,
            fault: None,
        };
        let (rerun, report) = run_cell_checkpointed(spec, 11, &ckpt).unwrap();
        assert!(report.resumed);
        assert_eq!(report.fallbacks, 0);
        assert_eq!(rerun, run);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_generation_falls_back_one_rung_bit_identically() {
        let dir = temp_dir("gen-fallback");
        let specs = toy_specs();
        let spec = &specs[0];
        let base = dir.join("cell_0.snap");
        let clean = run_scenario(spec, 13);
        let ckpt = CellCheckpointing {
            every_events: 150,
            path: Some(&base),
            resume: false,
            fault: None,
        };
        let (_, report) = run_cell_checkpointed(spec, 13, &ckpt).unwrap();
        let gens = list_generations(&base);
        assert!(
            report.checkpoints_written >= 2 && gens.len() == 2,
            "need a two-rung ladder, got {gens:?}"
        );
        // Flip one bit in the youngest generation: resume must fall
        // back to the older one and still finish bit-identically.
        let youngest = generation_path(&base, gens[1]);
        let mut bytes = std::fs::read(&youngest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&youngest, &bytes).unwrap();
        let resume = CellCheckpointing {
            every_events: 150,
            path: Some(&base),
            resume: true,
            fault: None,
        };
        let (rerun, report) = run_cell_checkpointed(spec, 13, &resume).unwrap();
        assert!(report.resumed, "older generation must restore");
        assert_eq!(report.fallbacks, 1, "exactly one rung skipped");
        assert_eq!(rerun, clean);
        assert!(!youngest.exists(), "corrupt generation must be deleted");

        // Corrupt the whole ladder: the final rung is a cold restart,
        // still bit-identical.
        remove_generations(&base);
        let (_, _) = run_cell_checkpointed(spec, 13, &ckpt).unwrap();
        let gens = list_generations(&base);
        for g in &gens {
            let p = generation_path(&base, *g);
            let mut bytes = std::fs::read(&p).unwrap();
            bytes.truncate(bytes.len() / 4);
            std::fs::write(&p, &bytes).unwrap();
        }
        let (rerun, report) = run_cell_checkpointed(spec, 13, &resume).unwrap();
        assert!(!report.resumed, "whole ladder corrupt means cold restart");
        assert_eq!(report.fallbacks, gens.len() as u32);
        assert_eq!(rerun, clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_kills_a_child_that_ignores_eof() {
        // Regression for the unbounded `child.wait()` in the old
        // shutdown path: `sleep` never reads stdin, so closing it is
        // ignored and only the SIGKILL escalation ends the child. An
        // unfixed shutdown blocks ~5 minutes here and times the suite
        // out.
        let worker = Worker::spawn(&["sleep".to_string(), "300".to_string()]).unwrap();
        worker.shutdown();
    }

    #[test]
    fn watchdog_declares_a_silent_worker_hung_and_degrades_leniently() {
        // `sleep` accepts the request bytes into the pipe buffer but
        // never answers: the heartbeat timeout must trip, classify the
        // worker Hung, burn the respawn budget, and degrade the cell.
        let specs = toy_specs();
        let mut cfg = SupervisorConfig::in_process(1);
        cfg.worker_cmd = Some(vec!["sleep".to_string(), "300".to_string()]);
        cfg.max_respawns = 1;
        cfg.watchdog.heartbeat_timeout = Duration::from_millis(100);
        let (results, report) = run_sweep_supervised_lenient(&specs[..1], &[5], &cfg).unwrap();
        assert_eq!(results.len(), 1);
        let failure = results[0].failure().expect("cell must fail");
        assert_eq!(failure.kind, FailureKind::Hung);
        assert_eq!(failure.respawns, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.observed.hung, 2, "initial attempt + one respawn");
        assert_eq!(report.respawns, 2);
        // Strict mode surfaces the same situation as WorkerExhausted.
        match run_sweep_supervised(&specs[..1], &[5], &cfg) {
            Err(SweepError::WorkerExhausted {
                cell: 0,
                respawns: 1,
            }) => {}
            other => panic!("expected WorkerExhausted, got {other:?}"),
        }
    }

    #[test]
    fn cell_deadline_outranks_heartbeats() {
        // With the deadline shorter than the heartbeat timeout, a
        // silent worker is classified DeadlineExceeded, not Hung.
        let specs = toy_specs();
        let mut cfg = SupervisorConfig::in_process(1);
        cfg.worker_cmd = Some(vec!["sleep".to_string(), "300".to_string()]);
        cfg.max_respawns = 0;
        cfg.watchdog.heartbeat_timeout = Duration::from_secs(60);
        cfg.watchdog.cell_deadline = Some(Duration::from_millis(100));
        let (results, report) = run_sweep_supervised_lenient(&specs[..1], &[5], &cfg).unwrap();
        let failure = results[0].failure().expect("cell must fail");
        assert_eq!(failure.kind, FailureKind::DeadlineExceeded);
        assert_eq!(report.observed.deadline_exceeded, 1);
    }

    #[test]
    fn checkpointing_requires_a_directory() {
        let cfg = SupervisorConfig {
            checkpoint_every: 100,
            ..SupervisorConfig::in_process(2)
        };
        match run_sweep_supervised(&toy_specs(), &[1], &cfg) {
            Err(SweepError::BadConfig(_)) => {}
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn empty_grid_is_empty() {
        let cfg = SupervisorConfig::in_process(4);
        assert!(run_sweep_supervised(&[], &[1, 2], &cfg).unwrap().is_empty());
        assert!(run_sweep_supervised(&toy_specs(), &[], &cfg)
            .unwrap()
            .is_empty());
        let (results, report) = run_sweep_supervised_lenient(&[], &[1], &cfg).unwrap();
        assert!(results.is_empty());
        assert_eq!(report, SweepDegradationReport::default());
    }

    #[test]
    fn failure_counts_note_and_merge() {
        let mut a = FailureCounts::default();
        a.note(FailureKind::Hung);
        a.note(FailureKind::CorruptFrame);
        a.note(FailureKind::CorruptFrame);
        let mut b = FailureCounts::default();
        b.note(FailureKind::Crashed);
        b.note(FailureKind::DeadlineExceeded);
        b.note(FailureKind::CorruptCheckpoint);
        a.merge(&b);
        assert_eq!(a.hung, 1);
        assert_eq!(a.crashed, 1);
        assert_eq!(a.corrupt_frame, 2);
        assert_eq!(a.corrupt_checkpoint, 1);
        assert_eq!(a.deadline_exceeded, 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn generation_paths_and_listing_are_stable() {
        let dir = temp_dir("gen-list");
        let base = dir.join("cell_3.snap");
        assert!(list_generations(&base).is_empty());
        for g in [2u32, 1, 5] {
            std::fs::write(generation_path(&base, g), b"x").unwrap();
        }
        // Unrelated and non-numeric siblings are ignored.
        std::fs::write(dir.join("cell_3.snap.tmp"), b"x").unwrap();
        std::fs::write(dir.join("cell_30.snap.1"), b"x").unwrap();
        assert_eq!(list_generations(&base), vec![1, 2, 5]);
        remove_generations(&base);
        assert!(list_generations(&base).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
