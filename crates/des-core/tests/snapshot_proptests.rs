//! Property tests for the kernel checkpoint contract: snapshotting an
//! [`EventQueue`] or [`StreamRng`] at an arbitrary instant and
//! restoring it must be observationally invisible — the restored
//! object drains/draws bit-identically to the original — and damaged
//! containers (flipped bytes, truncation, foreign versions) must come
//! back as typed [`SnapshotError`]s, never panics.

mod common;

use common::{Clock, Op, ADVANCE};
use des_core::{EventQueue, StreamRng};
use digg_snapshot::{
    ByteReader, ByteWriter, Codec, Restore, Snapshot, SnapshotError, FORMAT_VERSION, MAGIC,
};
use proptest::prelude::*;
use rand::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct P(u64);

impl Codec for P {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader) -> Result<P, SnapshotError> {
        Ok(P(r.get_u64()?))
    }
}

/// Apply one op to a queue, tracking issued handles so cancel and
/// reschedule target real ids, and the clock that relative times
/// resolve against.
fn apply(
    q: &mut EventQueue<P>,
    handles: &mut Vec<des_core::EventId>,
    next: &mut u64,
    clock: &mut Clock,
    op: &Op,
) {
    match *op {
        Op::Schedule { when, class } => {
            handles.push(q.schedule(when.resolve(*clock), class, P(*next)));
            *next += 1;
        }
        Op::Cancel { pick } => {
            if !handles.is_empty() {
                let id = handles[pick % handles.len()];
                q.cancel(id);
            }
        }
        Op::Reschedule { pick, when, class } => {
            if !handles.is_empty() {
                let id = handles[pick % handles.len()];
                q.reschedule(id, when.resolve(*clock), class);
            }
        }
        Op::Pop => {
            if let Some(e) = q.pop() {
                clock.popped(e.time);
            }
        }
        Op::Advance => {
            let marker = q.schedule(clock.high + ADVANCE, u8::MAX, P(*next));
            handles.push(marker);
            *next += 1;
            while let Some(e) = q.pop() {
                clock.popped(e.time);
                if e.id == marker {
                    break;
                }
            }
        }
    }
}

/// Checkpoint after `ops[..cut]`: the restored queue replays the rest
/// of the history and drains bit-identically to the original, and
/// re-snapshotting yields the same bytes.
fn restore_is_invisible(ops: &[Op], cut_pick: usize) -> Result<(), String> {
    let cut = cut_pick % (ops.len() + 1);
    let mut q = EventQueue::new();
    let mut handles = Vec::new();
    let mut next = 0u64;
    let mut clock = Clock::default();
    for op in &ops[..cut] {
        apply(&mut q, &mut handles, &mut next, &mut clock, op);
    }

    let bytes = q.snapshot();
    let mut restored = EventQueue::<P>::restore(&bytes, ()).map_err(|e| format!("{e:?}"))?;
    prop_assert_eq!(
        restored.snapshot(),
        bytes,
        "re-snapshot must be byte-stable"
    );

    // Replay the tail of the history on both. Handles are the ids
    // issued so far — identical on both sides because the snapshot
    // carries the id counter.
    let mut handles_r = handles.clone();
    let mut next_r = next;
    let mut clock_r = clock;
    for op in &ops[cut..] {
        apply(&mut q, &mut handles, &mut next, &mut clock, op);
        apply(&mut restored, &mut handles_r, &mut next_r, &mut clock_r, op);
    }
    prop_assert_eq!(restored.snapshot(), q.snapshot());
    prop_assert_eq!(drain(&mut restored), drain(&mut q));
    Ok(())
}

fn drain(q: &mut EventQueue<P>) -> Vec<(u64, u8, u64)> {
    let mut out = Vec::new();
    while let Some(e) = q.pop() {
        out.push((e.time, e.class, e.payload.0));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint at an arbitrary instant mid-history.
    #[test]
    fn queue_restore_is_invisible_at_any_instant(
        ops in prop::collection::vec(common::op_strategy(), 0..150),
        cut_pick in any::<usize>(),
    ) {
        restore_is_invisible(&ops, cut_pick)?;
    }

    /// The same across the calendar ring's edges: the restored ring
    /// starts at the earliest pending time, wherever the original's
    /// stood.
    #[test]
    fn queue_restore_is_invisible_across_the_ring_edges(
        ops in prop::collection::vec(common::edge_op_strategy(), 0..200),
        cut_pick in any::<usize>(),
    ) {
        restore_is_invisible(&ops, cut_pick)?;
    }

    #[test]
    fn queue_restore_is_invisible_on_a_marching_clock(
        ops in common::marching_strategy(),
        cut_pick in any::<usize>(),
    ) {
        restore_is_invisible(&ops, cut_pick)?;
    }

    #[test]
    fn queue_restore_is_invisible_mid_bucket(
        ops in prop::collection::vec(common::drained_bucket_op_strategy(), 0..200),
        cut_pick in any::<usize>(),
    ) {
        restore_is_invisible(&ops, cut_pick)?;
    }

    /// Any single flipped byte in a queue snapshot surfaces as a typed
    /// error from restore — never a panic, never a silently different
    /// queue.
    #[test]
    fn corrupted_queue_snapshot_is_a_typed_error(
        events in prop::collection::vec((0..32u64, 0..3u8), 1..40),
        at_pick in any::<usize>(),
        mask in 1..=255u8,
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, c)) in events.iter().enumerate() {
            q.schedule(t, c, P(i as u64));
        }
        let mut bytes = q.snapshot();
        let at = at_pick % bytes.len();
        bytes[at] ^= mask;
        prop_assert!(EventQueue::<P>::restore(&bytes, ()).is_err());
    }

    /// Truncation at any point is a typed error.
    #[test]
    fn truncated_queue_snapshot_is_a_typed_error(
        events in prop::collection::vec((0..32u64, 0..3u8), 1..40),
        keep_pick in any::<usize>(),
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, c)) in events.iter().enumerate() {
            q.schedule(t, c, P(i as u64));
        }
        let bytes = q.snapshot();
        let keep = keep_pick % bytes.len(); // always strictly shorter
        prop_assert!(EventQueue::<P>::restore(&bytes[..keep], ()).is_err());
    }

    /// A container from a future (or past) format version is refused
    /// with `VersionMismatch` carrying both versions.
    #[test]
    fn version_mismatch_is_reported_with_both_versions(found_raw in any::<u32>()) {
        let found = if found_raw == FORMAT_VERSION { FORMAT_VERSION ^ 1 } else { found_raw };
        let q: EventQueue<P> = EventQueue::new();
        let mut bytes = q.snapshot();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&found.to_le_bytes());
        match EventQueue::<P>::restore(&bytes, ()) {
            Err(SnapshotError::VersionMismatch { found: f, expected }) => {
                prop_assert_eq!(f, found);
                prop_assert_eq!(expected, FORMAT_VERSION);
            }
            other => {
                prop_assert!(false, "expected VersionMismatch, got {:?}", other.err());
            }
        }
    }

    /// A stream RNG restored mid-stream continues with exactly the
    /// draws the original would have produced.
    #[test]
    fn stream_rng_resumes_exactly(
        seed in any::<u64>(),
        salts in prop::collection::vec(any::<u64>(), 0..4),
        burn in 0..200usize,
        draws in 1..50usize,
    ) {
        let mut rng = StreamRng::keyed(seed, &salts);
        for _ in 0..burn {
            let _: u64 = rng.random();
        }
        let bytes = rng.snapshot();
        let mut restored = StreamRng::restore(&bytes, ()).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(restored.state(), rng.state());
        for _ in 0..draws {
            let a: u64 = rng.random();
            let b: u64 = restored.random();
            prop_assert_eq!(a, b);
        }
    }
}
