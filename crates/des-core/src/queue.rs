//! The event queue: a binary heap with deterministic total order and
//! tombstoned cancellation.
//!
//! Heap entries are keyed by `(time, class, seq)`:
//!
//! - `time` — when the event fires (any monotone `u64` clock);
//! - `class` — a small caller-chosen tag ordering events that share a
//!   timestamp (the simulator uses it to encode the tick loop's
//!   intra-minute phase order: expiry before submissions before
//!   exposures before browsing before external discovery);
//! - `seq` — a queue-global insertion counter, so events with equal
//!   `(time, class)` pop in FIFO order and the order is a pure function
//!   of the schedule-call sequence, never of heap internals.
//!
//! Cancel and reschedule are O(log n) amortised without heap surgery:
//! a **slab** of slots holds the authoritative `(generation, seq)` per
//! [`EventId`], and a popped heap entry whose slot no longer matches
//! is a tombstone, skipped silently.
//!
//! ## The slab
//!
//! Live payloads used to live in a `HashMap<u64, LiveEvent<T>>`; every
//! schedule hashed a key and chased buckets, and a simulation
//! scheduling millions of exposure events churned the map's
//! allocations. The slab replaces that with a `Vec` of slots plus a
//! LIFO free list: an [`EventId`] packs `(generation << 32) | slot`,
//! so resolving a handle is one bounds-checked index plus a generation
//! compare, scheduling pops the free list (or appends a slot), and
//! firing or cancelling pushes it back with the generation bumped —
//! which is what keeps freed ids from ever resolving again. A slot
//! whose generation would wrap is retired instead of reused, so id
//! uniqueness is unconditional.

use digg_snapshot::{
    ByteWriter, Codec, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stable handle to a scheduled event, usable to cancel or reschedule
/// it until it fires. Ids are never reused within one queue: the high
/// 32 bits carry the slot's generation, the low 32 bits the slab slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn pack(slot: u32, generation: u32) -> EventId {
        EventId((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        // digg-lint: allow(no-truncating-cast) — extracting the upper 32-bit field of the packed id
        (self.0 >> 32) as u32
    }
}

/// A fired event, as returned by [`EventQueue::pop`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<T> {
    pub time: u64,
    pub class: u8,
    pub id: EventId,
    pub payload: T,
}

/// One slab slot. `generation` counts how many times the slot has been
/// freed; an [`EventId`] resolves only while its generation field
/// matches.
struct Slot<T> {
    generation: u32,
    state: SlotState<T>,
}

enum SlotState<T> {
    Free,
    Occupied { seq: u64, payload: T },
}

/// Deterministic priority queue of events carrying payloads of type
/// `T`. See the module docs for the ordering contract and the slab
/// layout.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u8, u64, EventId)>>,
    /// Slab of event slots; `EventId::slot` indexes it directly.
    slots: Vec<Slot<T>>,
    /// Freed slot indices, reused LIFO (the hottest slot stays
    /// cache-warm). Slots whose generation saturated are retired and
    /// never re-enter this list.
    free: Vec<u32>,
    /// Number of occupied slots, maintained incrementally so `len` is
    /// O(1).
    live_len: usize,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live_len: 0,
            next_seq: 0,
        }
    }

    /// Number of live (scheduled, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live_len
    }

    pub fn is_empty(&self) -> bool {
        self.live_len == 0
    }

    /// Schedule `payload` at `(time, class)`; later schedules at the
    /// same `(time, class)` fire after this one (FIFO).
    pub fn schedule(&mut self, time: u64, class: u8, payload: T) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => s,
            #[expect(
                clippy::expect_used,
                reason = "the packed-id layout caps the slab at u32 slots; beyond it is a programmer error"
            )]
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    state: SlotState::Free,
                });
                u32::try_from(self.slots.len() - 1).expect("event slab exceeds u32 slots")
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = &mut self.slots[slot as usize];
        debug_assert!(matches!(entry.state, SlotState::Free));
        entry.state = SlotState::Occupied { seq, payload };
        self.live_len += 1;
        let id = EventId::pack(slot, entry.generation);
        self.heap.push(Reverse((time, class, seq, id)));
        id
    }

    /// Free a slot after its event fired or was cancelled: bump the
    /// generation (invalidating every outstanding copy of the id) and
    /// recycle the index — unless the generation saturated, in which
    /// case the slot is retired.
    fn release(&mut self, slot: usize) {
        let entry = &mut self.slots[slot];
        entry.state = SlotState::Free;
        entry.generation += 1;
        self.live_len -= 1;
        if entry.generation < u32::MAX {
            // digg-lint: allow(no-truncating-cast, hot-path-alloc) — slot indices are allocated below u32::MAX by construction; the free list never outgrows the slab, so this push reuses capacity freed by schedule
            self.free.push(slot as u32);
        }
    }

    /// The slot behind `id`, if the id is still live.
    fn resolve(&self, id: EventId) -> Option<usize> {
        let slot = id.slot();
        match self.slots.get(slot) {
            Some(e) if e.generation == id.generation() => match e.state {
                SlotState::Occupied { .. } => Some(slot),
                SlotState::Free => None,
            },
            _ => None,
        }
    }

    /// Cancel a pending event, returning its payload; `None` if it
    /// already fired or was cancelled. The heap entry is left behind as
    /// a tombstone and skipped on pop.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        let slot = self.resolve(id)?;
        let state = std::mem::replace(&mut self.slots[slot].state, SlotState::Free);
        let SlotState::Occupied { payload, .. } = state else {
            // resolve only returns occupied slots.
            return None;
        };
        self.release(slot);
        Some(payload)
    }

    /// Move a pending event to a new `(time, class)`, keeping its id
    /// and payload. Equivalent to cancel + schedule: the event re-enters
    /// FIFO order as if scheduled now. Returns false if the id is no
    /// longer live.
    pub fn reschedule(&mut self, id: EventId, time: u64, class: u8) -> bool {
        let Some(slot) = self.resolve(id) else {
            return false;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let SlotState::Occupied { seq: s, .. } = &mut self.slots[slot].state else {
            // resolve only returns occupied slots.
            return false;
        };
        // The old heap entry keeps the stale seq and becomes a
        // tombstone; the id itself stays valid (same generation).
        *s = seq;
        self.heap.push(Reverse((time, class, seq, id)));
        true
    }

    /// Fire time of the next live event, without popping it.
    pub fn peek_time(&mut self) -> Option<u64> {
        self.skim_tombstones();
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    /// Pop the next live event in `(time, class, seq)` order.
    // digg-lint: hot-path
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.skim_tombstones();
        let Reverse((time, class, _seq, id)) = self.heap.pop()?;
        let slot = id.slot();
        let state = std::mem::replace(&mut self.slots[slot].state, SlotState::Free);
        #[expect(
            clippy::unreachable,
            reason = "heap/slab coherence invariant: skim_tombstones just dropped every dead head"
        )]
        let SlotState::Occupied { payload, .. } = state
        else {
            unreachable!("skim_tombstones left a dead head");
        };
        self.release(slot);
        Some(Event {
            time,
            class,
            id,
            payload,
        })
    }

    /// Drop stale heap entries (cancelled, fired, or superseded by a
    /// reschedule) until the head is live.
    fn skim_tombstones(&mut self) {
        while let Some(Reverse((_, _, seq, id))) = self.heap.peek() {
            let live = self
                .slots
                .get(id.slot())
                .filter(|e| e.generation == id.generation())
                .map(|e| matches!(e.state, SlotState::Occupied { seq: s, .. } if s == *seq))
                .unwrap_or(false);
            if live {
                return;
            }
            self.heap.pop();
        }
    }
}

impl<T: Codec> Snapshot for EventQueue<T> {
    /// Serialized: the full slab shape — `next_seq`, every slot's
    /// generation, the free list verbatim — plus the live events (with
    /// their original ids and seqs) sorted by the queue's own total
    /// order. Carrying the slab shape is what makes a restored queue
    /// allocate *future* ids identically to the original (the
    /// checkpoint/replay bit-identity contract); what is still dropped
    /// are tombstoned heap entries, which are unobservable.
    fn snapshot(&self) -> Vec<u8> {
        let mut entries: Vec<(u64, u8, u64, u64, &T)> = self
            .heap
            .iter()
            .filter_map(|&Reverse((time, class, seq, id))| {
                self.slots
                    .get(id.slot())
                    .filter(|e| e.generation == id.generation())
                    .and_then(|e| match &e.state {
                        SlotState::Occupied { seq: s, payload } if *s == seq => {
                            Some((time, class, seq, id.0, payload))
                        }
                        _ => None,
                    })
            })
            .collect();
        entries.sort_unstable_by_key(|&(time, class, seq, id, _)| (time, class, seq, id));
        // `live_len` is not stored: restore recounts it from the entries.
        debug_assert_eq!(entries.len(), self.live_len);
        let mut w = ByteWriter::new();
        w.put_u64(self.next_seq);
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_u32(s.generation);
        }
        w.put_usize(self.free.len());
        for &f in &self.free {
            w.put_u32(f);
        }
        w.put_usize(entries.len());
        for (time, class, seq, id, payload) in entries {
            w.put_u64(time);
            w.put_u8(class);
            w.put_u64(seq);
            w.put_u64(id);
            payload.encode(&mut w);
        }
        let mut container = SnapshotWriter::new();
        container.section("events", w.into_bytes());
        container.finish()
    }
}

impl<T: Codec> Restore for EventQueue<T> {
    type Context<'a> = ();

    fn restore(bytes: &[u8], _ctx: ()) -> Result<EventQueue<T>, SnapshotError> {
        let reader = SnapshotReader::parse(bytes)?;
        let mut r = reader.section_reader("events")?;
        let next_seq = r.get_u64()?;
        let slot_count = r.get_usize()?;
        let mut q = EventQueue::new();
        q.slots.reserve(slot_count.min(1 << 20));
        for _ in 0..slot_count {
            q.slots.push(Slot {
                generation: r.get_u32()?,
                state: SlotState::Free,
            });
        }
        let free_count = r.get_usize()?;
        let mut on_free = vec![false; slot_count];
        for _ in 0..free_count {
            let f = r.get_u32()?;
            let fi = f as usize;
            if fi >= slot_count {
                return Err(SnapshotError::Malformed(format!(
                    "free-list slot {f} beyond slab size {slot_count}"
                )));
            }
            if std::mem::replace(&mut on_free[fi], true) {
                return Err(SnapshotError::Malformed(format!(
                    "free-list slot {f} listed twice"
                )));
            }
            q.free.push(f);
        }
        let count = r.get_usize()?;
        for _ in 0..count {
            let time = r.get_u64()?;
            let class = r.get_u8()?;
            let seq = r.get_u64()?;
            let id = EventId(r.get_u64()?);
            let payload = T::decode(&mut r)?;
            if seq >= next_seq {
                return Err(SnapshotError::Malformed(format!(
                    "event seq {seq} not below next_seq {next_seq}"
                )));
            }
            let slot = id.slot();
            if slot >= slot_count {
                return Err(SnapshotError::Malformed(format!(
                    "event slot {slot} beyond slab size {slot_count}"
                )));
            }
            if on_free[slot] {
                return Err(SnapshotError::Malformed(format!(
                    "event slot {slot} is also on the free list"
                )));
            }
            let entry = &mut q.slots[slot];
            if entry.generation != id.generation() {
                return Err(SnapshotError::Malformed(format!(
                    "event id generation {} does not match slot generation {}",
                    id.generation(),
                    entry.generation
                )));
            }
            if matches!(entry.state, SlotState::Occupied { .. }) {
                return Err(SnapshotError::Malformed(format!(
                    "duplicate event id {}",
                    id.0
                )));
            }
            entry.state = SlotState::Occupied { seq, payload };
            q.live_len += 1;
            q.heap.push(Reverse((time, class, seq, id)));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed(
                "trailing bytes after event list".into(),
            ));
        }
        q.next_seq = next_seq;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, u8, &'static str)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.class, e.payload));
        }
        out
    }

    #[test]
    fn pops_by_time_then_class_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1, "t5c1-first");
        q.schedule(3, 2, "t3c2");
        q.schedule(5, 0, "t5c0");
        q.schedule(5, 1, "t5c1-second");
        q.schedule(3, 1, "t3c1");
        assert_eq!(
            drain(&mut q),
            vec![
                (3, 1, "t3c1"),
                (3, 2, "t3c2"),
                (5, 0, "t5c0"),
                (5, 1, "t5c1-first"),
                (5, 1, "t5c1-second"),
            ]
        );
    }

    #[test]
    fn cancel_removes_exactly_one_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(1, 0, "a");
        q.schedule(1, 0, "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q), vec![(1, 0, "b")]);
        assert_eq!(q.cancel(a), None, "cancel after drain");
    }

    #[test]
    fn reschedule_moves_and_requeues_fifo() {
        let mut q = EventQueue::new();
        let a = q.schedule(10, 0, "a");
        q.schedule(2, 0, "b");
        assert!(q.reschedule(a, 2, 0), "live event reschedules");
        // `a` re-entered after `b`, so FIFO puts it second.
        assert_eq!(drain(&mut q), vec![(2, 0, "b"), (2, 0, "a")]);
        assert!(!q.reschedule(a, 3, 0), "fired event does not");
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.schedule(1, 0, "a");
        q.schedule(7, 0, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(7));
        let b = q.pop().unwrap();
        assert_eq!((b.time, b.payload), (7, "b"));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut q = EventQueue::new();
        let a = q.schedule(1, 0, "a");
        q.cancel(a);
        // The freed slot is recycled LIFO; the new id shares the low
        // 32 bits but differs in generation, so the old handle stays
        // dead.
        let b = q.schedule(2, 0, "b");
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a, b);
        assert_eq!(b.generation(), a.generation() + 1);
        assert_eq!(q.cancel(a), None, "stale handle cannot cancel");
        assert_eq!(q.cancel(b), Some("b"));
        // Only one physical slot was ever allocated.
        assert_eq!(q.slots.len(), 1);
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct P(u64);

    impl Codec for P {
        fn encode(&self, out: &mut ByteWriter) {
            out.put_u64(self.0);
        }

        fn decode(r: &mut digg_snapshot::ByteReader<'_>) -> Result<P, SnapshotError> {
            Ok(P(r.get_u64()?))
        }
    }

    fn drain_p(q: &mut EventQueue<P>) -> Vec<(u64, u8, EventId, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.class, e.id, e.payload.0));
        }
        out
    }

    #[test]
    fn snapshot_restore_preserves_order_ids_and_handles() {
        let mut q = EventQueue::new();
        let a = q.schedule(5, 1, P(50));
        let b = q.schedule(3, 0, P(30));
        let c = q.schedule(3, 0, P(31));
        q.schedule(1, 0, P(10));
        q.cancel(b);
        q.reschedule(a, 3, 0); // re-enters FIFO after c
        q.pop(); // fires (1, 0, P(10))

        let bytes = q.snapshot();
        let mut restored: EventQueue<P> = EventQueue::restore(&bytes, ()).unwrap();
        assert_eq!(restored.len(), q.len());
        // Outstanding handles keep working against the restored queue.
        assert!(restored.reschedule(c, 9, 2));
        assert!(q.reschedule(c, 9, 2));
        assert_eq!(drain_p(&mut restored), drain_p(&mut q));
        // Id allocation continues where the original left off: the
        // snapshot carries the slab's generations and free-list order.
        assert_eq!(restored.schedule(0, 0, P(0)), q.schedule(0, 0, P(0)));
    }

    #[test]
    fn snapshot_drops_tombstones() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            let id = q.schedule(i, 0, P(i));
            if i % 2 == 0 {
                q.cancel(id);
            }
        }
        // Tombstoned heap entries are dropped: only live events carry
        // payload bytes (the slab shape itself is a few words/slot).
        let live_events = q.len();
        let full = q.snapshot();
        let restored: EventQueue<P> = EventQueue::restore(&full, ()).unwrap();
        assert_eq!(restored.len(), live_events);
        let again = restored.snapshot();
        assert_eq!(full, again, "snapshot of a restore is byte-identical");
    }

    #[test]
    fn restore_rejects_malformed_counters() {
        let q = {
            let mut q = EventQueue::new();
            q.schedule(1, 0, P(1));
            q
        };
        let bytes = q.snapshot();
        // Rewrite the container with next_seq zeroed: the live event's
        // seq now fails the seq < next_seq bound.
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let payload = reader.section("events").unwrap();
        let mut forged = payload.to_vec();
        forged[..8].fill(0);
        let mut w = SnapshotWriter::new();
        w.section("events", forged);
        match EventQueue::<P>::restore(&w.finish(), ()) {
            Err(SnapshotError::Malformed(_)) => {}
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("forged counters restored"),
        }
    }

    #[test]
    fn restore_rejects_free_live_overlap() {
        let mut q = EventQueue::new();
        let a = q.schedule(1, 0, P(1));
        q.schedule(2, 0, P(2));
        q.cancel(a);
        let bytes = q.snapshot();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let payload = reader.section("events").unwrap();
        // Layout: next_seq u64, slot_count u64, generations (2 × u32),
        // free_len u64, free[0] u32, ... Patch free[0] from the freed
        // slot 0 to the *live* slot 1.
        let mut forged = payload.to_vec();
        let free0_at = 8 + 8 + 2 * 4 + 8;
        assert_eq!(&forged[free0_at..free0_at + 4], &0u32.to_le_bytes());
        forged[free0_at..free0_at + 4].copy_from_slice(&1u32.to_le_bytes());
        let mut w = SnapshotWriter::new();
        w.section("events", forged);
        match EventQueue::<P>::restore(&w.finish(), ()) {
            Err(SnapshotError::Malformed(_)) => {}
            Err(other) => panic!("expected Malformed, got {other}"),
            Ok(_) => panic!("free/live overlap restored"),
        }
    }

    #[test]
    fn ids_are_unique_across_the_queue_lifetime() {
        let mut q = EventQueue::new();
        let mut ids = std::collections::HashSet::new();
        for i in 0..100u64 {
            assert!(ids.insert(q.schedule(i % 7, 0, ())));
        }
        while q.pop().is_some() {}
        for i in 0..100u64 {
            assert!(ids.insert(q.schedule(i % 5, 0, ())));
        }
    }
}
