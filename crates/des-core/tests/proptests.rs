//! Property tests for the event queue's ordering contract: pops are
//! nondecreasing in `(time, class)` with FIFO-stable ordering among
//! equal keys, and cancel/reschedule never lose or duplicate events —
//! near the start of the calendar ring and at each of its edges.

mod common;

use common::{Clock, Op, ADVANCE};
use des_core::queue::RING_WIDTH;
use des_core::{EventId, EventQueue};
use proptest::prelude::*;

/// Drain-only property: scheduling a batch and draining it is exactly
/// a stable sort by `(time, class)`.
fn drain_matches_stable_sort(events: Vec<(u64, u8)>) -> Result<(), String> {
    let mut q = EventQueue::new();
    for (i, &(time, class)) in events.iter().enumerate() {
        q.schedule(time, class, i);
    }
    prop_assert_eq!(q.len(), events.len());

    let mut expected: Vec<(u64, u8, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, &(t, c))| (t, c, i))
        .collect();
    expected.sort_by_key(|&(t, c, _)| (t, c)); // stable: ties keep insertion order

    let mut got = Vec::new();
    while let Some(e) = q.pop() {
        prop_assert_eq!(q.peek_time().is_none(), q.is_empty());
        got.push((e.time, e.class, e.payload));
    }
    prop_assert_eq!(got, expected);
    Ok(())
}

/// Reference model: a plain vector of live events, popped by scanning
/// for the minimum `(time, class, seq)` key.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u8, u64, EventId, usize)>, // (time, class, seq, id, payload)
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, time: u64, class: u8, id: EventId, payload: usize) {
        self.live.push((time, class, self.next_seq, id, payload));
        self.next_seq += 1;
    }

    fn remove(&mut self, id: EventId) -> Option<(u64, u8, u64, EventId, usize)> {
        let at = self.live.iter().position(|e| e.3 == id)?;
        Some(self.live.remove(at))
    }

    fn peek_time(&self) -> Option<u64> {
        self.live.iter().map(|e| e.0).min()
    }

    fn pop(&mut self) -> Option<(u64, u8, EventId, usize)> {
        let at = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, c, s, ..))| (t, c, s))
            .map(|(i, _)| i)?;
        let (t, c, _, id, p) = self.live.remove(at);
        Some((t, c, id, p))
    }
}

/// Model-based property: under arbitrary interleavings of schedule,
/// cancel, reschedule, and pop, the queue agrees with the model on
/// every observable — so no event is ever lost or fired twice. Returns
/// the clock after the last op.
fn queue_matches_model(ops: Vec<Op>) -> Result<Clock, String> {
    let mut q = EventQueue::new();
    let mut model = Model::default();
    let mut handles: Vec<EventId> = Vec::new(); // every id ever issued
    let mut payload = 0usize;
    let mut clock = Clock::default();

    for op in ops {
        match op {
            Op::Schedule { when, class } => {
                let time = when.resolve(clock);
                let id = q.schedule(time, class, payload);
                model.schedule(time, class, id, payload);
                handles.push(id);
                payload += 1;
            }
            Op::Cancel { pick } => {
                if handles.is_empty() {
                    continue;
                }
                let id = handles[pick % handles.len()];
                let expected = model.remove(id);
                prop_assert_eq!(q.cancel(id), expected.map(|e| e.4));
            }
            Op::Reschedule { pick, when, class } => {
                if handles.is_empty() {
                    continue;
                }
                let id = handles[pick % handles.len()];
                let time = when.resolve(clock);
                match model.remove(id) {
                    Some((.., p)) => {
                        prop_assert!(q.reschedule(id, time, class));
                        model.schedule(time, class, id, p);
                    }
                    None => prop_assert!(!q.reschedule(id, time, class)),
                }
            }
            Op::Pop => {
                let got = q.pop().map(|e| (e.time, e.class, e.id, e.payload));
                prop_assert_eq!(got, model.pop());
                if let Some((time, ..)) = got {
                    clock.popped(time);
                }
            }
            Op::Advance => {
                let time = clock.high + ADVANCE;
                let marker = q.schedule(time, u8::MAX, payload);
                model.schedule(time, u8::MAX, marker, payload);
                handles.push(marker);
                payload += 1;
                loop {
                    let got = q.pop().map(|e| (e.time, e.class, e.id, e.payload));
                    prop_assert_eq!(got, model.pop());
                    let Some((time, _, id, _)) = got else {
                        return Err("the advance marker never popped".into());
                    };
                    clock.popped(time);
                    if id == marker {
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), model.live.len());
        prop_assert_eq!(q.peek_time(), model.peek_time());
    }

    // Drain what's left: everything scheduled and not cancelled/fired
    // comes out exactly once, in model order.
    loop {
        let got = q.pop().map(|e| (e.time, e.class, e.id, e.payload));
        let want = model.pop();
        prop_assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    Ok(clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_are_a_stable_sort_by_time_and_class(
        events in prop::collection::vec((0..16u64, 0..3u8), 0..120)
    ) {
        drain_matches_stable_sort(events)?;
    }

    #[test]
    fn cancel_and_reschedule_never_lose_or_duplicate(
        ops in prop::collection::vec(common::op_strategy(), 0..200)
    ) {
        queue_matches_model(ops)?;
    }

    #[test]
    fn pops_are_a_stable_sort_across_the_ring_and_every_class(
        events in prop::collection::vec((0..3 * RING_WIDTH, any::<u8>()), 0..200)
    ) {
        drain_matches_stable_sort(events)?;
    }

    /// Times wrapping the ring, straddling its far edge, past it, and
    /// before the last popped time, in every class.
    #[test]
    fn the_ring_edges_agree_with_the_model(
        ops in prop::collection::vec(common::edge_op_strategy(), 0..300)
    ) {
        queue_matches_model(ops)?;
    }

    #[test]
    fn a_marching_clock_wraps_the_ring_and_agrees_with_the_model(
        ops in common::marching_strategy()
    ) {
        let clock = queue_matches_model(ops)?;
        prop_assert!(clock.high > 2 * RING_WIDTH, "clock stopped at {}", clock.high);
    }

    #[test]
    fn inserts_into_the_bucket_being_drained_agree_with_the_model(
        ops in prop::collection::vec(common::drained_bucket_op_strategy(), 0..300)
    ) {
        queue_matches_model(ops)?;
    }
}

// ---------------------------------------------------------------- par

// Panic-isolation contract of the fallible fan-out layer: with no
// fault, `try_par_map` is bit-identical to `par_map` at every thread
// count `DIGG_THREADS` would select; with a deliberately poisoned
// item, the panic surfaces as a `WorkerPanic` naming a shard that
// actually contains the item, at every thread count.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn try_par_map_bit_identical_to_par_map_without_faults(
        items in prop::collection::vec(any::<u32>(), 0..150)
    ) {
        let f = |x: &u32| u64::from(*x).wrapping_mul(0x9E37_79B9) ^ 0xA5;
        let serial = des_core::par_map(&items, 1, f);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(des_core::par_map(&items, threads, f), serial.clone());
            prop_assert_eq!(
                des_core::try_par_map(&items, threads, f),
                Ok(serial.clone())
            );
        }
    }

    #[test]
    fn try_par_map_surfaces_deliberate_panic_as_worker_panic(
        n in 1usize..120,
        poison_seed in any::<usize>(),
    ) {
        let items: Vec<usize> = (0..n).collect();
        let poison = poison_seed % n;
        for threads in [1usize, 2, 8] {
            let err = des_core::try_par_map(&items, threads, |&x| {
                if x == poison {
                    panic!("deliberate worker panic on {x}");
                }
                x * 2
            })
            .unwrap_err();
            prop_assert_eq!(err.failed.len(), 1);
            let shard = &err.failed[0];
            prop_assert!(
                (shard.start..shard.start + shard.len).contains(&poison),
                "shard {}..{} does not contain poisoned item {}",
                shard.start, shard.start + shard.len, poison
            );
            prop_assert!(shard.message.contains("deliberate worker panic"));
        }
    }
}
