//! Queue operation scripts shared by the ordering and the checkpoint
//! property tests: the op mix, the times it schedules at, and the
//! strategies that reach the calendar ring's edges.

use des_core::queue::RING_WIDTH;
use proptest::prelude::*;

/// When a scheduled event is due. The relative forms are resolved
/// against the queue's clock at the moment the op runs.
#[derive(Clone, Copy, Debug)]
pub enum When {
    At(u64),
    /// `d` after the last popped time; `AfterLast(0)` lands in the
    /// bucket being drained.
    AfterLast(u64),
    /// `d` before the last popped time, saturating at zero.
    BeforeLast(u64),
}

impl When {
    pub fn resolve(self, clock: Clock) -> u64 {
        match self {
            When::At(t) => t,
            When::AfterLast(d) => clock.last + d,
            When::BeforeLast(d) => clock.last.saturating_sub(d),
        }
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Schedule {
        when: When,
        class: u8,
    },
    Cancel {
        pick: usize,
    },
    Reschedule {
        pick: usize,
        when: When,
        class: u8,
    },
    Pop,
    /// Schedule a marker at class `u8::MAX`, [`ADVANCE`] past the
    /// latest popped time, and pop up to and including it, so the
    /// clock moves forward at least that far.
    Advance,
}

/// How far one [`Op::Advance`] moves the clock: over half the ring,
/// so a few of them wrap it.
pub const ADVANCE: u64 = RING_WIDTH / 2 + 1;

/// The times popped so far: the last one, and the latest one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Clock {
    pub last: u64,
    pub high: u64,
}

impl Clock {
    pub fn popped(&mut self, time: u64) {
        self.last = time;
        self.high = self.high.max(time);
    }
}

/// Weighted op mix without `prop_oneof!` (the vendored proptest has no
/// such macro): a selector in 0..7 picks schedule (3/7), cancel (1/7),
/// reschedule (1/7), or pop (2/7).
fn mix(sel: u8, pick: usize, when: When, class: u8) -> Op {
    match sel {
        0..=2 => Op::Schedule { when, class },
        3 => Op::Cancel { pick },
        4 => Op::Reschedule { pick, when, class },
        _ => Op::Pop,
    }
}

/// Small absolute times and classes: dense ties, every bucket near
/// the start of the ring.
pub fn op_strategy() -> impl Strategy<Value = Op> {
    (0..7u8, any::<usize>(), 0..64u64, 0..4u8)
        .prop_map(|(sel, pick, time, class)| mix(sel, pick, When::At(time), class))
}

/// Times at every edge of the calendar ring: absolute times wrapping
/// it more than once, the bucket being drained, either side of the
/// far edge, well past it, and before the last popped time.
fn edge_when() -> impl Strategy<Value = When> {
    (0..6u8, 0..4 * RING_WIDTH).prop_map(|(kind, x)| match kind {
        0 => When::At(x),
        1 => When::AfterLast(0),
        2 => When::AfterLast(RING_WIDTH - 2 + x % 5),
        3 => When::AfterLast(RING_WIDTH + x),
        4 => When::BeforeLast(1 + x % (2 * RING_WIDTH)),
        _ => When::AfterLast(x % 16),
    })
}

/// The op mix over [`edge_when`] times and every class up to
/// `u8::MAX`, with an occasional [`Op::Advance`].
pub fn edge_op_strategy() -> impl Strategy<Value = Op> {
    (0..8u8, any::<usize>(), edge_when(), any::<u8>()).prop_map(|(sel, pick, when, class)| {
        if sel == 7 {
            Op::Advance
        } else {
            mix(sel, pick, when, class)
        }
    })
}

/// The op mix aimed at the bucket being drained: three in four
/// schedules and reschedules land at the last popped time, in any
/// class, so they must slot in among the entries still waiting there.
pub fn drained_bucket_op_strategy() -> impl Strategy<Value = Op> {
    (0..7u8, any::<usize>(), 0..4u8, any::<u8>()).prop_map(|(sel, pick, near, class)| {
        mix(sel, pick, When::AfterLast(u64::from(near == 0)), class)
    })
}

/// Rounds of [`edge_op_strategy`] ops, each closed by an
/// [`Op::Advance`]: at least five advances, so the clock passes two
/// ring widths.
pub fn marching_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(prop::collection::vec(edge_op_strategy(), 0..40), 5..8).prop_map(
        |rounds| {
            rounds
                .into_iter()
                .flat_map(|round| round.into_iter().chain([Op::Advance]))
                .collect()
        },
    )
}
