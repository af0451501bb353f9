//! The Friends-interface exposure process.
//!
//! When a user submits or votes on a story, the story appears in the
//! Friends interface of every fan of that user for the next 48 hours
//! ("see the stories your friends submitted / dugg", §4.1). Fans check
//! the interface at rates proportional to their activity, so each fan
//! is exposed with some probability and after some delay.
//!
//! We model this as a scheduled-exposure process: each vote enqueues,
//! for each fan of the voter, a potential exposure at a future minute.
//! The engine drains due exposures every tick; an exposure converts to
//! a vote with a probability that mixes a community-affinity base rate
//! and the story's intrinsic quality.
//!
//! A fan exposed to the same story through several friends keeps only
//! the earliest exposure (the interface shows the story once).

use crate::story::StoryId;
use crate::time::Minute;
use social_graph::UserId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// One pending exposure: `fan` will notice `story` at `due`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exposure {
    /// When the fan checks the interface.
    pub due: Minute,
    /// The fan being exposed.
    pub fan: UserId,
    /// The story they will see.
    pub story: StoryId,
    /// The vote that triggered the entry (for feed-lifetime checks).
    pub triggered_at: Minute,
    /// Whether the entry came from the friend *submitting* the story
    /// (as opposed to digging someone else's). Fans vote on their
    /// friends' own submissions at a much higher rate.
    pub from_submitter: bool,
}

/// Heap entry: `(due, sequence, fan, story, triggered_at,
/// from_submitter)`; `Reverse` turns the max-heap into a min-heap on
/// `(due, sequence)`.
type HeapEntry = Reverse<(Minute, u64, UserId, StoryId, Minute, bool)>;

/// Priority queue of pending exposures, drained in time order.
///
/// Determinism: ties on `due` are broken by insertion sequence, so a
/// run is reproducible from the RNG seed alone.
#[derive(Debug, Default)]
pub struct ExposureQueue {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
    /// `(fan, story)` pairs ever scheduled, to collapse duplicate
    /// entries from multiple friends.
    scheduled: HashSet<(UserId, StoryId)>,
}

impl ExposureQueue {
    /// Empty queue.
    pub fn new() -> ExposureQueue {
        ExposureQueue::default()
    }

    /// Number of pending exposures.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no exposures are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule an exposure unless this fan already has (or had) an
    /// entry for this story. Returns whether it was scheduled.
    pub fn enqueue(
        &mut self,
        fan: UserId,
        story: StoryId,
        due: Minute,
        triggered_at: Minute,
        from_submitter: bool,
    ) -> bool {
        if !self.scheduled.insert((fan, story)) {
            return false;
        }
        self.seq += 1;
        self.heap.push(Reverse((
            due,
            self.seq,
            fan,
            story,
            triggered_at,
            from_submitter,
        )));
        true
    }

    /// Pop all exposures due at or before `now`, in time order.
    pub fn drain_due(&mut self, now: Minute) -> Vec<Exposure> {
        let mut out = Vec::new();
        while let Some(&Reverse((due, _, fan, story, triggered_at, from_submitter))) =
            self.heap.peek()
        {
            if due > now {
                break;
            }
            self.heap.pop();
            out.push(Exposure {
                due,
                fan,
                story,
                triggered_at,
                from_submitter,
            });
        }
        out
    }

    /// Has this `(fan, story)` pair ever been scheduled?
    pub fn was_scheduled(&self, fan: UserId, story: StoryId) -> bool {
        self.scheduled.contains(&(fan, story))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut q = ExposureQueue::new();
        q.enqueue(UserId(1), StoryId(0), Minute(10), Minute(5), false);
        q.enqueue(UserId(2), StoryId(0), Minute(3), Minute(1), false);
        q.enqueue(UserId(3), StoryId(1), Minute(7), Minute(2), false);
        assert_eq!(q.len(), 3);
        let due = q.drain_due(Minute(7));
        let fans: Vec<UserId> = due.iter().map(|e| e.fan).collect();
        assert_eq!(fans, vec![UserId(2), UserId(3)]);
        assert_eq!(q.len(), 1);
        let rest = q.drain_due(Minute(100));
        assert_eq!(rest[0].fan, UserId(1));
        assert!(q.is_empty());
    }

    #[test]
    fn duplicate_fan_story_pairs_collapse() {
        let mut q = ExposureQueue::new();
        assert!(q.enqueue(UserId(1), StoryId(0), Minute(10), Minute(5), false));
        assert!(!q.enqueue(UserId(1), StoryId(0), Minute(20), Minute(6), false));
        assert!(q.enqueue(UserId(1), StoryId(1), Minute(20), Minute(6), false));
        assert_eq!(q.len(), 2);
        assert!(q.was_scheduled(UserId(1), StoryId(0)));
        assert!(!q.was_scheduled(UserId(2), StoryId(0)));
    }

    #[test]
    fn ties_drain_in_insertion_order() {
        let mut q = ExposureQueue::new();
        q.enqueue(UserId(5), StoryId(0), Minute(4), Minute(0), false);
        q.enqueue(UserId(6), StoryId(1), Minute(4), Minute(0), false);
        let due = q.drain_due(Minute(4));
        assert_eq!(due[0].fan, UserId(5));
        assert_eq!(due[1].fan, UserId(6));
    }

    #[test]
    fn nothing_due_before_time() {
        let mut q = ExposureQueue::new();
        q.enqueue(UserId(1), StoryId(0), Minute(10), Minute(5), false);
        assert!(q.drain_due(Minute(9)).is_empty());
        assert_eq!(q.len(), 1);
    }
}
