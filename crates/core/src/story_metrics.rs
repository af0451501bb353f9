//! The single-pass story-analytics engine.
//!
//! Every artifact in the paper reduces to one primitive: walk a
//! story's chronological voter list and track (a) which votes are
//! *in-network* — the voter was already reachable through the Friends
//! interface — and (b) the *influence*, the number of users who can
//! currently see the story through that interface. [`StorySweeper`]
//! computes both, plus the cumulative cascade and everything the
//! `(v_n, fans1)` feature vector needs, in **one pass costing O(total
//! fan degree of the voters)** with zero per-story allocation (scratch
//! is epoch-stamped and reused).
//!
//! The identities that make one pass sufficient, with `reached` = the
//! union of the fans of voters so far and `voted` = the voters so far:
//!
//! * vote `k` (k ≥ 1) is in-network  ⇔  `voters[k] ∈ reached` just
//!   before it is processed (being a fan of a prior voter *is* being
//!   in that union);
//! * influence after `k + 1` voters = `|reached \ voted|`, which a
//!   counter maintains incrementally: `+1` for each newly reached
//!   non-voter, `-1` when a reached user votes.
//!
//! [`crate::cascade`], [`crate::influence`], [`crate::spread`] and
//! [`crate::features`] are thin views over this engine; experiments
//! hold one [`StorySweeper`] per worker thread and stream stories
//! through it.

use crate::incremental::IncrementalSweep;
use social_graph::{FanView, UserId};

/// Reusable sweep engine. Construct once per thread (scratch size is
/// the graph's user count) and call [`StorySweeper::sweep`] per story.
///
/// A thin replay over [`IncrementalSweep`]: a sweep is `begin` plus
/// one `apply_vote` per voter, so the batch and per-vote paths share
/// one implementation and cannot drift — the outputs are structurally
/// identical, not merely tested equal.
#[derive(Debug, Clone)]
pub struct StorySweeper {
    incr: IncrementalSweep,
}

/// The per-story result of one sweep. Borrowed from the sweeper; copy
/// out what must outlive the next call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorySweep {
    pub(crate) flags: Vec<bool>,
    /// Structure-of-arrays columns: `u32` per entry, half the memory
    /// traffic of `usize` on the per-vote push path (values are
    /// bounded by the u32 user count / vote count).
    pub(crate) cascade: Vec<u32>,
    pub(crate) influence: Vec<u32>,
}

impl StorySweeper {
    /// A sweeper sized for `graph`.
    pub fn new<G: FanView>(graph: &G) -> StorySweeper {
        StorySweeper::for_users(graph.user_count())
    }

    /// A sweeper covering users `0..n`.
    pub fn for_users(n: usize) -> StorySweeper {
        StorySweeper {
            incr: IncrementalSweep::for_users(n),
        }
    }

    /// Sweep one story's chronological voter list (submitter first).
    /// O(Σ fan-degree of voters); no allocation once the output
    /// vectors have grown to the story size.
    pub fn sweep<G: FanView>(&mut self, graph: &G, voters: &[UserId]) -> &StorySweep {
        self.incr.begin(graph);
        self.incr.reserve_votes(voters.len());
        for &v in voters {
            self.incr.apply_vote(graph, v);
        }
        self.incr.sweep()
    }
}

impl StorySweep {
    /// Per post-submitter vote, whether it was in-network; aligned
    /// with `voters[1..]` (the layout of
    /// [`crate::cascade::in_network_flags`]).
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// Cumulative in-network counts; entry `k` is the cascade size
    /// after `k + 1` post-submitter votes. `u32` entries — the SoA
    /// column layout; widen at the consumer when a `usize` is needed.
    pub fn cascade(&self) -> &[u32] {
        &self.cascade
    }

    /// Influence after each voter; entry `k` is the Friends-interface
    /// audience after `k + 1` voters (submitter included). `u32`
    /// entries, as [`StorySweep::cascade`].
    pub fn influence(&self) -> &[u32] {
        &self.influence
    }

    /// Number of post-submitter votes swept.
    pub fn post_submitter_votes(&self) -> usize {
        self.flags.len()
    }

    /// The paper's `v_n`: in-network votes among the first `n`
    /// post-submitter votes (all of them if the story is shorter).
    pub fn in_network_count_within(&self, n: usize) -> usize {
        match n.min(self.cascade.len()) {
            0 => 0,
            m => self.cascade[m - 1] as usize,
        }
    }

    /// Influence after the first `k` voters, `k` clamped to the list
    /// length; 0 when `k == 0` or the story has no voters.
    pub fn influence_after(&self, k: usize) -> usize {
        match k.min(self.influence.len()) {
            0 => 0,
            m => self.influence[m - 1] as usize,
        }
    }

    /// Final cascade size (all post-submitter votes).
    pub fn final_cascade(&self) -> usize {
        self.cascade.last().copied().unwrap_or(0) as usize
    }
}

// The deterministic fan-out primitives (`worker_threads`, `chunk_size`,
// `par_map`, `par_fold`, and the fallible `try_par_map`/`try_par_join`
// layer) moved to `des-core::par` so the scenario-sweep runner in
// `digg-sim` can share them; re-exported here so every existing
// `digg_core::{par_map, worker_threads, …}` path keeps working.
// `DIGG_THREADS` is parsed in exactly one place: des-core.
pub use des_core::par::{
    chunk_size, panic_message, par_fold, par_join, par_map, try_par_join, try_par_map,
    try_par_map_with, worker_threads, PanicShard, WorkerPanic,
};

/// Fallible [`sweep_map`]: identical chunking, per-thread sweepers and
/// output order, but a panic inside a worker is caught per shard —
/// every other shard still runs to completion and the failures come
/// back aggregated as one [`WorkerPanic`] naming each failed shard's
/// item range. With no panic the result is bit-identical to
/// [`sweep_map`] at any thread count.
///
/// This is [`try_par_map_with`] with a per-worker [`StorySweeper`]:
/// the sweeper is epoch-stamped scratch, so reusing it across a
/// shard's stories cannot leak state between items — the precondition
/// that keeps `try_par_map_with` thread-count invariant.
pub fn try_sweep_map<G, T, R, F>(
    graph: &G,
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    G: FanView + Sync,
    T: Sync,
    R: Send,
    F: Fn(&mut StorySweeper, &T) -> R + Sync,
{
    try_par_map_with(items, threads, || StorySweeper::new(graph), f)
}

/// [`par_map`] handing each worker thread its own [`StorySweeper`]
/// sized for `graph` — the batch path for per-story analytics: one
/// voter walk per story, one scratch buffer per thread, zero per-story
/// allocation.
///
/// Layered on [`try_sweep_map`]: a worker panic (a bug in `f`) is
/// re-raised here with the aggregated shard report.
pub fn sweep_map<G, T, R, F>(graph: &G, items: &[T], threads: usize, f: F) -> Vec<R>
where
    G: FanView + Sync,
    T: Sync,
    R: Send,
    F: Fn(&mut StorySweeper, &T) -> R + Sync,
{
    match try_sweep_map(graph, items, threads, f) {
        Ok(out) => out,
        #[expect(
            clippy::panic,
            reason = "infallible-layer contract: re-raise the aggregated WorkerPanic for fail-fast callers"
        )]
        Err(e) => panic!("worker thread panicked: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::{GraphBuilder, SocialGraph};

    /// Fans: 0 <- {1, 2, 3}; 4 <- {5, 6}; 1 <- {2}.
    fn graph() -> SocialGraph {
        let mut b = GraphBuilder::new(7);
        for f in [1, 2, 3] {
            b.add_watch(UserId(f), UserId(0));
        }
        for f in [5, 6] {
            b.add_watch(UserId(f), UserId(4));
        }
        b.add_watch(UserId(2), UserId(1));
        b.build()
    }

    #[test]
    fn sweep_produces_all_three_series() {
        let g = graph();
        let mut sweeper = StorySweeper::new(&g);
        // Submitter 0; fan 1 votes (in-network, audience shrinks),
        // then the unconnected 4 (out-of-network, brings fans 5, 6).
        let s = sweeper.sweep(&g, &[UserId(0), UserId(1), UserId(4)]);
        assert_eq!(s.flags(), &[true, false]);
        assert_eq!(s.cascade(), &[1, 1]);
        assert_eq!(s.influence(), &[3, 2, 4]);
        assert_eq!(s.post_submitter_votes(), 2);
        assert_eq!(s.final_cascade(), 1);
    }

    #[test]
    fn window_and_clamp_helpers() {
        let g = graph();
        let mut sweeper = StorySweeper::new(&g);
        let s = sweeper.sweep(&g, &[UserId(0), UserId(1), UserId(4), UserId(2)]);
        assert_eq!(s.in_network_count_within(0), 0);
        assert_eq!(s.in_network_count_within(1), 1);
        assert_eq!(s.in_network_count_within(3), 2);
        assert_eq!(s.in_network_count_within(99), 2);
        assert_eq!(s.influence_after(0), 0);
        assert_eq!(s.influence_after(1), 3);
        assert_eq!(s.influence_after(99), s.influence()[3] as usize);
    }

    #[test]
    fn sweeper_reuse_is_clean_across_stories() {
        let g = graph();
        let mut sweeper = StorySweeper::new(&g);
        let first = sweeper.sweep(&g, &[UserId(0), UserId(1)]).clone();
        // A completely different story must not see stale epochs.
        let second = sweeper.sweep(&g, &[UserId(4), UserId(5)]).clone();
        assert_eq!(second.flags(), &[true]);
        assert_eq!(second.influence(), &[2, 1]);
        // And re-sweeping the first story reproduces it exactly.
        assert_eq!(sweeper.sweep(&g, &[UserId(0), UserId(1)]), &first);
    }

    #[test]
    fn empty_and_singleton_stories() {
        let g = graph();
        let mut sweeper = StorySweeper::new(&g);
        let s = sweeper.sweep(&g, &[]);
        assert!(s.flags().is_empty());
        assert!(s.influence().is_empty());
        assert_eq!(s.influence_after(5), 0);
        let s = sweeper.sweep(&g, &[UserId(0)]);
        assert_eq!(s.influence(), &[3]);
        assert!(s.flags().is_empty());
    }

    #[test]
    fn duplicate_voters_do_not_double_count() {
        let g = graph();
        let mut sweeper = StorySweeper::new(&g);
        let s = sweeper.sweep(&g, &[UserId(0), UserId(1), UserId(1)]);
        // Second vote by 1 is still "in-network" (1 is a fan of a
        // prior voter) but audience no longer changes.
        assert_eq!(s.flags(), &[true, true]);
        assert_eq!(s.influence(), &[3, 2, 2]);
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map(&items, 1, |&x| x * x + 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |&x| x * x + 1), serial);
        }
        assert!(par_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn sweep_map_matches_serial_sweeps() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = vec![
            vec![UserId(0), UserId(1), UserId(4)],
            vec![UserId(4), UserId(5)],
            vec![UserId(0)],
            vec![],
            vec![UserId(2), UserId(0), UserId(1), UserId(3)],
        ];
        let mut sweeper = StorySweeper::new(&g);
        let serial: Vec<StorySweep> = stories
            .iter()
            .map(|v| sweeper.sweep(&g, v).clone())
            .collect();
        for threads in [1, 2, 8] {
            let par = sweep_map(&g, &stories, threads, |sw, v| sw.sweep(&g, v).clone());
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn try_sweep_map_is_bit_identical_without_panics() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = (0..11)
            .map(|i| vec![UserId(i % 7), UserId((i + 1) % 7)])
            .collect();
        let serial = sweep_map(&g, &stories, 1, |sw, v| sw.sweep(&g, v).clone());
        for threads in [1, 2, 8] {
            let fallible = try_sweep_map(&g, &stories, threads, |sw, v| sw.sweep(&g, v).clone());
            assert_eq!(fallible.as_ref().ok(), Some(&serial), "threads={threads}");
        }
    }

    #[test]
    fn try_sweep_map_isolates_a_poisoned_story() {
        let g = graph();
        let stories: Vec<Vec<UserId>> = (0..24)
            .map(|i| vec![UserId(i % 7), UserId((i + 1) % 7)])
            .collect();
        for threads in [1, 2, 8] {
            let err = try_sweep_map(&g, &stories, threads, |sw, v| {
                if v[0] == UserId(5) && v[1] == UserId(6) {
                    panic!("poisoned story");
                }
                sw.sweep(&g, v).clone()
            })
            .unwrap_err();
            assert!(!err.failed.is_empty());
            assert!(err.to_string().contains("poisoned story"));
            // Item 5 (and 12, 19) are the poisoned ones; every failed
            // shard must actually contain one of them.
            for s in &err.failed {
                assert!((s.start..s.start + s.len).any(|i| i % 7 == 5));
            }
        }
    }

    #[test]
    fn par_fold_merges_in_chunk_order() {
        let items: Vec<u32> = (0..57).collect();
        let serial: Vec<u32> = items.clone();
        for threads in [1, 2, 5, 16] {
            let folded = par_fold(
                &items,
                threads,
                Vec::new,
                |acc: &mut Vec<u32>, &x| acc.push(x),
                |acc, part| acc.extend(part),
            );
            assert_eq!(folded, serial, "threads={threads}");
        }
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }
}
