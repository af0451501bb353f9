//! Breadth-first traversal, reachability and components.
//!
//! The spread of interest in a story travels from a voter to that
//! voter's fans, i.e. along *reversed* watch edges. Traversals
//! therefore take a [`Direction`] so cascade-reachability questions
//! ("which users could ever learn of this story through the Friends
//! interface?") are expressed directly.

use crate::graph::SocialGraph;
use crate::id::UserId;
use std::collections::VecDeque;

/// Which adjacency to follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow watch edges: from a fan to the users it watches.
    Friends,
    /// Follow reversed watch edges: from a user to its fans. This is
    /// the direction story visibility propagates.
    Fans,
}

fn neighbours(g: &SocialGraph, u: UserId, dir: Direction) -> &[UserId] {
    match dir {
        Direction::Friends => g.friends(u),
        Direction::Fans => g.fans(u),
    }
}

/// BFS distances from `src` following `dir`; `None` for unreachable
/// users. Distance of `src` is 0.
pub fn bfs_distances(g: &SocialGraph, src: UserId, dir: Direction) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; g.user_count()];
    let mut q = VecDeque::new();
    dist[src.index()] = Some(0);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        #[expect(
            clippy::expect_used,
            reason = "BFS invariant: a node is enqueued only after its distance is set"
        )]
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in neighbours(g, u, dir) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Set of users reachable from any of `seeds` following `dir`, within
/// `max_hops` (use `u32::MAX` for unbounded). Seeds are included.
pub fn reachable_within(
    g: &SocialGraph,
    seeds: &[UserId],
    dir: Direction,
    max_hops: u32,
) -> Vec<UserId> {
    let mut seen = vec![false; g.user_count()];
    let mut q = VecDeque::new();
    for &s in seeds {
        if !seen[s.index()] {
            seen[s.index()] = true;
            q.push_back((s, 0u32));
        }
    }
    let mut out: Vec<UserId> = Vec::new();
    while let Some((u, d)) = q.pop_front() {
        out.push(u);
        if d == max_hops {
            continue;
        }
        for &v in neighbours(g, u, dir) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                q.push_back((v, d + 1));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Weakly connected components (ignoring edge direction). Returns a
/// component id per user; ids are dense starting at 0 in order of
/// discovery.
pub fn weak_components(g: &SocialGraph) -> Vec<u32> {
    let n = g.user_count();
    let mut comp: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut q = VecDeque::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        q.push_back(UserId::from_index(start));
        while let Some(u) = q.pop_front() {
            for &v in g.friends(u).iter().chain(g.fans(u)) {
                if comp[v.index()] == u32::MAX {
                    comp[v.index()] = next;
                    q.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Number of weakly connected components.
pub fn weak_component_count(g: &SocialGraph) -> usize {
    weak_components(g)
        .into_iter()
        .max()
        .map(|m| m as usize + 1)
        .unwrap_or(0)
}

/// Size of the largest weakly connected component (0 for empty graph).
pub fn largest_component_size(g: &SocialGraph) -> usize {
    let comp = weak_components(g);
    let Some(max_label) = comp.iter().copied().max() else {
        return 0;
    };
    let mut sizes = vec![0usize; max_label as usize + 1];
    for c in comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// 0 -> 1 -> 2, and isolated 3.
    fn chain() -> SocialGraph {
        let mut b = GraphBuilder::new(4);
        b.add_watch(UserId(0), UserId(1));
        b.add_watch(UserId(1), UserId(2));
        b.build()
    }

    #[test]
    fn bfs_follows_direction() {
        let g = chain();
        let d = bfs_distances(&g, UserId(0), Direction::Friends);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
        // Fans direction: 2's fans are {1}, 1's fans are {0}.
        let d = bfs_distances(&g, UserId(2), Direction::Fans);
        assert_eq!(d, vec![Some(2), Some(1), Some(0), None]);
    }

    #[test]
    fn reachable_with_hop_limit() {
        let g = chain();
        let r = reachable_within(&g, &[UserId(0)], Direction::Friends, 1);
        assert_eq!(r, vec![UserId(0), UserId(1)]);
        let r = reachable_within(&g, &[UserId(0)], Direction::Friends, u32::MAX);
        assert_eq!(r, vec![UserId(0), UserId(1), UserId(2)]);
    }

    #[test]
    fn reachable_multi_seed_dedups() {
        let g = chain();
        let r = reachable_within(&g, &[UserId(0), UserId(1)], Direction::Friends, 0);
        assert_eq!(r, vec![UserId(0), UserId(1)]);
    }

    #[test]
    fn components_ignore_direction() {
        let g = chain();
        let c = weak_components(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_ne!(c[0], c[3]);
        assert_eq!(weak_component_count(&g), 2);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn empty_graph_components() {
        let g = SocialGraph::empty(0);
        assert_eq!(weak_component_count(&g), 0);
        assert_eq!(largest_component_size(&g), 0);
    }
}
