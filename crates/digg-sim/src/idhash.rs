//! A fast, deterministic hash for user-id membership.
//!
//! The simulator's per-vote work is membership tests on `UserId`s,
//! above all "has this user voted on the story?" (`Story::voter_pos`;
//! "was this fan already offered the story?" is a per-story bitset in
//! the engine). The default SipHash is built to resist
//! adversarial keys, which dense simulator ids are not, and it cost
//! most of the simulator's run time. [`IdHasher`] is one
//! multiplication per id. It has no random state, so the maps it backs
//! behave the same on every run (they are still never iterated into
//! output unsorted). Users spell the full `HashMap<UserId, _,
//! IdBuildHasher>` type, so `digg-lint`'s unordered-container rules
//! still see it.

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, the Fibonacci-hashing multiplier: an odd constant whose
/// product spreads consecutive ids across the high bits.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for `u32` ids (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(PHI);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s; no per-map random state.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::UserId;
    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn hashing_is_deterministic_and_separates_ids() {
        let build = IdBuildHasher::default();
        let h = |u: u32| build.hash_one(UserId(u));
        assert_eq!(h(7), IdBuildHasher::default().hash_one(UserId(7)));
        let mut seen: Vec<u64> = (0..10_000).map(h).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000, "distinct ids collided");
        // A UserId hashes exactly as its raw u32 does.
        let mut raw = IdHasher::default();
        7u32.hash(&mut raw);
        assert_eq!(raw.finish(), h(7));
    }

    #[test]
    fn sets_and_maps_behave_like_the_std_defaults() {
        let mut s: HashSet<UserId, IdBuildHasher> = HashSet::default();
        assert!(s.insert(UserId(3)));
        assert!(!s.insert(UserId(3)));
        assert!(s.contains(&UserId(3)) && !s.contains(&UserId(4)));
        let mut m: HashMap<UserId, usize, IdBuildHasher> = HashMap::default();
        m.insert(UserId(9), 2);
        assert_eq!(m.get(&UserId(9)), Some(&2));
    }
}
