//! Compact user identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A user in a [`SocialGraph`](crate::SocialGraph), a dense index in
/// `0..graph.user_count()`.
///
/// Stored as `u32`: the complete June-2006 dataset involves ~17k users
/// and even aggressive synthetic populations stay far below 4 billion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
// repr(transparent) makes a `[u32]` and a `[UserId]` layout-identical,
// which is what lets the mmap-backed `GraphMap` serve its on-disk u32
// target arrays as typed id slices without copying.
#[repr(transparent)]
pub struct UserId(pub u32);

impl UserId {
    /// The dense index as `usize` for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds `u32::MAX` (a programmer error: the
    /// workspace never builds populations that large).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "the single checked index→id conversion point the cast rule routes callers to"
    )]
    pub fn from_index(i: usize) -> UserId {
        UserId(u32::try_from(i).expect("user index exceeds u32 range"))
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> UserId {
        UserId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let u = UserId::from_index(42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId(42));
        assert_eq!(UserId::from(7u32), UserId(7));
    }

    #[test]
    fn display_format() {
        assert_eq!(UserId(3).to_string(), "u3");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(UserId(1) < UserId(2));
    }
}
