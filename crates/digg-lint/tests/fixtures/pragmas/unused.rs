//! Fixture: a pragma that suppresses nothing must itself be flagged.

pub fn fine(i: usize) -> u64 {
    // digg-lint: allow(no-truncating-cast) — stale: this line no longer narrows
    i as u64
}
