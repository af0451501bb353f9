//! Fixture: both pragma placements — standalone line covering the
//! next line, and trailing comment covering its own line.

pub fn first(xs: &[u64]) -> u32 {
    // digg-lint: allow(no-truncating-cast) — fixture: values are bounded by the u32 population
    xs[0] as u32
}

pub fn to_id(i: usize) -> u32 {
    i as u32 // digg-lint: allow(no-truncating-cast) — fixture: index bounded by u32 population
}
