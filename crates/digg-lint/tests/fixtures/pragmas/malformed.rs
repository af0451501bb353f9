//! Fixture: unparseable pragmas are never silently ignored.

pub fn a(i: usize) -> u32 {
    // digg-lint: allow(no-such-rule) — unknown rule id
    i as u32
}

pub fn b(i: usize) -> u32 {
    // digg-lint: allow(no-truncating-cast)
    i as u32
}

pub fn c(xs: &[usize]) -> u32 {
    // digg-lint: allow(no-truncating-cast) — covers only the next line, not two down
    let n = xs.len();
    xs[n - 1] as u32
}
