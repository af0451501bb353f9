//! # social-graph
//!
//! Directed social-graph substrate with Digg's friend/fan semantics.
//!
//! On Digg (paper §3): "The friendship relationship is asymmetric.
//! When user A lists user B as a friend, user A is able to watch the
//! activity of B but not vice versa. We call A the fan of B." In graph
//! terms we store a *watch* edge `A -> B`; then
//!
//! * the **friends** of `A` are the out-neighbours of `A`
//!   (users `A` watches), and
//! * the **fans** of `B` are the in-neighbours of `B`
//!   (users watching `B`).
//!
//! A story a user submits or votes on becomes visible to that user's
//! fans through the Friends interface, so information flows *against*
//! the watch edges: from `B` to its fans.
//!
//! Modules:
//!
//! * [`id`] — compact user identifiers.
//! * [`graph`] — immutable CSR [`SocialGraph`] with O(log d) edge
//!   queries and contiguous adjacency rows.
//! * [`builder`] — incremental construction and deduplication, with a
//!   serial finaliser ([`GraphBuilder::build`]) and a sharded parallel
//!   one ([`GraphBuilder::build_parallel`], bit-identical output; see
//!   the `par_build` module and DESIGN.md §11).
//! * [`bitset`] — [`FanBitset`], a word-packed user-set scratch with
//!   O(1) insert/test and O(1) epoch-bump clear (1 bit/user,
//!   `count_ones` popcount), keeping per-story sweep scratch
//!   cache-resident at millions of users.
//! * [`membership`] — the fan-membership kernel: binary-probe,
//!   two-pointer, galloping and bitset strategies over sorted CSR rows
//!   with measured crossover constants (DESIGN.md §16).
//! * [`probe`] — [`FanProbe`], the incremental fan-membership view
//!   over CSR rows that the per-vote analytics state machine in
//!   `digg-core` streams through (O(1) membership, O(fan-degree)
//!   absorb per vote).
//! * [`view`] — [`FanView`], the read-only adjacency trait that lets
//!   the sweep engines run unchanged over in-memory or mmap-backed
//!   graphs.
//! * [`mmap`] — [`GraphMap`], the versioned, checksummed, 64-byte-
//!   aligned on-disk CSR snapshot mapped read-only into memory (O(1)
//!   load, out-of-core sweeps; the crate's single `unsafe` module).
//! * [`traversal`] — BFS, reachability, weakly connected components.
//! * [`metrics`] — degree sequences, reciprocity, density, clustering.
//! * [`temporal`] — dated fan links and as-of-date snapshot
//!   reconstruction (the paper's Feb-2008 → June-2006 procedure).
//! * [`generators`] — Erdős–Rényi, preferential attachment,
//!   configuration-model and modular random graphs, plus sharded
//!   thread-count-invariant variants of ER and the configuration
//!   model on per-row `StreamRng` counter streams.
//! * [`sampling`] — observation models: snowball crawls and partial
//!   edge observation (scrape-fidelity ablations).
//! * [`io`] — edge-list serialization.

// `deny`, not `forbid`: the one memory-mapping module ([`mmap`])
// carries a scoped `#![expect(unsafe_code)]`; the workspace
// `unsafe_code = "deny"` lint keeps every other target safe Rust.
#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod generators;
pub mod graph;
pub mod id;
pub mod io;
pub mod membership;
pub mod metrics;
pub mod mmap;
pub(crate) mod par_build;
pub mod probe;
pub mod sampling;
pub mod temporal;
pub mod traversal;
pub mod view;

pub use bitset::FanBitset;
pub use builder::{CsrCapacityError, GraphBuilder};
pub use graph::SocialGraph;
pub use id::UserId;
pub use mmap::{GraphMap, GraphMapError};
pub use probe::FanProbe;
pub use view::FanView;
