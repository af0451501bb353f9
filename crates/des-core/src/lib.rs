//! Deterministic discrete-event kernel shared by the simulation crates.
//!
//! Three small, orthogonal pieces:
//!
//! - [`queue`] — an [`EventQueue`] keyed by `(time, class, seq)`: a
//!   binary heap with stable FIFO tie-breaking among equal timestamps
//!   (`class` encodes a fixed intra-timestamp phase order, `seq` is a
//!   monotone insertion counter) plus O(1) cancel/reschedule through
//!   tombstoned ids.
//! - [`rng`] — [`StreamRng`], a counter-based splitmix64 generator.
//!   Each logical entity (a story, an edge, a browsing session) derives
//!   its own stream from `(seed, salts…)`, so the draws it consumes are
//!   a pure function of its identity, independent of how events from
//!   different entities interleave in the queue.
//! - [`par`] — the deterministic `std::thread::scope` fan-out used by
//!   every batch path in the workspace ([`par_map`], [`par_fold`],
//!   [`par_join`] for heterogeneous tasks over disjoint `&mut`
//!   regions, [`worker_threads`] honouring `DIGG_THREADS`): contiguous
//!   chunks, outputs recombined in task order, bit-identical results
//!   at any thread count. The fallible layer ([`try_par_map`],
//!   [`try_par_join`]) catches per-shard panics, drains the remaining
//!   shards, and aggregates the failures into a [`WorkerPanic`] so
//!   batch drivers can fail one poisoned work item instead of the
//!   whole batch.
//!
//! `digg-sim` runs the platform simulator on this kernel (with the seed
//! tick loop kept as an equivalence baseline) and `digg-epidemics` runs
//! SIR/SIS/threshold contagion on it; `digg-core` re-exports [`par`] so
//! the analytics fan-out and the scenario-sweep runner share one
//! implementation.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod par;
pub mod queue;
pub mod rng;

pub use par::{
    chunk_size, panic_message, par_fold, par_join, par_map, try_par_join, try_par_map,
    worker_threads, PanicShard, WorkerPanic,
};
pub use queue::{Event, EventId, EventQueue};
pub use rng::StreamRng;
