//! Umbrella crate re-exporting the Digg-reproduction workspace.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub use digg_core as core;
pub use digg_data as data;
pub use digg_epidemics as epidemics;
pub use digg_ml as ml;
pub use digg_sim as sim;
pub use digg_stats as stats;
pub use social_graph as graph;
