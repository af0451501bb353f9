//! # digg-epidemics
//!
//! Dynamical processes on networks — the paper's §6 future-work
//! program, implemented: "it is known that power-law degree
//! distribution observed in many real-world networks can lead to
//! vanishing threshold for epidemics [17, 16] … in a sharp contrast
//! with the results for random Erdos-Renyi networks. Furthermore, the
//! presence of well-connected clusters of nodes can impact the
//! transient dynamics of various influence propagation models \[5\]."
//!
//! Three pieces:
//!
//! * [`sir`] / [`sis`] — SIR and SIS compartment models on a
//!   [`social_graph::SocialGraph`], spreading along the fan direction
//!   (the direction story visibility travels on Digg);
//! * [`threshold`] — epidemic-threshold sweeps comparing scale-free
//!   and Erdős–Rényi substrates against the mean-field prediction
//!   `λ_c = ⟨k⟩ / ⟨k²⟩` (Pastor-Satorras & Vespignani);
//! * [`cascade_model`] — deterministic-threshold ("complex
//!   contagion") cascades and their transient dynamics on modular
//!   networks (Galstyan & Cohen);
//! * [`des`] — event-driven ports of the SIR/SIS and cascade models
//!   onto the `des-core` kernel: same outcome types, work
//!   proportional to what happens instead of `nodes × steps`;
//! * [`community`] — modularity scoring and label-propagation
//!   community detection (Girvan–Newman / Newman refs [6, 15]) used to
//!   verify planted structure.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod cascade_model;
pub mod community;
pub mod des;
pub mod sir;
pub mod sis;
pub mod threshold;
