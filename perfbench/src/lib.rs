//! End-to-end and per-layer benchmark of the SAMIE-LSQ simulator.
//!
//! See `README.md` next to this crate for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.

pub mod book;
pub mod layers;
pub mod metrics;
pub mod pins;
pub mod run;
pub mod sim;
pub mod stats;
pub mod suite;
pub mod timed;
