//! # samie-bench — layer benchmarks
//!
//! This crate hosts two Criterion bench targets (see `benches/`):
//! `micro_structures` times single operations of the hot structures and
//! `store_roundtrip` the experiment store. End-to-end simulator
//! throughput is measured by the standalone `perfbench` package. The
//! library itself only re-exports the workspace crates the benches drive.

pub use exp_harness;
pub use mem_hier;
pub use ooo_sim;
pub use samie_lsq;
pub use spec_traces;
pub use trace_isa;
