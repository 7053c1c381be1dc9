//! # exp-store — content-addressed experiment store
//!
//! Every simulated experiment point in this repository is a pure function
//! of its inputs: the LSQ design (canonical `DesignSpec` string), the
//! workload (catalog spec, adversarial generator or `.strc` content
//! digest), the run length, the trace seed, the core configuration and
//! the simulator version. This crate caches the outputs —
//! [`SimStats`](ooo_sim::SimStats) plus optional named extras — on disk,
//! keyed by a stable 128-bit fingerprint of those inputs, so that sweeps
//! and the paper-reproduction harness never recompute a point they have
//! already simulated.
//!
//! Layout of a store directory:
//!
//! ```text
//! <root>/
//!   entries/<32-hex-digit key hash>.point   one atomic text file per point
//!   index.tsv                               append-only listing (inspection)
//! ```
//!
//! Guarantees:
//!
//! * **Exactness** — every stored counter is a `u64`; a cache hit is
//!   byte-identical to recomputing the point (the statistics never pass
//!   through floats).
//! * **Atomicity** — entries are written to a collision-free temp file
//!   (pid + nonce, `O_EXCL`) and published atomically, so an interrupted
//!   sweep leaves only whole entries behind and is resumable.
//! * **Multi-process safety** — [`ExperimentStore::put`] is write-once
//!   per fingerprint path (first publish wins, losers verify-and-discard),
//!   index appends are single `O_APPEND` writes deduplicated by readers,
//!   and [`ExperimentStore::gc`] never reclaims a temp file younger than
//!   [`GC_TEMP_GRACE`] — any number of sweep workers (threads *or*
//!   processes) can share one store directory, so two concurrent
//!   `samie-exp sweep --store` runs never corrupt each other's entries.
//! * **Loud corruption** — entries carry a content checksum and a full
//!   copy of their canonical key; truncation, bit rot and hash collisions
//!   all surface as [`StoreError::Corrupt`], never as silently wrong
//!   statistics.
//! * **Versioning** — keys embed a simulator version
//!   ([`SIM_VERSION`]); stale points simply stop hitting and
//!   [`ExperimentStore::gc`] reclaims them.
//!
//! ```
//! use exp_store::{ExperimentStore, PointKey, StoredPoint, SIM_VERSION};
//! use ooo_sim::SimStats;
//!
//! let dir = std::env::temp_dir().join("exp-store-doctest");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = ExperimentStore::open(&dir).unwrap();
//!
//! let key = PointKey {
//!     design: "samie:64x2x8:sh8:ab64".into(),
//!     workload: "spec:gzip:0123456789abcdef".into(),
//!     seed: 42,
//!     instrs: 120_000,
//!     warmup: 30_000,
//!     sim_config: "paper".into(),
//!     sim_version: SIM_VERSION.into(),
//! };
//! assert!(store.get(&key).unwrap().is_none(), "cold store misses");
//!
//! let point = StoredPoint {
//!     stats: SimStats { cycles: 1000, committed: 2500, ..SimStats::default() },
//!     wall_nanos: 7_000_000,
//!     extras: vec![("p99_shared".into(), 6)],
//! };
//! store.put(&key, &point).unwrap();
//! let hit = store.get(&key).unwrap().expect("warm store hits");
//! assert_eq!(hit, point, "bit-identical round trip");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

mod entry;
mod key;
mod store;

pub use entry::{decode_entry, encode_entry, visit_stat_fields, DecodedEntry, StoredPoint};
pub use key::PointKey;
pub use store::{ExperimentStore, GcReport, IndexRow, StoreCounters, StoreError, GC_TEMP_GRACE};

/// Version tag of the simulation semantics baked into store keys.
///
/// Bump this whenever a change alters what any simulated point computes
/// (pipeline behaviour, LSQ placement, trace generation, energy ledger
/// accounting, ...). Old entries then stop matching and can be reclaimed
/// with [`ExperimentStore::gc`]. Pure refactors and new designs/workloads
/// do not require a bump.
pub const SIM_VERSION: &str = "samie-sim-v1";
