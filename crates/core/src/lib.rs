//! # samie-lsq — the paper's contribution and its baselines
//!
//! This crate implements the load/store-queue designs studied in
//! *"SAMIE-LSQ: Set-Associative Multiple-Instruction Entry Load/Store
//! Queue"* (Abella & González, IPDPS 2006):
//!
//! * [`SamieLsq`] — the proposal: a 64-bank × 2-entry **DistribLSQ** whose
//!   entries are keyed by cache-line address and hold up to 8 instruction
//!   slots each, an 8-entry fully-associative **SharedLSQ** overflow, and a
//!   64-slot FIFO **AddrBuffer**, plus the §3.4 extensions that cache the
//!   L1D line location (presentBit) and the D-TLB translation inside LSQ
//!   entries.
//! * [`ConventionalLsq`] — the baseline: a 128-entry fully-associative,
//!   age-ordered LSQ with global CAM disambiguation.
//! * [`ArbLsq`] — Franklin & Sohi's ARB, reproduced for Figure 1.
//! * [`UnboundedLsq`] — an ideal LSQ of unlimited size (Figure 1's
//!   reference).
//! * [`FilteredLsq`] — the conventional LSQ behind counting Bloom filters
//!   (Sethumadhavan et al., MICRO'03), the §2 search-filtering approach
//!   the paper contrasts with.
//!
//! All implementations speak the [`LoadStoreQueue`] trait consumed by the
//! `ooo-sim` timing simulator, and all account their switching activity in
//! a shared [`LsqActivity`] ledger that the `energy-model` crate prices
//! using the paper's CACTI-derived constants (Tables 4 and 5).
//!
//! The crate also ships an executable specification of memory
//! disambiguation ([`oracle`]) used by the property-test suites to check
//! that every implementation forwards from exactly the youngest older
//! overlapping store, and runnable as a design of its own ([`OracleLsq`]).
//!
//! ## One front door
//!
//! Every design is constructed through [`DesignSpec`] — a serializable,
//! fully-geometry-pinned descriptor with a canonical string form
//! (`"samie:64x2x8:sh8:ab64"`). `DesignSpec::build` returns a
//! `Box<dyn LoadStoreQueue>` (the trait is object-safe), so runners,
//! sweeps and CLIs need no type parameter per design; they carry designs
//! as [`DesignHandle`]s over the object-safe [`LsqFactory`], which
//! the [`checked()`] oracle wrapper implements too.

pub mod activity;
pub mod agering;
pub mod arb;
pub mod checked;
pub mod conventional;
pub mod design;
pub mod filtered;
pub mod oracle;
pub mod samie;
pub mod traits;
pub mod types;
pub mod unbounded;

pub use activity::{CamActivity, LsqActivity, OccupancyIntegrals};
pub use agering::AgeRing;
pub use arb::{ArbConfig, ArbLsq};
pub use checked::{checked, CheckedLsq};
pub use conventional::ConventionalLsq;
pub use design::{DesignHandle, DesignParseError, DesignSpec, FastPathLsq, LsqFactory};
pub use filtered::{CountingBloom, FilteredLsq};
pub use oracle::OracleLsq;
pub use samie::{SamieConfig, SamieLsq};
pub use traits::{CachePlan, LoadStoreQueue};
pub use types::{Age, AgeHasher, AgeMap, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};
pub use unbounded::UnboundedLsq;
