//! [`CheckedLsq`] — a transparent differential wrapper that cross-checks
//! any design's forwarding answers against the executable oracle.
//!
//! [`OracleLsq`](crate::OracleLsq) runs the *specification* as a design;
//! `CheckedLsq` instead shadows an arbitrary **implementation** while the
//! real pipeline drives it: every `load_forward_status` answer is compared
//! against [`oracle::forward_status`](crate::oracle::forward_status) over
//! a mirror of the in-flight ops, modulo the one documented conservatism
//! (answering `Wait` while an older overlapping store is parked in a
//! waiting buffer). Divergences are collected, not panicked on, so a
//! fuzzer can harvest them and shrink the trace that provoked them.
//!
//! The wrapper is timing- and energy-transparent: it always returns the
//! inner design's own answer and delegates the activity ledger, so a
//! checked run produces **bit-identical** simulation statistics to an
//! unchecked one (asserted by the harness fuzz tests).
//!
//! ```
//! use samie_lsq::{checked, CheckedLsq, DesignSpec, LsqFactory};
//! use std::sync::Arc;
//!
//! let conv: DesignSpec = "conv:32".parse().unwrap();
//! let factory = checked(Arc::new(conv));
//! assert_eq!(factory.id(), "conv:32", "ids stay canonical");
//! let lsq = factory.build();
//! let checked_view = lsq.as_any().downcast_ref::<CheckedLsq>().unwrap();
//! assert_eq!(checked_view.mismatches(), &[] as &[String]);
//! ```

use std::sync::Arc;

use crate::design::{DesignHandle, LsqFactory};
use crate::oracle::{forward_status, OracleOp};
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};

/// Divergences kept per run — enough to diagnose, bounded so a completely
/// broken design cannot accumulate gigabytes of reports.
const MAX_REPORTS: usize = 8;

/// A design wrapped with per-forwarding oracle cross-checking.
///
/// Construct through [`checked`] (factory level) or [`CheckedLsq::new`];
/// read the verdict post-run by downcasting
/// [`LoadStoreQueue::as_any`] and calling
/// [`mismatches`](CheckedLsq::mismatches).
pub struct CheckedLsq {
    inner: Box<dyn LoadStoreQueue>,
    ops: Vec<OracleOp>,
    mismatches: Vec<String>,
    /// Total divergences observed (may exceed `mismatches.len()`).
    mismatch_count: u64,
    /// Forwarding queries cross-checked.
    queries: u64,
}

impl CheckedLsq {
    /// Wrap `inner` with oracle cross-checking.
    pub fn new(inner: Box<dyn LoadStoreQueue>) -> Self {
        CheckedLsq {
            inner,
            ops: Vec::new(),
            mismatches: Vec::new(),
            mismatch_count: 0,
            queries: 0,
        }
    }

    /// Divergence reports collected so far (capped at a few entries; see
    /// [`mismatch_count`](CheckedLsq::mismatch_count) for the total).
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Total number of divergent forwarding answers observed.
    pub fn mismatch_count(&self) -> u64 {
        self.mismatch_count
    }

    /// Forwarding queries that were cross-checked.
    pub fn checked_queries(&self) -> u64 {
        self.queries
    }

    fn mirror_mut(&mut self, age: Age) -> &mut OracleOp {
        self.ops
            .iter_mut()
            .find(|o| o.op.age == age)
            .expect("op not mirrored in checker")
    }

    /// The documented conservatism: `Wait` is always acceptable while an
    /// older overlapping store sits in the design's waiting buffer
    /// (SAMIE AddrBuffer, ARB retry queue) — such a store has not been
    /// disambiguated, so the design may not forward past it yet.
    fn buffered_overlap(&self, load: Age) -> bool {
        let Some(l) = self.ops.iter().find(|o| o.op.age == load) else {
            return false;
        };
        self.ops.iter().any(|o| {
            o.op.is_store
                && o.op.age < load
                && o.op.mref.overlaps(l.op.mref)
                && self.inner.is_buffered(o.op.age)
        })
    }
}

impl LoadStoreQueue for CheckedLsq {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        self.inner.can_dispatch(is_store)
    }

    fn dispatch(&mut self, op: MemOp) {
        self.ops.push(OracleOp {
            op,
            addr_known: false,
            data_ready: false,
        });
        self.inner.dispatch(op);
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        let outcome = self.inner.address_ready(age);
        if outcome != PlaceOutcome::NoSpace {
            // A refused address stays invisible to disambiguation (the
            // pipeline holds the op back and retries), so only mark the
            // mirror once the design actually accepted it.
            self.mirror_mut(age).addr_known = true;
        }
        outcome
    }

    fn store_executed(&mut self, age: Age) {
        self.mirror_mut(age).data_ready = true;
        self.inner.store_executed(age);
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        let spec = forward_status(&self.ops, age);
        let got = self.inner.load_forward_status(age);
        self.queries += 1;
        if got != spec && !(got == ForwardStatus::Wait && self.buffered_overlap(age)) {
            self.mismatch_count += 1;
            if self.mismatches.len() < MAX_REPORTS {
                self.mismatches.push(format!(
                    "load {age}: `{}` answered {got:?}, oracle requires {spec:?}",
                    self.inner.name()
                ));
            }
        }
        got
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        self.inner.take_forward(load, store)
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        self.inner.cache_access_plan(age)
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        self.inner.note_cache_access(age, set, way)
    }

    fn load_data_arrived(&mut self, age: Age) {
        self.inner.load_data_arrived(age)
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        self.inner.on_line_replaced(set, way)
    }

    fn commit(&mut self, age: Age) {
        self.ops.retain(|o| o.op.age != age);
        self.inner.commit(age)
    }

    fn squash_younger(&mut self, age: Age) {
        self.ops.retain(|o| o.op.age <= age);
        self.inner.squash_younger(age)
    }

    fn flush_all(&mut self) {
        self.ops.clear();
        self.inner.flush_all()
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.inner.is_buffered(age)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        self.inner.tick(promoted)
    }

    fn tick_idle(&mut self, k: u64) {
        self.inner.tick_idle(k)
    }

    fn refuse_idle(&mut self, age: Age, k: u64) {
        // A refused address never reaches the mirror (see `address_ready`).
        self.inner.refuse_idle(age, k)
    }

    fn activity(&self) -> &crate::activity::LsqActivity {
        self.inner.activity()
    }

    fn reset_activity(&mut self) {
        self.inner.reset_activity()
    }

    fn occupancy(&self) -> LsqOccupancy {
        self.inner.occupancy()
    }
}

/// A deliberately faulty design: delegates everything to `inner` but
/// downgrades every `Forward` answer to `AccessCache` — a forwarding
/// path silently gone missing. It exists to prove the detection
/// machinery works: wrapped in [`CheckedLsq`], every dropped forward is
/// reported as an oracle divergence (the crate tests and the harness
/// fuzzer both drive it as their known-bad specimen).
pub struct ForwardDroppingLsq(Box<dyn LoadStoreQueue>);

impl ForwardDroppingLsq {
    /// Break `inner`'s forwarding.
    pub fn new(inner: Box<dyn LoadStoreQueue>) -> Self {
        ForwardDroppingLsq(inner)
    }
}

impl LoadStoreQueue for ForwardDroppingLsq {
    fn name(&self) -> &'static str {
        "forward-dropping"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn can_dispatch(&self, is_store: bool) -> bool {
        self.0.can_dispatch(is_store)
    }

    fn dispatch(&mut self, op: MemOp) {
        self.0.dispatch(op)
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        self.0.address_ready(age)
    }

    fn store_executed(&mut self, age: Age) {
        self.0.store_executed(age)
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        match self.0.load_forward_status(age) {
            ForwardStatus::Forward { .. } => ForwardStatus::AccessCache,
            other => other,
        }
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        self.0.take_forward(load, store)
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        self.0.cache_access_plan(age)
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        self.0.note_cache_access(age, set, way)
    }

    fn load_data_arrived(&mut self, age: Age) {
        self.0.load_data_arrived(age)
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        self.0.on_line_replaced(set, way)
    }

    fn commit(&mut self, age: Age) {
        self.0.commit(age)
    }

    fn squash_younger(&mut self, age: Age) {
        self.0.squash_younger(age)
    }

    fn flush_all(&mut self) {
        self.0.flush_all()
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.0.is_buffered(age)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        self.0.tick(promoted)
    }

    fn tick_idle(&mut self, k: u64) {
        self.0.tick_idle(k)
    }

    fn refuse_idle(&mut self, age: Age, k: u64) {
        self.0.refuse_idle(age, k)
    }

    fn activity(&self) -> &crate::activity::LsqActivity {
        self.0.activity()
    }

    fn reset_activity(&mut self) {
        self.0.reset_activity()
    }

    fn occupancy(&self) -> LsqOccupancy {
        self.0.occupancy()
    }
}

struct CheckedFactory {
    inner: DesignHandle,
}

impl LsqFactory for CheckedFactory {
    fn id(&self) -> String {
        self.inner.id()
    }

    fn build(&self) -> Box<dyn LoadStoreQueue> {
        Box::new(CheckedLsq::new(self.inner.build()))
    }
}

/// Lift any design factory into its oracle-cross-checked version. The id
/// stays the inner design's canonical id, so reports read normally; the
/// built LSQ downcasts to [`CheckedLsq`].
pub fn checked(inner: DesignHandle) -> DesignHandle {
    Arc::new(CheckedFactory { inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignSpec;
    use trace_isa::MemRef;

    fn drive_ok(mut lsq: CheckedLsq) -> CheckedLsq {
        lsq.dispatch(MemOp::store(1, MemRef::new(0x100, 8)));
        lsq.dispatch(MemOp::load(2, MemRef::new(0x104, 4)));
        lsq.address_ready(1);
        lsq.address_ready(2);
        lsq.store_executed(1);
        assert_eq!(
            lsq.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
        lsq.take_forward(2, 1);
        lsq.commit(1);
        lsq.commit(2);
        lsq
    }

    #[test]
    fn correct_design_produces_no_mismatches() {
        let lsq = drive_ok(CheckedLsq::new(DesignSpec::conventional_paper().build()));
        assert_eq!(lsq.mismatch_count(), 0);
        assert_eq!(lsq.checked_queries(), 1);
        assert!(lsq.ops.is_empty(), "mirror drains at commit");
    }

    #[test]
    fn broken_design_is_reported_not_panicked() {
        let mut lsq = CheckedLsq::new(Box::new(ForwardDroppingLsq::new(
            DesignSpec::conventional_paper().build(),
        )));
        lsq.dispatch(MemOp::store(1, MemRef::new(0x200, 8)));
        lsq.dispatch(MemOp::load(2, MemRef::new(0x200, 8)));
        lsq.address_ready(1);
        lsq.address_ready(2);
        lsq.store_executed(1);
        // The wrapper reports the divergence but returns the design's own
        // (wrong) answer — timing transparency.
        assert_eq!(lsq.load_forward_status(2), ForwardStatus::AccessCache);
        assert_eq!(lsq.mismatch_count(), 1);
        assert!(
            lsq.mismatches()[0].contains("AccessCache"),
            "{:?}",
            lsq.mismatches()
        );
        assert!(
            lsq.mismatches()[0].contains("Forward"),
            "{:?}",
            lsq.mismatches()
        );
    }

    #[test]
    fn mismatch_reports_are_capped() {
        let mut lsq = CheckedLsq::new(Box::new(ForwardDroppingLsq::new(
            DesignSpec::conventional_paper().build(),
        )));
        lsq.dispatch(MemOp::store(1, MemRef::new(0x300, 8)));
        lsq.address_ready(1);
        lsq.store_executed(1);
        for age in 2..40u64 {
            lsq.dispatch(MemOp::load(age, MemRef::new(0x300, 8)));
            lsq.address_ready(age);
            let _ = lsq.load_forward_status(age);
        }
        assert_eq!(lsq.mismatch_count(), 38);
        assert_eq!(lsq.mismatches().len(), MAX_REPORTS);
    }

    #[test]
    fn factory_wrapper_keeps_canonical_id() {
        let spec: DesignSpec = "samie:32x4x8".parse().unwrap();
        let f = checked(Arc::new(spec));
        assert_eq!(f.id(), "samie:32x4x8:sh8:ab64");
        let built = f.build();
        assert!(built.as_any().downcast_ref::<CheckedLsq>().is_some());
        assert_eq!(built.name(), "samie");
    }

    #[test]
    fn squash_and_flush_drain_the_mirror() {
        let mut lsq = CheckedLsq::new(DesignSpec::samie_paper().build());
        for age in 1..=6u64 {
            lsq.dispatch(MemOp::store(age, MemRef::new(age * 64, 8)));
            lsq.address_ready(age);
        }
        lsq.squash_younger(3);
        assert_eq!(lsq.ops.len(), 3);
        lsq.flush_all();
        assert!(lsq.ops.is_empty());
    }
}
