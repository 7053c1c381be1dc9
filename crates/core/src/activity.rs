//! Switching-activity and occupancy ledgers.
//!
//! Every LSQ implementation records *what it did* — comparison operations
//! and their operand counts, array reads/writes, bus transfers — in an
//! [`LsqActivity`]. The `energy-model` crate later prices the ledger with
//! the per-access CACTI constants of the paper's Tables 4 and 5, and prices
//! the per-cycle [`OccupancyIntegrals`] with the cell areas of Table 6 for
//! the leakage (active-area) study of Figures 11–12.
//!
//! Keeping raw counts (instead of accumulating picojoules online) keeps the
//! simulator free of floating point in its hot loop and lets a single run
//! be re-priced under different technology assumptions.

/// Activity of one CAM port: number of search operations and the total
/// number of operands those searches were compared against, plus ordinary
/// array reads/writes of the same field.
///
/// The paper's energy model is affine per search — e.g. a conventional-LSQ
/// address comparison costs `452 pJ + 3.53 pJ × addresses compared` — so
/// the ledger needs exactly these two counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CamActivity {
    /// Search operations performed.
    pub cmp_ops: u64,
    /// Total operands compared, summed over all search operations.
    pub cmp_operands: u64,
    /// Reads/writes of the field through its ordinary port.
    pub reads_writes: u64,
}

impl CamActivity {
    /// Record one search against `operands` resident values.
    #[inline]
    pub fn search(&mut self, operands: u64) {
        self.searches(1, operands);
    }

    /// Record `n` searches comparing `operands` resident values in total.
    #[inline]
    pub fn searches(&mut self, n: u64, operands: u64) {
        self.cmp_ops += n;
        self.cmp_operands += operands;
    }

    /// Record `n` reads/writes.
    #[inline]
    pub fn rw(&mut self, n: u64) {
        self.reads_writes += n;
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CamActivity) {
        self.cmp_ops += other.cmp_ops;
        self.cmp_operands += other.cmp_operands;
        self.reads_writes += other.reads_writes;
    }
}

/// Per-cycle occupancy integrals (Σ over cycles of in-use counts), the
/// input to the active-area/leakage model of §4.2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyIntegrals {
    /// Cycles over which the integrals were accumulated.
    pub cycles: u64,
    /// Σ in-use conventional entries.
    pub conv_entries: u64,
    /// Σ in-use DistribLSQ entries.
    pub dist_entries: u64,
    /// Σ in-use DistribLSQ slots.
    pub dist_slots: u64,
    /// Σ in-use SharedLSQ entries.
    pub shared_entries: u64,
    /// Σ in-use SharedLSQ slots.
    pub shared_slots: u64,
    /// Σ in-use AddrBuffer slots.
    pub abuf_slots: u64,
}

impl OccupancyIntegrals {
    /// Mean in-use SharedLSQ entries (the quantity plotted in Figure 3).
    pub fn mean_shared_entries(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.shared_entries as f64 / self.cycles as f64
        }
    }

    /// Mean in-use conventional entries.
    pub fn mean_conv_entries(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.conv_entries as f64 / self.cycles as f64
        }
    }
}

/// Complete activity ledger for one simulation run.
///
/// Conventional-LSQ fields correspond to Table 4 rows; DistribLSQ /
/// SharedLSQ / AddrBuffer / bus fields to Table 5 rows. Implementations
/// only touch the fields for structures they actually have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqActivity {
    // ---- conventional (Table 4) ----
    /// Address CAM: searches + address reads/writes.
    pub conv_addr: CamActivity,
    /// Datum reads/writes.
    pub conv_data_rw: u64,

    // ---- DistribLSQ (Table 5) ----
    /// Line-address CAM within the selected bank.
    pub dist_addr: CamActivity,
    /// Age-id CAM: one `cmp_ops` per *entry* searched, operands = age ids
    /// compared in that entry (the paper prices "age id comparison in one
    /// entry" at 19.4 pJ + 1.21 pJ per id).
    pub dist_age: CamActivity,
    /// Age-id field reads/writes.
    pub dist_age_rw: u64,
    /// Datum reads/writes.
    pub dist_data_rw: u64,
    /// Cached TLB-translation field reads/writes.
    pub dist_tlb_rw: u64,
    /// Cached cache-line-location field reads/writes.
    pub dist_lineid_rw: u64,

    // ---- bus to the DistribLSQ banks ----
    /// Addresses sent over the distribution bus.
    pub bus_sends: u64,

    // ---- SharedLSQ (Table 5) ----
    /// Line-address CAM across the SharedLSQ.
    pub shared_addr: CamActivity,
    /// Age-id CAM, per entry searched (as for `dist_age`).
    pub shared_age: CamActivity,
    /// Age-id field reads/writes.
    pub shared_age_rw: u64,
    /// Datum reads/writes.
    pub shared_data_rw: u64,
    /// Cached TLB-translation field reads/writes.
    pub shared_tlb_rw: u64,
    /// Cached cache-line-location field reads/writes.
    pub shared_lineid_rw: u64,

    // ---- AddrBuffer (Table 5) ----
    /// Datum (full address + metadata) reads/writes.
    pub abuf_data_rw: u64,
    /// Age-id reads/writes.
    pub abuf_age_rw: u64,

    // ---- occupancy (leakage / Figures 3, 11, 12) ----
    /// Per-cycle occupancy integrals.
    pub occupancy: OccupancyIntegrals,

    // ---- event counters used by several figures ----
    /// Loads whose datum was forwarded from a store (no D-cache access).
    pub forwards: u64,
    /// Ops that transited the AddrBuffer.
    pub abuf_inserts: u64,
    /// Cycles during which at least one op sat in the AddrBuffer.
    pub abuf_busy_cycles: u64,
}

impl LsqActivity {
    /// Merge another ledger (used when aggregating parallel runs).
    pub fn merge(&mut self, o: &LsqActivity) {
        self.conv_addr.merge(&o.conv_addr);
        self.conv_data_rw += o.conv_data_rw;
        self.dist_addr.merge(&o.dist_addr);
        self.dist_age.merge(&o.dist_age);
        self.dist_age_rw += o.dist_age_rw;
        self.dist_data_rw += o.dist_data_rw;
        self.dist_tlb_rw += o.dist_tlb_rw;
        self.dist_lineid_rw += o.dist_lineid_rw;
        self.bus_sends += o.bus_sends;
        self.shared_addr.merge(&o.shared_addr);
        self.shared_age.merge(&o.shared_age);
        self.shared_age_rw += o.shared_age_rw;
        self.shared_data_rw += o.shared_data_rw;
        self.shared_tlb_rw += o.shared_tlb_rw;
        self.shared_lineid_rw += o.shared_lineid_rw;
        self.abuf_data_rw += o.abuf_data_rw;
        self.abuf_age_rw += o.abuf_age_rw;
        self.occupancy.cycles += o.occupancy.cycles;
        self.occupancy.conv_entries += o.occupancy.conv_entries;
        self.occupancy.dist_entries += o.occupancy.dist_entries;
        self.occupancy.dist_slots += o.occupancy.dist_slots;
        self.occupancy.shared_entries += o.occupancy.shared_entries;
        self.occupancy.shared_slots += o.occupancy.shared_slots;
        self.occupancy.abuf_slots += o.occupancy.abuf_slots;
        self.forwards += o.forwards;
        self.abuf_inserts += o.abuf_inserts;
        self.abuf_busy_cycles += o.abuf_busy_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cam_search_accumulates() {
        let mut c = CamActivity::default();
        c.search(5);
        c.search(0);
        c.searches(3, 12);
        c.rw(3);
        assert_eq!(c.cmp_ops, 5);
        assert_eq!(c.cmp_operands, 17);
        assert_eq!(c.reads_writes, 3);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = LsqActivity::default();
        a.conv_addr.search(10);
        a.bus_sends = 7;
        a.occupancy.cycles = 100;
        a.occupancy.shared_entries = 250;
        let mut b = LsqActivity::default();
        b.conv_addr.search(2);
        b.bus_sends = 3;
        b.occupancy.cycles = 50;
        b.occupancy.shared_entries = 50;
        a.merge(&b);
        assert_eq!(a.conv_addr.cmp_ops, 2);
        assert_eq!(a.conv_addr.cmp_operands, 12);
        assert_eq!(a.bus_sends, 10);
        assert_eq!(a.occupancy.cycles, 150);
        assert!((a.occupancy.mean_shared_entries() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(OccupancyIntegrals::default().mean_shared_entries(), 0.0);
        assert_eq!(OccupancyIntegrals::default().mean_conv_entries(), 0.0);
    }
}
