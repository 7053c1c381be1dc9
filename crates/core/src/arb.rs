//! ARB — Franklin & Sohi's Address Resolution Buffer, reproduced for the
//! paper's Figure 1 motivation study.
//!
//! The ARB distributes disambiguation over `banks` banks selected by
//! low-order word-address bits. Each bank holds `rows_per_bank` *address
//! rows*; a row is keyed by one (word-aligned) memory address and has room
//! for every in-flight memory instruction referencing that address. A
//! global cap bounds the number of in-flight memory instructions (the
//! paper studies 128 and, for the "half" variant, 64).
//!
//! An op whose bank has no matching row and no free row must wait and
//! retry — the pathology Figure 1 quantifies: with 64×2 banking, programs
//! lose as much as 28 % IPC.

use crate::activity::LsqActivity;
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, AgeMap, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};

/// ARB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of banks (power of two).
    pub banks: usize,
    /// Address rows per bank.
    pub rows_per_bank: usize,
    /// Maximum in-flight memory instructions (dispatch gate).
    pub max_inflight: usize,
}

impl ArbConfig {
    /// A Figure 1 configuration: `banks × rows`, e.g. `fig1(64, 2)` is the
    /// "64x2" point; `max_inflight` 128 ("Normal") unless halved.
    pub fn fig1(banks: usize, rows_per_bank: usize) -> Self {
        ArbConfig {
            banks,
            rows_per_bank,
            max_inflight: 128,
        }
    }

    /// The "half number of addresses" variant of Figure 1.
    pub fn half_inflight(mut self) -> Self {
        self.max_inflight /= 2;
        self
    }

    fn validate(&self) {
        assert!(
            self.banks.is_power_of_two(),
            "ARB banks must be a power of two"
        );
        assert!(self.rows_per_bank > 0 && self.max_inflight > 0);
    }
}

/// ARB rows disambiguate at naturally-aligned 8-byte word granularity.
const WORD_SHIFT: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Dispatched, address not yet computed.
    Dispatched,
    /// Address computed but no row available; retried each cycle.
    Buffered,
    /// Resident in `bank`/`row`.
    Placed { bank: u32, row: u32 },
}

#[derive(Debug, Clone, Copy)]
struct ArbOp {
    op: MemOp,
    stage: Stage,
    data_ready: bool,
}

#[derive(Debug, Clone, Default)]
struct Row {
    /// Word address this row disambiguates (valid when `used > 0`).
    word: u64,
    /// Ages of resident ops (kept unsorted; rows are tiny in practice).
    ages: Vec<Age>,
}

/// Franklin & Sohi ARB.
#[derive(Debug, Clone)]
pub struct ArbLsq {
    cfg: ArbConfig,
    rows: Vec<Row>, // banks * rows_per_bank, row-major by bank
    ops: AgeMap<ArbOp>,
    /// Buffered ages in arrival (FIFO) order.
    retry: Vec<Age>,
    /// Rows holding at least one op (occupancy metric), maintained by
    /// `try_place`, `remove_placed` and `flush_all`.
    rows_in_use: usize,
    inflight: usize,
    activity: LsqActivity,
}

impl ArbLsq {
    /// Build an ARB.
    pub fn new(cfg: ArbConfig) -> Self {
        cfg.validate();
        ArbLsq {
            cfg,
            rows: vec![Row::default(); cfg.banks * cfg.rows_per_bank],
            ops: AgeMap::default(),
            retry: Vec::new(),
            rows_in_use: 0,
            inflight: 0,
            activity: LsqActivity::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> ArbConfig {
        self.cfg
    }

    #[inline]
    fn bank_of(&self, word: u64) -> u32 {
        (word & (self.cfg.banks as u64 - 1)) as u32
    }

    fn row_slot(&self, bank: u32, row: u32) -> usize {
        bank as usize * self.cfg.rows_per_bank + row as usize
    }

    /// The word, bank and row `age` would be placed in: the bank's row
    /// already keyed by the op's word, else its first free row.
    fn find_row(&self, age: Age) -> Option<(u64, u32, u32)> {
        let word = self.ops[&age].op.mref.addr >> WORD_SHIFT;
        let bank = self.bank_of(word);
        let mut free: Option<u32> = None;
        for r in 0..self.cfg.rows_per_bank as u32 {
            let row = &self.rows[self.row_slot(bank, r)];
            if row.ages.is_empty() {
                free.get_or_insert(r);
            } else if row.word == word {
                return Some((word, bank, r));
            }
        }
        free.map(|r| (word, bank, r))
    }

    /// Try to place `age` (address already known). Returns true on success.
    fn try_place(&mut self, age: Age) -> bool {
        let Some((word, bank, r)) = self.find_row(age) else {
            return false;
        };
        let slot = self.row_slot(bank, r);
        let row = &mut self.rows[slot];
        if row.ages.is_empty() {
            row.word = word;
            self.rows_in_use += 1;
        }
        row.ages.push(age);
        self.ops.get_mut(&age).unwrap().stage = Stage::Placed { bank, row: r };
        true
    }

    fn remove_placed(&mut self, age: Age, stage: Stage) {
        if let Stage::Placed { bank, row } = stage {
            let slot = self.row_slot(bank, row);
            let ages = &mut self.rows[slot].ages;
            ages.retain(|&a| a != age);
            if ages.is_empty() {
                self.rows_in_use -= 1;
            }
        }
    }

    /// Charge `k` cycles of the current occupancy.
    fn integrate_occupancy(&mut self, k: u64) {
        let occ = &mut self.activity.occupancy;
        occ.cycles += k;
        occ.conv_entries += self.rows_in_use as u64 * k;
        occ.abuf_slots += self.retry.len() as u64 * k;
        if !self.retry.is_empty() {
            self.activity.abuf_busy_cycles += k;
        }
    }
}

impl LoadStoreQueue for ArbLsq {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "arb"
    }

    fn can_dispatch(&self, _is_store: bool) -> bool {
        self.inflight < self.cfg.max_inflight
    }

    fn dispatch(&mut self, op: MemOp) {
        debug_assert!(self.inflight < self.cfg.max_inflight);
        self.inflight += 1;
        let prev = self.ops.insert(
            op.age,
            ArbOp {
                op,
                stage: Stage::Dispatched,
                data_ready: false,
            },
        );
        debug_assert!(prev.is_none(), "duplicate age {}", op.age);
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        debug_assert_eq!(self.ops[&age].stage, Stage::Dispatched);
        if self.try_place(age) {
            PlaceOutcome::Placed
        } else {
            self.ops.get_mut(&age).unwrap().stage = Stage::Buffered;
            self.retry.push(age);
            PlaceOutcome::Buffered
        }
    }

    fn store_executed(&mut self, age: Age) {
        let op = self.ops.get_mut(&age).expect("unknown store");
        debug_assert!(op.op.is_store);
        op.data_ready = true;
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        let load = self.ops[&age];
        let Stage::Placed { bank, row } = load.stage else {
            // A buffered load cannot be disambiguated yet.
            return ForwardStatus::Wait;
        };
        // An older overlapping store still waiting for a row has not been
        // disambiguated; the load must wait for its placement.
        if self.retry.iter().any(|&a| {
            a < age && {
                let o = &self.ops[&a];
                o.op.is_store && o.op.mref.overlaps(load.op.mref)
            }
        }) {
            return ForwardStatus::Wait;
        }
        let slot = self.row_slot(bank, row);
        // Youngest older store in this row that overlaps the load.
        let mut best: Option<&ArbOp> = None;
        for &a in &self.rows[slot].ages {
            if a >= age {
                continue;
            }
            let cand = &self.ops[&a];
            if cand.op.is_store && cand.op.mref.overlaps(load.op.mref) {
                match best {
                    Some(b) if b.op.age > a => {}
                    _ => best = Some(cand),
                }
            }
        }
        match best {
            None => ForwardStatus::AccessCache,
            Some(st) if st.op.mref.covers(load.op.mref) && st.data_ready => {
                ForwardStatus::Forward { store: st.op.age }
            }
            Some(_) => ForwardStatus::Wait,
        }
    }

    fn take_forward(&mut self, _load: Age, _store: Age) {
        self.activity.forwards += 1;
    }

    fn cache_access_plan(&mut self, _age: Age) -> CachePlan {
        CachePlan::default()
    }

    fn note_cache_access(&mut self, _age: Age, _set: u32, _way: u32) -> bool {
        false
    }

    fn load_data_arrived(&mut self, _age: Age) {}

    fn on_line_replaced(&mut self, _set: u32, _way: u32) {}

    fn commit(&mut self, age: Age) {
        let op = self.ops.remove(&age).expect("commit of unknown op");
        debug_assert!(
            !matches!(op.stage, Stage::Buffered),
            "simulator must flush, not commit, a buffered ROB head"
        );
        self.remove_placed(age, op.stage);
        self.retry.retain(|&a| a != age);
        self.inflight -= 1;
    }

    fn squash_younger(&mut self, age: Age) {
        let doomed: Vec<Age> = self.ops.keys().copied().filter(|&a| a > age).collect();
        for a in doomed {
            let op = self.ops.remove(&a).unwrap();
            self.remove_placed(a, op.stage);
            self.inflight -= 1;
        }
        self.retry.retain(|&a| a <= age);
    }

    fn flush_all(&mut self) {
        self.ops.clear();
        self.retry.clear();
        for r in &mut self.rows {
            r.ages.clear();
        }
        self.rows_in_use = 0;
        self.inflight = 0;
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.ops
            .get(&age)
            .is_some_and(|o| o.stage == Stage::Buffered)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        // Retry buffered ops in arrival order, compacting the ones still
        // waiting to the front of the queue in place.
        let mut kept = 0;
        for i in 0..self.retry.len() {
            let age = self.retry[i];
            if self.try_place(age) {
                promoted.push(age);
            } else {
                self.retry[kept] = age;
                kept += 1;
            }
        }
        self.retry.truncate(kept);
        self.integrate_occupancy(1);
    }

    fn tick_idle(&mut self, k: u64) {
        // The caller guarantees no state changed since a tick that placed
        // nothing, and placement depends only on ARB state, so k idle
        // ticks are k occupancy integrations (a failed placement charges
        // nothing).
        debug_assert!(
            self.retry.iter().all(|&a| self.find_row(a).is_none()),
            "tick_idle while a buffered op could be placed"
        );
        self.integrate_occupancy(k);
    }

    fn activity(&self) -> &LsqActivity {
        &self.activity
    }

    fn reset_activity(&mut self) {
        self.activity = LsqActivity::default();
    }

    fn occupancy(&self) -> LsqOccupancy {
        LsqOccupancy {
            conv_entries: self.rows_in_use,
            addr_buffer: self.retry.len(),
            ..LsqOccupancy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_isa::MemRef;

    fn tiny() -> ArbLsq {
        // 2 banks x 1 row, cap 8
        ArbLsq::new(ArbConfig {
            banks: 2,
            rows_per_bank: 1,
            max_inflight: 8,
        })
    }

    #[test]
    fn same_word_ops_share_a_row() {
        let mut a = tiny();
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 8)));
        a.dispatch(MemOp::load(2, MemRef::new(0x100, 4)));
        assert_eq!(a.address_ready(1), PlaceOutcome::Placed);
        assert_eq!(a.address_ready(2), PlaceOutcome::Placed);
        assert_eq!(a.occupancy().conv_entries, 1, "one row for one word");
        a.store_executed(1);
        assert_eq!(
            a.load_forward_status(2),
            ForwardStatus::Forward { store: 1 }
        );
    }

    #[test]
    fn bank_conflict_buffers_then_promotes() {
        let mut a = tiny();
        // words 0 and 2 both map to bank 0 (even words)
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(16, 4)));
        assert_eq!(a.address_ready(1), PlaceOutcome::Placed);
        assert_eq!(a.address_ready(2), PlaceOutcome::Buffered);
        assert!(a.is_buffered(2));
        a.commit(1);
        let mut promoted = vec![];
        a.tick(&mut promoted);
        assert_eq!(promoted, vec![2]);
        assert!(!a.is_buffered(2));
    }

    #[test]
    fn inflight_cap_gates_dispatch() {
        let mut a = ArbLsq::new(ArbConfig {
            banks: 2,
            rows_per_bank: 4,
            max_inflight: 2,
        });
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(8, 4)));
        assert!(!a.can_dispatch(false));
        a.address_ready(1);
        a.commit(1);
        assert!(a.can_dispatch(false));
    }

    #[test]
    fn different_words_never_forward() {
        let mut a = ArbLsq::new(ArbConfig::fig1(1, 128));
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 8)));
        a.dispatch(MemOp::load(2, MemRef::new(0x108, 8)));
        a.address_ready(1);
        a.address_ready(2);
        a.store_executed(1);
        assert_eq!(a.load_forward_status(2), ForwardStatus::AccessCache);
    }

    #[test]
    fn buffered_load_waits() {
        let mut a = tiny();
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(16, 4)));
        a.address_ready(1);
        a.address_ready(2);
        assert_eq!(a.load_forward_status(2), ForwardStatus::Wait);
    }

    #[test]
    fn squash_frees_rows_and_cap() {
        let mut a = tiny();
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(5, MemRef::new(16, 4)));
        a.address_ready(1);
        a.address_ready(5); // buffered
        a.squash_younger(1);
        assert_eq!(a.occupancy().addr_buffer, 0);
        assert_eq!(a.occupancy().conv_entries, 1);
        assert!(a.can_dispatch(false));
    }

    #[test]
    fn tick_idle_equals_idle_ticks() {
        // Two rows in use (one per bank) and two ops buffered behind them.
        let mut a = tiny();
        a.dispatch(MemOp::store(1, MemRef::new(0, 8)));
        a.dispatch(MemOp::load(2, MemRef::new(8, 4)));
        a.dispatch(MemOp::load(3, MemRef::new(16, 4)));
        a.dispatch(MemOp::store(4, MemRef::new(24, 8)));
        for age in 1..=4 {
            a.address_ready(age);
        }
        let mut promoted = vec![];
        a.tick(&mut promoted);
        assert!(promoted.is_empty());
        assert_eq!(a.occupancy().conv_entries, 2);
        assert_eq!(a.occupancy().addr_buffer, 2);

        let mut stepped = a.clone();
        for _ in 0..37 {
            stepped.tick(&mut promoted);
        }
        assert!(promoted.is_empty());
        a.tick_idle(37);
        assert_eq!(a.activity(), stepped.activity());
        assert_eq!(a.occupancy(), stepped.occupancy());
        assert_eq!(a.activity().occupancy.conv_entries, 38 * 2);
        assert_eq!(a.activity().abuf_busy_cycles, 38);
    }

    #[test]
    fn rows_in_use_follows_place_commit_and_flush() {
        let mut a = tiny();
        a.dispatch(MemOp::load(1, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(0, 4)));
        a.dispatch(MemOp::load(3, MemRef::new(8, 4)));
        for age in 1..=3 {
            a.address_ready(age);
        }
        assert_eq!(a.occupancy().conv_entries, 2);
        a.commit(1);
        assert_eq!(a.occupancy().conv_entries, 2, "row 0 still holds op 2");
        a.commit(2);
        assert_eq!(a.occupancy().conv_entries, 1);
        a.flush_all();
        assert_eq!(a.occupancy().conv_entries, 0);
    }

    #[test]
    fn fig1_configs() {
        let c = ArbConfig::fig1(64, 2);
        assert_eq!(c.max_inflight, 128);
        assert_eq!(c.half_inflight().max_inflight, 64);
    }

    #[test]
    fn partial_word_overlap_waits() {
        let mut a = ArbLsq::new(ArbConfig::fig1(1, 8));
        a.dispatch(MemOp::store(1, MemRef::new(0x100, 4)));
        a.dispatch(MemOp::load(2, MemRef::new(0x102, 4)));
        a.address_ready(1);
        a.address_ready(2);
        a.store_executed(1);
        assert_eq!(a.load_forward_status(2), ForwardStatus::Wait);
    }
}
