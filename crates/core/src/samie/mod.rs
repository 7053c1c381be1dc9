//! The SAMIE-LSQ: set-associative, multiple-instruction-entry load/store
//! queue (§3 of the paper).
//!
//! ## Structures (§3.1, Figure 2)
//!
//! * **DistribLSQ** — `banks` banks chosen direct-mapped by the low-order
//!   cache-line-address bits; each bank holds `entries_per_bank` entries
//!   searched fully associatively; each entry is keyed by one cache-line
//!   address and holds up to `slots_per_entry` instructions.
//! * **SharedLSQ** — a small fully-associative overflow with the same
//!   entry format, for ops whose bank is full.
//! * **AddrBuffer** — a strict FIFO for ops that fit in neither. Buffered
//!   ops cannot be disambiguated and cannot access memory; they are
//!   promoted (oldest first, with priority over newly computed addresses)
//!   as slots free up.
//!
//! ## Ordering interpretation
//!
//! The paper's readyBit (kept in the simulator's ROB) stops a load from
//! accessing memory while any older store address is unknown. One case the
//! paper does not spell out is an older store whose address *is* known but
//! which is stuck in the AddrBuffer: it has not been disambiguated against
//! anything, so a younger load to the same line would miss it. We resolve
//! it precisely in the timing model: a load waits while an older store
//! whose bytes *overlap* it sits in the AddrBuffer (their addresses are
//! both known to the simulator). Real hardware would pair SAMIE with one
//! of the §2 load-validation schemes the paper cites as composable rather
//! than scanning the buffer; blocking *all* younger loads behind any
//! buffered store instead freezes commit, which snowballs every buffered
//! burst into a deadlock flush — dynamics the paper's Figure 6 rates
//! exclude.
//!
//! ## §3.4 extensions
//!
//! After the first conventional D-cache access by any instruction of an
//! entry, the entry caches the line's `(set, way)` and the D-TLB
//! translation. Later instructions of the entry access the cache as if it
//! were direct-mapped (single way, no tag compare — 276 pJ instead of
//! 1009 pJ) and skip the D-TLB entirely. Replacing an L1D line
//! conservatively invalidates every cached location referring to that set
//! (the paper's "reset all entries that can be potentially affected"
//! variant, which avoids a CAM on the replaced address); cached
//! translations survive replacement, which is why the paper's D-TLB
//! savings (73 %) exceed its D-cache savings (42 %).

mod config;
mod entry;
#[cfg(test)]
mod tests;

pub use config::SamieConfig;
pub use entry::{Entry, Slot};

use std::collections::VecDeque;

use crate::activity::LsqActivity;
use crate::agering::AgeRing;
use crate::traits::{CachePlan, LoadStoreQueue};
use crate::types::{Age, ForwardStatus, LsqOccupancy, MemOp, PlaceOutcome};
use trace_isa::addr::line_index;
use trace_isa::MemRef;

/// Where an in-flight memory op currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Where {
    /// Dispatched; address not yet computed.
    Dispatched,
    /// Waiting in the AddrBuffer.
    Buffered,
    /// In DistribLSQ entry `entry` (global index: `bank * entries_per_bank + i`).
    Dist { entry: u32 },
    /// In SharedLSQ entry `entry`.
    Shared { entry: u32 },
}

#[derive(Debug, Clone, Copy)]
struct OpState {
    op: MemOp,
    loc: Where,
}

#[derive(Debug, Clone, Copy)]
struct BufOp {
    op: MemOp,
    /// Stores only: datum already produced (it waits in the ROB while the
    /// op is buffered and is written to the LSQ at promotion).
    data_ready: bool,
}

/// Width of the SharedLSQ occupancy histogram (entries 0..=254, saturating
/// bucket 255). Wide enough for every §3.5 sizing experiment.
const SHARED_HIST_BUCKETS: usize = 256;

/// The SAMIE-LSQ.
#[derive(Debug, Clone)]
pub struct SamieLsq {
    cfg: SamieConfig,
    /// DistribLSQ entries, bank-major: `dist[bank * epb .. (bank+1) * epb]`.
    dist: Vec<Entry>,
    /// SharedLSQ entries (grows on demand in unbounded mode).
    shared: Vec<Entry>,
    abuf: VecDeque<BufOp>,
    /// Stores currently in the AddrBuffer (fast-path gate for the
    /// per-load ordering scan in [`Self::older_overlapping_store_buffered`]).
    abuf_stores: usize,
    /// Age -> op state. An [`AgeRing`]: ages index their slots directly
    /// (no hashing on the hot path), with the full age stored as a
    /// generation tag so recycled slots never alias.
    index: AgeRing<OpState>,
    activity: LsqActivity,
    /// Per-cycle SharedLSQ occupancy histogram (Figures 3 and 4).
    shared_hist: Vec<u64>,
    // Incrementally maintained occupancy counters.
    dist_entries_used: usize,
    dist_slots_used: usize,
    shared_entries_used: usize,
    shared_slots_used: usize,
}

impl SamieLsq {
    /// Build a SAMIE-LSQ.
    pub fn new(cfg: SamieConfig) -> Self {
        cfg.validate();
        let dist = (0..cfg.banks * cfg.entries_per_bank)
            .map(|_| Entry::with_slot_capacity(cfg.slots_per_entry))
            .collect();
        let shared_cap = if cfg.shared_unbounded() {
            64
        } else {
            cfg.shared_entries
        };
        let shared = (0..shared_cap)
            .map(|_| Entry::with_slot_capacity(cfg.slots_per_entry))
            .collect();
        SamieLsq {
            cfg,
            dist,
            shared,
            abuf: VecDeque::with_capacity(cfg.abuf_slots),
            abuf_stores: 0,
            index: AgeRing::with_capacity(512),
            activity: LsqActivity::default(),
            shared_hist: vec![0; SHARED_HIST_BUCKETS],
            dist_entries_used: 0,
            dist_slots_used: 0,
            shared_entries_used: 0,
            shared_slots_used: 0,
        }
    }

    /// The paper's configuration (Table 3).
    pub fn paper() -> Self {
        SamieLsq::new(SamieConfig::paper())
    }

    /// Geometry.
    pub fn config(&self) -> &SamieConfig {
        &self.cfg
    }

    /// Per-cycle SharedLSQ occupancy histogram: `hist[n]` = cycles during
    /// which exactly `n` SharedLSQ entries were in use (last bucket
    /// saturates). Drives Figures 3 and 4.
    pub fn shared_histogram(&self) -> &[u64] {
        &self.shared_hist
    }

    /// Smallest SharedLSQ size that would have sufficed for `quantile`
    /// (e.g. 0.99) of the observed cycles — the Figure 4 statistic.
    pub fn shared_entries_for_quantile(&self, quantile: f64) -> usize {
        let total: u64 = self.shared_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let need = (total as f64 * quantile).ceil() as u64;
        let mut acc = 0;
        for (n, &c) in self.shared_hist.iter().enumerate() {
            acc += c;
            if acc >= need {
                return n;
            }
        }
        self.shared_hist.len() - 1
    }

    #[inline]
    fn bank_of(&self, line: u64) -> usize {
        (line & (self.cfg.banks as u64 - 1)) as usize
    }

    #[inline]
    fn bank_range(&self, bank: usize) -> std::ops::Range<usize> {
        bank * self.cfg.entries_per_bank..(bank + 1) * self.cfg.entries_per_bank
    }

    /// Account `k` repetitions of the parallel associative search
    /// performed when an address meets the LSQ (§3.2): the line address is
    /// compared with every in-use entry of its bank and of the SharedLSQ,
    /// and the age id with every in-use slot of those entries (one age
    /// search per in-use entry). The structures do not change between the
    /// repetitions, so they are counted once and charged `k` times.
    fn count_placement_search(&mut self, bank: usize, k: u64) {
        let (mut bank_entries, mut bank_slots) = (0u64, 0u64);
        for e in &self.dist[self.bank_range(bank)] {
            if !e.is_free() {
                bank_entries += 1;
                bank_slots += e.used_slots() as u64;
            }
        }
        let shared_entries = self.shared_entries_used as u64;
        let shared_slots = self.shared_slots_used as u64;
        // Searching an empty structure fires no match lines, so the CAM
        // precharge base is only paid when something is resident (this is
        // what keeps the SharedLSQ bars of Figure 8 near zero for the
        // integer codes, whose SharedLSQ is almost always empty).
        let a = &mut self.activity;
        if bank_entries > 0 {
            a.dist_age.searches(k * bank_entries, k * bank_slots);
            a.dist_addr.searches(k, k * bank_entries);
        }
        if shared_entries > 0 {
            a.shared_age.searches(k * shared_entries, k * shared_slots);
            a.shared_addr.searches(k, k * shared_entries);
        }
    }

    /// Find a home for `op` without mutating anything. Returns the
    /// prospective location, preferring (per §3.2): same-line entry with a
    /// free slot in the bank, then a free bank entry, then the same in the
    /// SharedLSQ, then a free/grown SharedLSQ entry. Each structure is
    /// scanned once (this runs for every buffered op every tick during a
    /// bank-conflict phase, so the scan is the promotion hot path).
    fn find_home(&self, line: u64) -> Option<Where> {
        let bank = self.bank_of(line);
        let r = self.bank_range(bank);
        let base = r.start;
        let mut free_slot = None;
        for (i, e) in self.dist[r].iter().enumerate() {
            if e.is_free() {
                if free_slot.is_none() {
                    free_slot = Some(Where::Dist {
                        entry: (base + i) as u32,
                    });
                }
            } else if e.line == line && e.used_slots() < self.cfg.slots_per_entry {
                // Same line with room, in the bank: best home.
                return Some(Where::Dist {
                    entry: (base + i) as u32,
                });
            }
        }
        if let Some(home) = free_slot {
            return Some(home);
        }
        for (i, e) in self.shared.iter().enumerate() {
            if e.is_free() {
                if free_slot.is_none() {
                    free_slot = Some(Where::Shared { entry: i as u32 });
                }
            } else if e.line == line && e.used_slots() < self.cfg.slots_per_entry {
                return Some(Where::Shared { entry: i as u32 });
            }
        }
        if free_slot.is_none() && self.cfg.shared_unbounded() {
            // Unbounded mode: grow.
            free_slot = Some(Where::Shared {
                entry: self.shared.len() as u32,
            });
        }
        free_slot
    }

    /// Materialise a placement chosen by [`Self::find_home`], accounting
    /// the writes it performs.
    fn place_at(&mut self, loc: Where, op: MemOp, data_ready: bool) {
        let line = line_index(op.mref.addr);
        let slot = Slot {
            age: op.age,
            is_store: op.is_store,
            offset: op.mref.offset(),
            size: op.mref.size,
            data_ready,
        };
        match loc {
            Where::Dist { entry } => {
                let e = &mut self.dist[entry as usize];
                if e.is_free() {
                    e.allocate(line);
                    self.dist_entries_used += 1;
                    self.activity.dist_addr.rw(1); // write the line address
                }
                debug_assert_eq!(e.line, line);
                e.insert(slot);
                self.dist_slots_used += 1;
                self.activity.dist_age_rw += 1; // write the age id
                if op.is_store && data_ready {
                    self.activity.dist_data_rw += 1; // write the store datum
                }
            }
            Where::Shared { entry } => {
                let i = entry as usize;
                if i == self.shared.len() {
                    debug_assert!(self.cfg.shared_unbounded());
                    self.shared
                        .push(Entry::with_slot_capacity(self.cfg.slots_per_entry));
                }
                let e = &mut self.shared[i];
                if e.is_free() {
                    e.allocate(line);
                    self.shared_entries_used += 1;
                    self.activity.shared_addr.rw(1);
                }
                debug_assert_eq!(e.line, line);
                e.insert(slot);
                self.shared_slots_used += 1;
                self.activity.shared_age_rw += 1;
                if op.is_store && data_ready {
                    self.activity.shared_data_rw += 1;
                }
            }
            Where::Dispatched | Where::Buffered => unreachable!("not a placement target"),
        }
        self.index.insert(op.age, OpState { op, loc });
    }

    fn entry_of(&self, loc: Where) -> &Entry {
        match loc {
            Where::Dist { entry } => &self.dist[entry as usize],
            Where::Shared { entry } => &self.shared[entry as usize],
            _ => panic!("op has no entry"),
        }
    }

    /// Remove the op of `age` at `loc` from its entry, maintaining the
    /// occupancy counters. presentBits are deliberately left set (see the
    /// trait-level protocol notes).
    fn remove_from_entry(&mut self, age: Age, loc: Where) {
        match loc {
            Where::Dist { entry } => {
                if self.dist[entry as usize].remove(age) {
                    self.dist_entries_used -= 1;
                }
                self.dist_slots_used -= 1;
            }
            Where::Shared { entry } => {
                if self.shared[entry as usize].remove(age) {
                    self.shared_entries_used -= 1;
                }
                self.shared_slots_used -= 1;
            }
            Where::Buffered => {
                let i = self
                    .abuf
                    .iter()
                    .position(|b| b.op.age == age)
                    .expect("not in AddrBuffer");
                let b = self.abuf.remove(i).expect("position is in range");
                self.abuf_stores -= b.op.is_store as usize;
            }
            Where::Dispatched => {}
        }
    }

    /// Is there an older store in the AddrBuffer whose bytes overlap this
    /// load? Such a store has not been disambiguated against anything, so
    /// the load must wait for its promotion (see the module-level
    /// ordering interpretation).
    fn older_overlapping_store_buffered(&self, load: MemOp) -> bool {
        self.abuf_stores > 0
            && self
                .abuf
                .iter()
                .any(|b| b.op.is_store && b.op.age < load.age && b.op.mref.overlaps(load.mref))
    }

    /// Forwarding scope of an op: entries holding its line in its bank and
    /// in the SharedLSQ. Returns the youngest older overlapping store.
    fn find_forwarding_store(&self, load: MemOp) -> Option<Slot> {
        let line = line_index(load.mref.addr);
        let offset = load.mref.offset();
        let bank = self.bank_of(line);
        let mut best: Option<Slot> = None;
        let consider = |best: &mut Option<Slot>, s: &Slot| {
            if best.is_none() || best.unwrap().age < s.age {
                *best = Some(*s);
            }
        };
        for e in &self.dist[self.bank_range(bank)] {
            if !e.is_free() && e.line == line {
                if let Some(s) =
                    e.youngest_older_overlapping_store(load.age, offset, load.mref.size)
                {
                    consider(&mut best, s);
                }
            }
        }
        for e in &self.shared {
            if !e.is_free() && e.line == line {
                if let Some(s) =
                    e.youngest_older_overlapping_store(load.age, offset, load.mref.size)
                {
                    consider(&mut best, s);
                }
            }
        }
        best
    }

    /// The tracked state of an in-flight op (all ops the simulator asks
    /// about are between dispatch and commit, so the lookup must hit).
    #[inline]
    fn state(&self, age: Age) -> OpState {
        *self.index.get(age).expect("unknown op")
    }

    /// Debug check backing `tick_idle`: no buffered op has a home.
    #[cfg(debug_assertions)]
    fn find_home_none_for_all_buffered(&self) -> bool {
        self.abuf
            .iter()
            .all(|b| self.find_home(line_index(b.op.mref.addr)).is_none())
    }

    #[cfg(debug_assertions)]
    fn check_counters(&self) {
        let de = self.dist.iter().filter(|e| !e.is_free()).count();
        let ds: usize = self.dist.iter().map(|e| e.used_slots()).sum();
        let se = self.shared.iter().filter(|e| !e.is_free()).count();
        let ss: usize = self.shared.iter().map(|e| e.used_slots()).sum();
        debug_assert_eq!(
            (de, ds, se, ss),
            (
                self.dist_entries_used,
                self.dist_slots_used,
                self.shared_entries_used,
                self.shared_slots_used
            ),
            "occupancy counters out of sync"
        );
    }
}

impl LoadStoreQueue for SamieLsq {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "samie"
    }

    fn can_dispatch(&self, _is_store: bool) -> bool {
        // SAMIE does not gate dispatch: placement happens at
        // address-compute time (§3.2); the ROB bounds in-flight ops.
        true
    }

    fn dispatch(&mut self, op: MemOp) {
        let prev = self.index.insert(
            op.age,
            OpState {
                op,
                loc: Where::Dispatched,
            },
        );
        debug_assert!(prev.is_none(), "duplicate age {}", op.age);
    }

    fn address_ready(&mut self, age: Age) -> PlaceOutcome {
        let st = self.state(age);
        debug_assert_eq!(st.loc, Where::Dispatched, "address_ready on a placed op");
        let line = line_index(st.op.mref.addr);
        let bank = self.bank_of(line);
        // The address travels the distribution bus and is compared in
        // parallel against the bank and the SharedLSQ (§3.2).
        self.activity.bus_sends += 1;
        self.count_placement_search(bank, 1);
        if let Some(loc) = self.find_home(line) {
            self.place_at(loc, st.op, false);
            PlaceOutcome::Placed
        } else if self.abuf.len() < self.cfg.abuf_slots {
            self.abuf.push_back(BufOp {
                op: st.op,
                data_ready: false,
            });
            self.abuf_stores += st.op.is_store as usize;
            self.index.insert(
                age,
                OpState {
                    op: st.op,
                    loc: Where::Buffered,
                },
            );
            self.activity.abuf_data_rw += 1; // write address + metadata
            self.activity.abuf_age_rw += 1; // write age id
            self.activity.abuf_inserts += 1;
            PlaceOutcome::Buffered
        } else {
            // Nowhere to go: the simulator must flush (§3.3).
            PlaceOutcome::NoSpace
        }
    }

    fn store_executed(&mut self, age: Age) {
        let st = self.state(age);
        debug_assert!(st.op.is_store);
        match st.loc {
            Where::Dist { entry } => {
                self.dist[entry as usize]
                    .slot_mut(age)
                    .expect("store slot")
                    .data_ready = true;
                self.activity.dist_data_rw += 1;
            }
            Where::Shared { entry } => {
                self.shared[entry as usize]
                    .slot_mut(age)
                    .expect("store slot")
                    .data_ready = true;
                self.activity.shared_data_rw += 1;
            }
            Where::Buffered => {
                let b = self
                    .abuf
                    .iter_mut()
                    .find(|b| b.op.age == age)
                    .expect("buffered store");
                // The datum waits in the ROB; written to the LSQ at promotion.
                b.data_ready = true;
            }
            Where::Dispatched => {
                unreachable!("store_executed before address_ready")
            }
        }
    }

    fn load_forward_status(&mut self, age: Age) -> ForwardStatus {
        let st = self.state(age);
        debug_assert!(!st.op.is_store);
        match st.loc {
            Where::Buffered | Where::Dispatched => return ForwardStatus::Wait,
            _ => {}
        }
        if self.older_overlapping_store_buffered(st.op) {
            return ForwardStatus::Wait;
        }
        match self.find_forwarding_store(st.op) {
            None => ForwardStatus::AccessCache,
            Some(s) => {
                let covers = s.offset <= st.op.mref.offset()
                    && s.offset + s.size as u32 >= st.op.mref.offset() + st.op.mref.size as u32;
                if covers && s.data_ready {
                    ForwardStatus::Forward { store: s.age }
                } else {
                    ForwardStatus::Wait
                }
            }
        }
    }

    fn take_forward(&mut self, load: Age, store: Age) {
        debug_assert!(store < load);
        // Read the store's datum out of its structure.
        match self.state(store).loc {
            Where::Dist { .. } => self.activity.dist_data_rw += 1,
            Where::Shared { .. } => self.activity.shared_data_rw += 1,
            _ => unreachable!("forwarding store must be placed"),
        }
        self.activity.forwards += 1;
    }

    fn cache_access_plan(&mut self, age: Age) -> CachePlan {
        let st = self.state(age);
        let (loc, translation, is_shared) = match st.loc {
            Where::Dist { entry } => {
                let e = &self.dist[entry as usize];
                (e.cached_loc, e.translation_cached, false)
            }
            Where::Shared { entry } => {
                let e = &self.shared[entry as usize];
                (e.cached_loc, e.translation_cached, true)
            }
            _ => return CachePlan::default(),
        };
        // Reading the cached fields out of the entry is activity.
        if loc.is_some() {
            if is_shared {
                self.activity.shared_lineid_rw += 1;
            } else {
                self.activity.dist_lineid_rw += 1;
            }
        }
        if translation {
            if is_shared {
                self.activity.shared_tlb_rw += 1;
            } else {
                self.activity.dist_tlb_rw += 1;
            }
        }
        CachePlan {
            location: loc,
            translation,
        }
    }

    fn note_cache_access(&mut self, age: Age, set: u32, way: u32) -> bool {
        let st = self.state(age);
        let (entry, is_shared) = match st.loc {
            Where::Dist { entry } => (&mut self.dist[entry as usize], false),
            Where::Shared { entry } => (&mut self.shared[entry as usize], true),
            _ => unreachable!("a buffered op cannot access the cache"),
        };
        if entry.cached_loc.is_some() {
            return false;
        }
        entry.cached_loc = Some((set, way));
        let newly_translated = !entry.translation_cached;
        entry.translation_cached = true;
        if is_shared {
            self.activity.shared_lineid_rw += 1;
            if newly_translated {
                self.activity.shared_tlb_rw += 1;
            }
        } else {
            self.activity.dist_lineid_rw += 1;
            if newly_translated {
                self.activity.dist_tlb_rw += 1;
            }
        }
        true
    }

    fn load_data_arrived(&mut self, age: Age) {
        match self.state(age).loc {
            Where::Dist { .. } => self.activity.dist_data_rw += 1,
            Where::Shared { .. } => self.activity.shared_data_rw += 1,
            _ => unreachable!("a buffered load cannot receive data"),
        }
    }

    fn on_line_replaced(&mut self, set: u32, way: u32) {
        // §3.4: the replaced physical location `(set, way)` is broadcast
        // and every entry caching exactly that location drops it (the
        // translation survives). This is the paper's cheap alternative to
        // comparing the replaced *line address* against the LSQ: the
        // location compare is ~12 bits and needs no address CAM, and any
        // entry matching the location necessarily referred to the
        // replaced line.
        for e in self.dist.iter_mut().chain(self.shared.iter_mut()) {
            if e.cached_loc == Some((set, way)) {
                e.cached_loc = None;
            }
        }
    }

    fn commit(&mut self, age: Age) {
        let st = self.index.remove(age).expect("commit of unknown op");
        assert!(
            !matches!(st.loc, Where::Buffered | Where::Dispatched),
            "only placed ops can commit (the simulator flushes a buffered ROB head)"
        );
        if st.op.is_store {
            // Datum read out on its way to the cache.
            match st.loc {
                Where::Dist { .. } => self.activity.dist_data_rw += 1,
                Where::Shared { .. } => self.activity.shared_data_rw += 1,
                _ => unreachable!(),
            }
        }
        self.remove_from_entry(age, st.loc);
        #[cfg(debug_assertions)]
        self.check_counters();
    }

    fn squash_younger(&mut self, age: Age) {
        let doomed: Vec<(Age, Where)> = self
            .index
            .iter()
            .filter(|&(a, _)| a > age)
            .map(|(a, s)| (a, s.loc))
            .collect();
        for (a, loc) in doomed {
            self.index.remove(a);
            self.remove_from_entry(a, loc);
        }
        #[cfg(debug_assertions)]
        self.check_counters();
    }

    fn flush_all(&mut self) {
        self.index.clear();
        self.abuf.clear();
        self.abuf_stores = 0;
        for e in self.dist.iter_mut().chain(self.shared.iter_mut()) {
            e.slots.clear();
            e.cached_loc = None;
            e.translation_cached = false;
        }
        self.dist_entries_used = 0;
        self.dist_slots_used = 0;
        self.shared_entries_used = 0;
        self.shared_slots_used = 0;
    }

    fn is_buffered(&self, age: Age) -> bool {
        self.index
            .get(age)
            .is_some_and(|s| s.loc == Where::Buffered)
    }

    fn tick(&mut self, promoted: &mut Vec<Age>) {
        // AddrBuffer promotion: oldest-first scan with priority over newly
        // computed addresses (§3.2). An unplaceable op does not block the
        // ops behind it — the buffer is scanned in order and every op
        // whose bank/SharedLSQ has room leaves. (A strictly head-blocking
        // FIFO would turn any sustained bank conflict into a continuous
        // deadlock-flush loop; the paper's deadlock rates — at most a few
        // hundred per million cycles while the AddrBuffer holds dozens of
        // ops for whole program phases — are only consistent with
        // non-blocking drainage. The scan needs no associative search,
        // preserving the paper's "simple FIFO" complexity argument.)
        let mut i = 0;
        while i < self.abuf.len() {
            let cand = self.abuf[i];
            let line = line_index(cand.op.mref.addr);
            let Some(loc) = self.find_home(line) else {
                i += 1;
                continue;
            };
            self.abuf.remove(i);
            self.abuf_stores -= cand.op.is_store as usize;
            // The promoted instruction performs the same associative
            // search a newly arrived address would (but no bus transfer:
            // the AddrBuffer sits next to the queues).
            let bank = self.bank_of(line);
            self.count_placement_search(bank, 1);
            self.place_at(loc, cand.op, cand.data_ready);
            // Reading the op back out of the AddrBuffer.
            self.activity.abuf_data_rw += 1;
            self.activity.abuf_age_rw += 1;
            promoted.push(cand.op.age);
        }

        // Occupancy integration.
        let occ = &mut self.activity.occupancy;
        occ.cycles += 1;
        occ.dist_entries += self.dist_entries_used as u64;
        occ.dist_slots += self.dist_slots_used as u64;
        occ.shared_entries += self.shared_entries_used as u64;
        occ.shared_slots += self.shared_slots_used as u64;
        occ.abuf_slots += self.abuf.len() as u64;
        if !self.abuf.is_empty() {
            self.activity.abuf_busy_cycles += 1;
        }
        let bucket = self.shared_entries_used.min(SHARED_HIST_BUCKETS - 1);
        self.shared_hist[bucket] += 1;
    }

    fn tick_idle(&mut self, k: u64) {
        // The caller guarantees the previous tick promoted nothing and no
        // state changed since, and promotion eligibility depends only on
        // LSQ state — so k idle ticks are exactly k occupancy
        // integrations with unchanged occupancy (and no search activity:
        // a failed promotion scan charges nothing).
        #[cfg(debug_assertions)]
        debug_assert!(
            self.abuf.is_empty() || self.find_home_none_for_all_buffered(),
            "tick_idle while a buffered op could promote"
        );
        let occ = &mut self.activity.occupancy;
        occ.cycles += k;
        occ.dist_entries += self.dist_entries_used as u64 * k;
        occ.dist_slots += self.dist_slots_used as u64 * k;
        occ.shared_entries += self.shared_entries_used as u64 * k;
        occ.shared_slots += self.shared_slots_used as u64 * k;
        occ.abuf_slots += self.abuf.len() as u64 * k;
        if !self.abuf.is_empty() {
            self.activity.abuf_busy_cycles += k;
        }
        let bucket = self.shared_entries_used.min(SHARED_HIST_BUCKETS - 1);
        self.shared_hist[bucket] += k;
    }

    fn refuse_idle(&mut self, age: Age, k: u64) {
        // A refusal changes no state, so under the caller's guarantee each
        // of the k refusals sends the address over the bus and repeats the
        // same placement search against the same residents.
        let st = self.state(age);
        let line = line_index(st.op.mref.addr);
        debug_assert_eq!(st.loc, Where::Dispatched, "refuse_idle on a placed op");
        debug_assert!(
            self.find_home(line).is_none() && self.abuf.len() == self.cfg.abuf_slots,
            "refuse_idle for an address SAMIE accepts"
        );
        self.activity.bus_sends += k;
        self.count_placement_search(self.bank_of(line), k);
    }

    fn activity(&self) -> &LsqActivity {
        &self.activity
    }

    fn reset_activity(&mut self) {
        self.activity = LsqActivity::default();
        self.shared_hist.fill(0);
    }

    fn occupancy(&self) -> LsqOccupancy {
        LsqOccupancy {
            conv_entries: 0,
            dist_entries: self.dist_entries_used,
            dist_slots: self.dist_slots_used,
            shared_entries: self.shared_entries_used,
            shared_slots: self.shared_slots_used,
            addr_buffer: self.abuf.len(),
        }
    }
}

impl SamieLsq {
    /// The line address an op's entry is keyed by (test helper).
    #[doc(hidden)]
    pub fn entry_line_of(&self, age: Age) -> Option<u64> {
        let st = self.index.get(age)?;
        match st.loc {
            Where::Dist { .. } | Where::Shared { .. } => Some(self.entry_of(st.loc).line),
            _ => None,
        }
    }

    /// Is the op currently in the SharedLSQ (test helper)?
    #[doc(hidden)]
    pub fn is_in_shared(&self, age: Age) -> bool {
        matches!(
            self.index.get(age).map(|s| s.loc),
            Some(Where::Shared { .. })
        )
    }

    /// Is the op currently in the DistribLSQ (test helper)?
    #[doc(hidden)]
    pub fn is_in_dist(&self, age: Age) -> bool {
        matches!(self.index.get(age).map(|s| s.loc), Some(Where::Dist { .. }))
    }

    /// `(set, way)` cached by the op's entry, if any (test helper).
    #[doc(hidden)]
    pub fn entry_cached_loc(&self, age: Age) -> Option<(u32, u32)> {
        let st = self.index.get(age)?;
        match st.loc {
            Where::Dist { .. } | Where::Shared { .. } => self.entry_of(st.loc).cached_loc,
            _ => None,
        }
    }

    /// Build a [`MemOp`] helper used pervasively in tests.
    #[doc(hidden)]
    pub fn mem_op(age: Age, is_store: bool, addr: u64, size: u8) -> MemOp {
        let mref = MemRef::new(addr, size);
        if is_store {
            MemOp::store(age, mref)
        } else {
            MemOp::load(age, mref)
        }
    }
}
