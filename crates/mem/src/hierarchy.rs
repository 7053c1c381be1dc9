//! Composed data-memory hierarchy: D-TLB + L1 D-cache + unified L2.
//!
//! This is the path every load execution and store commit takes in the
//! simulator. It supports the two access modes the paper contrasts:
//!
//! * **Conventional** — D-TLB translation, then an all-way tag-compared
//!   L1D access (1009 pJ in the paper's model), falling through to L2 and
//!   memory on misses.
//! * **Way-known** — the SAMIE LSQ entry has already cached both the
//!   translation and the physical line location, so the D-TLB is bypassed
//!   and a single L1D way is read with no tag check (276 pJ). By the
//!   presentBit contract such an access always hits.

use crate::cache::{AccessKind, Cache, CacheConfig, Eviction};
use crate::page::PageTable;
use crate::tlb::Tlb;
use trace_isa::addr::page_number;

/// How a data access is performed (paper §3.4).
///
/// The two SAMIE cachings are independent: the line location is
/// invalidated when the line is replaced, the translation is not. So an
/// op may skip the D-TLB yet still need a full tag-compared cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcacheAccessMode {
    /// `(set, way)` for a single-way, no-tag-check access; `None` for a
    /// full all-way access.
    pub way_known: Option<(u32, u32)>,
    /// Whether the D-TLB must be consulted (`false` when the translation
    /// is cached in the LSQ entry — or when the way is known, which
    /// implies it).
    pub translate: bool,
}

impl DcacheAccessMode {
    /// Conventional access: D-TLB + all ways + tag compare.
    pub const CONVENTIONAL: Self = DcacheAccessMode {
        way_known: None,
        translate: true,
    };

    /// Way-known access at `(set, way)`; D-TLB bypassed.
    pub fn way_known(set: u32, way: u32) -> Self {
        DcacheAccessMode {
            way_known: Some((set, way)),
            translate: false,
        }
    }

    /// Full cache access with the translation cached (D-TLB bypassed).
    pub const TRANSLATION_CACHED: Self = DcacheAccessMode {
        way_known: None,
        translate: false,
    };
}

/// Result of a data access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Total access latency in cycles (TLB walk + cache levels).
    pub latency: u32,
    /// Did the access hit in L1D?
    pub l1_hit: bool,
    /// L1D set of the (now-resident) line.
    pub set: u32,
    /// L1D way of the (now-resident) line.
    pub way: u32,
    /// Did the D-TLB hit (`None` when it was bypassed)?
    pub tlb_hit: Option<bool>,
    /// L1D line evicted by this access, if any — the simulator forwards
    /// this to the LSQ so cached locations can be invalidated.
    pub evicted: Option<Eviction>,
}

/// Configuration of the composed hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct DataMemoryConfig {
    /// L1 D-cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main-memory latency after an L2 miss (Table 2: 100 cycles).
    pub mem_latency: u32,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// D-TLB miss walk penalty.
    pub dtlb_miss_penalty: u32,
}

impl Default for DataMemoryConfig {
    fn default() -> Self {
        DataMemoryConfig {
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            mem_latency: 100,
            dtlb_entries: 128,
            dtlb_miss_penalty: 30,
        }
    }
}

impl DataMemoryConfig {
    /// Canonical rendition of the whole hierarchy configuration for
    /// experiment-store cache keys; every field participates.
    pub fn canonical(&self) -> String {
        format!(
            "l1d={},l2={},mem={},tlb={}x{}",
            self.l1d.canonical(),
            self.l2.canonical(),
            self.mem_latency,
            self.dtlb_entries,
            self.dtlb_miss_penalty
        )
    }

    /// Latency of the slowest single access this hierarchy can serve: a
    /// D-TLB walk plus misses in L1 and L2 down to main memory.
    pub fn worst_access_latency(&self) -> u64 {
        u64::from(self.dtlb_miss_penalty)
            + u64::from(self.l1d.hit_latency)
            + u64::from(self.l2.hit_latency)
            + u64::from(self.mem_latency)
    }
}

/// D-TLB + L1D + L2 composition.
#[derive(Debug, Clone)]
pub struct DataMemory {
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    page_table: PageTable,
    mem_latency: u32,
}

impl DataMemory {
    /// Build the hierarchy from a configuration.
    pub fn new(cfg: DataMemoryConfig) -> Self {
        DataMemory {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.dtlb_miss_penalty),
            page_table: PageTable::new(),
            mem_latency: cfg.mem_latency,
        }
    }

    /// The paper's configuration (Table 2).
    pub fn paper() -> Self {
        DataMemory::new(DataMemoryConfig::default())
    }

    /// Perform a data access.
    ///
    /// `addr` is virtual; caches are indexed with it directly (the
    /// first-touch page table is identity-like for indexing purposes, and
    /// the paper's energy/occupancy results do not depend on physical
    /// indexing).
    pub fn access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        mode: DcacheAccessMode,
    ) -> MemAccessResult {
        if let Some((set, way)) = mode.way_known {
            debug_assert!(
                !mode.translate,
                "a way-known access implies a cached translation"
            );
            self.l1d.access_way_known(addr, set, way, kind);
            return MemAccessResult {
                latency: self.l1d.config().hit_latency,
                l1_hit: true,
                set,
                way,
                tlb_hit: None,
                evicted: None,
            };
        }
        let (tlb_hit, tlb_penalty) = if mode.translate {
            let t = self.dtlb.translate(page_number(addr), &mut self.page_table);
            (
                Some(t.hit),
                if t.hit { 0 } else { self.dtlb.miss_penalty() },
            )
        } else {
            (None, 0)
        };
        let l1 = self.l1d.access(addr, kind);
        let mut latency = self.l1d.config().hit_latency + tlb_penalty;
        if !l1.hit {
            let l2 = self.l2.access(addr, kind);
            latency += self.l2.config().hit_latency;
            if !l2.hit {
                latency += self.mem_latency;
            }
        }
        MemAccessResult {
            latency,
            l1_hit: l1.hit,
            set: l1.set,
            way: l1.way,
            tlb_hit,
            evicted: l1.evicted,
        }
    }

    /// Mark the L1D line at `(set, way)` as location-cached in an LSQ entry.
    pub fn set_present_bit(&mut self, set: u32, way: u32) {
        self.l1d.set_present_bit(set, way);
    }

    /// Clear an L1D presentBit (the caching LSQ entry went away).
    pub fn clear_present_bit(&mut self, set: u32, way: u32) {
        self.l1d.clear_present_bit(set, way);
    }

    /// L1 D-cache (stats, probes).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// D-TLB.
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Reset all statistics after warm-up (contents preserved).
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.dtlb.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_pays_full_latency() {
        let mut m = DataMemory::paper();
        let r = m.access(0x10000, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        assert!(!r.l1_hit);
        assert_eq!(r.tlb_hit, Some(false));
        // 2 (L1) + 30 (TLB walk) + 10 (L2 hit lat) + 100 (mem)
        assert_eq!(r.latency, 142);
        assert_eq!(
            u64::from(r.latency),
            DataMemoryConfig::default().worst_access_latency()
        );
    }

    #[test]
    fn warm_access_is_l1_hit_latency() {
        let mut m = DataMemory::paper();
        m.access(0x10000, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        let r = m.access(0x10008, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        assert!(r.l1_hit);
        assert_eq!(r.tlb_hit, Some(true));
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = DataMemory::paper();
        let base = 0x10000u64;
        m.access(base, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        // Evict from 8KB 4-way L1 by touching 4 more lines in the same set
        // (set stride = 64 sets * 32 B = 2 KB); all still fit in 512 KB L2.
        for i in 1..=4 {
            m.access(
                base + i * 2048,
                AccessKind::Read,
                DcacheAccessMode::CONVENTIONAL,
            );
        }
        let r = m.access(base, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        assert!(!r.l1_hit);
        // 2 + 10 (L2 hit), TLB warm
        assert_eq!(r.latency, 12);
    }

    #[test]
    fn way_known_access_bypasses_tlb_and_hits() {
        let mut m = DataMemory::paper();
        let r0 = m.access(0x4000, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        m.set_present_bit(r0.set, r0.way);
        let dtlb_accesses = m.dtlb().accesses();
        let r = m.access(
            0x4008,
            AccessKind::Read,
            DcacheAccessMode::way_known(r0.set, r0.way),
        );
        assert!(r.l1_hit);
        assert_eq!(r.latency, 2);
        assert_eq!(r.tlb_hit, None);
        assert_eq!(m.dtlb().accesses(), dtlb_accesses, "TLB must be bypassed");
        assert_eq!(m.l1d().stats().way_known_accesses, 1);
    }

    #[test]
    fn eviction_surfaces_present_bit() {
        let mut m = DataMemory::paper();
        let base = 0x10000u64;
        let r0 = m.access(base, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        m.set_present_bit(r0.set, r0.way);
        let mut seen_present_eviction = false;
        for i in 1..=4 {
            let r = m.access(
                base + i * 2048,
                AccessKind::Read,
                DcacheAccessMode::CONVENTIONAL,
            );
            if let Some(ev) = r.evicted {
                if ev.present_bit {
                    assert_eq!(ev.line_addr, base);
                    seen_present_eviction = true;
                }
            }
        }
        assert!(
            seen_present_eviction,
            "evicting a present line must report it"
        );
    }

    #[test]
    fn reset_stats_clears_counters_not_contents() {
        let mut m = DataMemory::paper();
        m.access(0x1000, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        m.reset_stats();
        assert_eq!(m.l1d().stats().accesses(), 0);
        assert_eq!(m.dtlb().accesses(), 0);
        let r = m.access(0x1000, AccessKind::Read, DcacheAccessMode::CONVENTIONAL);
        assert!(r.l1_hit, "contents survive a stats reset");
    }
}
