//! The composed memory hierarchy: L1I + L1D + L2 + prefetcher + TLB + DRAM.

use crate::tlb::Translation;
use crate::{
    Cache, CacheConfig, Dram, DramConfig, StridePrefetcher, StridePrefetcherConfig, Tlb, TlbConfig,
};
use serde::{Deserialize, Serialize};

/// Configuration of the whole hierarchy; defaults follow Table I of the
/// paper (32 KB/2-way/1-cycle L1D, 48 KB/3-way/1-cycle L1I, 1 MB/16-way/
/// 12-cycle L2, stride prefetcher of degree 1, 48-entry TLB, DDR3-1600).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Data prefetcher.
    pub prefetcher: StridePrefetcherConfig,
    /// Data TLB.
    pub tlb: TlbConfig,
    /// Main memory.
    pub dram: DramConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 2,
                line_bytes: 64,
                latency: 1,
            },
            l1i: CacheConfig {
                size_bytes: 48 * 1024,
                assoc: 3,
                line_bytes: 64,
                latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                latency: 12,
            },
            prefetcher: StridePrefetcherConfig::default(),
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
        }
    }
}

/// Outcome of a data access that may fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataAccess {
    /// Access completed with the given total latency in cycles.
    Done(u32),
    /// The page faults; the access must raise a precise exception.
    Fault,
}

/// The composed timing model for instruction and data accesses.
///
/// # Examples
///
/// ```
/// use regshare_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
/// let lat = mem.access_inst(0, 0);
/// assert!(lat >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    prefetcher: StridePrefetcher,
    tlb: Tlb,
    dram: Dram,
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1d: Cache::new("l1d", config.l1d),
            l1i: Cache::new("l1i", config.l1i),
            l2: Cache::new("l2", config.l2),
            prefetcher: StridePrefetcher::new(config.prefetcher),
            tlb: Tlb::new(config.tlb),
            dram: Dram::new(config.dram),
        }
    }

    /// Instruction fetch at byte address `pc_addr`, at time `now`. Returns
    /// the fetch latency in cycles.
    pub fn access_inst(&mut self, pc_addr: u64, now: u64) -> u32 {
        let mut latency = self.l1i.latency();
        if !self.l1i.access(pc_addr, false) {
            latency += self.l2.latency();
            if !self.l2.access(pc_addr, false) {
                latency += self.dram.access(pc_addr, now + latency as u64);
            }
        }
        latency
    }

    /// Instruction-fetch access on the functional-warming path: updates
    /// line and row state, computes no latency.
    pub fn warm_inst(&mut self, pc_addr: u64) {
        if !self.l1i.access(pc_addr, false) && !self.l2.access(pc_addr, false) {
            self.dram.touch(pc_addr);
        }
    }

    /// Data access on the functional-warming path: trains the TLB, the
    /// caches and the prefetcher exactly like [`MemoryHierarchy::
    /// access_data`] — same lines resident, same rows open, same
    /// prefetches issued — but skips every latency computation and
    /// therefore needs no clock. Timing state (bank busy times) is
    /// window-local and reset at the warm/detailed handoff.
    pub fn warm_data(&mut self, pc_addr: u64, addr: u64, is_write: bool) {
        match self.tlb.translate(addr) {
            Translation::Hit | Translation::Miss { .. } => {}
            Translation::Fault => return,
        }
        if !self.l1d.access(addr, is_write) && !self.l2.access(addr, is_write) {
            self.dram.touch(addr);
        }
        if !is_write {
            for &target in self.prefetcher.observe(pc_addr, addr).as_slice() {
                if !self.l1d.probe(target) {
                    self.l2.fill(target);
                    self.l1d.fill(target);
                }
            }
        }
    }

    /// Data access by the memory instruction at byte PC `pc_addr` to
    /// address `addr` at time `now`. Returns the total latency in cycles.
    ///
    /// Faulting pages are *not* checked here — speculative execution uses
    /// [`MemoryHierarchy::access_data_checked`] so faults can be deferred.
    pub fn access_data(&mut self, pc_addr: u64, addr: u64, is_write: bool, now: u64) -> u32 {
        match self.access_data_checked(pc_addr, addr, is_write, now) {
            DataAccess::Done(lat) => lat,
            DataAccess::Fault => {
                // Fault pending: the access itself still takes the TLB-walk
                // time before the fault is detected.
                self.tlb.config().walk_latency
            }
        }
    }

    /// Like [`MemoryHierarchy::access_data`] but reports page faults
    /// instead of timing them.
    pub fn access_data_checked(
        &mut self,
        pc_addr: u64,
        addr: u64,
        is_write: bool,
        now: u64,
    ) -> DataAccess {
        let mut latency = 0u32;
        match self.tlb.translate(addr) {
            Translation::Hit => {}
            Translation::Miss { walk_latency } => latency += walk_latency,
            Translation::Fault => return DataAccess::Fault,
        }
        latency += self.l1d.latency();
        if !self.l1d.access(addr, is_write) {
            latency += self.l2.latency();
            if !self.l2.access(addr, is_write) {
                latency += self.dram.access(addr, now + latency as u64);
            }
        }
        // Train the prefetcher on demand loads and fill without charging
        // the demand access (prefetch proceeds in the background).
        if !is_write {
            for &target in self.prefetcher.observe(pc_addr, addr).as_slice() {
                if !self.l1d.probe(target) {
                    self.l2.fill(target);
                    self.l1d.fill(target);
                }
            }
        }
        DataAccess::Done(latency)
    }

    /// The data TLB (for fault injection and statistics).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Mutable access to the data TLB (for fault injection).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// L1 data cache statistics.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// L1 instruction cache statistics.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// L2 statistics.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// DRAM statistics.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Prefetcher statistics.
    pub fn prefetcher(&self) -> &StridePrefetcher {
        &self.prefetcher
    }

    /// Clears hit/miss statistics on every level while keeping all resident
    /// lines, TLB mappings and predictor state. A measurement window seeded
    /// from a functionally-warmed hierarchy calls this so its report covers
    /// only the window's own traffic.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l1i.reset_stats();
        self.l2.reset_stats();
        self.tlb.reset_stats();
        self.dram.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::default())
    }

    #[test]
    fn cold_access_reaches_dram_and_warms_caches() {
        let mut m = hier();
        let cold = m.access_data(0, 0x10000, false, 0);
        // cold: TLB walk + L1 + L2 + DRAM
        assert!(cold > 40);
        let warm = m.access_data(0, 0x10000, false, cold as u64);
        // warm: L1 hit, TLB hit
        assert_eq!(warm, 1);
    }

    #[test]
    fn l2_hit_is_between_l1_and_dram() {
        let mut m = hier();
        let a = 0x2000u64;
        m.access_data(0, a, false, 0); // warm L2+L1
                                       // Evict from L1 by filling its set: L1D is 2-way, sets = 256 lines.
        let l1_sets = 32 * 1024 / 64 / 2;
        m.access_data(0, a + (l1_sets * 64) as u64, false, 0);
        m.access_data(0, a + (2 * l1_sets * 64) as u64, false, 0);
        let lat = m.access_data(0, a, false, 0);
        assert_eq!(lat, 1 + 12); // L1 miss, L2 hit
    }

    #[test]
    fn instruction_fetches_use_l1i() {
        let mut m = hier();
        let cold = m.access_inst(0x40, 0);
        let warm = m.access_inst(0x44, cold as u64);
        assert!(cold > warm);
        assert_eq!(warm, 1);
        assert_eq!(m.l1i().hit_ratio().total(), 2);
        assert_eq!(m.l1d().hit_ratio().total(), 0);
    }

    #[test]
    fn prefetcher_hides_strided_misses() {
        let mut m = hier();
        let mut now = 0u64;
        let mut misses_late = 0;
        for i in 0..64u64 {
            let lat = m.access_data(0x100, 0x8000 + i * 64, false, now);
            now += lat as u64;
            if i >= 8 && lat > 1 + 30 {
                misses_late += 1;
            }
        }
        // After warmup, the stride prefetcher covers the stream.
        assert_eq!(misses_late, 0);
        assert!(m.prefetcher().issued() > 0);
    }

    #[test]
    fn faulting_page_reports_fault() {
        let mut m = hier();
        m.tlb_mut().inject_fault(0x7000);
        assert_eq!(
            m.access_data_checked(0, 0x7000, false, 0),
            DataAccess::Fault
        );
        // Non-checked variant degrades to a latency.
        let lat = m.access_data(0, 0x7008, false, 0);
        assert!(lat > 0);
    }

    #[test]
    fn writes_hit_and_mark_dirty() {
        let mut m = hier();
        m.access_data(0, 0x3000, true, 0);
        let lat = m.access_data(0, 0x3000, true, 100);
        assert_eq!(lat, 1);
    }
}
