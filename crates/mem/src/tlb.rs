//! Fully-associative TLB with page-walk latency and page-fault injection.

use regshare_stats::{FastHashMap, FastHashSet, Ratio};
use serde::{Deserialize, Serialize};

/// TLB configuration.
///
/// Defaults model the paper's 48-entry fully-associative L1 TLB; the walk
/// penalty abstracts the hardware page-table walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes (a power of two).
    pub page_bytes: u64,
    /// Extra latency of a TLB miss (page-table walk), in cycles.
    pub walk_latency: u32,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            entries: 48,
            page_bytes: 4096,
            walk_latency: 30,
        }
    }
}

/// Result of a TLB translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Mapping present; no extra latency.
    Hit,
    /// Mapping filled by a page walk; pay the walk latency.
    Miss {
        /// Cycles spent walking the page table.
        walk_latency: u32,
    },
    /// The page is configured to fault; the access must raise a precise
    /// exception.
    Fault,
}

/// A fully-associative, LRU translation look-aside buffer.
///
/// Pages registered with [`Tlb::inject_fault`] report [`Translation::Fault`]
/// on their next access and are then automatically "repaired" (the fault
/// set is one-shot) — this is the hook the test suite uses to exercise
/// precise-exception recovery in the renaming schemes.
///
/// # Examples
///
/// ```
/// use regshare_mem::{Tlb, TlbConfig};
/// use regshare_mem::Translation;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(matches!(tlb.translate(0x1000), Translation::Miss { .. }));
/// assert_eq!(tlb.translate(0x1008), Translation::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// `log2(page_bytes)`, precomputed so the hot page split avoids a
    /// runtime division by a dynamically-known divisor.
    page_shift: u32,
    /// (page number, lru stamp)
    entries: Vec<(u64, u64)>,
    /// page number → index in `entries`. A pure lookup accelerator for
    /// the associative search; kept exactly in sync across fills and
    /// `swap_remove` evictions.
    index: FastHashMap<u64, usize>,
    stamp: u64,
    /// Most-recently translated page. Consecutive accesses to the same
    /// page skip the associative search *and* the stamp bump: no other
    /// entry is touched between the repeats, so relative LRU order — and
    /// therefore every future eviction decision — is unchanged.
    last_page: Option<u64>,
    hits: Ratio,
    faulting_pages: FastHashSet<u64>,
    faults_taken: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is 0.
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(config.entries > 0, "TLB must have at least one entry");
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            entries: Vec::with_capacity(config.entries),
            index: FastHashMap::default(),
            stamp: 0,
            last_page: None,
            hits: Ratio::new("tlb"),
            faulting_pages: FastHashSet::default(),
            faults_taken: 0,
        }
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Marks the page containing `addr` to fault on its next access.
    pub fn inject_fault(&mut self, addr: u64) {
        let page = self.page_of(addr);
        self.faulting_pages.insert(page);
        // The fast path must not bypass the fault check for this page.
        if self.last_page == Some(page) {
            self.last_page = None;
        }
    }

    /// Checks whether the page containing `addr` would fault, without
    /// changing any state (used by speculative accesses that must defer
    /// the fault to commit).
    pub fn would_fault(&self, addr: u64) -> bool {
        self.faulting_pages.contains(&self.page_of(addr))
    }

    /// Consumes the pending fault for the page containing `addr` (called
    /// when the faulting instruction reaches commit and the handler runs).
    /// Returns whether a fault was pending.
    pub fn take_fault(&mut self, addr: u64) -> bool {
        let page = self.page_of(addr);
        let had = self.faulting_pages.remove(&page);
        if had {
            self.faults_taken += 1;
        }
        had
    }

    /// Translates `addr`, updating LRU state and filling on miss.
    pub fn translate(&mut self, addr: u64) -> Translation {
        let page = self.page_of(addr);
        if self.last_page == Some(page) {
            self.hits.record(true);
            return Translation::Hit;
        }
        // The emptiness check keeps the (rare) fault machinery off the
        // hot translate path: most runs never inject a fault.
        if !self.faulting_pages.is_empty() && self.faulting_pages.contains(&page) {
            return Translation::Fault;
        }
        self.last_page = Some(page);
        self.stamp += 1;
        if let Some(&i) = self.index.get(&page) {
            self.entries[i].1 = self.stamp;
            self.hits.record(true);
            return Translation::Hit;
        }
        self.hits.record(false);
        if self.entries.len() == self.config.entries {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
                .expect("TLB non-empty when full");
            let (evicted, _) = self.entries.swap_remove(victim);
            self.index.remove(&evicted);
            // swap_remove moved the former last entry into `victim`.
            if victim < self.entries.len() {
                self.index.insert(self.entries[victim].0, victim);
            }
        }
        self.index.insert(page, self.entries.len());
        self.entries.push((page, self.stamp));
        Translation::Miss {
            walk_latency: self.config.walk_latency,
        }
    }

    /// Hit-rate statistics (faults are not counted as accesses).
    pub fn hit_ratio(&self) -> &Ratio {
        &self.hits
    }

    /// Clears access statistics, keeping the translation state. Used when
    /// a functionally-warmed TLB is handed to a measurement window.
    pub fn reset_stats(&mut self) {
        self.hits.reset();
        self.faults_taken = 0;
    }

    /// Number of faults taken at commit.
    pub fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            walk_latency: 30,
        })
    }

    #[test]
    fn miss_then_hit_within_page() {
        let mut t = small();
        assert_eq!(t.translate(0), Translation::Miss { walk_latency: 30 });
        assert_eq!(t.translate(4095), Translation::Hit);
        assert_eq!(t.translate(4096), Translation::Miss { walk_latency: 30 });
    }

    #[test]
    fn lru_eviction() {
        let mut t = small();
        t.translate(0); // page 0
        t.translate(4096); // page 1
        t.translate(0); // refresh page 0
        t.translate(8192); // page 2 evicts page 1
        assert_eq!(t.translate(0), Translation::Hit);
        assert!(matches!(t.translate(4096), Translation::Miss { .. }));
    }

    #[test]
    fn fault_injection_is_one_shot() {
        let mut t = small();
        t.inject_fault(0x5000);
        assert!(t.would_fault(0x5008));
        assert_eq!(t.translate(0x5000), Translation::Fault);
        assert!(t.take_fault(0x5000));
        assert!(!t.would_fault(0x5000));
        assert!(matches!(t.translate(0x5000), Translation::Miss { .. }));
        assert_eq!(t.faults_taken(), 1);
    }

    #[test]
    fn take_fault_without_pending_returns_false() {
        let mut t = small();
        assert!(!t.take_fault(0));
        assert_eq!(t.faults_taken(), 0);
    }

    #[test]
    fn hit_ratio_ignores_faults() {
        let mut t = small();
        t.inject_fault(0);
        t.translate(0);
        assert_eq!(t.hit_ratio().total(), 0);
    }

    #[test]
    fn fault_injected_on_most_recent_page_is_not_bypassed() {
        let mut t = small();
        t.translate(0); // page 0 is now the MRU fast-path page
        assert_eq!(t.translate(8), Translation::Hit);
        t.inject_fault(0);
        assert_eq!(t.translate(0), Translation::Fault);
    }

    #[test]
    fn consecutive_same_page_hits_preserve_lru_order() {
        let mut t = small();
        t.translate(0); // page 0
        t.translate(4096); // page 1
        for _ in 0..10 {
            assert_eq!(t.translate(4100), Translation::Hit); // fast path
        }
        // Refresh page 0 so page 1 becomes least-recent; the fast-path
        // repeats must not have disturbed that ordering.
        assert_eq!(t.translate(8), Translation::Hit);
        t.translate(8192); // fills page 2, evicting page 1
        assert_eq!(t.translate(0), Translation::Hit);
        assert!(matches!(t.translate(4096), Translation::Miss { .. }));
    }

    #[test]
    fn reset_stats_keeps_translations() {
        let mut t = small();
        t.translate(0);
        t.translate(8);
        t.reset_stats();
        assert_eq!(t.hit_ratio().total(), 0);
        assert_eq!(t.translate(16), Translation::Hit); // mapping survived
    }
}
