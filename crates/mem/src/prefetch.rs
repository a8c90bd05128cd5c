//! PC-indexed stride prefetcher (degree 1, as in Table I).

use serde::{Deserialize, Serialize};

/// Stride-prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StridePrefetcherConfig {
    /// Number of PC-indexed tracking entries (a power of two).
    pub entries: usize,
    /// Prefetch degree: how many strides ahead to fetch.
    pub degree: u32,
}

impl Default for StridePrefetcherConfig {
    fn default() -> Self {
        StridePrefetcherConfig {
            entries: 64,
            degree: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confident: bool,
    valid: bool,
}

/// Maximum prefetch degree supported without heap allocation.
pub const MAX_PREFETCH_DEGREE: usize = 8;

/// Prefetch addresses produced by one [`StridePrefetcher::observe`] call.
///
/// An inline fixed-capacity buffer: `observe` sits on the data-access hot
/// path of both the detailed and the functional-warming engines, and a
/// `Vec` allocation per confident load dominated the warming profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchTargets {
    addrs: [u64; MAX_PREFETCH_DEGREE],
    len: u8,
}

impl PrefetchTargets {
    #[inline]
    fn push(&mut self, addr: u64) {
        self.addrs[self.len as usize] = addr;
        self.len += 1;
    }

    /// The prefetch addresses, oldest stride first.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs[..self.len as usize]
    }

    /// Number of addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no prefetch should be issued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a PrefetchTargets {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A classic per-PC stride prefetcher.
///
/// Each load PC gets a table entry recording its last address and stride.
/// Two consecutive accesses with the same stride make the entry confident;
/// confident entries emit prefetch addresses `degree` strides ahead.
///
/// # Examples
///
/// ```
/// use regshare_mem::{StridePrefetcher, StridePrefetcherConfig};
///
/// let mut p = StridePrefetcher::new(StridePrefetcherConfig::default());
/// assert!(p.observe(0x40, 0x1000).is_empty());
/// assert!(p.observe(0x40, 0x1008).is_empty()); // stride learned
/// assert_eq!(p.observe(0x40, 0x1010).as_slice(), &[0x1018]); // confident
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: StridePrefetcherConfig,
    table: Vec<Entry>,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(config: StridePrefetcherConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "prefetcher entries must be a power of two"
        );
        assert!(
            config.degree as usize <= MAX_PREFETCH_DEGREE,
            "prefetch degree above {MAX_PREFETCH_DEGREE} is unsupported"
        );
        StridePrefetcher {
            config,
            table: vec![Entry::default(); config.entries],
            issued: 0,
        }
    }

    /// Observes a demand access by the load at `pc` to `addr`; returns the
    /// prefetch addresses to issue (empty until a stable stride is seen).
    pub fn observe(&mut self, pc: u64, addr: u64) -> PrefetchTargets {
        let idx = (pc as usize) & (self.table.len() - 1);
        let entry = &mut self.table[idx];
        let mut out = PrefetchTargets::default();
        if entry.valid && entry.pc_tag == pc {
            let stride = addr.wrapping_sub(entry.last_addr) as i64;
            if stride == entry.stride && stride != 0 {
                entry.confident = true;
            } else {
                entry.confident = false;
                entry.stride = stride;
            }
            entry.last_addr = addr;
            if entry.confident {
                for d in 1..=self.config.degree as i64 {
                    let target = addr.wrapping_add((entry.stride * d) as u64);
                    out.push(target);
                }
                self.issued += out.len() as u64;
            }
        } else {
            *entry = Entry {
                pc_tag: pc,
                last_addr: addr,
                stride: 0,
                confident: false,
                valid: true,
            };
        }
        out
    }

    /// Number of prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(StridePrefetcherConfig::default())
    }

    #[test]
    fn needs_two_identical_strides_before_prefetching() {
        let mut p = pf();
        assert!(p.observe(1, 100).is_empty());
        assert!(p.observe(1, 108).is_empty());
        assert_eq!(p.observe(1, 116).as_slice(), &[124]);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = pf();
        p.observe(1, 100);
        p.observe(1, 108);
        p.observe(1, 116);
        assert!(p.observe(1, 200).is_empty()); // irregular jump
        assert!(p.observe(1, 208).is_empty()); // relearn
        assert_eq!(p.observe(1, 216).as_slice(), &[224]);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = pf();
        p.observe(1, 1000);
        p.observe(1, 992);
        assert_eq!(p.observe(1, 984).as_slice(), &[976]);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = pf();
        for _ in 0..5 {
            assert!(p.observe(1, 64).is_empty());
        }
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut p = pf();
        p.observe(1, 0);
        p.observe(2, 1000);
        p.observe(1, 8);
        p.observe(2, 1004);
        assert_eq!(p.observe(1, 16).as_slice(), &[24]);
        assert_eq!(p.observe(2, 1008).as_slice(), &[1012]);
    }

    #[test]
    fn degree_two_issues_two_prefetches() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig {
            entries: 64,
            degree: 2,
        });
        p.observe(1, 0);
        p.observe(1, 8);
        assert_eq!(p.observe(1, 16).as_slice(), &[24, 32]);
    }

    #[test]
    fn table_conflict_evicts_old_pc() {
        let mut p = StridePrefetcher::new(StridePrefetcherConfig {
            entries: 1,
            degree: 1,
        });
        p.observe(1, 0);
        p.observe(1, 8);
        p.observe(2, 50); // evicts pc=1
        p.observe(1, 16); // reallocates, no confidence
        assert!(p.observe(1, 24).is_empty());
    }
}
