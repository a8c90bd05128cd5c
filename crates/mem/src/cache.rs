//! Set-associative write-back cache timing model.

use regshare_stats::Ratio;
use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (a power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `assoc × line` frames, or non-power-of-two sets/line).
    pub fn num_sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let frames = self.size_bytes / self.line_bytes;
        assert!(
            frames > 0 && frames.is_multiple_of(self.assoc),
            "cache geometry inconsistent: {} bytes / {}B lines / {} ways",
            self.size_bytes,
            self.line_bytes,
            self.assoc
        );
        let sets = frames / self.assoc;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        sets
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative, write-allocate, write-back cache with true LRU.
///
/// This is a timing/occupancy model: it tracks which line addresses are
/// resident, not their contents.
///
/// # Examples
///
/// ```
/// use regshare_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new("l1d", CacheConfig {
///     size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1,
/// });
/// assert!(!c.access(0x40, false)); // cold miss
/// assert!(c.access(0x40, false));  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`, precomputed so the hot address-split avoids a
    /// runtime division (the divisor is only known to be a power of two
    /// dynamically, so the compiler cannot strength-reduce it).
    line_shift: u32,
    /// `num_sets − 1` (sets are a power of two).
    set_mask: usize,
    /// All lines, flattened set-major (`set × assoc + way`): one
    /// contiguous allocation instead of a pointer chase per set.
    lines: Vec<Line>,
    stamp: u64,
    hits: Ratio,
    writebacks: u64,
    /// Per-set most-recently-touched way, a fast path for repeated
    /// accesses to a set's hot line. Every site that touches a line
    /// (slow-path hit, demand fill, prefetch fill) stamps it most-recent
    /// *and* records its way here, so a hinted tag match needs neither
    /// the way scan nor an LRU stamp bump: the line is already the
    /// newest in its set, and LRU ordering is per-set, so skipping the
    /// bump changes no relative order and no future eviction.
    mru: Vec<u16>,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    pub fn new(name: impl Into<String>, config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let lines = vec![Line::default(); config.assoc * num_sets];
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            lines,
            stamp: 0,
            hits: Ratio::new(name),
            writebacks: 0,
            mru: vec![0; num_sets],
        }
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.set_mask;
        (set, line)
    }

    /// Looks up `addr`; on a miss the line is filled (allocated). Returns
    /// whether the access hit.
    ///
    /// `is_write` marks the line dirty; evicting a dirty line counts a
    /// writeback.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        let base = set_idx * self.config.assoc;
        let hinted = &mut self.lines[base + self.mru[set_idx] as usize];
        if hinted.valid && hinted.tag == tag {
            hinted.dirty |= is_write;
            self.hits.record(true);
            return true;
        }
        self.stamp += 1;
        let set = &mut self.lines[base..base + self.config.assoc];
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[way].lru = self.stamp;
            set[way].dirty |= is_write;
            self.hits.record(true);
            self.mru[set_idx] = way as u16;
            return true;
        }
        self.hits.record(false);
        self.fill_line(set_idx, tag, is_write);
        false
    }

    /// Checks residency without updating any state (probe).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        let base = set_idx * self.config.assoc;
        let hinted = &self.lines[base + self.mru[set_idx] as usize];
        if hinted.valid && hinted.tag == tag {
            return true;
        }
        self.lines[base..base + self.config.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Inserts the line containing `addr` without counting a demand access
    /// (used for prefetch fills). Returns `true` if the line was newly
    /// installed.
    pub fn fill(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let (set_idx, tag) = self.index_tag(addr);
        let base = set_idx * self.config.assoc;
        if self.lines[base..base + self.config.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
        {
            return false;
        }
        self.fill_line(set_idx, tag, false);
        true
    }

    fn fill_line(&mut self, set_idx: usize, tag: u64, dirty: bool) {
        let stamp = self.stamp;
        let base = set_idx * self.config.assoc;
        let set = &mut self.lines[base..base + self.config.assoc];
        let way = (0..set.len())
            .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
            .expect("cache sets are never empty");
        let victim = &mut set[way];
        if victim.valid && victim.dirty {
            self.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty,
            lru: stamp,
        };
        self.mru[set_idx] = way as u16;
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u32 {
        self.config.latency
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit-rate statistics.
    pub fn hit_ratio(&self) -> &Ratio {
        &self.hits
    }

    /// Number of dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Clears access statistics, keeping the resident lines. Used when a
    /// functionally-warmed cache is handed to a measurement window.
    pub fn reset_stats(&mut self) {
        self.hits.reset();
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64B lines.
        Cache::new(
            "t",
            CacheConfig {
                size_bytes: 256,
                assoc: 2,
                line_bytes: 64,
                latency: 1,
            },
        )
    }

    #[test]
    fn geometry_computation() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        };
        assert_eq!(c.num_sets(), 256);
    }

    #[test]
    #[should_panic(expected = "geometry inconsistent")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 100,
            assoc: 3,
            line_bytes: 64,
            latency: 1,
        }
        .num_sets();
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line, different set
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with (line index % 2 == 0): addresses 0, 128, 256...
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // touch 0 again; 128 is now LRU
        c.access(256, false); // evicts 128
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(128, false);
        c.access(256, false); // evicts 0 (dirty)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn prefetch_fill_does_not_count_as_demand_access() {
        let mut c = tiny();
        assert!(c.fill(0));
        assert!(!c.fill(0)); // already resident
        assert_eq!(c.hit_ratio().total(), 0);
        assert!(c.access(0, false)); // demand access now hits
    }

    #[test]
    fn consecutive_same_line_hits_preserve_lru_order() {
        let mut c = tiny();
        c.access(0, false);
        c.access(128, false);
        // Many fast-path hits on 128 must leave it most-recent...
        for _ in 0..10 {
            c.access(128, false);
        }
        c.access(0, false); // ...and 0 refreshed after them.
        c.access(256, false); // evicts 128 (least recent), not 0
        assert!(c.probe(0));
        assert!(!c.probe(128));
    }

    #[test]
    fn fast_path_write_marks_dirty() {
        let mut c = tiny();
        c.access(0, false); // clean, becomes the fast-path line
        c.access(0, true); // fast-path write must still dirty it
        c.access(128, false);
        c.access(256, false); // evicts 0
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn fill_clobbering_the_hinted_line_is_detected_by_tag() {
        // Direct-mapped: the just-accessed line is also the only victim.
        let mut c = Cache::new(
            "dm",
            CacheConfig {
                size_bytes: 128,
                assoc: 1,
                line_bytes: 64,
                latency: 1,
            },
        );
        c.access(0, false); // line 0 resident, fast path armed
        c.fill(128); // prefetch fill evicts line 0 in-place
        assert!(!c.access(0, false), "line 0 is gone; must miss");
    }

    #[test]
    fn hit_ratio_tracks_accesses() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.hit_ratio().hits(), 1);
        assert_eq!(c.hit_ratio().total(), 2);
    }
}
