//! The Physical Register Table (PRT) of §IV-A.

use crate::preg::PhysReg;

/// One PRT entry: a read bit, the current version counter, and a mapping
/// reference count.
///
/// * **read bit** — set when an in-flight (or committed) instruction has
///   read the current version of the register; cleared when the register
///   is (re)allocated or reused. A clear read bit identifies the *first
///   consumer* of a value.
/// * **counter** — the n-bit version counter: the most recent version of
///   the register. Saturates at the configured maximum; a saturated
///   counter blocks further reuse.
/// * **mapcount** — how many rename-map entries currently reference this
///   physical register. The register is released when the count returns
///   to zero (the version-aware generalization of release-on-commit: with
///   no sharing it behaves exactly like the conventional scheme).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrtEntry {
    /// Read bit for the current version.
    pub read: bool,
    /// Current (most recent) version of the register.
    pub counter: u8,
    /// Number of rename-map entries referencing the register.
    pub mapcount: u16,
}

/// The Physical Register Table: one entry per physical register of one
/// register class.
///
/// # Examples
///
/// ```
/// use regshare_core::{PhysReg, Prt};
///
/// let mut prt = Prt::new(8, 3); // 8 registers, 2-bit counters (max 3)
/// let p = PhysReg(2);
/// assert!(!prt.entry(p).read);
/// prt.mark_read(p);
/// assert!(prt.entry(p).read);
/// assert!(prt.can_bump(p));
/// prt.bump(p); // a reuse: version 0 -> 1, read bit cleared
/// assert_eq!(prt.entry(p).counter, 1);
/// assert!(!prt.entry(p).read);
/// ```
#[derive(Debug, Clone)]
pub struct Prt {
    entries: Vec<PrtEntry>,
    max_version: u8,
}

impl Prt {
    /// Creates a PRT for `num_regs` registers with versions saturating at
    /// `max_version` (`2^n − 1` for an n-bit counter).
    ///
    /// # Panics
    ///
    /// Panics if `max_version` exceeds
    /// [`MAX_SHADOW_CELLS`](crate::MAX_SHADOW_CELLS).
    pub fn new(num_regs: usize, max_version: u8) -> Self {
        assert!(
            max_version <= crate::MAX_SHADOW_CELLS,
            "version counter beyond supported shadow depth"
        );
        Prt {
            entries: vec![PrtEntry::default(); num_regs],
            max_version,
        }
    }

    /// The saturation value of the version counter.
    pub fn max_version(&self) -> u8 {
        self.max_version
    }

    /// Reads an entry.
    ///
    /// # Panics
    ///
    /// Panics if `preg` is out of range.
    pub fn entry(&self, preg: PhysReg) -> PrtEntry {
        self.entries[preg.0 as usize]
    }

    /// Sets the read bit; returns its previous value (needed for squash
    /// undo).
    pub fn mark_read(&mut self, preg: PhysReg) -> bool {
        let e = &mut self.entries[preg.0 as usize];
        std::mem::replace(&mut e.read, true)
    }

    /// Restores the read bit to a recorded value (squash undo).
    pub fn set_read(&mut self, preg: PhysReg, value: bool) {
        self.entries[preg.0 as usize].read = value;
    }

    /// True when the version counter can advance (not saturated).
    pub fn can_bump(&self, preg: PhysReg) -> bool {
        self.entries[preg.0 as usize].counter < self.max_version
    }

    /// Advances the version (a reuse): increments the counter and clears
    /// the read bit for the new version. Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if the counter is saturated — callers must check
    /// [`Prt::can_bump`] first.
    pub fn bump(&mut self, preg: PhysReg) -> u8 {
        let max = self.max_version;
        let e = &mut self.entries[preg.0 as usize];
        assert!(e.counter < max, "version counter saturated for {preg}");
        e.counter += 1;
        e.read = false;
        e.counter
    }

    /// Rolls the version counter back to `version` with the recorded read
    /// bit (squash undo of a reuse).
    pub fn rollback(&mut self, preg: PhysReg, version: u8, read: bool) {
        let e = &mut self.entries[preg.0 as usize];
        e.counter = version;
        e.read = read;
    }

    /// Resets the entry for a fresh allocation — version 0, read bit
    /// clear — and counts the allocating mapping.
    pub fn alloc(&mut self, preg: PhysReg) {
        let e = &mut self.entries[preg.0 as usize];
        e.counter = 0;
        e.read = false;
        e.mapcount += 1;
    }

    /// Increments the mapping reference count.
    pub fn map_inc(&mut self, preg: PhysReg) {
        self.entries[preg.0 as usize].mapcount += 1;
    }

    /// Decrements the mapping reference count; returns the new value.
    ///
    /// # Panics
    ///
    /// Panics on underflow, which would indicate a double release.
    pub fn map_dec(&mut self, preg: PhysReg) -> u16 {
        let e = &mut self.entries[preg.0 as usize];
        assert!(e.mapcount > 0, "mapping count underflow for {preg}");
        e.mapcount -= 1;
        e.mapcount
    }

    /// The current mapping reference count.
    pub fn mapcount(&self, preg: PhysReg) -> u16 {
        self.entries[preg.0 as usize].mapcount
    }

    /// Number of registers tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the PRT tracks no registers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bit_set_and_restore() {
        let mut prt = Prt::new(4, 3);
        let p = PhysReg(1);
        assert!(!prt.mark_read(p));
        assert!(prt.mark_read(p)); // second read reports the old value
        prt.set_read(p, false);
        assert!(!prt.entry(p).read);
    }

    #[test]
    fn bump_saturates_at_max_version() {
        let mut prt = Prt::new(2, 2);
        let p = PhysReg(0);
        assert_eq!(prt.bump(p), 1);
        assert_eq!(prt.bump(p), 2);
        assert!(!prt.can_bump(p));
    }

    #[test]
    #[should_panic(expected = "saturated")]
    fn bump_past_max_panics() {
        let mut prt = Prt::new(1, 1);
        prt.bump(PhysReg(0));
        prt.bump(PhysReg(0));
    }

    #[test]
    fn bump_clears_read_bit() {
        let mut prt = Prt::new(1, 3);
        let p = PhysReg(0);
        prt.mark_read(p);
        prt.bump(p);
        assert!(!prt.entry(p).read);
    }

    #[test]
    fn rollback_restores_counter_and_read() {
        let mut prt = Prt::new(1, 3);
        let p = PhysReg(0);
        prt.mark_read(p);
        prt.bump(p);
        prt.rollback(p, 0, true);
        assert_eq!(prt.entry(p).counter, 0);
        assert!(prt.entry(p).read);
    }

    #[test]
    fn mapcount_round_trip() {
        let mut prt = Prt::new(1, 3);
        let p = PhysReg(0);
        prt.map_inc(p);
        prt.map_inc(p);
        assert_eq!(prt.mapcount(p), 2);
        assert_eq!(prt.map_dec(p), 1);
        assert_eq!(prt.map_dec(p), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn mapcount_underflow_panics() {
        Prt::new(1, 3).map_dec(PhysReg(0));
    }

    #[test]
    fn alloc_clears_version_state_and_counts_the_mapping() {
        let mut prt = Prt::new(1, 3);
        let p = PhysReg(0);
        prt.mark_read(p);
        prt.bump(p);
        prt.alloc(p);
        assert_eq!(
            prt.entry(p),
            PrtEntry {
                read: false,
                counter: 0,
                mapcount: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "beyond supported shadow depth")]
    fn excessive_counter_width_panics() {
        Prt::new(1, 8);
    }
}
