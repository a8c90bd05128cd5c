//! Per-bank free lists with closest-bank allocation (§IV-D).

use crate::{BankConfig, PhysReg, MAX_SHADOW_CELLS};

/// Free physical registers, kept per bank so allocation can honor the
/// register type predictor's bank choice.
///
/// When the predicted bank is empty, "a register with the closest number
/// of shadow cells will be allocated" (§IV-D): the search visits banks in
/// order of distance from the prediction, preferring the *larger* bank on
/// ties so a predicted-reusable register degrades toward more shadow cells
/// before giving up reuse entirely.
///
/// # Examples
///
/// ```
/// use regshare_core::{BankConfig, FreeList};
///
/// let banks = BankConfig::new(vec![2, 1]);
/// let mut fl = FreeList::new(&banks);
/// assert_eq!(fl.free_total(), 3);
/// let p = fl.alloc(1).unwrap();
/// assert_eq!(fl.shadow_cells_of(p), 1);
/// fl.free(p);
/// assert_eq!(fl.free_total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FreeList {
    /// Bank `k`'s free registers are `stacks[base[k]..base[k] + len[k]]`,
    /// the next to allocate last. A bank never holds more free registers
    /// than it has, so each stack lives in a fixed slice of one array and
    /// a free or an allocation only moves a length.
    stacks: Vec<PhysReg>,
    base: [usize; NUM_BANKS],
    len: [usize; NUM_BANKS],
    /// Registers in bank `k`: the most its stack can hold.
    size: [usize; NUM_BANKS],
    /// Banks of the layout.
    banks: usize,
    /// `orders[p][..banks]` is the bank visit order when bank `p` is
    /// preferred (by distance, larger bank first on ties). Precomputed
    /// once so the per-allocation fast path is a plain table walk
    /// instead of a sort.
    orders: [[u8; NUM_BANKS]; NUM_BANKS],
    /// `bank_of[p]` is register `p`'s bank, which is its shadow-cell
    /// count: a table lookup where [`BankConfig::shadow_cells_of`]
    /// walks the layout.
    bank_of: Vec<u8>,
}

/// The most banks a layout can have: one per shadow-cell count.
const NUM_BANKS: usize = MAX_SHADOW_CELLS as usize + 1;

impl FreeList {
    /// Creates a free list containing every register of the layout.
    pub fn new(banks: &BankConfig) -> Self {
        let n = banks.num_banks();
        let mut base = [0; NUM_BANKS];
        let mut size = [0; NUM_BANKS];
        let mut orders = [[0; NUM_BANKS]; NUM_BANKS];
        for k in 0..n {
            let range = banks.bank_range(k);
            base[k] = range.start as usize;
            size[k] = range.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&b| (b.abs_diff(k), std::cmp::Reverse(b)));
            for (slot, b) in orders[k].iter_mut().zip(order) {
                *slot = b as u8;
            }
        }
        // Each bank's stack hands out its lowest register first.
        let stacks = (0..n)
            .flat_map(|k| banks.bank_range(k).rev().map(PhysReg))
            .collect();
        let bank_of = (0..n)
            .flat_map(|k| std::iter::repeat_n(k as u8, size[k]))
            .collect();
        FreeList {
            stacks,
            base,
            len: size,
            size,
            banks: n,
            orders,
            bank_of,
        }
    }

    /// Allocates from `preferred_bank`, falling back to the closest
    /// non-empty bank (larger first on ties). Returns `None` when every
    /// bank is empty — the rename stall condition.
    pub fn alloc(&mut self, preferred_bank: u8) -> Option<PhysReg> {
        let pref = (preferred_bank as usize).min(self.banks - 1);
        for &k in &self.orders[pref][..self.banks] {
            let k = k as usize;
            if self.len[k] > 0 {
                self.len[k] -= 1;
                return Some(self.stacks[self.base[k] + self.len[k]]);
            }
        }
        None
    }

    /// Returns a register to its bank.
    ///
    /// # Panics
    ///
    /// Panics if the register is already free: in debug builds always,
    /// otherwise when that fills its bank past its size.
    pub fn free(&mut self, preg: PhysReg) {
        let k = self.bank_of[preg.0 as usize] as usize;
        debug_assert!(!self.bank(k).contains(&preg), "double free of {preg}");
        assert!(self.len[k] < self.size[k], "double free of {preg}");
        self.stacks[self.base[k] + self.len[k]] = preg;
        self.len[k] += 1;
    }

    /// The shadow-cell count (= bank index) of a register of the layout.
    ///
    /// # Panics
    ///
    /// Panics if `preg` is out of range.
    pub fn shadow_cells_of(&self, preg: PhysReg) -> u8 {
        self.bank_of[preg.0 as usize]
    }

    /// Bank `k`'s free registers, the next to allocate last.
    fn bank(&self, k: usize) -> &[PhysReg] {
        &self.stacks[self.base[k]..self.base[k] + self.len[k]]
    }

    /// Free registers in bank `k`.
    pub fn free_in_bank(&self, k: usize) -> usize {
        if k < self.banks {
            self.len[k]
        } else {
            0
        }
    }

    /// Total free registers across all banks.
    pub fn free_total(&self) -> usize {
        self.len[..self.banks].iter().sum()
    }

    /// Iterates over every free register, bank by bank. Used by the
    /// invariant auditor to check the free list against the map table.
    pub fn iter(&self) -> impl Iterator<Item = PhysReg> + '_ {
        (0..self.banks).flat_map(|k| self.bank(k).iter().copied())
    }

    /// Removes one free register (any bank), or `None` when exhausted.
    /// Exists only so auditor self-tests can *deliberately* leak a
    /// register; normal allocation goes through [`FreeList::alloc`].
    pub(crate) fn pop_any(&mut self) -> Option<PhysReg> {
        let k = (0..self.banks).find(|&k| self.len[k] > 0)?;
        self.len[k] -= 1;
        Some(self.stacks[self.base[k] + self.len[k]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banks() -> BankConfig {
        BankConfig::new(vec![2, 2, 2, 2])
    }

    #[test]
    fn starts_with_all_registers_free() {
        let b = banks();
        let fl = FreeList::new(&b);
        assert_eq!(fl.free_total(), 8);
        for k in 0..4 {
            assert_eq!(fl.free_in_bank(k), 2);
        }
    }

    #[test]
    fn allocates_from_preferred_bank() {
        let b = banks();
        let mut fl = FreeList::new(&b);
        let p = fl.alloc(2).unwrap();
        assert_eq!(b.shadow_cells_of(p), 2);
    }

    #[test]
    fn bank_table_matches_the_layout() {
        let b = BankConfig::new(vec![2, 0, 3, 1]);
        let fl = FreeList::new(&b);
        for p in (0..b.total() as u16).map(PhysReg) {
            assert_eq!(fl.shadow_cells_of(p), b.shadow_cells_of(p));
        }
    }

    #[test]
    fn falls_back_to_closest_bank_preferring_more_shadows() {
        let b = banks();
        let mut fl = FreeList::new(&b);
        // Drain bank 1: it comes first in its own visit order.
        fl.alloc(1).unwrap();
        fl.alloc(1).unwrap();
        // Preferring 1: ties between bank 0 and 2 go to bank 2.
        let p = fl.alloc(1).unwrap();
        assert_eq!(b.shadow_cells_of(p), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let b = BankConfig::new(vec![1]);
        let mut fl = FreeList::new(&b);
        assert!(fl.alloc(0).is_some());
        assert!(fl.alloc(0).is_none());
        assert_eq!(fl.free_total(), 0);
    }

    #[test]
    fn free_returns_register_to_its_bank() {
        let b = banks();
        let mut fl = FreeList::new(&b);
        let p = fl.alloc(3).unwrap();
        assert_eq!(fl.free_in_bank(3), 1);
        fl.free(p);
        assert_eq!(fl.free_in_bank(3), 2);
    }

    #[test]
    fn preferred_bank_beyond_layout_clamps() {
        let b = BankConfig::new(vec![2]);
        let mut fl = FreeList::new(&b);
        assert!(fl.alloc(3).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let b = banks();
        let mut fl = FreeList::new(&b);
        let p = fl.alloc(0).unwrap();
        fl.free(p);
        fl.free(p);
    }
}
