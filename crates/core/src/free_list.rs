//! Per-bank free lists with closest-bank allocation (§IV-D).

use crate::{BankConfig, PhysReg};

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
/// assert_eq!(banks.shadow_cells_of(p), 1);
/// fl.free(p, &banks);
/// assert_eq!(fl.free_total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FreeList {
    per_bank: Vec<Vec<PhysReg>>,
    /// `orders[p]` is the bank visit order when bank `p` is preferred
    /// (by distance, larger bank first on ties). Precomputed once so the
    /// per-allocation fast path is a plain table walk instead of a sort.
    orders: Vec<Vec<u8>>,
}

impl FreeList {
    /// Creates a free list containing every register of the layout.
    pub fn new(banks: &BankConfig) -> Self {
        let n = banks.num_banks();
        let mut per_bank = Vec::with_capacity(n);
        for k in 0..n {
            let regs: Vec<PhysReg> = banks.bank_range(k).rev().map(PhysReg).collect();
            per_bank.push(regs);
        }
        let orders = (0..n as i32)
            .map(|pref| {
                let mut order: Vec<i32> = (0..n as i32).collect();
                order.sort_by_key(|&k| ((k - pref).abs(), std::cmp::Reverse(k)));
                order.into_iter().map(|k| k as u8).collect()
            })
            .collect();
        FreeList { per_bank, orders }
    }

    /// Allocates from `preferred_bank`, falling back to the closest
    /// non-empty bank (larger first on ties). Returns `None` when every
    /// bank is empty — the rename stall condition.
    pub fn alloc(&mut self, preferred_bank: u8) -> Option<PhysReg> {
        let pref = (preferred_bank as usize).min(self.per_bank.len() - 1);
        for &k in &self.orders[pref] {
            if let Some(p) = self.per_bank[k as usize].pop() {
                return Some(p);
            }
        }
        None
    }

    /// Returns a register to its bank.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the register is already free.
    pub fn free(&mut self, preg: PhysReg, banks: &BankConfig) {
        let bank = banks.shadow_cells_of(preg) as usize;
        debug_assert!(
            !self.per_bank[bank].contains(&preg),
            "double free of {preg}"
        );
        self.per_bank[bank].push(preg);
    }

    /// Free registers in bank `k`.
    pub fn free_in_bank(&self, k: usize) -> usize {
        self.per_bank.get(k).map_or(0, Vec::len)
    }

    /// Total free registers across all banks.
    pub fn free_total(&self) -> usize {
        self.per_bank.iter().map(Vec::len).sum()
    }

    /// Iterates over every free register, bank by bank. Used by the
    /// invariant auditor to check the free list against the map table.
    pub fn iter(&self) -> impl Iterator<Item = PhysReg> + '_ {
        self.per_bank.iter().flat_map(|bank| bank.iter().copied())
    }

    /// Removes one free register (any bank), or `None` when exhausted.
    /// Exists only so auditor self-tests can *deliberately* leak a
    /// register; normal allocation goes through [`FreeList::alloc`].
    pub(crate) fn pop_any(&mut self) -> Option<PhysReg> {
        self.per_bank.iter_mut().find_map(Vec::pop)
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
        fl.free(p, &b);
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
        fl.free(p, &b);
        fl.free(p, &b);
    }
}
