//! Machinery shared by every renaming scheme: the speculative and
//! retirement map tables, per-class free lists, the in-flight rename
//! record stack (checkpoint/rollback), and the audit cross-checks all
//! schemes perform identically.
//!
//! [`BaselineRenamer`](crate::BaselineRenamer) and
//! [`ReuseRenamer`](crate::ReuseRenamer) both compose a [`RenameTables`]
//! for the table/free-list state and a [`CheckpointStack`] for their
//! scheme-specific rename records, keeping only the paper-specific
//! policy (sharing, version tags, predictors) in their own modules.
//! [`EarlyReleaseRenamer`](crate::EarlyReleaseRenamer) is a
//! `BaselineRenamer` plus its release bookkeeping, so it shares this
//! machinery through the baseline.

use crate::renamer::{RenameStats, RenamerConfig};
use crate::{BankConfig, FreeList, MapTable, PhysReg, TaggedReg};
use regshare_isa::{ArchReg, RegClass, MAX_HARTS};
use std::collections::VecDeque;

/// One definition's rename: the mapping it replaced and the one it
/// installed. Commit releases through `old_map`; squash restores it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DstChange {
    pub(crate) logical: ArchReg,
    pub(crate) old_map: TaggedReg,
    pub(crate) new_map: TaggedReg,
}

/// The rename-table state every scheme owns: one speculative map table
/// and one retirement (architectural) map table **per hardware thread**,
/// one free list per register class shared by all threads, and the
/// scheme's [`RenameStats`].
///
/// The per-thread tables are what make SMT renaming safe over a shared
/// physical register file: a thread can only ever reach physical
/// registers through its own map table, so ownership never crosses
/// threads (the audits verify this).
#[derive(Debug, Clone)]
pub struct RenameTables {
    pub(crate) config: RenamerConfig,
    pub(crate) maps: Vec<MapTable>,
    pub(crate) retire_maps: Vec<MapTable>,
    pub(crate) free: [FreeList; 2],
    pub(crate) stats: RenameStats,
}

impl RenameTables {
    /// Builds the tables with every logical register of every thread
    /// mapped to an initial physical register (version 0), calling
    /// `on_init` for each initial allocation so schemes with extra
    /// per-register bookkeeping (e.g. the PRT mapping counts) can mirror
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the thread count is outside `1..=MAX_HARTS`, or if a
    /// register file is not larger than `threads ×` the logical register
    /// count (no registers would remain for renaming).
    pub fn new(config: RenamerConfig, mut on_init: impl FnMut(RegClass, PhysReg)) -> Self {
        let threads = config.threads;
        assert!(
            (1..=MAX_HARTS).contains(&threads),
            "thread count must be in 1..={MAX_HARTS}, got {threads}"
        );
        let mut free = [
            FreeList::new(&config.int_banks),
            FreeList::new(&config.fp_banks),
        ];
        for class in RegClass::ALL {
            assert!(
                config.banks(class).total() > threads * class.num_regs(),
                "{class} register file must exceed the {} logical registers of {threads} thread(s)",
                threads * class.num_regs()
            );
        }
        let mut maps = Vec::with_capacity(threads);
        for _ in 0..threads {
            let mut map = MapTable::new();
            for class in RegClass::ALL {
                for i in 0..class.num_regs() {
                    let preg = free[class.index()]
                        .alloc(0)
                        .expect("initial mapping fits by the assertion above");
                    on_init(class, preg);
                    map.set(ArchReg::new(class, i as u8), TaggedReg::new(class, preg, 0));
                }
            }
            maps.push(map);
        }
        let retire_maps = maps.clone();
        RenameTables {
            config,
            maps,
            retire_maps,
            free,
            stats: RenameStats::new(),
        }
    }

    /// Hardware-thread contexts these tables maintain.
    pub fn threads(&self) -> usize {
        self.maps.len()
    }

    /// The current (speculative) rename map of hart 0.
    pub fn map(&self) -> &MapTable {
        &self.maps[0]
    }

    /// The retirement (architectural) rename map of hart 0.
    pub fn retire_map(&self) -> &MapTable {
        &self.retire_maps[0]
    }

    /// The bank layout of one register class.
    pub fn banks(&self, class: RegClass) -> &BankConfig {
        self.config.banks(class)
    }

    /// The largest version tag the configuration can represent.
    pub fn max_version(&self) -> u8 {
        self.config.max_version()
    }

    /// Free physical registers of one class, across all banks.
    pub fn free_regs(&self, class: RegClass) -> usize {
        self.free[class.index()].free_total()
    }

    /// Allocated (in-use) physical registers of one class, per bank —
    /// the occupancy readout the pipeline samples for Fig. 11.
    pub fn in_use_per_bank(&self, class: RegClass) -> Vec<usize> {
        let mut out = Vec::new();
        self.in_use_per_bank_into(class, &mut out);
        out
    }

    /// [`Self::in_use_per_bank`] into a caller-owned buffer (cleared
    /// first), so the periodic occupancy sample never allocates.
    pub fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        let banks = self.config.banks(class);
        let free = &self.free[class.index()];
        out.clear();
        out.extend((0..banks.num_banks()).map(|k| banks.sizes()[k] - free.free_in_bank(k)));
    }

    /// Total allocated physical registers of one class; by construction
    /// the per-bank occupancies of [`Self::in_use_per_bank`] must sum to
    /// exactly this value (the pipeline audit cross-checks it).
    pub fn allocated_total(&self, class: RegClass) -> usize {
        self.config.banks(class).total() - self.free[class.index()].free_total()
    }

    /// Builds the free-register bitmap of one class for audits, failing
    /// on a duplicated free-list entry.
    pub fn free_bitmap(&self, class: RegClass) -> Result<Vec<bool>, String> {
        let total = self.config.banks(class).total();
        let mut free = vec![false; total];
        for p in self.free[class.index()].iter() {
            if free[p.0 as usize] {
                return Err(format!("{class}: {p} appears twice in the free list"));
            }
            free[p.0 as usize] = true;
        }
        Ok(free)
    }
}

/// An in-flight rename record: anything pushed onto a
/// [`CheckpointStack`] carries the sequence number of the micro-op that
/// created it.
pub trait SeqRecord {
    /// The sequence number of the micro-op this record belongs to.
    fn seq(&self) -> u64;
}

/// The in-flight rename record stack: pushed in rename order, drained
/// from the front at commit and from the back at squash. This is the
/// scheme's checkpoint structure — each record holds exactly the state
/// needed to undo (squash) or finalise (commit) one rename.
#[derive(Debug, Clone)]
pub struct CheckpointStack<R> {
    records: VecDeque<R>,
}

impl<R: SeqRecord> CheckpointStack<R> {
    /// An empty stack.
    pub fn new() -> Self {
        CheckpointStack {
            records: VecDeque::new(),
        }
    }

    /// Pushes the youngest record.
    pub fn push(&mut self, record: R) {
        self.records.push_back(record);
    }

    /// Pops the oldest record at commit, asserting in-order retirement.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty or the oldest record is not `seq`.
    pub fn commit_front(&mut self, seq: u64) -> R {
        let record = self
            .records
            .pop_front()
            .expect("commit without an in-flight rename record");
        assert_eq!(record.seq(), seq, "commits must arrive in rename order");
        record
    }

    /// Pops the youngest record if it is younger than `seq` — the squash
    /// walk: call until `None` to undo everything after a recovery point.
    pub fn pop_younger(&mut self, seq: u64) -> Option<R> {
        if self.records.back().is_some_and(|r| r.seq() > seq) {
            self.records.pop_back()
        } else {
            None
        }
    }

    /// Iterates the in-flight records, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &R> {
        self.records.iter()
    }

    /// Number of in-flight records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rename is in flight.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl<R: SeqRecord> Default for CheckpointStack<R> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Rec(u64);
    impl SeqRecord for Rec {
        fn seq(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn checkpoint_stack_commits_in_order_and_squashes_youngest_first() {
        let mut s = CheckpointStack::new();
        for seq in 0..4 {
            s.push(Rec(seq));
        }
        assert_eq!(s.commit_front(0), Rec(0));
        assert_eq!(s.pop_younger(1), Some(Rec(3)));
        assert_eq!(s.pop_younger(1), Some(Rec(2)));
        assert_eq!(s.pop_younger(1), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.commit_front(1), Rec(1));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "rename order")]
    fn out_of_order_commit_panics() {
        let mut s = CheckpointStack::new();
        s.push(Rec(5));
        s.commit_front(4);
    }

    #[test]
    fn tables_report_consistent_occupancy() {
        let t = RenameTables::new(RenamerConfig::baseline(48), |_, _| {});
        for class in RegClass::ALL {
            let per_bank: usize = t.in_use_per_bank(class).iter().sum();
            assert_eq!(per_bank, t.allocated_total(class));
            assert_eq!(t.allocated_total(class) + t.free_regs(class), 48);
        }
    }
}
