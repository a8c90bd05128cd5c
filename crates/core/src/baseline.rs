//! The conventional renaming scheme: merged register file with
//! release-on-commit (the paper's baseline, §II).

use crate::rename_common::{CheckpointStack, RenameTables, SeqRecord};
use crate::renamer::{RenameStats, Renamer, RenamerConfig, SquashOutcome, Uop, UopKind, UopVec};
use crate::{BankConfig, MapTable, PhysReg, TaggedReg};
use regshare_isa::{ArchReg, HartId, Inst, RegClass};

/// One destination's rename: the mapping it replaced and the one it
/// installed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DstChange {
    pub(crate) logical: ArchReg,
    pub(crate) old_map: TaggedReg,
    pub(crate) new_map: TaggedReg,
}

/// The in-flight record of one renamed micro-op.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub(crate) seq: u64,
    pub(crate) dst: Option<DstChange>,
    pub(crate) dst2: Option<DstChange>,
}

impl SeqRecord for Record {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Conventional register renaming: every destination gets a fresh physical
/// register; the previous register of the same logical register is
/// released when the redefining instruction commits. With
/// `RenamerConfig::threads` > 1, each hardware thread renames through its
/// own map table and checkpoint stack over the shared free lists.
///
/// # Examples
///
/// ```
/// use regshare_core::{BaselineRenamer, Renamer, RenamerConfig};
/// use regshare_isa::{Inst, Opcode, reg};
///
/// let mut r = BaselineRenamer::new(RenamerConfig::baseline(48));
/// let inst = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
/// let uops = r.rename(0, 0, &inst).unwrap();
/// assert_eq!(uops.len(), 1);
/// assert!(uops[0].dst.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct BaselineRenamer {
    t: RenameTables,
    /// One in-flight record stack per hardware thread: commits are in
    /// sequence order per thread, and a squash walks only the squashing
    /// thread's records.
    records: Vec<CheckpointStack<Record>>,
    /// Reused squash-outcome storage (`recovers` stays empty: the
    /// baseline never shares registers, so no recover commands).
    squash: SquashOutcome,
    /// Bumped by every mutating entry point except a failed rename; see
    /// [`Renamer::state_epoch`].
    epoch: u64,
}

impl BaselineRenamer {
    /// Creates a renamer with every logical register mapped to an initial
    /// physical register.
    ///
    /// # Panics
    ///
    /// Panics if a register file is smaller than the logical register
    /// count (no registers would remain for renaming).
    pub fn new(config: RenamerConfig) -> Self {
        let threads = config.threads;
        BaselineRenamer {
            t: RenameTables::new(config, |_, _| {}),
            records: (0..threads).map(|_| CheckpointStack::new()).collect(),
            squash: SquashOutcome::default(),
            epoch: 0,
        }
    }

    /// The current (speculative) rename map.
    pub fn map(&self) -> &MapTable {
        self.t.map()
    }

    /// The retirement (architectural) rename map.
    pub fn retire_map(&self) -> &MapTable {
        self.t.retire_map()
    }

    /// `hart`'s in-flight rename records, oldest first.
    pub(crate) fn in_flight(&self, hart: HartId) -> impl DoubleEndedIterator<Item = &Record> {
        self.records[hart.index()].iter()
    }

    /// Retires `hart`'s oldest record, which must be `seq`'s: pops it and
    /// installs its mappings in the retirement map. Frees nothing — the
    /// caller decides when the replaced registers die.
    pub(crate) fn retire(&mut self, hart: HartId, seq: u64) -> Record {
        let h = hart.index();
        let record = self.records[h].commit_front(seq);
        for d in [record.dst, record.dst2].into_iter().flatten() {
            self.t.retire_maps[h].set(d.logical, d.new_map);
        }
        record
    }

    /// Returns a dead register to the free list. A freed register is what
    /// a stalled rename waits for, so the epoch advances.
    pub(crate) fn release(&mut self, class: RegClass, preg: PhysReg) {
        self.epoch += 1;
        self.t.free[class.index()].free(preg, self.t.config.banks(class));
        self.t.stats.releases += 1;
        self.t.stats.chain_lengths.record(0);
    }

    /// The outcome of the latest squash.
    pub(crate) fn squash_outcome(&self) -> &SquashOutcome {
        &self.squash
    }
}

impl Renamer for BaselineRenamer {
    fn threads(&self) -> usize {
        self.t.threads()
    }

    fn rename_on(&mut self, hart: HartId, seq: u64, _pc: u64, inst: &Inst) -> Option<UopVec> {
        let h = hart.index();
        // Sources first: read the thread's map.
        let mut srcs = [None; 3];
        for (slot, src) in srcs.iter_mut().zip(inst.raw_sources()) {
            if let Some(r) = src.filter(|r| !r.is_zero()) {
                *slot = Some(self.t.maps[h].get(r));
            }
        }
        // Destinations: allocate (post-increment ops have a second one).
        let allocate = |t: &mut RenameTables, logical: ArchReg| {
            let class = logical.class();
            let preg = t.free[class.index()].alloc(0)?;
            let new_map = TaggedReg::new(class, preg, 0);
            let old_map = t.maps[h].set(logical, new_map);
            t.stats.allocations += 1;
            Some(DstChange {
                logical,
                old_map,
                new_map,
            })
        };
        let dst_change = match inst.dst() {
            Some(logical) => match allocate(&mut self.t, logical) {
                Some(c) => Some(c),
                None => {
                    self.t.stats.stalls += 1;
                    return None;
                }
            },
            None => None,
        };
        let dst2_change = match inst.dst2() {
            Some(logical) => match allocate(&mut self.t, logical) {
                Some(c) => Some(c),
                None => {
                    // Roll the first allocation back before stalling.
                    if let Some(d) = dst_change {
                        self.t.maps[h].set(d.logical, d.old_map);
                        let class = d.new_map.class;
                        self.t.free[class.index()].free(d.new_map.preg, self.t.config.banks(class));
                        self.t.stats.allocations -= 1;
                    }
                    self.t.stats.stalls += 1;
                    return None;
                }
            },
            None => None,
        };
        let dst_tag = dst_change.as_ref().map(|d| d.new_map);
        let dst2_tag = dst2_change.as_ref().map(|d| d.new_map);
        self.records[h].push(Record {
            seq,
            dst: dst_change,
            dst2: dst2_change,
        });
        self.t.stats.renamed += 1;
        let mut uops = UopVec::new();
        uops.push(Uop {
            seq,
            kind: UopKind::Main,
            srcs,
            dst: dst_tag,
            dst2: dst2_tag,
        });
        Some(uops)
    }

    fn commit_on(&mut self, hart: HartId, seq: u64) {
        // Release-on-commit: the redefined mappings die here.
        let record = self.retire(hart, seq);
        for d in [record.dst, record.dst2].into_iter().flatten() {
            self.release(d.old_map.class, d.old_map.preg);
        }
    }

    fn squash_after_on(&mut self, hart: HartId, seq: u64) -> &SquashOutcome {
        let h = hart.index();
        self.epoch += 1;
        self.squash.undone = 0;
        while let Some(record) = self.records[h].pop_younger(seq) {
            for d in [record.dst2, record.dst].into_iter().flatten() {
                self.t.maps[h].set(d.logical, d.old_map);
                let class = d.new_map.class;
                self.t.free[class.index()].free(d.new_map.preg, self.t.config.banks(class));
            }
            self.squash.undone += 1;
            self.t.stats.squashed += 1;
        }
        &self.squash
    }

    fn state_epoch(&self) -> u64 {
        self.epoch
    }

    fn note_stall_on(&mut self, _hart: HartId) {
        // A failed baseline rename rolls back fully; only the stall
        // counter survives the attempt.
        self.t.stats.stalls += 1;
    }

    fn stats(&self) -> &RenameStats {
        &self.t.stats
    }

    fn free_regs(&self, class: RegClass) -> usize {
        self.t.free_regs(class)
    }

    fn in_use_per_bank(&self, class: RegClass) -> Vec<usize> {
        self.t.in_use_per_bank(class)
    }

    fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        self.t.in_use_per_bank_into(class, out);
    }

    fn allocated_total(&self, class: RegClass) -> usize {
        self.t.allocated_total(class)
    }

    fn banks(&self, class: RegClass) -> &BankConfig {
        self.t.banks(class)
    }

    fn max_version(&self) -> u8 {
        self.t.max_version()
    }

    fn audit(&self) -> Result<(), String> {
        let threads = self.t.threads();
        for class in RegClass::ALL {
            let total = self.t.config.banks(class).total();
            // Every register is either free or referenced exactly once:
            // by one thread's current map entry, or by one thread's
            // in-flight record keeping the redefined mapping alive until
            // commit. Counting per thread also proves no register is
            // reachable from two threads at once.
            let mut refs = vec![0u32; total];
            let mut owner = vec![usize::MAX; total];
            let mut claim = |i: usize, h: usize| -> Result<(), String> {
                if owner[i] != usize::MAX && owner[i] != h {
                    return Err(format!(
                        "{class}: p{i} is referenced by both thread {} and thread {h} — \
                         a cross-thread register leak",
                        owner[i]
                    ));
                }
                owner[i] = h;
                refs[i] += 1;
                Ok(())
            };
            for h in 0..threads {
                for (_, tag) in self.t.maps[h].iter_class(class) {
                    claim(tag.preg.0 as usize, h)?;
                }
                for record in self.records[h].iter() {
                    for d in [&record.dst, &record.dst2].into_iter().flatten() {
                        if d.old_map.class == class {
                            claim(d.old_map.preg.0 as usize, h)?;
                        }
                    }
                }
            }
            let free = self.t.free_bitmap(class)?;
            for (i, (&r, &f)) in refs.iter().zip(free.iter()).enumerate() {
                match (r, f) {
                    (0, false) => {
                        return Err(format!(
                            "{class}: p{i} leaked — unreferenced but not on the free list"
                        ))
                    }
                    (1, false) | (0, true) => {}
                    (_, true) => {
                        return Err(format!(
                            "{class}: p{i} is on the free list but referenced {r} time(s)"
                        ))
                    }
                    _ => {
                        return Err(format!(
                            "{class}: p{i} referenced {r} times — the baseline never shares"
                        ))
                    }
                }
            }
            // Per-thread retire-map consistency: an architectural mapping
            // must never point at a free register.
            for h in 0..threads {
                for (r, tag) in self.t.retire_maps[h].iter_class(class) {
                    if free[tag.preg.0 as usize] {
                        return Err(format!(
                            "{class}: thread {h} retire map entry {r} points at free {}",
                            tag.preg
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn arch_map_on(&self, hart: HartId) -> Option<&MapTable> {
        Some(&self.t.retire_maps[hart.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Opcode};

    fn renamer() -> BaselineRenamer {
        BaselineRenamer::new(RenamerConfig::baseline(40))
    }

    #[test]
    fn initial_state_maps_all_logicals() {
        let r = renamer();
        assert_eq!(r.free_regs(RegClass::Int), 8);
        assert_eq!(r.free_regs(RegClass::Fp), 8);
        assert_eq!(r.in_use_per_bank(RegClass::Int), vec![32]);
    }

    #[test]
    fn rename_allocates_fresh_register_per_destination() {
        let mut r = renamer();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(1), reg::x(1));
        let u1 = r.rename(0, 0, &i).unwrap()[0];
        let u2 = r.rename(1, 4, &i).unwrap()[0];
        assert_ne!(u1.dst.unwrap().preg, u2.dst.unwrap().preg);
        // Second rename's source is the first rename's destination.
        assert_eq!(u2.srcs[0].unwrap(), u1.dst.unwrap());
        assert_eq!(r.free_regs(RegClass::Int), 6);
    }

    #[test]
    fn commit_releases_previous_mapping() {
        let mut r = renamer();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        r.rename(0, 0, &i).unwrap();
        assert_eq!(r.free_regs(RegClass::Int), 7);
        r.commit(0);
        assert_eq!(r.free_regs(RegClass::Int), 8);
        assert_eq!(r.stats().releases, 1);
    }

    #[test]
    fn squash_restores_map_and_free_list() {
        let mut r = renamer();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        let before = r.map().get(reg::x(1));
        r.rename(0, 0, &i).unwrap();
        r.rename(1, 4, &i).unwrap();
        let out = r.squash_after(u64::MAX - 1); // squash nothing
        assert_eq!(out.undone, 0);
        let out = r.squash_after(0); // squash seq 1
        assert_eq!(out.undone, 1);
        let out = r.squash_after(u64::MAX); // no-op again
        assert_eq!(out.undone, 0);
        r.squash_after(0);
        // Squash everything younger than "before program start".
        let mut r2 = renamer();
        r2.rename(0, 0, &i).unwrap();
        let out = r2.squash_after(u64::MAX);
        assert_eq!(out.undone, 0);
        let mut r3 = renamer();
        r3.rename(5, 0, &i).unwrap();
        let out = r3.squash_after(4);
        assert_eq!(out.undone, 1);
        assert_eq!(r3.map().get(reg::x(1)), before);
        assert_eq!(r3.free_regs(RegClass::Int), 8);
    }

    #[test]
    fn stall_when_no_free_register() {
        let mut r = BaselineRenamer::new(RenamerConfig::baseline(33));
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        assert!(r.rename(0, 0, &i).is_some()); // takes the last register
        assert!(r.rename(1, 4, &i).is_none());
        assert_eq!(r.stats().stalls, 1);
        // Committing the first releases its old register and unblocks.
        r.commit(0);
        assert!(r.rename(1, 4, &i).is_some());
    }

    #[test]
    fn stores_and_branches_need_no_register() {
        let mut r = renamer();
        let s = Inst::store(Opcode::St, reg::x(1), reg::x(2), 0);
        let u = r.rename(0, 0, &s).unwrap()[0];
        assert!(u.dst.is_none());
        assert_eq!(u.srcs.iter().flatten().count(), 2);
        assert_eq!(r.free_regs(RegClass::Int), 8);
    }

    #[test]
    fn retire_map_follows_commits_only() {
        let mut r = renamer();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        let u = r.rename(0, 0, &i).unwrap()[0];
        assert_ne!(r.retire_map().get(reg::x(1)), u.dst.unwrap());
        r.commit(0);
        assert_eq!(r.retire_map().get(reg::x(1)), u.dst.unwrap());
    }

    #[test]
    #[should_panic(expected = "rename order")]
    fn out_of_order_commit_panics() {
        let mut r = renamer();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        r.rename(0, 0, &i).unwrap();
        r.rename(1, 4, &i).unwrap();
        r.commit(1);
    }

    #[test]
    fn audit_is_clean_through_rename_squash_commit() {
        let mut r = renamer();
        r.audit().unwrap();
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        r.rename(0, 0, &i).unwrap();
        r.rename(1, 4, &i).unwrap();
        r.audit().unwrap();
        r.squash_after(0);
        r.audit().unwrap();
        r.commit(0);
        r.audit().unwrap();
    }

    #[test]
    fn fp_and_int_free_lists_are_independent() {
        let mut r = renamer();
        let fi = Inst::rrr(Opcode::Fadd, reg::f(1), reg::f(2), reg::f(3));
        r.rename(0, 0, &fi).unwrap();
        assert_eq!(r.free_regs(RegClass::Fp), 7);
        assert_eq!(r.free_regs(RegClass::Int), 8);
    }
}
