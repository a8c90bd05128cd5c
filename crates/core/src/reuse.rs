//! The proposed renaming scheme: physical register sharing (§IV).

use crate::rename_common::{CheckpointStack, DstChange, RenameTables};
use crate::renamer::{
    HintPolicy, HintStats, RenameStats, Renamer, RenamerConfig, SquashOutcome, UopVec,
};
use crate::{BankConfig, MapTable, PhysReg, Prt, RegTypePredictor, SingleUsePredictor, TaggedReg};
use regshare_isa::{ArchReg, DefSlot, HartId, Inst, RegClass, ShareHint, ShareHintTable};

mod audit;
mod types;

use types::{
    Attempt, Candidates, Count, FirstReads, Learn, PregMeta, Record, SpecDecision, SpecSource,
    Tally,
};

pub use audit::CorruptKind;

/// Register renaming with physical register sharing — the paper's proposed
/// scheme.
///
/// On every rename the scheme:
///
/// 1. Maps sources through the versioned map table; a source whose version
///    is no longer the register's current version reveals a **single-use
///    misprediction** and triggers the repair of §IV-D1 (a fresh register
///    plus an injected [`crate::UopKind::RepairMove`] micro-op).
/// 2. Sets the PRT read bit of every source (the first-consumer detector).
/// 3. For each definition (the destination, and the written-back base of
///    a post-increment memory operation), searches the sources for a
///    register that can be **reused**: read bit previously clear (first
///    consumer), same class, a free shadow cell, and an unsaturated
///    version counter. A source that the instruction also redefines is a
///    guaranteed-safe reuse; any other qualifying source is a speculative
///    reuse (the bank a register was allocated in *is* the single-use
///    prediction).
/// 4. Otherwise allocates from the bank chosen by the register type
///    predictor, falling back to the closest bank, or stalls when the
///    file is exhausted.
///
/// Physical registers are released when no rename-map entry references
/// them any more (tracked with a per-register mapping count, evaluated at
/// commit) — which reproduces conventional release-on-commit when no
/// sharing happens and release-on-rename semantics when it does (§IV-A3).
///
/// # Examples
///
/// See the crate-level example for the Fig. 4 chain.
#[derive(Debug, Clone)]
pub struct ReuseRenamer {
    t: RenameTables,
    prt: [Prt; 2],
    meta: [Vec<PregMeta>; 2],
    predictor: RegTypePredictor,
    single_use: SingleUsePredictor,
    /// One in-flight record stack per hardware thread: commits are in
    /// sequence order per thread, and a squash walks only the squashing
    /// thread's records. The PRT, free lists and predictors above are
    /// shared — reuse candidates are always the renaming thread's own
    /// sources, so a physical register never becomes reachable from two
    /// threads.
    records: Vec<CheckpointStack<Record>>,
    /// The program's static hint table (`None` until installed; an
    /// absent table behaves as all-`Unknown`).
    hints: Option<ShareHintTable>,
    hint_stats: HintStats,
    /// Reused squash-outcome storage: cleared and refilled by every
    /// `squash_after`, so steady-state squashes never allocate.
    squash: SquashOutcome,
    /// Advances on every event that can change a failed rename's
    /// outcome: a release, a squash, a predictor or hint install; see
    /// [`Renamer::state_epoch`].
    epoch: u64,
    /// The counter tally of each thread's most recent failed rename,
    /// added again by [`Renamer::note_stall_on`] for gated retries. Per
    /// thread because another thread's successful rename between the
    /// stall and its retry must not swap in the wrong tally.
    stall_tally: Vec<Tally>,
}

impl ReuseRenamer {
    /// Creates a renamer with every logical register mapped to an initial
    /// physical register (allocated from the conventional bank first).
    ///
    /// # Panics
    ///
    /// Panics if a register file is not larger than the logical register
    /// count.
    pub fn new(config: RenamerConfig) -> Self {
        let max_version = config.max_version();
        let mut prt = [
            Prt::new(config.int_banks.total(), max_version),
            Prt::new(config.fp_banks.total(), max_version),
        ];
        let meta = [
            vec![PregMeta::default(); config.int_banks.total()],
            vec![PregMeta::default(); config.fp_banks.total()],
        ];
        let predictor = RegTypePredictor::new(config.predictor_entries, config.predictor_bits);
        let single_use = SingleUsePredictor::new(config.predictor_entries);
        let threads = config.threads;
        let t = RenameTables::new(config, |class, preg| {
            prt[class.index()].map_inc(preg);
        });
        ReuseRenamer {
            t,
            prt,
            meta,
            predictor,
            single_use,
            records: (0..threads).map(|_| CheckpointStack::new()).collect(),
            hints: None,
            hint_stats: HintStats::default(),
            squash: SquashOutcome::default(),
            epoch: 0,
            stall_tally: vec![Tally::default(); threads],
        }
    }

    /// The compiler's hint for the definition slot `(pc, slot)`;
    /// `Unknown` without an installed table.
    fn hint_at(&self, pc: u64, slot: DefSlot) -> ShareHint {
        self.hints
            .as_ref()
            .map_or(ShareHint::Unknown, |h| h.get(pc as usize, slot))
    }

    /// The current (speculative) rename map.
    pub fn map(&self) -> &MapTable {
        self.t.map()
    }

    /// The retirement (architectural) rename map.
    pub fn retire_map(&self) -> &MapTable {
        self.t.retire_map()
    }

    /// The Physical Register Table of one class.
    pub fn prt(&self, class: RegClass) -> &Prt {
        &self.prt[class.index()]
    }

    /// The register type predictor.
    pub fn predictor(&self) -> &RegTypePredictor {
        &self.predictor
    }

    /// The one allocation path, shared by repairs and both definition
    /// slots: picks the bank, pops a register from it (or the closest
    /// non-empty bank), resets its PRT entry and metadata, and maps
    /// `logical` to it at version 0. `key` addresses the type predictor;
    /// `hint` is the compiler's hint for the defining slot. Returns the
    /// replaced and the new mapping, or `None` when the file is exhausted.
    #[inline(always)]
    fn allocate(
        &mut self,
        h: usize,
        logical: ArchReg,
        key: u64,
        hint: ShareHint,
        tally: &mut Tally,
    ) -> Option<(TaggedReg, TaggedReg)> {
        // Bank choice: the hint supplies the expected reuse count where
        // the policy lets it; otherwise the type predictor does. A
        // statically-banked register neither trains the predictor nor
        // counts in its Fig. 12 accounting — its release feedback goes
        // to `HintStats` instead.
        let static_bank = match self.t.config.hint_policy {
            HintPolicy::DynamicOnly => false,
            HintPolicy::StaticOnly => true,
            HintPolicy::Hybrid => hint.is_exact(),
        };
        let predicted = match (static_bank, hint) {
            (false, _) => self.predictor.predict(key),
            (true, ShareHint::SingleUse) => 1,
            (true, _) => 0,
        };
        let class = logical.class();
        let ci = class.index();
        let preg = self.t.free[ci].alloc(predicted)?;
        self.prt[ci].alloc(preg);
        let entry = self.predictor.entry_index(key) as u32;
        self.meta[ci][preg.0 as usize].allocated(entry, predicted, static_bank, hint);
        let source = if static_bank {
            Count::StaticAllocs
        } else {
            Count::DynamicAllocs
        };
        self.count(tally, source, 1);
        let new_map = TaggedReg::new(class, preg, 0);
        Some((self.t.maps[h].set(logical, new_map), new_map))
    }

    /// Counts `n` of `count` in the statistics, and in the attempt's
    /// `tally` for the gated retries should it stall.
    fn count(&mut self, tally: &mut Tally, count: Count, n: u64) {
        tally.add(count, n);
        *count.counter(&mut self.t.stats, &mut self.hint_stats) += n;
    }

    /// The one reuse path: maps `logical` to the next version of source
    /// register `src`, which this rename is the first consumer of.
    /// `redefining` marks a guaranteed-safe reuse; otherwise `spec` names
    /// who granted the speculation.
    #[inline(always)]
    fn reuse(
        &mut self,
        h: usize,
        logical: ArchReg,
        pc: u64,
        hint: ShareHint,
        (src, redefining, spec): (TaggedReg, bool, Option<SpecSource>),
        tally: &mut Tally,
    ) -> DstChange {
        let ci = src.class.index();
        let newv = self.prt[ci].bump(src.preg);
        self.prt[ci].map_inc(src.preg);
        let new_map = TaggedReg::new(src.class, src.preg, newv);
        let old_map = self.t.maps[h].set(logical, new_map);
        let grant = spec.map(|s| match s {
            SpecSource::Dynamic => {
                self.count(tally, Count::DynamicSpeculations, 1);
                (s, self.single_use.entry_index(pc) as u32)
            }
            SpecSource::Static => {
                self.count(tally, Count::StaticSpeculations, 1);
                (s, 0)
            }
        });
        self.meta[ci][src.preg.0 as usize].reused(newv, hint, grant);
        self.count(tally, Count::Reuses, 1);
        let kind = if redefining {
            Count::SafeReuses
        } else {
            Count::SpeculativeReuses
        };
        self.count(tally, kind, 1);
        DstChange {
            logical,
            old_map,
            new_map,
        }
    }

    /// Phase A (§IV-D1): maps the sources. A source whose version is no
    /// longer its register's current one is a single-use misprediction:
    /// the logical register gets a fresh register, filled by an injected
    /// repair move. `None` when no register is free for the repair.
    fn map_sources(&mut self, h: usize, pc: u64, inst: &Inst, a: &mut Attempt) -> Option<()> {
        for (slot, raw) in inst.raw_sources().iter().enumerate() {
            let Some(r) = raw.filter(|r| !r.is_zero()) else {
                continue;
            };
            // A register repaired for an earlier slot is already mapped
            // to its fresh register at the fresh PRT entry's version 0.
            let t = self.t.maps[h].get(r);
            if self.prt[t.class.index()].entry(t.preg).counter == t.version {
                a.srcs[slot] = Some(t);
                continue;
            }
            // Stale mapping: the register was reused by another logical
            // register, yet the value is being read again. Repair moves
            // have no compiler-visible definition site, so no hint.
            let (old_map, new_map) = self.allocate(h, r, pc, ShareHint::Unknown, &mut a.tally)?;
            debug_assert_eq!(old_map, t);
            a.repair(slot, r, old_map, new_map);
        }
        Some(())
    }

    /// Phase B: sets the read bit of every source register, noting per
    /// operand slot whether it was clear: whether this rename is the
    /// source's first consumer.
    fn mark_reads(&mut self, a: &mut Attempt) {
        for slot in 0..3 {
            let Some(t) = a.srcs[slot] else {
                continue;
            };
            // A register an earlier slot marked keeps that slot's verdict.
            let same =
                |s: &usize| a.srcs[*s].is_some_and(|e| e.class == t.class && e.preg == t.preg);
            let first = match (0..slot).find(same) {
                Some(earlier) => a.first_use(earlier),
                None => {
                    let first = !self.prt[t.class.index()].mark_read(t.preg);
                    if first {
                        a.first_reads.push(t.class, t.preg);
                    }
                    first
                }
            };
            a.set_first_use(slot, first);
        }
    }

    /// Phases C and D: defines `logical` for one definition slot.
    /// `candidates` are the sources this rename is the first consumer of,
    /// each with whether the instruction redefines it. A reusable
    /// candidate is taken, a redefining one first; with none, `logical`
    /// gets a fresh register. `None` when the file is exhausted.
    #[inline(always)]
    fn define(
        &mut self,
        h: usize,
        pc: u64,
        slot: DefSlot,
        logical: ArchReg,
        candidates: &Candidates,
        a: &mut Attempt,
    ) -> Option<DstChange> {
        let mut chosen: Option<(TaggedReg, bool, Option<SpecSource>)> = None;
        for &(t, redefining) in candidates.iter().flatten() {
            // A redefining first consumer is also the provably last one;
            // any other first consumer needs a grant — a static
            // `SingleUse` proof or the single-use predictor, per the hint
            // policy (§IV-A2) — and is excluded entirely in the safe-only
            // ablation.
            let mut spec = None;
            if !redefining {
                match self.speculation_decision(pc, t) {
                    SpecDecision::Grant(s) => spec = Some(s),
                    SpecDecision::DenyStatic => {
                        self.count(&mut a.tally, Count::StaticDenials, 1);
                        continue;
                    }
                    SpecDecision::Deny => continue,
                }
            }
            let ci = t.class.index();
            let cells = self.t.free[ci].shadow_cells_of(t.preg);
            if t.version >= cells || !self.prt[ci].can_bump(t.preg) {
                a.defer_blocked(t);
            } else if chosen.is_none_or(|(_, taken_safe, _)| redefining && !taken_safe) {
                // A redefining source is preferred: it is a
                // guaranteed-safe reuse.
                chosen = Some((t, redefining, spec));
            }
        }
        let hint = self.hint_at(pc, slot);
        if let Some(pick) = chosen {
            return Some(self.reuse(h, logical, pc, hint, pick, &mut a.tally));
        }
        // The salted pc separates the writeback slot in the predictor
        // tables; the hint table addresses slots directly, so the lookup
        // above uses the real pc.
        let key = match slot {
            DefSlot::Primary => pc,
            DefSlot::Writeback => pc ^ 0x8000_0000,
        };
        let (old_map, new_map) = self.allocate(h, logical, key, hint, &mut a.tally)?;
        self.count(&mut a.tally, Count::Allocations, 1);
        Some(DstChange {
            logical,
            old_map,
            new_map,
        })
    }

    /// Phases A–D of one rename, staged into `a`: the definitions of the
    /// destination and of the written-back base, or `None` when a
    /// register the rename needs is not free and it must stall. A stall
    /// at the written-back base undoes the destination's definition; the
    /// rest of the attempt is [`Self::roll_back`]'s.
    fn stage(
        &mut self,
        h: usize,
        pc: u64,
        inst: &Inst,
        a: &mut Attempt,
    ) -> Option<(Option<DstChange>, Option<DstChange>)> {
        self.map_sources(h, pc, inst, a)?;
        self.mark_reads(a);
        let dst = match inst.dst() {
            Some(dl) => {
                let candidates = a.dst_candidates(inst, dl);
                Some(self.define(h, pc, DefSlot::Primary, dl, &candidates, a)?)
            }
            None => None,
        };
        let Some(d2) = inst.dst2() else {
            return Some((dst, None));
        };
        // The written-back base of a post-increment memory operation: the
        // instruction is by construction its *redefining* consumer, so it
        // is a guaranteed-safe reuse whenever its value had no earlier
        // consumer.
        let slot = inst.raw_sources().iter().position(|s| *s == Some(d2));
        let slot = slot.expect("post-increment base is always a source");
        let base = a.srcs[slot].expect("a nonzero source is mapped");
        let candidates = [a.first_use(slot).then_some((base, true)), None, None];
        match self.define(h, pc, DefSlot::Writeback, d2, &candidates, a) {
            Some(dst2) => Some((dst, Some(dst2))),
            None => {
                if let Some(change) = dst {
                    self.undo_change(h, change);
                }
                None
            }
        }
    }

    /// Applies one deferred training event of a successful rename.
    fn learn(&mut self, event: Learn) {
        match event {
            Learn::MultiUse(stale) => {
                let victim = &mut self.meta[stale.class.index()][stale.preg.0 as usize];
                victim.multi_use = true;
                if victim.has_entry {
                    self.predictor.on_multi_use(victim.entry as usize);
                }
                // The overwriting version reveals who granted the bad
                // speculation: a static proof (the repair is charged to
                // the compiler, nothing to train) or the dynamic
                // predictor (corrected). A stale version is below its
                // register's counter, so the overwriting one exists.
                let v = stale.version + 1;
                if victim.spec_static & (1 << v) != 0 {
                    self.hint_stats.static_repaired += 1;
                } else if victim.spec_dynamic & (1 << v) != 0 {
                    self.single_use
                        .on_wrong(victim.spec_entries[v as usize] as usize);
                    self.hint_stats.dynamic_repaired += 1;
                }
                self.t.stats.repairs += 1;
            }
            Learn::Blocked(t) => {
                let m = &mut self.meta[t.class.index()][t.preg.0 as usize];
                m.blocked = true;
                if m.has_entry {
                    self.predictor.on_blocked_reuse(m.entry as usize);
                }
                self.t.stats.blocked_reuses += 1;
            }
        }
    }

    fn release(&mut self, class: RegClass, preg: PhysReg) {
        // A release is the only commit-side event a stalled rename can
        // observe: the free list gains a register and the predictors
        // train. Everything else commit touches (retirement map, mapping
        // counts, the record queue) is invisible to a rename attempt.
        self.epoch += 1;
        let ci = class.index();
        self.t.free[ci].free(preg);
        let meta = &self.meta[ci][preg.0 as usize];
        self.t.stats.releases += 1;
        self.t.stats.chain_lengths.record(meta.reuses as u64);
        if meta.has_entry {
            self.predictor.on_release(
                meta.entry as usize,
                meta.predicted,
                meta.reuses,
                meta.multi_use,
                meta.blocked,
            );
        } else if meta.static_bank {
            // Fig. 12 classification for a statically-banked register,
            // judged by the same rules the predictor applies to its own.
            let correct = if meta.predicted == 0 {
                !meta.blocked
            } else {
                meta.reuses == meta.predicted && !meta.multi_use
            };
            if correct {
                self.hint_stats.static_bank_correct += 1;
            } else {
                self.hint_stats.static_bank_incorrect += 1;
            }
        }
        // Speculative reuses that survived to release were correct:
        // reinforce dynamically-predicted consumers, and credit each
        // grant to its source.
        if !meta.multi_use {
            let mut dynamic = meta.spec_dynamic;
            while dynamic != 0 {
                let v = dynamic.trailing_zeros() as usize;
                self.single_use.on_correct(meta.spec_entries[v] as usize);
                dynamic &= dynamic - 1;
            }
            self.hint_stats.dynamic_correct += u64::from(meta.spec_dynamic.count_ones());
            self.hint_stats.static_correct += u64::from(meta.spec_static.count_ones());
        }
    }

    /// Rolls a stalled attempt back, youngest first (its definitions
    /// are already undone), and keeps its tally for the gated retries.
    fn roll_back(&mut self, h: usize, a: &Attempt) {
        self.clear_first_reads(a.first_reads);
        for (_, repair) in a.repairs().rev() {
            self.undo_change(h, repair);
        }
        self.t.stats.stalls += 1;
        // Until the epoch advances, every retry would add exactly this
        // tally again.
        self.stall_tally[h] = a.tally;
    }

    /// Undoes one record's rename effects on a squash, appending the
    /// recover commands of its reuses.
    fn undo_record(&mut self, h: usize, record: Record, recovers: &mut Vec<TaggedReg>) {
        for change in [record.dst2, record.dst].into_iter().flatten() {
            let Some(restored) = self.undo_change(h, change) else {
                continue;
            };
            // One recover command per register; walking youngest to
            // oldest, the last write leaves the oldest (final) restored
            // version in place.
            let same = |t: &&mut TaggedReg| t.class == restored.class && t.preg == restored.preg;
            match recovers.iter_mut().find(same) {
                Some(t) => t.version = restored.version,
                None => recovers.push(restored),
            }
        }
        self.clear_first_reads(record.first_reads);
    }

    /// Clears again the read bits a micro-op set, youngest first.
    fn clear_first_reads(&mut self, first_reads: FirstReads) {
        for (class, preg) in first_reads.iter().rev() {
            self.prt[class.index()].set_read(preg, false);
        }
    }

    /// Whether a *non-redefining* first consumer may take a speculative
    /// reuse of `src`, and on whose authority. Pure decision logic: the
    /// caller tallies a static denial.
    fn speculation_decision(&self, pc: u64, src: TaggedReg) -> SpecDecision {
        if !self.t.config.speculative_reuse {
            return SpecDecision::Deny;
        }
        let hint = self.meta[src.class.index()][src.preg.0 as usize].hint(src.version);
        let dynamic = || {
            if self.single_use.predict(pc) {
                SpecDecision::Grant(SpecSource::Dynamic)
            } else {
                SpecDecision::Deny
            }
        };
        match self.t.config.hint_policy {
            HintPolicy::DynamicOnly => dynamic(),
            HintPolicy::StaticOnly => match hint {
                ShareHint::SingleUse => SpecDecision::Grant(SpecSource::Static),
                ShareHint::NoReuse | ShareHint::Multi => SpecDecision::DenyStatic,
                ShareHint::Unknown => SpecDecision::Deny,
            },
            HintPolicy::Hybrid => match hint {
                ShareHint::SingleUse => SpecDecision::Grant(SpecSource::Static),
                ShareHint::NoReuse | ShareHint::Multi => SpecDecision::DenyStatic,
                ShareHint::Unknown => dynamic(),
            },
        }
    }

    /// Undoes one definition: frees a fresh allocation, or rolls a reuse
    /// back to the version below, which it returns for the recover
    /// command.
    fn undo_change(&mut self, h: usize, change: DstChange) -> Option<TaggedReg> {
        let DstChange {
            logical,
            old_map,
            new_map,
        } = change;
        self.t.maps[h].set(logical, old_map);
        let ci = new_map.class.index();
        if new_map.version == 0 {
            let remaining = self.prt[ci].map_dec(new_map.preg);
            debug_assert_eq!(remaining, 0, "squashed fresh allocation still referenced");
            self.t.free[ci].free(new_map.preg);
            return None;
        }
        // The read bit was true immediately before the bump (this
        // micro-op was the first consumer and marked it); the read-mark
        // undo restores the pre-rename value.
        let prev_version = new_map.version - 1;
        self.prt[ci].rollback(new_map.preg, prev_version, true);
        self.prt[ci].map_dec(new_map.preg);
        self.meta[ci][new_map.preg.0 as usize].unreused(new_map.version);
        Some(TaggedReg::new(new_map.class, new_map.preg, prev_version))
    }

    /// Retires one definition: the mapping it replaced dies, releasing
    /// its register once no map references it.
    fn retire(&mut self, h: usize, change: DstChange) {
        let old_map = change.old_map;
        if self.prt[old_map.class.index()].map_dec(old_map.preg) == 0 {
            self.release(old_map.class, old_map.preg);
        }
        self.t.retire_maps[h].set(change.logical, change.new_map);
    }
}

impl Renamer for ReuseRenamer {
    fn threads(&self) -> usize {
        self.t.threads()
    }

    fn rename_on(&mut self, hart: HartId, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        let h = hart.index();
        let mut a = Attempt::new(seq);
        let Some((dst, dst2)) = self.stage(h, pc, inst, &mut a) else {
            self.roll_back(h, &a);
            return None;
        };
        for event in a.learned() {
            self.learn(event);
        }
        for (seq, repair) in a.repairs() {
            self.records[h].push(Record {
                seq,
                first_reads: FirstReads::EMPTY,
                dst: Some(repair),
                dst2: None,
            });
        }
        self.records[h].push(Record {
            seq: a.seq,
            first_reads: a.first_reads,
            dst,
            dst2,
        });
        self.t.stats.renamed += a.seq - seq + 1;
        let main = a.main_uop(dst, dst2);
        if a.n_repairs > 0 {
            return Some(a.repaired_uops(main));
        }
        // Built where it is returned: the common bundle is never copied.
        Some(UopVec::one(main))
    }

    fn commit_on(&mut self, hart: HartId, seq: u64) {
        let h = hart.index();
        let record = self.records[h].commit_front(seq);
        if let Some(change) = record.dst {
            self.retire(h, change);
        }
        if let Some(change) = record.dst2 {
            self.retire(h, change);
        }
    }

    fn squash_after_on(&mut self, hart: HartId, seq: u64) -> &SquashOutcome {
        let h = hart.index();
        self.epoch += 1;
        let mut recovers = std::mem::take(&mut self.squash.recovers);
        recovers.clear();
        let mut undone = 0;
        while let Some(record) = self.records[h].pop_younger(seq) {
            self.undo_record(h, record, &mut recovers);
            undone += 1;
            self.t.stats.squashed += 1;
        }
        self.squash = SquashOutcome { undone, recovers };
        &self.squash
    }

    fn state_epoch(&self) -> u64 {
        self.epoch
    }

    fn note_stall_on(&mut self, hart: HartId) {
        let tally = self.stall_tally[hart.index()];
        tally.add_to(&mut self.t.stats, &mut self.hint_stats);
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

    fn predictor_stats(&self) -> crate::PredictorStats {
        *self.predictor.stats()
    }

    fn audit(&self) -> Result<(), String> {
        self.audit_invariants()
    }

    fn arch_map_on(&self, hart: HartId) -> Option<&MapTable> {
        Some(&self.t.retire_maps[hart.index()])
    }

    fn install_predictors(
        &mut self,
        predictor: &RegTypePredictor,
        single_use: &SingleUsePredictor,
    ) {
        self.epoch += 1;
        self.predictor = predictor.clone();
        self.predictor.reset_stats();
        self.single_use = single_use.clone();
        self.hint_stats = HintStats::default();
    }

    fn install_hints(&mut self, hints: &ShareHintTable) {
        self.epoch += 1;
        self.hints = Some(hints.clone());
    }

    fn hint_stats(&self) -> HintStats {
        self.hint_stats
    }
}
