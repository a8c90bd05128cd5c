//! The proposed renaming scheme: physical register sharing (§IV).

use crate::rename_common::{CheckpointStack, RenameTables};
use crate::renamer::{
    HintPolicy, HintStats, RenameStats, Renamer, RenamerConfig, SquashOutcome, UopVec,
};
use crate::{BankConfig, MapTable, PhysReg, Prt, RegTypePredictor, SingleUsePredictor, TaggedReg};
use regshare_isa::{ArchReg, DefSlot, HartId, Inst, RegClass, ShareHint, ShareHintTable};

mod audit;
mod types;

use types::{
    Attempt, Candidates, DstAction, Learn, PregMeta, Record, SpecDecision, SpecSource, Tally,
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
        self.prt[ci].reset_on_alloc(preg);
        self.prt[ci].map_inc(preg);
        let m = &mut self.meta[ci][preg.0 as usize];
        *m = PregMeta {
            entry: self.predictor.entry_index(key),
            predicted,
            has_entry: !static_bank,
            static_bank,
            ..PregMeta::default()
        };
        m.version_hints[0] = hint;
        tally.static_allocs += u64::from(static_bank);
        tally.dynamic_allocs += u64::from(!static_bank);
        let new_map = TaggedReg::new(class, preg, 0);
        Some((self.t.maps[h].set(logical, new_map), new_map))
    }

    /// The one reuse path: maps `logical` to the next version of source
    /// register `src`, which this rename is the first consumer of.
    /// `redefining` marks a guaranteed-safe reuse; otherwise `spec` names
    /// who granted the speculation.
    fn reuse(
        &mut self,
        h: usize,
        logical: ArchReg,
        pc: u64,
        hint: ShareHint,
        (src, redefining, spec): (TaggedReg, bool, Option<SpecSource>),
        tally: &mut Tally,
    ) -> DstAction {
        let ci = src.class.index();
        let newv = self.prt[ci].bump(src.preg);
        self.prt[ci].map_inc(src.preg);
        let new_map = TaggedReg::new(src.class, src.preg, newv);
        let old_map = self.t.maps[h].set(logical, new_map);
        let su_entry = self.single_use.entry_index(pc) as u32;
        let m = &mut self.meta[ci][src.preg.0 as usize];
        m.reuses += 1;
        m.version_hints[newv as usize] = hint;
        match spec {
            None => {}
            Some(SpecSource::Dynamic) => {
                m.spec_entries[newv as usize] = Some(su_entry);
                tally.dynamic_speculations += 1;
            }
            Some(SpecSource::Static) => {
                m.spec_static[newv as usize] = true;
                tally.static_speculations += 1;
            }
        }
        tally.reuses += 1;
        tally.safe_reuses += u64::from(redefining);
        tally.speculative_reuses += u64::from(!redefining);
        DstAction::Reuse {
            logical,
            old_map,
            new_map,
            prev_version: src.version,
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

    /// Phase B: sets the read bit of every source register. The recorded
    /// previous bits double as this rename's first-consumer lookup.
    fn mark_reads(&mut self, a: &mut Attempt) {
        for t in a.srcs.iter().flatten() {
            if a.main.read_marks.prev_read(t.class, t.preg).is_none() {
                let prev = self.prt[t.class.index()].mark_read(t.preg);
                a.main.read_marks.push(t.class, t.preg, prev);
            }
        }
    }

    /// Phases C and D: defines `logical` for one definition slot.
    /// `candidates` are the sources this rename is the first consumer of,
    /// each with whether the instruction redefines it. A reusable
    /// candidate is taken, a redefining one first; with none, `logical`
    /// gets a fresh register. `None` when the file is exhausted.
    fn define(
        &mut self,
        h: usize,
        pc: u64,
        slot: DefSlot,
        logical: ArchReg,
        candidates: &Candidates,
        a: &mut Attempt,
    ) -> Option<DstAction> {
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
                        a.tally.static_denials += 1;
                        continue;
                    }
                    SpecDecision::Deny => continue,
                }
            }
            let cells = self.t.config.banks(t.class).shadow_cells_of(t.preg);
            if t.version >= cells || !self.prt[t.class.index()].can_bump(t.preg) {
                a.defer(Learn::Blocked(t));
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
        a.tally.allocations += 1;
        Some(DstAction::Alloc {
            logical,
            old_map,
            new_map,
        })
    }

    /// Phases A–D of one rename, staged into `a`; `None` when a register
    /// the rename needs is not free and it must stall.
    fn stage(&mut self, h: usize, pc: u64, inst: &Inst, a: &mut Attempt) -> Option<()> {
        self.map_sources(h, pc, inst, a)?;
        self.mark_reads(a);
        if let Some(dl) = inst.dst() {
            let candidates = a.dst_candidates(inst, dl);
            a.main.dst = self.define(h, pc, DefSlot::Primary, dl, &candidates, a)?;
        }
        if let Some(d2) = inst.dst2() {
            // The written-back base of a post-increment memory operation:
            // the instruction is by construction its *redefining*
            // consumer, so it is a guaranteed-safe reuse whenever its
            // value had no earlier consumer.
            let base = a
                .src_tag(inst, d2)
                .expect("post-increment base is always a source");
            let candidates = [a.first_use(base).then_some((base, true)), None, None];
            a.main.dst2 = self.define(h, pc, DefSlot::Writeback, d2, &candidates, a)?;
        }
        Some(())
    }

    /// Applies one deferred training event of a successful rename.
    fn learn(&mut self, event: Learn) {
        match event {
            Learn::MultiUse(stale) => {
                let victim = &mut self.meta[stale.class.index()][stale.preg.0 as usize];
                victim.multi_use = true;
                if victim.has_entry {
                    self.predictor.on_multi_use(victim.entry);
                }
                // The overwriting version reveals who granted the bad
                // speculation: a static proof (the repair is charged to
                // the compiler, nothing to train) or the dynamic
                // predictor (corrected).
                let vi = stale.version as usize + 1;
                if victim.spec_static.get(vi).copied().unwrap_or(false) {
                    self.hint_stats.static_repaired += 1;
                } else if let Some(Some(e)) = victim.spec_entries.get(vi) {
                    self.single_use.on_wrong(*e as usize);
                    self.hint_stats.dynamic_repaired += 1;
                }
                self.t.stats.repairs += 1;
            }
            Learn::Blocked(t) => {
                let m = &mut self.meta[t.class.index()][t.preg.0 as usize];
                m.blocked = true;
                if m.has_entry {
                    self.predictor.on_blocked_reuse(m.entry);
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
        self.t.free[ci].free(preg, self.t.config.banks(class));
        let meta = self.meta[ci][preg.0 as usize];
        self.t.stats.releases += 1;
        self.t.stats.chain_lengths.record(meta.reuses as u64);
        if meta.has_entry {
            self.predictor.on_release(
                meta.entry,
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
            for (v, entry) in meta.spec_entries.iter().enumerate() {
                if let Some(e) = entry {
                    self.single_use.on_correct(*e as usize);
                    self.hint_stats.dynamic_correct += 1;
                } else if meta.spec_static[v] {
                    self.hint_stats.static_correct += 1;
                }
            }
        }
    }

    /// Undoes one record's rename effects (shared by squash and the
    /// stall rollback path). Appends recover candidates.
    fn undo_record(&mut self, h: usize, record: Record, recovers: &mut Vec<TaggedReg>) {
        self.undo_dst_action(h, record.dst2, recovers);
        self.undo_dst_action(h, record.dst, recovers);
        for &(class, preg, prev) in record.read_marks.iter().rev() {
            self.prt[class.index()].set_read(preg, prev);
        }
    }

    /// Whether a *non-redefining* first consumer may take a speculative
    /// reuse of `src`, and on whose authority. Pure decision logic: the
    /// caller tallies a static denial.
    fn speculation_decision(&self, pc: u64, src: TaggedReg) -> SpecDecision {
        if !self.t.config.speculative_reuse {
            return SpecDecision::Deny;
        }
        let hint =
            self.meta[src.class.index()][src.preg.0 as usize].version_hints[src.version as usize];
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

    fn undo_dst_action(&mut self, h: usize, action: DstAction, recovers: &mut Vec<TaggedReg>) {
        match action {
            DstAction::None => {}
            DstAction::Alloc {
                logical,
                old_map,
                new_map,
            } => {
                self.t.maps[h].set(logical, old_map);
                let ci = new_map.class.index();
                let remaining = self.prt[ci].map_dec(new_map.preg);
                debug_assert_eq!(remaining, 0, "squashed fresh allocation still referenced");
                self.t.free[ci].free(new_map.preg, self.t.config.banks(new_map.class));
            }
            DstAction::Reuse {
                logical,
                old_map,
                new_map,
                prev_version,
            } => {
                self.t.maps[h].set(logical, old_map);
                let ci = new_map.class.index();
                // The read bit was true immediately before the bump (this
                // micro-op was the first consumer and marked it); the
                // read-mark undo below restores the pre-rename value.
                self.prt[ci].rollback(new_map.preg, prev_version, true);
                self.prt[ci].map_dec(new_map.preg);
                let m = &mut self.meta[ci][new_map.preg.0 as usize];
                m.reuses = m.reuses.saturating_sub(1);
                m.spec_entries[new_map.version as usize] = None;
                m.spec_static[new_map.version as usize] = false;
                m.version_hints[new_map.version as usize] = ShareHint::Unknown;
                // One recover command per register; walking youngest to
                // oldest, the last write leaves the oldest (final)
                // restored version in place.
                match recovers
                    .iter_mut()
                    .find(|t| t.class == new_map.class && t.preg == new_map.preg)
                {
                    Some(t) => t.version = prev_version,
                    None => {
                        recovers.push(TaggedReg::new(new_map.class, new_map.preg, prev_version))
                    }
                }
            }
        }
    }
}

impl Renamer for ReuseRenamer {
    fn threads(&self) -> usize {
        self.t.threads()
    }

    fn rename_on(&mut self, hart: HartId, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        let h = hart.index();
        let mut a = Attempt::new(seq);
        let staged = self.stage(h, pc, inst, &mut a).is_some();
        a.tally.add_to(&mut self.t.stats, &mut self.hint_stats);
        if !staged {
            // Roll back everything staged, youngest first. The recover
            // candidates are discarded (nothing issued yet), so borrow
            // the persistent buffer as scratch.
            let mut scratch = std::mem::take(&mut self.squash.recovers);
            scratch.clear();
            self.undo_record(h, a.main, &mut scratch);
            for record in a.repairs.into_iter().rev().flatten() {
                self.undo_record(h, record, &mut scratch);
            }
            scratch.clear();
            self.squash.recovers = scratch;
            self.t.stats.stalls += 1;
            // Until the epoch advances, every retry would add exactly
            // this tally again.
            self.stall_tally[h] = a.tally;
            return None;
        }
        for &event in a.learn.iter().flatten() {
            self.learn(event);
        }
        let uops = a.uops();
        self.t.stats.renamed += uops.len() as u64;
        self.records[h].extend(a.repairs.into_iter().flatten());
        self.records[h].push(a.main);
        Some(uops)
    }

    fn commit_on(&mut self, hart: HartId, seq: u64) {
        let h = hart.index();
        let record = self.records[h].commit_front(seq);
        for (logical, old_map, new_map) in [record.dst, record.dst2]
            .iter()
            .filter_map(DstAction::mapping)
        {
            let ci = old_map.class.index();
            if self.prt[ci].map_dec(old_map.preg) == 0 {
                self.release(old_map.class, old_map.preg);
            }
            self.t.retire_maps[h].set(logical, new_map);
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
