//! The [`Renamer`] trait: the interface between the rename stage of the
//! out-of-order pipeline and a renaming scheme.

use crate::{BankConfig, MapTable, TaggedReg};
use regshare_isa::{HartId, Inst, RegClass, ShareHintTable, MAX_HARTS};
use regshare_stats::Histogram;
use serde::{Deserialize, Serialize};

/// How the renamer combines the compiler's static sharing hints with its
/// dynamic predictors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HintPolicy {
    /// Ignore static hints entirely — the paper's configuration. This is
    /// the default and is bit-identical to the pre-hint simulator.
    #[default]
    DynamicOnly,
    /// Trust only the static proofs: speculate exactly where the hint is
    /// `SingleUse`, pick banks from the hint, and never consult or train
    /// the dynamic predictors.
    StaticOnly,
    /// Exact static proofs override the dynamic predictors; `Unknown`
    /// sites fall back to them unchanged.
    Hybrid,
}

/// Accuracy accounting for the static-hint path, split by the source of
/// each decision (static proof vs dynamic predictor) — the Fig. 12
/// analogue for the hint study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HintStats {
    /// Destination allocations whose bank was chosen by a static hint.
    pub static_allocs: u64,
    /// Destination allocations banked by the dynamic type predictor.
    pub dynamic_allocs: u64,
    /// Speculative reuses granted by a static `SingleUse` proof.
    pub static_speculations: u64,
    /// Speculative reuses granted by the dynamic single-use predictor.
    pub dynamic_speculations: u64,
    /// Speculation opportunities denied by an exact static negative
    /// proof (`Multi` / `NoReuse`).
    pub static_denials: u64,
    /// Statically-granted speculations that survived to release.
    pub static_correct: u64,
    /// Statically-granted speculations repaired by a misprediction.
    pub static_repaired: u64,
    /// Dynamically-granted speculations that survived to release.
    pub dynamic_correct: u64,
    /// Dynamically-granted speculations repaired by a misprediction.
    pub dynamic_repaired: u64,
    /// Releases of statically-banked registers whose reuse count matched
    /// the hint-derived bank (Fig. 12 "correct" for the static source).
    pub static_bank_correct: u64,
    /// Releases of statically-banked registers that mismatched.
    pub static_bank_incorrect: u64,
}

impl HintStats {
    /// Accuracy of statically-granted speculations in `[0, 1]`; 0 when
    /// none resolved.
    pub fn static_accuracy(&self) -> f64 {
        let t = self.static_correct + self.static_repaired;
        if t == 0 {
            0.0
        } else {
            self.static_correct as f64 / t as f64
        }
    }

    /// Accuracy of dynamically-granted speculations in `[0, 1]`; 0 when
    /// none resolved.
    pub fn dynamic_accuracy(&self) -> f64 {
        let t = self.dynamic_correct + self.dynamic_repaired;
        if t == 0 {
            0.0
        } else {
            self.dynamic_correct as f64 / t as f64
        }
    }
}

/// Configuration shared by both renaming schemes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RenamerConfig {
    /// Integer register file bank layout.
    pub int_banks: BankConfig,
    /// Floating-point register file bank layout.
    pub fp_banks: BankConfig,
    /// Width of the version counter in bits (the paper's 2-bit counter);
    /// versions saturate at `2^counter_bits − 1`.
    pub counter_bits: u8,
    /// Register type predictor entries (512 in the paper).
    pub predictor_entries: usize,
    /// Register type predictor entry width in bits (2 in the paper).
    pub predictor_bits: u8,
    /// Allow speculative (non-redefining) reuse gated by the single-use
    /// predictor (§IV-A2). Disabling restricts the scheme to provably
    /// safe redefining reuses — an ablation of the paper's speculation.
    pub speculative_reuse: bool,
    /// How static sharing hints combine with the dynamic predictors.
    #[serde(default)]
    pub hint_policy: HintPolicy,
    /// Hardware-thread contexts sharing the physical register file
    /// (1..=[`MAX_HARTS`]). Each thread gets its own map table, retire
    /// map and checkpoint stack; the free lists, PRT and predictors are
    /// shared.
    pub threads: usize,
}

impl RenamerConfig {
    /// Baseline configuration: conventional single-bank files of `regs`
    /// registers per class.
    pub fn baseline(regs: usize) -> Self {
        RenamerConfig {
            int_banks: BankConfig::conventional(regs),
            fp_banks: BankConfig::conventional(regs),
            counter_bits: 2,
            predictor_entries: 512,
            predictor_bits: 2,
            speculative_reuse: true,
            hint_policy: HintPolicy::DynamicOnly,
            threads: 1,
        }
    }

    /// The paper's proposed configuration at equal area to a baseline of
    /// `baseline_regs` registers per class (Table III).
    ///
    /// # Panics
    ///
    /// Panics for sizes not listed in Table III.
    pub fn paper(baseline_regs: usize) -> Self {
        let banks = BankConfig::paper_row(baseline_regs);
        RenamerConfig {
            int_banks: banks.clone(),
            fp_banks: banks,
            counter_bits: 2,
            predictor_entries: 512,
            predictor_bits: 2,
            speculative_reuse: true,
            hint_policy: HintPolicy::DynamicOnly,
            threads: 1,
        }
    }

    /// A tiny configuration for unit tests and doc examples: 40 registers
    /// per class in banks of 34/2/2/2.
    pub fn small_test() -> Self {
        let banks = BankConfig::new(vec![34, 2, 2, 2]);
        RenamerConfig {
            int_banks: banks.clone(),
            fp_banks: banks,
            counter_bits: 2,
            predictor_entries: 64,
            predictor_bits: 2,
            speculative_reuse: true,
            hint_policy: HintPolicy::DynamicOnly,
            threads: 1,
        }
    }

    /// The bank layout for one class.
    pub fn banks(&self, class: RegClass) -> &BankConfig {
        match class {
            RegClass::Int => &self.int_banks,
            RegClass::Fp => &self.fp_banks,
        }
    }

    /// The version saturation value (`2^counter_bits − 1`).
    pub fn max_version(&self) -> u8 {
        (1u8 << self.counter_bits.min(3)) - 1
    }

    /// The same configuration resized for `threads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds [`MAX_HARTS`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(
            (1..=MAX_HARTS).contains(&threads),
            "threads must be in 1..={MAX_HARTS}, got {threads}"
        );
        self.threads = threads;
        self
    }
}

/// The kind of a renamed micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// The instruction itself.
    Main,
    /// A single-use-misprediction repair: moves the value of its source
    /// tag into its destination register (§IV-D1). The pipeline charges
    /// the 3-step cost of Fig. 8 when the value must come out of a shadow
    /// cell, 1 step otherwise.
    RepairMove,
}

/// A renamed micro-op: physical source/destination tags plus a sequence
/// number. `rename` returns the repairs (if any) first and the main op
/// last; each micro-op must be dispatched, committed and squashed like a
/// regular instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uop {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Main instruction or injected repair.
    pub kind: UopKind,
    /// Positional source tags (aligned with `Inst::raw_sources`; `None`
    /// for absent operands and zero-register reads).
    pub srcs: [Option<TaggedReg>; 3],
    /// Destination tag, if the micro-op writes a register.
    pub dst: Option<TaggedReg>,
    /// Second destination tag: the written-back base register of
    /// post-increment memory operations.
    pub dst2: Option<TaggedReg>,
}

/// Upper bound on the micro-op expansion of one instruction: one repair
/// per source slot (§IV-D1) plus the main micro-op.
pub const MAX_UOPS: usize = 4;

/// A fixed-capacity micro-op bundle — the result of renaming one
/// instruction. Inline storage ([`MAX_UOPS`] slots), `Copy`, and derefs
/// to `[Uop]`, so the rename hot path never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UopVec {
    buf: [Uop; MAX_UOPS],
    len: u8,
}

impl UopVec {
    const FILLER: Uop = Uop {
        seq: 0,
        kind: UopKind::Main,
        srcs: [None; 3],
        dst: None,
        dst2: None,
    };

    /// An empty bundle.
    pub const fn new() -> Self {
        UopVec {
            buf: [Self::FILLER; MAX_UOPS],
            len: 0,
        }
    }

    /// A bundle of the one micro-op `uop`.
    pub const fn one(uop: Uop) -> Self {
        UopVec {
            buf: [uop, Self::FILLER, Self::FILLER, Self::FILLER],
            len: 1,
        }
    }

    /// Appends a micro-op.
    ///
    /// # Panics
    ///
    /// Panics if the bundle already holds [`MAX_UOPS`] micro-ops.
    pub fn push(&mut self, uop: Uop) {
        self.buf[self.len as usize] = uop;
        self.len += 1;
    }
}

impl Default for UopVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for UopVec {
    type Target = [Uop];

    fn deref(&self) -> &[Uop] {
        &self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a UopVec {
    type Item = &'a Uop;
    type IntoIter = std::slice::Iter<'a, Uop>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The result of a squash: what the pipeline must repair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SquashOutcome {
    /// Number of micro-ops whose rename effects were undone.
    pub undone: u64,
    /// Registers whose version counter was rolled back; the register file
    /// may need a recover command for each (`RegFile::recover` decides and
    /// the pipeline charges the cycles). The version in each tag is the
    /// *restored* version.
    pub recovers: Vec<TaggedReg>,
}

/// Statistics kept by a renaming scheme.
#[derive(Debug, Clone)]
pub struct RenameStats {
    /// Micro-ops successfully renamed (repairs included).
    pub renamed: u64,
    /// Fresh physical register allocations.
    pub allocations: u64,
    /// Destinations that reused a source's physical register.
    pub reuses: u64,
    /// Reuses where the instruction redefined the source logical register
    /// (guaranteed-safe reuses).
    pub safe_reuses: u64,
    /// Speculative reuses (single-use predicted).
    pub speculative_reuses: u64,
    /// Reuse opportunities blocked by missing shadow cells or a saturated
    /// version counter.
    pub blocked_reuses: u64,
    /// Rename stalls due to register-file exhaustion.
    pub stalls: u64,
    /// Injected single-use-misprediction repair micro-ops.
    pub repairs: u64,
    /// Physical registers released.
    pub releases: u64,
    /// Micro-ops squashed (rename effects undone).
    pub squashed: u64,
    /// Reuse-chain length (number of reuses) observed at each register
    /// release; buckets 0..=7.
    pub chain_lengths: Histogram,
}

impl RenameStats {
    pub(crate) fn new() -> Self {
        RenameStats {
            renamed: 0,
            allocations: 0,
            reuses: 0,
            safe_reuses: 0,
            speculative_reuses: 0,
            blocked_reuses: 0,
            stalls: 0,
            repairs: 0,
            releases: 0,
            squashed: 0,
            chain_lengths: Histogram::new("reuse_chain_lengths", 7),
        }
    }

    /// Fraction of destination renames that avoided an allocation.
    pub fn reuse_fraction(&self) -> f64 {
        let denom = self.allocations + self.reuses;
        if denom == 0 {
            0.0
        } else {
            self.reuses as f64 / denom as f64
        }
    }
}

impl Default for RenameStats {
    fn default() -> Self {
        RenameStats::new()
    }
}

/// A register renaming scheme, driven by the pipeline in three in-order
/// streams: [`Renamer::rename`] at the rename stage, [`Renamer::commit`]
/// at retirement, and [`Renamer::squash_after`] on branch mispredictions
/// and exceptions.
///
/// Sequence numbers are global, strictly increasing micro-op identifiers
/// assigned by the pipeline. `rename` may expand one instruction into
/// several micro-ops (repairs); each consumes one sequence number starting
/// at the `seq` passed in, with the main op last.
///
/// # Hardware threads
///
/// A scheme that maintains more than one thread context
/// ([`Renamer::threads`]) keeps one map table, retire map and checkpoint
/// stack per [`HartId`] over the shared free lists and PRT. The `*_on`
/// methods take the hart explicitly; the un-suffixed convenience forms
/// operate on hart 0 and exist so single-threaded callers read naturally.
/// Commit order must be sequence order *within* each hart (harts
/// interleave freely).
pub trait Renamer {
    /// Hardware-thread contexts this scheme instance maintains.
    fn threads(&self) -> usize {
        1
    }

    /// Renames one instruction fetched by `hart`. Returns `None` when the
    /// rename stage must stall (no free physical register and no reuse
    /// possible); in that case every table mutation was rolled back —
    /// only the statistics counters of the attempt remain (hardware
    /// counts attempted work).
    fn rename_on(&mut self, hart: HartId, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec>;

    /// [`Renamer::rename_on`] for hart 0.
    fn rename(&mut self, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        self.rename_on(HartId::ZERO, seq, pc, inst)
    }

    /// Commits `hart`'s micro-op with sequence number `seq`. Must be
    /// called in sequence order for every renamed micro-op of that hart
    /// that is not squashed.
    fn commit_on(&mut self, hart: HartId, seq: u64);

    /// [`Renamer::commit_on`] for hart 0.
    fn commit(&mut self, seq: u64) {
        self.commit_on(HartId::ZERO, seq)
    }

    /// Undoes the rename effects of every micro-op of `hart` with a
    /// sequence number greater than `seq` (youngest first). Other harts'
    /// state is untouched. The returned outcome borrows scheme-owned
    /// storage and is valid until the next squash call — the scheme
    /// reuses it so squashes never allocate.
    fn squash_after_on(&mut self, hart: HartId, seq: u64) -> &SquashOutcome;

    /// [`Renamer::squash_after_on`] for hart 0.
    fn squash_after(&mut self, seq: u64) -> &SquashOutcome {
        self.squash_after_on(HartId::ZERO, seq)
    }

    /// A counter that advances on every event that can change the
    /// outcome of a failed [`Renamer::rename`] attempt: a register
    /// release, a squash, or a predictor or hint install. Renaming is a
    /// deterministic function of renamer state and the instruction, so
    /// while the epoch stands still a stalled rename would only fail
    /// again, identically; the rename stage uses this to skip such
    /// retries and charge [`Renamer::note_stall`] instead of re-running
    /// the full rename.
    ///
    /// Events that cannot change that outcome leave the epoch alone: a
    /// commit, [`Renamer::on_operands_read`], [`Renamer::on_writeback`]
    /// or [`Renamer::advance_nonspeculative`] that releases nothing.
    /// A successful rename does change renamer state (the maps, the PRT,
    /// the sharing scheme's deferred predictor training) without
    /// advancing the epoch, but it always advances the sequence number,
    /// which the rename stage's gate is keyed on as well.
    fn state_epoch(&self) -> u64;

    /// Records one gated retry cycle of `hart`'s stalled rename without
    /// re-running it. Applies exactly the statistics deltas the skipped
    /// (identical) failed attempt would have applied, so gated and
    /// ungated runs produce byte-identical reports.
    fn note_stall_on(&mut self, hart: HartId);

    /// [`Renamer::note_stall_on`] for hart 0.
    fn note_stall(&mut self) {
        self.note_stall_on(HartId::ZERO)
    }

    /// Statistics accumulated so far.
    fn stats(&self) -> &RenameStats;

    /// Free registers currently available in one class.
    fn free_regs(&self, class: RegClass) -> usize;

    /// In-use (allocated) register counts per bank for one class, indexed
    /// by shadow-cell count — the occupancy signal behind Fig. 9.
    fn in_use_per_bank(&self, class: RegClass) -> Vec<usize>;

    /// Writes the per-bank in-use counts into `out` (cleared first) — the
    /// reusable-buffer form of [`Renamer::in_use_per_bank`] the pipeline's
    /// occupancy sampler calls on its periodic path, so sampling never
    /// allocates once `out` has warmed to the bank count.
    fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.in_use_per_bank(class));
    }

    /// Total allocated physical registers of one class. The per-bank
    /// counts of [`Renamer::in_use_per_bank`] must sum to exactly this
    /// value; the pipeline audit cross-checks the two readouts.
    fn allocated_total(&self, class: RegClass) -> usize {
        self.banks(class).total() - self.free_regs(class)
    }

    /// The bank layout of one class.
    fn banks(&self, class: RegClass) -> &BankConfig;

    /// The version saturation value of the scheme's version counter
    /// (`2^counter_bits − 1`). The pipeline sizes its scoreboard to
    /// exactly `max_version() + 1` slots per physical register.
    fn max_version(&self) -> u8;

    /// Register-type predictor accuracy (Fig. 12); zeroes for schemes
    /// without a predictor.
    fn predictor_stats(&self) -> crate::PredictorStats {
        crate::PredictorStats::default()
    }

    /// Notification that the micro-op `seq` has issued and read its
    /// source operands. Default: ignored. Early-release schemes use this
    /// to track pending reads per physical register.
    fn on_operands_read(&mut self, seq: u64) {
        let _ = seq;
    }

    /// Notification that every micro-op of `hart` with a sequence number
    /// **below** `boundary` can no longer be squashed by a branch
    /// misprediction (all of that hart's older branches have resolved).
    /// Default: ignored.
    fn advance_nonspeculative_on(&mut self, hart: HartId, boundary: u64) {
        let _ = (hart, boundary);
    }

    /// [`Renamer::advance_nonspeculative_on`] for hart 0.
    fn advance_nonspeculative(&mut self, boundary: u64) {
        self.advance_nonspeculative_on(HartId::ZERO, boundary)
    }

    /// Notification that the micro-op `seq` wrote its destination
    /// register(s) back. Default: ignored. Early-release schemes must not
    /// release a register whose previous owner's producer has not written
    /// yet — a reallocation would otherwise be clobbered by the late
    /// write.
    fn on_writeback(&mut self, seq: u64) {
        let _ = seq;
    }

    /// Checks the scheme's internal bookkeeping invariants — free-list /
    /// map-table / reference-count consistency. Returns `Err` with a
    /// human-readable diagnostic on the first violation found. Default:
    /// vacuously `Ok` for schemes without auditable state.
    ///
    /// Called by the pipeline's invariant auditor every
    /// `SimConfig::audit_interval` cycles; must not mutate state.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// The architectural (retire-time) map table of `hart`, if the scheme
    /// maintains one precise enough for an architectural register-state
    /// diff. Default: `None` (the oracle then skips register diffs).
    fn arch_map_on(&self, hart: HartId) -> Option<&MapTable> {
        let _ = hart;
        None
    }

    /// [`Renamer::arch_map_on`] for hart 0.
    fn arch_map(&self) -> Option<&MapTable> {
        self.arch_map_on(HartId::ZERO)
    }

    /// Installs functionally-warmed predictor tables into the scheme,
    /// clearing their accuracy accounting so a measurement window starts
    /// from trained-but-unmeasured predictors. Default: ignored — the
    /// baseline scheme has no predictors to warm.
    fn install_predictors(
        &mut self,
        predictor: &crate::RegTypePredictor,
        single_use: &crate::SingleUsePredictor,
    ) {
        let _ = (predictor, single_use);
    }

    /// Installs the program's static sharing-hint table. Default:
    /// ignored — schemes without a hint path (and the baseline) simply
    /// never consult hints.
    fn install_hints(&mut self, hints: &ShareHintTable) {
        let _ = hints;
    }

    /// Accuracy accounting for the static-hint path, split by decision
    /// source. Default: all zero for schemes without a hint path.
    fn hint_stats(&self) -> HintStats {
        HintStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let b = RenamerConfig::baseline(64);
        assert_eq!(b.int_banks.total(), 64);
        assert_eq!(b.int_banks.num_banks(), 1);
        let p = RenamerConfig::paper(64);
        assert_eq!(p.int_banks.num_banks(), 4);
        assert_eq!(p.max_version(), 3);
    }

    #[test]
    fn max_version_by_counter_bits() {
        let mut c = RenamerConfig::small_test();
        c.counter_bits = 1;
        assert_eq!(c.max_version(), 1);
        c.counter_bits = 3;
        assert_eq!(c.max_version(), 7);
    }

    #[test]
    fn reuse_fraction_handles_empty() {
        let s = RenameStats::new();
        assert_eq!(s.reuse_fraction(), 0.0);
    }

    #[test]
    fn banks_accessor_selects_class() {
        let c = RenamerConfig::baseline(48);
        assert_eq!(c.banks(RegClass::Int).total(), 48);
        assert_eq!(c.banks(RegClass::Fp).total(), 48);
    }
}
