//! Supporting value types of the sharing renamer: per-register
//! allocation metadata, speculative-reuse decisions, the in-flight
//! rename record, and the rename attempt with its deferred training
//! events and counter tally.

use crate::rename_common::{ReadMarks, SeqRecord};
use crate::renamer::{HintStats, RenameStats, Uop, UopKind, UopVec};
use crate::TaggedReg;
use regshare_isa::{ArchReg, Inst, ShareHint};

/// Per-physical-register allocation metadata, used for the predictor's
/// release-time feedback and the Fig. 12 accuracy accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PregMeta {
    /// Predictor entry used at allocation.
    pub(super) entry: usize,
    /// Entry value at allocation (the prediction).
    pub(super) predicted: u8,
    /// Reuses observed so far (decremented when a reuse is squashed).
    pub(super) reuses: u8,
    /// A single-use misprediction repair was triggered on this register.
    pub(super) multi_use: bool,
    /// A reuse attempt was blocked by missing shadow capacity.
    pub(super) blocked: bool,
    /// False for the initial architectural mappings (no allocating PC).
    pub(super) has_entry: bool,
    /// The bank was chosen by a static hint rather than the type
    /// predictor; release feedback then goes to [`HintStats`] instead of
    /// the predictor.
    pub(super) static_bank: bool,
    /// For each version created by a *speculative* (non-redefining)
    /// reuse: the single-use-predictor entry of the consumer that took
    /// it, for release-time reinforcement / repair-time correction.
    pub(super) spec_entries: [Option<u32>; 8],
    /// Versions created by a speculation granted by a static `SingleUse`
    /// proof (never trains the dynamic predictor).
    pub(super) spec_static: [bool; 8],
    /// The compiler's hint for the producer of each live version, used
    /// when this register is weighed as a reuse source. Cleared back to
    /// `Unknown` when the version is squashed.
    pub(super) version_hints: [ShareHint; 8],
}

/// Who authorised a speculative (non-redefining) reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SpecSource {
    /// A static `SingleUse` proof from the hint table.
    Static,
    /// The dynamic single-use predictor.
    Dynamic,
}

/// Outcome of weighing a speculative-reuse candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SpecDecision {
    Grant(SpecSource),
    /// Denied by an exact static proof (`NoReuse`/`Multi`) — counted in
    /// [`HintStats::static_denials`].
    DenyStatic,
    /// Denied without a static proof (predictor said no, or the policy
    /// has no grounds to speculate).
    Deny,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum DstAction {
    None,
    /// A fresh allocation replacing `old_map`.
    Alloc {
        logical: ArchReg,
        old_map: TaggedReg,
        new_map: TaggedReg,
    },
    /// A reuse of a source register: version bumped from `prev_version`.
    Reuse {
        logical: ArchReg,
        old_map: TaggedReg,
        new_map: TaggedReg,
        prev_version: u8,
    },
}

impl DstAction {
    /// The logical register the action redefined, with its replaced and
    /// its new mapping; `None` for an absent destination.
    pub(super) fn mapping(&self) -> Option<(ArchReg, TaggedReg, TaggedReg)> {
        match *self {
            DstAction::None => None,
            DstAction::Alloc {
                logical,
                old_map,
                new_map,
            }
            | DstAction::Reuse {
                logical,
                old_map,
                new_map,
                ..
            } => Some((logical, old_map, new_map)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Record {
    pub(super) seq: u64,
    /// Read bits set by this micro-op, with their previous values.
    pub(super) read_marks: ReadMarks,
    pub(super) dst: DstAction,
    /// Base-register writeback of post-increment operations.
    pub(super) dst2: DstAction,
}

impl SeqRecord for Record {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// A predictor training event a rename observed. Applied only once the
/// rename succeeds: a stalled rename retries every cycle and must not
/// pump the predictors with duplicate events.
#[derive(Debug, Clone, Copy)]
pub(super) enum Learn {
    /// A stale source mapping: its register was not single-use after all
    /// (predictor rule 2), and the consumer whose speculative reuse
    /// overwrote the stale version mispredicted.
    MultiUse(TaggedReg),
    /// A source a definition wanted to reuse but could not for lack of
    /// shadow capacity: predictor rule 3, and the "lost opportunity" class
    /// of Fig. 12.
    Blocked(TaggedReg),
}

/// The counters a rename attempt adds whether or not it succeeds: a
/// stall rolls back every table, but hardware counts attempted work, so
/// a reuse taken for the primary destination is a reuse even when the
/// written-back base then stalls the instruction. While the
/// [`crate::Renamer::state_epoch`] is unchanged a retry is bit-identical
/// to the failed attempt, so [`crate::Renamer::note_stall`] adds the
/// failed attempt's tally again instead of re-running the rename.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Tally {
    pub(super) reuses: u64,
    pub(super) safe_reuses: u64,
    pub(super) speculative_reuses: u64,
    pub(super) allocations: u64,
    pub(super) static_allocs: u64,
    pub(super) dynamic_allocs: u64,
    pub(super) static_speculations: u64,
    pub(super) dynamic_speculations: u64,
    pub(super) static_denials: u64,
}

impl Tally {
    pub(super) fn add_to(&self, stats: &mut RenameStats, hints: &mut HintStats) {
        stats.reuses += self.reuses;
        stats.safe_reuses += self.safe_reuses;
        stats.speculative_reuses += self.speculative_reuses;
        stats.allocations += self.allocations;
        hints.static_allocs += self.static_allocs;
        hints.dynamic_allocs += self.dynamic_allocs;
        hints.static_speculations += self.static_speculations;
        hints.dynamic_speculations += self.dynamic_speculations;
        hints.static_denials += self.static_denials;
    }
}

/// Reuse candidates of one definition slot: source tags this rename is
/// the first consumer of, each with whether the instruction redefines it.
pub(super) type Candidates = [Option<(TaggedReg, bool)>; 3];

/// One rename attempt: what phases A–D staged, inline because renaming
/// never allocates. A stall undoes it; a success turns it into micro-ops
/// and in-flight records.
pub(super) struct Attempt {
    /// Phase A's repair records, per source slot (so oldest first), each
    /// an allocation.
    pub(super) repairs: [Option<Record>; 3],
    /// The main micro-op's record; its sequence number follows the
    /// repairs'.
    pub(super) main: Record,
    /// The main micro-op's source tags, per operand slot.
    pub(super) srcs: [Option<TaggedReg>; 3],
    /// Deferred training, in the order observed: at most one `MultiUse`
    /// per source slot, one `Blocked` per destination candidate and one
    /// for the written-back base.
    pub(super) learn: [Option<Learn>; 7],
    n_learn: usize,
    pub(super) tally: Tally,
}

impl Attempt {
    pub(super) fn new(seq: u64) -> Self {
        Attempt {
            repairs: [None; 3],
            main: Record {
                seq,
                read_marks: ReadMarks::EMPTY,
                dst: DstAction::None,
                dst2: DstAction::None,
            },
            srcs: [None; 3],
            learn: [None; 7],
            n_learn: 0,
            tally: Tally::default(),
        }
    }

    /// Stages the repair of source `slot` (§IV-D1): `logical` moves from
    /// its stale mapping to a fresh register, which the slot then reads.
    /// The repair move takes the next sequence number, and the main
    /// micro-op moves one later.
    pub(super) fn repair(
        &mut self,
        slot: usize,
        logical: ArchReg,
        stale: TaggedReg,
        fresh: TaggedReg,
    ) {
        self.defer(Learn::MultiUse(stale));
        let dst = DstAction::Alloc {
            logical,
            old_map: stale,
            new_map: fresh,
        };
        self.repairs[slot] = Some(Record {
            seq: self.main.seq,
            read_marks: ReadMarks::EMPTY,
            dst,
            dst2: DstAction::None,
        });
        self.srcs[slot] = Some(fresh);
        self.main.seq += 1;
    }

    /// Defers a training event until the rename is known to succeed.
    pub(super) fn defer(&mut self, event: Learn) {
        self.learn[self.n_learn] = Some(event);
        self.n_learn += 1;
    }

    /// The tag of source register `r`: after Phase A every operand slot
    /// naming `r` holds the same tag.
    pub(super) fn src_tag(&self, inst: &Inst, r: ArchReg) -> Option<TaggedReg> {
        let slot = inst.raw_sources().iter().position(|s| *s == Some(r))?;
        self.srcs[slot]
    }

    /// Whether this rename is the first consumer of source `t`: Phase B
    /// found its read bit clear.
    pub(super) fn first_use(&self, t: TaggedReg) -> bool {
        self.main.read_marks.prev_read(t.class, t.preg) == Some(false)
    }

    /// The primary destination's reuse candidates: each same-class
    /// source this rename is the first consumer of, once per physical
    /// register (two logical sources may share one), with whether the
    /// instruction redefines it. The written-back base belongs to the
    /// writeback slot.
    pub(super) fn dst_candidates(&self, inst: &Inst, dl: ArchReg) -> Candidates {
        let mut out: Candidates = [None; 3];
        for (i, r) in inst.uses().enumerate() {
            let Some(t) = self.src_tag(inst, r) else {
                continue;
            };
            let seen = out[..i].iter().flatten().any(|(c, _)| c.preg == t.preg);
            if t.class == dl.class() && inst.dst2() != Some(r) && self.first_use(t) && !seen {
                out[i] = Some((t, r == dl));
            }
        }
        out
    }

    /// The repair moves and then the main micro-op, in sequence order.
    pub(super) fn uops(&self) -> UopVec {
        let mut uops = UopVec::new();
        for record in self.repairs.iter().flatten() {
            let (_, stale, fresh) = record.dst.mapping().expect("a repair allocates");
            uops.push(Uop {
                seq: record.seq,
                kind: UopKind::RepairMove,
                srcs: [Some(stale), None, None],
                dst: Some(fresh),
                dst2: None,
            });
        }
        let new_tag = |action: DstAction| action.mapping().map(|(_, _, new_map)| new_map);
        uops.push(Uop {
            seq: self.main.seq,
            kind: UopKind::Main,
            srcs: self.srcs,
            dst: new_tag(self.main.dst),
            dst2: new_tag(self.main.dst2),
        });
        uops
    }
}
