//! Supporting value types of the sharing renamer: per-register release
//! metadata, speculative-reuse decisions, the in-flight rename record,
//! and the rename attempt with its deferred training events and counter
//! tally.

use crate::rename_common::{DstChange, SeqRecord};
use crate::renamer::{HintStats, RenameStats, Uop, UopKind, UopVec};
use crate::{PhysReg, TaggedReg};
use regshare_isa::{ArchReg, Inst, RegClass, ShareHint};

/// Per-physical-register metadata: what the release-time feedback reads
/// (the type predictor's rule 1, the Fig. 12 accounting and the
/// single-use predictor's reinforcement), plus the hint of each live
/// version. Versions index bit masks (at most
/// [`crate::MAX_SHADOW_CELLS`] + 1 of them), so an allocation resets a
/// few bytes and a release walks only the versions a speculation
/// created.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PregMeta {
    /// Predictor entry used at allocation.
    pub(super) entry: u32,
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
    /// Bit `v`: version `v` was created by a speculative reuse that the
    /// single-use predictor granted; `spec_entries[v]` is then the
    /// consumer's entry, for release-time reinforcement or repair-time
    /// correction.
    pub(super) spec_dynamic: u8,
    /// Bit `v`: version `v` was created by a speculation granted by a
    /// static `SingleUse` proof (never trains the dynamic predictor).
    pub(super) spec_static: u8,
    /// The compiler's hint for the producer of each live version, two
    /// bits per version ([`ShareHint::to_bits`]), used when this register
    /// is weighed as a reuse source. Cleared back to `Unknown` when the
    /// version is squashed.
    hints: u16,
    /// See `spec_dynamic`; stale wherever its bit is clear.
    pub(super) spec_entries: [u32; 8],
}

impl PregMeta {
    /// Starts the metadata of a fresh allocation, whose version 0 was
    /// defined under `hint`.
    pub(super) fn allocated(
        &mut self,
        entry: u32,
        predicted: u8,
        static_bank: bool,
        hint: ShareHint,
    ) {
        self.entry = entry;
        self.predicted = predicted;
        self.reuses = 0;
        self.multi_use = false;
        self.blocked = false;
        self.has_entry = !static_bank;
        self.static_bank = static_bank;
        self.spec_dynamic = 0;
        self.spec_static = 0;
        self.hints = u16::from(hint.to_bits());
    }

    /// The compiler's hint for the producer of version `v`.
    pub(super) fn hint(&self, v: u8) -> ShareHint {
        ShareHint::from_bits((self.hints >> (2 * v)) as u8)
    }

    /// Records the reuse that created version `v` under `hint`, granted
    /// by `spec`.
    pub(super) fn reused(&mut self, v: u8, hint: ShareHint, spec: Option<(SpecSource, u32)>) {
        self.reuses += 1;
        self.hints = self.hints & !(0b11 << (2 * v)) | u16::from(hint.to_bits()) << (2 * v);
        match spec {
            None => {}
            Some((SpecSource::Dynamic, entry)) => {
                self.spec_dynamic |= 1 << v;
                self.spec_entries[v as usize] = entry;
            }
            Some((SpecSource::Static, _)) => self.spec_static |= 1 << v,
        }
    }

    /// Forgets the squashed reuse that created version `v`.
    pub(super) fn unreused(&mut self, v: u8) {
        self.reuses = self.reuses.saturating_sub(1);
        self.hints &= !(0b11 << (2 * v));
        self.spec_dynamic &= !(1 << v);
        self.spec_static &= !(1 << v);
    }
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

/// The registers whose read bit one micro-op set from clear: the
/// sources it is the first consumer of, which a squash clears again. A
/// source whose bit it found set needs no undo: by the time a squash or
/// a stall walks back to the micro-op, that bit is set again.
///
/// At most three, packed into one word so that a record copies them
/// with one load: entry `i`'s register number in bits `16i..16i + 16`,
/// whether it is a floating-point register in bit `48 + i`, and the
/// count from bit 56.
#[derive(Debug, Clone, Copy)]
pub(super) struct FirstReads(u64);

impl FirstReads {
    pub(super) const EMPTY: FirstReads = FirstReads(0);

    pub(super) fn push(&mut self, class: RegClass, preg: PhysReg) {
        let i = self.0 >> 56;
        let fp = u64::from(class == RegClass::Fp);
        self.0 += u64::from(preg.0) << (16 * i) | fp << (48 + i) | 1 << 56;
    }

    /// The registers, in the order they were marked.
    pub(super) fn iter(self) -> impl DoubleEndedIterator<Item = (RegClass, PhysReg)> {
        (0..self.0 >> 56).map(move |i| {
            let fp = self.0 >> (48 + i) & 1 == 1;
            let class = if fp { RegClass::Fp } else { RegClass::Int };
            (class, PhysReg((self.0 >> (16 * i)) as u16))
        })
    }
}

/// The in-flight record of one renamed micro-op. A definition whose new
/// mapping is at version 0 allocated it; a later version reused the
/// register at the version below.
#[derive(Debug, Clone, Copy)]
pub(super) struct Record {
    pub(super) seq: u64,
    pub(super) first_reads: FirstReads,
    pub(super) dst: Option<DstChange>,
    /// Base-register writeback of post-increment operations.
    pub(super) dst2: Option<DstChange>,
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
/// written-back base then stalls the instruction. The attempt adds each
/// count to the statistics as it happens and keeps a copy here. While
/// the [`crate::Renamer::state_epoch`] is unchanged a retry is
/// bit-identical to the failed attempt, so [`crate::Renamer::note_stall`]
/// adds the failed attempt's tally again instead of re-running the
/// rename.
///
/// One attempt counts at most five of anything (three repairs and two
/// definitions), so each [`Count`] is a 4-bit lane of one word.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Tally(u64);

/// The counters an attempt adds, one lane of a [`Tally`] each.
#[derive(Debug, Clone, Copy)]
pub(super) enum Count {
    Reuses,
    SafeReuses,
    SpeculativeReuses,
    Allocations,
    StaticAllocs,
    DynamicAllocs,
    StaticSpeculations,
    DynamicSpeculations,
    StaticDenials,
}

impl Count {
    const ALL: [Count; 9] = [
        Count::Reuses,
        Count::SafeReuses,
        Count::SpeculativeReuses,
        Count::Allocations,
        Count::StaticAllocs,
        Count::DynamicAllocs,
        Count::StaticSpeculations,
        Count::DynamicSpeculations,
        Count::StaticDenials,
    ];

    /// The statistics counter this count adds to.
    pub(super) fn counter<'a>(
        self,
        stats: &'a mut RenameStats,
        hints: &'a mut HintStats,
    ) -> &'a mut u64 {
        match self {
            Count::Reuses => &mut stats.reuses,
            Count::SafeReuses => &mut stats.safe_reuses,
            Count::SpeculativeReuses => &mut stats.speculative_reuses,
            Count::Allocations => &mut stats.allocations,
            Count::StaticAllocs => &mut hints.static_allocs,
            Count::DynamicAllocs => &mut hints.dynamic_allocs,
            Count::StaticSpeculations => &mut hints.static_speculations,
            Count::DynamicSpeculations => &mut hints.dynamic_speculations,
            Count::StaticDenials => &mut hints.static_denials,
        }
    }
}

impl Tally {
    /// Keeps `n` more of `count`.
    pub(super) fn add(&mut self, count: Count, n: u64) {
        self.0 += n << (4 * count as u32);
    }

    /// Adds the kept counts to the statistics again.
    pub(super) fn add_to(self, stats: &mut RenameStats, hints: &mut HintStats) {
        for count in Count::ALL {
            *count.counter(stats, hints) += (self.0 >> (4 * count as u32)) & 0xf;
        }
    }
}

/// Reuse candidates of one definition slot: source tags this rename is
/// the first consumer of, each with whether the instruction redefines it.
pub(super) type Candidates = [Option<(TaggedReg, bool)>; 3];

/// One rename attempt: what phases A–D staged, kept in place (never
/// moved) and small, since repairs are rare. The definitions themselves
/// travel by value. A stall undoes the attempt; a success pushes its
/// records and turns it into the micro-op bundle.
pub(super) struct Attempt {
    /// The main micro-op's sequence number; it follows the repairs'.
    pub(super) seq: u64,
    /// The main micro-op's source tags, per operand slot.
    pub(super) srcs: [Option<TaggedReg>; 3],
    /// The read bits Phase B set from clear.
    pub(super) first_reads: FirstReads,
    /// Phase A's repairs, oldest first: each moves a logical register
    /// from its stale mapping to a fresh register.
    repairs: [Option<DstChange>; 3],
    pub(super) n_repairs: u8,
    /// Bit `s`: Phase B found operand slot `s`'s read bit clear, so this
    /// rename is that source's first consumer.
    first_use: u8,
    /// Deferred rule-3 training, in the order observed: one per primary
    /// candidate and one for the written-back base.
    blocked: [TaggedReg; 4],
    n_blocked: u8,
    pub(super) tally: Tally,
}

impl Attempt {
    pub(super) fn new(seq: u64) -> Self {
        Attempt {
            seq,
            srcs: [None; 3],
            first_reads: FirstReads::EMPTY,
            repairs: [None; 3],
            n_repairs: 0,
            first_use: 0,
            blocked: [TaggedReg::new(RegClass::Int, PhysReg(0), 0); 4],
            n_blocked: 0,
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
        self.repairs[self.n_repairs as usize] = Some(DstChange {
            logical,
            old_map: stale,
            new_map: fresh,
        });
        self.n_repairs += 1;
        self.srcs[slot] = Some(fresh);
        self.seq += 1;
    }

    /// The staged repairs with their sequence numbers, oldest first.
    pub(super) fn repairs(&self) -> impl DoubleEndedIterator<Item = (u64, DstChange)> + '_ {
        let first = self.seq - u64::from(self.n_repairs);
        (0..self.n_repairs).map(move |i| {
            let repair = self.repairs[i as usize].expect("repairs are staged in order");
            (first + u64::from(i), repair)
        })
    }

    /// Records Phase B's verdict for operand `slot`.
    pub(super) fn set_first_use(&mut self, slot: usize, first: bool) {
        self.first_use |= u8::from(first) << slot;
    }

    /// Whether this rename is the first consumer of operand `slot`.
    pub(super) fn first_use(&self, slot: usize) -> bool {
        self.first_use & (1 << slot) != 0
    }

    /// Defers rule-3 training until the rename is known to succeed.
    pub(super) fn defer_blocked(&mut self, t: TaggedReg) {
        self.blocked[self.n_blocked as usize] = t;
        self.n_blocked += 1;
    }

    /// The deferred training events in the order observed: each
    /// repair's stale source (Phase A), then the blocked candidates.
    pub(super) fn learned(&self) -> impl Iterator<Item = Learn> + '_ {
        let multi = self.repairs().map(|(_, r)| Learn::MultiUse(r.old_map));
        let blocked = self.blocked[..self.n_blocked as usize].iter();
        multi.chain(blocked.copied().map(Learn::Blocked))
    }

    /// The primary destination's reuse candidates: each same-class
    /// source this rename is the first consumer of, once per logical and
    /// once per physical register, with whether the instruction
    /// redefines it. The written-back base belongs to the writeback slot.
    pub(super) fn dst_candidates(&self, inst: &Inst, dl: ArchReg) -> Candidates {
        let raw = inst.raw_sources();
        let mut out: Candidates = [None; 3];
        for slot in 0..3 {
            let (Some(r), Some(t)) = (raw[slot], self.srcs[slot]) else {
                continue;
            };
            // A slot naming `r` again was decided by `r`'s first slot.
            let repeat = raw[..slot].contains(&Some(r));
            let taken = out[..slot].iter().flatten().any(|(c, _)| c.preg == t.preg);
            if self.first_use(slot)
                && t.class == dl.class()
                && inst.dst2() != Some(r)
                && !repeat
                && !taken
            {
                out[slot] = Some((t, r == dl));
            }
        }
        out
    }

    /// The main micro-op, defining `dst` and `dst2`.
    pub(super) fn main_uop(&self, dst: Option<DstChange>, dst2: Option<DstChange>) -> Uop {
        Uop {
            seq: self.seq,
            kind: UopKind::Main,
            srcs: self.srcs,
            dst: dst.map(|c| c.new_map),
            dst2: dst2.map(|c| c.new_map),
        }
    }

    /// The repair moves, then `main`.
    pub(super) fn repaired_uops(&self, main: Uop) -> UopVec {
        let mut uops = UopVec::new();
        for (seq, repair) in self.repairs() {
            uops.push(Uop {
                seq,
                kind: UopKind::RepairMove,
                srcs: [Some(repair.old_map), None, None],
                dst: Some(repair.new_map),
                dst2: None,
            });
        }
        uops.push(main);
        uops
    }
}
