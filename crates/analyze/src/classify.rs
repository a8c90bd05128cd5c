//! Classification of every static definition site by its provable
//! consumer count — the static counterpart to the paper's dynamic
//! sharing-table occupancy argument.

use crate::cfg::Cfg;
use crate::dataflow::{split_transfer, use_counts_split, DefSite, MIN_SAT};
use crate::regset::reg_bit;
use regshare_isa::Inst;

/// What the dataflow analysis can prove about a definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// The value is provably never read (max consumers = 0).
    Dead,
    /// Exactly one consumer on every path, and that consumer also
    /// redefines the register — the paper's "safe reuse" shape where the
    /// physical register can be recycled without a misprediction risk.
    SingleSafeReuse,
    /// Exactly one consumer on every path, but the consumer does not
    /// redefine the register; sharing needs the confidence predictor.
    SingleNeedsPredictor,
    /// Consumer count differs across paths (or exceeds one on some);
    /// only the predictor can speculate here.
    Unknown,
    /// At least two consumers on every path — never a sharing candidate.
    MultiConsumer,
    /// Zero or exactly one consumer, never more (loop-split proof:
    /// `max ≤ 1` over both contexts). Speculating single-use here is
    /// exact — if a consumer shows up it is the only one.
    AtMostOnce,
    /// Zero consumers on every no-back-edge future and at least two on
    /// every loop-carried one — the count is never exactly one, so
    /// single-use speculation is provably always wrong.
    NeverSingle,
}

/// A classified definition site.
#[derive(Debug, Clone, Copy)]
pub struct ClassifiedSite {
    /// The definition site.
    pub site: DefSite,
    /// Its classification.
    pub class: SiteClass,
    /// Provable bounds: fewest consumers over any path (saturated at
    /// [`MIN_SAT`]).
    pub min_consumers: u8,
    /// Most consumers over any path (saturated at
    /// [`crate::dataflow::MAX_SAT`]).
    pub max_consumers: u8,
}

/// The full classification of a program's reachable definition sites.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    /// All reachable definition sites in `(pc, slot)` order.
    pub sites: Vec<ClassifiedSite>,
}

impl Classification {
    /// Number of classified (reachable) definition sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the program has no reachable definition sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Count of sites with the given class.
    pub fn count(&self, class: SiteClass) -> usize {
        self.sites.iter().filter(|s| s.class == class).count()
    }

    /// Sites proven to have exactly one consumer on every path
    /// (regardless of whether the consumer redefines) — the static
    /// *lower* bracket on single-use sharing.
    pub fn guaranteed_single(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.min_consumers == 1 && s.max_consumers == 1)
            .count()
    }

    /// Sites that *could* have exactly one consumer — everything not
    /// proven dead, multi-consumer, or never-single. The static *upper*
    /// bracket on single-use sharing.
    pub fn possibly_single(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| {
                !matches!(
                    s.class,
                    SiteClass::Dead | SiteClass::MultiConsumer | SiteClass::NeverSingle
                )
            })
            .count()
    }
}

/// Classifies every definition site in the reachable part of the
/// program by the bounds that hold over all of a value's futures: the
/// loop-split classification ([`classify_with_loops`]) with its two
/// refined classes, [`SiteClass::AtMostOnce`] and
/// [`SiteClass::NeverSingle`], reported as [`SiteClass::Unknown`]. The
/// static oracle's bounds and the hint census's baseline column are this
/// view. Unreachable code never executes, so its sites carry no dynamic
/// weight and are excluded (the linter reports them separately).
pub fn classify(cfg: &Cfg, insts: &[Inst]) -> Classification {
    let mut c = classify_with_loops(cfg, insts);
    for s in &mut c.sites {
        if matches!(s.class, SiteClass::AtMostOnce | SiteClass::NeverSingle) {
            s.class = SiteClass::Unknown;
        }
    }
    c
}

/// Classifies every reachable definition site using the loop-split
/// consumer analysis ([`use_counts_split`]). Its overall bounds are the
/// join of the two loop contexts; the per-context bounds additionally
/// recover [`SiteClass::AtMostOnce`] and [`SiteClass::NeverSingle`]
/// proofs on loop-carried definitions that the join saturates to
/// `Unknown`.
pub fn classify_with_loops(cfg: &Cfg, insts: &[Inst]) -> Classification {
    let facts = use_counts_split(cfg, insts);
    let mut sites = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut fact = facts.input[b].clone();
        let mut block_sites = Vec::new();
        for pc in (block.start..block.end).rev() {
            for (slot, reg) in insts[pc].defs() {
                let a = fact.exit.0[reg_bit(reg)];
                let c = fact.carried.0[reg_bit(reg)];
                // Overall bounds are the union of the two contexts; a
                // vacuous component (min at MIN_UNKNOWN, max 0) is the
                // identity of both folds.
                let min = a.min.min(c.min).min(MIN_SAT);
                let max = a.max.max(c.max);
                let redefining = a.redefining && c.redefining;
                let class = if max == 0 {
                    SiteClass::Dead
                } else if min >= 2 {
                    SiteClass::MultiConsumer
                } else if min == 1 && max == 1 {
                    if redefining {
                        SiteClass::SingleSafeReuse
                    } else {
                        SiteClass::SingleNeedsPredictor
                    }
                } else if max == 1 {
                    SiteClass::AtMostOnce
                } else if a.max == 0 && c.min >= MIN_SAT {
                    // No-back-edge futures never read the value; carried
                    // futures read it at least twice (a vacuous carried
                    // component passes trivially: every real future is
                    // then a zero-read exit future).
                    SiteClass::NeverSingle
                } else {
                    SiteClass::Unknown
                };
                block_sites.push(ClassifiedSite {
                    site: DefSite { pc, slot, reg },
                    class,
                    min_consumers: min,
                    max_consumers: max,
                });
            }
            split_transfer(&insts[pc], &mut fact);
        }
        block_sites.reverse();
        sites.extend(block_sites);
    }
    sites.sort_by_key(|s| (s.site.pc, s.site.slot));
    Classification { sites }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, DefSlot, Inst, Opcode};

    fn classify_insts(insts: &[Inst]) -> Classification {
        let cfg = Cfg::build(insts, 0);
        classify(&cfg, insts)
    }

    fn class_at(c: &Classification, pc: usize) -> SiteClass {
        c.sites
            .iter()
            .find(|s| s.site.pc == pc)
            .expect("site classified")
            .class
    }

    #[test]
    fn straight_line_classes() {
        // 0: li x1        -> single consumer (inst 1) which redefines x1
        // 1: addi x1,x1,1 -> two consumers (2 and 3)
        // 2: add x2,x1,x1 -> dead (x2 never read)
        // 3: add x3,x1,xzr-> dead
        // 4: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::x(1)),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        assert_eq!(class_at(&c, 0), SiteClass::SingleSafeReuse);
        assert_eq!(class_at(&c, 1), SiteClass::MultiConsumer);
        assert_eq!(class_at(&c, 2), SiteClass::Dead);
        assert_eq!(class_at(&c, 3), SiteClass::Dead);
        assert_eq!(c.guaranteed_single(), 1);
        assert_eq!(c.possibly_single(), 1);
    }

    #[test]
    fn branch_dependent_count_is_unknown() {
        // 0: li x1
        // 1: beq x2, xzr, @3    (skip the extra consumer)
        // 2: add x3, x1, xzr
        // 3: add x4, x1, xzr
        // 4: halt
        // x1 has 1 consumer on the taken path, 2 on the fall-through.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::branch(Opcode::Beq, reg::x(2), reg::zero(), 3),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::zero()),
            Inst::rrr(Opcode::Add, reg::x(4), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        assert_eq!(class_at(&c, 0), SiteClass::Unknown);
    }

    #[test]
    fn single_consumer_without_redefine_needs_predictor() {
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(2), reg::zero()),
            Inst::rrr(Opcode::Add, reg::x(4), reg::x(3), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        // x1's one consumer defines x2, not x1.
        assert_eq!(class_at(&c, 0), SiteClass::SingleNeedsPredictor);
        assert_eq!(c.guaranteed_single(), 3);
    }

    #[test]
    fn post_increment_writeback_classified_separately() {
        // 0: li x2 (base)
        // 1: ld.post x1, [x2], 8  -> primary x1 dead, writeback x2 single
        // 2: ld x3, [x2]          -> x3 dead
        // 3: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(2), 0),
            Inst::load_post(Opcode::LdPost, reg::x(1), reg::x(2), 8),
            Inst::load(Opcode::Ld, reg::x(3), reg::x(2), 0),
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        let wb = c
            .sites
            .iter()
            .find(|s| s.site.pc == 1 && s.site.slot == DefSlot::Writeback)
            .expect("writeback site");
        assert_eq!(wb.class, SiteClass::SingleNeedsPredictor);
        let primary = c
            .sites
            .iter()
            .find(|s| s.site.pc == 1 && s.site.slot == DefSlot::Primary)
            .expect("primary site");
        assert_eq!(primary.class, SiteClass::Dead);
    }

    #[test]
    fn unreachable_sites_are_skipped() {
        let insts = vec![
            Inst::jal(None, 2),
            Inst::ri(Opcode::Li, reg::x(1), 1), // unreachable
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        assert!(c.sites.iter().all(|s| s.site.pc != 1));
    }

    #[test]
    fn loop_carried_value_in_kernel_shape() {
        // Induction-variable shape: the decrement's value is consumed by
        // the branch and by the next iteration's decrement.
        // 0: li x1, 4
        // 1: subi x1, x1, 1
        // 2: bne x1, xzr, @1
        // 3: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 4),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), -1),
            Inst::branch(Opcode::Bne, reg::x(1), reg::zero(), 1),
            Inst::bare(Opcode::Halt),
        ];
        let c = classify_insts(&insts);
        // subi's value: read by bne (1), then on the looping path also
        // by subi (2 total, redefining); on exit path just 1. Min 1 max
        // 2 -> Unknown.
        assert_eq!(class_at(&c, 1), SiteClass::Unknown);
    }

    fn classify_loops(insts: &[Inst]) -> Classification {
        let cfg = Cfg::build(insts, 0);
        classify_with_loops(&cfg, insts)
    }

    #[test]
    fn loop_split_proves_pointer_bump_never_single() {
        // 0: li x1, 0 ; 1: li x2, 4
        // 2: ld x3, [x1] ; 3: addi x1, x1, 8 ; 4: subi x2, x2, 1
        // 5: bne x2, xzr, @2 ; 6: halt
        // The bump at 3 is read 0 times on exit, >=2 when carried
        // (next load + next bump): never exactly once.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load(Opcode::Ld, reg::x(3), reg::x(1), 0),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        // The joined baseline saturates to Unknown ...
        assert_eq!(class_at(&classify_insts(&insts), 3), SiteClass::Unknown);
        // ... the split analysis proves the stronger fact.
        assert_eq!(class_at(&classify_loops(&insts), 3), SiteClass::NeverSingle);
    }

    #[test]
    fn loop_split_proves_post_increment_writeback_at_most_once() {
        // 0: li x1, 0 ; 1: li x2, 4
        // 2: ld.post x3, [x1], 8 ; 3: subi x2, x2, 1
        // 4: bne x2, xzr, @2 ; 5: halt
        // The writeback at 2 is read 0 times on exit, exactly once
        // (by the redefining next ld.post) when carried.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load_post(Opcode::LdPost, reg::x(3), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        let wb = |c: &Classification| {
            c.sites
                .iter()
                .find(|s| s.site.pc == 2 && s.site.slot == DefSlot::Writeback)
                .expect("writeback site")
                .class
        };
        assert_eq!(wb(&classify_insts(&insts)), SiteClass::Unknown);
        assert_eq!(wb(&classify_loops(&insts)), SiteClass::AtMostOnce);
    }

    #[test]
    fn loop_split_keeps_genuinely_variable_counts_unknown() {
        // The induction-variable shape (1 consumer on exit, 2 when
        // carried) is genuinely path-dependent: still Unknown.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 4),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), -1),
            Inst::branch(Opcode::Bne, reg::x(1), reg::zero(), 1),
            Inst::bare(Opcode::Halt),
        ];
        assert_eq!(class_at(&classify_loops(&insts), 1), SiteClass::Unknown);
    }

    #[test]
    fn loop_split_agrees_with_baseline_on_straight_line_code() {
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::x(1)),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let base = classify_insts(&insts);
        let split = classify_loops(&insts);
        for (a, b) in base.sites.iter().zip(split.sites.iter()) {
            assert_eq!(a.site, b.site);
            assert_eq!(a.class, b.class);
            assert_eq!(a.min_consumers, b.min_consumers);
            assert_eq!(a.max_consumers, b.max_consumers);
        }
    }
}
