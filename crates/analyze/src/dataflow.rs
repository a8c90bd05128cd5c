//! The dataflow analyses the linter and the classifier read: the
//! maybe-uninitialized registers, and the loop-split consumer-count
//! analysis behind the static sharing bounds.

use crate::cfg::Cfg;
use crate::regset::{reg_bit, RegSet, NUM_REGS};
use regshare_isa::{ArchReg, DefSlot, Inst};

/// Per-block input/output facts of the backward consumer-count solver:
/// `input` is the fact *after* the block's last instruction and `output`
/// the fact before its first.
#[derive(Debug, Clone)]
pub struct BlockFacts<F> {
    /// Fact flowing into each block (in analysis direction).
    pub input: Vec<F>,
    /// Fact flowing out of each block (in analysis direction).
    pub output: Vec<F>,
}

// ------------------------------------------------- maybe-uninitialized

/// For every reachable instruction, the registers it reads that may
/// still be unwritten, as `(pc, reg)` pairs in program order.
///
/// A forward may-analysis solved by the classic worklist iteration: a
/// register is possibly unwritten at a point when some path from the
/// entry reaches it without a write. The machine zero-initializes its
/// register files, so a hit is a lint finding rather than undefined
/// behavior.
pub fn uninit_reads(cfg: &Cfg, insts: &[Inst]) -> Vec<(usize, ArchReg)> {
    let kill = |fact: &mut RegSet, inst: &Inst| {
        for (_, d) in inst.defs() {
            fact.remove(d);
        }
    };
    let blocks = cfg.blocks();
    let n = blocks.len();
    let mut input = vec![RegSet::EMPTY; n];
    let mut output = vec![RegSet::EMPTY; n];
    let mut work: Vec<usize> = cfg.reverse_postorder();
    let mut queued = vec![false; n];
    for &b in &work {
        queued[b] = true;
    }
    work.reverse(); // treat as a stack: pop from the back in RPO order
    while let Some(b) = work.pop() {
        queued[b] = false;
        // Every register starts unwritten at the entry. The zero
        // register's bit is included but harmless: no `uses()` ever
        // yields it.
        let mut fact = if b == cfg.entry_block() {
            RegSet::ALL
        } else {
            RegSet::EMPTY
        };
        for &p in &blocks[b].preds {
            fact = fact.union(output[p]);
        }
        input[b] = fact;
        for inst in &insts[blocks[b].start..blocks[b].end] {
            kill(&mut fact, inst);
        }
        if fact != output[b] {
            output[b] = fact;
            for &s in &blocks[b].succs {
                if !queued[s] {
                    queued[s] = true;
                    work.push(s);
                }
            }
        }
    }
    let mut hits = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let mut fact = input[b];
        for (off, inst) in insts[block.start..block.end].iter().enumerate() {
            let pc = block.start + off;
            for u in inst.uses() {
                if fact.contains(u) {
                    hits.push((pc, u));
                }
            }
            kill(&mut fact, inst);
        }
    }
    hits.sort_unstable();
    hits
}

/// A static definition site: an instruction and the destination slot it
/// writes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Instruction index of the defining instruction.
    pub pc: usize,
    /// Which destination slot produces the value.
    pub slot: DefSlot,
    /// The defined architectural register.
    pub reg: ArchReg,
}

// ------------------------------------------- consumer-count facts

/// Minimum consumer count saturation: 2 proves "never exactly one".
pub const MIN_SAT: u8 = 2;
/// Maximum consumer count saturation, matching the paper's Fig. 2 "6+"
/// histogram bucket.
pub const MAX_SAT: u8 = 7;
/// Optimistic (`top`) value of the minimum component before any path
/// has been observed.
pub const MIN_UNKNOWN: u8 = u8::MAX;

/// Per-register consumer-count bounds at a program point: how many times
/// the register's *current value* will be read before being overwritten,
/// over all paths to program exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCount {
    /// Fewest future reads over any path (saturating at [`MIN_SAT`];
    /// [`MIN_UNKNOWN`] until a path is observed).
    pub min: u8,
    /// Most future reads over any path (saturating at [`MAX_SAT`]).
    pub max: u8,
    /// Every first future read of the value is by an instruction that
    /// also redefines the register (the guaranteed-safe reuse shape).
    pub redefining: bool,
}

/// The `top` (vacuous, join-identity) per-register count: `min` descends
/// from [`MIN_UNKNOWN`] (a must bound), `max` ascends from 0 (a may
/// bound), `redefining` descends from `true`.
pub const TOP_COUNT: RegCount = RegCount {
    min: MIN_UNKNOWN,
    max: 0,
    redefining: true,
};

/// The count of a value that dies here: it is never read again.
const DEAD_COUNT: RegCount = RegCount {
    min: 0,
    max: 0,
    redefining: true,
};

/// The consumer-count fact: one [`RegCount`] per register bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountFact(pub [RegCount; NUM_REGS]);

impl CountFact {
    /// The most optimistic fact, the identity of [`CountFact::join`].
    pub fn top() -> CountFact {
        CountFact([TOP_COUNT; NUM_REGS])
    }

    /// The fact at a program exit (`halt` or fall-off): no value is
    /// read again.
    pub fn boundary() -> CountFact {
        CountFact([DEAD_COUNT; NUM_REGS])
    }

    /// Joins the futures of `other` into `self`.
    pub fn join(&mut self, other: &CountFact) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.min = a.min.min(b.min);
            a.max = a.max.max(b.max);
            a.redefining &= b.redefining;
        }
    }
}

// ------------------------------------ loop-split consumer counts

/// [`CountFact`] split by loop context. `exit` bounds the consumer
/// count over futures in which the value dies (is redefined, or the
/// program exits) without ever crossing a loop back edge — the
/// final-iteration context. `carried` bounds futures whose value stays
/// live across at least one back edge — the loop-carried context. The
/// two components partition every real future exactly, so their join is
/// the plain consumer-count fact over all futures, and they let the
/// classifier prove facts like "never exactly one consumer" (`exit`
/// shows zero, `carried` shows at least two) that the join saturates to
/// `Unknown`. This is the backward mirror of first-iteration peeling:
/// instead of peeling the entry into the loop, it peels the exit out of
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitFact {
    /// Bounds over futures that never cross a back edge.
    pub exit: CountFact,
    /// Bounds over futures that cross at least one back edge while the
    /// value is live.
    pub carried: CountFact,
}

impl SplitFact {
    fn top() -> SplitFact {
        SplitFact {
            exit: CountFact::top(),
            carried: CountFact::top(),
        }
    }
}

/// Transfers one instruction backward across a [`SplitFact`]. Reads
/// accumulate into both components (the instruction crosses no edge, so
/// a future's class is unchanged); a redefinition ends the value's
/// lifetime on the spot, so the whole count lands in the no-back-edge
/// `exit` component and `carried` resets to vacuous.
pub fn split_transfer(inst: &Inst, fact: &mut SplitFact) {
    fn bump(c: &mut RegCount) {
        c.min = if c.min == MIN_UNKNOWN {
            MIN_UNKNOWN
        } else {
            (c.min + 1).min(MIN_SAT)
        };
        c.max = (c.max + 1).min(MAX_SAT);
        c.redefining = false;
    }
    let mut defines = RegSet::EMPTY;
    for (_, d) in inst.defs() {
        defines.insert(d);
    }
    for u in inst.uses() {
        let bit = reg_bit(u);
        if defines.contains(u) {
            fact.exit.0[bit] = RegCount {
                min: 1,
                max: 1,
                redefining: true,
            };
            fact.carried.0[bit] = TOP_COUNT;
        } else {
            bump(&mut fact.exit.0[bit]);
            bump(&mut fact.carried.0[bit]);
        }
    }
    for d in defines.iter() {
        if inst.uses().any(|u| u == d) {
            continue; // read-then-redefine, handled above
        }
        fact.exit.0[reg_bit(d)] = DEAD_COUNT;
        fact.carried.0[reg_bit(d)] = TOP_COUNT;
    }
}

/// Solves the loop-split consumer-count analysis. The solver is the
/// standard backward worklist with one edge-aware twist: a fact flowing
/// backward over a detected back edge moves wholesale into the
/// `carried` component (whatever happens beyond that edge, the value
/// was live across it), while normal edges join componentwise. Exit
/// boundaries feed only the `exit` component: a dead value crossed no
/// further edges. Blocks that cannot reach the program exit count as
/// exits too, so the must components stay sound (a value consumed once
/// before entering an endless loop must not be classified as
/// multi-consumer). Vacuous components are the join identity
/// (`min` stays [`MIN_UNKNOWN`], `max` stays 0), so an undetected back
/// edge or an unreachable context can only blur bounds toward
/// `Unknown`, never sharpen them.
pub fn use_counts_split(cfg: &Cfg, insts: &[Inst]) -> BlockFacts<SplitFact> {
    let n = cfg.blocks().len();
    let mut input = vec![SplitFact::top(); n];
    let mut output = vec![SplitFact::top(); n];
    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop() {
        queued[b] = false;
        let mut fact = SplitFact::top();
        let block = &cfg.blocks()[b];
        if block.halts || block.falls_off || !cfg.can_reach_exit(b) {
            fact.exit.join(&CountFact::boundary());
        }
        for &s in &block.succs {
            if cfg.is_back_edge(b, s) {
                fact.carried.join(&output[s].exit);
                fact.carried.join(&output[s].carried);
            } else {
                fact.exit.join(&output[s].exit);
                fact.carried.join(&output[s].carried);
            }
        }
        input[b] = fact.clone();
        for inst in insts[block.start..block.end].iter().rev() {
            split_transfer(inst, &mut fact);
        }
        if fact != output[b] {
            output[b] = fact;
            for &p in &block.preds {
                if !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
        }
    }
    BlockFacts { input, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Inst, Opcode};

    fn cfg_of(insts: &[Inst]) -> Cfg {
        Cfg::build(insts, 0)
    }

    #[test]
    fn uninit_reads_found_and_ordered() {
        let insts = vec![
            Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3)),
            Inst::rri(Opcode::Addi, reg::x(4), reg::x(1), 1),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let hits = uninit_reads(&cfg, &insts);
        assert_eq!(hits, vec![(0, reg::x(2)), (0, reg::x(3))]);
    }

    #[test]
    fn uninit_read_on_one_path_only_is_still_flagged() {
        // 0: beq xzr, xzr, @2 ; 1: li x1, 5 ; 2: add x2, x1, xzr ; 3: halt
        // On the branch-taken path x1 is never written.
        let insts = vec![
            Inst::branch(Opcode::Beq, reg::zero(), reg::zero(), 2),
            Inst::ri(Opcode::Li, reg::x(1), 5),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let hits = uninit_reads(&cfg, &insts);
        assert_eq!(hits, vec![(2, reg::x(1))]);
    }

    /// The plain consumer-count bounds over all futures: the join of the
    /// two loop contexts.
    fn joined(f: &SplitFact, r: ArchReg) -> RegCount {
        let mut all = f.exit.clone();
        all.join(&f.carried);
        all.0[reg_bit(r)]
    }

    #[test]
    fn use_counts_straight_line() {
        // 0: li x1 ; 1: add x2, x1, xzr ; 2: add x3, x1, xzr ; 3: halt
        // After inst 0, x1 has exactly two future consumers.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::rrr(Opcode::Add, reg::x(3), reg::x(1), reg::zero()),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        // Single block: recompute the state after inst 0 by transferring
        // inst 1..end backward from the block input.
        let mut after0 = facts.input[cfg.block_of(0)].clone();
        for pc in (1..insts.len()).rev() {
            split_transfer(&insts[pc], &mut after0);
        }
        let c = joined(&after0, reg::x(1));
        assert_eq!(c.min, 2);
        assert_eq!(c.max, 2);
        assert!(!c.redefining);
    }

    #[test]
    fn use_counts_pin_no_exit_loops() {
        // 0: li x1 ; 1: add x2, x1, xzr ; 2: jal @2  (endless loop)
        // x1 is consumed exactly once before the loop; without pinning
        // the must-min would stay unknown and claim multi-consumer.
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rrr(Opcode::Add, reg::x(2), reg::x(1), reg::zero()),
            Inst::jal(None, 2),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        let mut after0 = facts.input[cfg.block_of(0)].clone();
        split_transfer(&insts[1], &mut after0);
        let c0 = joined(&after0, reg::x(1));
        assert!(
            c0.min <= 1,
            "min must not claim multi-consumer, got {}",
            c0.min
        );
        assert_eq!(c0.max, 1);
    }

    #[test]
    fn split_counts_separate_exit_from_carried_context() {
        // Pointer-bump shape: x1 is bumped each iteration, read only by
        // the *next* iteration's load, never on the exit path.
        // 0: li x1, 0
        // 1: li x2, 4
        // 2: ld x3, [x1]        <- loop top
        // 3: addi x1, x1, 8     <- the bump: def under test
        // 4: subi x2, x2, 1
        // 5: bne x2, xzr, @2
        // 6: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load(Opcode::Ld, reg::x(3), reg::x(1), 0),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        // Replay the loop block backward to the point just after pc 3.
        let body = cfg.block_of(3);
        let mut f = facts.input[body].clone();
        for pc in (4..6).rev() {
            split_transfer(&insts[pc], &mut f);
        }
        let a = f.exit.0[reg_bit(reg::x(1))];
        let b = f.carried.0[reg_bit(reg::x(1))];
        // Exit context: the bumped pointer is never read again.
        assert_eq!((a.min, a.max), (0, 0));
        // Carried context: read by the next iteration's load, then by
        // the redefining bump — at least two consumers.
        assert!(b.min >= 2, "carried min {} should prove >=2", b.min);
    }

    #[test]
    fn split_counts_bound_post_increment_writeback() {
        // FldPost-style writeback consumed zero times on exit, once per
        // carried iteration (by the redefining next post-increment).
        // 0: li x1, 0 ; 1: li x2, 4
        // 2: ld.post x3, [x1], 8   <- writeback def under test
        // 3: subi x2, x2, 1
        // 4: bne x2, xzr, @2
        // 5: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 0),
            Inst::ri(Opcode::Li, reg::x(2), 4),
            Inst::load_post(Opcode::LdPost, reg::x(3), reg::x(1), 8),
            Inst::rri(Opcode::Addi, reg::x(2), reg::x(2), -1),
            Inst::branch(Opcode::Bne, reg::x(2), reg::zero(), 2),
            Inst::bare(Opcode::Halt),
        ];
        let cfg = cfg_of(&insts);
        let facts = use_counts_split(&cfg, &insts);
        let body = cfg.block_of(2);
        let mut f = facts.input[body].clone();
        for pc in (3..5).rev() {
            split_transfer(&insts[pc], &mut f);
        }
        let a = f.exit.0[reg_bit(reg::x(1))];
        let b = f.carried.0[reg_bit(reg::x(1))];
        assert_eq!((a.min, a.max), (0, 0), "never read on the exit path");
        // Carried: exactly one read, and the reader (the next ld.post)
        // redefines the base — the overall bound is 0 or 1, never more.
        assert_eq!((b.min, b.max), (1, 1));
        assert!(b.redefining);
    }
}
