//! Control-flow graph construction over TRISC instruction sequences.
//!
//! Branch targets in TRISC are *instruction indices* (the `byte_pc =
//! index * 4` convention exists only for caches and predictors), so the
//! CFG builder works directly on index arithmetic. The builder is total:
//! it accepts malformed programs (the linter's whole point) by simply not
//! creating edges for out-of-range targets — the linter reports those
//! separately.

use regshare_isa::{Inst, Opcode};

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// The block ends with `halt`: execution stops normally.
    pub halts: bool,
    /// Control falls past the last instruction of the program (or the
    /// block's terminator targets nothing valid): execution stops
    /// abnormally.
    pub falls_off: bool,
}

impl BasicBlock {
    /// The index of the last instruction in the block.
    pub fn last(&self) -> usize {
        self.end - 1
    }
}

/// A control-flow graph: the partition of a program into basic blocks
/// plus reachability, exit-reachability, and dominator information.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    entry_block: usize,
    /// Instruction index → owning block id.
    block_of: Vec<usize>,
    /// Reachable from the entry block.
    reachable: Vec<bool>,
    /// Some path from this block leaves the program (halt or fall-off).
    can_reach_exit: Vec<bool>,
    /// Some path from this block reaches a `halt` (normal termination).
    can_reach_halt: Vec<bool>,
    /// Immediate dominator per block (`None` for the entry block and for
    /// unreachable blocks).
    idom: Vec<Option<usize>>,
    /// The program contains an indirect jump (`jalr`), whose successors
    /// are conservatively every block.
    has_indirect: bool,
}

/// True when the opcode carries a *direct* branch target the CFG can
/// follow (conditional branches and `jal`; `jalr` is indirect).
fn has_direct_target(op: Opcode) -> bool {
    op.is_cond_branch() || op == Opcode::Jal
}

/// True when the opcode ends a basic block.
fn is_terminator(op: Opcode) -> bool {
    op.is_branch() || op == Opcode::Halt
}

impl Cfg {
    /// Builds the CFG of `insts` with the given entry instruction index.
    ///
    /// Every instruction is assigned to a block (including unreachable
    /// ones, so the linter can report them); edges to out-of-range
    /// targets are dropped and the source block marked as falling off.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or `entry` is out of range — callers
    /// (the linter front-end) must check those first.
    pub fn build(insts: &[Inst], entry: u32) -> Self {
        assert!(!insts.is_empty(), "cannot build a CFG of an empty program");
        assert!((entry as usize) < insts.len(), "entry {entry} out of range");
        let n = insts.len();

        // Leaders: instruction 0 (so the partition is total), the entry,
        // every in-range direct target, and every instruction following a
        // terminator.
        let mut leader = vec![false; n];
        leader[0] = true;
        leader[entry as usize] = true;
        for (i, inst) in insts.iter().enumerate() {
            if has_direct_target(inst.opcode) {
                let t = inst.target as usize;
                if t < n {
                    leader[t] = true;
                }
            }
            if is_terminator(inst.opcode) && i + 1 < n {
                leader[i + 1] = true;
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (i, &lead) in leader.iter().enumerate() {
            if i > start && lead {
                blocks.push(BasicBlock {
                    start,
                    end: i,
                    succs: Vec::new(),
                    preds: Vec::new(),
                    halts: false,
                    falls_off: false,
                });
                start = i;
            }
        }
        blocks.push(BasicBlock {
            start,
            end: n,
            succs: Vec::new(),
            preds: Vec::new(),
            halts: false,
            falls_off: false,
        });
        for (b, block) in blocks.iter().enumerate() {
            block_of[block.start..block.end].fill(b);
        }

        let has_indirect = insts.iter().any(|i| i.opcode == Opcode::Jalr);
        let num_blocks = blocks.len();
        for block in &mut blocks {
            let last = block.last();
            let op = insts[last].opcode;
            let mut succs: Vec<usize> = Vec::new();
            let mut halts = false;
            let mut falls_off = false;
            match op {
                Opcode::Halt => halts = true,
                Opcode::Jal => {
                    let t = insts[last].target as usize;
                    if t < n {
                        succs.push(block_of[t]);
                    } else {
                        falls_off = true;
                    }
                }
                Opcode::Jalr => {
                    // Indirect: any block could be the target.
                    succs.extend(0..num_blocks);
                }
                _ if op.is_cond_branch() => {
                    let t = insts[last].target as usize;
                    if t < n {
                        succs.push(block_of[t]);
                    } else {
                        falls_off = true;
                    }
                    if last + 1 < n {
                        let fall = block_of[last + 1];
                        if !succs.contains(&fall) {
                            succs.push(fall);
                        }
                    } else {
                        falls_off = true;
                    }
                }
                _ => {
                    // Plain fall-through.
                    if last + 1 < n {
                        succs.push(block_of[last + 1]);
                    } else {
                        falls_off = true;
                    }
                }
            }
            block.succs = succs;
            block.halts = halts;
            block.falls_off = falls_off;
        }
        for b in 0..num_blocks {
            let succs = blocks[b].succs.clone();
            for s in succs {
                if !blocks[s].preds.contains(&b) {
                    blocks[s].preds.push(b);
                }
            }
        }

        let entry_block = block_of[entry as usize];
        let reachable = forward_closure(&blocks, entry_block);
        let can_reach_exit = backward_closure(&blocks, |b: &BasicBlock| b.halts || b.falls_off);
        let can_reach_halt = backward_closure(&blocks, |b: &BasicBlock| b.halts);
        let mut cfg = Cfg {
            blocks,
            entry_block,
            block_of,
            reachable,
            can_reach_exit,
            can_reach_halt,
            idom: Vec::new(),
            has_indirect,
        };
        cfg.idom = cfg.compute_idoms();
        cfg
    }

    /// The basic blocks, in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The id of the block containing the entry instruction.
    pub fn entry_block(&self) -> usize {
        self.entry_block
    }

    /// The block containing instruction `pc`.
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// True when block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: usize) -> bool {
        self.reachable[b]
    }

    /// True when some path from block `b` leaves the program (through
    /// `halt` or by falling off the end).
    pub fn can_reach_exit(&self, b: usize) -> bool {
        self.can_reach_exit[b]
    }

    /// True when some path from block `b` reaches a `halt`.
    pub fn can_reach_halt(&self, b: usize) -> bool {
        self.can_reach_halt[b]
    }

    /// The program contains an indirect jump (`jalr`).
    pub fn has_indirect(&self) -> bool {
        self.has_indirect
    }

    /// True when the CFG edge `from → to` is a loop back edge (the
    /// target dominates the source). On irreducible regions — which the
    /// conservative `jalr`-to-everywhere edges create — some retreating
    /// edges are *not* dominated and therefore not detected; callers
    /// (the loop-split consumer analysis) only ever treat detection as
    /// an opportunity, never a requirement, so a missed back edge costs
    /// precision, not soundness.
    pub fn is_back_edge(&self, from: usize, to: usize) -> bool {
        self.blocks[from].succs.contains(&to) && self.dominates(to, from)
    }

    /// True when block `a` dominates block `b` (reflexive).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.reachable[b] {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Reverse postorder over the reachable blocks (the iteration order
    /// the forward dataflow solvers use).
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.blocks.len()]; // 0 unseen, 1 open, 2 done
        let mut stack: Vec<(usize, usize)> = vec![(self.entry_block, 0)];
        state[self.entry_block] = 1;
        while let Some(&(b, next)) = stack.last() {
            if next < self.blocks[b].succs.len() {
                stack.last_mut().expect("just checked non-empty").1 += 1;
                let s = self.blocks[b].succs[next];
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Cooper–Harvey–Kennedy iterative immediate-dominator computation.
    fn compute_idoms(&self) -> Vec<Option<usize>> {
        let rpo = self.reverse_postorder();
        let mut rpo_index = vec![usize::MAX; self.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }
        let mut idom: Vec<Option<usize>> = vec![None; self.blocks.len()];
        idom[self.entry_block] = Some(self.entry_block);
        let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a].expect("processed block has an idom");
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b].expect("processed block has an idom");
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == self.entry_block {
                    continue;
                }
                let mut new_idom: Option<usize> = None;
                for &p in &self.blocks[b].preds {
                    if idom[p].is_none() {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        // The entry's self-idom is an algorithmic artifact; expose None.
        idom[self.entry_block] = None;
        idom
    }
}

/// Blocks reachable from `from` following successor edges.
fn forward_closure(blocks: &[BasicBlock], from: usize) -> Vec<bool> {
    let mut seen = vec![false; blocks.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(b) = stack.pop() {
        for &s in &blocks[b].succs {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Blocks from which a block satisfying `is_exit` is reachable (including
/// the exit blocks themselves).
fn backward_closure(blocks: &[BasicBlock], is_exit: impl Fn(&BasicBlock) -> bool) -> Vec<bool> {
    let mut seen = vec![false; blocks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        if is_exit(block) {
            seen[b] = true;
            stack.push(b);
        }
    }
    while let Some(b) = stack.pop() {
        for (p, block) in blocks.iter().enumerate() {
            if !seen[p] && block.succs.contains(&b) {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Inst, Opcode};

    fn halt() -> Inst {
        Inst::bare(Opcode::Halt)
    }

    #[test]
    fn straight_line_is_one_block() {
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 1),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), 1),
            halt(),
        ];
        let cfg = Cfg::build(&insts, 0);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].halts);
        assert!(cfg.is_reachable(0));
        assert!(cfg.can_reach_halt(0));
    }

    #[test]
    fn loop_shape_blocks_and_edges() {
        // 0: li x1, 3
        // 1: subi x1, x1, 1   <- loop top
        // 2: bne x1, xzr, @1
        // 3: halt
        let insts = vec![
            Inst::ri(Opcode::Li, reg::x(1), 3),
            Inst::rri(Opcode::Addi, reg::x(1), reg::x(1), -1),
            Inst::branch(Opcode::Bne, reg::x(1), reg::zero(), 1),
            halt(),
        ];
        let cfg = Cfg::build(&insts, 0);
        assert_eq!(cfg.blocks().len(), 3);
        let body = cfg.block_of(1);
        assert_eq!(cfg.block_of(2), body);
        let exit = cfg.block_of(3);
        assert!(cfg.blocks()[body].succs.contains(&body));
        assert!(cfg.blocks()[body].succs.contains(&exit));
        assert!(cfg.can_reach_exit(body));
        // Entry block dominates the body; body dominates the exit.
        assert!(cfg.dominates(cfg.entry_block(), body));
        assert!(cfg.dominates(body, exit));
        assert!(!cfg.dominates(exit, body));
        // The self edge is the loop back edge; the exit edge is not.
        assert!(cfg.is_back_edge(body, body));
        assert!(!cfg.is_back_edge(body, exit));
    }

    #[test]
    fn unreachable_block_is_partitioned_but_flagged() {
        // 0: jal @2 ; 1: nop (unreachable) ; 2: halt
        let insts = vec![Inst::jal(None, 2), Inst::bare(Opcode::Nop), halt()];
        let cfg = Cfg::build(&insts, 0);
        assert_eq!(cfg.blocks().len(), 3);
        let dead = cfg.block_of(1);
        assert!(!cfg.is_reachable(dead));
        assert!(cfg.is_reachable(cfg.block_of(2)));
    }

    #[test]
    fn fall_off_end_detected() {
        let insts = vec![Inst::ri(Opcode::Li, reg::x(1), 1)];
        let cfg = Cfg::build(&insts, 0);
        assert!(cfg.blocks()[0].falls_off);
        assert!(cfg.can_reach_exit(0));
        assert!(!cfg.can_reach_halt(0));
    }

    #[test]
    fn infinite_loop_cannot_reach_exit() {
        // 0: jal @0 ; 1: halt (unreachable)
        let insts = vec![Inst::jal(None, 0), halt()];
        let cfg = Cfg::build(&insts, 0);
        let l = cfg.block_of(0);
        assert!(!cfg.can_reach_exit(l));
        assert!(!cfg.can_reach_halt(l));
        assert!(!cfg.is_reachable(cfg.block_of(1)));
    }

    #[test]
    fn out_of_range_target_drops_edge() {
        let insts = vec![Inst::branch(Opcode::Beq, reg::x(1), reg::x(2), 99), halt()];
        let cfg = Cfg::build(&insts, 0);
        let b = cfg.block_of(0);
        // Only the fall-through edge survives; the block is marked as
        // potentially falling off through the bad target.
        assert_eq!(cfg.blocks()[b].succs, vec![cfg.block_of(1)]);
        assert!(cfg.blocks()[b].falls_off);
    }

    #[test]
    fn jalr_connects_to_every_block() {
        let insts = vec![
            Inst::jalr(None, reg::x(1), 0),
            Inst::bare(Opcode::Nop),
            halt(),
        ];
        let cfg = Cfg::build(&insts, 0);
        assert!(cfg.has_indirect());
        assert_eq!(cfg.blocks()[0].succs.len(), cfg.blocks().len());
        assert!((0..cfg.blocks().len()).all(|b| cfg.is_reachable(b)));
    }
}
