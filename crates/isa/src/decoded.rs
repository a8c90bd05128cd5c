//! Predecoded program image: per-PC static facts, packed once.
//!
//! The timing pipeline asks the same questions about the same static
//! instruction on every dynamic fetch of its PC — is it a branch, which
//! functional-unit class does it use, does it write back a base
//! register, what sharing hint does it carry. Each answer is an
//! exhaustive `match` over [`Opcode`]; cheap once, but the hot loop
//! re-derives them millions of times. [`DecodedImage`] folds every
//! static fact into one dense per-PC record ([`DecodedOp`], 4 bytes) at
//! program-construction time, so the per-cycle stages index a table
//! instead of re-decoding.
//!
//! The image is built from the same opcode predicates the stages used to
//! call, so its answers are identical by construction — timing cannot
//! change, only the cost of asking.

use crate::{DefSlot, Inst, OpClass, ShareHintTable};

/// Packed static facts about one instruction. Copied into the fetch
/// bundle once per dynamic instruction; every later stage reads the
/// copy instead of re-matching on the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedOp {
    flags: u16,
    /// The functional-unit class ([`crate::Opcode::class`]).
    pub class: OpClass,
    /// The sharing-hint nibble (primary hint in the low two bits,
    /// writeback hint in the high two), 0 when the program carries no
    /// hint table.
    pub hint_nibble: u8,
}

impl DecodedOp {
    const IS_BRANCH: u16 = 1 << 0;
    const IS_COND_BRANCH: u16 = 1 << 1;
    const IS_LOAD: u16 = 1 << 2;
    const IS_STORE: u16 = 1 << 3;
    const IS_POST_INCREMENT: u16 = 1 << 4;
    const IS_HALT: u16 = 1 << 5;
    const HAS_DST: u16 = 1 << 6;
    const HAS_DST2: u16 = 1 << 7;

    /// Decodes one instruction (the slow path the image amortizes).
    pub fn decode(inst: &Inst, hint_nibble: u8) -> Self {
        let op = inst.opcode;
        let mut flags = 0;
        let mut set = |cond: bool, bit: u16| {
            if cond {
                flags |= bit;
            }
        };
        set(op.is_branch(), Self::IS_BRANCH);
        set(op.is_cond_branch(), Self::IS_COND_BRANCH);
        set(op.is_load(), Self::IS_LOAD);
        set(op.is_store(), Self::IS_STORE);
        set(op.is_post_increment(), Self::IS_POST_INCREMENT);
        set(op == crate::Opcode::Halt, Self::IS_HALT);
        set(inst.dst().is_some(), Self::HAS_DST);
        set(inst.dst2().is_some(), Self::HAS_DST2);
        DecodedOp {
            flags,
            class: op.class(),
            hint_nibble,
        }
    }

    /// True for any control-transfer instruction
    /// ([`crate::Opcode::is_branch`]).
    #[inline(always)]
    pub fn is_branch(self) -> bool {
        self.flags & Self::IS_BRANCH != 0
    }

    /// True for conditional branches ([`crate::Opcode::is_cond_branch`]).
    #[inline(always)]
    pub fn is_cond_branch(self) -> bool {
        self.flags & Self::IS_COND_BRANCH != 0
    }

    /// True for loads ([`crate::Opcode::is_load`]).
    #[inline(always)]
    pub fn is_load(self) -> bool {
        self.flags & Self::IS_LOAD != 0
    }

    /// True for stores ([`crate::Opcode::is_store`]).
    #[inline(always)]
    pub fn is_store(self) -> bool {
        self.flags & Self::IS_STORE != 0
    }

    /// True for any memory access ([`crate::Opcode::is_mem`]).
    #[inline(always)]
    pub fn is_mem(self) -> bool {
        self.flags & (Self::IS_LOAD | Self::IS_STORE) != 0
    }

    /// True for post-increment memory operations
    /// ([`crate::Opcode::is_post_increment`]).
    #[inline(always)]
    pub fn is_post_increment(self) -> bool {
        self.flags & Self::IS_POST_INCREMENT != 0
    }

    /// True for `halt`.
    #[inline(always)]
    pub fn is_halt(self) -> bool {
        self.flags & Self::IS_HALT != 0
    }

    /// True when the instruction renames a primary destination
    /// ([`Inst::dst`] is `Some`).
    #[inline(always)]
    pub fn has_dst(self) -> bool {
        self.flags & Self::HAS_DST != 0
    }

    /// True when the instruction writes back a base register
    /// ([`Inst::dst2`] is `Some`).
    #[inline(always)]
    pub fn has_dst2(self) -> bool {
        self.flags & Self::HAS_DST2 != 0
    }
}

/// A dense per-PC sidecar of [`DecodedOp`] records, built once per
/// [`crate::Program`] and shared read-only (via the program's `Arc`'d
/// internals) across sampling windows and `par_map` workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedImage {
    ops: Box<[DecodedOp]>,
}

impl DecodedImage {
    /// Predecodes a whole instruction list, folding in the hint table's
    /// nibble per PC when one is attached.
    pub fn build(insts: &[Inst], hints: Option<&ShareHintTable>) -> Self {
        let ops = insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                let nibble = hints.map_or(0, |h| {
                    h.get(pc, DefSlot::Primary).to_bits()
                        | (h.get(pc, DefSlot::Writeback).to_bits() << 2)
                });
                DecodedOp::decode(inst, nibble)
            })
            .collect();
        DecodedImage { ops }
    }

    /// The record for `pc`, if in range (mirrors
    /// [`crate::Program::fetch`]).
    #[inline(always)]
    pub fn get(&self, pc: u64) -> Option<DecodedOp> {
        self.ops.get(pc as usize).copied()
    }

    /// The record for `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range — callers index PCs that came from
    /// a successful fetch.
    #[inline(always)]
    pub fn op(&self, pc: u64) -> DecodedOp {
        self.ops[pc as usize]
    }

    /// Number of predecoded instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the image covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Opcode, ShareHint};

    /// Every predicate in the image must agree with the opcode-derived
    /// answer for a representative of every opcode.
    #[test]
    fn image_agrees_with_opcode_predicates() {
        for op in Opcode::ALL {
            let inst = match () {
                _ if op.is_cond_branch() => Inst::branch(op, reg::x(1), reg::x(2), 0),
                _ if op == Opcode::Jal => Inst::jal(Some(reg::lr()), 0),
                _ if op == Opcode::Jalr => Inst::jalr(Some(reg::lr()), reg::x(2), 0),
                _ if op.is_post_increment() && op.is_load() => {
                    Inst::load_post(op, reg::x(1), reg::x(2), 8)
                }
                _ if op.is_post_increment() => Inst::store_post(op, reg::x(3), reg::x(2), 8),
                _ if op.is_store() => Inst::store(op, reg::x(3), reg::x(2), 0),
                _ if op.is_load() => Inst::load(op, reg::x(1), reg::x(2), 0),
                _ => Inst::from_parts(op, Some(reg::x(1)), [Some(reg::x(2)), None, None], 0, 0),
            };
            let d = DecodedOp::decode(&inst, 0);
            assert_eq!(d.is_branch(), op.is_branch(), "{op}");
            assert_eq!(d.is_cond_branch(), op.is_cond_branch(), "{op}");
            assert_eq!(d.is_load(), op.is_load(), "{op}");
            assert_eq!(d.is_store(), op.is_store(), "{op}");
            assert_eq!(d.is_mem(), op.is_mem(), "{op}");
            assert_eq!(d.is_post_increment(), op.is_post_increment(), "{op}");
            assert_eq!(d.is_halt(), op == Opcode::Halt, "{op}");
            assert_eq!(d.class, op.class(), "{op}");
            assert_eq!(d.has_dst(), inst.dst().is_some(), "{op}");
            assert_eq!(d.has_dst2(), inst.dst2().is_some(), "{op}");
        }
    }

    #[test]
    fn image_indexes_per_pc_and_carries_hints() {
        let insts = vec![
            Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3)),
            Inst::load_post(Opcode::LdPost, reg::x(4), reg::x(5), 8),
            Inst::bare(Opcode::Halt),
        ];
        let mut hints = ShareHintTable::new(3);
        hints.set(0, DefSlot::Primary, ShareHint::SingleUse);
        hints.set(1, DefSlot::Writeback, ShareHint::Multi);
        let img = DecodedImage::build(&insts, Some(&hints));
        assert_eq!(img.len(), 3);
        assert_eq!(img.op(0).hint_nibble, ShareHint::SingleUse.to_bits());
        assert_eq!(img.op(1).hint_nibble, ShareHint::Multi.to_bits() << 2);
        assert!(img.op(1).is_post_increment() && img.op(1).has_dst2());
        assert!(img.op(2).is_halt());
        assert_eq!(img.get(3), None);
    }
}
