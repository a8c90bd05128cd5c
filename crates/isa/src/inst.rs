//! Instruction representation.

use crate::{ArchReg, Opcode};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which destination slot of an instruction a register write comes from.
///
/// Most instructions write at most the [`DefSlot::Primary`] slot;
/// post-increment memory operations additionally (or, for stores, only)
/// write their base register back through [`DefSlot::Writeback`]. Consumers
/// that key state per-definition (the dataflow profiler, the static
/// analyzer) use `(pc, DefSlot)` pairs so the two writes of one
/// instruction stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefSlot {
    /// The ordinary destination register (`rd` / `fd`, or the link
    /// register of a jump).
    Primary,
    /// The written-back base register of a post-increment memory op.
    Writeback,
}

/// A decoded TRISC instruction.
///
/// `Inst` is the unit the renaming stage operates on: it exposes exactly the
/// operand structure renaming hardware sees — at most one destination
/// register ([`Inst::dst`]) and up to three source registers
/// ([`Inst::sources`]). Reads of the hard-wired zero register and writes to
/// it are filtered out of those accessors, mirroring hardware which neither
/// renames `xzr` nor allocates storage for it.
///
/// # Examples
///
/// ```
/// use regshare_isa::{Inst, Opcode, reg};
///
/// let add = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
/// assert_eq!(add.dst(), Some(reg::x(1)));
/// assert_eq!(add.sources().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// The operation.
    pub opcode: Opcode,
    dst: Option<ArchReg>,
    dst2: Option<ArchReg>,
    srcs: [Option<ArchReg>; 3],
    /// Immediate operand; also carries the f64 bit pattern for [`Opcode::Fli`].
    pub imm: i64,
    /// Direct-branch target as an instruction index (filled by the assembler).
    pub target: u32,
}

impl Inst {
    /// Creates an instruction from raw parts.
    ///
    /// Prefer the shape-specific constructors ([`Inst::rrr`], [`Inst::rri`],
    /// …) or the [`crate::Asm`] builder; this exists for generators and
    /// tests that need full control.
    pub fn from_parts(
        opcode: Opcode,
        dst: Option<ArchReg>,
        srcs: [Option<ArchReg>; 3],
        imm: i64,
        target: u32,
    ) -> Self {
        Inst {
            opcode,
            dst,
            dst2: None,
            srcs,
            imm,
            target,
        }
    }

    /// Three-register instruction: `op rd, rs1, rs2`.
    pub fn rrr(opcode: Opcode, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> Self {
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [Some(rs1), Some(rs2), None],
            imm: 0,
            target: 0,
        }
    }

    /// Four-register instruction: `op rd, rs1, rs2, rs3` (FMA).
    pub fn rrrr(opcode: Opcode, rd: ArchReg, rs1: ArchReg, rs2: ArchReg, rs3: ArchReg) -> Self {
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [Some(rs1), Some(rs2), Some(rs3)],
            imm: 0,
            target: 0,
        }
    }

    /// Register-immediate instruction: `op rd, rs1, #imm`.
    pub fn rri(opcode: Opcode, rd: ArchReg, rs1: ArchReg, imm: i64) -> Self {
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [Some(rs1), None, None],
            imm,
            target: 0,
        }
    }

    /// Two-register instruction: `op rd, rs1`.
    pub fn rr(opcode: Opcode, rd: ArchReg, rs1: ArchReg) -> Self {
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [Some(rs1), None, None],
            imm: 0,
            target: 0,
        }
    }

    /// Destination-and-immediate instruction: `op rd, #imm`.
    pub fn ri(opcode: Opcode, rd: ArchReg, imm: i64) -> Self {
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [None, None, None],
            imm,
            target: 0,
        }
    }

    /// Load: `op rd, [rbase + #imm]`.
    pub fn load(opcode: Opcode, rd: ArchReg, base: ArchReg, imm: i64) -> Self {
        debug_assert!(opcode.is_load());
        Inst {
            opcode,
            dst: Some(rd),
            dst2: None,
            srcs: [Some(base), None, None],
            imm,
            target: 0,
        }
    }

    /// Store: `op rval, [rbase + #imm]`. Sources are `[base, value]`.
    pub fn store(opcode: Opcode, value: ArchReg, base: ArchReg, imm: i64) -> Self {
        debug_assert!(opcode.is_store());
        Inst {
            opcode,
            dst: None,
            dst2: None,
            srcs: [Some(base), Some(value), None],
            imm,
            target: 0,
        }
    }

    /// Post-increment load: `op rd, [rbase], #imm` — writes `rd` and
    /// writes back `rbase + imm` into `rbase` (second destination).
    /// # Panics
    ///
    /// Panics (debug) if `rd == base` — like ARM, writeback with
    /// `rd == rn` is not allowed.
    pub fn load_post(opcode: Opcode, rd: ArchReg, base: ArchReg, imm: i64) -> Self {
        debug_assert!(opcode.is_load() && opcode.is_post_increment());
        debug_assert!(rd != base, "post-increment load with rd == base");
        Inst {
            opcode,
            dst: Some(rd),
            dst2: Some(base),
            srcs: [Some(base), None, None],
            imm,
            target: 0,
        }
    }

    /// Post-increment store: `op rval, [rbase], #imm`. Sources are
    /// `[base, value]`; the base writeback is the only destination.
    pub fn store_post(opcode: Opcode, value: ArchReg, base: ArchReg, imm: i64) -> Self {
        debug_assert!(opcode.is_store() && opcode.is_post_increment());
        Inst {
            opcode,
            dst: None,
            dst2: Some(base),
            srcs: [Some(base), Some(value), None],
            imm,
            target: 0,
        }
    }

    /// Conditional branch: `op rs1, rs2, target`.
    pub fn branch(opcode: Opcode, rs1: ArchReg, rs2: ArchReg, target: u32) -> Self {
        debug_assert!(opcode.is_cond_branch());
        Inst {
            opcode,
            dst: None,
            dst2: None,
            srcs: [Some(rs1), Some(rs2), None],
            imm: 0,
            target,
        }
    }

    /// Unconditional direct jump, optionally linking.
    pub fn jal(link: Option<ArchReg>, target: u32) -> Self {
        Inst {
            opcode: Opcode::Jal,
            dst: link,
            dst2: None,
            srcs: [None, None, None],
            imm: 0,
            target,
        }
    }

    /// Indirect jump to `rs1 + imm`, optionally linking.
    pub fn jalr(link: Option<ArchReg>, rs1: ArchReg, imm: i64) -> Self {
        Inst {
            opcode: Opcode::Jalr,
            dst: link,
            dst2: None,
            srcs: [Some(rs1), None, None],
            imm,
            target: 0,
        }
    }

    /// A no-operand instruction (`nop`, `halt`).
    pub fn bare(opcode: Opcode) -> Self {
        Inst {
            opcode,
            dst: None,
            dst2: None,
            srcs: [None, None, None],
            imm: 0,
            target: 0,
        }
    }

    /// The destination register the renamer must allocate storage for.
    ///
    /// `None` for instructions without a destination (stores, branches,
    /// `nop`, …) and for writes to the hard-wired zero register.
    pub fn dst(&self) -> Option<ArchReg> {
        self.dst.filter(|r| !r.is_zero())
    }

    /// The raw destination, including the zero register (used by the
    /// functional emulator, which must still discard the write).
    pub fn raw_dst(&self) -> Option<ArchReg> {
        self.dst
    }

    /// The second destination: the written-back base register of a
    /// post-increment memory operation. `None` otherwise (and for the
    /// zero register).
    pub fn dst2(&self) -> Option<ArchReg> {
        self.dst2.filter(|r| !r.is_zero())
    }

    /// Source registers the renamer must map, in operand order.
    ///
    /// Reads of the hard-wired zero register are excluded (hardware reads a
    /// constant zero; no dependence is created).
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied().filter(|r| !r.is_zero())
    }

    /// All source operands in positional form, including `xzr` reads.
    pub fn raw_sources(&self) -> &[Option<ArchReg>; 3] {
        &self.srcs
    }

    /// True when this instruction writes a destination register.
    pub fn has_dst(&self) -> bool {
        self.dst().is_some()
    }

    /// Every register this instruction defines, tagged with the slot the
    /// write comes from, in slot order (primary before writeback).
    ///
    /// Writes to the hard-wired zero register are excluded, matching
    /// [`Inst::dst`] / [`Inst::dst2`]: the renamer allocates nothing for
    /// them and no later instruction can observe them. This is the single
    /// accessor operand-bookkeeping code should use instead of pairing
    /// `dst()` and `dst2()` by hand.
    pub fn defs(&self) -> impl Iterator<Item = (DefSlot, ArchReg)> + '_ {
        self.dst()
            .map(|r| (DefSlot::Primary, r))
            .into_iter()
            .chain(self.dst2().map(|r| (DefSlot::Writeback, r)))
    }

    /// The architectural registers this instruction reads, deduplicated,
    /// in first-occurrence operand order.
    ///
    /// Unlike [`Inst::sources`] (which is positional and may repeat a
    /// register, e.g. `add x1, x2, x2`), each register appears at most
    /// once — the granularity at which consumers are counted
    /// ([`crate::trace_values`]): an instruction consumes a producer's
    /// value once no matter how many operand slots carry it.
    /// Zero-register reads are excluded.
    pub fn uses(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().enumerate().filter_map(move |(i, r)| {
            let r = (*r)?;
            if r.is_zero() {
                return None;
            }
            if self.srcs[..i].iter().flatten().any(|p| *p == r) {
                return None;
            }
            Some(r)
        })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        if self.opcode.is_mem() {
            if let Some(d) = self.dst {
                sep(f)?;
                write!(f, "{d}")?;
            }
            if self.opcode.is_store() {
                if let Some(v) = self.srcs[1] {
                    sep(f)?;
                    write!(f, "{v}")?;
                }
            }
            if let Some(base) = self.srcs[0] {
                sep(f)?;
                if self.opcode.is_post_increment() {
                    write!(f, "[{base}], #{}", self.imm)?;
                } else {
                    write!(f, "[{base}{:+}]", self.imm)?;
                }
            }
            return Ok(());
        }
        if let Some(d) = self.dst {
            sep(f)?;
            write!(f, "{d}")?;
        }
        for s in self.srcs.iter().flatten() {
            sep(f)?;
            write!(f, "{s}")?;
        }
        if matches!(self.opcode, Opcode::Fli) {
            sep(f)?;
            write!(f, "#{}", f64::from_bits(self.imm as u64))?;
        } else if self.imm != 0 || matches!(self.opcode, Opcode::Li | Opcode::Addi) {
            sep(f)?;
            write!(f, "#{}", self.imm)?;
        }
        if self.opcode.is_branch() && !matches!(self.opcode, Opcode::Jalr) {
            sep(f)?;
            write!(f, "@{}", self.target)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    #[test]
    fn dst_filters_zero_register() {
        let i = Inst::rrr(Opcode::Add, reg::zero(), reg::x(1), reg::x(2));
        assert_eq!(i.dst(), None);
        assert_eq!(i.raw_dst(), Some(reg::zero()));
        assert!(!i.has_dst());
    }

    #[test]
    fn sources_filter_zero_register() {
        let i = Inst::rrr(Opcode::Add, reg::x(0), reg::zero(), reg::x(2));
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![reg::x(2)]);
    }

    #[test]
    fn store_operand_shape() {
        let s = Inst::store(Opcode::St, reg::x(5), reg::x(6), 16);
        assert_eq!(s.dst(), None);
        let srcs: Vec<_> = s.sources().collect();
        assert_eq!(srcs, vec![reg::x(6), reg::x(5)]);
    }

    #[test]
    fn fma_has_three_sources() {
        let i = Inst::rrrr(Opcode::Fma, reg::f(0), reg::f(1), reg::f(2), reg::f(3));
        assert_eq!(i.sources().count(), 3);
        assert_eq!(i.dst(), Some(reg::f(0)));
    }

    #[test]
    fn display_load_store_and_alu() {
        let l = Inst::load(Opcode::Ld, reg::x(1), reg::x(2), 8);
        assert_eq!(format!("{l}"), "ld x1, [x2+8]");
        let s = Inst::store(Opcode::St, reg::x(3), reg::x(4), -8);
        assert_eq!(format!("{s}"), "st x3, [x4-8]");
        let a = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(3));
        assert_eq!(format!("{a}"), "add x1, x2, x3");
        let b = Inst::branch(Opcode::Beq, reg::x(1), reg::x(2), 42);
        assert_eq!(format!("{b}"), "beq x1, x2, @42");
    }

    #[test]
    fn display_immediates() {
        let li = Inst::ri(Opcode::Li, reg::x(1), 0);
        assert_eq!(format!("{li}"), "li x1, #0");
        let fli = Inst::ri(Opcode::Fli, reg::f(1), 1.5f64.to_bits() as i64);
        assert_eq!(format!("{fli}"), "fli f1, #1.5");
    }

    /// Builds a representative instruction for an opcode from its declared
    /// operand shape, using distinct non-zero registers in every slot.
    fn representative(op: Opcode) -> Inst {
        let shape = op.operand_shape();
        let fp = op.class() == crate::OpClass::FpAlu
            || op.class() == crate::OpClass::FpMul
            || op.class() == crate::OpClass::FpDiv;
        let d = if fp { reg::f(1) } else { reg::x(1) };
        match op {
            Opcode::Jal => Inst::jal(Some(reg::lr()), 0),
            Opcode::Jalr => Inst::jalr(Some(reg::lr()), reg::x(2), 0),
            _ if op.is_post_increment() && op.is_load() => {
                let rd = if matches!(op, Opcode::FldPost) {
                    reg::f(1)
                } else {
                    reg::x(1)
                };
                Inst::load_post(op, rd, reg::x(2), 8)
            }
            _ if op.is_post_increment() => {
                let v = if matches!(op, Opcode::FstPost) {
                    reg::f(3)
                } else {
                    reg::x(3)
                };
                Inst::store_post(op, v, reg::x(2), 8)
            }
            _ if op.is_store() => {
                let v = if matches!(op, Opcode::Fst) {
                    reg::f(3)
                } else {
                    reg::x(3)
                };
                Inst::store(op, v, reg::x(2), 0)
            }
            _ if op.is_load() => {
                let rd = if matches!(op, Opcode::Fld) {
                    reg::f(1)
                } else {
                    reg::x(1)
                };
                Inst::load(op, rd, reg::x(2), 0)
            }
            _ if op.is_cond_branch() => Inst::branch(op, reg::x(2), reg::x(3), 0),
            _ => match shape.num_srcs {
                0 if shape.has_dst => Inst::ri(op, d, 0),
                1 if shape.has_dst => Inst::rr(op, d, reg::f(2)),
                2 if shape.has_dst => Inst::rrr(op, d, reg::f(2), reg::f(3)),
                3 if shape.has_dst => Inst::rrrr(op, d, reg::f(2), reg::f(3), reg::f(4)),
                _ => Inst::bare(op),
            },
        }
    }

    #[test]
    fn all_table_is_complete_and_unique() {
        use std::collections::HashSet;
        let set: HashSet<Opcode> = Opcode::ALL.iter().copied().collect();
        assert_eq!(
            set.len(),
            Opcode::ALL.len(),
            "duplicate entry in Opcode::ALL"
        );
        // Mnemonics must be pairwise distinct too (disassembler round-trip).
        let names: HashSet<&str> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(names.len(), Opcode::ALL.len());
    }

    #[test]
    fn defs_and_uses_match_operand_shape_for_every_opcode() {
        for op in Opcode::ALL {
            let shape = op.operand_shape();
            let inst = representative(op);
            let defs: Vec<_> = inst.defs().collect();
            let uses: Vec<_> = inst.uses().collect();
            let want_defs = shape.has_dst as usize + shape.has_base_writeback as usize;
            assert_eq!(
                defs.len(),
                want_defs,
                "{op}: defs() disagrees with operand_shape()"
            );
            assert_eq!(
                uses.len(),
                shape.num_srcs as usize,
                "{op}: uses() disagrees with operand_shape()"
            );
            // Slot tagging: the writeback def, when present, is the base
            // register (positional source 0) tagged DefSlot::Writeback.
            if shape.has_base_writeback {
                let wb = defs.iter().find(|(s, _)| *s == DefSlot::Writeback);
                assert_eq!(
                    wb.map(|&(_, r)| r),
                    inst.raw_sources()[0],
                    "{op}: writeback def"
                );
            }
            if shape.has_dst && !shape.has_base_writeback {
                assert!(defs.iter().all(|(s, _)| *s == DefSlot::Primary), "{op}");
            }
            // defs() and sources() must agree with the legacy accessors.
            assert_eq!(
                inst.dst(),
                defs.iter()
                    .find(|(s, _)| *s == DefSlot::Primary)
                    .map(|&(_, r)| r)
            );
            assert_eq!(
                inst.dst2(),
                defs.iter()
                    .find(|(s, _)| *s == DefSlot::Writeback)
                    .map(|&(_, r)| r)
            );
            // The shape's target flag matches the branch predicate for
            // direct-target instructions.
            assert_eq!(
                shape.has_target,
                op.is_cond_branch() || op == Opcode::Jal,
                "{op}"
            );
        }
    }

    #[test]
    fn uses_deduplicates_repeated_operands() {
        let i = Inst::rrr(Opcode::Add, reg::x(1), reg::x(2), reg::x(2));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![reg::x(2)]);
        assert_eq!(i.sources().count(), 2, "sources() stays positional");
        let fma = Inst::rrrr(Opcode::Fma, reg::f(1), reg::f(2), reg::f(2), reg::f(2));
        assert_eq!(fma.uses().count(), 1);
    }

    #[test]
    fn defs_filter_zero_register() {
        let i = Inst::rrr(Opcode::Add, reg::zero(), reg::x(1), reg::x(2));
        assert_eq!(i.defs().count(), 0);
        let j = Inst::jal(None, 3);
        assert_eq!(j.defs().count(), 0);
    }

    #[test]
    fn post_increment_defs_both_slots() {
        let l = Inst::load_post(Opcode::LdPost, reg::x(1), reg::x(2), 8);
        let defs: Vec<_> = l.defs().collect();
        assert_eq!(
            defs,
            vec![
                (DefSlot::Primary, reg::x(1)),
                (DefSlot::Writeback, reg::x(2))
            ]
        );
        let s = Inst::store_post(Opcode::StPost, reg::x(3), reg::x(2), 8);
        let defs: Vec<_> = s.defs().collect();
        assert_eq!(defs, vec![(DefSlot::Writeback, reg::x(2))]);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![reg::x(2), reg::x(3)]);
    }

    #[test]
    fn jal_and_jalr_links() {
        let j = Inst::jal(Some(reg::lr()), 7);
        assert_eq!(j.dst(), Some(reg::lr()));
        assert_eq!(j.target, 7);
        let r = Inst::jalr(None, reg::lr(), 0);
        assert_eq!(r.dst(), None);
        assert_eq!(r.sources().count(), 1);
    }
}
