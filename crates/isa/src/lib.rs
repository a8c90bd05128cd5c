#![warn(missing_docs)]

//! TRISC: the tiny RISC instruction set used by the `regshare` simulator.
//!
//! TRISC is a 64-bit load/store architecture in the spirit of ARMv8 /
//! RISC-V, designed so that register-renaming research can be carried out
//! without carrying a full commercial ISA:
//!
//! * 32 integer logical registers (`x0..x31`, with `x31` hard-wired to
//!   zero) and 32 floating-point logical registers (`f0..f31`) — decoupled
//!   register files, as in the paper's evaluation.
//! * Three-operand register arithmetic, immediate forms, compare-into-
//!   register, fused multiply-add, compare-and-branch (no condition flags —
//!   flags would complicate renaming without adding anything to the study).
//! * Byte-addressable little-endian memory with 1/4/8-byte integer accesses
//!   and 8-byte floating-point accesses.
//!
//! The crate provides:
//!
//! * [`Inst`]/[`Opcode`]/[`ArchReg`] — the instruction representation,
//!   with the operand accessors renaming hardware needs ([`Inst::dst`],
//!   [`Inst::sources`]).
//! * [`Asm`] — an assembler-style program builder with labels.
//! * [`Program`] and [`Memory`] — code plus an initial data image.
//! * [`exec`] — pure instruction semantics shared by the functional
//!   emulator and the timing simulator's execute stage.
//! * [`Machine`] — the functional reference emulator, the correctness
//!   oracle for every timing-simulator configuration.
//! * [`trace_values`] — the replay of a retired trace that counts each
//!   value's consumers, read by the paper's Figs. 1–3 and the static
//!   oracle.
//!
//! # Examples
//!
//! ```
//! use regshare_isa::{Asm, Machine, reg};
//!
//! // sum = 10 + 32
//! let mut a = Asm::new();
//! a.li(reg::x(1), 10);
//! a.li(reg::x(2), 32);
//! a.add(reg::x(0), reg::x(1), reg::x(2));
//! a.halt();
//!
//! let mut m = Machine::new(a.assemble());
//! m.run(1_000).unwrap();
//! assert_eq!(m.int_reg(reg::x(0)), 42);
//! ```

mod asm;
mod decoded;
pub mod exec;
mod hart;
mod hints;
mod inst;
mod machine;
mod memory;
mod op;
mod parse;
mod program;
mod reg_impl;

pub use asm::{Asm, Label};
pub use decoded::{DecodedImage, DecodedOp};
pub use hart::{HartId, MAX_HARTS};
pub use hints::{ShareHint, ShareHintTable};
pub use inst::{DefSlot, Inst};
pub use machine::{trace_values, Machine, MachineError, Retired, StopReason, TraceValue};
pub use memory::Memory;
pub use op::{OpClass, Opcode, OperandShape};
pub use parse::{parse_program, ParseError};
pub use program::{DataBuilder, Program};
pub use reg_impl::{ArchReg, RegClass, NUM_FP_REGS, NUM_INT_REGS};

/// Convenience constructors for architectural registers.
///
/// # Examples
///
/// ```
/// use regshare_isa::{reg, RegClass};
///
/// assert_eq!(reg::x(3).class(), RegClass::Int);
/// assert_eq!(reg::f(3).class(), RegClass::Fp);
/// ```
pub mod reg {
    use super::{ArchReg, RegClass};

    /// The integer register `x<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn x(n: u8) -> ArchReg {
        ArchReg::new(RegClass::Int, n)
    }

    /// The floating-point register `f<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn f(n: u8) -> ArchReg {
        ArchReg::new(RegClass::Fp, n)
    }

    /// The always-zero integer register (`x31`).
    pub fn zero() -> ArchReg {
        x(super::reg_impl::ZERO_REG)
    }

    /// The conventional stack-pointer register (`x29`).
    pub fn sp() -> ArchReg {
        x(29)
    }

    /// The conventional link register (`x30`).
    pub fn lr() -> ArchReg {
        x(30)
    }
}
