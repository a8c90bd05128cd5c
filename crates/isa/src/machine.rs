//! The functional reference emulator.

use crate::exec::{self, Action};
use crate::{ArchReg, DefSlot, Inst, Memory, Program, RegClass, NUM_FP_REGS, NUM_INT_REGS};
use std::fmt;

/// A record of one retired instruction, emitted by [`Machine::step`].
///
/// The timing simulator's tests compare their committed stream against this
/// record-for-record; the workload analysis passes (Figs. 1–3 of the paper)
/// consume it as the dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// Instruction index of the retired instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// The PC of the next instruction.
    pub next_pc: u64,
    /// Branch outcome, for control instructions.
    pub taken: Option<bool>,
    /// Effective address, for memory instructions.
    pub ea: Option<u64>,
    /// Bit-pattern value written to the destination register, if any.
    pub wvalue: Option<u64>,
    /// Bit-pattern value written to the second destination (the written-
    /// back base register of post-increment memory operations).
    pub wvalue2: Option<u64>,
}

/// One value a retired-instruction trace produced, with the reads it got
/// before it was overwritten or the trace ended.
///
/// This is the one definition of a value's consumers behind the paper's
/// Figs. 1–3 and the static oracle: an instruction consumes a value once
/// however many of its operands carry it ([`Inst::uses`]), and it reads
/// its sources before it writes its destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceValue {
    /// Trace index of the instruction that produced the value.
    pub producer: usize,
    /// The destination slot the value was written through.
    pub slot: DefSlot,
    /// How many instructions read the value.
    pub consumers: u32,
    /// Trace index of the first instruction that read it.
    pub first_consumer: Option<usize>,
    /// The first consumer also redefines the value's register (the
    /// paper's safe-reuse shape).
    pub first_redefines: bool,
}

/// Replays the instructions of a retired trace, in retirement order, and
/// returns every value they produced, in production order: by trace
/// index, then primary before writeback.
pub fn trace_values<'a>(trace: impl IntoIterator<Item = &'a Inst>) -> Vec<TraceValue> {
    let index = |r: ArchReg| r.class().index() * NUM_INT_REGS + r.index() as usize;
    // The value each register holds, as an index into `values`.
    let mut live = [usize::MAX; NUM_INT_REGS + NUM_FP_REGS];
    let mut values: Vec<TraceValue> = Vec::new();
    for (i, inst) in trace.into_iter().enumerate() {
        for u in inst.uses() {
            let Some(v) = values.get_mut(live[index(u)]) else {
                continue; // never written in the trace
            };
            if v.consumers == 0 {
                v.first_consumer = Some(i);
                v.first_redefines = inst.defs().any(|(_, d)| d == u);
            }
            v.consumers += 1;
        }
        for (slot, d) in inst.defs() {
            live[index(d)] = values.len();
            values.push(TraceValue {
                producer: i,
                slot,
                consumers: 0,
                first_consumer: None,
                first_redefines: false,
            });
        }
    }
    values
}

/// Why [`Machine::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted first.
    MaxInstructions,
}

/// Errors produced by the functional emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The PC left the program (a wild indirect jump or a fall-through off
    /// the end).
    PcOutOfRange {
        /// The offending PC.
        pc: u64,
        /// Program length in instructions.
        len: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::PcOutOfRange { pc, len } => {
                write!(f, "pc {pc} out of range for program of {len} instructions")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The functional reference emulator: executes a [`Program`] one
/// instruction at a time, in program order, with no timing model.
///
/// `Machine` is the correctness oracle for the out-of-order timing
/// simulator: every timing configuration must commit exactly the stream of
/// [`Retired`] records the machine produces and end with the same
/// architectural state and memory.
///
/// # Examples
///
/// ```
/// use regshare_isa::{Asm, Machine, StopReason, reg};
///
/// let mut a = Asm::new();
/// a.li(reg::x(1), 2);
/// a.mul(reg::x(1), reg::x(1), reg::x(1));
/// a.halt();
/// let mut m = Machine::new(a.assemble());
/// assert_eq!(m.run(10).unwrap(), StopReason::Halted);
/// assert_eq!(m.int_reg(reg::x(1)), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    mem: Memory,
    int: [u64; NUM_INT_REGS],
    fp: [u64; NUM_FP_REGS],
    pc: u64,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// Creates a machine at the program entry with the program's data image.
    pub fn new(program: Program) -> Self {
        let mem = program.data().clone();
        let pc = program.entry() as u64;
        Machine {
            program,
            mem,
            int: [0; NUM_INT_REGS],
            fp: [0; NUM_FP_REGS],
            pc,
            halted: false,
            retired: 0,
        }
    }

    /// Reads a register as a bit pattern. Reads of `xzr` return 0.
    pub fn reg_bits(&self, r: ArchReg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        match r.class() {
            RegClass::Int => self.int[r.index() as usize],
            RegClass::Fp => self.fp[r.index() as usize],
        }
    }

    /// Reads an integer register.
    pub fn int_reg(&self, r: ArchReg) -> u64 {
        assert_eq!(r.class(), RegClass::Int, "int_reg on fp register");
        self.reg_bits(r)
    }

    /// Reads a floating-point register.
    pub fn fp_reg(&self, r: ArchReg) -> f64 {
        assert_eq!(r.class(), RegClass::Fp, "fp_reg on int register");
        f64::from_bits(self.reg_bits(r))
    }

    /// Writes a register; writes to `xzr` are discarded.
    pub fn write_reg(&mut self, r: ArchReg, bits: u64) {
        if r.is_zero() {
            return;
        }
        match r.class() {
            RegClass::Int => self.int[r.index() as usize] = bits,
            RegClass::Fp => self.fp[r.index() as usize] = bits,
        }
    }

    /// The current PC (instruction index).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// True once a `halt` has retired.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The data memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Executes one instruction.
    ///
    /// Returns the retired-instruction record, or `None` if the machine has
    /// already halted.
    ///
    /// # Errors
    ///
    /// [`MachineError::PcOutOfRange`] when control flow leaves the program.
    pub fn step(&mut self) -> Result<Option<Retired>, MachineError> {
        if self.halted {
            return Ok(None);
        }
        let inst = *self
            .program
            .fetch(self.pc)
            .ok_or(MachineError::PcOutOfRange {
                pc: self.pc,
                len: self.program.len(),
            })?;

        let mut ops = [0u64; 3];
        for (slot, src) in ops.iter_mut().zip(inst.raw_sources()) {
            if let Some(r) = src {
                *slot = self.reg_bits(*r);
            }
        }

        let action = exec::evaluate(&inst, self.pc, ops);
        let mut record = Retired {
            pc: self.pc,
            inst,
            next_pc: action.next_pc(self.pc),
            taken: None,
            ea: None,
            wvalue: None,
            wvalue2: None,
        };

        match action {
            Action::Value(bits) => {
                if let Some(d) = inst.raw_dst() {
                    self.write_reg(d, bits);
                }
                if inst.dst().is_some() {
                    record.wvalue = Some(bits);
                }
            }
            Action::Load { ea, width } => {
                let bits = self.mem.read(ea, width);
                record.ea = Some(ea);
                if let Some(d) = inst.raw_dst() {
                    self.write_reg(d, bits);
                }
                if inst.dst().is_some() {
                    record.wvalue = Some(bits);
                }
            }
            Action::Store { ea, width, value } => {
                self.mem.write(ea, value, width);
                record.ea = Some(ea);
            }
            Action::LoadPost {
                ea,
                width,
                writeback,
            } => {
                let bits = self.mem.read(ea, width);
                record.ea = Some(ea);
                if let Some(d) = inst.raw_dst() {
                    self.write_reg(d, bits);
                }
                if inst.dst().is_some() {
                    record.wvalue = Some(bits);
                }
                if let Some(d2) = inst.dst2() {
                    self.write_reg(d2, writeback);
                    record.wvalue2 = Some(writeback);
                }
            }
            Action::StorePost {
                ea,
                width,
                value,
                writeback,
            } => {
                self.mem.write(ea, value, width);
                record.ea = Some(ea);
                if let Some(d2) = inst.dst2() {
                    self.write_reg(d2, writeback);
                    record.wvalue2 = Some(writeback);
                }
            }
            Action::Branch { taken, link, .. } => {
                record.taken = Some(taken);
                if let (Some(d), Some(ret)) = (inst.raw_dst(), link) {
                    self.write_reg(d, ret);
                    if inst.dst().is_some() {
                        record.wvalue = Some(ret);
                    }
                }
            }
            Action::Nop => {}
            Action::Halt => {
                self.halted = true;
            }
        }

        self.pc = record.next_pc;
        self.retired += 1;
        Ok(Some(record))
    }

    /// Runs until `halt` or until `max_instructions` have retired.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from [`Machine::step`].
    pub fn run(&mut self, max_instructions: u64) -> Result<StopReason, MachineError> {
        while self.retired < max_instructions {
            if self.step()?.is_none() {
                return Ok(StopReason::Halted);
            }
            if self.halted {
                return Ok(StopReason::Halted);
            }
        }
        Ok(StopReason::MaxInstructions)
    }

    /// Runs like [`Machine::run`], handing each retired record to
    /// `observe` instead of collecting a trace.
    ///
    /// This is the functional-warming fast path: the observer updates
    /// warmable microarchitectural state (caches, TLB, predictors) while
    /// the emulator advances architectural state, with no per-record
    /// allocation and a single fused loop.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from [`Machine::step`].
    pub fn run_observe(
        &mut self,
        max_instructions: u64,
        mut observe: impl FnMut(&Retired),
    ) -> Result<StopReason, MachineError> {
        while self.retired < max_instructions {
            match self.step()? {
                Some(r) => observe(&r),
                None => return Ok(StopReason::Halted),
            }
            if self.halted {
                return Ok(StopReason::Halted);
            }
        }
        Ok(StopReason::MaxInstructions)
    }

    /// Runs like [`Machine::run`] but collects the retired-instruction
    /// trace.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from [`Machine::step`].
    pub fn run_trace(
        &mut self,
        max_instructions: u64,
    ) -> Result<(Vec<Retired>, StopReason), MachineError> {
        let mut trace = Vec::new();
        while self.retired < max_instructions {
            match self.step()? {
                Some(r) => trace.push(r),
                None => return Ok((trace, StopReason::Halted)),
            }
            if self.halted {
                return Ok((trace, StopReason::Halted));
            }
        }
        Ok((trace, StopReason::MaxInstructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Asm, DataBuilder};

    #[test]
    fn writes_to_zero_register_are_discarded() {
        let mut a = Asm::new();
        a.li(reg::zero(), 99);
        a.halt();
        let mut m = Machine::new(a.assemble());
        m.run(10).unwrap();
        assert_eq!(m.reg_bits(reg::zero()), 0);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut d = DataBuilder::new(0x1000);
        let src = d.u64(1234);
        let mut a = Asm::with_data(d);
        a.li(reg::x(1), src as i64);
        a.ld(reg::x(2), reg::x(1), 0);
        a.addi(reg::x(2), reg::x(2), 1);
        a.st(reg::x(2), reg::x(1), 8);
        a.halt();
        let mut m = Machine::new(a.assemble());
        m.run(10).unwrap();
        assert_eq!(m.memory().read_u64(src + 8), 1235);
    }

    #[test]
    fn fp_pipeline_through_memory() {
        let mut d = DataBuilder::new(0x2000);
        let xs = d.f64_array(&[1.0, 2.0, 3.0]);
        let out = d.zeros(8);
        let mut a = Asm::with_data(d);
        a.li(reg::x(1), xs as i64);
        a.fld(reg::f(0), reg::x(1), 0);
        a.fld(reg::f(1), reg::x(1), 8);
        a.fld(reg::f(2), reg::x(1), 16);
        a.fma(reg::f(3), reg::f(0), reg::f(1), reg::f(2)); // 1*2+3 = 5
        a.li(reg::x(2), out as i64);
        a.fst(reg::f(3), reg::x(2), 0);
        a.halt();
        let mut m = Machine::new(a.assemble());
        m.run(20).unwrap();
        assert_eq!(m.memory().read_f64(out), 5.0);
    }

    #[test]
    fn loop_retires_expected_count() {
        let mut a = Asm::new();
        a.li(reg::x(0), 10);
        let top = a.label();
        a.bind(top);
        a.subi(reg::x(0), reg::x(0), 1);
        a.bne(reg::x(0), reg::zero(), top);
        a.halt();
        let mut m = Machine::new(a.assemble());
        let (trace, stop) = m.run_trace(1_000).unwrap();
        assert_eq!(stop, StopReason::Halted);
        // 1 li + 10*(sub+bne) + 1 halt
        assert_eq!(trace.len(), 22);
        let taken: usize = trace.iter().filter(|r| r.taken == Some(true)).count();
        assert_eq!(taken, 9); // final bne falls through
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        let func = a.label();
        a.li(reg::x(1), 5);
        a.call(func);
        a.addi(reg::x(1), reg::x(1), 100);
        a.halt();
        a.bind(func);
        a.addi(reg::x(1), reg::x(1), 1);
        a.ret();
        let mut m = Machine::new(a.assemble());
        m.run(100).unwrap();
        assert_eq!(m.int_reg(reg::x(1)), 106);
    }

    #[test]
    fn max_instructions_stops_infinite_loop() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let mut m = Machine::new(a.assemble());
        assert_eq!(m.run(100).unwrap(), StopReason::MaxInstructions);
        assert_eq!(m.retired(), 100);
    }

    #[test]
    fn wild_jalr_reports_pc_out_of_range() {
        let mut a = Asm::new();
        a.li(reg::x(1), 1_000_000);
        a.jalr(None, reg::x(1), 0);
        a.halt();
        let mut m = Machine::new(a.assemble());
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, MachineError::PcOutOfRange { .. }));
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn step_after_halt_returns_none() {
        let mut a = Asm::new();
        a.halt();
        let mut m = Machine::new(a.assemble());
        m.run(10).unwrap();
        assert!(m.step().unwrap().is_none());
        assert!(m.is_halted());
    }

    #[test]
    fn trace_values_count_each_reader_once() {
        let mut a = Asm::new();
        a.li(reg::x(1), 1);
        a.addi(reg::x(1), reg::x(1), 1); // sole reader of li, redefining
        a.add(reg::x(2), reg::x(1), reg::x(1)); // one read, two operands
        a.add(reg::x(3), reg::x(1), reg::x(2));
        a.halt();
        let (trace, _) = Machine::new(a.assemble()).run_trace(10).unwrap();
        let v = trace_values(trace.iter().map(|r| &r.inst));
        let summary: Vec<_> = v
            .iter()
            .map(|v| (v.producer, v.consumers, v.first_consumer, v.first_redefines))
            .collect();
        assert_eq!(
            summary,
            vec![
                (0, 1, Some(1), true),
                (1, 2, Some(2), false),
                (2, 1, Some(3), false),
                (3, 0, None, false),
            ]
        );
    }

    #[test]
    fn post_increment_values_come_primary_first() {
        let mut d = DataBuilder::new(0x1000);
        let xs = d.u64(5);
        let mut a = Asm::with_data(d);
        a.li(reg::x(1), xs as i64);
        a.ld_post(reg::x(2), reg::x(1), 8); // reads and rewrites the base
        a.add(reg::x(3), reg::x(1), reg::x(2));
        a.halt();
        let (trace, _) = Machine::new(a.assemble()).run_trace(10).unwrap();
        let v = trace_values(trace.iter().map(|r| &r.inst));
        let slots: Vec<_> = v.iter().map(|v| (v.producer, v.slot)).collect();
        assert_eq!(
            slots,
            vec![
                (0, DefSlot::Primary),
                (1, DefSlot::Primary),
                (1, DefSlot::Writeback),
                (2, DefSlot::Primary),
            ]
        );
        assert!(v[0].first_redefines, "the post-increment rewrites its base");
        assert_eq!((v[1].consumers, v[2].consumers), (1, 1));
    }

    #[test]
    fn retired_records_carry_effective_addresses() {
        let mut a = Asm::new();
        a.li(reg::x(1), 0x100);
        a.st(reg::x(1), reg::x(1), 8);
        a.halt();
        let mut m = Machine::new(a.assemble());
        let (trace, _) = m.run_trace(10).unwrap();
        assert_eq!(trace[1].ea, Some(0x108));
        assert_eq!(trace[1].wvalue, None);
    }
}
