//! Programs: code plus an initial data image.

use crate::{DecodedImage, Inst, Memory, ShareHintTable};
use std::sync::Arc;

/// A complete TRISC program: instructions, an entry point and the initial
/// contents of data memory.
///
/// Instruction addresses are instruction indices; the convention `pc_bytes =
/// index * 4` is used wherever a byte PC is needed (I-cache, BTB, predictor
/// hashes).
///
/// # Examples
///
/// ```
/// use regshare_isa::{Asm, reg};
///
/// let mut a = Asm::new();
/// a.halt();
/// let p = a.assemble();
/// assert_eq!(p.len(), 1);
/// ```
/// A program is a cheap handle: the instruction list, data image, hint
/// table and predecoded sidecar live behind one shared allocation, so
/// `Program::clone` (window checkpoints, the lockstep oracle,
/// `par_map` fan-out) copies a pointer instead of the
/// whole image. The contents are immutable after construction, which is
/// what makes the sharing sound.
#[derive(Debug, Clone)]
pub struct Program {
    inner: Arc<ProgramInner>,
}

#[derive(Debug)]
struct ProgramInner {
    insts: Vec<Inst>,
    entry: u32,
    data: Memory,
    hints: Option<ShareHintTable>,
    decoded: DecodedImage,
}

impl Program {
    /// Creates a program from parts.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range or any branch target points past
    /// the end of the instruction list.
    pub fn new(insts: Vec<Inst>, entry: u32, data: Memory) -> Self {
        assert!(
            (entry as usize) < insts.len().max(1),
            "entry point {entry} out of range for {} instructions",
            insts.len()
        );
        for (idx, inst) in insts.iter().enumerate() {
            if inst.opcode.is_branch() && inst.opcode != crate::Opcode::Jalr {
                assert!(
                    (inst.target as usize) < insts.len(),
                    "instruction {idx} branches to {} but program has {} instructions",
                    inst.target,
                    insts.len()
                );
            }
        }
        let decoded = DecodedImage::build(&insts, None);
        Program {
            inner: Arc::new(ProgramInner {
                insts,
                entry,
                data,
                hints: None,
                decoded,
            }),
        }
    }

    /// Attaches a static sharing-hint sidecar table (rebuilding the
    /// predecoded image so it carries the hint nibbles).
    ///
    /// # Panics
    ///
    /// Panics if the table does not cover exactly this program's
    /// instructions.
    pub fn with_hints(self, hints: ShareHintTable) -> Self {
        assert!(
            hints.len() == self.inner.insts.len(),
            "hint table covers {} instructions but program has {}",
            hints.len(),
            self.inner.insts.len()
        );
        // Setup-time path: unshare (or copy) the inner image to attach
        // the table, then re-predecode with the nibbles folded in.
        let mut inner = match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner,
            Err(shared) => ProgramInner {
                insts: shared.insts.clone(),
                entry: shared.entry,
                data: shared.data.clone(),
                hints: shared.hints.clone(),
                decoded: shared.decoded.clone(),
            },
        };
        inner.decoded = DecodedImage::build(&inner.insts, Some(&hints));
        inner.hints = Some(hints);
        Program {
            inner: Arc::new(inner),
        }
    }

    /// The attached sharing-hint table, if any.
    pub fn hints(&self) -> Option<&ShareHintTable> {
        self.inner.hints.as_ref()
    }

    /// The predecoded per-PC sidecar (built once at construction).
    #[inline(always)]
    pub fn decoded(&self) -> &DecodedImage {
        &self.inner.decoded
    }

    /// The instruction at `index`, if in range.
    #[inline(always)]
    pub fn fetch(&self, index: u64) -> Option<&Inst> {
        self.inner.insts.get(index as usize)
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.inner.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.inner.insts.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.inner.insts.is_empty()
    }

    /// The entry instruction index.
    pub fn entry(&self) -> u32 {
        self.inner.entry
    }

    /// The initial data image.
    pub fn data(&self) -> &Memory {
        &self.inner.data
    }

    /// Converts an instruction index into a byte PC (index × 4).
    pub fn byte_pc(index: u64) -> u64 {
        index * 4
    }

    /// Disassembles the whole program, one instruction per line.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, inst) in self.inner.insts.iter().enumerate() {
            out.push_str(&format!("{i:5}: {inst}\n"));
        }
        out
    }
}

/// Builds an initial data image at increasing addresses.
///
/// # Examples
///
/// ```
/// use regshare_isa::DataBuilder;
///
/// let mut d = DataBuilder::new(0x1000);
/// let xs = d.f64_array(&[1.0, 2.0]);
/// let n = d.u64(7);
/// assert_eq!(xs, 0x1000);
/// assert_eq!(n, 0x1010);
/// let mem = d.build();
/// assert_eq!(mem.read_u64(n), 7);
/// ```
#[derive(Debug, Clone)]
pub struct DataBuilder {
    mem: Memory,
    cursor: u64,
}

impl DataBuilder {
    /// Starts laying out data at `base`.
    pub fn new(base: u64) -> Self {
        DataBuilder {
            mem: Memory::new(),
            cursor: base,
        }
    }

    /// Aligns the cursor up to `align` bytes (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align(&mut self, align: u64) -> &mut Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.cursor = (self.cursor + align - 1) & !(align - 1);
        self
    }

    /// Current cursor address.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Reserves `bytes` zeroed bytes; returns their base address.
    pub fn zeros(&mut self, bytes: u64) -> u64 {
        let base = self.cursor;
        self.cursor += bytes;
        base
    }

    /// Appends one u64; returns its address.
    pub fn u64(&mut self, value: u64) -> u64 {
        let addr = self.cursor;
        self.mem.write_u64(addr, value);
        self.cursor += 8;
        addr
    }

    /// Appends a u64 array; returns its base address.
    pub fn u64_array(&mut self, values: &[u64]) -> u64 {
        let base = self.cursor;
        for v in values {
            self.u64(*v);
        }
        base
    }

    /// Appends one f64; returns its address.
    pub fn f64(&mut self, value: f64) -> u64 {
        let addr = self.cursor;
        self.mem.write_f64(addr, value);
        self.cursor += 8;
        addr
    }

    /// Appends an f64 array; returns its base address.
    pub fn f64_array(&mut self, values: &[f64]) -> u64 {
        let base = self.cursor;
        for v in values {
            self.f64(*v);
        }
        base
    }

    /// Appends raw bytes; returns their base address.
    pub fn bytes(&mut self, values: &[u8]) -> u64 {
        let base = self.cursor;
        for (i, b) in values.iter().enumerate() {
            self.mem.write_u8(base + i as u64, *b);
        }
        self.cursor += values.len() as u64;
        base
    }

    /// Finishes and returns the memory image.
    pub fn build(self) -> Memory {
        self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, Opcode};

    #[test]
    fn program_validates_entry() {
        let insts = vec![Inst::bare(Opcode::Halt)];
        let p = Program::new(insts, 0, Memory::new());
        assert_eq!(p.entry(), 0);
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn program_rejects_bad_entry() {
        Program::new(vec![Inst::bare(Opcode::Halt)], 5, Memory::new());
    }

    #[test]
    #[should_panic(expected = "branches to")]
    fn program_rejects_dangling_branch() {
        let insts = vec![Inst::branch(Opcode::Beq, reg::x(0), reg::x(1), 99)];
        Program::new(insts, 0, Memory::new());
    }

    #[test]
    fn byte_pc_is_index_times_four() {
        assert_eq!(Program::byte_pc(3), 12);
    }

    #[test]
    fn data_builder_layout_and_alignment() {
        let mut d = DataBuilder::new(10);
        d.align(8);
        assert_eq!(d.cursor(), 16);
        let a = d.u64_array(&[1, 2, 3]);
        assert_eq!(a, 16);
        let z = d.zeros(5);
        assert_eq!(z, 40);
        d.align(8);
        let b = d.bytes(&[9, 8]);
        assert_eq!(b, 48);
        let mem = d.build();
        assert_eq!(mem.read_u64(24), 2);
        assert_eq!(mem.read_u8(49), 8);
    }

    #[test]
    fn disassemble_lists_every_instruction() {
        let insts = vec![Inst::bare(Opcode::Nop), Inst::bare(Opcode::Halt)];
        let p = Program::new(insts, 0, Memory::new());
        let d = p.disassemble();
        assert!(d.contains("nop"));
        assert!(d.contains("halt"));
        assert_eq!(d.lines().count(), 2);
    }
}
