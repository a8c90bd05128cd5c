//! The paper's motivation measurements over a functional trace, read from
//! its value replay ([`regshare_isa::trace_values`]):
//!
//! * [`Dataflow::profile`] — the single-consumer percentages of Fig. 1
//!   and the consumer-count histogram of Fig. 2.
//! * [`Dataflow::reused`] — Fig. 3: the destination-writing instructions
//!   that could reuse a register under each maximum chain length.

use regshare_isa::{trace_values, Inst, Machine, Program, TraceValue};
use regshare_stats::Histogram;

/// Results of the Fig. 1 / Fig. 2 analysis.
///
/// Fig. 1 of the paper is the *producer-side* measurement its abstract
/// states: "for more than 50% of the instructions in SPECfp … that have a
/// destination register, the produced value has only a single consumer."
/// The redefining/non-redefining split records whether that single
/// consumer also redefines the producer's logical register (the
/// guaranteed-safe reuse case) or not (the case needing the single-use
/// predictor).
#[derive(Debug, Clone)]
pub struct DataflowProfile {
    /// Dynamic instructions analyzed.
    pub instructions: u64,
    /// Destination registers written: post-increment memory operations
    /// write two, so the fractions stay meaningful for renaming.
    pub with_dest: u64,
    /// Producers whose value has exactly one consumer, and that consumer
    /// redefines the same logical register (Fig. 1, "redefining" bars).
    pub single_consumer_redefining: u64,
    /// Producers whose value has exactly one consumer writing a different
    /// logical register (Fig. 1, "non-redefining" bars).
    pub single_consumer_other: u64,
    /// Instructions (with a destination) that are themselves the sole
    /// consumer of at least one source value — the consumer-side view the
    /// renaming hardware acts on.
    pub sole_consumers: u64,
    /// Consumer count per produced value (Fig. 2); buckets 0..=6,
    /// overflow = "more than six".
    pub consumers: Histogram,
}

impl DataflowProfile {
    /// Fig. 1 total: fraction of destination-writing instructions whose
    /// value has exactly one consumer, in `[0, 1]`.
    pub fn single_use_fraction(&self) -> f64 {
        if self.with_dest == 0 {
            return 0.0;
        }
        (self.single_consumer_redefining + self.single_consumer_other) as f64
            / self.with_dest as f64
    }

    /// Fig. 1 "redefining" component, over destination-writing
    /// instructions.
    pub fn single_use_redefining_fraction(&self) -> f64 {
        if self.with_dest == 0 {
            return 0.0;
        }
        self.single_consumer_redefining as f64 / self.with_dest as f64
    }

    /// Fraction of instructions with a destination register (the paper's
    /// "more than 85% of the instructions require a physical register").
    pub fn dest_fraction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.with_dest as f64 / self.instructions as f64
    }
}

/// The instructions of a retired trace and the values they produced:
/// everything Figs. 1–3 read.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// The retired instructions, in retirement order.
    pub insts: Vec<Inst>,
    /// Their values, in production order ([`trace_values`]).
    pub values: Vec<TraceValue>,
}

impl Dataflow {
    /// Runs a program functionally for up to `max_instructions` and
    /// replays its trace.
    ///
    /// # Panics
    ///
    /// Panics if the program faults on the functional machine.
    pub fn run(program: &Program, max_instructions: u64) -> Dataflow {
        let mut insts = Vec::new();
        Machine::new(program.clone())
            .run_observe(max_instructions, |r| insts.push(r.inst))
            .expect("analysis programs must execute cleanly");
        Dataflow::of(insts)
    }

    /// Replays the instructions of an existing trace.
    pub fn of(insts: Vec<Inst>) -> Dataflow {
        let values = trace_values(&insts);
        Dataflow { insts, values }
    }

    /// The Fig. 1 / Fig. 2 profile.
    pub fn profile(&self) -> DataflowProfile {
        let mut profile = DataflowProfile {
            instructions: self.insts.len() as u64,
            with_dest: self.values.len() as u64,
            single_consumer_redefining: 0,
            single_consumer_other: 0,
            sole_consumers: 0,
            consumers: Histogram::new("consumers_per_value", 6),
        };
        let mut sole_reader = vec![false; self.insts.len()];
        for v in &self.values {
            profile.consumers.record(u64::from(v.consumers));
            if let (1, Some(reader)) = (v.consumers, v.first_consumer) {
                if v.first_redefines {
                    profile.single_consumer_redefining += 1;
                } else {
                    profile.single_consumer_other += 1;
                }
                sole_reader[reader] = true;
            }
        }
        profile.sole_consumers = self
            .insts
            .iter()
            .zip(&sole_reader)
            .filter(|(inst, &sole)| sole && inst.defs().next().is_some())
            .count() as u64;
        profile
    }

    /// Fig. 3: for each maximum chain length in `limits` (`u64::MAX` for
    /// unlimited), how many destination registers could avoid an
    /// allocation.
    ///
    /// The model is the paper's idealized limit study: a destination
    /// reuses a source's register of its class when it is that value's
    /// only consumer and the chain the value sits on has not reached the
    /// limit. The primary destination tries its sources in operand
    /// order, leaving a post-increment's base to the writeback, which
    /// reuses only the base.
    pub fn reused(&self, limits: &[u64]) -> Vec<u64> {
        const NONE: usize = usize::MAX;
        let insts = &self.insts;
        // Each instruction's single-use sources, by operand position.
        let mut sole = vec![[NONE; 3]; insts.len()];
        for (id, v) in self.values.iter().enumerate() {
            if let (1, Some(reader)) = (v.consumers, v.first_consumer) {
                let (_, reg) = insts[v.producer]
                    .defs()
                    .find(|&(slot, _)| slot == v.slot)
                    .expect("a value's slot is one of its producer's");
                let operand = insts[reader].uses().position(|u| u == reg);
                sole[reader][operand.expect("a consumer reads the value")] = id;
            }
        }
        limits
            .iter()
            .map(|&max_chain| {
                // Reuses on each value's chain, itself included.
                let mut depth = vec![0u64; self.values.len()];
                let mut reused = 0;
                // The first value the current instruction produces.
                let mut next = 0;
                for (inst, sole) in insts.iter().zip(&sole) {
                    let (dst, dst2) = (inst.dst(), inst.dst2());
                    let mut reuse = |operand: usize, value: usize| {
                        let source = sole[operand];
                        let ok = source != NONE && depth[source] < max_chain;
                        if ok {
                            depth[value] = depth[source] + 1;
                            reused += 1;
                        }
                        ok
                    };
                    if let Some(dst) = dst {
                        for (operand, src) in inst.uses().enumerate() {
                            if src.class() == dst.class()
                                && dst2 != Some(src)
                                && reuse(operand, next)
                            {
                                break;
                            }
                        }
                    }
                    if let Some(base) = dst2 {
                        let value = next + usize::from(dst.is_some());
                        if let Some(operand) = inst.uses().position(|u| u == base) {
                            reuse(operand, value);
                        }
                    }
                    next += inst.defs().count();
                }
                reused
            })
            .collect()
    }

    /// [`Dataflow::reused`] as fractions of the destination registers
    /// written.
    pub fn reuse_potential(&self, limits: &[u64]) -> Vec<f64> {
        let with_dest = self.values.len();
        self.reused(limits)
            .into_iter()
            .map(|n| {
                if with_dest == 0 {
                    0.0
                } else {
                    n as f64 / with_dest as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Asm};

    fn run(a: Asm) -> Dataflow {
        Dataflow::run(&a.assemble(), 100_000)
    }

    #[test]
    fn single_use_chain_is_detected() {
        let mut a = Asm::new();
        a.li(reg::x(1), 1); // value consumed once (by the next addi)
        a.addi(reg::x(1), reg::x(1), 1); // sole consumer, redefining
        a.addi(reg::x(2), reg::x(1), 1); // sole consumer, NOT redefining
        a.halt();
        let p = run(a).profile();
        assert_eq!(p.single_consumer_redefining, 1); // li's value
        assert_eq!(p.single_consumer_other, 1); // first addi's value
        assert_eq!(p.sole_consumers, 2); // both addis
        assert_eq!(p.instructions, 4);
        assert_eq!(p.with_dest, 3);
        assert!((p.single_use_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multi_consumer_values_are_not_single_use() {
        let mut a = Asm::new();
        a.li(reg::x(1), 5);
        a.addi(reg::x(2), reg::x(1), 1); // consumer 1 of x1
        a.addi(reg::x(3), reg::x(1), 2); // consumer 2 of x1
        a.halt();
        let p = run(a).profile();
        assert_eq!(p.single_consumer_redefining + p.single_consumer_other, 0);
        assert_eq!(p.sole_consumers, 0);
        assert_eq!(p.consumers.count(2), 1); // x1's value: two consumers
    }

    #[test]
    fn consumer_histogram_counts_unique_reads() {
        let mut a = Asm::new();
        a.li(reg::x(1), 5);
        a.mul(reg::x(2), reg::x(1), reg::x(1)); // one consumer (unique read)
        a.halt();
        let p = run(a).profile();
        assert_eq!(p.consumers.count(1), 1);
    }

    #[test]
    fn reuse_potential_respects_chain_limit() {
        // A chain of 4 redefinitions of x1: with unlimited reuse, all 4
        // redefinitions reuse; with limit 1, alternate ones do.
        let mut a = Asm::new();
        a.li(reg::x(1), 0);
        for _ in 0..4 {
            a.addi(reg::x(1), reg::x(1), 1);
        }
        a.halt();
        // 5 dest-writing instructions; 4 can reuse with no limit, and
        // only positions 2 and 4 with chain limit 1.
        assert_eq!(run(a).reused(&[u64::MAX, 1]), vec![4, 2]);
    }

    #[test]
    fn reuse_tries_sources_in_operand_order() {
        let mut a = Asm::new();
        a.li(reg::x(2), 1);
        a.li(reg::x(1), 2);
        a.addi(reg::x(1), reg::x(1), 1); // chain depth 1
        a.add(reg::x(3), reg::x(1), reg::x(2)); // sole reader of both
        a.addi(reg::x(4), reg::x(3), 0);
        a.halt();
        // At limit 2 the add extends x1's chain (its first operand) to
        // depth 2, so the last addi cannot reuse; taking x2 first would
        // have left room for it. At limit 1 the add falls back to x2.
        assert_eq!(run(a).reused(&[1, 2, u64::MAX]), vec![2, 2, 3]);
    }

    #[test]
    fn reuse_potential_never_crosses_classes() {
        let mut a = Asm::new();
        a.li(reg::x(1), 5);
        a.cvt_i_f(reg::f(1), reg::x(1)); // sole consumer but fp dest
        a.halt();
        assert_eq!(run(a).reuse_potential(&[u64::MAX]), vec![0.0]);
    }

    #[test]
    fn fractions_are_well_defined_on_empty_trace() {
        let d = Dataflow::of(Vec::new());
        let p = d.profile();
        assert_eq!(p.single_use_fraction(), 0.0);
        assert_eq!(p.dest_fraction(), 0.0);
        assert_eq!(d.reuse_potential(&[1]), vec![0.0]);
    }
}
