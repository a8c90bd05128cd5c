//! Static-vs-dynamic sharing oracle.
//!
//! Runs a program on the functional [`Machine`], counts how many times
//! each dynamically-produced value is actually consumed (the trace's
//! value replay, [`trace_values`]), and checks the observation against
//! the static classification of its producing site:
//!
//! * a [`SiteClass::Dead`] site must never have a consumed instance,
//! * a site with provable minimum ≥ 2 must never have an instance with
//!   fewer than 2 consumers,
//! * a *guaranteed-single* site (min = max = 1) must have exactly one
//!   consumer per instance,
//!
//! for complete traces (the program halted within the budget). The
//! instance-weighted counts also bracket the paper's Fig. 1 dynamic
//! single-use fraction: instances produced at sites that are not
//! provably dead or multi-consumer are the static *upper* bound, and
//! instances at guaranteed-single sites the *lower* bound. Site-level
//! (unweighted) fractions deliberately do not bracket the dynamic
//! number — sites execute with wildly different frequencies — which is
//! exactly why the oracle weights by execution count.

use crate::cfg::Cfg;
use crate::classify::{classify, ClassifiedSite, SiteClass};
use crate::dataflow::MAX_SAT;
use regshare_isa::{trace_values, DefSlot, Machine, Program, StopReason};
use serde::Serialize;
use std::collections::HashMap;

/// A disagreement between the static classification and the observed
/// execution — always a bug in one of the two.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Instruction index of the producing site.
    pub pc: u32,
    /// True when the violating definition is a post-increment base
    /// writeback rather than the primary destination.
    pub writeback: bool,
    /// Observed consumer count of the offending instance.
    pub observed: u32,
    /// What the static analysis claimed.
    pub claimed: String,
}

/// Aggregate result of one oracle run.
#[derive(Debug, Clone, Serialize)]
pub struct OracleReport {
    /// The program halted within the instruction budget, so every
    /// consumer count is final and the soundness checks are exact.
    pub trace_complete: bool,
    /// Dynamic instructions retired.
    pub retired: u64,
    /// Dynamic register-writing instances (values produced).
    pub def_instances: u64,
    /// Instances consumed exactly once.
    pub single_use_instances: u64,
    /// Instances produced at sites *not* statically classified dead or
    /// multi-consumer — the weighted static upper bound on single use.
    pub upper_bound_instances: u64,
    /// Instances produced at guaranteed-single sites (min = max = 1) —
    /// the weighted static lower bound on single use.
    pub lower_bound_instances: u64,
    /// Instances whose single consumer also redefined the register
    /// (the paper's safely-reusable case), as observed dynamically.
    pub single_use_redefining_instances: u64,
    /// Static-vs-dynamic disagreements (must be empty on complete
    /// traces of lint-clean programs).
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// Observed fraction of values consumed exactly once.
    pub fn single_use_fraction(&self) -> f64 {
        ratio(self.single_use_instances, self.def_instances)
    }

    /// Weighted static upper bound on [`OracleReport::single_use_fraction`].
    pub fn upper_bound_fraction(&self) -> f64 {
        ratio(self.upper_bound_instances, self.def_instances)
    }

    /// Weighted static lower bound on [`OracleReport::single_use_fraction`].
    pub fn lower_bound_fraction(&self) -> f64 {
        ratio(self.lower_bound_instances, self.def_instances)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs `program` for at most `max_instructions` and cross-checks the
/// dynamic consumer counts against the static classification.
///
/// # Errors
///
/// Returns the functional machine's error string if execution faults
/// (wild PC, misaligned access, …) — lint-clean programs don't.
pub fn oracle_check(program: &Program, max_instructions: u64) -> Result<OracleReport, String> {
    let insts = program.insts();
    let cfg = Cfg::build(insts, program.entry());
    let classification = classify(&cfg, insts);
    let class_of: HashMap<(usize, DefSlot), ClassifiedSite> = classification
        .sites
        .iter()
        .map(|s| ((s.site.pc, s.site.slot), *s))
        .collect();

    let mut machine = Machine::new(program.clone());
    let (trace, stop) = machine
        .run_trace(max_instructions)
        .map_err(|e| format!("{e:?}"))?;
    let trace_complete = stop == StopReason::Halted;

    let values = trace_values(trace.iter().map(|r| &r.inst));
    let mut report = OracleReport {
        trace_complete,
        retired: machine.retired(),
        def_instances: values.len() as u64,
        single_use_instances: 0,
        upper_bound_instances: 0,
        lower_bound_instances: 0,
        single_use_redefining_instances: 0,
        violations: Vec::new(),
    };
    for v in &values {
        if v.consumers == 1 {
            report.single_use_instances += 1;
            if v.first_redefines {
                report.single_use_redefining_instances += 1;
            }
        }
        let pc = trace[v.producer].pc as usize;
        let site = class_of
            .get(&(pc, v.slot))
            .expect("every executed instruction is in a statically reachable block");
        if !matches!(site.class, SiteClass::Dead | SiteClass::MultiConsumer) {
            report.upper_bound_instances += 1;
        }
        let guaranteed_single = site.min_consumers == 1 && site.max_consumers == 1;
        if guaranteed_single {
            report.lower_bound_instances += 1;
        }
        // Soundness: observed counts must respect the static bounds.
        // Without a complete trace the tail values may still gain
        // consumers, so only the upper bound is checkable.
        let too_many = site.max_consumers < MAX_SAT && v.consumers > site.max_consumers as u32;
        let too_few = trace_complete && v.consumers < site.min_consumers as u32;
        if too_many || too_few {
            report.violations.push(Violation {
                pc: pc as u32,
                writeback: v.slot == DefSlot::Writeback,
                observed: v.consumers,
                claimed: format!(
                    "{:?} (min {}, max {})",
                    site.class, site.min_consumers, site.max_consumers
                ),
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::{reg, Asm};

    fn counted_loop(n: i64) -> Program {
        let mut a = Asm::new();
        a.li(reg::x(1), n);
        a.li(reg::x(2), 0);
        let top = a.label();
        a.bind(top);
        a.add(reg::x(2), reg::x(2), reg::x(1));
        a.subi(reg::x(1), reg::x(1), 1);
        a.bne(reg::x(1), reg::zero(), top);
        a.halt();
        a.assemble()
    }

    #[test]
    fn bounds_bracket_the_dynamic_fraction() {
        let p = counted_loop(50);
        let r = oracle_check(&p, 100_000).expect("runs");
        assert!(r.trace_complete);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.def_instances > 0);
        assert!(r.lower_bound_instances <= r.single_use_instances);
        assert!(r.single_use_instances <= r.upper_bound_instances);
    }

    #[test]
    fn straight_line_exact_agreement() {
        // Every site is branch-free, so the static classification is
        // exact and the bounds collapse onto the dynamic number.
        let mut a = Asm::new();
        a.li(reg::x(1), 7);
        a.addi(reg::x(2), reg::x(1), 1); // x1: 1 consumer
        a.add(reg::x(3), reg::x(2), reg::x(2)); // x2: 1 consumer (dedup)
        a.add(reg::x(4), reg::x(3), reg::x(2)); // x3: 1, x2 again -> 2 total
        a.halt();
        let r = oracle_check(&a.assemble(), 1_000).expect("runs");
        assert!(r.trace_complete);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lower_bound_instances, r.single_use_instances);
        assert_eq!(r.upper_bound_instances, r.single_use_instances);
    }

    #[test]
    fn incomplete_trace_is_reported() {
        let p = counted_loop(1_000_000);
        let r = oracle_check(&p, 100).expect("runs");
        assert!(!r.trace_complete);
        // The upper bound still holds on truncated traces.
        assert!(r.single_use_instances <= r.upper_bound_instances);
    }
}
