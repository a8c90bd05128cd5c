//! Per-stage behaviour tests through the public pipeline API, now that
//! the stages are isolated modules: commit-stage exception ordering,
//! issue-stage wakeup on the writeback cycle, rename-stage stalls when
//! the in-flight rename records exhaust the free list — plus recovery
//! timing under different recover bandwidths and the per-bank occupancy
//! audit.

use regshare_core::{BaselineRenamer, Renamer, RenamerConfig, ReuseRenamer};
use regshare_isa::{reg, Asm, Program, RegClass};
use regshare_sim::{Pipeline, SimConfig, TraceStage};

fn baseline(regs: usize) -> Box<dyn Renamer> {
    Box::new(BaselineRenamer::new(RenamerConfig::baseline(regs)))
}

fn proposed(regs: usize) -> Box<dyn Renamer> {
    Box::new(ReuseRenamer::new(RenamerConfig::paper(regs)))
}

/// A loop whose exit branch is trivially predicted but whose inner
/// branch follows a pseudo-random (xorshift-style) bit — plenty of
/// mispredicts, so both recovery paths and the shadow-cell machinery
/// are exercised.
fn branchy_program(iters: i64) -> Program {
    let mut a = Asm::new();
    a.li(reg::x(1), iters);
    a.li(reg::x(2), 0x1234_5678);
    a.li(reg::x(4), 0);
    let top = a.label();
    let skip = a.label();
    a.bind(top);
    // x2 = x2 * 1103515245 + 12345 (a classic LCG step).
    a.li(reg::x(5), 1_103_515_245);
    a.mul(reg::x(2), reg::x(2), reg::x(5));
    a.addi(reg::x(2), reg::x(2), 12345);
    a.srli(reg::x(3), reg::x(2), 16);
    a.andi(reg::x(3), reg::x(3), 1);
    a.bne(reg::x(3), reg::zero(), skip);
    a.addi(reg::x(4), reg::x(4), 1);
    a.bind(skip);
    a.subi(reg::x(1), reg::x(1), 1);
    a.bne(reg::x(1), reg::zero(), top);
    a.halt();
    a.assemble()
}

// ---------------------------------------------------------------------
// Recovery timing (SimConfig::recover_bandwidth).
// ---------------------------------------------------------------------

#[test]
fn unbounded_recover_bandwidth_matches_architecture_and_is_no_slower() {
    let narrow_cfg = SimConfig {
        recover_bandwidth: 1,
        ..SimConfig::test()
    };
    let wide_cfg = SimConfig {
        recover_bandwidth: u32::MAX,
        ..SimConfig::test()
    };

    // The proposed renamer issues shadow-cell recover commands on every
    // mispredict recovery, and the bandwidth sets how many redirect
    // cycles those commands cost.
    let mut narrow = Pipeline::new(branchy_program(400), proposed(64), narrow_cfg);
    let mut wide = Pipeline::new(branchy_program(400), proposed(64), wide_cfg);
    let rn = narrow.run().expect("one recover command per cycle");
    let rw = wide.run().expect("unbounded recover bandwidth");

    assert!(rn.halted && rw.halted);
    assert!(rn.mispredicts > 0, "program must mispredict to compare");
    assert_eq!(rn.committed_instructions, rw.committed_instructions);
    // Identical architectural restore at either bandwidth.
    assert_eq!(rn.shadow_recovers, rw.shadow_recovers);
    assert!(rn.shadow_recovers > 0, "recovery machinery must engage");
    // Unbounded bandwidth drains every recover command in one cycle, so
    // it can never be slower than draining one per cycle.
    assert!(
        rw.cycles <= rn.cycles,
        "unbounded bandwidth ({}) slower than one command per cycle ({})",
        rw.cycles,
        rn.cycles
    );
}

// ---------------------------------------------------------------------
// Commit stage: precise exception ordering.
// ---------------------------------------------------------------------

#[test]
fn commit_takes_fault_before_any_younger_op_commits() {
    let mut a = Asm::new();
    a.li(reg::x(1), 0x1_0000);
    a.li(reg::x(2), 7);
    a.st(reg::x(2), reg::x(1), 0); // first access to the page: faults once
    a.ld(reg::x(3), reg::x(1), 0);
    a.add(reg::x(4), reg::x(3), reg::x(2));
    a.halt();

    let mut cfg = SimConfig::test();
    cfg.inject_page_faults = vec![0x1_0000];
    cfg.trace = true;
    let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
    let report = sim.run().expect("faulting run");

    // The lockstep oracle verified every commit, so the younger load and
    // add observed the store's value only after the precise flush.
    assert!(report.halted);
    assert_eq!(report.exceptions, 1, "the page must fault exactly once");
    assert_eq!(report.committed_instructions, 6);

    // Commit order is total: no younger micro-op may slip past the
    // faulting head, so the commit trace is strictly seq-ordered.
    let commits: Vec<u64> = sim
        .take_trace()
        .into_iter()
        .filter(|e| e.stage == TraceStage::Commit)
        .map(|e| e.seq)
        .collect();
    assert!(!commits.is_empty());
    assert!(
        commits.windows(2).all(|w| w[0] < w[1]),
        "commit trace must be strictly ordered by sequence number"
    );
}

// ---------------------------------------------------------------------
// Issue stage: wakeup on the producer's writeback cycle.
// ---------------------------------------------------------------------

#[test]
fn dependent_op_issues_on_the_producer_writeback_cycle() {
    let mut a = Asm::new();
    a.li(reg::x(1), 3);
    a.li(reg::x(2), 5);
    a.mul(reg::x(3), reg::x(1), reg::x(2)); // 3-cycle producer at pc 2
    a.addi(reg::x(4), reg::x(3), 1); // consumer at pc 3
    a.halt();

    let mut cfg = SimConfig::test();
    cfg.trace = true;
    let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
    sim.run().expect("run");
    let trace = sim.take_trace();

    let cycle_of = |pc: u64, stage: TraceStage| {
        trace
            .iter()
            .find(|e| e.pc == pc && e.stage == stage)
            .unwrap_or_else(|| panic!("no {stage:?} event for pc {pc}"))
            .cycle
    };
    let producer_wb = cycle_of(2, TraceStage::Writeback);
    let consumer_issue = cycle_of(3, TraceStage::Issue);
    // Writeback broadcasts readiness before issue selects within the
    // same cycle, so the consumer (long since dispatched and waiting
    // only on x3) must issue on exactly the producer's writeback cycle.
    assert_eq!(
        consumer_issue, producer_wb,
        "consumer must wake up in the same cycle the producer writes back"
    );
}

// ---------------------------------------------------------------------
// Rename stage: in-flight rename records exhaust the free list.
// ---------------------------------------------------------------------

#[test]
fn rename_stalls_when_inflight_renames_exhaust_free_registers() {
    // 36 physical registers leave only 4 for renaming; a stream of
    // back-to-back definitions keeps far more renames in flight than
    // that, so the rename stage must stall (and roll back cleanly, which
    // the oracle then verifies commit-by-commit).
    let mut a = Asm::new();
    a.li(reg::x(31), 200);
    let top = a.label();
    a.bind(top);
    for r in 1..=8 {
        a.addi(reg::x(r), reg::zero(), i64::from(r));
    }
    a.subi(reg::x(31), reg::x(31), 1);
    a.bne(reg::x(31), reg::zero(), top);
    a.halt();

    let mut sim = Pipeline::new(a.assemble(), baseline(36), SimConfig::test());
    let report = sim.run().expect("run");
    assert!(report.halted);
    assert!(
        report.rename_stall_cycles > 0,
        "a 4-register renaming headroom must stall the rename stage"
    );
}

// ---------------------------------------------------------------------
// Occupancy audit: per-bank occupancies sum to the allocated total.
// ---------------------------------------------------------------------

#[test]
fn occupancy_audit_passes_and_accessor_sums_match() {
    let mut cfg = SimConfig::test();
    cfg.audit_interval = 32;
    let mut sim = Pipeline::new(branchy_program(300), proposed(64), cfg);
    let report = sim.run().expect("audited run");
    assert!(report.halted);
    // Audits ran, and each one cross-checked sum(in_use_per_bank) ==
    // allocated_total (a mismatch fails the run with SimError::Invariant).
    assert!(sim.audits() > 0, "audit_interval must trigger audits");
    for class in RegClass::ALL {
        let per_bank = sim.renamer().in_use_per_bank(class);
        assert_eq!(
            per_bank.iter().sum::<usize>(),
            sim.renamer().allocated_total(class),
            "{class}: per-bank occupancy must sum to the allocated total"
        );
    }
}
