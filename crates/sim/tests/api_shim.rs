//! Compile-time shim for the public API surface the stage refactor must
//! keep stable: the `Pipeline` entry points the workspace-level tests
//! (`tests/determinism.rs`, `tests/inject.rs`, `tests/auditor.rs`) and
//! the experiment harness link against, plus the re-exported types.
//! Renaming or re-typing any of these breaks this test at compile time.

use regshare_core::{BaselineRenamer, Renamer, RenamerConfig};
use regshare_isa::{reg, Asm};
use regshare_sim::{
    HeadSnapshot, InjectSchedule, InjectStats, Pipeline, PipelineSnapshot, SimConfig, SimError,
    SimReport, TraceEvent, TraceStage,
};

#[test]
fn pipeline_public_api_is_stable() {
    let mut a = Asm::new();
    a.li(reg::x(1), 1);
    a.addi(reg::x(2), reg::x(1), 1);
    a.halt();
    let renamer: Box<dyn Renamer> = Box::new(BaselineRenamer::new(RenamerConfig::baseline(64)));
    let mut cfg = SimConfig::test();
    cfg.trace = true;
    cfg.audit_interval = 16;

    // Every method below is part of the stability contract.
    let mut sim = Pipeline::new(a.assemble(), renamer, cfg);
    sim.set_inject(InjectSchedule::seeded(1, 1_000));
    let report: Result<SimReport, SimError> = sim.run();
    let report = report.expect("tiny program runs clean");
    assert!(report.halted);
    let snap: PipelineSnapshot = sim.snapshot();
    let _head: &Option<HeadSnapshot> = &snap.head;
    let trace: Vec<TraceEvent> = sim.take_trace();
    assert!(trace.iter().any(|e| e.stage == TraceStage::Commit));
    let again: SimReport = sim.report();
    assert_eq!(again.committed_instructions, report.committed_instructions);
    let stats: InjectStats = sim.inject_stats();
    let _total: u64 = stats.total();
    let _audits: u64 = sim.audits();
    let _cycle: u64 = sim.cycle();
    let _renamer: &dyn Renamer = sim.renamer();
}
