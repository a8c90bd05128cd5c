//! Fault-injection regression tests: every injected disturbance —
//! asynchronous interrupts, forced load/store faults, branch-prediction
//! flips, squash storms, and interrupts nested inside misprediction
//! recovery — must be architecturally transparent. Each run carries a
//! lockstep oracle and periodic invariant audits, so any corruption the
//! injection provokes fails loudly with a pipeline snapshot.

use regshare::harness::{experiment_config, renamer_for, swept_class, Scheme};
use regshare::sim::{InjectEvent, InjectKind, InjectSchedule, Pipeline, SimConfig};
use regshare::workloads::{all_kernels, Kernel};

const SCALE: u64 = 8_000;

fn kernel(name: &str) -> Kernel {
    all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"))
}

fn checked_config() -> SimConfig {
    let mut config = experiment_config(SCALE);
    config.check_oracle = true;
    config.audit_interval = 64;
    config
}

fn run_with_schedule(k: &Kernel, scheme: Scheme, schedule: InjectSchedule) -> Pipeline {
    let renamer = renamer_for(scheme, 64, swept_class(k.suite));
    let mut sim = Pipeline::new(k.program(SCALE), renamer, checked_config());
    sim.set_inject(schedule);
    sim.run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", k.name, scheme.label()));
    sim
}

fn single_event(kind: InjectKind, cycle: u64) -> InjectSchedule {
    InjectSchedule {
        events: vec![InjectEvent {
            cycle,
            kind,
            pick: 3,
        }],
        interrupts_on_mispredict: Vec::new(),
    }
}

/// The nested-recovery case the paper's shadow-cell design must survive:
/// an asynchronous interrupt delivered in the same cycle as a
/// branch-misprediction squash, mid-recovery. The lockstep oracle and
/// the end-of-run architectural diff must see no divergence.
#[test]
fn interrupt_during_mispredict_recovery_is_transparent() {
    for scheme in [Scheme::Baseline, Scheme::Proposed] {
        for name in ["hashjoin", "fft"] {
            let k = kernel(name);
            let schedule = InjectSchedule {
                events: Vec::new(),
                // Nest an interrupt into the 1st, 4th and 11th
                // misprediction recoveries of the run.
                interrupts_on_mispredict: vec![0, 3, 10],
            };
            let sim = run_with_schedule(&k, scheme, schedule);
            let stats = sim.inject_stats();
            assert!(
                stats.nested_interrupts >= 1,
                "{name} under {}: no misprediction coincided with an armed \
                 interrupt (stats {stats:?})",
                scheme.label()
            );
            assert_eq!(stats.interrupts, stats.nested_interrupts);
        }
    }
}

/// Pins the exact timing of nested recovery (interrupt delivered inside
/// a misprediction squash) so the unified recovery path can be
/// checked against the hand-rolled walks it replaced: same cycles, same
/// committed count, same delivered-event mix, to the cycle.
#[test]
fn nested_recovery_matches_pre_refactor_goldens() {
    // (kernel, scheme, cycles, committed, nested_interrupts) captured on
    // the monolithic pipeline before the stage split.
    let golden: [(&str, Scheme, u64, u64, u64); 4] = [
        ("hashjoin", Scheme::Baseline, 15771, 6166, 3),
        ("hashjoin", Scheme::Proposed, 14175, 6166, 3),
        ("fft", Scheme::Baseline, 5854, 8000, 3),
        ("fft", Scheme::Proposed, 5927, 8000, 3),
    ];
    let mut observed = Vec::new();
    for (name, scheme, ..) in golden {
        let k = kernel(name);
        let schedule = InjectSchedule {
            events: Vec::new(),
            interrupts_on_mispredict: vec![0, 3, 10],
        };
        let sim = run_with_schedule(&k, scheme, schedule);
        let report = sim.report();
        observed.push((
            name,
            scheme,
            report.cycles,
            report.committed_instructions,
            sim.inject_stats().nested_interrupts,
        ));
        println!(
            "(\"{name}\", Scheme::{scheme:?}, {}, {}, {}),",
            report.cycles,
            report.committed_instructions,
            sim.inject_stats().nested_interrupts
        );
    }
    assert_eq!(
        observed,
        golden.to_vec(),
        "nested recovery diverged from the pre-refactor goldens"
    );
}

#[test]
fn each_event_kind_is_delivered_and_transparent() {
    // saxpy loads and stores on every iteration, so a fault armed at any
    // point of the run finds a consumer.
    let k = kernel("saxpy");
    type Count = fn(&regshare::sim::InjectStats) -> u64;
    let cases: [(InjectKind, Count); 5] = [
        (InjectKind::Interrupt, |s| s.interrupts),
        (InjectKind::LoadFault, |s| s.load_faults),
        (InjectKind::StoreFault, |s| s.store_faults),
        (InjectKind::BranchFlip, |s| s.branch_flips),
        (InjectKind::SquashStorm, |s| s.squash_storms),
    ];
    for (kind, delivered) in cases {
        let sim = run_with_schedule(&k, Scheme::Proposed, single_event(kind, 500));
        let stats = sim.inject_stats();
        assert_eq!(
            delivered(&stats),
            1,
            "{kind:?} was not delivered: {stats:?}"
        );
        assert_eq!(stats.total(), 1);
    }
}

#[test]
fn forced_faults_are_counted_as_exceptions() {
    let k = kernel("saxpy");
    let sim = run_with_schedule(
        &k,
        Scheme::Proposed,
        single_event(InjectKind::LoadFault, 400),
    );
    assert_eq!(sim.inject_stats().load_faults, 1);
    assert!(
        sim.report().exceptions >= 1,
        "a forced load fault must take the precise-exception path"
    );
}

/// A miniature version of the `experiments inject` campaign: seeded
/// schedules across kernels and schemes, all of which must complete with
/// zero divergences and zero invariant violations.
#[test]
fn seeded_campaigns_run_clean() {
    let kernels = all_kernels();
    for i in 0..12usize {
        let k = &kernels[(i * 5) % kernels.len()];
        let scheme = [Scheme::Baseline, Scheme::Proposed][i % 2];
        let schedule = InjectSchedule::seeded(0xFEED + i as u64, SCALE);
        let sim = run_with_schedule(k, scheme, schedule);
        assert!(sim.audits() > 0, "audits must actually run");
    }
}
