//! Invariant-auditor self-tests: seed deliberately corrupted renamer
//! states into a live pipeline and check that the periodic audit catches
//! each one with the right diagnostic — the auditor guards the guards.

use regshare::core::{CorruptKind, RenamerConfig, ReuseRenamer};
use regshare::harness::{experiment_config, renamer_for, swept_class, Scheme};
use regshare::sim::{Pipeline, SimError};
use regshare::workloads::{all_kernels, Kernel};

const SCALE: u64 = 4_000;

fn kernel(name: &str) -> Kernel {
    all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"))
}

/// Each kind of seeded corruption — a leaked physical register, a stale
/// version tag in the map table, a mapping refcount off by one, a
/// speculation grant above a register's current version — must be
/// detected by the first audit, with a diagnostic naming the violated
/// invariant and a pipeline snapshot attached.
#[test]
fn each_corruption_kind_stops_the_run_with_a_diagnostic() {
    let cases = [
        (CorruptKind::LeakPreg, "leak"),
        (CorruptKind::StaleVersionTag, "stale version"),
        (CorruptKind::RefcountOffByOne, "mapping count"),
        (CorruptKind::SpecGrantAboveVersion, "speculation grant"),
    ];
    let k = kernel("saxpy");
    for (kind, needle) in cases {
        let mut renamer = ReuseRenamer::new(RenamerConfig::paper(64));
        renamer.corrupt(kind);
        let mut cfg = experiment_config(SCALE);
        cfg.audit_interval = 1;
        let mut sim = Pipeline::new(k.program(SCALE), Box::new(renamer), cfg);
        match sim.run() {
            Err(SimError::Invariant { what, snapshot, .. }) => {
                assert!(
                    what.contains(needle),
                    "{kind:?}: diagnostic {what:?} does not mention {needle:?}"
                );
                assert!(
                    what.starts_with("renamer audit:"),
                    "{kind:?}: violation must be attributed to the renamer audit, got {what:?}"
                );
                let dump = format!("{snapshot}");
                assert!(
                    dump.contains("pipeline snapshot"),
                    "snapshot missing: {dump}"
                );
            }
            other => panic!("{kind:?}: expected an invariant violation, got {other:?}"),
        }
    }
}

/// With no seeded corruption the audits must pass continuously on both
/// schemes, across kernels with exceptions and heavy misprediction —
/// the auditor must not false-positive on legal transient states.
#[test]
fn healthy_runs_audit_clean_every_cycle() {
    for scheme in [Scheme::Baseline, Scheme::Proposed] {
        for name in ["saxpy", "hashjoin", "sort"] {
            let k = kernel(name);
            let mut cfg = experiment_config(SCALE);
            cfg.audit_interval = 1;
            let renamer = renamer_for(scheme, 64, swept_class(k.suite));
            let mut sim = Pipeline::new(k.program(SCALE), renamer, cfg);
            sim.run()
                .unwrap_or_else(|e| panic!("{name} under {} audited dirty: {e}", scheme.label()));
            assert!(sim.audits() > 100, "audits ran every cycle");
        }
    }
}

/// A physical register aliased into a second thread's map table must be
/// caught by the first audit as a cross-thread ownership leak: under
/// SMT the free lists and PRT are shared, but every mapped register
/// belongs to exactly one hardware thread.
#[test]
fn cross_thread_leak_is_caught_under_smt() {
    let banks = regshare::core::BankConfig::new(vec![72, 8, 8, 8]);
    let config = RenamerConfig {
        int_banks: banks.clone(),
        fp_banks: banks,
        ..RenamerConfig::paper(96)
    }
    .with_threads(2);
    let mut renamer = ReuseRenamer::new(config);
    renamer.corrupt(CorruptKind::CrossThreadLeak);
    let mut cfg = experiment_config(SCALE * 2).with_threads(2);
    cfg.audit_interval = 1;
    let programs = vec![kernel("saxpy").program(SCALE), kernel("dct").program(SCALE)];
    let mut sim = Pipeline::new_smt(programs, Box::new(renamer), cfg).expect("valid smt config");
    match sim.run() {
        Err(SimError::Invariant { what, .. }) => {
            assert!(
                what.contains("cross-thread register leak"),
                "diagnostic {what:?} does not name the cross-thread leak"
            );
            assert!(
                what.starts_with("renamer audit:"),
                "violation must be attributed to the renamer audit, got {what:?}"
            );
        }
        other => panic!("expected an invariant violation, got {other:?}"),
    }
}

/// Healthy two-thread runs audit clean every cycle under both renamers:
/// the per-thread map-consistency and partitioned-ROB-occupancy checks
/// must not false-positive on legal SMT interleavings.
#[test]
fn healthy_two_thread_runs_audit_clean_every_cycle() {
    use regshare::core::{BaselineRenamer, Renamer};
    let banks = regshare::core::BankConfig::new(vec![72, 8, 8, 8]);
    let renamers: Vec<(&str, Box<dyn Renamer>)> = vec![
        (
            "baseline",
            Box::new(BaselineRenamer::new(
                RenamerConfig::baseline(96).with_threads(2),
            )),
        ),
        (
            "proposed",
            Box::new(ReuseRenamer::new(
                RenamerConfig {
                    int_banks: banks.clone(),
                    fp_banks: banks,
                    ..RenamerConfig::paper(96)
                }
                .with_threads(2),
            )),
        ),
    ];
    for (label, renamer) in renamers {
        let mut cfg = experiment_config(SCALE * 2).with_threads(2);
        cfg.audit_interval = 1;
        let programs = vec![
            kernel("hashjoin").program(SCALE),
            kernel("fft").program(SCALE),
        ];
        let mut sim = Pipeline::new_smt(programs, renamer, cfg).expect("valid smt config");
        sim.run()
            .unwrap_or_else(|e| panic!("2-thread {label} audited dirty: {e}"));
        assert!(sim.audits() > 100, "audits ran every cycle");
    }
}
