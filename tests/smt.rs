//! SMT and width-scaling regressions.
//!
//! Two pins: the width goldens hold the single-thread simulator to the
//! exact cycle/instruction counts it produced before the pipeline was
//! threaded (width 4 is the pre-refactor default shape; widths 2 and 8
//! pin the width-generic latches), and the two-thread run must match
//! its ICOUNT golden and be bit-identical however many harness workers
//! replay it — thread interleaving inside the simulated core is
//! architectural state, not scheduling noise.

use regshare::core::{BaselineRenamer, Renamer, RenamerConfig, ReuseRenamer};
use regshare::harness::{experiment_config, par_map_with, renamer_for, swept_class, Scheme};
use regshare::sim::{Pipeline, SimReport};
use regshare::workloads::{all_kernels, Kernel};

const SCALE: u64 = 8_000;
const RF_REGS: usize = 64;

fn kernel(name: &str) -> Kernel {
    all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel named {name}"))
}

/// (kernel, scheme, width, cycles, committed instructions) at
/// `SCALE`/`RF_REGS`, captured on the single-threaded simulator before
/// the SMT refactor. Any drift here is a behavior change to the
/// single-thread pipeline, not an SMT feature.
const WIDTH_GOLDEN: [(&str, Scheme, usize, u64, u64); 36] = [
    ("saxpy", Scheme::Baseline, 2, 6492, 5336),
    ("saxpy", Scheme::Baseline, 4, 6489, 5336),
    ("saxpy", Scheme::Baseline, 8, 6488, 5336),
    ("saxpy", Scheme::Proposed, 2, 6492, 5336),
    ("saxpy", Scheme::Proposed, 4, 6489, 5336),
    ("saxpy", Scheme::Proposed, 8, 6488, 5336),
    ("dct", Scheme::Baseline, 2, 10389, 7591),
    ("dct", Scheme::Baseline, 4, 10386, 7591),
    ("dct", Scheme::Baseline, 8, 10385, 7591),
    ("dct", Scheme::Proposed, 2, 10389, 7591),
    ("dct", Scheme::Proposed, 4, 10386, 7591),
    ("dct", Scheme::Proposed, 8, 10385, 7591),
    ("matmul", Scheme::Baseline, 2, 7174, 6984),
    ("matmul", Scheme::Baseline, 4, 8132, 6984),
    ("matmul", Scheme::Baseline, 8, 7548, 6984),
    ("matmul", Scheme::Proposed, 2, 7174, 6984),
    ("matmul", Scheme::Proposed, 4, 8132, 6984),
    ("matmul", Scheme::Proposed, 8, 7548, 6984),
    ("fft", Scheme::Baseline, 2, 6909, 8000),
    ("fft", Scheme::Baseline, 4, 5245, 8002),
    ("fft", Scheme::Baseline, 8, 5116, 8003),
    ("fft", Scheme::Proposed, 2, 6920, 8000),
    ("fft", Scheme::Proposed, 4, 5368, 8002),
    ("fft", Scheme::Proposed, 8, 5222, 8003),
    ("sort", Scheme::Baseline, 2, 7552, 6446),
    ("sort", Scheme::Baseline, 4, 5673, 6446),
    ("sort", Scheme::Baseline, 8, 4845, 6446),
    ("sort", Scheme::Proposed, 2, 7312, 6446),
    ("sort", Scheme::Proposed, 4, 5791, 6446),
    ("sort", Scheme::Proposed, 8, 6929, 6446),
    ("hashjoin", Scheme::Baseline, 2, 14081, 6166),
    ("hashjoin", Scheme::Baseline, 4, 18016, 6166),
    ("hashjoin", Scheme::Baseline, 8, 14961, 6166),
    ("hashjoin", Scheme::Proposed, 2, 16860, 6166),
    ("hashjoin", Scheme::Proposed, 4, 18273, 6166),
    ("hashjoin", Scheme::Proposed, 8, 16062, 6166),
];

fn run_width(name: &str, scheme: Scheme, width: usize) -> SimReport {
    let k = kernel(name);
    let renamer = renamer_for(scheme, RF_REGS, swept_class(k.suite));
    let cfg = experiment_config(SCALE).with_width(width);
    let mut sim = Pipeline::new(k.program(SCALE), renamer, cfg);
    sim.run()
        .unwrap_or_else(|e| panic!("{name} {} w{width}: {e}", scheme.label()))
}

/// Widths 2/4/8 reproduce the pre-refactor single-thread goldens
/// exactly; a single-thread pipeline through the threaded code paths is
/// the same machine.
#[test]
fn width_goldens_are_stable() {
    let mismatches: Vec<String> = WIDTH_GOLDEN
        .iter()
        .filter_map(|&(name, scheme, width, cycles, committed)| {
            let r = run_width(name, scheme, width);
            (r.cycles != cycles || r.committed_instructions != committed).then(|| {
                format!(
                    "{name} {} w{width}: got {}c/{}i, want {cycles}c/{committed}i",
                    scheme.label(),
                    r.cycles,
                    r.committed_instructions
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "width goldens drifted:\n{mismatches:#?}"
    );
}

fn two_thread_icount_report() -> SimReport {
    let programs = vec![kernel("saxpy").program(SCALE), kernel("fft").program(SCALE)];
    let renamer: Box<dyn Renamer> = Box::new(BaselineRenamer::new(
        RenamerConfig::baseline(96).with_threads(2),
    ));
    let cfg = experiment_config(SCALE * 2).with_threads(2);
    let mut sim = Pipeline::new_smt(programs, renamer, cfg).expect("valid smt config");
    sim.run().expect("2-thread icount run")
}

/// The two-thread saxpy+fft run fetches by ICOUNT: its cycle count
/// and per-thread commits are the ICOUNT golden (round-robin fetch
/// takes 8991 cycles on the same run). Replayed under 1, 2 and 8
/// harness workers it must be bit-identical: all cross-thread
/// arbitration (fetch pick, shared-width rotation, free-list order) is
/// a pure function of the simulated cycle.
#[test]
fn two_thread_icount_is_deterministic_across_worker_counts() {
    let reference = two_thread_icount_report();
    assert_eq!(reference.threads, 2);
    assert_eq!(reference.cycles, 8950, "2-thread ICOUNT golden cycles");
    assert_eq!(
        reference.per_thread_committed,
        [5336, 9287],
        "2-thread ICOUNT golden per-thread commits"
    );
    for workers in [1usize, 2, 8] {
        let runs = par_map_with(&[(); 4], Some(workers), |_| two_thread_icount_report());
        for r in runs {
            assert_eq!(
                (
                    r.cycles,
                    r.committed_instructions,
                    r.per_thread_committed.clone()
                ),
                (
                    reference.cycles,
                    reference.committed_instructions,
                    reference.per_thread_committed.clone()
                ),
                "2-thread ICOUNT diverged under {workers} workers"
            );
        }
    }
}

/// The proposed renamer's sharing machinery runs under SMT too: a
/// two-thread run over shared banks commits both programs and reports
/// a nonzero single-use reuse fraction.
#[test]
fn two_thread_reuse_renamer_shares_registers() {
    let programs = vec![kernel("saxpy").program(SCALE), kernel("dct").program(SCALE)];
    let banks = regshare::core::BankConfig::new(vec![72, 8, 8, 8]);
    let config = RenamerConfig {
        int_banks: banks.clone(),
        fp_banks: banks,
        ..RenamerConfig::baseline(96)
    }
    .with_threads(2);
    let renamer: Box<dyn Renamer> = Box::new(ReuseRenamer::new(config));
    let cfg = experiment_config(SCALE * 2).with_threads(2);
    let mut sim = Pipeline::new_smt(programs, renamer, cfg).expect("valid smt config");
    let report = sim.run().expect("2-thread reuse run");
    assert!(report.per_thread_committed.iter().all(|&c| c > 0));
    assert!(
        report.rename.reuse_fraction() > 0.0,
        "sharing never fired under SMT"
    );
}
