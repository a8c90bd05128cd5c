//! Regression guards for the paper's headline *shapes*: if a change to
//! the renamer, simulator or kernels breaks one of the reproduced results
//! documented in EXPERIMENTS.md, these tests fail.

use regshare::core::{BankConfig, HintPolicy, RenamerConfig, ReuseRenamer};
use regshare::harness::{
    experiment_config, renamer_for, run_kernel, swept_class, Scheme, FIXED_RF,
};
use regshare::isa::RegClass;
use regshare::sim::Pipeline;
use regshare::stats::{geomean, mean};
use regshare::workloads::analysis::Dataflow;
use regshare::workloads::{suite_kernels, Suite};

const ANALYSIS_SCALE: u64 = 60_000;
const SIM_SCALE: u64 = 40_000;

fn suite_single_use(suite: Suite) -> f64 {
    let vals: Vec<f64> = suite_kernels(suite)
        .iter()
        .map(|k| {
            Dataflow::run(&k.program(ANALYSIS_SCALE), ANALYSIS_SCALE)
                .profile()
                .single_use_fraction()
        })
        .collect();
    mean(&vals)
}

#[test]
fn fig1_fp_suite_exceeds_paper_floor() {
    // Paper: > 50 % of SPECfp destination values are single-consumer.
    let fp = suite_single_use(Suite::Fp);
    assert!(fp > 0.5, "fp-like single-use fraction fell to {fp:.3}");
}

#[test]
fn fig1_int_suite_exceeds_paper_floor() {
    // Paper: > 30 % for SPECint.
    let int = suite_single_use(Suite::Int);
    assert!(int > 0.3, "int-like single-use fraction fell to {int:.3}");
}

#[test]
fn fig1_fp_dominates_int() {
    assert!(suite_single_use(Suite::Fp) > suite_single_use(Suite::Int));
}

#[test]
fn fig3_reuse_potential_is_monotone_and_front_loaded() {
    for k in suite_kernels(Suite::Fp) {
        let reuse = Dataflow::run(&k.program(ANALYSIS_SCALE), ANALYSIS_SCALE).reuse_potential(&[
            1,
            2,
            3,
            u64::MAX,
        ]);
        let (one, two, three, unlimited) = (reuse[0], reuse[1], reuse[2], reuse[3]);
        assert!(
            one <= two && two <= three && three <= unlimited,
            "{}",
            k.name
        );
        // The first reuse level contributes the majority of the total —
        // the paper's justification for a small version counter.
        assert!(
            one >= unlimited * 0.5,
            "{}: first level {one:.3} vs unlimited {unlimited:.3}",
            k.name
        );
    }
}

#[test]
fn fig10ec_equal_count_wins_at_small_files() {
    // The mechanism's benefit (equal register count) at the smallest
    // file must stay positive on average — EXPERIMENTS.md reports ~+5 %.
    let mut speedups = Vec::new();
    for suite in [Suite::Int, Suite::Media] {
        for k in suite_kernels(suite) {
            let base = run_kernel(&k, Scheme::Baseline, 48, SIM_SCALE);
            let swept = swept_class(k.suite);
            let swept_banks = BankConfig::new(vec![36, 4, 4, 4]);
            let fixed = BankConfig::conventional(FIXED_RF);
            let (int_banks, fp_banks) = match swept {
                RegClass::Int => (swept_banks, fixed),
                RegClass::Fp => (fixed, swept_banks),
            };
            let renamer = Box::new(ReuseRenamer::new(RenamerConfig {
                int_banks,
                fp_banks,
                counter_bits: 2,
                predictor_entries: 512,
                predictor_bits: 2,
                speculative_reuse: true,
                hint_policy: HintPolicy::DynamicOnly,
                threads: 1,
            }));
            let program = k.program(SIM_SCALE);
            let mut sim = Pipeline::new(program, renamer, experiment_config(SIM_SCALE));
            let prop = sim.run().expect("equal-count run");
            speedups.push(prop.ipc() / base.ipc());
        }
    }
    let g = geomean(&speedups);
    assert!(g > 1.0, "equal-count geomean at 48 regs fell to {g:.4}");
}

#[test]
fn fig10_gains_shrink_with_register_file_size() {
    // Equal-area speedups must converge toward 1.0 at the largest file.
    let kernels = suite_kernels(Suite::Media);
    let k = kernels
        .iter()
        .find(|k| k.name == "sad")
        .expect("sad exists");
    let small = {
        let b = run_kernel(k, Scheme::Baseline, 48, SIM_SCALE);
        let p = run_kernel(k, Scheme::Proposed, 48, SIM_SCALE);
        p.ipc() / b.ipc()
    };
    let large = {
        let b = run_kernel(k, Scheme::Baseline, 112, SIM_SCALE);
        let p = run_kernel(k, Scheme::Proposed, 112, SIM_SCALE);
        p.ipc() / b.ipc()
    };
    assert!(
        small > 1.1,
        "sad at 48 regs lost its equal-area win: {small:.3}"
    );
    assert!(
        (large - 1.0).abs() < 0.1,
        "speedup should vanish at 112 regs, got {large:.3}"
    );
    assert!(small > large);
}

#[test]
fn reuse_attains_most_of_its_oracle_ceiling() {
    // The renamer must reach a large fraction of the Fig. 3 potential at
    // an unconstrained register file.
    for k in suite_kernels(Suite::Fp) {
        let program = k.program(SIM_SCALE);
        let potential = Dataflow::run(&program, SIM_SCALE).reuse_potential(&[3])[0];
        if potential < 0.05 {
            continue;
        }
        let renamer = renamer_for(Scheme::Proposed, 96, swept_class(k.suite));
        let mut sim = Pipeline::new(program, renamer, experiment_config(SIM_SCALE));
        let report = sim.run().expect("run");
        let attained = report.rename.reuse_fraction();
        // The oracle has perfect future knowledge and unbounded shadow
        // banks; the hardware predictor with Table III banks attains a
        // kernel-dependent fraction of it (55–100 % for most kernels,
        // ~30 % for matmul whose many concurrent short chains exceed the
        // shadow banks). Guard against collapse, not against the oracle.
        assert!(
            attained > potential * 0.25,
            "{}: attained {attained:.3} of potential {potential:.3}",
            k.name
        );
    }
}

#[test]
fn table_iii_configs_always_cost_no_more_area() {
    use regshare::area::{baseline_area, proposed_area, RegFilePorts};
    let ports = RegFilePorts::default();
    for n in BankConfig::PAPER_SIZES {
        let banks = BankConfig::paper_row(n);
        assert!(
            proposed_area(&banks, ports, 64) <= baseline_area(n, ports, 64) * 1.0001,
            "Table III row {n} exceeds the baseline's area"
        );
    }
}
