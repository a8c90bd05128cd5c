//! Static oracle: per-kernel static sharing bounds cross-checked against
//! the dynamic measurement.

use super::common::{ratio_pct, save, Args, ExpError};
use crate::harness::{par_map, RunSpec, Scheme};
use crate::stats::Table;
use crate::workloads::all_kernels;
use serde::Serialize;

#[derive(Serialize)]
struct StaticOracleRow {
    kernel: String,
    suite: String,
    lint_diagnostics: usize,
    static_sites: usize,
    dead_sites: usize,
    single_safe_sites: usize,
    single_needs_predictor_sites: usize,
    unknown_sites: usize,
    multi_consumer_sites: usize,
    static_guaranteed_single_pct: f64,
    static_possibly_single_pct: f64,
    weighted_lower_bound_pct: f64,
    weighted_upper_bound_pct: f64,
    dynamic_single_use_pct: f64,
    dynamic_single_use_redefining_pct: f64,
    trace_complete: bool,
    oracle_violations: usize,
    predictor_accuracy_pct: f64,
    predictor_reuse_correct: u64,
    predictor_reuse_incorrect: u64,
    predictor_noreuse_correct: u64,
    predictor_noreuse_incorrect: u64,
}

/// Runs the static/dynamic cross-check and writes `static_oracle.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    use crate::analyze::{classify, lint_program, oracle_check, Cfg, SiteClass};
    println!("== Static oracle: per-kernel static sharing bounds vs dynamic measurement ==");
    // Kernels halt at a loop boundary, so the functional budget must be
    // comfortably above the sizing scale for complete traces (the
    // soundness cross-checks need them).
    let budget = args.scale.saturating_mul(64);
    let kernels = all_kernels();
    let rows: Vec<StaticOracleRow> = par_map(&kernels, |k| {
        let program = k.program(args.scale);
        let diags = lint_program(&program);
        let cfg = Cfg::build(program.insts(), program.entry());
        let c = classify(&cfg, program.insts());
        let report = oracle_check(&program, budget)
            .unwrap_or_else(|e| panic!("{}: oracle run failed: {e}", k.name));
        let predictor = args
            .report(&RunSpec::scheme(*k, Scheme::Proposed, 64, args.scale))
            .predictor;
        let sites = c.len().max(1) as f64;
        StaticOracleRow {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            lint_diagnostics: diags.len(),
            static_sites: c.len(),
            dead_sites: c.count(SiteClass::Dead),
            single_safe_sites: c.count(SiteClass::SingleSafeReuse),
            single_needs_predictor_sites: c.count(SiteClass::SingleNeedsPredictor),
            unknown_sites: c.count(SiteClass::Unknown),
            multi_consumer_sites: c.count(SiteClass::MultiConsumer),
            static_guaranteed_single_pct: c.guaranteed_single() as f64 / sites * 100.0,
            static_possibly_single_pct: c.possibly_single() as f64 / sites * 100.0,
            weighted_lower_bound_pct: report.lower_bound_fraction() * 100.0,
            weighted_upper_bound_pct: report.upper_bound_fraction() * 100.0,
            dynamic_single_use_pct: report.single_use_fraction() * 100.0,
            dynamic_single_use_redefining_pct: ratio_pct(
                report.single_use_redefining_instances,
                report.def_instances,
            ),
            trace_complete: report.trace_complete,
            oracle_violations: report.violations.len(),
            predictor_accuracy_pct: predictor.accuracy() * 100.0,
            predictor_reuse_correct: predictor.reuse_correct,
            predictor_reuse_incorrect: predictor.reuse_incorrect,
            predictor_noreuse_correct: predictor.noreuse_correct,
            predictor_noreuse_incorrect: predictor.noreuse_incorrect,
        }
    });
    let mut table = Table::with_headers(&[
        "kernel",
        "suite",
        "lint",
        "sites",
        "lower%",
        "dyn-single%",
        "upper%",
        "pred-acc%",
    ]);
    table.numeric();
    for r in &rows {
        table.row(vec![
            r.kernel.clone(),
            r.suite.clone(),
            r.lint_diagnostics.to_string(),
            r.static_sites.to_string(),
            format!("{:.1}", r.weighted_lower_bound_pct),
            format!("{:.1}", r.dynamic_single_use_pct),
            format!("{:.1}", r.weighted_upper_bound_pct),
            format!("{:.1}", r.predictor_accuracy_pct),
        ]);
    }
    print!("{table}");
    for r in &rows {
        assert!(
            r.weighted_upper_bound_pct + 1e-9 >= r.dynamic_single_use_pct
                && r.weighted_lower_bound_pct <= r.dynamic_single_use_pct + 1e-9,
            "{}: static bounds do not bracket the dynamic single-use fraction",
            r.kernel
        );
        assert_eq!(
            r.oracle_violations, 0,
            "{}: static/dynamic disagreement",
            r.kernel
        );
    }
    println!(
        "static bounds bracket the dynamic single-use fraction on all {} kernels",
        rows.len()
    );
    save(&args.out_dir, "static_oracle", &rows)
}
