//! Figure 12: register type predictor accuracy per suite.

use super::common::{pct, save, Args, ExpError};
use crate::harness::{par_map, RunSpec, Scheme};
use crate::stats::Table;
use crate::workloads::{suite_kernels, Suite};
use serde::Serialize;

#[derive(Serialize)]
struct Fig12Row {
    suite: String,
    reuse_correct_pct: f64,
    reuse_incorrect_pct: f64,
    noreuse_correct_pct: f64,
    noreuse_incorrect_pct: f64,
    accuracy_pct: f64,
}

/// Runs the predictor sweep and writes `fig12.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    println!("== Figure 12: register type predictor accuracy (at 64 regs) ==");
    let mut table = Table::with_headers(&[
        "suite",
        "reuse-correct",
        "reuse-incorrect",
        "noreuse-correct",
        "noreuse-incorrect",
        "accuracy",
    ]);
    table.numeric();
    let mut rows = Vec::new();
    for suite in Suite::ALL {
        let mut agg = crate::core::PredictorStats::default();
        let kernels = suite_kernels(suite);
        let stats = par_map(&kernels, |k| {
            args.report(&RunSpec::scheme(*k, Scheme::Proposed, 64, args.scale))
                .predictor
        });
        for rep in stats {
            agg.reuse_correct += rep.reuse_correct;
            agg.reuse_incorrect += rep.reuse_incorrect;
            agg.noreuse_correct += rep.noreuse_correct;
            agg.noreuse_incorrect += rep.noreuse_incorrect;
        }
        let t = agg.total().max(1) as f64;
        table.row(vec![
            suite.label().into(),
            pct(agg.reuse_correct as f64 / t),
            pct(agg.reuse_incorrect as f64 / t),
            pct(agg.noreuse_correct as f64 / t),
            pct(agg.noreuse_incorrect as f64 / t),
            pct(agg.accuracy()),
        ]);
        rows.push(Fig12Row {
            suite: suite.label().into(),
            reuse_correct_pct: agg.reuse_correct as f64 / t * 100.0,
            reuse_incorrect_pct: agg.reuse_incorrect as f64 / t * 100.0,
            noreuse_correct_pct: agg.noreuse_correct as f64 / t * 100.0,
            noreuse_incorrect_pct: agg.noreuse_incorrect as f64 / t * 100.0,
            accuracy_pct: agg.accuracy() * 100.0,
        });
    }
    print!("{table}");
    save(&args.out_dir, "fig12", &rows)
}
