//! Figure 3: reuse potential under bounded sharing-chain lengths.

use super::common::{pct, save, Args, ExpError};
use crate::stats::Table;
use crate::workloads::{all_kernels, analysis};
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Row {
    kernel: String,
    suite: String,
    one_reuse: f64,
    two_reuses: f64,
    three_reuses: f64,
    unlimited: f64,
}

/// Runs the experiment and writes `fig3.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 3: reuse potential for chain limits 1/2/3/unlimited ==");
    let mut table = Table::with_headers(&["kernel", "suite", "<=1", "<=2", "<=3", "unlimited"]);
    table.numeric();
    let mut rows = Vec::new();
    for k in all_kernels() {
        let p = k.program(args.scale);
        let vals: Vec<f64> = [1, 2, 3, u64::MAX]
            .iter()
            .map(|lim| analysis::reuse_potential(&p, args.scale, *lim))
            .collect();
        table.row(vec![
            k.name.into(),
            k.suite.label().into(),
            pct(vals[0]),
            pct(vals[1]),
            pct(vals[2]),
            pct(vals[3]),
        ]);
        rows.push(Fig3Row {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            one_reuse: vals[0] * 100.0,
            two_reuses: vals[1] * 100.0,
            three_reuses: vals[2] * 100.0,
            unlimited: vals[3] * 100.0,
        });
    }
    out!("{table}");
    save(&args.out_dir, "fig3", &rows)
}
