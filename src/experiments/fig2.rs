//! Figure 2: distribution of consumer counts per produced value.

use super::common::{pct, save, Args, ExpError};
use crate::stats::Table;
use crate::workloads::{analysis, suite_kernels, Suite};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Row {
    suite: String,
    one: f64,
    two: f64,
    three: f64,
    four: f64,
    five: f64,
    six_plus: f64,
    zero: f64,
}

/// Runs the experiment and writes `fig2.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 2: consumers per produced value ==");
    let mut table = Table::with_headers(&["suite", "1", "2", "3", "4", "5", "6+", "(0)"]);
    table.numeric();
    let mut rows = Vec::new();
    for suite in Suite::ALL {
        let mut hist = crate::stats::Histogram::new("consumers", 6);
        for k in suite_kernels(suite) {
            let p = analysis::analyze(&k.program(args.scale), args.scale);
            hist.merge(&p.consumers);
        }
        let f = |v: u64| hist.fraction(v);
        table.row(vec![
            suite.label().into(),
            pct(f(1)),
            pct(f(2)),
            pct(f(3)),
            pct(f(4)),
            pct(f(5)),
            pct(hist.overflow_fraction() + f(6)),
            pct(f(0)),
        ]);
        rows.push(Fig2Row {
            suite: suite.label().into(),
            one: f(1) * 100.0,
            two: f(2) * 100.0,
            three: f(3) * 100.0,
            four: f(4) * 100.0,
            five: f(5) * 100.0,
            six_plus: (hist.overflow_fraction() + f(6)) * 100.0,
            zero: f(0) * 100.0,
        });
    }
    out!("{table}");
    save(&args.out_dir, "fig2", &rows)
}
