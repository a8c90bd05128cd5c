//! Figure 1: fraction of single-consumer destinations, split by whether
//! the consumer redefines its source register.

use super::common::{pct, save, Args, ExpError};
use crate::stats::Table;
use crate::workloads::{all_kernels, analysis};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Fig1Row {
    kernel: String,
    suite: String,
    redefining_pct: f64,
    non_redefining_pct: f64,
    total_pct: f64,
    dest_pct: f64,
}

/// Runs the experiment and writes `fig1.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 1: single-consumer destinations (redefining vs not) ==");
    let mut table =
        Table::with_headers(&["kernel", "suite", "redef%", "other%", "total%", "dest%"]);
    table.numeric();
    let mut rows = Vec::new();
    let mut per_suite: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for k in all_kernels() {
        let p = analysis::analyze(&k.program(args.scale), args.scale);
        let redef = p.single_use_redefining_fraction();
        let total = p.single_use_fraction();
        table.row(vec![
            k.name.into(),
            k.suite.label().into(),
            pct(redef),
            pct(total - redef),
            pct(total),
            pct(p.dest_fraction()),
        ]);
        per_suite.entry(k.suite.label()).or_default().push(total);
        rows.push(Fig1Row {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            redefining_pct: redef * 100.0,
            non_redefining_pct: (total - redef) * 100.0,
            total_pct: total * 100.0,
            dest_pct: p.dest_fraction() * 100.0,
        });
    }
    for (suite, vals) in &per_suite {
        table.row(vec![
            "AVERAGE".into(),
            (*suite).into(),
            "-".into(),
            "-".into(),
            pct(crate::stats::mean(vals)),
            "-".into(),
        ]);
    }
    out!("{table}");
    save(&args.out_dir, "fig1", &rows)
}
