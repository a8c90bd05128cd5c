//! Figures 1–3, the paper's motivation: how many produced values have a
//! single consumer (Fig. 1), how many consumers values have (Fig. 2),
//! and how many destinations could reuse a register under bounded
//! sharing chains (Fig. 3). Each figure runs every kernel functionally
//! once, on the workers, and reads its trace's value replay.

use super::common::{pct, save, Args, ExpError};
use crate::harness::par_map;
use crate::stats::{Histogram, Table};
use crate::workloads::analysis::Dataflow;
use crate::workloads::{all_kernels, Kernel, Suite};
use serde::Serialize;
use std::collections::BTreeMap;

/// The sharing-chain limits Fig. 3 sweeps: 1, 2, 3 and unlimited.
const CHAIN_LIMITS: [u64; 4] = [1, 2, 3, u64::MAX];

/// Every kernel, in order, with `measure` applied to its dataflow over
/// the first `args.scale` instructions.
fn per_kernel<R: Send>(args: &Args, measure: impl Fn(&Dataflow) -> R + Sync) -> Vec<(Kernel, R)> {
    let kernels = all_kernels();
    let results = par_map(&kernels, |k| {
        measure(&Dataflow::run(&k.program(args.scale), args.scale))
    });
    kernels.into_iter().zip(results).collect()
}

#[derive(Serialize)]
struct Fig1Row {
    kernel: String,
    suite: String,
    redefining_pct: f64,
    non_redefining_pct: f64,
    total_pct: f64,
    dest_pct: f64,
}

/// Figure 1: fraction of single-consumer destinations, split by whether
/// the consumer redefines its source register. Writes `fig1.json`.
pub fn fig1(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 1: single-consumer destinations (redefining vs not) ==");
    let mut table =
        Table::with_headers(&["kernel", "suite", "redef%", "other%", "total%", "dest%"]);
    table.numeric();
    let mut rows = Vec::new();
    let mut per_suite: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (k, p) in per_kernel(args, Dataflow::profile) {
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

/// Figure 2: distribution of consumer counts per produced value, per
/// suite. Writes `fig2.json`.
pub fn fig2(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 2: consumers per produced value ==");
    let mut table = Table::with_headers(&["suite", "1", "2", "3", "4", "5", "6+", "(0)"]);
    table.numeric();
    let mut hists: Vec<Histogram> = Suite::ALL
        .iter()
        .map(|_| Histogram::new("consumers", 6))
        .collect();
    for (k, consumers) in per_kernel(args, |d| d.profile().consumers) {
        let suite = Suite::ALL.iter().position(|&s| s == k.suite);
        hists[suite.expect("every suite is listed")].merge(&consumers);
    }
    let mut rows = Vec::new();
    for (suite, hist) in Suite::ALL.iter().zip(&hists) {
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

#[derive(Serialize)]
struct Fig3Row {
    kernel: String,
    suite: String,
    one_reuse: f64,
    two_reuses: f64,
    three_reuses: f64,
    unlimited: f64,
}

/// Figure 3: reuse potential under bounded sharing-chain lengths.
/// Writes `fig3.json`.
pub fn fig3(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 3: reuse potential for chain limits 1/2/3/unlimited ==");
    let mut table = Table::with_headers(&["kernel", "suite", "<=1", "<=2", "<=3", "unlimited"]);
    table.numeric();
    let mut rows = Vec::new();
    for (k, vals) in per_kernel(args, |d| d.reuse_potential(&CHAIN_LIMITS)) {
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
