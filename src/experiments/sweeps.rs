//! Figures 10 and 10-EC, two speedup sweeps over one harness.

use super::common::{save, Args, ExpError, RF_SIZES};
use crate::harness::{equal_count_config, par_map, swept_class, RenamerKind, RunSpec, Scheme};
use crate::stats::{geomean, Table};
use crate::workloads::{all_kernels, Kernel, Suite};
use serde::Serialize;

#[derive(Serialize)]
struct SpeedupRow {
    kernel: String,
    suite: String,
    rf_regs: usize,
    baseline_ipc: f64,
    proposed_ipc: f64,
    speedup: f64,
    reuse_pct: f64,
}

/// Figure 10: equal-area speedup over the baseline across register-file
/// sizes. Writes `fig10.json`.
pub fn fig10(args: &Args) -> Result<(), ExpError> {
    speedup_sweep(
        args,
        "fig10",
        "== Figure 10: equal-area speedup vs baseline, per register file size ==",
        false,
    )
}

/// Figure 10-EC (extension): equal-register-count speedup over the
/// baseline across register-file sizes. Writes `fig10ec.json`.
pub fn fig10ec(args: &Args) -> Result<(), ExpError> {
    speedup_sweep(
        args,
        "fig10ec",
        "== Figure 10-EC (extension): equal-register-count speedup vs baseline ==",
        true,
    )
}

fn speedup_sweep(args: &Args, name: &str, title: &str, equal_count: bool) -> Result<(), ExpError> {
    outln!("{title}");
    // Every (kernel, size) point is independent; fan out across cores
    // and collect rows back in sweep order.
    let points: Vec<(Kernel, usize)> = all_kernels()
        .into_iter()
        .flat_map(|k| RF_SIZES.into_iter().map(move |rf| (k, rf)))
        .collect();
    let rows: Vec<SpeedupRow> = par_map(&points, |&(ref k, rf)| {
        let base = args.report(&RunSpec::scheme(*k, Scheme::Baseline, rf, args.scale));
        let prop = if equal_count {
            let config = equal_count_config(rf, swept_class(k.suite));
            RunSpec::new(*k, RenamerKind::Reuse, config, args.scale)
        } else {
            RunSpec::scheme(*k, Scheme::Proposed, rf, args.scale)
        };
        let prop = args.report(&prop);
        SpeedupRow {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            rf_regs: rf,
            baseline_ipc: base.ipc(),
            proposed_ipc: prop.ipc(),
            speedup: prop.ipc() / base.ipc(),
            reuse_pct: prop.rename.reuse_fraction() * 100.0,
        }
    });
    // Per-kernel table.
    let mut headers: Vec<String> = vec!["kernel".into(), "suite".into()];
    headers.extend(RF_SIZES.iter().map(|n| n.to_string()));
    let mut table = Table::new(headers);
    table.numeric();
    for k in all_kernels() {
        let mut cells = vec![k.name.to_string(), k.suite.label().to_string()];
        for rf in RF_SIZES {
            let r = rows
                .iter()
                .find(|r| r.kernel == k.name && r.rf_regs == rf)
                .expect("row exists");
            cells.push(format!("{:.3}", r.speedup));
        }
        table.row(cells);
    }
    // Per-suite geomeans.
    for suite in Suite::ALL {
        let mut cells = vec!["GEOMEAN".to_string(), suite.label().to_string()];
        for rf in RF_SIZES {
            let vals: Vec<f64> = rows
                .iter()
                .filter(|r| r.suite == suite.label() && r.rf_regs == rf)
                .map(|r| r.speedup)
                .collect();
            cells.push(format!("{:.3}", geomean(&vals)));
        }
        table.row(cells);
    }
    let mut cells = vec!["GEOMEAN".to_string(), "ALL".to_string()];
    for rf in RF_SIZES {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.rf_regs == rf)
            .map(|r| r.speedup)
            .collect();
        cells.push(format!("{:.3}", geomean(&vals)));
    }
    table.row(cells);
    out!("{table}");
    save(&args.out_dir, name, &rows)
}
