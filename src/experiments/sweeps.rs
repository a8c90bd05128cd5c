//! The shared IPC-sweep harness and the early-release comparator's
//! renamer configuration, used by the figure 10/10-EC/11 subcommands.

use super::common::{save, Args, ExpError, RF_SIZES};
use crate::core::{BankConfig, RenamerConfig};
use crate::harness::{
    equal_count_config, par_map, swept_class, with_swept_banks, RenamerKind, RunSpec, Scheme,
};
use crate::isa::RegClass;
use crate::stats::{geomean, Table};
use crate::workloads::{all_kernels, Kernel, Suite};
use serde::Serialize;

#[derive(Serialize)]
pub(crate) struct SpeedupRow {
    pub(crate) kernel: String,
    pub(crate) suite: String,
    pub(crate) rf_regs: usize,
    pub(crate) baseline_ipc: f64,
    pub(crate) proposed_ipc: f64,
    pub(crate) speedup: f64,
    pub(crate) reuse_pct: f64,
}

/// The Moudgill/Monreal-style early-release comparator's configuration
/// (related work, §VII; [`RenamerKind::EarlyRelease`]) at the same
/// register count as the baseline.
pub(crate) fn early_release_config(rf_regs: usize, swept: RegClass) -> RenamerConfig {
    let banks = BankConfig::conventional(rf_regs);
    with_swept_banks(RenamerConfig::baseline(rf_regs), swept, banks)
}

pub(crate) fn speedup_sweep(
    args: &Args,
    name: &str,
    title: &str,
    equal_count: bool,
) -> Result<(), ExpError> {
    println!("{title}");
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
    print!("{table}");
    save(&args.out_dir, name, &rows)
}
