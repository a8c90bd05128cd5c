//! Figure 11: average IPC versus register-file size for the baseline,
//! both proposed configurations, and the early-release comparator.

use super::common::{save, Args, ExpError, RF_SIZES};
use crate::harness::{equal_count_config, par_map, swept_class, RenamerKind, RunSpec, Scheme};
use crate::stats::Table;
use crate::workloads::all_kernels;
use serde::Serialize;

#[derive(Serialize)]
struct Fig11Row {
    rf_regs: usize,
    baseline_ipc: f64,
    proposed_equal_area_ipc: f64,
    proposed_equal_count_ipc: f64,
    early_release_ipc: f64,
}

/// Runs the four-scheme sweep and writes `fig11.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    println!("== Figure 11: average IPC vs register file size ==");
    let kernels = all_kernels();
    let points: Vec<(usize, crate::workloads::Kernel)> = RF_SIZES
        .into_iter()
        .flat_map(|rf| kernels.iter().map(move |k| (rf, *k)))
        .collect();
    // One point = all four schemes on one (size, kernel) pair; par_map
    // keeps sweep order, so the per-size averages see the kernels in the
    // same order (identical floating-point sums) as the serial loop.
    let ipcs = par_map(&points, |&(rf, ref k)| {
        let swept = swept_class(k.suite);
        let ipc = |spec: RunSpec| args.report(&spec).ipc();
        let equal_count = equal_count_config(rf, swept);
        // Early release renames conventionally: the baseline's point
        // under the early-release renamer.
        let baseline = RunSpec::scheme(*k, Scheme::Baseline, rf, args.scale);
        let early_release = RunSpec {
            renamer: RenamerKind::EarlyRelease,
            ..baseline.clone()
        };
        (
            ipc(baseline),
            ipc(RunSpec::scheme(*k, Scheme::Proposed, rf, args.scale)),
            ipc(RunSpec::new(
                *k,
                RenamerKind::Reuse,
                equal_count,
                args.scale,
            )),
            ipc(early_release),
        )
    });
    let mut rows = Vec::new();
    for (i, rf) in RF_SIZES.into_iter().enumerate() {
        let chunk = &ipcs[i * kernels.len()..(i + 1) * kernels.len()];
        let col =
            |sel: fn(&(f64, f64, f64, f64)) -> f64| -> Vec<f64> { chunk.iter().map(sel).collect() };
        rows.push(Fig11Row {
            rf_regs: rf,
            baseline_ipc: crate::stats::mean(&col(|t| t.0)),
            proposed_equal_area_ipc: crate::stats::mean(&col(|t| t.1)),
            proposed_equal_count_ipc: crate::stats::mean(&col(|t| t.2)),
            early_release_ipc: crate::stats::mean(&col(|t| t.3)),
        });
    }
    let mut table = Table::with_headers(&[
        "regs",
        "baseline IPC",
        "proposed (equal area)",
        "proposed (equal count)",
        "early release (§VII)",
    ]);
    table.numeric();
    for r in &rows {
        table.row(vec![
            r.rf_regs.to_string(),
            format!("{:.4}", r.baseline_ipc),
            format!("{:.4}", r.proposed_equal_area_ipc),
            format!("{:.4}", r.proposed_equal_count_ipc),
            format!("{:.4}", r.early_release_ipc),
        ]);
    }
    print!("{table}");
    // Register-savings estimate: for each baseline size, the smallest
    // proposed equal-count configuration that matches its IPC.
    for target in &rows {
        for r in &rows {
            if r.rf_regs < target.rf_regs
                && r.proposed_equal_count_ipc >= target.baseline_ipc * 0.999
            {
                println!(
                    "proposed scheme matches baseline-{} IPC with {} registers ({:.1}% fewer)",
                    target.rf_regs,
                    r.rf_regs,
                    (1.0 - r.rf_regs as f64 / target.rf_regs as f64) * 100.0
                );
                break;
            }
        }
    }
    save(&args.out_dir, "fig11", &rows)
}
