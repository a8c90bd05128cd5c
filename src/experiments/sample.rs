//! Sampled per-kernel IPC through the two-speed engine: one sequential
//! functional-warming pass per kernel feeds periodic detailed windows,
//! both schemes measured from the *same* checkpoint after one shared
//! functional lead. Kernels are spread across worker threads, each
//! kernel's windows running inline on the worker that warms it. Reports
//! mean IPC with a 95% confidence interval — the mode that scales to
//! 10⁹-instruction runs.

use super::common::{save, Args, ExpError};
use crate::harness::{par_map_with, run_kernel_sampled, Scheme};
use crate::sim::SampledConfig;
use crate::stats::Table;
use crate::workloads::all_kernels;
use serde::Serialize;

/// Swept-file size used for the sampled comparison (the paper's
/// headline 64-register point).
const RF_REGS: usize = 64;

/// The schemes each window measures, in row order.
const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::Proposed];

#[derive(Serialize)]
struct SampleRow {
    kernel: String,
    suite: String,
    scheme: String,
    rf_regs: usize,
    scale: u64,
    period: u64,
    warmup: u64,
    measure: u64,
    windows: usize,
    ipc_mean: f64,
    ipc_ci95_half_width: f64,
    warm_instructions: u64,
    detailed_instructions: u64,
}

/// Runs the experiment and writes `sampled.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let scale = args.scale;
    let plan = args
        .sample_plan(scale)
        .unwrap_or_else(|e| panic!("sample plan: {e}"));
    outln!(
        "== Sampled IPC (two-speed engine): {} instructions, window {}+{} every {} ==",
        scale,
        plan.warmup,
        plan.measure,
        plan.period
    );
    let mut table = Table::with_headers(&[
        "kernel", "suite", "windows", "base IPC", "±95%", "prop IPC", "±95%", "speedup",
    ]);
    table.numeric();
    // Each kernel's windows run on the worker warming it, as soon as
    // their checkpoints are taken, so a worker holds one checkpoint at a
    // time.
    let sample = SampledConfig::new(plan);
    let kernels = all_kernels();
    let sampled = par_map_with(&kernels, args.workers, |k| {
        run_kernel_sampled(k, SCHEMES, RF_REGS, scale, &sample)
    });
    let mut rows = Vec::new();
    for (k, reports) in kernels.iter().zip(sampled) {
        let [base, prop] = &reports;
        let speedup = if base.ipc_mean() > 0.0 {
            prop.ipc_mean() / base.ipc_mean()
        } else {
            0.0
        };
        table.row(vec![
            k.name.into(),
            k.suite.label().into(),
            prop.windows.len().to_string(),
            format!("{:.3}", base.ipc_mean()),
            format!("{:.3}", base.ipc_ci95()),
            format!("{:.3}", prop.ipc_mean()),
            format!("{:.3}", prop.ipc_ci95()),
            format!("{:.3}", speedup),
        ]);
        for (scheme, report) in SCHEMES.iter().zip(&reports) {
            rows.push(SampleRow {
                kernel: k.name.into(),
                suite: k.suite.label().into(),
                scheme: scheme.label().into(),
                rf_regs: RF_REGS,
                scale,
                period: plan.period,
                warmup: plan.warmup,
                measure: plan.measure,
                windows: report.windows.len(),
                ipc_mean: report.ipc_mean(),
                ipc_ci95_half_width: report.ipc_ci95(),
                warm_instructions: report.warm_instructions,
                detailed_instructions: report.detailed_instructions,
            });
        }
    }
    out!("{table}");
    save(&args.out_dir, "sampled", &rows)
}
