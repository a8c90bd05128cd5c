//! Sampled per-kernel IPC through the two-speed engine: one sequential
//! functional-warming pass per kernel feeds periodic detailed windows,
//! both schemes measured from the *same* checkpoint after one shared
//! functional lead. Kernels are spread across worker threads, each
//! kernel's windows running inline on the worker that warms it. Reports
//! mean IPC with a 95% confidence interval — the mode that scales to
//! 10⁹-instruction runs.

use super::common::{save, Args, ExpError};
use crate::harness::{
    experiment_config, par_map_with, renamer_config_for, renamer_for, swept_class, Scheme,
};
use crate::sim::{run_window_schemes, sample_windows, SampledConfig, SampledReport, WindowResult};
use crate::stats::{Table, Welford};
use crate::workloads::{all_kernels, Kernel};
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

fn aggregate(windows: &[WindowResult]) -> (Welford, u64) {
    let mut ipc = Welford::new();
    let mut instructions = 0;
    for w in windows {
        if w.cycles > 0 {
            ipc.record(w.ipc());
        }
        instructions += w.instructions;
    }
    (ipc, instructions)
}

/// One kernel's sampled run: the baseline's windows and the proposed
/// scheme's report, both measured from each window's shared lead.
fn sample_kernel(
    k: &Kernel,
    scale: u64,
    sample: &SampledConfig,
) -> (Vec<WindowResult>, SampledReport) {
    let swept = swept_class(k.suite);
    let rconfigs = SCHEMES.map(|s| renamer_config_for(s, RF_REGS, swept));
    let config = experiment_config(scale);
    let mut base_windows: Vec<WindowResult> = Vec::new();
    let prop = sample_windows(&k.program(scale), &config, sample, scale, |jobs| {
        jobs.into_iter()
            .map(|job| {
                let start = job.spec.start;
                let schemes = SCHEMES
                    .iter()
                    .zip(&rconfigs)
                    .map(|(&s, rcfg)| (renamer_for(s, RF_REGS, swept), rcfg))
                    .collect();
                let results: Vec<WindowResult> = run_window_schemes(job, schemes, &config)
                    .into_iter()
                    .zip(SCHEMES)
                    .map(|(r, s)| {
                        r.unwrap_or_else(|e| {
                            panic!("{} ({}) window at {start}: {e}", k.name, s.label())
                        })
                    })
                    .collect();
                let [base, prop] = results[..] else {
                    unreachable!("one result per scheme")
                };
                base_windows.push(base);
                prop
            })
            .collect()
    });
    (base_windows, prop)
}

/// Runs the experiment and writes `sampled.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let scale = args.scale;
    let plan = args
        .sample_plan(scale)
        .unwrap_or_else(|e| panic!("sample plan: {e}"));
    println!(
        "== Sampled IPC (two-speed engine): {} instructions, window {}+{} every {} ==",
        scale, plan.warmup, plan.measure, plan.period
    );
    let mut table = Table::with_headers(&[
        "kernel", "suite", "windows", "base IPC", "±95%", "prop IPC", "±95%", "speedup",
    ]);
    table.numeric();
    // Each window runs as soon as its checkpoint is taken, on the worker
    // warming its kernel, so a worker holds one checkpoint at a time.
    let sample = SampledConfig {
        batch: 1,
        ..SampledConfig::new(plan)
    };
    let kernels = all_kernels();
    let sampled = par_map_with(&kernels, args.workers, |k| sample_kernel(k, scale, &sample));
    let mut rows = Vec::new();
    for (k, (base_windows, prop)) in kernels.iter().zip(sampled) {
        let (base_ipc, base_instructions) = aggregate(&base_windows);
        let speedup = if base_ipc.mean() > 0.0 {
            prop.ipc_mean() / base_ipc.mean()
        } else {
            0.0
        };
        table.row(vec![
            k.name.into(),
            k.suite.label().into(),
            prop.windows.len().to_string(),
            format!("{:.3}", base_ipc.mean()),
            format!("{:.3}", base_ipc.ci95_half_width()),
            format!("{:.3}", prop.ipc_mean()),
            format!("{:.3}", prop.ipc_ci95()),
            format!("{:.3}", speedup),
        ]);
        for (scheme, ipc, windows, detailed_instructions) in [
            (
                Scheme::Baseline,
                &base_ipc,
                base_windows.len(),
                base_instructions,
            ),
            (
                Scheme::Proposed,
                &prop.ipc,
                prop.windows.len(),
                prop.detailed_instructions,
            ),
        ] {
            rows.push(SampleRow {
                kernel: k.name.into(),
                suite: k.suite.label().into(),
                scheme: scheme.label().into(),
                rf_regs: RF_REGS,
                scale,
                period: plan.period,
                warmup: plan.warmup,
                measure: plan.measure,
                windows,
                ipc_mean: ipc.mean(),
                ipc_ci95_half_width: ipc.ci95_half_width(),
                warm_instructions: prop.warm_instructions,
                detailed_instructions,
            });
        }
    }
    print!("{table}");
    save(&args.out_dir, "sampled", &rows)
}
