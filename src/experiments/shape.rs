//! Shape stability: the fig1/fig3 dataflow shapes recomputed across an
//! instruction-count ladder (10⁵ → 10⁷ → 10⁹) from windowed functional
//! traces. The full figures replay an exact trace, which cannot scale to
//! paper-length streams; here each rung samples bounded trace windows
//! spread across the stream and shows the shape metrics barely move —
//! the evidence that sampled paper-scale runs measure the same programs
//! the small-scale figures characterize.

use super::common::{pct, save, Args, ExpError};
use crate::isa::{Inst, Machine};
use crate::stats::Table;
use crate::workloads::analysis::Dataflow;
use crate::workloads::{all_kernels, Kernel};
use serde::Serialize;

/// Instructions captured per trace window.
const WINDOW: u64 = 20_000;

/// Trace windows per rung (bounds the memory a rung can hold).
const MAX_WINDOWS: u64 = 25;

#[derive(Serialize)]
struct ShapeRow {
    kernel: String,
    suite: String,
    scale: u64,
    windows: usize,
    single_use_pct: f64,
    dest_pct: f64,
    reuse_le2_pct: f64,
    reuse_unlimited_pct: f64,
}

/// One representative kernel per suite (the ladder is about scale, not
/// breadth — the full per-kernel shapes live in fig1/fig3).
fn representatives() -> Vec<Kernel> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for k in all_kernels() {
        if !seen.contains(&k.suite) {
            seen.push(k.suite);
            out.push(k);
        }
    }
    out
}

/// The instruction-count ladder up to `scale`.
fn rungs(scale: u64) -> Vec<u64> {
    let mut rungs: Vec<u64> = [100_000, 10_000_000, 1_000_000_000]
        .into_iter()
        .filter(|&r| r <= scale)
        .collect();
    if rungs.last() != Some(&scale) {
        rungs.push(scale);
    }
    rungs
}

/// Collects up to [`MAX_WINDOWS`] windows of [`WINDOW`] retired
/// instructions, evenly spread over the first `rung` instructions.
fn windowed_trace(kernel: &Kernel, rung: u64) -> Vec<Inst> {
    let windows = (rung / WINDOW).clamp(1, MAX_WINDOWS);
    let period = rung / windows;
    let mut machine = Machine::new(kernel.program(rung));
    let mut trace = Vec::new();
    for i in 0..windows {
        let start = i * period;
        let end = (start + WINDOW).min(rung);
        machine
            .run_observe(start, |_| {})
            .expect("functional execution");
        if machine.is_halted() {
            break;
        }
        machine
            .run_observe(end, |r| trace.push(r.inst))
            .expect("functional execution");
    }
    trace
}

/// Runs the experiment and writes `shape.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let ladder = rungs(args.scale);
    outln!(
        "== Shape stability: fig1/fig3 metrics across scales {:?} ==",
        ladder
    );
    let mut table = Table::with_headers(&[
        "kernel",
        "scale",
        "single-use%",
        "dest%",
        "reuse<=2%",
        "reuse-unl%",
    ]);
    table.numeric();
    let mut rows = Vec::new();
    for k in representatives() {
        for &rung in &ladder {
            let dataflow = Dataflow::of(windowed_trace(&k, rung));
            let profile = dataflow.profile();
            let reuse = dataflow.reuse_potential(&[2, u64::MAX]);
            let (le2, unl) = (reuse[0], reuse[1]);
            table.row(vec![
                k.name.into(),
                rung.to_string(),
                pct(profile.single_use_fraction()),
                pct(profile.dest_fraction()),
                pct(le2),
                pct(unl),
            ]);
            rows.push(ShapeRow {
                kernel: k.name.into(),
                suite: k.suite.label().into(),
                scale: rung,
                windows: dataflow.insts.len().div_ceil(WINDOW as usize),
                single_use_pct: profile.single_use_fraction() * 100.0,
                dest_pct: profile.dest_fraction() * 100.0,
                reuse_le2_pct: le2 * 100.0,
                reuse_unlimited_pct: unl * 100.0,
            });
        }
    }
    out!("{table}");
    save(&args.out_dir, "shape", &rows)
}
