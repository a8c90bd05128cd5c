//! SMT frontier: per-thread IPC, aggregate throughput, and iso-area
//! register-file pressure for {1,2,4} hardware threads × {2,4,8}-wide
//! cores, baseline renaming vs the proposed sharing scheme.
//!
//! Each matrix point sizes the baseline file by
//! [`area::smt_baseline_regs`] (one architectural copy per thread plus a
//! width-scaled speculative window), ports by [`area::ports_for_width`],
//! and gives the proposed scheme the equal-area bank split for that
//! budget. Fetch arbitrates between threads by ICOUNT, and each point
//! runs one kernel per hardware thread from a fixed mixed-suite lineup, so
//! the rows answer the paper's open question directly: does the ~10.5%
//! iso-area reduction survive when 2–4 threads share one physical file?

use super::common::{save, Args, ExpError};
use crate::area;
use crate::core::{BankConfig, BaselineRenamer, Renamer, RenamerConfig, ReuseRenamer};
use crate::harness::{kernel_by_name, par_map, Scheme};
use crate::sim::{Pipeline, SimConfig, SimReport};
use crate::stats::Table;
use serde::Serialize;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const WIDTHS: [usize; 3] = [2, 4, 8];
/// Thread `t` of an `n`-thread point runs `MIX[t]` — a fixed
/// mixed-suite lineup (fp, fp, int, fp) so co-scheduled threads stress
/// both register classes.
const MIX: [&str; 4] = ["saxpy", "fft", "hashjoin", "dct"];

/// One simulated point of the frontier matrix.
#[derive(Serialize)]
struct SmtRow {
    threads: usize,
    width: usize,
    scheme: String,
    kernels: Vec<String>,
    /// Physical registers per class actually instantiated.
    regs_per_class: usize,
    /// Iso-area register savings vs the baseline budget (0 for baseline
    /// rows; can dip when the architectural floor forces a larger file).
    rf_reduction_pct: f64,
    cycles: u64,
    committed_instructions: u64,
    aggregate_ipc: f64,
    per_thread_ipc: Vec<f64>,
    /// Fraction of destination renames served by register reuse
    /// (single-use sharing successes; 0 for the baseline).
    single_use_fraction: f64,
    rename_stalls: u64,
}

/// The committed artifact: the full matrix plus the headline verdict.
#[derive(Serialize)]
struct SmtFrontier {
    scale: u64,
    /// The paper's single-thread iso-area register-file reduction (§VI).
    paper_rf_reduction_pct: f64,
    rows: Vec<SmtRow>,
    verdict: String,
}

/// Equal-area bank split for the proposed scheme, floored so the shared
/// file can always hold every thread's architectural state (the rename
/// tables pin 32 registers per thread per class) with a little renaming
/// headroom. A floored point is exactly the SMT-pressure signal the
/// frontier exists to expose: its `rf_reduction_pct` shrinks below the
/// pure iso-area solution.
fn proposed_banks(r_base: usize, ports: area::RegFilePorts, threads: usize) -> BankConfig {
    let banks = area::equal_area_config(r_base, ports);
    let floor = 32 * threads + 16;
    if banks.total() >= floor {
        banks
    } else {
        let s = banks.sizes()[1];
        BankConfig::new(vec![floor - 3 * s, s, s, s])
    }
}

fn run_point(threads: usize, width: usize, scheme: Scheme, scale: u64) -> (usize, SimReport) {
    let r_base = area::smt_baseline_regs(threads, width);
    let ports = area::ports_for_width(width);
    let (renamer, regs): (Box<dyn Renamer>, usize) = match scheme {
        Scheme::Baseline => (
            Box::new(BaselineRenamer::new(
                RenamerConfig::baseline(r_base).with_threads(threads),
            )),
            r_base,
        ),
        Scheme::Proposed => {
            let banks = proposed_banks(r_base, ports, threads);
            let regs = banks.total();
            let config = RenamerConfig {
                int_banks: banks.clone(),
                fp_banks: banks,
                ..RenamerConfig::baseline(r_base)
            }
            .with_threads(threads);
            (Box::new(ReuseRenamer::new(config)), regs)
        }
    };
    let programs = MIX[..threads]
        .iter()
        .map(|name| {
            let kernel = kernel_by_name(name).unwrap_or_else(|e| panic!("smt mix: {e}"));
            kernel.program(scale)
        })
        .collect();
    let mut config = SimConfig::default().with_width(width).with_threads(threads);
    let budget = scale * threads as u64;
    config.max_instructions = budget;
    // Floored SMT points run the shared file nearly at its architectural
    // minimum and crawl through rename stalls; the cap only needs to
    // catch true deadlock, so charge it generously.
    config.max_cycles = budget.saturating_mul(200).max(2_000_000);
    let mut sim = Pipeline::new_smt(programs, renamer, config)
        .unwrap_or_else(|e| panic!("smt t={threads} w={width} {}: {e}", scheme.label()));
    match sim.run() {
        Ok(report) => (regs, report),
        Err(e) => {
            let r = sim.report();
            panic!(
                "smt t={threads} w={width} {}: {e} (committed {:?} over {} cycles, \
                 rename stalls {})",
                scheme.label(),
                r.per_thread_committed,
                r.cycles,
                r.rename_stall_cycles
            )
        }
    }
}

/// Runs the frontier matrix and writes `smt_frontier.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== SMT frontier: threads x width under a shared physical register file ==");
    let mut points = Vec::new();
    for &threads in &THREAD_COUNTS {
        for &width in &WIDTHS {
            for scheme in [Scheme::Baseline, Scheme::Proposed] {
                points.push((threads, width, scheme));
            }
        }
    }
    let reports = par_map(&points, |&(threads, width, scheme)| {
        run_point(threads, width, scheme, args.scale)
    });
    let mut rows = Vec::new();
    for (&(threads, width, scheme), (regs, report)) in points.iter().zip(reports) {
        let r_base = area::smt_baseline_regs(threads, width);
        rows.push(SmtRow {
            threads,
            width,
            scheme: scheme.label().to_string(),
            kernels: MIX[..threads].iter().map(|s| s.to_string()).collect(),
            regs_per_class: regs,
            rf_reduction_pct: 100.0 * (r_base as f64 - regs as f64) / r_base as f64,
            cycles: report.cycles,
            committed_instructions: report.committed_instructions,
            aggregate_ipc: report.ipc(),
            per_thread_ipc: (0..threads).map(|t| report.per_thread_ipc(t)).collect(),
            single_use_fraction: report.rename.reuse_fraction(),
            rename_stalls: report.rename_stall_cycles,
        });
    }
    let verdict = verdict(&rows);
    let mut table = Table::with_headers(&[
        "threads",
        "width",
        "scheme",
        "regs",
        "rf-cut%",
        "agg IPC",
        "per-thread IPC",
        "reuse%",
    ]);
    for r in &rows {
        table.row(vec![
            r.threads.to_string(),
            r.width.to_string(),
            r.scheme.clone(),
            r.regs_per_class.to_string(),
            format!("{:.1}", r.rf_reduction_pct),
            format!("{:.3}", r.aggregate_ipc),
            r.per_thread_ipc
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join("/"),
            format!("{:.1}", r.single_use_fraction * 100.0),
        ]);
    }
    out!("{table}");
    outln!("verdict: {verdict}");
    let frontier = SmtFrontier {
        scale: args.scale,
        paper_rf_reduction_pct: 10.5,
        rows,
        verdict,
    };
    save(&args.out_dir, "smt_frontier", &frontier)
}

/// Condenses the matrix into the headline comparison against the
/// paper's single-thread result: the mean iso-area register cut and the
/// proposed scheme's IPC retention, at 1 thread vs the SMT points.
fn verdict(rows: &[SmtRow]) -> String {
    let stat = |threads_wanted: fn(usize) -> bool| {
        let mut cut = 0.0;
        let mut retention = 0.0;
        let mut n = 0usize;
        for p in rows.iter().filter(|r| r.scheme == "proposed") {
            if !threads_wanted(p.threads) {
                continue;
            }
            let base = rows
                .iter()
                .find(|r| r.scheme == "baseline" && r.threads == p.threads && r.width == p.width)
                .expect("every proposed point has a baseline twin");
            cut += p.rf_reduction_pct;
            retention += 100.0 * p.aggregate_ipc / base.aggregate_ipc;
            n += 1;
        }
        (cut / n as f64, retention / n as f64)
    };
    let (st_cut, st_ret) = stat(|t| t == 1);
    let (smt_cut, smt_ret) = stat(|t| t > 1);
    format!(
        "single-thread iso-area RF cut averages {st_cut:.1}% at {st_ret:.1}% of baseline IPC \
         (paper: 10.5%); under SMT the cut averages {smt_cut:.1}% at {smt_ret:.1}% of baseline \
         IPC — per-thread architectural state, not the speculative window, bounds the shared \
         file as threads scale"
    )
}
