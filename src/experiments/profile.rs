//! Cycle-attribution profile: where a detailed-mode host-second goes,
//! per stage, plus heap-allocation counts — written to `profile.json`.
//!
//! Runs every kernel once with [`crate::sim::SimConfig::profile`] set,
//! which turns on the per-stage wall-clock lap timer inside
//! `Pipeline::step` (the deterministic work counters are always on).
//! Allocation counts are read from [`crate::alloc_track`]; they are
//! meaningful when the binary installs [`crate::CountingAlloc`] (the
//! `experiments` binary does) and read as zero otherwise.
//!
//! This report's payload is host wall-clock, so `all` — which
//! promises bit-identical output — never includes it.

use super::common::{save, Args, ExpError};
use crate::alloc_track;
use crate::harness::{RunSpec, Scheme};
use crate::sim::{Pipeline, StageProfile, NUM_STAGE_SLOTS, STAGE_SLOT_NAMES};
use crate::stats::Table;
use crate::workloads::all_kernels;
use serde::Serialize;

/// Swept-file size for the measurement (the paper's headline point).
const RF_REGS: usize = 64;

/// Detailed-mode instruction budget per kernel: attribution stabilizes
/// well within this, so the profile stays cheap at paper scales.
const DETAILED_CAP: u64 = 200_000;

#[derive(Serialize)]
struct ProfileRow {
    kernel: String,
    suite: String,
    cycles: u64,
    committed_uops: u64,
    /// Detailed-mode throughput for this kernel (committed uops per
    /// host second — the "MIPS" the perf work is judged on).
    uops_per_sec: f64,
    /// Deterministic work units per stage, keyed by stage name.
    stage_work: Vec<(String, u64)>,
    /// Host nanoseconds per stage, keyed by stage name.
    stage_nanos: Vec<(String, u64)>,
    /// Fraction of attributed time per stage, keyed by stage name.
    stage_share: Vec<(String, f64)>,
    /// Heap allocations during this kernel's run (0 without the
    /// counting allocator installed).
    allocations: u64,
    /// Bytes requested from the heap during this kernel's run.
    allocated_bytes: u64,
    /// Allocations per 1000 simulated cycles — the zero-alloc-tick
    /// scorecard (setup allocations amortize toward 0 as scale grows).
    allocs_per_kcycle: f64,
}

#[derive(Serialize)]
struct ProfileReport {
    scale: u64,
    /// Whether the run binary had the counting allocator installed.
    alloc_counted: bool,
    rows: Vec<ProfileRow>,
    /// Host nanoseconds per stage summed over all kernels.
    total_stage_nanos: Vec<(String, u64)>,
    /// Fraction of total attributed time per stage.
    total_stage_share: Vec<(String, f64)>,
    aggregate_uops_per_sec: f64,
    total_allocations: u64,
}

fn keyed<T: Copy>(values: &[T; NUM_STAGE_SLOTS]) -> Vec<(String, T)> {
    STAGE_SLOT_NAMES
        .iter()
        .zip(values.iter())
        .map(|(n, v)| (n.to_string(), *v))
        .collect()
}

/// Runs the per-stage attribution sweep and writes `profile.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let scale = args.scale.min(DETAILED_CAP);
    println!("== Cycle attribution: per-stage host time at {scale} instructions ==");
    let alloc_base = alloc_track::allocations();
    let mut table = Table::with_headers(&[
        "kernel",
        "uops/s",
        "top stage",
        "share",
        "allocs",
        "allocs/kcycle",
    ]);
    table.numeric();
    let mut rows = Vec::new();
    let mut total_nanos = [0u64; NUM_STAGE_SLOTS];
    let mut total_uops = 0u64;
    let mut total_seconds = 0.0;
    let mut total_allocations = 0u64;
    for k in all_kernels() {
        let mut spec = RunSpec::scheme(k, Scheme::Proposed, RF_REGS, scale);
        spec.sim.profile = true;
        // The counts cover building the program and the pipeline and the
        // run, not the renamer or the configuration handed to them.
        let renamer = spec.renamer.build(spec.config.clone());
        let config = spec.sim.clone();
        let allocs_before = alloc_track::allocations();
        let bytes_before = alloc_track::allocated_bytes();
        // Uncached: the report's payload is this run's host time.
        let report = Pipeline::new(k.program(scale), renamer, config)
            .run()
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let allocations = alloc_track::allocations() - allocs_before;
        let allocated_bytes = alloc_track::allocated_bytes() - bytes_before;
        let p: &StageProfile = &report.profile;
        let (top_idx, _) = p
            .nanos
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| **n)
            .unwrap_or((0, &0));
        let allocs_per_kcycle = allocations as f64 * 1000.0 / report.cycles.max(1) as f64;
        table.row(vec![
            k.name.into(),
            format!("{:.0}", report.uops_per_second()),
            STAGE_SLOT_NAMES[top_idx].into(),
            format!(
                "{:.1}%",
                100.0 * p.nanos[top_idx] as f64 / p.total_nanos().max(1) as f64
            ),
            allocations.to_string(),
            format!("{allocs_per_kcycle:.2}"),
        ]);
        for (t, n) in total_nanos.iter_mut().zip(p.nanos.iter()) {
            *t += n;
        }
        total_uops += report.committed_uops;
        total_seconds += report.wall_seconds;
        total_allocations += allocations;
        let shares: [f64; NUM_STAGE_SLOTS] =
            std::array::from_fn(|i| p.nanos[i] as f64 / p.total_nanos().max(1) as f64);
        rows.push(ProfileRow {
            kernel: k.name.into(),
            suite: k.suite.label().into(),
            cycles: report.cycles,
            committed_uops: report.committed_uops,
            uops_per_sec: report.uops_per_second(),
            stage_work: keyed(&p.work),
            stage_nanos: keyed(&p.nanos),
            stage_share: keyed(&shares),
            allocations,
            allocated_bytes,
            allocs_per_kcycle,
        });
    }
    let grand_total: u64 = total_nanos.iter().sum();
    let total_shares: [f64; NUM_STAGE_SLOTS] =
        std::array::from_fn(|i| total_nanos[i] as f64 / grand_total.max(1) as f64);
    let aggregate = total_uops as f64 / total_seconds.max(1e-12);
    let mut totals = Table::with_headers(&["stage", "nanos", "share"]);
    totals.numeric();
    for i in 0..NUM_STAGE_SLOTS {
        totals.row(vec![
            STAGE_SLOT_NAMES[i].into(),
            total_nanos[i].to_string(),
            format!("{:.1}%", 100.0 * total_shares[i]),
        ]);
    }
    print!("{table}");
    print!("{totals}");
    println!("aggregate: {aggregate:.0} uops/s, {total_allocations} allocations");
    let report = ProfileReport {
        scale,
        alloc_counted: alloc_track::allocations() > alloc_base,
        rows,
        total_stage_nanos: keyed(&total_nanos),
        total_stage_share: keyed(&total_shares),
        aggregate_uops_per_sec: aggregate,
        total_allocations,
    };
    save(&args.out_dir, "profile", &report)
}
