//! Cycle-attribution profile: where a detailed-mode host-second goes,
//! per stage and per renaming scheme, plus heap-allocation counts —
//! written to `profile.json`.
//!
//! Runs every kernel once under each scheme with
//! [`crate::sim::SimConfig::profile`] set, which turns on the per-stage
//! wall-clock lap timer inside `Pipeline::step` (the deterministic work
//! counters are always on). Allocation counts are read from
//! [`crate::alloc_track`]; they are meaningful when the binary installs
//! [`crate::CountingAlloc`] (the `experiments` binary does) and read as
//! zero otherwise.
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

/// The schemes profiled, in row order within each kernel.
const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::Proposed];

#[derive(Serialize)]
struct ProfileRow {
    kernel: String,
    /// The renaming scheme of this run (`baseline` or `proposed`).
    scheme: String,
    suite: String,
    cycles: u64,
    committed_uops: u64,
    /// Detailed-mode throughput for this run (committed uops per host
    /// second — the "MIPS" the perf work is judged on).
    uops_per_sec: f64,
    /// Deterministic work units per stage, keyed by stage name.
    stage_work: Vec<(String, u64)>,
    /// Host nanoseconds per stage, keyed by stage name.
    stage_nanos: Vec<(String, u64)>,
    /// Fraction of attributed time per stage, keyed by stage name.
    stage_share: Vec<(String, f64)>,
    /// Heap allocations during this run (0 without the counting
    /// allocator installed).
    allocations: u64,
    /// Bytes requested from the heap during this run.
    allocated_bytes: u64,
    /// Allocations per 1000 simulated cycles — the zero-alloc-tick
    /// scorecard (setup allocations amortize toward 0 as scale grows).
    allocs_per_kcycle: f64,
}

/// One scheme's sums over every kernel.
#[derive(Serialize)]
struct SchemeTotals {
    scheme: String,
    /// Host nanoseconds per stage.
    stage_nanos: Vec<(String, u64)>,
    /// Fraction of attributed time per stage.
    stage_share: Vec<(String, f64)>,
    /// Committed uops per host second over all of the scheme's runs.
    uops_per_sec: f64,
    allocations: u64,
}

#[derive(Serialize)]
struct ProfileReport {
    scale: u64,
    /// Whether the run binary had the counting allocator installed.
    alloc_counted: bool,
    rows: Vec<ProfileRow>,
    /// Per-scheme totals, in the order of the rows' schemes.
    totals: Vec<SchemeTotals>,
}

fn keyed<T: Copy>(values: &[T; NUM_STAGE_SLOTS]) -> Vec<(String, T)> {
    STAGE_SLOT_NAMES
        .iter()
        .zip(values.iter())
        .map(|(n, v)| (n.to_string(), *v))
        .collect()
}

/// Each stage's fraction of `nanos` (all zero when nothing was timed).
fn shares(nanos: &[u64; NUM_STAGE_SLOTS]) -> [f64; NUM_STAGE_SLOTS] {
    let total = nanos.iter().sum::<u64>().max(1) as f64;
    std::array::from_fn(|i| nanos[i] as f64 / total)
}

/// One scheme's running sums.
#[derive(Default)]
struct Sums {
    nanos: [u64; NUM_STAGE_SLOTS],
    uops: u64,
    seconds: f64,
    allocations: u64,
}

/// Runs the per-stage attribution sweep and writes `profile.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let scale = args.scale.min(DETAILED_CAP);
    outln!("== Cycle attribution: per-stage host time at {scale} instructions, both schemes ==");
    let alloc_base = alloc_track::allocations();
    let mut table = Table::with_headers(&[
        "kernel",
        "scheme",
        "uops/s",
        "top stage",
        "share",
        "allocs",
        "allocs/kcycle",
    ]);
    table.numeric();
    let mut rows = Vec::new();
    let mut sums: [Sums; 2] = Default::default();
    for k in all_kernels() {
        for (scheme, sum) in SCHEMES.into_iter().zip(sums.iter_mut()) {
            let mut spec = RunSpec::scheme(k, scheme, RF_REGS, scale);
            spec.sim.profile = true;
            // The counts cover building the program and the pipeline and
            // the run, not the renamer or the configuration handed to
            // them.
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
            let share = shares(&p.nanos);
            table.row(vec![
                k.name.into(),
                scheme.label().into(),
                format!("{:.0}", report.uops_per_second()),
                STAGE_SLOT_NAMES[top_idx].into(),
                format!("{:.1}%", 100.0 * share[top_idx]),
                allocations.to_string(),
                format!("{allocs_per_kcycle:.2}"),
            ]);
            for (t, n) in sum.nanos.iter_mut().zip(p.nanos.iter()) {
                *t += n;
            }
            sum.uops += report.committed_uops;
            sum.seconds += report.wall_seconds;
            sum.allocations += allocations;
            rows.push(ProfileRow {
                kernel: k.name.into(),
                scheme: scheme.label().into(),
                suite: k.suite.label().into(),
                cycles: report.cycles,
                committed_uops: report.committed_uops,
                uops_per_sec: report.uops_per_second(),
                stage_work: keyed(&p.work),
                stage_nanos: keyed(&p.nanos),
                stage_share: keyed(&share),
                allocations,
                allocated_bytes,
                allocs_per_kcycle,
            });
        }
    }
    let mut headers = vec!["stage".to_string()];
    for scheme in SCHEMES {
        headers.push(format!("{} nanos", scheme.label()));
        headers.push(format!("{} share", scheme.label()));
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut stages = Table::with_headers(&headers);
    stages.numeric();
    let total_shares = sums.each_ref().map(|sum| shares(&sum.nanos));
    for i in 0..NUM_STAGE_SLOTS {
        let mut row = vec![STAGE_SLOT_NAMES[i].to_string()];
        for (sum, share) in sums.iter().zip(&total_shares) {
            row.push(sum.nanos[i].to_string());
            row.push(format!("{:.1}%", 100.0 * share[i]));
        }
        stages.row(row);
    }
    out!("{table}");
    out!("{stages}");
    let mut totals = Vec::new();
    for ((scheme, sum), share) in SCHEMES.into_iter().zip(&sums).zip(&total_shares) {
        let uops_per_sec = sum.uops as f64 / sum.seconds.max(1e-12);
        outln!(
            "{}: {uops_per_sec:.0} uops/s, {} allocations",
            scheme.label(),
            sum.allocations
        );
        totals.push(SchemeTotals {
            scheme: scheme.label().into(),
            stage_nanos: keyed(&sum.nanos),
            stage_share: keyed(share),
            uops_per_sec,
            allocations: sum.allocations,
        });
    }
    let report = ProfileReport {
        scale,
        alloc_counted: alloc_track::allocations() > alloc_base,
        rows,
        totals,
    };
    save(&args.out_dir, "profile", &report)
}
