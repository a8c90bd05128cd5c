//! Fault injection: seeded campaigns of interrupts, page faults, branch
//! flips and squash storms under lockstep oracle + invariant audits.

use super::common::{die, save, Args, ExpError};
use crate::harness::{par_map, RunSpec, Scheme};
use crate::sim::{InjectSchedule, SimError};
use crate::workloads::all_kernels;
use serde::Serialize;

#[derive(Serialize)]
struct InjectRow {
    campaign: usize,
    kernel: String,
    scheme: String,
    seed: u64,
    interrupts: u64,
    nested_interrupts: u64,
    load_faults: u64,
    store_faults: u64,
    branch_flips: u64,
    squash_storms: u64,
    events_total: u64,
    audits: u64,
    cycles: u64,
    committed_instructions: u64,
    mispredicts: u64,
    exceptions: u64,
    shadow_recovers: u64,
    status: String,
}

/// Runs the campaign sweep and writes `inject_report.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Fault injection: seeded interrupts / faults / flips / squash storms ==");
    // Injection stresses recovery paths, not steady-state IPC: modest
    // runs keep a 100+-campaign sweep fast, and the schedule horizon
    // covers the whole run either way.
    let scale = args.scale.min(20_000);
    let mut kernels = all_kernels();
    if let Some(subset) = &args.kernels {
        kernels.retain(|k| subset.iter().any(|s| s.name == k.name));
    }
    // Campaign i covers kernel i mod K, alternating schemes across
    // passes, with a per-campaign schedule seed derived from --seed.
    let schemes = [Scheme::Baseline, Scheme::Proposed];
    let points: Vec<usize> = (0..args.campaigns.max(1)).collect();
    let runs: Vec<(InjectRow, Option<String>)> = par_map(&points, |&i| {
        let kernel = &kernels[i % kernels.len()];
        let scheme = schemes[(i / kernels.len()) % schemes.len()];
        let seed = args.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut spec = RunSpec::scheme(*kernel, scheme, 64, scale);
        spec.sim.check_oracle = true;
        spec.sim.audit_interval = 256;
        let mut sim = spec.pipeline();
        sim.set_inject(InjectSchedule::seeded(seed, scale));
        let (status, error) = match sim.run() {
            Ok(_) => ("ok", None),
            Err(e) => {
                let status = match &e {
                    SimError::OracleMismatch { .. } => "oracle-mismatch",
                    SimError::CycleLimit { .. } => "cycle-limit",
                    SimError::Deadlock { .. } => "deadlock",
                    SimError::Invariant { .. } => "invariant-violation",
                    SimError::Lsq { .. } => "lsq-error",
                    // No supervisor attaches a cancel token here, but the
                    // row schema still needs a stable word for it.
                    SimError::Cancelled { .. } => "cancelled",
                    SimError::Config { .. } => "config-error",
                };
                let detail = format!(
                    "campaign {i} ({}, {}, seed {seed:#x}): {e}",
                    kernel.name,
                    scheme.label()
                );
                (status, Some(detail))
            }
        };
        let report = sim.report();
        let stats = sim.inject_stats();
        let row = InjectRow {
            campaign: i,
            kernel: kernel.name.into(),
            scheme: scheme.label().into(),
            seed,
            interrupts: stats.interrupts,
            nested_interrupts: stats.nested_interrupts,
            load_faults: stats.load_faults,
            store_faults: stats.store_faults,
            branch_flips: stats.branch_flips,
            squash_storms: stats.squash_storms,
            events_total: stats.total(),
            audits: sim.audits(),
            cycles: report.cycles,
            committed_instructions: report.committed_instructions,
            mispredicts: report.mispredicts,
            exceptions: report.exceptions,
            shadow_recovers: report.shadow_recovers,
            status: status.into(),
        };
        (row, error)
    });
    let errors: Vec<String> = runs.iter().filter_map(|(_, e)| e.clone()).collect();
    let rows: Vec<InjectRow> = runs.into_iter().map(|(r, _)| r).collect();
    let sum = |f: fn(&InjectRow) -> u64| rows.iter().map(f).sum::<u64>();
    outln!(
        "  {} campaigns over {} kernels x {} schemes at scale {scale}: \
         {} events delivered ({} interrupts incl. {} nested, {} load faults, \
         {} store faults, {} branch flips, {} squash storms), {} invariant audits, \
         {} clean",
        rows.len(),
        kernels.len(),
        schemes.len(),
        sum(|r| r.events_total),
        sum(|r| r.interrupts),
        sum(|r| r.nested_interrupts),
        sum(|r| r.load_faults),
        sum(|r| r.store_faults),
        sum(|r| r.branch_flips),
        sum(|r| r.squash_storms),
        sum(|r| r.audits),
        rows.iter().filter(|r| r.status == "ok").count(),
    );
    save(&args.out_dir, "inject_report", &rows)?;
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("{e}");
        }
        die(&format!(
            "{} of {} injection campaigns failed",
            errors.len(),
            rows.len()
        ));
    }
    Ok(())
}
