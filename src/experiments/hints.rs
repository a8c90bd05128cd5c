//! Static sharing hints raced against the dynamic predictor: every
//! kernel runs under all three [`HintPolicy`] variants (the two that
//! read static hints with the kernel's compiled hint table attached;
//! see [`RunSpec::pipeline`]), and the speculation accounting is split
//! by grant source (Fig. 12 style, per source).

use super::common::{save, Args, ExpError};
use crate::analyze::{classify, classify_with_loops, compile_hints, Cfg, SiteClass};
use crate::core::HintPolicy;
use crate::harness::{par_map, RunSpec, Scheme};
use crate::stats::Table;
use crate::workloads::all_kernels;
use serde::Serialize;

const POLICIES: [(HintPolicy, &str); 3] = [
    (HintPolicy::DynamicOnly, "dynamic"),
    (HintPolicy::StaticOnly, "static"),
    (HintPolicy::Hybrid, "hybrid"),
];

#[derive(Serialize)]
struct HintRow {
    kernel: String,
    suite: String,
    policy: String,
    // Hint-table shape (identical across the kernel's three policies).
    sites: usize,
    exact_hint_slots: usize,
    hint_coverage_pct: f64,
    unknown_sites_base: usize,
    unknown_sites_loops: usize,
    // Timing result.
    cycles: u64,
    committed_instructions: u64,
    ipc: f64,
    // Sharing behaviour.
    reuses: u64,
    safe_reuses: u64,
    speculative_reuses: u64,
    repairs: u64,
    // Grant-source split.
    static_speculations: u64,
    dynamic_speculations: u64,
    static_denials: u64,
    static_correct: u64,
    static_repaired: u64,
    dynamic_correct: u64,
    dynamic_repaired: u64,
    static_accuracy_pct: f64,
    dynamic_accuracy_pct: f64,
    static_bank_correct: u64,
    static_bank_incorrect: u64,
}

/// Runs the hint-policy race and writes `hints.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Static hints vs dynamic predictor: 3 policies x all kernels ==");
    let kernels = all_kernels();
    let rows: Vec<HintRow> = par_map(&kernels, |k| {
        let program = k.program(args.scale);
        let cfg = Cfg::build(program.insts(), program.entry());
        let base = classify(&cfg, program.insts());
        let deep = classify_with_loops(&cfg, program.insts());
        let hints = compile_hints(&program);
        let sites = hints.len();
        let exact = hints.exact_slots();
        POLICIES
            .iter()
            .map(|&(policy, label)| {
                let mut spec = RunSpec::scheme(*k, Scheme::Proposed, 64, args.scale);
                spec.config.hint_policy = policy;
                let report = args.report(&spec);
                HintRow {
                    kernel: k.name.into(),
                    suite: k.suite.label().into(),
                    policy: label.into(),
                    sites,
                    exact_hint_slots: exact,
                    hint_coverage_pct: if sites == 0 {
                        0.0
                    } else {
                        exact as f64 / sites as f64 * 100.0
                    },
                    unknown_sites_base: base.count(SiteClass::Unknown),
                    unknown_sites_loops: deep.count(SiteClass::Unknown),
                    cycles: report.cycles,
                    committed_instructions: report.committed_instructions,
                    ipc: report.ipc(),
                    reuses: report.rename.reuses,
                    safe_reuses: report.rename.safe_reuses,
                    speculative_reuses: report.rename.speculative_reuses,
                    repairs: report.rename.repairs,
                    static_speculations: report.hints.static_speculations,
                    dynamic_speculations: report.hints.dynamic_speculations,
                    static_denials: report.hints.static_denials,
                    static_correct: report.hints.static_correct,
                    static_repaired: report.hints.static_repaired,
                    dynamic_correct: report.hints.dynamic_correct,
                    dynamic_repaired: report.hints.dynamic_repaired,
                    static_accuracy_pct: report.hints.static_accuracy() * 100.0,
                    dynamic_accuracy_pct: report.hints.dynamic_accuracy() * 100.0,
                    static_bank_correct: report.hints.static_bank_correct,
                    static_bank_incorrect: report.hints.static_bank_incorrect,
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    let mut table = Table::with_headers(&[
        "kernel",
        "policy",
        "ipc",
        "cover%",
        "spec(s/d)",
        "repairs(s/d)",
        "deny",
        "acc-s%",
        "acc-d%",
    ]);
    table.numeric();
    for r in &rows {
        table.row(vec![
            r.kernel.clone(),
            r.policy.clone(),
            format!("{:.4}", r.ipc),
            format!("{:.1}", r.hint_coverage_pct),
            format!("{}/{}", r.static_speculations, r.dynamic_speculations),
            format!("{}/{}", r.static_repaired, r.dynamic_repaired),
            r.static_denials.to_string(),
            format!("{:.1}", r.static_accuracy_pct),
            format!("{:.1}", r.dynamic_accuracy_pct),
        ]);
    }
    out!("{table}");

    // Sanity: DynamicOnly must never take or deny anything on static
    // authority, and static grants must only appear where proofs exist.
    for r in rows.iter().filter(|r| r.policy == "dynamic") {
        assert_eq!(
            (r.static_speculations, r.static_denials),
            (0, 0),
            "{}: DynamicOnly acted on a static hint",
            r.kernel
        );
    }
    // The deepened classifier must never be *less* precise than the
    // baseline classifier it refines.
    for r in rows.iter().filter(|r| r.policy == "dynamic") {
        assert!(
            r.unknown_sites_loops <= r.unknown_sites_base,
            "{}: loop-aware classification lost precision",
            r.kernel
        );
    }
    let improved = kernels
        .iter()
        .zip(rows.chunks(POLICIES.len()))
        .filter(|(_, c)| c[0].unknown_sites_loops < c[0].unknown_sites_base)
        .count();
    outln!(
        "loop-aware analysis shrank the Unknown class on {improved}/{} kernels",
        kernels.len()
    );
    save(&args.out_dir, "hints", &rows)
}
