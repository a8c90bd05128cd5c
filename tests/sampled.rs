//! Sampled-vs-full equivalence: the two-speed engine's 95% confidence
//! interval must cover the IPC of a full detailed run of the same
//! stream.
//!
//! SMARTS-style sampling replaces exhaustive detailed simulation with
//! periodic measured windows over a functionally-warmed stream; its
//! whole claim is that the window-mean IPC estimates the full-run IPC.
//! These tests check that claim end to end at a scale (10⁵) where the
//! full detailed run is still affordable, that schemes sampled together
//! get the reports one-scheme runs get, and that the `sample`
//! experiment writes the same bytes for any worker count.

use regshare::experiments::{registry, Args};
use regshare::harness::{run_kernel, run_kernel_sampled, Scheme};
use regshare::isa::Machine;
use regshare::sim::{SampledConfig, DEFAULT_LEAD};
use regshare::stats::SamplePlan;
use regshare::workloads::all_kernels;

const SCALE: u64 = 100_000;
const RF_REGS: usize = 64;

/// One kernel per suite family, each with genuine window-to-window
/// variance so the CI check is meaningful. (Perfectly periodic kernels
/// like saxpy produce identical windows and a degenerate zero-width CI
/// that can never cover the full run's cold-start transient.) Everything
/// here is deterministic: these either pass forever or fail forever.
const KERNELS: [&str; 3] = ["matmul", "bitcount", "adpcm"];

fn plan() -> SampledConfig {
    // 10 windows over 10⁵ instructions: 1k detailed warmup, 3k measured.
    SampledConfig::new(SamplePlan::new(10_000, 1_000, 3_000))
}

#[test]
fn sampled_ci_covers_full_detailed_ipc() {
    let kernels = all_kernels();
    let mut failures = Vec::new();
    for name in KERNELS {
        let k = kernels.iter().find(|k| k.name == name).unwrap();
        let full = run_kernel(k, Scheme::Proposed, RF_REGS, SCALE);
        let full_ipc = full.committed_instructions as f64 / full.cycles as f64;
        let [sampled] = run_kernel_sampled(k, [Scheme::Proposed], RF_REGS, SCALE, &plan());
        if !sampled.ci_covers(full_ipc) {
            failures.push(format!(
                "{name}: full IPC {full_ipc:.4} outside sampled {:.4} ±{:.4} ({} windows)",
                sampled.ipc_mean(),
                sampled.ipc_ci95(),
                sampled.ipc.count(),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "sampled CI misses full-run IPC:\n{}",
        failures.join("\n")
    );
}

#[test]
fn sampled_report_accounts_for_both_speeds() {
    let kernels = all_kernels();
    let k = kernels.iter().find(|k| k.name == "saxpy").unwrap();
    // A short explicit lead keeps checkpoints *after* stream start, so
    // the sequential warming pass actually fast-forwards. (The default
    // 100k lead clamps to the window start at this scale, putting every
    // checkpoint at instruction 0.)
    let mut sample = plan();
    sample.lead = 2_000;
    let [r] = run_kernel_sampled(k, [Scheme::Baseline], RF_REGS, SCALE, &sample);
    // The warming pass covers the stream the windows sample from.
    assert!(r.warm_instructions > 0);
    assert!(r.detailed_instructions > 0);
    // Every non-degenerate window contributes one observation.
    let live = r.windows.iter().filter(|w| w.cycles > 0).count() as u64;
    assert_eq!(r.ipc.count(), live);
    assert!(live >= 2, "expected several live windows at this scale");
}

#[test]
fn schemes_sampled_together_match_one_scheme_runs() {
    // One call runs both schemes from each window's shared lead; each
    // report must be the one a call for that scheme alone gives. sad at
    // 48 registers times differently under the two schemes, so a report
    // handed to the wrong scheme shows.
    const RF: usize = 48;
    let kernels = all_kernels();
    let k = kernels.iter().find(|k| k.name == "sad").unwrap();
    let schemes = [Scheme::Baseline, Scheme::Proposed];
    let together = run_kernel_sampled(k, schemes, RF, SCALE, &plan());
    assert_ne!(together[0].windows, together[1].windows);
    for (scheme, report) in schemes.into_iter().zip(&together) {
        let [alone] = run_kernel_sampled(k, [scheme], RF, SCALE, &plan());
        assert_eq!(report.windows, alone.windows, "{scheme:?}");
        assert_eq!(report.warm_instructions, alone.warm_instructions);
        assert_eq!(report.detailed_instructions, alone.detailed_instructions);
        assert_eq!(report.ipc_mean().to_bits(), alone.ipc_mean().to_bits());
    }
}

#[test]
fn sample_experiment_writes_the_same_bytes_for_any_worker_count() {
    // Five windows of 200 + 800 instructions over 2·10⁴: every lead is
    // clamped to its window's start, so each window replays the stream
    // from instruction 0.
    const SCALE: u64 = 20_000;
    let (period, warmup, measure) = (4_000, 200, 800);
    let last_start = *SamplePlan::new(period, warmup, measure)
        .window_starts(SCALE)
        .last()
        .expect("windows");
    assert!(last_start < DEFAULT_LEAD);
    // Some kernels halt before their last window starts, so that
    // window's lead runs into the halt and reports zero cycles.
    let halting = all_kernels()
        .iter()
        .filter(|k| {
            let mut m = Machine::new(k.program(SCALE));
            m.run(last_start).expect("functional run");
            m.is_halted()
        })
        .count();
    assert!(halting > 0, "no window's lead reaches a halt");

    let (_, sample) = registry()
        .into_iter()
        .find(|(name, _)| *name == "sample")
        .expect("sample is registered");
    let written: Vec<Vec<u8>> = [1, 2, 8]
        .into_iter()
        .map(|workers| {
            let out = std::env::temp_dir().join(format!(
                "regshare-sampled-test-{workers}-{}",
                std::process::id()
            ));
            let args = Args {
                exps: vec!["sample".into()],
                scale: SCALE,
                out_dir: out.display().to_string(),
                workers: Some(workers),
                period: Some(period),
                warmup: Some(warmup),
                measure: Some(measure),
                ..Args::default()
            };
            sample(&args).expect("sample experiment");
            let bytes = std::fs::read(out.join("sampled.json")).expect("sampled.json");
            let _ = std::fs::remove_dir_all(&out);
            bytes
        })
        .collect();
    assert!(written[0] == written[1], "1 and 2 workers differ");
    assert!(written[0] == written[2], "1 and 8 workers differ");
}
