//! The four §IV ablations as data: each is a table of [`Setting`]s that
//! [`ablate`] runs on every kernel against the 64-register baseline.

use super::common::{save, Args, ExpError};
use crate::core::{BankConfig, RenamerConfig};
use crate::harness::{par_map, swept_class, with_swept_banks, RenamerKind, RunSpec, Scheme};
use crate::isa::RegClass;
use crate::stats::{geomean, Table};
use crate::workloads::all_kernels;
use serde::Serialize;

/// One ablation row, read left to right: the label, then the proposed
/// scheme's swept-file bank split, version-counter bits, predictor
/// entries and speculation switch at 64 registers.
#[derive(Clone, Copy)]
struct Setting(&'static str, [usize; 4], u8, usize, bool);

impl Setting {
    /// The proposed scheme's configuration with this setting's swept
    /// file; every other field keeps the paper's value.
    fn config(self, swept: RegClass) -> RenamerConfig {
        let Setting(_, banks, counter_bits, predictor_entries, speculative_reuse) = self;
        let template = RenamerConfig {
            counter_bits,
            predictor_entries,
            speculative_reuse,
            ..RenamerConfig::baseline(64)
        };
        with_swept_banks(template, swept, BankConfig::new(banks.to_vec()))
    }
}

/// The layout every ablation but the bank split keeps: 52 conventional
/// registers and 4 with each of 1, 2 and 3 shadow cells, 64 in all (the
/// equal-count layout).
const EQUAL_COUNT: [usize; 4] = [52, 4, 4, 4];

/// Version-counter width: an n-bit counter allows 2^n - 1 reuses. The
/// bank layout stays the same, so narrower counters simply saturate
/// earlier and leave deeper shadow cells unused.
const COUNTER: [Setting; 3] = [
    Setting("1-bit counter", EQUAL_COUNT, 1, 512, true),
    Setting("2-bit counter", EQUAL_COUNT, 2, 512, true),
    Setting("3-bit counter", EQUAL_COUNT, 3, 512, true),
];

/// Speculative (non-redefining) reuse on vs safe reuses only.
const SPECULATION: [Setting; 2] = [
    Setting("safe reuses only", EQUAL_COUNT, 2, 512, false),
    Setting("with speculation (paper)", EQUAL_COUNT, 2, 512, true),
];

/// Register type predictor size.
const PREDICTOR: [Setting; 6] = [
    Setting("64 entries", EQUAL_COUNT, 2, 64, true),
    Setting("128 entries", EQUAL_COUNT, 2, 128, true),
    Setting("256 entries", EQUAL_COUNT, 2, 256, true),
    Setting("512 entries", EQUAL_COUNT, 2, 512, true),
    Setting("1024 entries", EQUAL_COUNT, 2, 1024, true),
    Setting("4096 entries", EQUAL_COUNT, 2, 4096, true),
];

/// Shadow-bank split at a fixed register count.
const BANKS: [Setting; 6] = [
    Setting("[52, 4, 4, 4]", [52, 4, 4, 4], 2, 512, true),
    Setting("[48, 8, 4, 4]", [48, 8, 4, 4], 2, 512, true),
    Setting("[48, 4, 4, 8]", [48, 4, 4, 8], 2, 512, true),
    Setting("[44, 12, 4, 4]", [44, 12, 4, 4], 2, 512, true),
    Setting("[52, 12, 0, 0]", [52, 12, 0, 0], 2, 512, true),
    Setting("[56, 0, 0, 8]", [56, 0, 0, 8], 2, 512, true),
];

/// Runs the counter-width ablation and writes `ablate_counter.json`.
pub fn counter(args: &Args) -> Result<(), ExpError> {
    ablate(
        args,
        "ablate_counter",
        "== Ablation: version counter width (equal count, 64 regs) ==",
        &COUNTER,
    )
}

/// Runs the speculation ablation and writes `ablate_speculation.json`.
pub fn speculation(args: &Args) -> Result<(), ExpError> {
    ablate(
        args,
        "ablate_speculation",
        "== Ablation: speculative (non-redefining) reuse, §IV-A2 (equal count, 64 regs) ==",
        &SPECULATION,
    )
}

/// Runs the predictor-size ablation and writes `ablate_predictor.json`.
pub fn predictor(args: &Args) -> Result<(), ExpError> {
    ablate(
        args,
        "ablate_predictor",
        "== Ablation: register type predictor size (equal count, 64 regs) ==",
        &PREDICTOR,
    )
}

/// Runs the bank-split ablation and writes `ablate_banks.json`.
pub fn banks(args: &Args) -> Result<(), ExpError> {
    ablate(
        args,
        "ablate_banks",
        "== Ablation: bank split at 64 registers (equal count) ==",
        &BANKS,
    )
}

#[derive(Serialize)]
struct AblateRow {
    setting: String,
    geomean_speedup: f64,
    mean_reuse_pct: f64,
}

/// Runs every setting on every kernel against the 64-register baseline
/// and writes `<name>.json`.
fn ablate(args: &Args, name: &str, title: &str, settings: &[Setting]) -> Result<(), ExpError> {
    outln!("{title}");
    let mut table = Table::with_headers(&["setting", "geomean speedup", "mean reuse %"]);
    table.numeric();
    let kernels = all_kernels();
    // One par_map over every (setting, kernel) point, so no setting waits
    // for the slowest kernel of the one before it.
    let points: Vec<(usize, usize)> = (0..settings.len())
        .flat_map(|s| (0..kernels.len()).map(move |k| (s, k)))
        .collect();
    let metrics = par_map(&points, |&(s, k)| {
        let k = &kernels[k];
        let base = args.report(&RunSpec::scheme(*k, Scheme::Baseline, 64, args.scale));
        let config = settings[s].config(swept_class(k.suite));
        let prop = args.report(&RunSpec::new(*k, RenamerKind::Reuse, config, args.scale));
        (
            prop.ipc() / base.ipc(),
            prop.rename.reuse_fraction() * 100.0,
        )
    });
    // Aggregate per setting in kernel order, as the per-setting sweep did.
    let mut rows = Vec::new();
    for (&Setting(label, ..), metrics) in settings.iter().zip(metrics.chunks(kernels.len())) {
        let speedups: Vec<f64> = metrics.iter().map(|m| m.0).collect();
        let reuse: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        let g = geomean(&speedups);
        let m = crate::stats::mean(&reuse);
        table.row(vec![label.into(), format!("{g:.4}"), format!("{m:.1}")]);
        rows.push(AblateRow {
            setting: label.into(),
            geomean_speedup: g,
            mean_reuse_pct: m,
        });
    }
    out!("{table}");
    save(&args.out_dir, name, &rows)
}
