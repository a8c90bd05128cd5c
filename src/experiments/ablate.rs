//! The shared ablation harness and renamer configuration builder used by
//! the four `ablate-*` subcommands.

use super::common::{save, Args, ExpError};
use crate::core::{BankConfig, RenamerConfig};
use crate::harness::{par_map, swept_class, with_swept_banks, RenamerKind, RunSpec, Scheme};
use crate::isa::RegClass;
use crate::stats::{geomean, Table};
use crate::workloads::all_kernels;
use serde::Serialize;

#[derive(Serialize)]
struct AblateRow {
    setting: String,
    geomean_speedup: f64,
    mean_reuse_pct: f64,
}

/// Runs every setting on every kernel against the 64-register baseline.
/// `settings` pairs a label with the proposed scheme's configuration for
/// a swept register class.
pub(crate) fn ablate<F>(
    args: &Args,
    name: &str,
    title: &str,
    settings: Vec<(String, F)>,
) -> Result<(), ExpError>
where
    F: Fn(RegClass) -> RenamerConfig + Sync,
{
    println!("{title}");
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
        let config = (settings[s].1)(swept_class(k.suite));
        let prop = args.report(&RunSpec::new(*k, RenamerKind::Reuse, config, args.scale));
        (
            prop.ipc() / base.ipc(),
            prop.rename.reuse_fraction() * 100.0,
        )
    });
    // Aggregate per setting in kernel order, as the per-setting sweep did.
    let mut rows = Vec::new();
    for ((label, _), metrics) in settings.into_iter().zip(metrics.chunks(kernels.len())) {
        let speedups: Vec<f64> = metrics.iter().map(|m| m.0).collect();
        let reuse: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        let g = geomean(&speedups);
        let m = crate::stats::mean(&reuse);
        table.row(vec![label.clone(), format!("{g:.4}"), format!("{m:.1}")]);
        rows.push(AblateRow {
            setting: label,
            geomean_speedup: g,
            mean_reuse_pct: m,
        });
    }
    print!("{table}");
    save(&args.out_dir, name, &rows)
}

/// The proposed scheme's configuration with `swept_banks` as the swept
/// file and the given version-counter width, predictor size and
/// speculation switch; every other field keeps the paper's value.
pub(crate) fn reuse_config(
    swept: RegClass,
    swept_banks: BankConfig,
    counter_bits: u8,
    predictor_entries: usize,
    speculative_reuse: bool,
) -> RenamerConfig {
    let template = RenamerConfig {
        counter_bits,
        predictor_entries,
        speculative_reuse,
        ..RenamerConfig::baseline(64)
    };
    with_swept_banks(template, swept, swept_banks)
}
