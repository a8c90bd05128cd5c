//! Ablation: shadow-bank split at a fixed register count.

use super::ablate::{ablate, reuse_config};
use super::common::{Args, ExpError};
use crate::core::BankConfig;
use crate::isa::RegClass;

/// Runs the ablation and writes `ablate_banks.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let splits: Vec<Vec<usize>> = vec![
        vec![52, 4, 4, 4],
        vec![48, 8, 4, 4],
        vec![48, 4, 4, 8],
        vec![44, 12, 4, 4],
        vec![52, 12, 0, 0],
        vec![56, 0, 0, 8],
    ];
    let settings = splits
        .into_iter()
        .map(|sizes| {
            let label = format!("{sizes:?}");
            (label, move |swept: RegClass| {
                reuse_config(swept, BankConfig::new(sizes.clone()), 2, 512, true)
            })
        })
        .collect();
    ablate(
        args,
        "ablate_banks",
        "== Ablation: bank split at 64 registers (equal count) ==",
        settings,
    )
}
