//! Ablation: register type predictor size.

use super::ablate::{ablate, reuse_config};
use super::common::{Args, ExpError};
use crate::core::BankConfig;
use crate::isa::RegClass;

/// Runs the ablation and writes `ablate_predictor.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let settings = [64usize, 128, 256, 512, 1024, 4096]
        .into_iter()
        .map(|entries| {
            let label = format!("{entries} entries");
            (label, move |swept: RegClass| {
                let banks = BankConfig::new(vec![52, 4, 4, 4]);
                reuse_config(swept, banks, 2, entries, true)
            })
        })
        .collect();
    ablate(
        args,
        "ablate_predictor",
        "== Ablation: register type predictor size (equal count, 64 regs) ==",
        settings,
    )
}
