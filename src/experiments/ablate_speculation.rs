//! Ablation: speculative (non-redefining) reuse on vs safe reuses only.

use super::ablate::{ablate, reuse_config};
use super::common::{Args, ExpError};
use crate::core::BankConfig;
use crate::isa::RegClass;

/// Runs the ablation and writes `ablate_speculation.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    let settings = [
        ("safe reuses only", false),
        ("with speculation (paper)", true),
    ]
    .into_iter()
    .map(|(label, spec)| {
        (label.to_string(), move |swept: RegClass| {
            let banks = BankConfig::new(vec![52, 4, 4, 4]);
            reuse_config(swept, banks, 2, 512, spec)
        })
    })
    .collect();
    ablate(
        args,
        "ablate_speculation",
        "== Ablation: speculative (non-redefining) reuse, §IV-A2 (equal count, 64 regs) ==",
        settings,
    )
}
