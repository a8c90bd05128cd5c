//! Ablation: version-counter width.

use super::ablate::{ablate, reuse_config};
use super::common::{Args, ExpError};
use crate::core::BankConfig;
use crate::isa::RegClass;

/// Runs the ablation and writes `ablate_counter.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    // Version-counter width: an n-bit counter allows 2^n - 1 reuses; banks
    // sized to the same register count (52/4/4/4 = 64).
    let settings = [1u8, 2, 3]
        .into_iter()
        .map(|bits| {
            let label = format!("{bits}-bit counter");
            (label, move |swept: RegClass| {
                // Same bank layout throughout; narrower counters simply
                // saturate earlier and leave deeper shadow cells unused.
                let banks = BankConfig::new(vec![52, 4, 4, 4]);
                reuse_config(swept, banks, bits, 512, true)
            })
        })
        .collect();
    ablate(
        args,
        "ablate_counter",
        "== Ablation: version counter width (equal count, 64 regs) ==",
        settings,
    )
}
