//! The paper's evaluation as a library: one module per experiment
//! subcommand, a shared [`Args`] options struct, and the [`registry`]
//! the `experiments` binary dispatches through.
//!
//! Each subcommand module exposes `run(&Args)`, prints its table, and
//! writes machine-readable rows to `<out_dir>/<name>.json`. The binary
//! in `src/bin/experiments.rs` is a thin CLI: it parses flags into
//! [`Args`] and walks the registry.

mod ablate;
mod ablate_banks;
mod ablate_counter;
mod ablate_predictor;
mod ablate_speculation;
mod analyze;
mod common;
mod fig1;
mod fig10;
mod fig10ec;
mod fig11;
mod fig12;
mod fig2;
mod fig3;
mod fig9;
mod hints;
mod inject;
mod profile;
mod sample;
mod serve;
mod shape;
mod smt;
mod submit;
mod sweeps;
mod table1;
mod table2;
mod table3;

pub use common::{die, flag_value, write_json_atomic, Args, ExpError, RF_SIZES};
pub use serve::SimExecutor;

/// An experiment entry point. Harness failures (result-file I/O, the
/// job service) surface as [`ExpError`] values; the binary prints them
/// and exits non-zero.
pub type ExperimentFn = fn(&Args) -> Result<(), ExpError>;

/// Every experiment in canonical order — `all` runs them in exactly
/// this sequence, so the registry order is part of the reproducibility
/// contract.
pub fn registry() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig1", fig1::run),
        ("fig2", fig2::run),
        ("fig3", fig3::run),
        ("table1", table1::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig10ec", fig10ec::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("analyze", analyze::run),
        ("hints", hints::run),
        ("ablate-counter", ablate_counter::run),
        ("ablate-speculation", ablate_speculation::run),
        ("ablate-predictor", ablate_predictor::run),
        ("ablate-banks", ablate_banks::run),
        ("inject", inject::run),
        ("smt", smt::run),
        // Host-time attribution: wall-clock payload, so `all` skips it.
        ("profile", profile::run),
        // Two-speed engine: the sampled registry `all --sample` runs.
        ("sample", sample::run),
        ("shape", shape::run),
        // Job service: `serve` blocks on a listener and `submit` talks
        // to one, so `all` skips both (like the sampled pair).
        ("serve", serve::run),
        ("submit", submit::run),
    ]
}
