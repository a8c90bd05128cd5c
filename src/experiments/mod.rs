//! The paper's evaluation as a library: the experiment subcommands, a
//! shared [`Args`] options struct, and the [`registry`] the
//! `experiments` binary dispatches through.
//!
//! Each subcommand is a function of `&Args`: most modules hold one, as
//! `run`; `motivation` holds Figures 1–3, `sweeps` Figures 10 and 10-EC,
//! and `ablate` the four ablations, each a table of settings. A subcommand prints its table
//! and writes machine-readable rows to `<out_dir>/<name>.json`. The
//! binary in `src/bin/experiments.rs` is a thin CLI: it parses flags
//! into [`Args`] and walks the registry.

mod ablate;
mod analyze;
mod common;
mod fig11;
mod fig12;
mod fig9;
mod hints;
mod inject;
mod motivation;
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

pub use common::{check_stdout, die, flag_value, write_json_atomic, Args, ExpError, RF_SIZES};
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
        ("fig1", motivation::fig1),
        ("fig2", motivation::fig2),
        ("fig3", motivation::fig3),
        ("table1", table1::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("fig9", fig9::run),
        ("fig10", sweeps::fig10),
        ("fig10ec", sweeps::fig10ec),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("analyze", analyze::run),
        ("hints", hints::run),
        ("ablate-counter", ablate::counter),
        ("ablate-speculation", ablate::speculation),
        ("ablate-predictor", ablate::predictor),
        ("ablate-banks", ablate::banks),
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
