//! Compares all three renaming schemes in the repository at a starved
//! register file — the paper's landscape in one table:
//!
//! * conventional baseline (release-on-commit, precise exceptions),
//! * the paper's physical register sharing (equal-area Table III banks,
//!   precise exceptions via shadow cells),
//! * Moudgill/Monreal-style early release (related work §VII — fast, but
//!   no precise exceptions).
//!
//! ```text
//! cargo run --release --example scheme_comparison
//! ```

use regshare::harness::{
    experiment_config, renamer_config_for, renamer_for, swept_class, RenamerKind, Scheme,
};
use regshare::sim::Pipeline;
use regshare::stats::{geomean, Table};
use regshare::workloads::all_kernels;

fn main() {
    let rf = 56;
    let scale = 60_000;
    let mut table = Table::with_headers(&[
        "kernel",
        "baseline",
        "sharing (equal area)",
        "early release",
        "sharing reuse%",
    ]);
    table.numeric();
    let (mut s_share, mut s_early) = (Vec::new(), Vec::new());
    for k in all_kernels() {
        let swept = swept_class(k.suite);
        let base = {
            let mut sim = Pipeline::new(
                k.program(scale),
                renamer_for(Scheme::Baseline, rf, swept),
                experiment_config(scale),
            );
            sim.run().expect("baseline").ipc()
        };
        let (share, reuse) = {
            let mut sim = Pipeline::new(
                k.program(scale),
                renamer_for(Scheme::Proposed, rf, swept),
                experiment_config(scale),
            );
            let r = sim.run().expect("sharing");
            (r.ipc(), r.rename.reuse_fraction())
        };
        let er = {
            // Early release renames conventionally, at the baseline's
            // configuration.
            let early =
                RenamerKind::EarlyRelease.build(renamer_config_for(Scheme::Baseline, rf, swept));
            let mut sim = Pipeline::new(k.program(scale), early, experiment_config(scale));
            sim.run().expect("early release").ipc()
        };
        s_share.push(share / base);
        s_early.push(er / base);
        table.row(vec![
            k.name.into(),
            format!("{base:.3}"),
            format!("{share:.3} ({:+.1}%)", (share / base - 1.0) * 100.0),
            format!("{er:.3} ({:+.1}%)", (er / base - 1.0) * 100.0),
            format!("{:.1}%", reuse * 100.0),
        ]);
    }
    println!("IPC at a {rf}-register swept file ({scale} instructions per run):\n");
    print!("{table}");
    println!(
        "\ngeomean speedup: sharing {:.3}, early release {:.3}",
        geomean(&s_share),
        geomean(&s_early)
    );
    println!(
        "sharing keeps precise exceptions (shadow cells); early release does not — \
         that is the paper's core trade-off."
    );
}
