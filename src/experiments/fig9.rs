//! Figure 9: shadow registers needed to cover a given fraction of
//! execution (fp suite).

use super::common::{save, Args, ExpError};
use crate::core::{BankConfig, RenamerConfig};
use crate::harness::{par_map, with_swept_banks, RenamerKind, RunSpec, FIXED_RF};
use crate::isa::RegClass;
use crate::stats::Table;
use crate::workloads::{suite_kernels, Suite};
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Row {
    coverage_pct: f64,
    one_shadow: u64,
    two_shadow: u64,
    three_shadow: u64,
}

/// Runs the occupancy sweep and writes `fig9.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Figure 9: shadow registers needed to cover % of execution (fp suite) ==");
    // Effectively unbounded shadow banks; sample bank occupancy per cycle.
    let banks = BankConfig::new(vec![64, 48, 48, 48]);
    let config = with_swept_banks(RenamerConfig::baseline(FIXED_RF), RegClass::Fp, banks);
    let mut samplers: Vec<crate::stats::Sampler> = Vec::new();
    let kernels = suite_kernels(Suite::Fp);
    let occupancies = par_map(&kernels, |k| {
        let mut spec = RunSpec::new(*k, RenamerKind::Reuse, config.clone(), args.scale);
        spec.sim.occupancy_sample_interval = 16;
        // Uncached: no other experiment samples occupancy, so a memo
        // entry would only hold these per-cycle samples until exit.
        spec.run()
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .fp_occupancy
    });
    // Merge in kernel order so the aggregated sample streams match the
    // serial sweep exactly.
    for occupancy in occupancies {
        for (i, s) in occupancy.into_iter().enumerate() {
            match samplers.get_mut(i) {
                Some(dst) => {
                    for v in s.samples() {
                        dst.record(*v);
                    }
                }
                None => samplers.push(s),
            }
        }
    }
    let mut table = Table::with_headers(&[
        "coverage %",
        "1-shadow regs",
        "2-shadow regs",
        "3-shadow regs",
    ]);
    table.numeric();
    let mut rows = Vec::new();
    for pct_cov in [50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        let need = |bank: usize| {
            samplers
                .get(bank)
                .and_then(|s| s.percentile(pct_cov))
                .unwrap_or(0)
        };
        table.row(vec![
            format!("{pct_cov}"),
            need(1).to_string(),
            need(2).to_string(),
            need(3).to_string(),
        ]);
        rows.push(Fig9Row {
            coverage_pct: pct_cov,
            one_shadow: need(1),
            two_shadow: need(2),
            three_shadow: need(3),
        });
    }
    out!("{table}");
    save(&args.out_dir, "fig9", &rows)
}
