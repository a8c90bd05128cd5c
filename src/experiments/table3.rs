//! Table III: equal-area register-file configurations, paper row vs the
//! crate's own solver.

use super::common::{save, Args, ExpError, RF_SIZES};
use crate::area;
use crate::core::BankConfig;
use crate::stats::Table;
use serde::Serialize;

#[derive(Serialize)]
struct Table3Row {
    baseline_regs: usize,
    paper_banks: Vec<usize>,
    solver_banks: Vec<usize>,
}

/// Prints the configuration table and writes `table3.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Table III: equal-area register file configurations ==");
    let ports = area::RegFilePorts::default();
    let mut table = Table::with_headers(&["baseline", "paper (0/1/2/3-sh)", "our solver"]);
    let mut rows = Vec::new();
    for n in RF_SIZES {
        let paper = BankConfig::paper_row(n);
        let solved = area::equal_area_config(n, ports);
        table.row(vec![
            n.to_string(),
            format!("{:?}", paper.sizes()),
            format!("{:?}", solved.sizes()),
        ]);
        rows.push(Table3Row {
            baseline_regs: n,
            paper_banks: paper.sizes().to_vec(),
            solver_banks: solved.sizes().to_vec(),
        });
    }
    out!("{table}");
    save(&args.out_dir, "table3", &rows)
}
