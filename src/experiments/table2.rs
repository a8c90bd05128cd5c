//! Table II: area of the register files and the scheme's overhead
//! structures.

use super::common::{save, Args, ExpError};
use crate::area;
use crate::stats::Table;

/// Prints the area table and writes `table2.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Table II: area of register files and overhead structures ==");
    let rows = area::table2();
    let mut table = Table::with_headers(&["unit", "configuration", "area (mm^2)"]);
    table.numeric();
    for r in &rows {
        table.row(vec![
            r.unit.clone(),
            r.configuration.clone(),
            format!("{:.3e}", r.area_mm2),
        ]);
    }
    let overhead: f64 = rows[2..].iter().map(|r| r.area_mm2).sum();
    table.row(vec![
        "Total overhead".into(),
        "-".into(),
        format!("{overhead:.3e}"),
    ]);
    out!("{table}");
    save(&args.out_dir, "table2", &rows)
}
