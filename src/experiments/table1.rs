//! Table I: the simulated system configuration.

use super::common::{save, Args, ExpError};
use crate::sim::SimConfig;
use crate::stats::Table;

/// Prints the configuration table and writes `table1.json`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    outln!("== Table I: system configuration ==");
    let c = SimConfig::default();
    let mut table = Table::with_headers(&["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("ISA", "TRISC (ARM-flavoured 64-bit RISC)".into()),
        ("ROB", format!("{} entries", c.rob_entries)),
        ("Issue queue", format!("{} entries", c.iq_entries)),
        ("Decode/dispatch width", format!("{}", c.decode_width)),
        ("Fetch queue", format!("{} instructions", c.fetch_queue)),
        (
            "Branch predictor",
            format!(
                "gshare {} + {}-entry BTB",
                c.bpred.pht_entries, c.bpred.btb_entries
            ),
        ),
        (
            "Mispredict penalty",
            format!("{} cycles", c.mispredict_penalty),
        ),
        ("L1-D", "32 KB, 2-way, 1 cycle".into()),
        ("L1-I", "48 KB, 3-way, 1 cycle".into()),
        ("L2", "1 MB, 16-way, 12 cycles".into()),
        (
            "TLB",
            format!("{}-entry fully associative", c.mem.tlb.entries),
        ),
        ("Prefetcher", "stride, degree 1".into()),
        ("DRAM", "DDR3-1600-like, 16 banks, 8 KB rows".into()),
    ];
    for (k, v) in &rows {
        table.row(vec![(*k).into(), v.clone()]);
    }
    out!("{table}");
    save(
        &args.out_dir,
        "table1",
        &rows
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect::<Vec<_>>(),
    )
}
