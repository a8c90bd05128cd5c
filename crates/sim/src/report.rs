//! Simulation results.

use regshare_core::{HintStats, PredictorStats, RenameStats};
use regshare_stats::Sampler;
use std::fmt;

/// Everything a simulation run produced.
///
/// The experiment harness consumes these to regenerate the paper's tables
/// and figures; `Display` prints a human-readable summary.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions (main micro-ops; repairs excluded).
    pub committed_instructions: u64,
    /// Committed micro-ops (repairs included).
    pub committed_uops: u64,
    /// Hardware thread contexts the run was configured with.
    pub threads: usize,
    /// Committed instructions per hardware thread (length = `threads`).
    pub per_thread_committed: Vec<u64>,
    /// Whether the program ran to its `halt`.
    pub halted: bool,
    /// Branch mispredictions taken.
    pub mispredicts: u64,
    /// Precise exceptions taken (injected page faults).
    pub exceptions: u64,
    /// Shadow-cell recover commands issued during recoveries.
    pub shadow_recovers: u64,
    /// Repair micro-ops that needed the 3-step shadow path (Fig. 8 2(a)).
    pub expensive_repairs: u64,
    /// Cycles the rename stage stalled for lack of physical registers.
    pub rename_stall_cycles: u64,
    /// Conditional-branch direction accuracy in `[0, 1]`.
    pub branch_direction_accuracy: f64,
    /// L1-D hit rate in `[0, 1]`.
    pub l1d_hit_rate: f64,
    /// L2 hit rate in `[0, 1]`.
    pub l2_hit_rate: f64,
    /// Data-TLB hit rate in `[0, 1]`.
    pub tlb_hit_rate: f64,
    /// Renaming-scheme statistics.
    pub rename: RenameStats,
    /// Register-type predictor accuracy (empty for the baseline).
    pub predictor: PredictorStats,
    /// Speculation accounting split by grant source — static proofs
    /// versus the dynamic predictor (all-zero under `DynamicOnly` without
    /// an installed hint table, and for non-sharing schemes).
    pub hints: HintStats,
    /// Per-bank occupancy samples for the integer file (Fig. 9), indexed
    /// by shadow-cell count. Empty unless sampling was enabled.
    pub int_occupancy: Vec<Sampler>,
    /// Per-bank occupancy samples for the fp file.
    pub fp_occupancy: Vec<Sampler>,
    /// Host wall-clock seconds spent inside [`Pipeline::run`]
    /// (0 for reports taken before any run).
    ///
    /// [`Pipeline::run`]: crate::Pipeline::run
    pub wall_seconds: f64,
    /// Per-stage cost attribution: deterministic work counters always,
    /// host-time shares when [`crate::SimConfig::profile`] was set.
    pub profile: crate::StageProfile,
}

impl SimReport {
    /// Committed instructions per cycle, aggregated over all threads.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.cycles as f64
        }
    }

    /// Committed instructions per cycle for one hardware thread
    /// (0 for out-of-range thread ids).
    pub fn per_thread_ipc(&self, tid: usize) -> f64 {
        match self.per_thread_committed.get(tid) {
            Some(&committed) if self.cycles > 0 => committed as f64 / self.cycles as f64,
            _ => 0.0,
        }
    }

    /// Simulator throughput: committed micro-ops per host wall-second.
    pub fn uops_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.committed_uops as f64 / self.wall_seconds
        }
    }

    /// Simulator speed: simulated cycles per host wall-second.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / self.wall_seconds
        }
    }

    /// Simulator throughput: committed *instructions* (repairs excluded)
    /// per host wall-second of detailed simulation.
    pub fn instructions_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.wall_seconds
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} insts={} ipc={:.4} halted={}",
            self.cycles,
            self.committed_instructions,
            self.ipc(),
            self.halted
        )?;
        if self.threads > 1 {
            write!(f, "threads: {}", self.threads)?;
            for (tid, committed) in self.per_thread_committed.iter().enumerate() {
                write!(f, " t{tid}={committed} ({:.4})", self.per_thread_ipc(tid))?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "branches: mispredicts={} dir-acc={:.2}%",
            self.mispredicts,
            self.branch_direction_accuracy * 100.0
        )?;
        writeln!(
            f,
            "rename: alloc={} reuse={} (safe={} spec={}) blocked={} stalls={} repairs={}",
            self.rename.allocations,
            self.rename.reuses,
            self.rename.safe_reuses,
            self.rename.speculative_reuses,
            self.rename.blocked_reuses,
            self.rename.stalls,
            self.rename.repairs
        )?;
        writeln!(
            f,
            "recovery: exceptions={} shadow-recovers={} expensive-repairs={}",
            self.exceptions, self.shadow_recovers, self.expensive_repairs
        )?;
        writeln!(
            f,
            "memory: l1d={:.1}% l2={:.1}% tlb={:.1}%",
            self.l1d_hit_rate * 100.0,
            self.l2_hit_rate * 100.0,
            self.tlb_hit_rate * 100.0
        )?;
        write!(
            f,
            "host: wall={:.3}s throughput={:.0} insts/s, {:.0} uops/s ({:.0} cycles/s)",
            self.wall_seconds,
            self.instructions_per_second(),
            self.uops_per_second(),
            self.cycles_per_second()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> SimReport {
        SimReport {
            cycles: 0,
            committed_instructions: 0,
            committed_uops: 0,
            threads: 1,
            per_thread_committed: vec![0],
            halted: false,
            mispredicts: 0,
            exceptions: 0,
            shadow_recovers: 0,
            expensive_repairs: 0,
            rename_stall_cycles: 0,
            branch_direction_accuracy: 0.0,
            l1d_hit_rate: 0.0,
            l2_hit_rate: 0.0,
            tlb_hit_rate: 0.0,
            rename: RenameStats::default(),
            predictor: PredictorStats::default(),
            hints: HintStats::default(),
            int_occupancy: Vec::new(),
            fp_occupancy: Vec::new(),
            wall_seconds: 0.0,
            profile: Default::default(),
        }
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(empty().ipc(), 0.0);
    }

    #[test]
    fn ipc_is_insts_over_cycles() {
        let mut r = empty();
        r.cycles = 100;
        r.committed_instructions = 150;
        assert!((r.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_multiline_and_nonempty() {
        let s = format!("{}", empty());
        assert!(s.lines().count() >= 5);
        assert!(s.contains("uops/s"));
    }

    #[test]
    fn throughput_handles_zero_wall_time() {
        let r = empty();
        assert_eq!(r.uops_per_second(), 0.0);
        assert_eq!(r.cycles_per_second(), 0.0);
    }

    #[test]
    fn throughput_is_uops_over_seconds() {
        let mut r = empty();
        r.committed_uops = 3000;
        r.committed_instructions = 2800;
        r.cycles = 1500;
        r.wall_seconds = 2.0;
        assert!((r.uops_per_second() - 1500.0).abs() < 1e-9);
        assert!((r.instructions_per_second() - 1400.0).abs() < 1e-9);
        assert!((r.cycles_per_second() - 750.0).abs() < 1e-9);
    }

    #[test]
    fn per_thread_ipc_splits_committed() {
        let mut r = SimReport {
            cycles: 100,
            committed_instructions: 150,
            committed_uops: 150,
            threads: 2,
            per_thread_committed: vec![100, 50],
            halted: true,
            ..empty()
        };
        assert!((r.per_thread_ipc(0) - 1.0).abs() < 1e-12);
        assert!((r.per_thread_ipc(1) - 0.5).abs() < 1e-12);
        assert_eq!(r.per_thread_ipc(2), 0.0);
        let shown = format!("{r}");
        assert!(shown.contains("threads: 2"));
        assert!(shown.contains("t1=50"));
        r.threads = 1;
        r.per_thread_committed = vec![150];
        assert!(!format!("{r}").contains("threads:"));
    }
}
