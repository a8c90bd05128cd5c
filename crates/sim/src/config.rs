//! Simulator configuration (Table I of the paper).

use crate::SimError;
use regshare_isa::{OpClass, MAX_HARTS};
use regshare_mem::HierarchyConfig;
use serde::{Deserialize, Serialize};

/// Which order the issue stage considers operand-ready micro-ops in
/// (the [`crate::IssueSelect`] implementation to instantiate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IssuePolicyKind {
    /// Oldest (lowest sequence number) first — the classic age-ordered
    /// select matrix, and the behaviour the paper's results assume.
    #[default]
    OldestFirst,
    /// Youngest first — a deliberately adversarial select order that
    /// exercises dependence tracking under maximal reordering.
    YoungestFirst,
}

/// How mis-speculation recovery is charged (the
/// [`crate::RecoveryPolicy`] implementation to instantiate). Both
/// policies restore identical architectural state; they differ only in
/// the extra redirect cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RecoveryPolicyKind {
    /// Walk the rename checkpoints youngest-first and charge
    /// `SimConfig::recover_bandwidth` shadow-cell recover commands per
    /// cycle (§IV-C1) — the paper's model and the default.
    #[default]
    CheckpointWalk,
    /// Squash-all: a flash restore of every shadow cell inside the
    /// redirect bubble, charging no extra cycles — the idealised
    /// checkpoint-RAM recovery conventional cores approximate.
    SquashAll,
}

/// Which hardware thread gets the fetch stage each cycle when several
/// are resident (the [`crate::FetchPolicy`] implementation to
/// instantiate). Irrelevant — and byte-identical — with one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FetchPolicyKind {
    /// Rotate through the threads cycle by cycle, skipping ineligible
    /// ones — the simplest fair arbiter, and the default.
    #[default]
    RoundRobin,
    /// ICOUNT (Tullsen et al., ISCA '96): fetch for the eligible thread
    /// with the fewest micro-ops in flight, so fast-moving threads are
    /// not starved by a stalled one clogging the shared window.
    Icount,
}

/// One functional-unit pool: how many units execute an [`OpClass`], at
/// what latency, and whether they accept a new operation every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuConfig {
    /// Number of identical units.
    pub count: usize,
    /// Execution latency in cycles.
    pub latency: u32,
    /// `true` = fully pipelined (initiation interval 1); `false` = the
    /// unit is busy for the whole latency (divides).
    pub pipelined: bool,
}

/// Full simulator configuration; [`SimConfig::default`] reproduces
/// Table I of the paper (2 GHz ARM-class core).
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct SimConfig {
    /// Resident hardware threads (SMT contexts) sharing the pipeline.
    /// Each thread gets its own rename/retire maps, ROB partition and
    /// load/store-queue partition; the physical register file, issue
    /// queue, functional units and predictors are shared.
    pub threads: usize,
    /// Fetch-thread arbitration when `threads > 1`.
    pub fetch_policy: FetchPolicyKind,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Fetch-queue capacity (32 in Table I).
    pub fetch_queue: usize,
    /// Instructions decoded per cycle (3 in Table I).
    pub decode_width: usize,
    /// Instructions renamed/dispatched per cycle (3 in Table I).
    pub rename_width: usize,
    /// Micro-ops issued per cycle.
    pub issue_width: usize,
    /// Micro-ops committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (128 in Table I).
    pub rob_entries: usize,
    /// Issue-queue entries (40 in Table I).
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Minimum branch-misprediction redirect penalty in cycles (15 in
    /// Table I); shadow-cell recovery adds on top for the proposed scheme.
    pub mispredict_penalty: u32,
    /// Fixed cost of entering/leaving an exception handler.
    pub exception_penalty: u32,
    /// Shadow-cell recover commands executed per recovery cycle.
    pub recover_bandwidth: u32,
    /// Issue-stage selection order.
    pub issue_policy: IssuePolicyKind,
    /// Mis-speculation recovery timing model.
    pub recovery_policy: RecoveryPolicyKind,
    /// Functional-unit pools.
    pub fus: Vec<(OpClass, FuConfig)>,
    /// Branch predictor configuration.
    pub bpred: crate::BranchPredictorConfig,
    /// Memory hierarchy configuration.
    pub mem: HierarchyConfig,
    /// Stop after this many committed instructions (0 = unlimited).
    pub max_instructions: u64,
    /// Hard safety limit on simulated cycles (0 = unlimited).
    pub max_cycles: u64,
    /// Step a functional `Machine` in lockstep at commit and report any
    /// divergence as an error. Slower; invaluable in tests.
    pub check_oracle: bool,
    /// Cycle interval between register-bank occupancy samples (Fig. 9);
    /// 0 disables sampling.
    pub occupancy_sample_interval: u64,
    /// Cycle interval between invariant audits of the renamer's free-list
    /// / PRT / map-table bookkeeping and the pipeline's IQ/ROB wakeup
    /// state; 0 (the default) disables auditing. A violation stops the
    /// run with `SimError::Invariant` and a pipeline snapshot.
    pub audit_interval: u64,
    /// Data addresses whose page faults once, on first access (exercises
    /// precise-exception recovery).
    pub inject_page_faults: Vec<u64>,
    /// Record per-micro-op stage timestamps (dispatch/issue/writeback/
    /// commit), retrievable with `Pipeline::take_trace`. Capped at
    /// 100 000 events to bound memory.
    pub trace: bool,
    /// Attribute host wall-clock time to pipeline stages (the
    /// [`crate::StageProfile`] in the report). Reads the host clock per
    /// stage per cycle, so it is off by default; the deterministic
    /// per-stage work counters are always on regardless.
    #[serde(default)]
    pub profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: 1,
            fetch_policy: FetchPolicyKind::default(),
            fetch_width: 3,
            fetch_queue: 32,
            decode_width: 3,
            rename_width: 3,
            issue_width: 6,
            commit_width: 3,
            rob_entries: 128,
            iq_entries: 40,
            lq_entries: 32,
            sq_entries: 32,
            mispredict_penalty: 15,
            exception_penalty: 40,
            recover_bandwidth: 4,
            issue_policy: IssuePolicyKind::default(),
            recovery_policy: RecoveryPolicyKind::default(),
            fus: vec![
                (
                    OpClass::IntAlu,
                    FuConfig {
                        count: 2,
                        latency: 1,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::IntMul,
                    FuConfig {
                        count: 1,
                        latency: 3,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::IntDiv,
                    FuConfig {
                        count: 1,
                        latency: 12,
                        pipelined: false,
                    },
                ),
                (
                    OpClass::FpAlu,
                    FuConfig {
                        count: 2,
                        latency: 3,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::FpMul,
                    FuConfig {
                        count: 1,
                        latency: 4,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::FpDiv,
                    FuConfig {
                        count: 1,
                        latency: 12,
                        pipelined: false,
                    },
                ),
                (
                    OpClass::Load,
                    FuConfig {
                        count: 2,
                        latency: 1,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::Store,
                    FuConfig {
                        count: 1,
                        latency: 1,
                        pipelined: true,
                    },
                ),
                (
                    OpClass::Branch,
                    FuConfig {
                        count: 1,
                        latency: 1,
                        pipelined: true,
                    },
                ),
            ],
            bpred: crate::BranchPredictorConfig::default(),
            mem: HierarchyConfig::default(),
            max_instructions: 0,
            max_cycles: 0,
            check_oracle: false,
            occupancy_sample_interval: 0,
            audit_interval: 0,
            inject_page_faults: Vec::new(),
            trace: false,
            profile: false,
        }
    }
}

impl SimConfig {
    /// The functional-unit pool for an op class.
    ///
    /// # Panics
    ///
    /// Panics if the class has no configured pool.
    pub fn fu(&self, class: OpClass) -> FuConfig {
        self.fus
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| panic!("no functional unit configured for {class}"))
    }

    /// A configuration for fast unit tests: oracle checking on, modest
    /// structure sizes, tight cycle cap.
    pub fn test() -> Self {
        SimConfig {
            check_oracle: true,
            max_cycles: 2_000_000,
            ..SimConfig::default()
        }
    }

    /// Scales every in-order stage to `width` instructions per cycle
    /// (fetch/decode/rename/commit) with a `2×width` out-of-order issue
    /// stage — the machine-width knob of the scaling experiments.
    pub fn with_width(mut self, width: usize) -> Self {
        self.fetch_width = width;
        self.decode_width = width;
        self.rename_width = width;
        self.commit_width = width;
        self.issue_width = 2 * width;
        self
    }

    /// Sets the resident hardware-thread count; pair with a renamer
    /// built for the same count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Checks the configuration for values that would otherwise surface
    /// as panics (or silent nonsense) deep inside the pipeline: zero
    /// stage widths, a thread count outside `1..=MAX_HARTS`, or shared
    /// structures too small to partition across the threads. Every
    /// pipeline, sampled-simulation and service entry point calls this
    /// before building hardware state.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |what: String| Err(SimError::Config { what });
        if !(1..=MAX_HARTS).contains(&self.threads) {
            return fail(format!(
                "threads must be in 1..={MAX_HARTS}, got {}",
                self.threads
            ));
        }
        for (name, value) in [
            ("fetch_width", self.fetch_width),
            ("decode_width", self.decode_width),
            ("rename_width", self.rename_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("fetch_queue", self.fetch_queue),
            ("iq_entries", self.iq_entries),
        ] {
            if value == 0 {
                return fail(format!("{name} must be nonzero"));
            }
        }
        // Each thread's ROB partition must hold at least one worst-case
        // rename group, or rename can never make progress.
        let rob_part = self.rob_entries / self.threads;
        if rob_part < crate::stages::WORST_CASE_UOPS {
            return fail(format!(
                "rob_entries ({}) split across {} thread(s) leaves {rob_part} \
                 entries per thread; at least {} are needed",
                self.rob_entries,
                self.threads,
                crate::stages::WORST_CASE_UOPS
            ));
        }
        if self.lq_entries / self.threads == 0 || self.sq_entries / self.threads == 0 {
            return fail(format!(
                "lq_entries ({}) and sq_entries ({}) must provide at least one \
                 entry per thread ({} threads)",
                self.lq_entries, self.sq_entries, self.threads
            ));
        }
        if self.iq_entries < self.rename_width {
            return fail(format!(
                "iq_entries ({}) must not be smaller than rename_width ({})",
                self.iq_entries, self.rename_width
            ));
        }
        Ok(())
    }

    /// A safely-buildable stand-in for an invalid configuration: the
    /// pipeline constructor keeps its infallible signature by building
    /// this instead and holding the [`SimError::Config`] until `run`.
    pub(crate) fn sanitized(&self) -> SimConfig {
        let mut c = self.clone();
        c.threads = c.threads.clamp(1, MAX_HARTS);
        c.fetch_width = c.fetch_width.max(1);
        c.decode_width = c.decode_width.max(1);
        c.rename_width = c.rename_width.max(1);
        c.issue_width = c.issue_width.max(1);
        c.commit_width = c.commit_width.max(1);
        c.fetch_queue = c.fetch_queue.max(1);
        c.iq_entries = c.iq_entries.max(c.rename_width);
        c.rob_entries = c
            .rob_entries
            .max(crate::stages::WORST_CASE_UOPS * c.threads);
        c.lq_entries = c.lq_entries.max(c.threads);
        c.sq_entries = c.sq_entries.max(c.threads);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = SimConfig::default();
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.iq_entries, 40);
        assert_eq!(c.decode_width, 3);
        assert_eq!(c.rename_width, 3);
        assert_eq!(c.fetch_queue, 32);
        assert_eq!(c.mispredict_penalty, 15);
    }

    #[test]
    fn validate_accepts_default_and_rejects_nonsense() {
        assert!(SimConfig::default().validate().is_ok());
        for threads in 1..=MAX_HARTS {
            assert!(SimConfig::default()
                .with_threads(threads)
                .validate()
                .is_ok());
        }

        let reject = |c: SimConfig, needle: &str| {
            let err = c.validate().expect_err("should be rejected");
            match err {
                SimError::Config { what } => {
                    assert!(what.contains(needle), "{what:?} lacks {needle:?}")
                }
                other => panic!("expected SimError::Config, got {other:?}"),
            }
        };
        reject(SimConfig::default().with_threads(0), "threads");
        reject(SimConfig::default().with_threads(MAX_HARTS + 1), "threads");
        reject(SimConfig::default().with_width(0), "fetch_width");
        reject(
            SimConfig {
                commit_width: 0,
                ..SimConfig::default()
            },
            "commit_width",
        );
        let mut c = SimConfig::default().with_threads(4);
        c.rob_entries = 8;
        reject(c, "rob_entries");
        let mut c = SimConfig::default().with_threads(4);
        c.lq_entries = 2;
        reject(c, "lq_entries");
    }

    #[test]
    fn with_width_scales_every_stage() {
        let c = SimConfig::default().with_width(8);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.rename_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.issue_width, 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sanitized_always_validates() {
        let mut c = SimConfig::default().with_width(0).with_threads(9);
        c.rob_entries = 0;
        c.iq_entries = 0;
        c.lq_entries = 0;
        c.sq_entries = 0;
        assert!(c.validate().is_err());
        assert!(c.sanitized().validate().is_ok());
    }

    #[test]
    fn fu_lookup() {
        let c = SimConfig::default();
        assert_eq!(c.fu(OpClass::IntAlu).count, 2);
        assert!(!c.fu(OpClass::IntDiv).pipelined);
    }

    #[test]
    fn every_op_class_has_a_unit() {
        let c = SimConfig::default();
        for class in [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAlu,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
        ] {
            assert!(c.fu(class).count > 0);
        }
    }
}
