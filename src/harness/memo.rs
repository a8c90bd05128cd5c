//! [`RunSpec`]: one detailed run as plain data, and [`RunMemo`]: an
//! in-process memo that simulates each distinct spec once.

use super::{experiment_config, renamer_config_for, swept_class, Scheme};
use regshare_analyze::compile_hints;
use regshare_core::{
    BaselineRenamer, EarlyReleaseRenamer, HintPolicy, Renamer, RenamerConfig, ReuseRenamer,
};
use regshare_sim::{Pipeline, SimConfig, SimError, SimReport};
use regshare_workloads::Kernel;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The renaming scheme a [`RunSpec`] builds from its [`RenamerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenamerKind {
    /// Conventional merged register file, release-on-commit.
    Baseline,
    /// The paper's physical-register-sharing scheme.
    Reuse,
    /// The Moudgill/Monreal-style early-release comparator (§VII).
    EarlyRelease,
}

impl RenamerKind {
    /// Builds this scheme's renamer.
    pub fn build(self, config: RenamerConfig) -> Box<dyn Renamer> {
        match self {
            RenamerKind::Baseline => Box::new(BaselineRenamer::new(config)),
            RenamerKind::Reuse => Box::new(ReuseRenamer::new(config)),
            RenamerKind::EarlyRelease => Box::new(EarlyReleaseRenamer::new(config)),
        }
    }
}

impl From<Scheme> for RenamerKind {
    fn from(scheme: Scheme) -> Self {
        match scheme {
            Scheme::Baseline => RenamerKind::Baseline,
            Scheme::Proposed => RenamerKind::Reuse,
        }
    }
}

/// One detailed simulation, named by everything its report depends on:
/// the kernel and the instruction budget it is built for, the renaming
/// scheme and its configuration, and the simulated core.
#[derive(Debug, Clone, Hash)]
pub struct RunSpec {
    /// The kernel to run.
    pub kernel: Kernel,
    /// The renaming scheme.
    pub renamer: RenamerKind,
    /// The scheme's register files, version counter and predictor.
    pub config: RenamerConfig,
    /// The simulated core.
    pub sim: SimConfig,
    /// Instruction budget the kernel's program is built for.
    pub scale: u64,
}

impl RunSpec {
    /// `kernel` under an explicit renamer on the experiments' core
    /// ([`experiment_config`]).
    pub fn new(kernel: Kernel, renamer: RenamerKind, config: RenamerConfig, scale: u64) -> Self {
        RunSpec {
            kernel,
            renamer,
            config,
            sim: experiment_config(scale),
            scale,
        }
    }

    /// The point [`super::run_kernel`] simulates for the same arguments.
    pub fn scheme(kernel: Kernel, scheme: Scheme, rf_regs: usize, scale: u64) -> Self {
        let config = renamer_config_for(scheme, rf_regs, swept_class(kernel.suite));
        RunSpec::new(kernel, scheme.into(), config, scale)
    }

    /// The pipeline the spec names, not yet run. A hint policy that
    /// reads static hints gets the program with its compiled hint table
    /// attached, so the table is derived from the spec, not named in it.
    pub fn pipeline(&self) -> Pipeline {
        let mut program = self.kernel.program(self.scale);
        if self.config.hint_policy != HintPolicy::DynamicOnly {
            let hints = compile_hints(&program);
            program = program.with_hints(hints);
        }
        Pipeline::new(program, self.build_renamer(), self.sim.clone())
    }

    /// A fresh renamer of the spec's scheme and configuration.
    pub fn build_renamer(&self) -> Box<dyn Renamer> {
        self.renamer.build(self.config.clone())
    }

    /// Simulates the run. Never cached: every call simulates.
    pub fn run(&self) -> Result<SimReport, SimError> {
        self.pipeline().run()
    }

    /// The memo key: 128-bit FNV-1a over the spec's derived [`Hash`]
    /// encoding, which feeds every field of every configuration struct
    /// in declaration order with length-prefixed collections (a field
    /// added later is covered without touching this code). Keys stay
    /// 16 bytes however large the spec; among the ~10³ distinct specs of
    /// one process a collision is as unlikely as 2⁻¹⁰⁸.
    fn key(&self) -> u128 {
        let mut hasher = Fnv128(FNV128_OFFSET);
        self.hash(&mut hasher);
        hasher.0
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?} renamer, int banks {:?}, fp banks {:?}, {:?} hints, scale {})",
            self.kernel.name,
            self.renamer,
            self.config.int_banks.sizes(),
            self.config.fp_banks.sizes(),
            self.config.hint_policy,
            self.scale
        )
    }
}

/// 128-bit FNV-1a. Unseeded, so a spec's key is the same in every run.
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

/// One key's once-cell: empty until a run of its spec succeeds. A worker
/// holds the lock while it simulates, so the others asking for the same
/// spec wait for its report instead of simulating it again.
type Slot = Mutex<Option<Arc<SimReport>>>;

/// An in-process memo of detailed runs: [`RunMemo::run`] simulates each
/// distinct [`RunSpec`] once and hands every later request the same
/// report. Failed runs are never cached.
#[derive(Default)]
pub struct RunMemo {
    slots: Mutex<BTreeMap<u128, Arc<Slot>>>,
    requested: AtomicU64,
    simulated: AtomicU64,
}

impl RunMemo {
    /// An empty memo.
    pub fn new() -> Self {
        RunMemo::default()
    }

    /// The report of `spec`, simulated on the first request for its key.
    /// The map lock is held only to find the key's slot, never during a
    /// simulation.
    pub fn run(&self, spec: &RunSpec) -> Result<Arc<SimReport>, SimError> {
        self.requested.fetch_add(1, Ordering::Relaxed);
        let key = spec.key();
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("no code panics while holding the memo map lock")
                .entry(key)
                .or_default(),
        );
        // A simulation that panicked poisons the slot but leaves it
        // empty, so the next request simply runs the spec again.
        let mut cell = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(report) = cell.as_ref() {
            return Ok(Arc::clone(report));
        }
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let report = Arc::new(spec.run()?);
        *cell = Some(Arc::clone(&report));
        Ok(report)
    }

    /// Requests made through [`RunMemo::run`].
    pub fn requested(&self) -> u64 {
        self.requested.load(Ordering::Relaxed)
    }

    /// Simulations [`RunMemo::run`] started: distinct specs, plus any
    /// re-runs of a spec whose earlier run failed.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }
}
