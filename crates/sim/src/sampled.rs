//! SMARTS-style sampled simulation: periodic detailed windows over a
//! functionally-warmed stream.
//!
//! A [`SamplePlan`] places detailed windows at fixed multiples of its
//! period. The engine makes **one** sequential functional pass over the
//! stream ([`FunctionalWarmer`]), snapshotting a [`Checkpoint`] a short
//! *lead* before each window; each window then runs independently from
//! its checkpoint — functional lead (warming the branch and reuse
//! predictors), detailed warmup (timing discarded), detailed measurement
//! (one IPC observation into a [`Welford`] estimator).
//!
//! The lead's instruction stream does not depend on the renaming scheme,
//! so [`run_window_schemes`] replays it once for every scheme measured
//! from one checkpoint: each scheme then starts its detailed phases from
//! the same warmed machine, memory and branch predictor, with the reuse
//! predictors its own config trained. [`run_window`] is its one-scheme
//! case.
//!
//! [`sample_windows`] runs each window as soon as the warming pass has
//! taken its checkpoint, so one checkpoint (a clone of the machine's
//! memory image plus the cache hierarchy) is live at a time however many
//! windows a paper-scale run has. Every window starts from a checkpoint
//! at a position that is a pure function of the plan, so its result
//! depends only on `(program, plan, config)`: a caller that spreads
//! kernels across workers writes the same bytes for any worker count.

use crate::bpred::BranchPredictor;
use crate::warm::{Checkpoint, FunctionalWarmer, Warmable};
use crate::{Pipeline, SimConfig, SimError};
use regshare_core::{Renamer, RenamerConfig, ReuseWarmer};
use regshare_isa::{Machine, Program};
use regshare_mem::MemoryHierarchy;
use regshare_stats::{SamplePlan, Welford};

/// Functional lead-in instructions warming the small predictors before
/// each window. Gshare/BTB and the reuse predictors converge well within
/// this horizon.
pub const DEFAULT_LEAD: u64 = 100_000;

/// How a sampled run carves the stream into detailed windows.
#[derive(Debug, Clone, Copy)]
pub struct SampledConfig {
    /// Window placement and sizing.
    pub plan: SamplePlan,
    /// Functional predictor-warming lead per window, in instructions.
    pub lead: u64,
}

impl SampledConfig {
    /// A sampled-run configuration with the default lead.
    pub fn new(plan: SamplePlan) -> Self {
        SampledConfig {
            plan,
            lead: DEFAULT_LEAD,
        }
    }
}

/// One detailed window: position plus per-phase instruction budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// First instruction of the detailed window.
    pub start: u64,
    /// Functional lead-in before `start` (clamped at stream begin).
    pub lead: u64,
    /// Detailed instructions whose timing is discarded.
    pub warmup: u64,
    /// Detailed instructions measured for the IPC observation.
    pub measure: u64,
}

/// The windows of a sampled run over `scale` instructions. Positions are
/// a pure function of `(plan, scale, lead)` — the determinism anchor.
pub fn window_specs(plan: &SamplePlan, scale: u64, lead: u64) -> Vec<WindowSpec> {
    plan.window_starts(scale)
        .into_iter()
        .map(|start| WindowSpec {
            start,
            lead: lead.min(start),
            warmup: plan.warmup,
            measure: plan.measure,
        })
        .collect()
}

/// A window ready to run: its spec plus the checkpoint it starts from.
#[derive(Debug, Clone)]
pub struct WindowJob {
    /// Functional snapshot at `spec.start - spec.lead`.
    pub checkpoint: Checkpoint,
    /// The window to run from it.
    pub spec: WindowSpec,
}

/// What one detailed window measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowResult {
    /// Window position (first measured-or-warmed instruction).
    pub start: u64,
    /// Instructions committed in the measured portion.
    pub instructions: u64,
    /// Cycles spent in the measured portion.
    pub cycles: u64,
    /// Micro-ops committed across warmup + measurement.
    pub uops: u64,
}

impl WindowResult {
    /// The window's IPC observation.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Runs one detailed window from its checkpoint: functional lead →
/// detailed warmup → detailed measurement.
///
/// The caller provides a *fresh* renamer; the lead-warmed reuse
/// predictors are installed into it before the pipeline starts. This is
/// [`run_window_schemes`] for one scheme, on a clone of the job.
///
/// # Errors
///
/// Propagates detailed-simulation failures ([`SimError`]).
///
/// # Panics
///
/// Panics if the checkpoint is not at `spec.start - spec.lead`, or on a
/// functional execution fault during the lead (program bug).
pub fn run_window(
    job: &WindowJob,
    renamer: Box<dyn Renamer>,
    renamer_config: &RenamerConfig,
    config: SimConfig,
) -> Result<WindowResult, SimError> {
    run_window_schemes(job.clone(), vec![(renamer, renamer_config)], &config)
        .pop()
        .expect("one result per scheme")
}

/// Runs one detailed window for several schemes from one functional
/// lead, returning one result per scheme in input order.
///
/// Each scheme is a *fresh* renamer plus the config its reuse predictors
/// are sized by. The lead warms one memory state, one branch predictor
/// and one [`ReuseWarmer`] per scheme config; every scheme then runs its
/// detailed warmup and measurement from that warmed state, with its own
/// config's predictors installed. Each scheme's result is therefore the
/// one a lead of its own would give, at one lead's cost.
///
/// # Errors
///
/// A scheme whose detailed simulation fails gets its [`SimError`] in its
/// slot; the other schemes still run.
///
/// # Panics
///
/// Panics if the checkpoint is not at `spec.start - spec.lead`, or on a
/// functional execution fault during the lead (program bug).
pub fn run_window_schemes(
    job: WindowJob,
    schemes: Vec<(Box<dyn Renamer>, &RenamerConfig)>,
    config: &SimConfig,
) -> Vec<Result<WindowResult, SimError>> {
    let WindowJob { checkpoint, spec } = job;
    assert_eq!(
        checkpoint.instruction,
        spec.start - spec.lead,
        "checkpoint not at the window's lead start"
    );
    let Checkpoint {
        mut machine,
        mut mem,
        ..
    } = checkpoint;
    let mut bpred = BranchPredictor::new(config.bpred);
    let mut reuse: Vec<ReuseWarmer> = schemes
        .iter()
        .map(|(_, rcfg)| ReuseWarmer::new(rcfg))
        .collect();
    if spec.lead > 0 && !machine.is_halted() {
        machine
            .run_observe(spec.start, |r| {
                mem.warm_retired(r);
                bpred.warm_retired(r);
                for w in &mut reuse {
                    w.warm_retired(r);
                }
            })
            .expect("functional lead execution");
    }
    if machine.is_halted() {
        // The program ended during (or before) the lead: the window has
        // nothing to measure. A zero-cycle result is excluded from the
        // IPC estimator by the caller. This arises when a clamped lead
        // hides the halt from the warming pass's own halt check (the
        // checkpoint sits before the halt, the window start after it).
        let empty = WindowResult {
            start: spec.start,
            instructions: 0,
            cycles: 0,
            uops: 0,
        };
        return schemes.iter().map(|_| Ok(empty)).collect();
    }
    let last = schemes.len().saturating_sub(1);
    let mut warmed = Some((mem.into_hierarchy(), bpred));
    schemes
        .into_iter()
        .zip(&reuse)
        .enumerate()
        .map(|(i, ((mut renamer, _), predictors))| {
            // Every scheme but the last runs on a clone of the warmed
            // state; the last takes it.
            let (mem, bpred) = if i == last {
                warmed.take()
            } else {
                warmed.clone()
            }
            .expect("warmed state outlives the schemes");
            renamer.install_predictors(predictors.predictor(), predictors.single_use());
            run_detailed(&machine, mem, bpred, renamer, config.clone(), spec)
        })
        .collect()
}

/// The detailed half of a window, from the lead-warmed state: warmup
/// (timing discarded), then measurement.
fn run_detailed(
    machine: &Machine,
    mem: MemoryHierarchy,
    bpred: BranchPredictor,
    renamer: Box<dyn Renamer>,
    mut config: SimConfig,
    spec: WindowSpec,
) -> Result<WindowResult, SimError> {
    // The budget is window-local: the pipeline starts at zero committed
    // instructions regardless of the checkpoint's stream position.
    config.max_instructions = if spec.warmup > 0 {
        spec.warmup
    } else {
        spec.measure
    };
    let mut pipe = Pipeline::from_checkpoint(machine, mem, bpred, renamer, config);
    let warm_report = if spec.warmup > 0 {
        let r = pipe.run()?;
        pipe.set_max_instructions(spec.warmup + spec.measure);
        r
    } else {
        pipe.report()
    };
    let full = if warm_report.halted {
        warm_report.clone()
    } else {
        pipe.run()?
    };
    Ok(WindowResult {
        start: spec.start,
        instructions: full.committed_instructions - warm_report.committed_instructions,
        cycles: full.cycles - warm_report.cycles,
        uops: full.committed_uops,
    })
}

/// The aggregate of a sampled run.
#[derive(Debug, Clone)]
pub struct SampledReport {
    /// Streaming estimator over per-window IPC observations.
    pub ipc: Welford,
    /// Every window's measurement, in stream order.
    pub windows: Vec<WindowResult>,
    /// Instructions fast-forwarded by the sequential warming pass.
    pub warm_instructions: u64,
    /// Instructions measured across all windows.
    pub detailed_instructions: u64,
}

impl SampledReport {
    /// The aggregate of `windows`, in stream order, after a warming pass
    /// of `warm_instructions`: each window that ran cycles is one IPC
    /// observation.
    pub fn new(windows: Vec<WindowResult>, warm_instructions: u64) -> Self {
        let mut ipc = Welford::new();
        let mut detailed_instructions = 0;
        for w in &windows {
            if w.cycles > 0 {
                ipc.record(w.ipc());
            }
            detailed_instructions += w.instructions;
        }
        SampledReport {
            ipc,
            windows,
            warm_instructions,
            detailed_instructions,
        }
    }

    /// Mean per-window IPC.
    pub fn ipc_mean(&self) -> f64 {
        self.ipc.mean()
    }

    /// 95% confidence half-width on the mean IPC.
    pub fn ipc_ci95(&self) -> f64 {
        self.ipc.ci95_half_width()
    }

    /// Whether `ipc` lies inside the 95% confidence interval.
    pub fn ci_covers(&self, ipc: f64) -> bool {
        (self.ipc_mean() - ipc).abs() <= self.ipc_ci95()
    }
}

/// Runs the sampled engine: one sequential warming pass that hands each
/// window's [`WindowJob`] to `run` as soon as its checkpoint is taken.
/// `run` returns the window's result under each of `N` schemes, and the
/// reports come back in the same order.
///
/// # Panics
///
/// Panics on a functional execution fault during warming.
pub fn sample_windows<const N: usize>(
    program: &Program,
    config: &SimConfig,
    sample: &SampledConfig,
    scale: u64,
    mut run: impl FnMut(WindowJob) -> [WindowResult; N],
) -> [SampledReport; N] {
    let specs = window_specs(&sample.plan, scale, sample.lead);
    let mut warmer = FunctionalWarmer::new(program.clone(), config);
    let mut windows: [Vec<WindowResult>; N] =
        std::array::from_fn(|_| Vec::with_capacity(specs.len()));
    for spec in specs {
        let at = spec.start - spec.lead;
        warmer.run_until(at).expect("functional warming");
        if warmer.retired() < at {
            // The program halted before this window's lead; no later
            // window can start either.
            break;
        }
        let results = run(WindowJob {
            checkpoint: warmer.checkpoint(),
            spec,
        });
        for (scheme, result) in windows.iter_mut().zip(results) {
            scheme.push(result);
        }
    }
    let warm_instructions = warmer.retired();
    windows.map(|w| SampledReport::new(w, warm_instructions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_core::{BaselineRenamer, ReuseRenamer};
    use regshare_isa::{reg, Asm};

    fn loop_program(iters: i64) -> Program {
        let mut a = Asm::new();
        a.li(reg::x(1), iters);
        a.li(reg::x(2), 0x4_0000);
        let top = a.label();
        a.bind(top);
        a.ld(reg::x(3), reg::x(2), 0);
        a.addi(reg::x(3), reg::x(3), 7);
        a.mul(reg::x(4), reg::x(3), reg::x(3));
        a.st(reg::x(4), reg::x(2), 8);
        a.subi(reg::x(1), reg::x(1), 1);
        a.bne(reg::x(1), reg::zero(), top);
        a.halt();
        a.assemble()
    }

    fn sampled(scheme_reuse: bool, scale: u64) -> SampledReport {
        let program = loop_program(1_000_000);
        let config = SimConfig {
            check_oracle: true,
            max_cycles: 0,
            ..SimConfig::default()
        };
        let rconfig = if scheme_reuse {
            RenamerConfig::paper(64)
        } else {
            RenamerConfig::baseline(64)
        };
        let sample = SampledConfig {
            plan: SamplePlan::new(2_000, 200, 500),
            lead: 1_000,
        };
        let [report] = sample_windows(&program, &config, &sample, scale, |job| {
            let renamer: Box<dyn Renamer> = if scheme_reuse {
                Box::new(ReuseRenamer::new(rconfig.clone()))
            } else {
                Box::new(BaselineRenamer::new(rconfig.clone()))
            };
            [run_window(&job, renamer, &rconfig, config.clone()).expect("window")]
        });
        report
    }

    #[test]
    fn window_specs_clamp_the_lead_at_stream_begin() {
        let specs = window_specs(&SamplePlan::new(1_000, 100, 200), 3_000, 400);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].lead, 0, "window at 0 has nothing to lead over");
        assert_eq!(specs[1].lead, 400);
        assert_eq!(specs[1].start, 1_000);
    }

    #[test]
    fn sampled_run_measures_every_window_with_oracle_checking() {
        let r = sampled(true, 20_000);
        assert_eq!(r.windows.len(), 10);
        assert_eq!(r.ipc.count(), 10);
        assert!(r.ipc_mean() > 0.1, "steady loop has nonzero IPC");
        assert!(r.warm_instructions >= 18_000 - 1_000);
        for w in &r.windows {
            // Commit width lets each budget boundary overshoot by a
            // couple of instructions, in either direction of the delta.
            assert!(w.instructions >= 495 && w.instructions < 505);
            assert!(w.cycles > 0);
        }
        assert_eq!(
            r.detailed_instructions,
            r.windows.iter().map(|w| w.instructions).sum::<u64>()
        );
    }

    #[test]
    fn sampled_results_are_bit_identical_across_runs() {
        let a = sampled(true, 12_000);
        let b = sampled(true, 12_000);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.ipc_mean().to_bits(), b.ipc_mean().to_bits());
    }

    #[test]
    fn baseline_scheme_samples_too() {
        let r = sampled(false, 8_000);
        assert_eq!(r.windows.len(), 4);
        assert!(r.ipc_mean() > 0.1);
    }

    #[test]
    fn shared_lead_matches_one_lead_per_scheme() {
        // sad at 48 registers: a kernel on which the two schemes time
        // differently, so a result handed to the wrong scheme shows.
        let kernel = regshare_workloads::all_kernels()
            .into_iter()
            .find(|k| k.name == "sad")
            .expect("sad kernel");
        let program = kernel.program(20_000);
        let config = SimConfig {
            check_oracle: true,
            max_cycles: 0,
            ..SimConfig::default()
        };
        let schemes = [RenamerConfig::baseline(48), RenamerConfig::paper(48)];
        let fresh = |s: usize| -> Box<dyn Renamer> {
            if s == 0 {
                Box::new(BaselineRenamer::new(schemes[0].clone()))
            } else {
                Box::new(ReuseRenamer::new(schemes[1].clone()))
            }
        };
        let mut warmer = FunctionalWarmer::new(program, &config);
        let mut to_halt = warmer.clone();
        to_halt.run_until(u64::MAX).expect("functional run");
        let halt = to_halt.retired();
        let spec = |start: u64| WindowSpec {
            start,
            lead: start.min(2_000),
            warmup: 200,
            measure: 1_000,
        };
        // A lead clamped at the stream's start, a full lead, and a lead
        // from before the halt to a start after it.
        let cases = [
            (spec(1_000), true),
            (spec(6_000), true),
            (spec(halt + 1_000), false),
        ];
        for (spec, measures) in cases {
            warmer.run_until(spec.start - spec.lead).expect("warming");
            assert_eq!(warmer.retired(), spec.start - spec.lead);
            let job = WindowJob {
                checkpoint: warmer.checkpoint(),
                spec,
            };
            let shared: Vec<WindowResult> = run_window_schemes(
                job.clone(),
                vec![(fresh(0), &schemes[0]), (fresh(1), &schemes[1])],
                &config,
            )
            .into_iter()
            .map(|r| r.expect("shared-lead window"))
            .collect();
            let separate: Vec<WindowResult> = (0..2)
                .map(|s| {
                    run_window(&job, fresh(s), &schemes[s], config.clone())
                        .expect("one-scheme window")
                })
                .collect();
            assert_eq!(shared, separate, "window at {}", spec.start);
            for r in &shared {
                assert_eq!(r.cycles > 0, measures, "window at {}", spec.start);
            }
            assert_eq!(shared[0] != shared[1], measures, "schemes must differ");
        }
    }

    #[test]
    fn window_entirely_past_the_halt_reports_zero() {
        // A clamped lead can put the checkpoint before the program's
        // halt while the window start lies beyond it; the window must
        // report a zero (excluded) observation, not deadlock.
        let program = loop_program(100); // ~600 instructions total
        let config = SimConfig::default();
        let rconfig = RenamerConfig::baseline(64);
        let warmer = FunctionalWarmer::new(program, &config);
        let job = WindowJob {
            checkpoint: warmer.checkpoint(), // at instruction 0
            spec: WindowSpec {
                start: 5_000,
                lead: 5_000,
                warmup: 50,
                measure: 100,
            },
        };
        let renamer = Box::new(BaselineRenamer::new(rconfig.clone()));
        let r = run_window(&job, renamer, &rconfig, config).expect("zero window");
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn halting_stream_stops_cleanly() {
        let program = loop_program(100); // ~600 instructions total
        let config = SimConfig::default();
        let rconfig = RenamerConfig::baseline(64);
        let sample = SampledConfig {
            plan: SamplePlan::new(400, 50, 100),
            lead: 100,
        };
        let [r] = sample_windows(&program, &config, &sample, 100_000, |job| {
            let renamer = Box::new(BaselineRenamer::new(rconfig.clone()));
            [run_window(&job, renamer, &rconfig, config.clone()).expect("window")]
        });
        assert!(r.windows.len() <= 2, "halt truncates the window list");
    }
}
