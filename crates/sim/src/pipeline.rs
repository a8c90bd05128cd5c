//! The out-of-order pipeline driver: fetch → decode → rename → issue →
//! execute → writeback → commit, with full mis-speculation recovery.
//!
//! The driver is deliberately thin. All machine structures live in
//! [`CoreState`], the inter-stage queues live in [`StageIo`], the
//! per-stage logic lives under [`crate::stages`], and every flush path
//! funnels through [`crate::recovery`]. What remains here is the cycle
//! loop: sequencing the stage ticks in commit-first order, the run /
//! watchdog / report plumbing, and the public inspection API.

use crate::bpred::BranchPredictor;
use crate::cancel::{CancelToken, CANCEL_CHECK_INTERVAL};
use crate::core_state::{CoreState, RobEntry, SeqSet, StageIo, ThreadCtx};
use crate::errors::{PipelineSnapshot, SimError, TraceEvent};
use crate::inject::{InjectSchedule, InjectState, InjectStats};
use crate::profile::{StageSlot, StageTimer};
use crate::recovery;
use crate::rob::Rob;
use crate::stages::{
    CommitStage, DecodeStage, DispatchStage, ExecuteStage, FetchStage, IssueStage, RenameStage,
    StageOutcome, WritebackStage,
};
use crate::{CompletionWheel, FuPool, LoadStoreQueue, Scoreboard, SimConfig, SimReport};
use regshare_core::{RegFile, Renamer};
use regshare_isa::{HartId, Machine, Memory, Program, RegClass};
use regshare_mem::MemoryHierarchy;
use regshare_stats::Sampler;
use std::time::Instant;

/// Per-thread construction inputs for [`Pipeline::build`].
struct ThreadInit {
    program: Program,
    memory: Memory,
    fetch_pc: Option<u64>,
    oracle: Option<Machine>,
}

/// The cycle-accurate out-of-order core, hosting one or more hardware
/// threads over a shared physical register file.
pub struct Pipeline {
    core: CoreState,
    /// One latch set per hardware thread.
    lat: Vec<StageIo>,
    fetch: FetchStage,
    decode: DecodeStage,
    rename: RenameStage,
    dispatch: DispatchStage,
    issue: IssueStage,
    execute: ExecuteStage,
    writeback: WritebackStage,
    commit: CommitStage,
    cancel: Option<CancelToken>,
    /// A configuration rejected by [`SimConfig::validate`] at
    /// construction; surfaced as the run's error before any cycle is
    /// simulated (the infallible constructors build a sanitized stand-in
    /// that is never actually stepped).
    config_error: Option<SimError>,
}

impl Pipeline {
    /// Creates a single-thread pipeline at the program entry with cold
    /// caches and predictors.
    ///
    /// An invalid configuration (see [`SimConfig::validate`]) is not a
    /// panic: the error is held and returned by the first `run` call.
    /// `config.threads` must be 1 — use [`Pipeline::new_smt`] for
    /// multi-threaded cores.
    pub fn new(program: Program, renamer: Box<dyn Renamer>, config: SimConfig) -> Self {
        match Pipeline::new_smt(vec![program], renamer, config.clone()) {
            Ok(pipe) => pipe,
            Err(err) => Pipeline::poisoned(err, config),
        }
    }

    /// Creates an SMT pipeline: one program per hardware thread, all
    /// sharing the physical register file, issue queue, functional units
    /// and predictors through `renamer` (which must be built for the
    /// same thread count).
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] if the configuration fails
    /// [`SimConfig::validate`], `programs.len() != config.threads`, or
    /// the renamer's thread count disagrees.
    pub fn new_smt(
        programs: Vec<Program>,
        renamer: Box<dyn Renamer>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if programs.len() != config.threads {
            return Err(SimError::Config {
                what: format!(
                    "{} program(s) supplied for {} hardware thread(s)",
                    programs.len(),
                    config.threads
                ),
            });
        }
        if renamer.threads() != config.threads {
            return Err(SimError::Config {
                what: format!(
                    "renamer is built for {} thread(s) but config.threads is {}",
                    renamer.threads(),
                    config.threads
                ),
            });
        }
        let inits = programs
            .into_iter()
            .map(|program| ThreadInit {
                memory: program.data().clone(),
                fetch_pc: Some(program.entry() as u64),
                oracle: config.check_oracle.then(|| Machine::new(program.clone())),
                program,
            })
            .collect();
        let mem_timing = MemoryHierarchy::new(config.mem);
        let bpred = BranchPredictor::new(config.bpred);
        Ok(Pipeline::build(inits, renamer, config, mem_timing, bpred))
    }

    /// A pipeline that only exists to surface `err` from its first `run`
    /// call: built from a sanitized copy of the rejected configuration
    /// and a trivial program, never stepped.
    fn poisoned(err: SimError, config: SimConfig) -> Self {
        let config = config.sanitized();
        let mut a = regshare_isa::Asm::new();
        a.halt();
        let program = a.assemble();
        let renamer = Box::new(regshare_core::BaselineRenamer::new(
            regshare_core::RenamerConfig::baseline(32 * config.threads + 32)
                .with_threads(config.threads),
        ));
        let mut pipe = Pipeline::new_smt(vec![program; config.threads], renamer, config)
            .expect("sanitized configurations always build");
        pipe.config_error = Some(err);
        pipe
    }

    /// Creates a pipeline resuming mid-stream from a functional machine
    /// state, with pre-warmed memory timing and branch predictor (their
    /// hit/accuracy accounting is cleared so the run's report reflects
    /// only detailed simulation). The committed register file is seeded
    /// with the machine's architectural values through the renamer's
    /// retire-time map; the lockstep oracle (when enabled) starts from a
    /// clone of the same machine, so mid-stream windows get full
    /// divergence checking.
    pub fn from_checkpoint(
        machine: &Machine,
        mut mem_timing: MemoryHierarchy,
        mut bpred: BranchPredictor,
        renamer: Box<dyn Renamer>,
        config: SimConfig,
    ) -> Self {
        let mut config_error = config.validate().err();
        if config_error.is_none() && config.threads != 1 {
            config_error = Some(SimError::Config {
                what: "checkpoint resume is single-threaded; config.threads must be 1".into(),
            });
        }
        let config = if config_error.is_some() {
            let mut c = config.sanitized();
            c.threads = 1;
            c
        } else {
            config
        };
        mem_timing.reset_stats();
        bpred.reset_stats();
        let init = ThreadInit {
            program: machine.program().clone(),
            memory: machine.memory().clone(),
            fetch_pc: (!machine.is_halted()).then(|| machine.pc()),
            oracle: config.check_oracle.then(|| machine.clone()),
        };
        let mut pipe = Pipeline::build(vec![init], renamer, config, mem_timing, bpred);
        pipe.config_error = config_error;
        let mut seeds = Vec::new();
        if let Some(map) = pipe.core.renamer.arch_map() {
            for class in [RegClass::Int, RegClass::Fp] {
                for (r, tag) in map.iter_class(class) {
                    if !r.is_zero() {
                        seeds.push((tag, machine.reg_bits(r)));
                    }
                }
            }
        }
        for (tag, bits) in seeds {
            pipe.core.rf[tag.class.index()].write(tag.preg, tag.version, bits);
        }
        pipe
    }

    fn build(
        inits: Vec<ThreadInit>,
        renamer: Box<dyn Renamer>,
        config: SimConfig,
        mut mem_timing: MemoryHierarchy,
        bpred: BranchPredictor,
    ) -> Self {
        let mut renamer = renamer;
        if let Some(h) = inits[0].program.hints() {
            renamer.install_hints(h);
        }
        let rf = [
            RegFile::new(renamer.banks(RegClass::Int)),
            RegFile::new(renamer.banks(RegClass::Fp)),
        ];
        let scoreboard =
            Scoreboard::new(rf[0].len(), rf[1].len(), renamer.max_version() as usize + 1);
        for addr in &config.inject_page_faults {
            mem_timing.tlb_mut().inject_fault(*addr);
        }
        // Per-bank samplers only when sampling is on: the report of an
        // unsampled run carries none.
        let sampled_banks = |class| match config.occupancy_sample_interval {
            0 => 0,
            _ => renamer.banks(class).num_banks(),
        };
        let int_occupancy = (0..sampled_banks(RegClass::Int))
            .map(|k| Sampler::new(format!("int_bank{k}")))
            .collect();
        let fp_occupancy = (0..sampled_banks(RegClass::Fp))
            .map(|k| Sampler::new(format!("fp_bank{k}")))
            .collect();
        let n = inits.len();
        let rob_partition = config.rob_entries / n;
        let threads: Vec<ThreadCtx> = inits
            .into_iter()
            .enumerate()
            .map(|(tid, init)| ThreadCtx {
                hart: HartId::new(tid),
                program: init.program,
                memory: init.memory,
                oracle: init.oracle,
                rob: Rob::new(rob_partition, RobEntry::filler()),
                lsq: LoadStoreQueue::new(config.lq_entries / n, config.sq_entries / n),
                unresolved_branches: SeqSet::default(),
                fetch_pc: init.fetch_pc,
                fetch_stall_until: 0,
                pending_fill: None,
                halted: false,
                committed_instructions: 0,
            })
            .collect();
        let completions = CompletionWheel::with_in_flight_bound(config.rob_entries);
        let core = CoreState {
            bpred,
            fus: FuPool::new(&config),
            config,
            threads,
            renamer,
            rf,
            scoreboard,
            mem_timing,
            ready_q: SeqSet::default(),
            iq_len: 0,
            wake_scratch: Vec::new(),
            squash_scratch: Vec::new(),
            next_seq: 1,
            cycle: 0,
            completions,
            inject: None,
            pending_verify: false,
            audits: 0,
            halted: false,
            committed_instructions: 0,
            committed_uops: 0,
            mispredicts: 0,
            exceptions: 0,
            shadow_recovers: 0,
            expensive_repairs: 0,
            rename_stall_cycles: 0,
            last_commit_cycle: 0,
            int_occupancy,
            fp_occupancy,
            occupancy_scratch: Vec::new(),
            trace: Vec::new(),
            wall_seconds: 0.0,
            profile: Default::default(),
        };
        let iq_entries = core.config.iq_entries;
        Pipeline {
            lat: (0..n).map(|_| StageIo::default()).collect(),
            fetch: FetchStage::new(n),
            decode: DecodeStage,
            rename: RenameStage::new(n),
            dispatch: DispatchStage,
            issue: IssueStage::new(iq_entries),
            execute: ExecuteStage,
            writeback: WritebackStage,
            commit: CommitStage,
            cancel: None,
            config_error: None,
            core,
        }
    }

    /// Arms a cooperative cancellation token. The driver loop polls it
    /// every [`CANCEL_CHECK_INTERVAL`] cycles and stops with
    /// [`SimError::Cancelled`] once it is set, so an external deadline
    /// supervisor can abort a runaway job within a bounded number of
    /// cycles. Cancellation never alters the results of runs that
    /// complete.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Drains the recorded cycle trace (empty unless [`SimConfig::trace`]
    /// was set).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.core.trace)
    }

    // ---- diagnostics / fault injection ----

    /// Captures the current pipeline state for a diagnostic dump.
    pub fn snapshot(&self) -> PipelineSnapshot {
        self.core.snapshot(&self.lat)
    }

    /// Arms a deterministic fault-injection schedule. Events fire at the
    /// first opportunity at or after their scheduled cycle; all are
    /// architecturally transparent, so a lockstep oracle must still see a
    /// divergence-free run.
    pub fn set_inject(&mut self, schedule: InjectSchedule) {
        self.core.inject = Some(InjectState::new(schedule));
    }

    /// Counts of injected events actually delivered so far.
    pub fn inject_stats(&self) -> InjectStats {
        self.core
            .inject
            .as_ref()
            .map(|i| i.stats)
            .unwrap_or_default()
    }

    /// Number of invariant audits performed so far.
    pub fn audits(&self) -> u64 {
        self.core.audits
    }

    // ---- the cycle loop ----

    /// Runs one cycle, ticking the stages oldest-first so each stage
    /// sees the machine state its position in the pipe implies.
    fn step(&mut self) -> Result<(), SimError> {
        let mut timer = StageTimer::start(self.core.config.profile);
        recovery::poll_injections(&mut self.core, &mut self.lat);
        timer.lap(&mut self.core.profile, StageSlot::Housekeeping);
        let halted = self.commit.tick(&mut self.core, &mut self.lat)? == StageOutcome::Halted;
        timer.lap(&mut self.core.profile, StageSlot::Commit);
        if halted {
            return Ok(());
        }
        self.writeback.tick(&mut self.core, &mut self.lat)?;
        timer.lap(&mut self.core.profile, StageSlot::Writeback);
        recovery::deliver_pending_interrupt(&mut self.core, &mut self.lat);
        self.core.check_recovery_boundary(&self.lat)?;
        for tid in 0..self.core.threads.len() {
            let ctx = &self.core.threads[tid];
            let boundary = ctx
                .unresolved_branches
                .first()
                .unwrap_or(self.core.next_seq);
            let hart = ctx.hart;
            self.core.renamer.advance_nonspeculative_on(hart, boundary);
        }
        timer.lap(&mut self.core.profile, StageSlot::Housekeeping);
        self.issue
            .tick(&mut self.core, &mut self.lat, &mut self.execute)?;
        timer.lap(&mut self.core.profile, StageSlot::Issue);
        self.rename
            .tick(&mut self.core, &mut self.lat, &mut self.dispatch);
        timer.lap(&mut self.core.profile, StageSlot::Rename);
        self.decode.tick(&mut self.core, &mut self.lat);
        timer.lap(&mut self.core.profile, StageSlot::Decode);
        self.fetch.tick(&mut self.core, &mut self.lat);
        timer.lap(&mut self.core.profile, StageSlot::Fetch);
        self.core.audit_if_due(&self.lat)?;
        self.core.sample_occupancy();
        timer.lap(&mut self.core.profile, StageSlot::Observe);
        self.core.cycle += 1;
        Ok(())
    }

    /// Runs to completion (halt, instruction budget, or error).
    ///
    /// # Errors
    ///
    /// [`SimError::OracleMismatch`] if lockstep checking is enabled and
    /// the timing model diverges from the functional machine;
    /// [`SimError::CycleLimit`] / [`SimError::Deadlock`] on runaway
    /// simulations.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        if let Some(err) = &self.config_error {
            return Err(err.clone());
        }
        let started = Instant::now(); // det-lint: allow — wall-clock throughput report only
        let result = self.run_loop();
        self.core.wall_seconds += started.elapsed().as_secs_f64();
        result?;
        Ok(self.report())
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        loop {
            self.step()?;
            if self.core.halted {
                break;
            }
            if self.core.config.max_instructions > 0
                && self.core.committed_instructions >= self.core.config.max_instructions
            {
                break;
            }
            if self.core.cycle & (CANCEL_CHECK_INTERVAL - 1) == 0 {
                if let Some(token) = &self.cancel {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled {
                            cycle: self.core.cycle,
                        });
                    }
                }
            }
            if self.core.config.max_cycles > 0 && self.core.cycle >= self.core.config.max_cycles {
                return Err(SimError::CycleLimit {
                    cycles: self.core.config.max_cycles,
                });
            }
            // Forward-progress watchdog: convert a hang into a
            // structured diagnostic with a full pipeline snapshot
            // (the snapshot's head section carries operand readiness).
            if self.core.rob_nonempty() && self.core.cycle - self.core.last_commit_cycle > 100_000 {
                return Err(SimError::Deadlock {
                    cycle: self.core.cycle,
                    head_seq: self.core.oldest_inflight().map(|e| e.seq),
                    snapshot: Box::new(self.core.snapshot(&self.lat)),
                });
            }
        }
        if self.core.halted {
            // End-of-run precise-state check: the committed register file
            // and memory must match the functional oracle exactly.
            self.core.verify_arch_state(&self.lat)?;
        }
        Ok(())
    }

    /// Steps exactly `n` cycles (stopping early only on halt), without
    /// the budget/watchdog bookkeeping of [`Pipeline::run`] and without
    /// building a report. The allocation regression test warms a
    /// pipeline up, then drives steady-state cycles through this and
    /// asserts the heap stays untouched.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] surfaced by a stage or audit.
    pub fn run_cycles(&mut self, n: u64) -> Result<(), SimError> {
        if let Some(err) = &self.config_error {
            return Err(err.clone());
        }
        for _ in 0..n {
            if self.core.halted {
                break;
            }
            self.step()?;
        }
        Ok(())
    }

    /// Replaces the committed-instruction budget. The budget is absolute
    /// (compared against total committed instructions), so a run that
    /// stopped on it can be resumed by raising the budget and calling
    /// [`Pipeline::run`] again — the sampled engine uses this to split a
    /// window into a discarded warmup and a measured portion.
    pub fn set_max_instructions(&mut self, n: u64) {
        self.core.config.max_instructions = n;
    }

    /// The report for the simulation so far.
    pub fn report(&self) -> SimReport {
        SimReport {
            cycles: self.core.cycle,
            threads: self.core.threads.len(),
            per_thread_committed: self
                .core
                .threads
                .iter()
                .map(|ctx| ctx.committed_instructions)
                .collect(),
            committed_instructions: self.core.committed_instructions,
            committed_uops: self.core.committed_uops,
            halted: self.core.halted,
            mispredicts: self.core.mispredicts,
            exceptions: self.core.exceptions,
            shadow_recovers: self.core.shadow_recovers,
            expensive_repairs: self.core.expensive_repairs,
            rename_stall_cycles: self.core.rename_stall_cycles,
            branch_direction_accuracy: self.core.bpred.direction_accuracy().fraction(),
            l1d_hit_rate: self.core.mem_timing.l1d().hit_ratio().fraction(),
            l2_hit_rate: self.core.mem_timing.l2().hit_ratio().fraction(),
            tlb_hit_rate: self.core.mem_timing.tlb().hit_ratio().fraction(),
            rename: self.core.renamer.stats().clone(),
            predictor: self.core.renamer.predictor_stats(),
            hints: self.core.renamer.hint_stats(),
            int_occupancy: self.core.int_occupancy.clone(),
            fp_occupancy: self.core.fp_occupancy.clone(),
            wall_seconds: self.core.wall_seconds,
            profile: self.core.profile.clone(),
        }
    }

    /// Thread 0's committed data memory (for end-of-run output checks).
    pub fn memory(&self) -> &Memory {
        self.memory_of(0)
    }

    /// One thread's committed data memory.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not a resident thread.
    pub fn memory_of(&self, tid: usize) -> &Memory {
        &self.core.threads[tid].memory
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The renamer, for scheme-specific inspection.
    pub fn renamer(&self) -> &dyn Renamer {
        self.core.renamer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LsqError;
    use regshare_core::{BaselineRenamer, RenamerConfig, ReuseRenamer};
    use regshare_isa::{reg, Asm};

    fn baseline(regs: usize) -> Box<dyn Renamer> {
        Box::new(BaselineRenamer::new(RenamerConfig::baseline(regs)))
    }

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        a.li(reg::x(1), 5);
        a.addi(reg::x(1), reg::x(1), 1);
        a.halt();
        a.assemble()
    }

    #[test]
    fn max_instructions_stops_early() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.addi(reg::x(1), reg::x(1), 1);
        a.jmp(top);
        let mut cfg = SimConfig::test();
        cfg.max_instructions = 100;
        let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
        let report = sim.run().expect("bounded run");
        assert!(!report.halted);
        assert!(report.committed_instructions >= 100);
    }

    #[test]
    fn cycle_limit_reports_error() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let cfg = SimConfig {
            max_cycles: 500,
            ..SimConfig::default()
        };
        let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
        assert!(matches!(
            sim.run(),
            Err(SimError::CycleLimit { cycles: 500 })
        ));
    }

    #[test]
    fn report_available_mid_run() {
        let mut sim = Pipeline::new(tiny_program(), baseline(64), SimConfig::test());
        let before = sim.report();
        assert_eq!(before.committed_instructions, 0);
        sim.run().expect("run");
        let after = sim.report();
        assert_eq!(after.committed_instructions, 3);
        assert!(after.halted);
        assert!(sim.cycle() > 0);
    }

    #[test]
    fn occupancy_sampling_fills_samplers() {
        let mut a = Asm::new();
        a.li(reg::x(1), 200);
        let top = a.label();
        a.bind(top);
        a.subi(reg::x(1), reg::x(1), 1);
        a.bne(reg::x(1), reg::zero(), top);
        a.halt();
        let program = a.assemble();
        let run = |interval| {
            let mut cfg = SimConfig::test();
            cfg.occupancy_sample_interval = interval;
            let renamer = Box::new(ReuseRenamer::new(RenamerConfig::paper(64)));
            Pipeline::new(program.clone(), renamer, cfg)
                .run()
                .expect("run")
        };
        let report = run(4);
        assert_eq!(report.int_occupancy.len(), 4); // four banks
        assert!(!report.int_occupancy[0].is_empty());
        // The conventional bank always holds at least some committed state.
        assert!(report.int_occupancy[0].min().unwrap_or(0) > 0);
        let unsampled = run(0);
        assert!(unsampled.int_occupancy.is_empty() && unsampled.fp_occupancy.is_empty());
    }

    #[test]
    fn renamer_accessor_exposes_stats() {
        let mut sim = Pipeline::new(tiny_program(), baseline(64), SimConfig::test());
        sim.run().expect("run");
        assert!(sim.renamer().stats().renamed >= 3);
        assert_eq!(sim.renamer().banks(RegClass::Int).total(), 64);
    }

    #[test]
    fn sim_error_display_is_informative() {
        let e = SimError::OracleMismatch {
            cycle: 7,
            detail: "x".into(),
            snapshot: Box::default(),
        };
        assert!(format!("{e}").contains("cycle 7"));
        let e = SimError::Deadlock {
            cycle: 9,
            head_seq: Some(3),
            snapshot: Box::default(),
        };
        assert!(format!("{e}").contains('9'));
        let e = SimError::CycleLimit { cycles: 11 };
        assert!(format!("{e}").contains("11"));
        let e = SimError::Invariant {
            cycle: 13,
            what: "free list leak".into(),
            snapshot: Box::default(),
        };
        assert!(format!("{e}").contains("free list leak"));
        let e = SimError::Lsq {
            cycle: 15,
            error: LsqError {
                seq: 4,
                detail: "bad".into(),
            },
            snapshot: Box::default(),
        };
        let shown = format!("{e}");
        assert!(shown.contains("seq 4") && shown.contains("pipeline snapshot"));
    }

    #[test]
    fn snapshot_describes_live_state() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.addi(reg::x(1), reg::x(1), 1);
        a.jmp(top);
        let mut cfg = SimConfig::test();
        cfg.max_instructions = 50;
        let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
        sim.run().expect("bounded run");
        let snap = sim.snapshot();
        assert_eq!(snap.cycle, sim.cycle());
        assert!(snap.rob > 0, "infinite loop keeps the ROB busy");
        let head = snap.head.as_ref().expect("rob non-empty");
        assert!(!head.inst.is_empty());
        let shown = format!("{snap}");
        assert!(shown.contains("pipeline snapshot") && shown.contains("head:"));
    }

    #[test]
    fn fetch_stops_at_program_end_without_halt() {
        // Fall off the end: fetch stalls, rob drains, deadlock guard fires
        // only after its window — use max_instructions to stop first.
        let mut a = Asm::new();
        a.li(reg::x(1), 1);
        a.addi(reg::x(1), reg::x(1), 1);
        a.halt();
        let mut cfg = SimConfig::test();
        cfg.max_instructions = 2;
        let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
        let report = sim.run().expect("run");
        assert!(report.committed_instructions >= 2);
    }

    #[test]
    fn division_occupies_unpipelined_unit() {
        // Two back-to-back divides take at least 2x the divide latency.
        let mut a = Asm::new();
        a.li(reg::x(1), 100);
        a.li(reg::x(2), 3);
        a.sdiv(reg::x(3), reg::x(1), reg::x(2));
        a.sdiv(reg::x(4), reg::x(1), reg::x(2));
        a.halt();
        let cfg = SimConfig::test();
        let div_lat = cfg.fu(regshare_isa::OpClass::IntDiv).latency as u64;
        let mut sim = Pipeline::new(a.assemble(), baseline(64), cfg);
        let report = sim.run().expect("run");
        assert!(
            report.cycles >= 2 * div_lat,
            "two unpipelined divides must serialize: {} cycles",
            report.cycles
        );
    }

    #[test]
    fn store_load_forwarding_avoids_memory_latency() {
        // A load that forwards from an in-flight store never touches the
        // data memory hierarchy; a cold load to a fresh address pays the
        // full TLB-walk + DRAM round trip. Both programs pay the same
        // cold I-cache miss, so the difference isolates forwarding.
        let run = |forwarded: bool| {
            let mut a = Asm::new();
            a.li(reg::x(1), 0x4_0000);
            a.li(reg::x(2), 99);
            if forwarded {
                a.st(reg::x(2), reg::x(1), 0);
                a.ld(reg::x(3), reg::x(1), 0); // forwards from the store
            } else {
                a.nop();
                a.ld(reg::x(3), reg::x(1), 0); // cold miss all the way down
            }
            a.halt();
            let mut sim = Pipeline::new(a.assemble(), baseline(64), SimConfig::test());
            sim.run().expect("run").cycles
        };
        let fwd = run(true);
        let cold = run(false);
        assert!(
            fwd + 40 <= cold,
            "forwarding should beat a cold load: forwarded {fwd} vs cold {cold}"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::errors::TraceStage;
    use regshare_core::{BaselineRenamer, RenamerConfig};
    use regshare_isa::{reg, Asm};

    #[test]
    fn trace_records_ordered_stages_per_uop() {
        let mut a = Asm::new();
        a.li(reg::x(1), 3);
        a.addi(reg::x(2), reg::x(1), 4);
        a.mul(reg::x(3), reg::x(1), reg::x(2));
        a.halt();
        let mut cfg = SimConfig::test();
        cfg.trace = true;
        let renamer = Box::new(BaselineRenamer::new(RenamerConfig::baseline(64)));
        let mut sim = Pipeline::new(a.assemble(), renamer, cfg);
        sim.run().expect("run");
        let trace = sim.take_trace();
        assert!(!trace.is_empty());
        // Every committed uop passed all four stages, in time order.
        for seq in 1..=4u64 {
            let stages: Vec<(TraceStage, u64)> = trace
                .iter()
                .filter(|e| e.seq == seq)
                .map(|e| (e.stage, e.cycle))
                .collect();
            assert_eq!(stages.len(), 4, "seq {seq} has {stages:?}");
            for w in stages.windows(2) {
                assert!(w[0].0 < w[1].0, "stage order for seq {seq}: {stages:?}");
                assert!(w[0].1 <= w[1].1, "cycle order for seq {seq}: {stages:?}");
            }
        }
        // Dependent mul issues strictly after its producer's writeback.
        let wb_addi = trace
            .iter()
            .find(|e| e.seq == 2 && e.stage == TraceStage::Writeback)
            .expect("addi writeback")
            .cycle;
        let issue_mul = trace
            .iter()
            .find(|e| e.seq == 3 && e.stage == TraceStage::Issue)
            .expect("mul issue")
            .cycle;
        assert!(issue_mul >= wb_addi);
        // The trace is drained after take_trace.
        assert!(sim.take_trace().is_empty());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut a = Asm::new();
        a.halt();
        let renamer = Box::new(BaselineRenamer::new(RenamerConfig::baseline(64)));
        let mut sim = Pipeline::new(a.assemble(), renamer, SimConfig::test());
        sim.run().expect("run");
        assert!(sim.take_trace().is_empty());
    }
}
