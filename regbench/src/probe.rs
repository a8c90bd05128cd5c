//! The per-layer probe of the traced run: every layer of the simulator
//! is called directly, through its public functions, on one workload's
//! kernel mix, and each call is timed from here.
//!
//! * **core** — a [`TimingRenamer`] wraps the real scheme and times
//!   `rename`, `commit` and `squash` inside an otherwise normal
//!   `Pipeline::run`.
//! * **sim stages** — the simulator's own `SimConfig::profile` switch.
//! * **isa and warming** — `Machine::run` and `FunctionalWarmer::
//!   run_until` in 2 M-instruction chunks, a checkpoint and a detailed
//!   window from it.
//! * **mem and bpred** — each kernel's functional stream is replayed
//!   into `MemoryHierarchy::access_*`, `MemWarm` and
//!   `BranchPredictor::predict`/`update`; the cost per call is the batch
//!   time minus the same loop with a no-op body.
//!
//! The wrapped and the profiled runs must reproduce the plain run's
//! deterministic report fields exactly, so the trace measures the same
//! program the end-to-end numbers do.

use crate::host::median;
use crate::trace::Tracer;
use regshare::core::{
    BankConfig, HintStats, MapTable, PredictorStats, RegTypePredictor, RenameStats, Renamer,
    SingleUsePredictor, SquashOutcome, UopVec,
};
use regshare::harness::{experiment_config, renamer_config_for, renamer_for, swept_class, Scheme};
use regshare::isa::{HartId, Inst, Machine, RegClass, Retired, ShareHintTable};
use regshare::mem::MemoryHierarchy;
use regshare::sim::{
    run_window, BranchPredictor, FunctionalWarmer, MemWarm, Pipeline, SimReport, Warmable,
    WindowJob, WindowSpec, NUM_STAGE_SLOTS, STAGE_SLOT_NAMES,
};
use regshare::stats::Ratio;
use regshare::workloads::Kernel;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Swept register-file size of every probed point (the paper's
/// headline 64-register configuration).
pub const PROBE_RF: usize = 64;

/// Functional warming advances in chunks of this many instructions, the
/// granularity a sampled run checkpoints at.
const WARM_CHUNK: u64 = 2_000_000;

/// Detailed warmup and measured instructions of the probed window
/// (the sampled engine's defaults).
const WINDOW: (u64, u64) = (2_000, 10_000);

/// Time and call counts the [`TimingRenamer`] accumulates.
#[derive(Default)]
pub(crate) struct CoreCounters {
    /// Nanoseconds inside `rename`.
    pub rename_ns: Cell<u64>,
    /// `rename` calls.
    pub rename_calls: Cell<u64>,
    /// `rename` calls that stalled (returned `None`).
    pub rename_fails: Cell<u64>,
    /// Nanoseconds inside `commit`.
    pub commit_ns: Cell<u64>,
    /// `commit` calls.
    pub commit_calls: Cell<u64>,
    /// Nanoseconds inside `squash_after`.
    pub squash_ns: Cell<u64>,
    /// `squash_after` calls.
    pub squash_calls: Cell<u64>,
    /// Gated stall retries charged through `note_stall`.
    pub note_stall_calls: Cell<u64>,
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A [`Renamer`] that forwards every call — defaulted methods included,
/// so the wrapped scheme's own overrides stay in force — and times the
/// three operations of the rename interface.
pub(crate) struct TimingRenamer {
    inner: Box<dyn Renamer>,
    counters: Rc<CoreCounters>,
}

impl TimingRenamer {
    /// Wraps `inner`, accumulating into `counters`.
    pub(crate) fn new(inner: Box<dyn Renamer>, counters: Rc<CoreCounters>) -> TimingRenamer {
        TimingRenamer { inner, counters }
    }

    fn timed_rename(&mut self, r: Option<UopVec>, t: Instant) -> Option<UopVec> {
        let c = &self.counters;
        add(&c.rename_ns, since(t));
        add(&c.rename_calls, 1);
        add(&c.rename_fails, r.is_none() as u64);
        r
    }
}

impl Renamer for TimingRenamer {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn rename_on(&mut self, hart: HartId, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        let t = Instant::now();
        let r = self.inner.rename_on(hart, seq, pc, inst);
        self.timed_rename(r, t)
    }

    fn rename(&mut self, seq: u64, pc: u64, inst: &Inst) -> Option<UopVec> {
        let t = Instant::now();
        let r = self.inner.rename(seq, pc, inst);
        self.timed_rename(r, t)
    }

    fn commit_on(&mut self, hart: HartId, seq: u64) {
        let t = Instant::now();
        self.inner.commit_on(hart, seq);
        add(&self.counters.commit_ns, since(t));
        add(&self.counters.commit_calls, 1);
    }

    fn commit(&mut self, seq: u64) {
        let t = Instant::now();
        self.inner.commit(seq);
        add(&self.counters.commit_ns, since(t));
        add(&self.counters.commit_calls, 1);
    }

    fn squash_after_on(&mut self, hart: HartId, seq: u64) -> &SquashOutcome {
        let t = Instant::now();
        let out = self.inner.squash_after_on(hart, seq);
        add(&self.counters.squash_ns, since(t));
        add(&self.counters.squash_calls, 1);
        out
    }

    fn squash_after(&mut self, seq: u64) -> &SquashOutcome {
        let t = Instant::now();
        let out = self.inner.squash_after(seq);
        add(&self.counters.squash_ns, since(t));
        add(&self.counters.squash_calls, 1);
        out
    }

    fn state_epoch(&self) -> u64 {
        self.inner.state_epoch()
    }

    fn note_stall_on(&mut self, hart: HartId) {
        add(&self.counters.note_stall_calls, 1);
        self.inner.note_stall_on(hart)
    }

    fn note_stall(&mut self) {
        add(&self.counters.note_stall_calls, 1);
        self.inner.note_stall()
    }

    fn stats(&self) -> &RenameStats {
        self.inner.stats()
    }

    fn free_regs(&self, class: RegClass) -> usize {
        self.inner.free_regs(class)
    }

    fn in_use_per_bank(&self, class: RegClass) -> Vec<usize> {
        self.inner.in_use_per_bank(class)
    }

    fn in_use_per_bank_into(&self, class: RegClass, out: &mut Vec<usize>) {
        self.inner.in_use_per_bank_into(class, out)
    }

    fn allocated_total(&self, class: RegClass) -> usize {
        self.inner.allocated_total(class)
    }

    fn banks(&self, class: RegClass) -> &BankConfig {
        self.inner.banks(class)
    }

    fn max_version(&self) -> u8 {
        self.inner.max_version()
    }

    fn predictor_stats(&self) -> PredictorStats {
        self.inner.predictor_stats()
    }

    fn on_operands_read(&mut self, seq: u64) {
        self.inner.on_operands_read(seq)
    }

    fn advance_nonspeculative_on(&mut self, hart: HartId, boundary: u64) {
        self.inner.advance_nonspeculative_on(hart, boundary)
    }

    fn advance_nonspeculative(&mut self, boundary: u64) {
        self.inner.advance_nonspeculative(boundary)
    }

    fn on_writeback(&mut self, seq: u64) {
        self.inner.on_writeback(seq)
    }

    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }

    fn arch_map_on(&self, hart: HartId) -> Option<&MapTable> {
        self.inner.arch_map_on(hart)
    }

    fn arch_map(&self) -> Option<&MapTable> {
        self.inner.arch_map()
    }

    fn install_predictors(
        &mut self,
        predictor: &RegTypePredictor,
        single_use: &SingleUsePredictor,
    ) {
        self.inner.install_predictors(predictor, single_use)
    }

    fn install_hints(&mut self, hints: &ShareHintTable) {
        self.inner.install_hints(hints)
    }

    fn hint_stats(&self) -> HintStats {
        self.inner.hint_stats()
    }
}

/// The deterministic fields of a report, as text: what a wrapped or
/// profiled run must reproduce byte for byte.
fn deterministic_fields(r: &SimReport) -> String {
    format!(
        "cycles={} insts={} uops={} halted={} mispredicts={} exceptions={} \
         shadow_recovers={} expensive_repairs={} rename_stalls={} renamed={} \
         allocations={} reuses={} repairs={} releases={} squashed={} work={:?}",
        r.cycles,
        r.committed_instructions,
        r.committed_uops,
        r.halted,
        r.mispredicts,
        r.exceptions,
        r.shadow_recovers,
        r.expensive_repairs,
        r.rename_stall_cycles,
        r.rename.renamed,
        r.rename.allocations,
        r.rename.reuses,
        r.rename.repairs,
        r.rename.releases,
        r.rename.squashed,
        r.profile.work,
    )
}

/// What to probe: the workload's kernels, in the seed's order, at the
/// workload's detailed and functional instruction budgets.
pub struct ProbeSpec {
    /// Kernels in probe order.
    pub kernels: Vec<Kernel>,
    /// Instruction budget of each detailed point and replayed stream.
    pub point_scale: u64,
    /// Instruction budget of the functional warming probe.
    pub warm_scale: u64,
}

/// Accumulators of one probe pass.
#[derive(Default)]
struct Pass {
    build_ms: Vec<f64>,
    new_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    window_ms: Vec<f64>,
    plain_s: f64,
    wrapped_s: f64,
    cycles: u64,
    uops: u64,
    log_ipc: f64,
    points: u64,
    allocations: u64,
    reuses: u64,
    stage_nanos: [u64; NUM_STAGE_SLOTS],
    stage_work: [u64; NUM_STAGE_SLOTS],
    step_s: f64,
    stepped: u64,
    warm_s: f64,
    warmed: u64,
    inst_ns: (f64, u64),
    data_ns: (f64, u64),
    memwarm_ns: (f64, u64),
    bpred_ns: (f64, u64),
    l1d: Ratio,
    l2: Ratio,
    tlb: Ratio,
    direction: Ratio,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host cost of one `Instant::now()`: the part of the wrapper's own
/// clock reads that falls inside each timed renamer call, subtracted
/// from it.
fn clock_read_ns() -> f64 {
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    since(t) as f64 / n as f64
}

/// Runs one probe pass over `spec` and returns the layer metrics.
/// `Err` describes a wrapped or profiled run that diverged from the
/// plain run, or a simulation error.
pub fn pass(
    spec: &ProbeSpec,
    tracer: &mut Tracer,
    run: u64,
) -> Result<BTreeMap<String, f64>, String> {
    let mut p = Pass::default();
    let counters = Rc::new(CoreCounters::default());
    let pass_span = tracer.open("probe pass", "bench", None, run);
    for kernel in &spec.kernels {
        let t = Instant::now();
        let program = kernel.program(spec.point_scale);
        p.build_ms.push(secs(t) * 1e3);
        tracer.record(kernel.name, "workloads", Some(pass_span), run, secs(t));
        let swept = swept_class(kernel.suite);
        for scheme in [Scheme::Baseline, Scheme::Proposed] {
            let label = format!("{} {}", kernel.name, scheme.label());
            let config = experiment_config(spec.point_scale);
            let err = |e| format!("{label}: {e}");

            let t = Instant::now();
            let mut sim = Pipeline::new(
                program.clone(),
                renamer_for(scheme, PROBE_RF, swept),
                config.clone(),
            );
            p.new_ms.push(secs(t) * 1e3);
            let t = Instant::now();
            let plain = sim.run().map_err(err)?;
            p.plain_s += secs(t);
            let span = tracer.record(&label, "sim", Some(pass_span), run, secs(t));
            tracer.count(span, "cycles", plain.cycles as f64);
            tracer.count(span, "uops", plain.committed_uops as f64);

            let before = (counters.rename_calls.get(), counters.commit_calls.get());
            let wrapped =
                TimingRenamer::new(renamer_for(scheme, PROBE_RF, swept), Rc::clone(&counters));
            let mut sim = Pipeline::new(program.clone(), Box::new(wrapped), config.clone());
            let t = Instant::now();
            let traced = sim.run().map_err(err)?;
            p.wrapped_s += secs(t);
            let span = tracer.record(&label, "core", Some(pass_span), run, secs(t));
            tracer.count(
                span,
                "rename_calls",
                (counters.rename_calls.get() - before.0) as f64,
            );
            tracer.count(
                span,
                "commit_calls",
                (counters.commit_calls.get() - before.1) as f64,
            );

            let mut profiled_config = config;
            profiled_config.profile = true;
            let mut sim = Pipeline::new(
                program.clone(),
                renamer_for(scheme, PROBE_RF, swept),
                profiled_config,
            );
            let profiled = sim.run().map_err(err)?;

            let want = deterministic_fields(&plain);
            for (what, got) in [("wrapped", &traced), ("profiled", &profiled)] {
                if deterministic_fields(got) != want {
                    return Err(format!(
                        "{label}: the {what} run diverged from the plain run:\n  {}\n  {want}",
                        deterministic_fields(got)
                    ));
                }
            }
            p.cycles += plain.cycles;
            p.uops += plain.committed_uops;
            p.log_ipc += plain.ipc().max(1e-12).ln();
            p.points += 1;
            p.allocations += plain.rename.allocations;
            p.reuses += plain.rename.reuses;
            for s in 0..NUM_STAGE_SLOTS {
                p.stage_nanos[s] += profiled.profile.nanos[s];
                p.stage_work[s] += plain.profile.work[s];
            }
        }
        warm_probe(kernel, spec, &mut p, tracer, pass_span, run)?;
        replay_probe(&program, spec, &mut p, tracer, pass_span, run)?;
    }
    tracer.close(pass_span);
    Ok(metrics(&p, &counters))
}

/// Functional execution, warming, a checkpoint and one detailed window.
fn warm_probe(
    kernel: &Kernel,
    spec: &ProbeSpec,
    p: &mut Pass,
    tracer: &mut Tracer,
    parent: usize,
    run: u64,
) -> Result<(), String> {
    let program = kernel.program(spec.warm_scale);
    let config = experiment_config(spec.warm_scale);
    let mut machine = Machine::new(program.clone());
    let t = Instant::now();
    machine
        .run(spec.warm_scale)
        .map_err(|e| format!("{}: functional run: {e}", kernel.name))?;
    p.step_s += secs(t);
    p.stepped += machine.retired();
    let span = tracer.record(kernel.name, "isa", Some(parent), run, secs(t));
    tracer.count(span, "instructions", machine.retired() as f64);

    let mut warmer = FunctionalWarmer::new(program, &config);
    let mut checkpoint = None;
    let mut target = 0;
    let half = spec.warm_scale / 2;
    while target < spec.warm_scale && !warmer.is_halted() {
        target = (target + WARM_CHUNK).min(spec.warm_scale);
        if checkpoint.is_none() && target > half {
            warmer
                .run_until(half)
                .map_err(|e| format!("{}: warming: {e}", kernel.name))?;
            let t = Instant::now();
            checkpoint = Some(warmer.checkpoint());
            p.checkpoint_ms.push(secs(t) * 1e3);
        }
        warmer
            .run_until(target)
            .map_err(|e| format!("{}: warming: {e}", kernel.name))?;
    }
    p.warm_s += warmer.wall_seconds();
    p.warmed += warmer.retired();
    let span = tracer.record(
        kernel.name,
        "sim.warm",
        Some(parent),
        run,
        warmer.wall_seconds(),
    );
    tracer.count(span, "instructions", warmer.retired() as f64);

    let Some(checkpoint) = checkpoint else {
        return Ok(());
    };
    let swept = swept_class(kernel.suite);
    let job = WindowJob {
        spec: WindowSpec {
            start: checkpoint.instruction,
            lead: 0,
            warmup: WINDOW.0,
            measure: WINDOW.1,
        },
        checkpoint,
    };
    let t = Instant::now();
    run_window(
        &job,
        renamer_for(Scheme::Proposed, PROBE_RF, swept),
        &renamer_config_for(Scheme::Proposed, PROBE_RF, swept),
        config,
    )
    .map_err(|e| format!("{}: window: {e}", kernel.name))?;
    p.window_ms.push(secs(t) * 1e3);
    tracer.record(kernel.name, "sim.window", Some(parent), run, secs(t));
    Ok(())
}

/// Times `body` over `items` and subtracts the same loop with a no-op
/// body; returns (ns, calls).
fn per_call<T>(items: &[T], mut body: impl FnMut(usize, &T)) -> (f64, u64) {
    let t = Instant::now();
    for (i, item) in items.iter().enumerate() {
        black_box(i);
        black_box(item);
    }
    let empty = since(t);
    let t = Instant::now();
    for (i, item) in items.iter().enumerate() {
        body(i, item);
    }
    let full = since(t);
    (full.saturating_sub(empty) as f64, items.len() as u64)
}

fn accumulate(total: &mut (f64, u64), part: (f64, u64)) {
    total.0 += part.0;
    total.1 += part.1;
}

/// Replays the kernel's functional stream into the memory hierarchy,
/// the warming path and the branch predictor.
fn replay_probe(
    program: &regshare::isa::Program,
    spec: &ProbeSpec,
    p: &mut Pass,
    tracer: &mut Tracer,
    parent: usize,
    run: u64,
) -> Result<(), String> {
    let config = experiment_config(spec.point_scale);
    let (stream, _) = Machine::new(program.clone())
        .run_trace(spec.point_scale)
        .map_err(|e| format!("functional trace: {e}"))?;
    let memory_ops: Vec<&Retired> = stream.iter().filter(|r| r.ea.is_some()).collect();
    let branches: Vec<&Retired> = stream.iter().filter(|r| r.taken.is_some()).collect();

    let span = tracer.open("replay", "mem", Some(parent), run);
    let mut mem = MemoryHierarchy::new(config.mem);
    let inst = per_call(&stream, |i, r| {
        black_box(mem.access_inst(r.pc * 4, i as u64));
    });
    let mut mem = MemoryHierarchy::new(config.mem);
    let data = per_call(&memory_ops, |i, r| {
        let ea = r.ea.expect("filtered to memory operations");
        black_box(mem.access_data(r.pc * 4, ea, r.inst.opcode.is_store(), i as u64));
    });
    for (total, part) in [
        (&mut p.l1d, mem.l1d().hit_ratio()),
        (&mut p.l2, mem.l2().hit_ratio()),
        (&mut p.tlb, mem.tlb().hit_ratio()),
    ] {
        total.add(part.hits(), part.total());
    }
    let mut warm = MemWarm::new(&config);
    let memwarm = per_call(&stream, |_, r| warm.warm_retired(r));
    tracer.count(span, "accesses", (inst.1 + data.1) as f64);
    tracer.close(span);

    let span = tracer.open("replay", "bpred", Some(parent), run);
    let mut bp = BranchPredictor::new(config.bpred);
    let bpred = per_call(&branches, |_, r| {
        let taken = r.taken.expect("filtered to control instructions");
        let prediction = bp.predict(r.pc, &r.inst);
        bp.update(r.pc, &r.inst, taken, r.next_pc, prediction);
    });
    let acc = bp.direction_accuracy();
    p.direction.add(acc.hits(), acc.total());
    tracer.count(span, "branches", bpred.1 as f64);
    tracer.close(span);

    accumulate(&mut p.inst_ns, inst);
    accumulate(&mut p.data_ns, data);
    accumulate(&mut p.memwarm_ns, memwarm);
    accumulate(&mut p.bpred_ns, bpred);
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn metrics(p: &Pass, c: &CoreCounters) -> BTreeMap<String, f64> {
    let clock = clock_read_ns();
    let per_call_ns = |ns: &Cell<u64>, calls: &Cell<u64>| {
        (ratio(ns.get() as f64, calls.get() as f64) - clock).max(0.0)
    };
    let cycles = p.cycles as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("workloads.program_build_ms", median(&p.build_ms));
    put("sim.pipeline_new_ms", median(&p.new_ms));
    put("sim.ns_per_cycle", ratio(p.plain_s * 1e9, cycles));
    put("sim.cycles", cycles);
    put("sim.uops_per_s", ratio(p.uops as f64, p.plain_s));
    put("sim.ipc", (p.log_ipc / p.points as f64).exp());
    for (s, name) in STAGE_SLOT_NAMES.iter().enumerate() {
        put(
            &format!("sim.stage.{name}.ns_per_cycle"),
            ratio(p.stage_nanos[s] as f64, cycles),
        );
        if crate::counts_work(name) {
            put(&format!("sim.stage.{name}.work"), p.stage_work[s] as f64);
        }
    }
    put("sim.checkpoint_ms", median_or_zero(&p.checkpoint_ms));
    put("sim.window_ms", median_or_zero(&p.window_ms));
    put(
        "sim.warm_ns_per_inst",
        ratio(p.warm_s * 1e9, p.warmed as f64),
    );
    put("isa.step_ns", ratio(p.step_s * 1e9, p.stepped as f64));
    put("core.rename_ns", per_call_ns(&c.rename_ns, &c.rename_calls));
    put("core.commit_ns", per_call_ns(&c.commit_ns, &c.commit_calls));
    put("core.squash_ns", per_call_ns(&c.squash_ns, &c.squash_calls));
    put("core.rename_calls", c.rename_calls.get() as f64);
    put("core.commit_calls", c.commit_calls.get() as f64);
    put("core.squash_calls", c.squash_calls.get() as f64);
    put("core.note_stall_calls", c.note_stall_calls.get() as f64);
    put(
        "core.rename_fail_ratio",
        ratio(c.rename_fails.get() as f64, c.rename_calls.get() as f64),
    );
    put(
        "core.reuse_fraction",
        ratio(p.reuses as f64, (p.allocations + p.reuses) as f64),
    );
    put("mem.access_inst_ns", ratio(p.inst_ns.0, p.inst_ns.1 as f64));
    put("mem.access_data_ns", ratio(p.data_ns.0, p.data_ns.1 as f64));
    put(
        "mem.warm_ns_per_inst",
        ratio(p.memwarm_ns.0, p.memwarm_ns.1 as f64),
    );
    put("mem.l1d_hit_ratio", p.l1d.fraction());
    put("mem.l2_hit_ratio", p.l2.fraction());
    put("mem.tlb_hit_ratio", p.tlb.fraction());
    put(
        "bpred.predict_update_ns",
        ratio(p.bpred_ns.0, p.bpred_ns.1 as f64),
    );
    put("bpred.accuracy", p.direction.fraction());
    put("trace_overhead", ratio(p.wrapped_s, p.plain_s));
    m
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}
