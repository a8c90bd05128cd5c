//! Shared core state, per-thread contexts, and the typed stage-boundary
//! latches.
//!
//! [`CoreState`] owns every structure the hardware threads share — issue
//! queue, scoreboard, register files, renamer, memory timing, functional
//! units and statistics — plus one [`ThreadCtx`] per resident thread for
//! the private state (program, architectural memory, ROB partition,
//! load/store-queue partition, fetch PC). [`StageIo`] owns the two
//! persistent inter-stage queues (fetch → decode and decode → rename);
//! the pipeline driver keeps one `StageIo` per thread. Stage modules
//! under [`crate::stages`] mutate this state through their `tick`
//! functions; the helpers here are the pieces several stages share (ROB
//! lookup, wakeup broadcast, snapshots, invariant audits).

use crate::bpred::{BranchPredictor, Prediction};
use crate::errors::{HeadSnapshot, PipelineSnapshot, SimError, TraceEvent, TraceStage};
use crate::inject::InjectState;
use crate::profile::StageProfile;
use crate::rob::Rob;
use crate::{CompletionWheel, FuPool, LoadStoreQueue, LsqError, Scoreboard, SimConfig};
use regshare_core::{RegFile, Renamer, TaggedReg, UopKind, UopVec};
use regshare_isa::{DecodedOp, HartId, Inst, Machine, Memory, Program, RegClass};
use regshare_mem::MemoryHierarchy;
use regshare_stats::Sampler;
use std::collections::VecDeque;

/// Tags an instruction or data address with a thread id so per-thread
/// address spaces stay disjoint inside the shared branch predictor,
/// caches and TLB. Thread 0 is the identity mapping, keeping
/// single-thread runs byte-identical to the pre-SMT pipeline; other
/// threads shift their id far above any program-generated address.
pub(crate) fn tag_addr(tid: usize, addr: u64) -> u64 {
    addr | ((tid as u64) << 40)
}

/// Ordered set of sequence numbers on a flat sorted vector. The issue
/// queue's ready list and the unresolved-branch set hold at most a few
/// dozen entries, where binary search plus a short `memmove` beats a
/// BTree on every operation and steady state never allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqSet(Vec<u64>);

impl SeqSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.0
    }

    pub(crate) fn first(&self) -> Option<u64> {
        self.0.first().copied()
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.0.binary_search(&seq).is_ok()
    }

    pub(crate) fn insert(&mut self, seq: u64) {
        match self.0.last() {
            Some(&last) if last >= seq => {
                if let Err(i) = self.0.binary_search(&seq) {
                    self.0.insert(i, seq);
                }
            }
            // Dispatch inserts in program order: appending is the norm.
            _ => self.0.push(seq),
        }
    }

    pub(crate) fn remove(&mut self, seq: u64) -> bool {
        match self.0.binary_search(&seq) {
            Ok(i) => {
                self.0.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Drops every entry greater than `seq` (squash).
    pub(crate) fn retain_le(&mut self, seq: u64) {
        let keep = self.0.partition_point(|&s| s <= seq);
        self.0.truncate(keep);
    }
}

/// A fetched instruction travelling the front end with its prediction.
#[derive(Debug, Clone)]
pub(crate) struct Fetched {
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    /// Predecoded static facts for `inst`, copied out of the program's
    /// [`regshare_isa::DecodedImage`] at fetch so later stages test
    /// packed flags instead of re-deriving opcode predicates.
    pub(crate) d: DecodedOp,
    pub(crate) pred: Option<Prediction>,
}

/// The rename → dispatch hand-off: one renamed instruction with its
/// micro-op expansion. Transient — dispatch consumes it within the same
/// tick, because rename's capacity checks need dispatch's live ROB/IQ
/// occupancy before renaming the next instruction.
#[derive(Debug)]
pub(crate) struct RenamedBundle {
    pub(crate) uops: UopVec,
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    pub(crate) d: DecodedOp,
    pub(crate) pred: Option<Prediction>,
}

/// The persistent stage-boundary latches, owned by the pipeline driver
/// and passed to each stage's `tick` alongside [`CoreState`].
#[derive(Debug, Default)]
pub(crate) struct StageIo {
    /// The fetch → decode latch: predicted-path instructions waiting to
    /// be decoded, capacity-bounded by `SimConfig::fetch_queue`.
    pub(crate) fetched: VecDeque<Fetched>,
    /// The decode → rename latch: decoded instructions waiting for
    /// rename bandwidth and free structures.
    pub(crate) decoded: VecDeque<Fetched>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RobEntry {
    /// The hardware thread this micro-op belongs to; always matches the
    /// ROB partition holding the entry (the audit cross-checks it).
    pub(crate) hart: HartId,
    pub(crate) seq: u64,
    pub(crate) pc: u64,
    pub(crate) inst: Inst,
    /// Predecoded flags for `inst` — the hot-path predicates
    /// (load/store/branch/halt, FU class) without touching the opcode.
    pub(crate) d: DecodedOp,
    pub(crate) kind: UopKind,
    pub(crate) srcs: [Option<TaggedReg>; 3],
    pub(crate) dst: Option<TaggedReg>,
    pub(crate) dst2: Option<TaggedReg>,
    pub(crate) pred: Option<Prediction>,
    pub(crate) issued: bool,
    pub(crate) done: bool,
    /// Source tags still busy — the entry's not-ready counter in the
    /// wakeup network. The entry sits in the ready queue iff this is 0
    /// and it has not issued.
    pub(crate) pending_srcs: u8,
    pub(crate) exception: bool,
    pub(crate) result: Option<u64>,
    pub(crate) result2: Option<u64>,
    pub(crate) ea: Option<u64>,
    pub(crate) taken: Option<bool>,
    pub(crate) next_pc: u64,
}

impl RobEntry {
    /// Dead-slot initializer for the fixed ROB ring; never observable
    /// through the ring API.
    pub(crate) fn filler() -> Self {
        let inst = Inst::bare(regshare_isa::Opcode::Nop);
        RobEntry {
            hart: HartId::ZERO,
            seq: 0,
            pc: 0,
            d: DecodedOp::decode(&inst, 0),
            inst,
            kind: UopKind::Main,
            srcs: [None; 3],
            dst: None,
            dst2: None,
            pred: None,
            issued: false,
            done: false,
            pending_srcs: 0,
            exception: false,
            result: None,
            result2: None,
            ea: None,
            taken: None,
            next_pc: 0,
        }
    }
}

/// One hardware thread's private state: its program, architectural
/// memory image, lockstep oracle, ROB and load/store-queue partitions,
/// unresolved-branch set and fetch cursor. Everything not in here is
/// shared between the threads through [`CoreState`].
pub(crate) struct ThreadCtx {
    pub(crate) hart: HartId,
    pub(crate) program: Program,
    pub(crate) memory: Memory,
    pub(crate) oracle: Option<Machine>,
    /// This thread's ROB partition (`rob_entries / threads` logical
    /// capacity, enforced by rename's per-thread occupancy check).
    pub(crate) rob: Rob,
    /// This thread's load/store-queue partition.
    pub(crate) lsq: LoadStoreQueue,
    /// Sequence numbers of this thread's in-flight micro-ops carrying an
    /// unresolved branch opcode, in program order. The oldest entry is
    /// the speculation boundary the renamer is advanced to each cycle —
    /// maintained incrementally instead of scanning the ROB per cycle.
    pub(crate) unresolved_branches: SeqSet,
    pub(crate) fetch_pc: Option<u64>,
    pub(crate) fetch_stall_until: u64,
    /// PC whose i-cache fill this thread is waiting on. When the stall
    /// expires, fetch consumes the arrived line from the fill buffer
    /// even if a co-resident thread has evicted it again — without this,
    /// threads sharing an associativity-limited set livelock, each
    /// eviction re-stalling the victim forever.
    pub(crate) pending_fill: Option<u64>,
    pub(crate) halted: bool,
    pub(crate) committed_instructions: u64,
}

/// Everything the stages share: machine structures, speculation state,
/// statistics, plus one [`ThreadCtx`] per resident hardware thread. The
/// per-stage `tick` functions receive `&mut CoreState`; the slim
/// `Pipeline` driver owns it.
pub(crate) struct CoreState {
    pub(crate) config: SimConfig,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) renamer: Box<dyn Renamer>,
    pub(crate) rf: [RegFile; 2],
    pub(crate) scoreboard: Scoreboard,
    pub(crate) mem_timing: MemoryHierarchy,
    pub(crate) bpred: BranchPredictor,
    pub(crate) fus: FuPool,
    /// Operand-ready, unissued entries in sequence order — the select
    /// stage's input. Entries with busy sources are not here; they wait
    /// in the scoreboard's per-tag waiter lists until woken.
    pub(crate) ready_q: SeqSet,
    /// Occupied issue-queue entries (ready + waiting) across all
    /// threads, for dispatch capacity accounting — the issue queue is a
    /// shared structure.
    pub(crate) iq_len: usize,
    /// Scratch buffer reused across cycles by the wakeup broadcast.
    pub(crate) wake_scratch: Vec<u64>,
    /// Scratch buffer reused by SMT recoveries for the squashed
    /// sequence numbers handed to the scoreboard's selective drain.
    pub(crate) squash_scratch: Vec<u64>,
    pub(crate) next_seq: u64,
    pub(crate) cycle: u64,
    pub(crate) completions: CompletionWheel,
    /// Armed fault-injection schedule, if any (delivered to thread 0).
    pub(crate) inject: Option<InjectState>,
    /// A recovery happened this cycle: run the full architectural diff
    /// against the oracle at the end of the recovery before resuming.
    pub(crate) pending_verify: bool,
    /// Invariant audits performed ([`SimConfig::audit_interval`]).
    pub(crate) audits: u64,
    /// Every resident thread has retired its halt.
    pub(crate) halted: bool,
    /// Committed instructions summed over all threads (the per-thread
    /// counts live in each [`ThreadCtx`]).
    pub(crate) committed_instructions: u64,
    pub(crate) committed_uops: u64,
    pub(crate) mispredicts: u64,
    pub(crate) exceptions: u64,
    pub(crate) shadow_recovers: u64,
    pub(crate) expensive_repairs: u64,
    pub(crate) rename_stall_cycles: u64,
    pub(crate) last_commit_cycle: u64,
    pub(crate) int_occupancy: Vec<Sampler>,
    pub(crate) fp_occupancy: Vec<Sampler>,
    /// Reused buffer for the periodic occupancy readout.
    pub(crate) occupancy_scratch: Vec<usize>,
    pub(crate) trace: Vec<TraceEvent>,
    /// Host wall-clock time accumulated across `run` calls.
    pub(crate) wall_seconds: f64,
    /// Per-stage cost attribution: deterministic work counters (always
    /// on) plus host-time laps when [`SimConfig::profile`] is set.
    pub(crate) profile: StageProfile,
}

impl CoreState {
    pub(crate) fn trace_event(&mut self, seq: u64, pc: u64, stage: TraceStage) {
        if self.config.trace && self.trace.len() < 100_000 {
            self.trace.push(TraceEvent {
                cycle: self.cycle,
                seq,
                pc,
                stage,
            });
        }
    }

    /// Locates a live micro-op across the per-thread ROB partitions:
    /// `(thread id, position in that thread's ROB)`. The thread count is
    /// at most [`regshare_isa::MAX_HARTS`], so the scan is a handful of
    /// O(1) probes.
    pub(crate) fn rob_find(&self, seq: u64) -> Option<(usize, usize)> {
        self.threads
            .iter()
            .enumerate()
            .find_map(|(tid, ctx)| ctx.rob.position_of(seq).map(|idx| (tid, idx)))
    }

    pub(crate) fn rob_entry(&self, seq: u64) -> Option<&RobEntry> {
        let (tid, idx) = self.rob_find(seq)?;
        self.threads[tid].rob.get(idx)
    }

    /// Logical ROB capacity of each thread's partition.
    pub(crate) fn rob_partition(&self) -> usize {
        self.config.rob_entries / self.threads.len()
    }

    /// Whether any thread still holds in-flight micro-ops.
    pub(crate) fn rob_nonempty(&self) -> bool {
        self.threads.iter().any(|ctx| !ctx.rob.is_empty())
    }

    /// The oldest in-flight micro-op across every thread, if any.
    pub(crate) fn oldest_inflight(&self) -> Option<&RobEntry> {
        self.threads
            .iter()
            .filter_map(|ctx| ctx.rob.front())
            .min_by_key(|e| e.seq)
    }

    pub(crate) fn read_operands(&self, srcs: &[Option<TaggedReg>; 3]) -> [u64; 3] {
        let mut ops = [0u64; 3];
        for (slot, tag) in ops.iter_mut().zip(srcs.iter()) {
            if let Some(t) = tag {
                *slot = self.rf[t.class.index()].read_version(t.preg, t.version);
            }
        }
        ops
    }

    /// Captures the current pipeline state for a diagnostic dump. Queue
    /// depths are summed over the threads; the fetch cursor shown is
    /// thread 0's and the head is the oldest in-flight micro-op of any
    /// thread (both trivially exact with one thread).
    pub(crate) fn snapshot(&self, lat: &[StageIo]) -> PipelineSnapshot {
        let free = |class: RegClass| {
            self.renamer
                .banks(class)
                .total()
                .saturating_sub(self.renamer.allocated_total(class))
        };
        let head = self.oldest_inflight().map(|e| HeadSnapshot {
            seq: e.seq,
            pc: e.pc,
            inst: e.inst.to_string(),
            kind: format!("{:?}", e.kind),
            issued: e.issued,
            done: e.done,
            pending_srcs: e.pending_srcs,
            in_ready_q: self.ready_q.contains(e.seq),
            has_waiter: self.scoreboard.has_waiter(e.seq),
            srcs_ready: e
                .srcs
                .iter()
                .flatten()
                .map(|t| self.scoreboard.is_ready(*t))
                .collect(),
            exception: e.exception,
        });
        PipelineSnapshot {
            cycle: self.cycle,
            last_commit_cycle: self.last_commit_cycle,
            fetch_pc: self.threads[0].fetch_pc,
            fetch_stall_until: self.threads[0].fetch_stall_until,
            fetch_queue: lat.iter().map(|io| io.fetched.len()).sum(),
            decode_queue: lat.iter().map(|io| io.decoded.len()).sum(),
            rob: self.threads.iter().map(|ctx| ctx.rob.len()).sum(),
            iq: self.iq_len,
            ready: self.ready_q.as_slice().len(),
            unresolved_branches: self
                .threads
                .iter()
                .map(|ctx| ctx.unresolved_branches.as_slice().len())
                .sum(),
            lsq_loads: self.threads.iter().map(|ctx| ctx.lsq.loads_len()).sum(),
            lsq_stores: self.threads.iter().map(|ctx| ctx.lsq.stores_len()).sum(),
            free_int: free(RegClass::Int),
            free_fp: free(RegClass::Fp),
            head,
        }
    }

    pub(crate) fn corrupt_err(&self, lat: &[StageIo], what: impl Into<String>) -> SimError {
        SimError::Invariant {
            cycle: self.cycle,
            what: what.into(),
            snapshot: Box::new(self.snapshot(lat)),
        }
    }

    pub(crate) fn lsq_err(&self, lat: &[StageIo], error: LsqError) -> SimError {
        SimError::Lsq {
            cycle: self.cycle,
            error,
            snapshot: Box::new(self.snapshot(lat)),
        }
    }

    /// One-shot consumption of an armed forced load fault.
    pub(crate) fn consume_armed_load_fault(&mut self) -> bool {
        match &mut self.inject {
            Some(inj) if inj.armed_load_fault => {
                inj.armed_load_fault = false;
                inj.stats.load_faults += 1;
                true
            }
            _ => false,
        }
    }

    /// One-shot consumption of an armed forced store fault.
    pub(crate) fn consume_armed_store_fault(&mut self) -> bool {
        match &mut self.inject {
            Some(inj) if inj.armed_store_fault => {
                inj.armed_store_fault = false;
                inj.stats.store_faults += 1;
                true
            }
            _ => false,
        }
    }

    /// If a recovery completed this cycle, diff the full architectural
    /// state (every register through the retirement map, plus memory)
    /// against the lockstep oracle. No-op without an oracle.
    pub(crate) fn check_recovery_boundary(&mut self, lat: &[StageIo]) -> Result<(), SimError> {
        if !self.pending_verify {
            return Ok(());
        }
        self.pending_verify = false;
        self.verify_arch_state(lat)
    }

    /// Diffs every thread's full architectural state (each register
    /// through that thread's retirement map, plus its memory image)
    /// against its lockstep oracle. Threads without an oracle are
    /// skipped.
    pub(crate) fn verify_arch_state(&self, lat: &[StageIo]) -> Result<(), SimError> {
        for ctx in &self.threads {
            let Some(oracle) = &ctx.oracle else {
                continue;
            };
            if let Some(map) = self.renamer.arch_map_on(ctx.hart) {
                for class in [RegClass::Int, RegClass::Fp] {
                    for (r, tag) in map.iter_class(class) {
                        if r.is_zero() {
                            continue;
                        }
                        let got = self.rf[tag.class.index()].read_version(tag.preg, tag.version);
                        let want = oracle.reg_bits(r);
                        if got != want {
                            return Err(SimError::OracleMismatch {
                                cycle: self.cycle,
                                detail: format!(
                                    "architectural state diff ({}): {r} (mapped to {tag}) \
                                     is {got:#x}, oracle has {want:#x}",
                                    ctx.hart
                                ),
                                snapshot: Box::new(self.snapshot(lat)),
                            });
                        }
                    }
                }
            }
            if let Some((addr, got, want)) = ctx.memory.first_difference(oracle.memory()) {
                return Err(SimError::OracleMismatch {
                    cycle: self.cycle,
                    detail: format!(
                        "memory diff ({}): byte {addr:#x} is {got:#x}, oracle has {want:#x}",
                        ctx.hart
                    ),
                    snapshot: Box::new(self.snapshot(lat)),
                });
            }
        }
        Ok(())
    }

    // ---- invariant audits ----

    /// Every [`SimConfig::audit_interval`] cycles, cross-check the
    /// renamer's bookkeeping (free list / PRT / map tables) and the
    /// pipeline's IQ/ROB/wakeup state against their invariants.
    pub(crate) fn audit_if_due(&mut self, lat: &[StageIo]) -> Result<(), SimError> {
        let n = self.config.audit_interval;
        if n == 0 || self.cycle == 0 || !self.cycle.is_multiple_of(n) {
            return Ok(());
        }
        self.audits += 1;
        if let Err(what) = self.renamer.audit() {
            return Err(self.corrupt_err(lat, format!("renamer audit: {what}")));
        }
        self.audit_occupancy(lat)?;
        self.audit_pipeline(lat)
    }

    /// The two occupancy readouts must agree: the per-bank in-use counts
    /// (the Fig. 9 signal) have to sum to the scheme's total allocated
    /// register count.
    fn audit_occupancy(&self, lat: &[StageIo]) -> Result<(), SimError> {
        for class in [RegClass::Int, RegClass::Fp] {
            let per_bank: usize = self.renamer.in_use_per_bank(class).into_iter().sum();
            let total = self.renamer.allocated_total(class);
            if per_bank != total {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "{class:?} per-bank occupancy sums to {per_bank} \
                         but {total} registers are allocated"
                    ),
                ));
            }
        }
        Ok(())
    }

    fn audit_pipeline(&self, lat: &[StageIo]) -> Result<(), SimError> {
        let max_version = self.renamer.max_version();
        let rob_partition = self.rob_partition();
        let mut unissued = 0usize;
        for (tid, ctx) in self.threads.iter().enumerate() {
            if ctx.rob.len() > rob_partition {
                return Err(self.corrupt_err(
                    lat,
                    format!(
                        "thread {tid} holds {} ROB entries but its partition is {rob_partition}",
                        ctx.rob.len()
                    ),
                ));
            }
            let mut prev_seq = None;
            for e in &ctx.rob {
                if e.hart.index() != tid {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {} tagged {} sits in thread {tid}'s ROB partition",
                            e.seq, e.hart
                        ),
                    ));
                }
                if let Some(p) = prev_seq {
                    if e.seq <= p {
                        return Err(self.corrupt_err(
                            lat,
                            format!("ROB order (thread {tid}): seq {} follows seq {p}", e.seq),
                        ));
                    }
                }
                prev_seq = Some(e.seq);
                unissued += self.audit_rob_entry(lat, e, max_version)?;
            }
        }
        if unissued != self.iq_len {
            return Err(self.corrupt_err(
                lat,
                format!(
                    "issue-queue occupancy {} but {unissued} unissued ROB entries",
                    self.iq_len
                ),
            ));
        }
        for &seq in self.ready_q.as_slice() {
            match self.rob_entry(seq) {
                None => {
                    return Err(self.corrupt_err(
                        lat,
                        format!("ready queue holds seq {seq} which is not in the ROB"),
                    ));
                }
                Some(e) if e.issued => {
                    return Err(
                        self.corrupt_err(lat, format!("ready queue holds issued seq {seq}"))
                    );
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Checks one ROB entry's wakeup/readiness invariants; returns 1 if
    /// the entry occupies an issue-queue slot (unissued), 0 otherwise.
    fn audit_rob_entry(
        &self,
        lat: &[StageIo],
        e: &RobEntry,
        max_version: u8,
    ) -> Result<usize, SimError> {
        let mut unissued = 0usize;
        {
            let busy = e
                .srcs
                .iter()
                .flatten()
                .filter(|t| !self.scoreboard.is_ready(**t))
                .count() as u8;
            if !e.issued {
                unissued += 1;
                if e.pending_srcs != busy {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {}: pending_srcs {} but {busy} busy source operand(s)",
                            e.seq, e.pending_srcs
                        ),
                    ));
                }
                if (e.pending_srcs == 0) != self.ready_q.contains(e.seq) {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {}: ready-queue membership ({}) disagrees with pending_srcs {}",
                            e.seq,
                            self.ready_q.contains(e.seq),
                            e.pending_srcs
                        ),
                    ));
                }
            } else if e.pending_srcs != 0 {
                return Err(self.corrupt_err(
                    lat,
                    format!("seq {} issued with pending_srcs {}", e.seq, e.pending_srcs),
                ));
            }
            if e.done {
                for tag in [e.dst, e.dst2].into_iter().flatten() {
                    if !self.scoreboard.is_ready(tag) {
                        return Err(self.corrupt_err(
                            lat,
                            format!("seq {} done but destination {tag} is still busy", e.seq),
                        ));
                    }
                }
            }
            for tag in e.srcs.iter().chain([e.dst, e.dst2].iter()).flatten() {
                if tag.version > max_version {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {}: tag {tag} version exceeds the counter maximum {max_version}",
                            e.seq
                        ),
                    ));
                }
                let cells = self.renamer.banks(tag.class).shadow_cells_of(tag.preg);
                if tag.version > 0 && tag.version > cells {
                    return Err(self.corrupt_err(
                        lat,
                        format!(
                            "seq {}: tag {tag} version has no backing shadow cell \
                             ({cells} available)",
                            e.seq
                        ),
                    ));
                }
            }
        }
        Ok(unissued)
    }

    /// Sets `tag` ready and delivers the wakeup to every consumer parked
    /// on it: each broadcast decrements the consumer's not-ready counter,
    /// and a counter reaching zero moves the entry to the ready queue.
    pub(crate) fn broadcast_ready(
        &mut self,
        lat: &[StageIo],
        tag: TaggedReg,
    ) -> Result<(), SimError> {
        let mut woken = std::mem::take(&mut self.wake_scratch);
        self.scoreboard.set_ready(tag, &mut woken);
        for i in 0..woken.len() {
            let seq = woken[i];
            // Waiters are drained on squash, so a woken seq must be a
            // live ROB entry still counting down busy sources.
            let mut problem = None;
            match self.rob_find(seq) {
                Some((tid, idx)) => {
                    let e = &mut self.threads[tid].rob[idx];
                    if e.pending_srcs == 0 {
                        problem = Some("woken with no pending source operands");
                    } else {
                        e.pending_srcs -= 1;
                        if e.pending_srcs == 0 {
                            self.ready_q.insert(seq);
                        }
                    }
                }
                None => problem = Some("a scoreboard waiter that is not in the ROB"),
            }
            if let Some(what) = problem {
                woken.clear();
                self.wake_scratch = woken;
                return Err(self.corrupt_err(lat, format!("wakeup on {tag}: seq {seq} is {what}")));
            }
        }
        woken.clear();
        self.wake_scratch = woken;
        Ok(())
    }

    /// Books the issue of `seq` with the renamer and the completion
    /// wheel; the result writes back `latency` cycles from now.
    pub(crate) fn schedule(&mut self, seq: u64, latency: u32) {
        self.renamer.on_operands_read(seq);
        if self.config.trace {
            if let Some(pc) = self.rob_entry(seq).map(|e| e.pc) {
                self.trace_event(seq, pc, TraceStage::Issue);
            }
        }
        self.completions
            .schedule(self.cycle + latency.max(1) as u64, seq);
    }

    pub(crate) fn sample_occupancy(&mut self) {
        let interval = self.config.occupancy_sample_interval;
        if interval == 0 || !self.cycle.is_multiple_of(interval) {
            return;
        }
        for (class, samplers) in [
            (RegClass::Int, &mut self.int_occupancy),
            (RegClass::Fp, &mut self.fp_occupancy),
        ] {
            self.renamer
                .in_use_per_bank_into(class, &mut self.occupancy_scratch);
            for (k, &used) in self.occupancy_scratch.iter().enumerate() {
                samplers[k].record(used as u64);
            }
        }
    }
}
