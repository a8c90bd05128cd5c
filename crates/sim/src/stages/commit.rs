//! Commit: retire finished micro-ops in program order.

use crate::core_state::{tag_addr, CoreState, RobEntry, StageIo};
use crate::errors::TraceStage;
use crate::profile::StageSlot;
use crate::recovery;
use crate::stages::StageOutcome;
use crate::SimError;
use regshare_core::UopKind;
use regshare_isa::Machine;

/// The commit stage. Retires up to `commit_width` done micro-ops from
/// the ROB head per cycle: stores drain to memory, loads leave the LSQ,
/// the renamer releases checkpoint state, and every committed main op is
/// cross-checked against the in-order oracle. An excepting head flushes
/// the pipeline precisely and redirects fetch at the faulting pc.
#[derive(Debug, Default)]
pub(crate) struct CommitStage;

impl CommitStage {
    pub(crate) fn tick(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
    ) -> Result<StageOutcome, SimError> {
        let n = core.threads.len();
        let mut budget = core.config.commit_width;
        for k in 0..n {
            let tid = (core.cycle as usize + k) % n;
            let hart = core.threads[tid].hart;
            while budget > 0 {
                let Some(head) = core.threads[tid].rob.front() else {
                    break;
                };
                if !head.done {
                    break;
                }
                if head.exception {
                    let (seq, pc, ea) = (head.seq, head.pc, head.ea);
                    take_exception(core, lat, tid, seq, pc, ea);
                    break;
                }
                let Some(head) = core.threads[tid].rob.pop_front() else {
                    break;
                };
                budget -= 1;
                if head.kind == UopKind::Main && head.d.is_store() {
                    let (addr, width, value) = match core.threads[tid].lsq.commit_store(head.seq) {
                        Ok(committed) => committed,
                        Err(e) => return Err(core.lsq_err(lat, e)),
                    };
                    core.threads[tid].memory.write(addr, value, width);
                    core.mem_timing.access_data(
                        tag_addr(tid, head.pc) * 4,
                        tag_addr(tid, addr),
                        true,
                        core.cycle,
                    );
                }
                if head.kind == UopKind::Main && head.d.is_load() {
                    if let Err(e) = core.threads[tid].lsq.commit_load(head.seq) {
                        return Err(core.lsq_err(lat, e));
                    }
                }
                core.renamer.commit_on(hart, head.seq);
                core.trace_event(head.seq, head.pc, TraceStage::Commit);
                core.committed_uops += 1;
                core.profile.add_work(StageSlot::Commit, 1);
                if head.kind == UopKind::Main {
                    core.committed_instructions += 1;
                    core.threads[tid].committed_instructions += 1;
                    if let Err(detail) = check_oracle(&mut core.threads[tid].oracle, &head) {
                        return Err(SimError::OracleMismatch {
                            cycle: core.cycle,
                            detail,
                            snapshot: Box::new(core.snapshot(lat)),
                        });
                    }
                }
                core.last_commit_cycle = core.cycle;
                if head.d.is_halt() && head.kind == UopKind::Main {
                    core.threads[tid].halted = true;
                    core.threads[tid].fetch_pc = None;
                    if core.threads.iter().all(|t| t.halted) {
                        core.halted = true;
                        return Ok(StageOutcome::Halted);
                    }
                    break;
                }
            }
            if budget == 0 {
                break;
            }
        }
        Ok(StageOutcome::Ran)
    }
}

fn take_exception(
    core: &mut CoreState,
    lat: &mut [StageIo],
    tid: usize,
    seq: u64,
    pc: u64,
    ea: Option<u64>,
) {
    // Flush the faulting thread's pipeline slice, including the faulting
    // instruction (it re-executes after the handler), and restore that
    // thread's precise state. Other threads keep flowing.
    let extra = recovery::squash_younger_than(core, lat, tid, seq - 1);
    if let Some(addr) = ea {
        core.mem_timing.tlb_mut().take_fault(tag_addr(tid, addr));
    }
    core.threads[tid].fetch_pc = Some(pc);
    // Unlike the redirects in writeback, an exception's stall overrides
    // any earlier redirect outright: the flush discarded whatever that
    // redirect was refilling.
    core.threads[tid].fetch_stall_until =
        core.cycle + core.config.exception_penalty as u64 + extra as u64;
    core.exceptions += 1;
    core.pending_verify = true;
}

// Returns the divergence detail only; the caller wraps it into
// `SimError::OracleMismatch` with a snapshot (the oracle is borrowed
// mutably here, so the snapshot must be taken outside).
fn check_oracle(oracle: &mut Option<Machine>, head: &RobEntry) -> Result<(), String> {
    let Some(oracle) = oracle else {
        return Ok(());
    };
    let expected = oracle
        .step()
        .map_err(|e| format!("oracle failed at sim pc {}: {e}", head.pc))?
        .ok_or_else(|| format!("sim committed pc {} after oracle halted", head.pc))?;
    let mismatch = |what: &str, exp: String, got: String| {
        Err(format!(
            "{what} differs at pc {} ({}): oracle {exp}, sim {got}",
            head.pc, head.inst
        ))
    };
    if expected.pc != head.pc {
        return mismatch("pc", expected.pc.to_string(), head.pc.to_string());
    }
    if head.dst.is_some() && expected.wvalue != head.result {
        return mismatch(
            "destination value",
            format!("{:?}", expected.wvalue),
            format!("{:?}", head.result),
        );
    }
    if head.dst2.is_some() && expected.wvalue2 != head.result2 {
        return mismatch(
            "writeback value",
            format!("{:?}", expected.wvalue2),
            format!("{:?}", head.result2),
        );
    }
    if expected.ea != head.ea {
        return mismatch(
            "effective address",
            format!("{:?}", expected.ea),
            format!("{:?}", head.ea),
        );
    }
    if expected.taken != head.taken {
        return mismatch(
            "branch outcome",
            format!("{:?}", expected.taken),
            format!("{:?}", head.taken),
        );
    }
    Ok(())
}
