//! The unified mis-speculation recovery path.
//!
//! Every flush in the simulator — branch mispredicts resolved at
//! writeback, injected squash storms, asynchronous interrupts, and
//! precise exceptions at commit — funnels through
//! [`squash_younger_than`]: one architectural walk (ROB/IQ/LSQ squash,
//! rename checkpoint unwind, shadow-cell recover commands). The recover
//! commands drain at [`crate::SimConfig::recover_bandwidth`] per cycle,
//! so deep reuse chains lengthen the redirect (§IV-C1). The walk is
//! per hardware thread: only the squashing thread's ROB partition,
//! LSQ, latches, and rename checkpoints are touched, while the shared
//! scoreboard drops exactly that thread's squashed waiters. The
//! redirect paths that also re-steer fetch share
//! [`redirect_after_squash`].

use crate::core_state::{CoreState, StageIo};
use crate::inject::InjectKind;
use crate::profile::StageSlot;
use regshare_core::UopKind;

/// Squashes every micro-op of thread `tid` with a sequence number
/// greater than `seq`: ROB and issue-queue entries, scoreboard waiters,
/// unresolved branches, LSQ entries and the thread's front-end latches,
/// then unwinds the thread's rename checkpoints and executes the
/// shadow-cell recover commands the renamer reports. Returns the extra
/// redirect cycles those recover commands cost.
pub(crate) fn squash_younger_than(
    core: &mut CoreState,
    lat: &mut [StageIo],
    tid: usize,
    seq: u64,
) -> u32 {
    let single = core.threads.len() == 1;
    let mut squashed = 0u64;
    {
        // Split borrows: the ROB walk mutates this thread's partition
        // while repairing the shared issue-queue accounting.
        let CoreState {
            threads,
            iq_len,
            ready_q,
            squash_scratch,
            ..
        } = core;
        let ctx = &mut threads[tid];
        squash_scratch.clear();
        while matches!(ctx.rob.back(), Some(e) if e.seq > seq) {
            let Some(e) = ctx.rob.pop_back() else { break };
            squashed += 1;
            if !single {
                squash_scratch.push(e.seq);
            }
            if !e.issued {
                *iq_len -= 1;
                if e.pending_srcs == 0 {
                    ready_q.remove(e.seq);
                }
            }
        }
    }
    core.profile.add_work(StageSlot::Housekeeping, squashed);
    // Squashed consumers still parked in the wakeup network must not
    // be woken by surviving producers. With one thread every younger
    // seq belongs to it; with several, other threads' younger micro-ops
    // survive, so only the exact squashed set is drained.
    if single {
        core.scoreboard.drain_waiters_after(seq);
    } else {
        // Popped youngest-first: reverse into ascending order.
        core.squash_scratch.reverse();
        let scratch = std::mem::take(&mut core.squash_scratch);
        core.scoreboard.drain_waiters_in(&scratch);
        core.squash_scratch = scratch;
    }
    core.threads[tid].unresolved_branches.retain_le(seq);
    core.threads[tid].lsq.squash_after(seq);
    // An abandoned fill must not satisfy a later fetch of the same PC.
    core.threads[tid].pending_fill = None;
    lat[tid].fetched.clear();
    lat[tid].decoded.clear();
    let hart = core.threads[tid].hart;
    let outcome = core.renamer.squash_after_on(hart, seq);
    let mut recovered = 0u32;
    for &tag in &outcome.recovers {
        if core.rf[tag.class.index()].recover(tag.preg, tag.version) {
            recovered += 1;
        }
    }
    core.shadow_recovers += recovered as u64;
    recover_cycles(recovered, core.config.recover_bandwidth)
}

/// Cycles to drain `recovers` shadow-cell recover commands at
/// `bandwidth` per cycle; a zero bandwidth counts as one.
fn recover_cycles(recovers: u32, bandwidth: u32) -> u32 {
    recovers.div_ceil(bandwidth.max(1))
}

/// A squash followed by a fetch redirect: flush everything of thread
/// `tid` younger than `seq`, re-steer that thread's fetch to
/// `resume_pc`, and extend its fetch stall by `penalty` plus the
/// recover commands' drain cycles. The arch-state diff against the
/// oracle is armed for the end of the cycle.
pub(crate) fn redirect_after_squash(
    core: &mut CoreState,
    lat: &mut [StageIo],
    tid: usize,
    seq: u64,
    resume_pc: u64,
    penalty: u32,
) {
    let extra = squash_younger_than(core, lat, tid, seq);
    core.threads[tid].fetch_pc = Some(resume_pc);
    core.threads[tid].fetch_stall_until = core.threads[tid]
        .fetch_stall_until
        .max(core.cycle + penalty as u64 + extra as u64);
    core.pending_verify = true;
}

/// Translates due schedule entries into armed one-shot flags and
/// executes squash storms on the spot.
pub(crate) fn poll_injections(core: &mut CoreState, lat: &mut [StageIo]) {
    let mut storms: Vec<u8> = Vec::new();
    {
        let Some(inj) = &mut core.inject else { return };
        while let Some(e) = inj.events.get(inj.next) {
            if e.cycle > core.cycle {
                break;
            }
            inj.next += 1;
            match e.kind {
                InjectKind::Interrupt => inj.pending_interrupt = true,
                InjectKind::LoadFault => inj.armed_load_fault = true,
                InjectKind::StoreFault => inj.armed_store_fault = true,
                InjectKind::BranchFlip => inj.armed_flip = true,
                InjectKind::SquashStorm => storms.push(e.pick),
            }
        }
    }
    for pick in storms {
        squash_storm(core, lat, pick);
    }
}

/// Squashes everything younger than a completed in-flight micro-op,
/// exactly as a resolving branch would, and refetches from its
/// successor. Candidates are drawn from every thread's ROB partition in
/// thread order and restricted to done, exception-free `Main` micro-ops
/// so the cut point's `next_pc` is an architecturally valid resume
/// address; the squash stays within the picked thread.
fn squash_storm(core: &mut CoreState, lat: &mut [StageIo], pick: u8) {
    let mut candidates: Vec<(usize, u64, u64)> = Vec::new();
    for (tid, ctx) in core.threads.iter().enumerate() {
        candidates.extend(
            ctx.rob
                .iter()
                .filter(|e| e.kind == UopKind::Main && e.done && !e.exception && !e.d.is_halt())
                .map(|e| (tid, e.seq, e.next_pc)),
        );
    }
    if candidates.is_empty() {
        return;
    }
    let (tid, seq, next_pc) = candidates[pick as usize % candidates.len()];
    let penalty = core.config.mispredict_penalty;
    redirect_after_squash(core, lat, tid, seq, next_pc, penalty);
    if let Some(inj) = &mut core.inject {
        inj.stats.squash_storms += 1;
    }
}

/// Delivers a pending asynchronous interrupt: flush thread 0's entire
/// speculative window and refetch from its oldest unretired
/// instruction. Runs after writeback so an interrupt armed by a
/// misprediction (`interrupts_on_mispredict`) lands in the same cycle
/// as the branch's own squash — nested recovery. Injection targets
/// thread 0 by construction; the harness runs fault campaigns
/// single-threaded.
pub(crate) fn deliver_pending_interrupt(core: &mut CoreState, lat: &mut [StageIo]) {
    if !core.inject.as_ref().is_some_and(|i| i.pending_interrupt) {
        return;
    }
    if let Some(inj) = &mut core.inject {
        inj.pending_interrupt = false;
    }
    // The precise resume point: the oldest in-flight instruction,
    // wherever it is in the pipe, else wherever fetch would go next.
    let resume = core.threads[0]
        .rob
        .front()
        .map(|e| e.pc)
        .or_else(|| lat[0].decoded.front().map(|f| f.pc))
        .or_else(|| lat[0].fetched.front().map(|f| f.pc))
        .or(core.threads[0].fetch_pc);
    let Some(resume) = resume else {
        return; // nothing in flight and nothing to fetch: no-op
    };
    let squash_seq = core.threads[0]
        .rob
        .front()
        .map(|e| e.seq.saturating_sub(1))
        .unwrap_or(core.next_seq);
    let penalty = core.config.exception_penalty;
    redirect_after_squash(core, lat, 0, squash_seq, resume, penalty);
    if let Some(inj) = &mut core.inject {
        inj.stats.interrupts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::recover_cycles;

    #[test]
    fn recover_commands_drain_at_the_configured_bandwidth() {
        assert_eq!(recover_cycles(0, 4), 0);
        assert_eq!(recover_cycles(1, 4), 1);
        assert_eq!(recover_cycles(4, 4), 1);
        assert_eq!(recover_cycles(5, 4), 2);
        // A zero bandwidth is guarded against division by zero.
        assert_eq!(recover_cycles(3, 0), 3);
    }
}
