//! Fetch: follow predicted PCs through the real program image, one
//! hardware thread per cycle.

use crate::core_state::{tag_addr, CoreState, Fetched, StageIo};
use crate::profile::StageSlot;
use crate::stages::StageOutcome;

/// The fetch stage. Each cycle [`icount`] picks one eligible hardware
/// thread (not halted, not redirect-stalled, fetch queue has room);
/// fetch then walks that thread's predicted path (gshare + BTB),
/// honours i-cache miss latency, and deposits [`Fetched`] instructions
/// into the thread's fetch → decode latch.
pub(crate) struct FetchStage {
    eligible: Vec<bool>,
    in_flight: Vec<usize>,
}

impl FetchStage {
    pub(crate) fn new(threads: usize) -> Self {
        FetchStage {
            eligible: vec![false; threads],
            in_flight: vec![0; threads],
        }
    }

    pub(crate) fn tick(&mut self, core: &mut CoreState, lat: &mut [StageIo]) -> StageOutcome {
        for (tid, ctx) in core.threads.iter().enumerate() {
            self.eligible[tid] = !ctx.halted
                && ctx.fetch_pc.is_some()
                && core.cycle >= ctx.fetch_stall_until
                && lat[tid].fetched.len() < core.config.fetch_queue;
            self.in_flight[tid] = ctx.rob.len() + lat[tid].fetched.len() + lat[tid].decoded.len();
        }
        let Some(tid) = icount(&self.eligible, &self.in_flight) else {
            return StageOutcome::Ran;
        };
        let io = &mut lat[tid];
        let ctx = &core.threads[tid];
        let Some(mut pc) = ctx.fetch_pc else {
            return StageOutcome::Ran;
        };
        for _ in 0..core.config.fetch_width {
            if io.fetched.len() >= core.config.fetch_queue {
                break;
            }
            let Some(inst) = core.threads[tid].program.fetch(pc).copied() else {
                // Ran off the program (wrong path): wait for a redirect.
                core.threads[tid].fetch_pc = None;
                return StageOutcome::Ran;
            };
            let lat_cycles = core
                .mem_timing
                .access_inst(tag_addr(tid, pc) * 4, core.cycle);
            if lat_cycles > core.config.mem.l1i.latency
                && core.threads[tid].pending_fill != Some(pc)
            {
                // I-cache miss: nothing is delivered until the line
                // arrives; fetch retries this PC after the fill. The
                // retry consumes the arrived line from the fill buffer
                // even if it misses again — co-resident threads
                // thrashing an associativity-limited set must not
                // re-stall the victim forever.
                core.threads[tid].pending_fill = Some(pc);
                core.threads[tid].fetch_stall_until = core.cycle + lat_cycles as u64;
                core.threads[tid].fetch_pc = Some(pc);
                return StageOutcome::Ran;
            }
            core.threads[tid].pending_fill = None;
            let d = core.threads[tid].program.decoded().op(pc);
            let pred = d.is_branch().then(|| {
                // The predictor indexes on the thread-tagged PC so the
                // threads' histories stay disjoint; the predicted
                // target is an untagged program PC.
                let mut p = core.bpred.predict(tag_addr(tid, pc), &inst);
                // An armed injection flip inverts the next prediction,
                // manufacturing a misprediction (and its recovery) the
                // workload would not produce on its own. Wrong-path
                // fetch is already a normal mode of this pipeline.
                if let Some(inj) = &mut core.inject {
                    if inj.armed_flip {
                        inj.armed_flip = false;
                        inj.stats.branch_flips += 1;
                        p.taken = !p.taken;
                    }
                }
                p
            });
            let taken_pred = pred.map(|p| p.taken).unwrap_or(false);
            let next = match pred {
                Some(p) if p.taken => p.target,
                _ => pc + 1,
            };
            let is_halt = d.is_halt();
            core.profile.add_work(StageSlot::Fetch, 1);
            io.fetched.push_back(Fetched { pc, inst, d, pred });
            if is_halt {
                core.threads[tid].fetch_pc = None;
                return StageOutcome::Ran;
            }
            pc = next;
            if taken_pred || core.cycle < core.threads[tid].fetch_stall_until {
                break; // a taken branch or an i-cache miss ends the group
            }
        }
        core.threads[tid].fetch_pc = Some(pc);
        StageOutcome::Ran
    }
}

/// ICOUNT fetch arbitration (Tullsen et al., ISCA '96): the eligible
/// thread with the fewest micro-ops in flight (ROB partition plus
/// front-end latches), ties to the lowest thread id, or `None` when no
/// thread is eligible. A thread stalled on long-latency misses
/// accumulates in-flight work and so yields fetch to faster ones; with
/// one thread it picks thread 0 whenever it is eligible.
fn icount(eligible: &[bool], in_flight: &[usize]) -> Option<usize> {
    (0..eligible.len())
        .filter(|&t| eligible[t])
        .min_by_key(|&t| (in_flight[t], t))
}

#[cfg(test)]
mod tests {
    use super::icount;

    #[test]
    fn icount_prefers_emptiest_thread() {
        assert_eq!(icount(&[true, true, true], &[5, 2, 9]), Some(1));
        // Ties break toward the lowest thread id.
        assert_eq!(icount(&[true, true], &[4, 4]), Some(0));
        // Ineligible threads never win, however empty.
        assert_eq!(icount(&[false, true], &[0, 100]), Some(1));
        assert_eq!(icount(&[false, false], &[0, 0]), None);
    }

    #[test]
    fn icount_with_one_thread_fetches_whenever_it_is_eligible() {
        assert_eq!(icount(&[true], &[9]), Some(0));
        assert_eq!(icount(&[false], &[9]), None);
    }
}
