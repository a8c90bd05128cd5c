//! Issue: select operand-ready micro-ops and send them to execute.

use crate::core_state::{CoreState, StageIo};
use crate::profile::StageSlot;
use crate::stages::{ExecuteStage, StageOutcome};
use crate::SimError;

/// The issue stage. Offers the ready queue's micro-ops oldest first
/// (the age-ordered select the paper's results assume) to
/// [`ExecuteStage::try_execute`], up to `issue_width` successes per
/// cycle. Candidates that report a structural hazard (busy functional
/// unit, store-set conflict, unresolved older store) stay in the ready
/// queue and retry next cycle.
pub(crate) struct IssueStage {
    /// Scratch buffer reused across cycles for the candidate order.
    cand_scratch: Vec<u64>,
    /// Scratch buffer reused across cycles for this cycle's issues.
    issued_scratch: Vec<u64>,
}

impl IssueStage {
    /// `iq_entries` bounds both scratch buffers: the candidate order is
    /// drawn from the ready queue and the issued list from the
    /// candidates, so pre-sizing to the issue queue's capacity keeps
    /// the tick allocation-free from the first cycle.
    pub(crate) fn new(iq_entries: usize) -> Self {
        IssueStage {
            cand_scratch: Vec::with_capacity(iq_entries),
            issued_scratch: Vec::with_capacity(iq_entries),
        }
    }

    pub(crate) fn tick(
        &mut self,
        core: &mut CoreState,
        lat: &mut [StageIo],
        exec: &mut ExecuteStage,
    ) -> Result<StageOutcome, SimError> {
        if core.ready_q.is_empty() {
            return Ok(StageOutcome::Ran);
        }
        let mut issued = std::mem::take(&mut self.issued_scratch);
        issued.clear();
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        candidates.clear();
        // The ready queue is sorted by sequence number, oldest first;
        // `try_execute` needs the core mutably, so walk a copy.
        candidates.extend_from_slice(core.ready_q.as_slice());
        for seq in candidates.drain(..) {
            if issued.len() >= core.config.issue_width {
                break;
            }
            let Some((tid, idx)) = core.rob_find(seq) else {
                issued.push(seq); // squashed; drop from the ready queue
                continue;
            };
            if exec.try_execute(core, lat, seq, tid, idx)? {
                issued.push(seq);
            }
        }
        core.profile.add_work(StageSlot::Issue, issued.len() as u64);
        for s in &issued {
            if core.ready_q.remove(*s) {
                core.iq_len -= 1;
            }
        }
        self.cand_scratch = candidates;
        self.issued_scratch = issued;
        Ok(StageOutcome::Ran)
    }
}
