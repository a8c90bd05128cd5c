//! Branch prediction: gshare direction predictor, branch target buffer,
//! and a return-address stack.

use regshare_isa::{Inst, Opcode};
use regshare_stats::Ratio;
use serde::{Deserialize, Serialize};

/// Branch predictor configuration (Table I: 2K-entry BTB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// gshare pattern-history-table entries (2-bit counters).
    pub pht_entries: usize,
    /// Global-history length in bits.
    pub history_bits: u32,
    /// Branch target buffer entries (direct-mapped).
    pub btb_entries: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            pht_entries: 4096,
            history_bits: 8,
            btb_entries: 2048,
            ras_depth: 16,
        }
    }
}

/// The fetch-time prediction for one control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always true for unconditional transfers).
    pub taken: bool,
    /// Predicted target instruction index when taken.
    pub target: u64,
}

/// gshare + BTB + RAS front-end predictor.
///
/// Direct branches use the gshare direction predictor with their decoded
/// target; indirect jumps (`jalr`) use the RAS when they look like
/// returns, falling back to the BTB's last-seen target.
///
/// # Examples
///
/// ```
/// use regshare_sim::{BranchPredictor, BranchPredictorConfig};
/// use regshare_isa::{Inst, Opcode, reg};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::default());
/// let b = Inst::branch(Opcode::Bne, reg::x(1), reg::x(2), 5);
/// let p = bp.predict(10, &b);
/// bp.update(10, &b, true, 5, p);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    pht: Vec<u8>,
    history: u64,
    btb: Vec<Option<(u64, u64)>>, // (pc, target)
    ras: Vec<u64>,
    direction: Ratio,
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken counters and empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two.
    pub fn new(config: BranchPredictorConfig) -> Self {
        assert!(
            config.pht_entries.is_power_of_two(),
            "PHT entries must be a power of two"
        );
        assert!(
            config.btb_entries.is_power_of_two(),
            "BTB entries must be a power of two"
        );
        BranchPredictor {
            config,
            pht: vec![1; config.pht_entries],
            history: 0,
            btb: vec![None; config.btb_entries],
            ras: Vec::new(),
            direction: Ratio::new("bpred_direction"),
        }
    }

    fn pht_index(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.config.history_bits) - 1);
        ((pc ^ h) as usize) & (self.pht.len() - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        (pc as usize) & (self.btb.len() - 1)
    }

    /// Predicts the control instruction at `pc`. Also performs RAS
    /// push/pop side effects for calls and returns.
    pub fn predict(&mut self, pc: u64, inst: &Inst) -> Prediction {
        match inst.opcode {
            Opcode::Jal => {
                if inst.dst().is_some() {
                    self.push_ras(pc + 1);
                }
                Prediction {
                    taken: true,
                    target: inst.target as u64,
                }
            }
            Opcode::Jalr => {
                // Calls through jalr also push the return address.
                if inst.dst().is_some() {
                    self.push_ras(pc + 1);
                    // An indirect call's target comes from the BTB.
                    let t = self.btb_lookup(pc).unwrap_or(pc + 1);
                    return Prediction {
                        taken: true,
                        target: t,
                    };
                }
                // A plain jalr is treated as a return: prefer the RAS.
                let target = self
                    .ras
                    .pop()
                    .or_else(|| self.btb_lookup(pc))
                    .unwrap_or(pc + 1);
                Prediction {
                    taken: true,
                    target,
                }
            }
            op if op.is_cond_branch() => {
                let taken = self.pht[self.pht_index(pc)] >= 2;
                Prediction {
                    taken,
                    target: inst.target as u64,
                }
            }
            _ => Prediction {
                taken: false,
                target: pc + 1,
            },
        }
    }

    fn push_ras(&mut self, ret: u64) {
        if self.ras.len() == self.config.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(ret);
    }

    fn btb_lookup(&self, pc: u64) -> Option<u64> {
        match self.btb[self.btb_index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Trains the predictor with the resolved outcome and records
    /// accuracy. `prediction` is what [`BranchPredictor::predict`]
    /// returned at fetch.
    pub fn update(
        &mut self,
        pc: u64,
        inst: &Inst,
        taken: bool,
        target: u64,
        prediction: Prediction,
    ) {
        if inst.opcode.is_cond_branch() {
            let idx = self.pht_index(pc);
            let c = &mut self.pht[idx];
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
            self.history = (self.history << 1) | taken as u64;
            self.direction.record(prediction.taken == taken);
        }
        if taken {
            let idx = self.btb_index(pc);
            self.btb[idx] = Some((pc, target));
        }
    }

    /// Trains the predictor from a functionally-executed control
    /// instruction without recording accuracy statistics.
    ///
    /// Functional warming has no fetch-time prediction to score, so this
    /// performs the same PHT/history/BTB training as
    /// [`BranchPredictor::update`] *and* the RAS side effects that
    /// [`BranchPredictor::predict`] would have applied, leaving the
    /// accuracy ratio untouched for the measurement window.
    pub fn warm(&mut self, pc: u64, inst: &Inst, taken: bool, target: u64) {
        match inst.opcode {
            Opcode::Jal if inst.dst().is_some() => self.push_ras(pc + 1),
            Opcode::Jalr => {
                if inst.dst().is_some() {
                    self.push_ras(pc + 1);
                } else {
                    self.ras.pop();
                }
            }
            op if op.is_cond_branch() => {
                let idx = self.pht_index(pc);
                let c = &mut self.pht[idx];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
                self.history = (self.history << 1) | taken as u64;
            }
            _ => {}
        }
        if taken {
            let idx = self.btb_index(pc);
            self.btb[idx] = Some((pc, target));
        }
    }

    /// Clears accuracy statistics, keeping all trained state.
    pub fn reset_stats(&mut self) {
        self.direction.reset();
    }

    /// Direction-prediction accuracy for conditional branches.
    pub fn direction_accuracy(&self) -> &Ratio {
        &self.direction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regshare_isa::reg;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::default())
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut bp = bp();
        let b = Inst::branch(Opcode::Bne, reg::x(1), reg::x(2), 3);
        // Train taken repeatedly — long enough for the global history to
        // saturate so the final prediction hits a trained PHT entry.
        for _ in 0..32 {
            let p = bp.predict(10, &b);
            bp.update(10, &b, true, 3, p);
        }
        assert!(bp.predict(10, &b).taken);
        assert!(bp.direction_accuracy().fraction() > 0.5);
    }

    #[test]
    fn cold_conditional_predicts_not_taken() {
        let mut bp = bp();
        let b = Inst::branch(Opcode::Beq, reg::x(1), reg::x(2), 3);
        assert!(!bp.predict(10, &b).taken);
    }

    #[test]
    fn jal_is_always_taken_with_static_target() {
        let mut bp = bp();
        let j = Inst::jal(None, 42);
        let p = bp.predict(0, &j);
        assert!(p.taken);
        assert_eq!(p.target, 42);
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut bp = bp();
        let call = Inst::jal(Some(reg::lr()), 100);
        bp.predict(7, &call); // pushes 8
        let ret = Inst::jalr(None, reg::lr(), 0);
        let p = bp.predict(100, &ret);
        assert_eq!(p.target, 8);
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut bp = bp();
        let call = Inst::jal(Some(reg::lr()), 50);
        bp.predict(1, &call);
        bp.predict(2, &call);
        let ret = Inst::jalr(None, reg::lr(), 0);
        assert_eq!(bp.predict(50, &ret).target, 3);
        assert_eq!(bp.predict(50, &ret).target, 2);
    }

    #[test]
    fn return_without_ras_falls_back_to_btb() {
        let mut bp = bp();
        let ret = Inst::jalr(None, reg::lr(), 0);
        // Cold: falls through.
        assert_eq!(bp.predict(9, &ret).target, 10);
        let p = bp.predict(9, &ret);
        bp.update(9, &ret, true, 77, p);
        assert_eq!(bp.predict(9, &ret).target, 77);
    }

    #[test]
    fn warming_trains_without_recording_stats() {
        let mut bp = bp();
        let b = Inst::branch(Opcode::Bne, reg::x(1), reg::x(2), 3);
        for _ in 0..32 {
            bp.warm(10, &b, true, 3);
        }
        assert_eq!(bp.direction_accuracy().total(), 0);
        assert!(bp.predict(10, &b).taken, "warming should train the PHT");
    }

    #[test]
    fn warming_maintains_the_ras() {
        let mut bp = bp();
        let call = Inst::jal(Some(reg::lr()), 100);
        bp.warm(7, &call, true, 100);
        let ret = Inst::jalr(None, reg::lr(), 0);
        assert_eq!(bp.predict(100, &ret).target, 8);
    }

    #[test]
    fn reset_stats_keeps_training() {
        let mut bp = bp();
        let b = Inst::branch(Opcode::Bne, reg::x(1), reg::x(2), 3);
        for _ in 0..32 {
            let p = bp.predict(10, &b);
            bp.update(10, &b, true, 3, p);
        }
        bp.reset_stats();
        assert_eq!(bp.direction_accuracy().total(), 0);
        assert!(bp.predict(10, &b).taken);
    }

    #[test]
    fn history_distinguishes_correlated_branches() {
        let mut bp = bp();
        let b = Inst::branch(Opcode::Beq, reg::x(1), reg::x(2), 3);
        // Alternating pattern: gshare should reach high accuracy after
        // warmup thanks to history bits.
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let p = bp.predict(5, &b);
            if p.taken == taken && i >= 50 {
                correct += 1;
            }
            bp.update(5, &b, taken, 3, p);
        }
        assert!(
            correct > 140,
            "gshare should learn the alternating pattern, got {correct}"
        );
    }
}
