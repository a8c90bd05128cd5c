//! Synthetic program generation with controllable dataflow statistics.
//!
//! The hand-written kernels have *fixed* single-use ratios; the synthetic
//! generator dials the ratio directly, which the sensitivity studies and
//! the property-based tests both need. It is also the random-program
//! source for the fuzz oracle tests: every generated program is valid by
//! construction (bounded memory, forward-only internal branches, a
//! terminating outer loop).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regshare_isa::{reg, Asm, DataBuilder, Program};

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Instructions in the loop body.
    pub body: usize,
    /// Outer-loop iterations.
    pub iterations: u64,
    /// Probability that an instruction extends a single-use chain
    /// (redefining its own single-use source) — the knob behind Fig. 1.
    pub single_use_bias: f64,
    /// Fraction of floating-point instructions.
    pub fp_fraction: f64,
    /// Fraction of memory instructions (split evenly loads/stores).
    pub mem_fraction: f64,
    /// Fraction of short forward conditional branches.
    pub branch_fraction: f64,
    /// RNG seed (the same seed always yields the same program).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            body: 100,
            iterations: 50,
            single_use_bias: 0.5,
            fp_fraction: 0.3,
            mem_fraction: 0.15,
            branch_fraction: 0.1,
            seed: 1,
        }
    }
}

/// Generates a synthetic program under the given configuration.
///
/// Register conventions: `x20`–`x23` / `f20`–`f23` hold long-lived shared
/// values (multi-consumer); `x1`–`x8` / `f1`–`f8` carry single-use chains;
/// `x28` is the scratch-memory base and `x27` the loop counter.
pub fn generate(config: SyntheticConfig) -> Program {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut d = DataBuilder::new(0x2_0000);
    let scratch = d.zeros(4096) as i64;
    let mut a = Asm::with_data(d);

    // Shared (multi-use) values.
    for i in 0..4 {
        a.li(reg::x(20 + i), rng.gen_range(1..100));
        a.fli(reg::f(20 + i), rng.gen_range(0.5..2.0));
    }
    // Seed the single-use chain registers so no instruction reads a
    // register that was never written (the static linter's UninitRead
    // check holds on every generated program).
    for i in 1..=8 {
        a.li(reg::x(i), i as i64);
        a.fli(reg::f(i), 1.0 + i as f64 / 8.0);
    }
    a.li(reg::x(28), scratch);
    a.li(reg::x(27), config.iterations as i64);
    let top = a.label();
    a.bind(top);

    let mut chain_int: u8 = 1; // rotates over x1..x8
    let mut chain_fp: u8 = 1;
    for _ in 0..config.body {
        let r: f64 = rng.gen();
        if r < config.mem_fraction {
            let offset = rng.gen_range(0..512) * 8;
            if rng.gen_bool(0.5) {
                a.ld(reg::x(rng.gen_range(9..16)), reg::x(28), offset);
            } else {
                a.st(reg::x(20 + rng.gen_range(0..4)), reg::x(28), offset);
            }
        } else if r < config.mem_fraction + config.branch_fraction {
            // Forward branch over one filler instruction.
            let skip = a.label();
            let cmp = 20 + rng.gen_range(0..4u8);
            if rng.gen_bool(0.5) {
                a.beq(reg::x(cmp), reg::x(20 + rng.gen_range(0..4)), skip);
            } else {
                a.bne(reg::x(cmp), reg::zero(), skip);
            }
            a.addi(reg::x(rng.gen_range(9..16)), reg::x(20), 1);
            a.bind(skip);
        } else {
            let fp = rng.gen_bool(config.fp_fraction);
            let single = rng.gen_bool(config.single_use_bias);
            if fp {
                let shared = reg::f(20 + rng.gen_range(0..4u8));
                if single {
                    let c = reg::f(chain_fp);
                    match rng.gen_range(0..3) {
                        0 => a.fadd(c, c, shared),
                        1 => a.fmul(c, c, shared),
                        _ => a.fma(c, c, shared, shared),
                    };
                    if rng.gen_bool(0.25) {
                        chain_fp = chain_fp % 8 + 1;
                    }
                } else {
                    let dst = reg::f(rng.gen_range(9..16u8));
                    let s2 = reg::f(20 + rng.gen_range(0..4u8));
                    match rng.gen_range(0..2) {
                        0 => a.fadd(dst, shared, s2),
                        _ => a.fmul(dst, shared, s2),
                    };
                }
            } else {
                let shared = reg::x(20 + rng.gen_range(0..4u8));
                if single {
                    let c = reg::x(chain_int);
                    match rng.gen_range(0..4) {
                        0 => a.add(c, c, shared),
                        1 => a.xor(c, c, shared),
                        2 => a.mul(c, c, shared),
                        _ => a.addi(c, c, rng.gen_range(-64..64)),
                    };
                    if rng.gen_bool(0.25) {
                        chain_int = chain_int % 8 + 1;
                    }
                } else {
                    let dst = reg::x(rng.gen_range(9..16u8));
                    let s2 = reg::x(20 + rng.gen_range(0..4u8));
                    match rng.gen_range(0..3) {
                        0 => a.add(dst, shared, s2),
                        1 => a.sub(dst, shared, s2),
                        _ => a.and(dst, shared, s2),
                    };
                }
            }
        }
    }
    a.subi(reg::x(27), reg::x(27), 1);
    a.bne(reg::x(27), reg::zero(), top);
    a.halt();
    a.assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Dataflow;
    use regshare_isa::{Machine, StopReason};

    #[test]
    fn generated_programs_halt() {
        for seed in 0..5 {
            let p = generate(SyntheticConfig {
                seed,
                iterations: 10,
                ..Default::default()
            });
            let mut m = Machine::new(p);
            assert_eq!(m.run(1_000_000).unwrap(), StopReason::Halted, "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_program() {
        let a = generate(SyntheticConfig::default());
        let b = generate(SyntheticConfig::default());
        assert_eq!(a.insts().len(), b.insts().len());
        assert_eq!(a.disassemble(), b.disassemble());
    }

    #[test]
    fn single_use_bias_moves_the_fig1_metric() {
        let lo = generate(SyntheticConfig {
            single_use_bias: 0.05,
            seed: 7,
            iterations: 20,
            ..Default::default()
        });
        let hi = generate(SyntheticConfig {
            single_use_bias: 0.95,
            seed: 7,
            iterations: 20,
            ..Default::default()
        });
        let lo_frac = Dataflow::run(&lo, 100_000).profile().single_use_fraction();
        let hi_frac = Dataflow::run(&hi, 100_000).profile().single_use_fraction();
        assert!(
            hi_frac > lo_frac + 0.2,
            "bias should move single-use fraction: {lo_frac:.3} vs {hi_frac:.3}"
        );
    }
}
