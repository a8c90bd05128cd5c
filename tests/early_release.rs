//! The early-release comparator through the full pipeline: oracle-checked
//! on every kernel (no exception injection — the scheme does not support
//! precise exceptions, which is the paper's argument against it).

use regshare::core::Renamer;
use regshare::harness::{
    experiment_config, renamer_config_for, renamer_for, swept_class, RenamerKind, RunSpec, Scheme,
};
use regshare::isa::RegClass;
use regshare::sim::Pipeline;
use regshare::workloads::{all_kernels, suite_kernels, Suite};

const SCALE: u64 = 8_000;

/// (kernel, cycles, committed instructions, registers released) of
/// early release at a 48-register swept file and `SCALE` instructions.
/// Regenerate with `cargo run --release --bin golden_probe -- early`.
const EARLY_GOLDEN: [(&str, u64, u64, u64); 18] = [
    ("saxpy", 6495, 5336, 5334),
    ("fir", 12608, 7639, 7274),
    ("dct", 10404, 7591, 7301),
    ("matmul", 8447, 6984, 7733),
    ("horner", 22478, 7569, 7567),
    ("stencil", 10378, 7279, 6550),
    ("options", 17437, 5617, 6015),
    ("fft", 5859, 8000, 6910),
    ("sort", 6122, 6446, 3773),
    ("hashjoin", 21055, 6166, 5502),
    ("pchase", 7411, 6672, 5337),
    ("crc32", 19744, 7276, 4809),
    ("rle", 16847, 7125, 4451),
    ("bitcount", 4380, 8002, 4836),
    ("adpcm", 21196, 8001, 5474),
    ("sad", 6080, 8000, 7841),
    ("gmm", 5833, 8001, 9848),
    ("dnn", 4739, 5031, 5990),
];

/// The early-release comparator: conventional renaming at the
/// baseline's configuration.
fn early_renamer(rf: usize, swept: RegClass) -> Box<dyn Renamer> {
    RenamerKind::EarlyRelease.build(renamer_config_for(Scheme::Baseline, rf, swept))
}

#[test]
fn every_kernel_matches_early_release_golden() {
    let kernels = all_kernels();
    assert_eq!(
        kernels.len(),
        EARLY_GOLDEN.len(),
        "golden table out of date"
    );
    let mut mismatches = Vec::new();
    for (k, want) in kernels.into_iter().zip(EARLY_GOLDEN) {
        let mut spec = RunSpec::scheme(k, Scheme::Baseline, 48, SCALE);
        spec.renamer = RenamerKind::EarlyRelease;
        let r = spec.run().unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let got = (
            k.name,
            r.cycles,
            r.committed_instructions,
            r.rename.releases,
        );
        if got != want {
            mismatches.push(format!("got {got:?}, want {want:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn all_kernels_lockstep_early_release() {
    for rf in [48usize, 96] {
        for k in all_kernels() {
            let program = k.program(SCALE);
            let mut config = experiment_config(SCALE);
            config.check_oracle = true;
            let mut sim = Pipeline::new(program, early_renamer(rf, swept_class(k.suite)), config);
            sim.run()
                .unwrap_or_else(|e| panic!("{} @ {rf}: {e}", k.name));
        }
    }
}

#[test]
fn early_release_never_loses_to_baseline_badly_and_often_wins() {
    // Early release strictly relaxes the release condition; at a starved
    // register file it should at worst match the baseline and typically
    // beat it on register-pressure-bound kernels.
    let mut wins = 0;
    let mut total = 0;
    for k in suite_kernels(Suite::Int)
        .into_iter()
        .chain(suite_kernels(Suite::Media))
    {
        let base = {
            let program = k.program(SCALE);
            let renamer = renamer_for(Scheme::Baseline, 48, swept_class(k.suite));
            let mut sim = Pipeline::new(program, renamer, experiment_config(SCALE));
            sim.run().expect("baseline").ipc()
        };
        let early = {
            let program = k.program(SCALE);
            let mut sim = Pipeline::new(
                program,
                early_renamer(48, swept_class(k.suite)),
                experiment_config(SCALE),
            );
            sim.run().expect("early release").ipc()
        };
        assert!(
            early >= base * 0.98,
            "{}: early release regressed: {early:.3} vs {base:.3}",
            k.name
        );
        if early > base * 1.005 {
            wins += 1;
        }
        total += 1;
    }
    assert!(wins > 0, "early release won on none of {total} kernels");
}

#[test]
fn early_release_handles_misprediction_storms() {
    use regshare::isa::{reg, Asm};
    // Unpredictable branches: releases queue behind unresolved branches
    // and squashes must restore pending-read counters exactly.
    let mut a = Asm::new();
    a.li(reg::x(1), 987654321);
    a.li(reg::x(2), 400);
    let top = a.label();
    let skip = a.label();
    a.bind(top);
    a.li(reg::x(4), 6364136223846793005);
    a.mul(reg::x(1), reg::x(1), reg::x(4));
    a.addi(reg::x(1), reg::x(1), 1442695040888963407);
    a.srli(reg::x(5), reg::x(1), 37);
    a.andi(reg::x(5), reg::x(5), 1);
    a.beq(reg::x(5), reg::zero(), skip);
    a.addi(reg::x(6), reg::x(6), 1);
    a.bind(skip);
    a.subi(reg::x(2), reg::x(2), 1);
    a.bne(reg::x(2), reg::zero(), top);
    a.halt();
    let program = a.assemble();
    let mut config = experiment_config(0);
    config.max_cycles = 2_000_000;
    config.check_oracle = true;
    let mut sim = Pipeline::new(program, early_renamer(40, RegClass::Int), config);
    let report = sim.run().expect("mispredict storm run");
    assert!(report.halted);
    assert!(report.mispredicts > 20);
}
