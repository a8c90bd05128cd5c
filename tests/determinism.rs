//! Determinism regression test.
//!
//! The experiment harness promises bit-identical results across runs and
//! across the sequential/parallel sweep paths: every simulation owns its
//! state, hashing is the deterministic [`regshare::stats::FastHasher`],
//! and `par_map` returns results in input order. These goldens pin the
//! committed-instruction and cycle counts of every kernel under both
//! schemes; any change to them is a behavior change, not a perf tweak,
//! and must be deliberate (regenerate with `cargo run --release --bin
//! golden_probe`).

use regshare::harness::{
    experiment_config, par_map, renamer_for, run_kernel, swept_class, RunSpec, Scheme,
};
use regshare::sim::{Pipeline, SimReport};
use regshare::workloads::all_kernels;

const SCALE: u64 = 8_000;
const RF_REGS: usize = 64;

/// (kernel, scheme, cycles, committed instructions) at `SCALE`/`RF_REGS`.
const GOLDEN: [(&str, Scheme, u64, u64); 36] = [
    ("saxpy", Scheme::Baseline, 6489, 5336),
    ("saxpy", Scheme::Proposed, 6489, 5336),
    ("fir", Scheme::Baseline, 12608, 7639),
    ("fir", Scheme::Proposed, 12608, 7639),
    ("dct", Scheme::Baseline, 10387, 7591),
    ("dct", Scheme::Proposed, 10387, 7591),
    ("matmul", Scheme::Baseline, 8414, 6984),
    ("matmul", Scheme::Proposed, 8414, 6984),
    ("horner", Scheme::Baseline, 22478, 7569),
    ("horner", Scheme::Proposed, 22478, 7569),
    ("stencil", Scheme::Baseline, 10362, 7279),
    ("stencil", Scheme::Proposed, 10362, 7279),
    ("options", Scheme::Baseline, 17437, 5617),
    ("options", Scheme::Proposed, 17437, 5617),
    ("fft", Scheme::Baseline, 5798, 8000),
    ("fft", Scheme::Proposed, 5871, 8000),
    ("sort", Scheme::Baseline, 6122, 6446),
    ("sort", Scheme::Proposed, 6175, 6446),
    ("hashjoin", Scheme::Baseline, 13737, 6166),
    ("hashjoin", Scheme::Proposed, 15674, 6166),
    ("pchase", Scheme::Baseline, 7684, 6672),
    ("pchase", Scheme::Proposed, 7896, 6672),
    ("crc32", Scheme::Baseline, 19744, 7276),
    ("crc32", Scheme::Proposed, 19825, 7276),
    ("rle", Scheme::Baseline, 16848, 7125),
    ("rle", Scheme::Proposed, 16913, 7125),
    ("bitcount", Scheme::Baseline, 4380, 8002),
    ("bitcount", Scheme::Proposed, 4421, 8002),
    ("adpcm", Scheme::Baseline, 21155, 8001),
    ("adpcm", Scheme::Proposed, 21273, 8001),
    ("sad", Scheme::Baseline, 6080, 8000),
    ("sad", Scheme::Proposed, 6090, 8000),
    ("gmm", Scheme::Baseline, 5903, 8001),
    ("gmm", Scheme::Proposed, 5672, 8001),
    ("dnn", Scheme::Baseline, 4559, 5031),
    ("dnn", Scheme::Proposed, 4480, 5031),
];

#[test]
fn every_kernel_matches_golden_counts() {
    let kernels = all_kernels();
    assert_eq!(kernels.len() * 2, GOLDEN.len(), "golden table out of date");
    // Run through the same worker pool the experiment sweeps use, so
    // this test covers the parallel path's determinism guarantee too.
    let points: Vec<(regshare::workloads::Kernel, Scheme)> = kernels
        .into_iter()
        .flat_map(|k| [(k, Scheme::Baseline), (k, Scheme::Proposed)])
        .collect();
    let reports = par_map(&points, |&(ref k, scheme)| {
        let r = run_kernel(k, scheme, RF_REGS, SCALE);
        (k.name, scheme, r.cycles, r.committed_instructions)
    });
    let mut mismatches = Vec::new();
    for ((got, want), (k, scheme)) in reports.iter().zip(GOLDEN.iter()).zip(points.iter()) {
        if got != want {
            // Re-run the diverging point on a pipeline we keep, so the
            // failure message carries its end-state diagnostic dump.
            let renamer = renamer_for(*scheme, RF_REGS, swept_class(k.suite));
            let mut sim = Pipeline::new(k.program(SCALE), renamer, experiment_config(SCALE));
            let rerun = sim.run();
            mismatches.push(format!(
                "got {got:?}, want {want:?}\n  rerun: {}\n  {}",
                match &rerun {
                    Ok(r) => format!(
                        "{} cycles, {} committed",
                        r.cycles, r.committed_instructions
                    ),
                    Err(e) => format!("error: {e}"),
                },
                sim.snapshot()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches:\n{}",
        mismatches.join("\n")
    );
}

/// The report without its host-time fields.
fn deterministic(report: &SimReport) -> String {
    let mut r = report.clone();
    r.wall_seconds = 0.0;
    r.profile.nanos = Default::default();
    format!("{r:?}")
}

#[test]
fn attached_hints_do_not_perturb_dynamic_only_goldens() {
    // A compiled hint table rides along in the program sidecar and is
    // installed into the renamer, but the default `DynamicOnly` policy
    // must never read it: every kernel must report exactly what the
    // hint-free run of its `RunSpec` reports (the run `hints` takes its
    // `DynamicOnly` rows from), in every deterministic field.
    let kernels = all_kernels();
    let mismatches: Vec<String> = par_map(&kernels, |k| {
        let program = k.program(SCALE);
        let hints = regshare::analyze::compile_hints(&program);
        assert!(hints.exact_slots() > 0, "{}: no hints compiled", k.name);
        let renamer = renamer_for(Scheme::Proposed, RF_REGS, swept_class(k.suite));
        let mut sim = Pipeline::new(program.with_hints(hints), renamer, experiment_config(SCALE));
        let got = deterministic(&sim.run().expect("kernel runs"));
        let spec = RunSpec::scheme(*k, Scheme::Proposed, RF_REGS, SCALE);
        let want = deterministic(&spec.run().expect("kernel runs"));
        (got != want).then(|| format!("{}:\n  got  {got}\n  want {want}", k.name))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        mismatches.is_empty(),
        "hints perturbed DynamicOnly:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let kernels = all_kernels();
    let k = kernels.iter().find(|k| k.name == "hashjoin").unwrap();
    let a = run_kernel(k, Scheme::Proposed, RF_REGS, SCALE);
    let b = run_kernel(k, Scheme::Proposed, RF_REGS, SCALE);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed_instructions, b.committed_instructions);
    assert_eq!(a.committed_uops, b.committed_uops);
    assert_eq!(a.rename.reuse_fraction(), b.rename.reuse_fraction());
}

#[test]
fn par_map_matches_sequential_map() {
    let kernels = all_kernels();
    let seq: Vec<u64> = kernels
        .iter()
        .map(|k| run_kernel(k, Scheme::Baseline, RF_REGS, 2_000).cycles)
        .collect();
    let par = par_map(&kernels, |k| {
        run_kernel(k, Scheme::Baseline, RF_REGS, 2_000).cycles
    });
    assert_eq!(seq, par);
}
