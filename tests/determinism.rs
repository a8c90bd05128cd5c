//! Determinism regression test.
//!
//! The experiment harness promises bit-identical results across runs and
//! across the sequential/parallel sweep paths: every simulation owns its
//! state, hashing is the deterministic [`regshare::stats::FastHasher`],
//! and `par_map` returns results in input order. These goldens pin the
//! committed-instruction and cycle counts of every kernel under both
//! schemes; any change to them is a behavior change, not a perf tweak,
//! and must be deliberate (regenerate with `cargo run --release --bin
//! golden_probe`). `COUNTERS_GOLDEN` pins the sharing renamer's rename,
//! hint and predictor counters the same way (`golden_probe counters`).

use regshare::core::HintPolicy;
use regshare::harness::{
    experiment_config, par_map, renamer_for, run_kernel, swept_class, RunSpec, Scheme,
};
use regshare::sim::{Pipeline, SimReport};
use regshare::workloads::{all_kernels, Kernel};
use regshare_serve::fnv1a64;

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

/// (kernel, hint policy, cycles, FNV-1a of [`counters_text`]) of the
/// sharing renamer at `SCALE` and RF 48.
const COUNTERS_GOLDEN: [(&str, HintPolicy, u64, u64); 54] = [
    ("saxpy", HintPolicy::DynamicOnly, 6540, 0xc794a167df236d36),
    ("saxpy", HintPolicy::StaticOnly, 6540, 0x2d7d5f54fc08e640),
    ("saxpy", HintPolicy::Hybrid, 6540, 0x3efe257db54dc2f1),
    ("fir", HintPolicy::DynamicOnly, 12621, 0xbc07d133b58e060c),
    ("fir", HintPolicy::StaticOnly, 12691, 0x8b06c43950a2292e),
    ("fir", HintPolicy::Hybrid, 12621, 0x9733483fa0df97e2),
    ("dct", HintPolicy::DynamicOnly, 10689, 0x34057cc36e8a08cc),
    ("dct", HintPolicy::StaticOnly, 10653, 0xb257395913fe7d6e),
    ("dct", HintPolicy::Hybrid, 10653, 0x4291646e8cdc4275),
    ("matmul", HintPolicy::DynamicOnly, 8623, 0xf22f20e72e254241),
    ("matmul", HintPolicy::StaticOnly, 8617, 0xa0a59f42f3926867),
    ("matmul", HintPolicy::Hybrid, 8617, 0x542ab8a2d5952319),
    ("horner", HintPolicy::DynamicOnly, 22494, 0xa3bb86e793560963),
    ("horner", HintPolicy::StaticOnly, 22494, 0x528da54a38a98ff2),
    ("horner", HintPolicy::Hybrid, 22494, 0x6741edbb621f71ba),
    (
        "stencil",
        HintPolicy::DynamicOnly,
        10394,
        0xead3df0592a93878,
    ),
    ("stencil", HintPolicy::StaticOnly, 10394, 0x3f79aaca52f7f541),
    ("stencil", HintPolicy::Hybrid, 10394, 0xdc6aa519836728af),
    (
        "options",
        HintPolicy::DynamicOnly,
        17438,
        0x562d7f3e74bfb537,
    ),
    ("options", HintPolicy::StaticOnly, 17438, 0xa7ef6e961eb0814d),
    ("options", HintPolicy::Hybrid, 17438, 0xab592f81aef9b394),
    ("fft", HintPolicy::DynamicOnly, 6713, 0x531ef5cb35f9dfca),
    ("fft", HintPolicy::StaticOnly, 6688, 0xddcfa844654b7329),
    ("fft", HintPolicy::Hybrid, 6688, 0x159bd673f67f9661),
    ("sort", HintPolicy::DynamicOnly, 6163, 0x9a3e6539b8f45de3),
    ("sort", HintPolicy::StaticOnly, 5907, 0xb98131e131577410),
    ("sort", HintPolicy::Hybrid, 5910, 0x0e75fc59e9b8d8c0),
    (
        "hashjoin",
        HintPolicy::DynamicOnly,
        22759,
        0x23c7405a97e53b3d,
    ),
    (
        "hashjoin",
        HintPolicy::StaticOnly,
        22119,
        0x07721f36efc7b9ba,
    ),
    ("hashjoin", HintPolicy::Hybrid, 21739, 0x8ef7742303d68ed6),
    ("pchase", HintPolicy::DynamicOnly, 11465, 0xc42b5327e777a252),
    ("pchase", HintPolicy::StaticOnly, 11520, 0x48e5589c0ea93a92),
    ("pchase", HintPolicy::Hybrid, 11467, 0xc63fa1598b92048f),
    ("crc32", HintPolicy::DynamicOnly, 19793, 0xbb339dd557565002),
    ("crc32", HintPolicy::StaticOnly, 19791, 0x1379ef1ddd2398e1),
    ("crc32", HintPolicy::Hybrid, 19797, 0xa0b28afcd75c087b),
    ("rle", HintPolicy::DynamicOnly, 16928, 0xdc56abae7e591549),
    ("rle", HintPolicy::StaticOnly, 16911, 0x739e2ca5d8a5d4fd),
    ("rle", HintPolicy::Hybrid, 16911, 0x53fdc2a33e0f7ca0),
    (
        "bitcount",
        HintPolicy::DynamicOnly,
        4420,
        0x32a67a506ae4b8f8,
    ),
    ("bitcount", HintPolicy::StaticOnly, 4406, 0x9d1904b9d0d8cb15),
    ("bitcount", HintPolicy::Hybrid, 4406, 0x96fb98089aa8551e),
    ("adpcm", HintPolicy::DynamicOnly, 21178, 0x4cb5f97db6523191),
    ("adpcm", HintPolicy::StaticOnly, 21243, 0x518158ca3747b68b),
    ("adpcm", HintPolicy::Hybrid, 21089, 0xa27fc22fa97c4b14),
    ("sad", HintPolicy::DynamicOnly, 5797, 0xf19b1d715a2b2a0b),
    ("sad", HintPolicy::StaticOnly, 6538, 0xde9d21972763c3f7),
    ("sad", HintPolicy::Hybrid, 6338, 0xb107451d917812ad),
    ("gmm", HintPolicy::DynamicOnly, 7272, 0xb064030739c8a40f),
    ("gmm", HintPolicy::StaticOnly, 7290, 0x8cb60e60776ee9ba),
    ("gmm", HintPolicy::Hybrid, 7290, 0xb18d1ba4466d0980),
    ("dnn", HintPolicy::DynamicOnly, 5342, 0xb4d41c43e1b224ab),
    ("dnn", HintPolicy::StaticOnly, 5136, 0xd12f4879ff3c7f21),
    ("dnn", HintPolicy::Hybrid, 5091, 0x785c9b7a70d2cad0),
];

/// Every rename, hint and predictor counter of a run as one line: the
/// text `COUNTERS_GOLDEN` digests (`golden_probe counters` prints the
/// same digest).
fn counters_text(r: &SimReport) -> String {
    format!("{:?} {:?} {:?}", r.rename, r.hints, r.predictor)
}

#[test]
fn sharing_renamer_counters_match_golden() {
    // RF 48 starves the file, so stalled renames retry and the stall
    // gate replays the failed attempt's counters on many kernels: a
    // replay that adds the wrong tally moves these digests while
    // cycles and commits stay put.
    let points: Vec<(Kernel, HintPolicy)> = all_kernels()
        .into_iter()
        .flat_map(|k| {
            [
                HintPolicy::DynamicOnly,
                HintPolicy::StaticOnly,
                HintPolicy::Hybrid,
            ]
            .map(|p| (k, p))
        })
        .collect();
    assert_eq!(
        points.len(),
        COUNTERS_GOLDEN.len(),
        "golden table out of date"
    );
    let runs = par_map(&points, |&(k, policy)| {
        let mut spec = RunSpec::scheme(k, Scheme::Proposed, 48, SCALE);
        spec.config.hint_policy = policy;
        let r = spec.run().expect("kernel runs");
        let text = counters_text(&r);
        ((k.name, policy, r.cycles, fnv1a64(text.as_bytes())), text)
    });
    let mismatches: Vec<String> = runs
        .iter()
        .zip(COUNTERS_GOLDEN.iter())
        .filter(|((got, _), want)| got != *want)
        .map(|((got, text), want)| format!("got {got:?}, want {want:?}\n  counters: {text}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "counter golden mismatches:\n{}",
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
