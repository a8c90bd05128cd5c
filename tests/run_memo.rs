//! Run specs and the run memo: a spec that reads static hints runs with
//! its compiled hint table, a hit replays what an uncached run reports,
//! concurrent requests for one spec simulate it once, a failed run is
//! never cached, and the memoised experiments write the same bytes
//! whatever ran before them in the process.

use regshare::analyze::compile_hints;
use regshare::core::{HintPolicy, RenamerConfig};
use regshare::experiments::{registry, Args};
use regshare::harness::{par_map_with, RenamerKind, RunMemo, RunSpec, Scheme};
use regshare::sim::{Pipeline, SimReport};
use regshare::workloads::all_kernels;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

const SCALE: u64 = 4_000;

/// The experiments whose detailed runs go through the memo.
const MEMOISED: [&str; 10] = [
    "fig10",
    "fig10ec",
    "fig11",
    "fig12",
    "analyze",
    "hints",
    "ablate-counter",
    "ablate-speculation",
    "ablate-predictor",
    "ablate-banks",
];

/// The report without its host-time fields.
fn deterministic(report: &SimReport) -> String {
    let mut r = report.clone();
    r.wall_seconds = 0.0;
    r.profile.nanos = Default::default();
    format!("{r:?}")
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("regshare-memo-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn args_into(out_dir: &Path, scale: u64) -> Args {
    Args {
        scale,
        out_dir: out_dir.display().to_string(),
        ..Args::default()
    }
}

fn run_experiments(names: &[&str], args: &Args) {
    let known = registry();
    for name in names {
        let (_, run) = known
            .iter()
            .find(|(n, _)| n == name)
            .expect("registered experiment");
        run(args).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn a_hit_replays_the_uncached_report_for_every_renamer_kind() {
    let kernel = all_kernels()[0];
    let specs = [
        RunSpec::scheme(kernel, Scheme::Baseline, 64, SCALE),
        RunSpec::scheme(kernel, Scheme::Proposed, 64, SCALE),
        RunSpec::new(
            kernel,
            RenamerKind::EarlyRelease,
            RenamerConfig::baseline(64),
            SCALE,
        ),
    ];
    let memo = RunMemo::new();
    for (i, spec) in specs.iter().enumerate() {
        let first = memo.run(spec).unwrap();
        let hit = memo.run(spec).unwrap();
        assert!(
            Arc::ptr_eq(&first, &hit),
            "{spec}: a hit is the first report"
        );
        assert_eq!(
            memo.simulated(),
            i as u64 + 1,
            "{spec}: a hit simulates nothing"
        );
        assert_eq!(
            deterministic(&hit),
            deterministic(&spec.run().unwrap()),
            "{spec}: memoised and uncached reports differ"
        );
    }
    assert_eq!(memo.requested(), 2 * specs.len() as u64);
}

#[test]
fn a_static_only_spec_runs_with_the_compiled_hint_table() {
    let mut static_speculations = 0;
    for kernel in all_kernels() {
        let mut spec = RunSpec::scheme(kernel, Scheme::Proposed, 64, SCALE);
        spec.config.hint_policy = HintPolicy::StaticOnly;
        let program = kernel.program(SCALE);
        let hints = compile_hints(&program);
        let renamer = spec.renamer.build(spec.config.clone());
        let mut direct = Pipeline::new(program.with_hints(hints), renamer, spec.sim.clone());
        let report = spec.run().unwrap();
        assert_eq!(
            deterministic(&report),
            deterministic(&direct.run().unwrap()),
            "{spec}: the spec's run differs from one on the hinted program"
        );
        static_speculations += report.hints.static_speculations;
    }
    assert!(static_speculations > 0, "no kernel speculated on a hint");
}

#[test]
fn two_workers_asking_for_one_spec_simulate_it_once() {
    let spec = RunSpec::scheme(all_kernels()[0], Scheme::Proposed, 64, SCALE);
    let memo = RunMemo::new();
    // Both workers pass the barrier before either asks, so the second
    // request arrives while the first is simulating or just after.
    let barrier = Barrier::new(2);
    let reports = par_map_with(&[spec.clone(), spec], Some(2), |spec| {
        barrier.wait();
        memo.run(spec).unwrap()
    });
    assert_eq!((memo.requested(), memo.simulated()), (2, 1));
    assert!(Arc::ptr_eq(&reports[0], &reports[1]));
}

#[test]
fn a_failed_run_is_not_cached() {
    let mut spec = RunSpec::scheme(all_kernels()[0], Scheme::Baseline, 64, SCALE);
    spec.sim.fetch_width = 0;
    let memo = RunMemo::new();
    assert!(memo.run(&spec).is_err());
    assert!(memo.run(&spec).is_err());
    assert_eq!(
        memo.simulated(),
        2,
        "each request after a failure runs again"
    );
}

#[test]
fn memoised_experiments_simulate_each_distinct_point_once() {
    let out = temp_dir("counts");
    let args = args_into(&out, 10);
    run_experiments(&MEMOISED, &args);
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(args.memo.requested(), 1710);
    assert_eq!(args.memo.simulated(), 774);
}

#[test]
fn a_shared_memo_writes_the_bytes_of_a_fresh_one() {
    let shared_dir = temp_dir("shared");
    let shared = args_into(&shared_dir, 300);
    run_experiments(&["fig10", "fig10ec", "fig11", "ablate-banks"], &shared);
    assert!(shared.memo.simulated() < shared.memo.requested());
    for name in ["fig11", "ablate-banks"] {
        let alone_dir = temp_dir(name);
        run_experiments(&[name], &args_into(&alone_dir, 300));
        let file = format!("{}.json", name.replace('-', "_"));
        let read = |dir: &Path| std::fs::read(dir.join(&file)).expect("results file");
        assert!(
            read(&shared_dir) == read(&alone_dir),
            "{file}: a memo warmed by fig10 and fig10ec changed its bytes"
        );
        let _ = std::fs::remove_dir_all(&alone_dir);
    }
    let _ = std::fs::remove_dir_all(&shared_dir);
}
