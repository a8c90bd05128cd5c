//! `regbench` — the regshare benchmark.
//!
//! ```text
//! regbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! regbench bless [--workload NAME]
//! regbench compare --base RUN.txt... --new RUN.txt... [--spec BENCHMARK.json]
//! ```
//!
//! Run from the repository root (`cargo run --release --offline
//! --manifest-path regbench/Cargo.toml -- run ...`). `run` builds the
//! repository's release binaries, times one workload for `--seconds`,
//! checks every output against `regbench/golden/`, and prints one JSON
//! result as its last line: the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics of a traced run (spans go to
//! `<target>/regbench/trace-<workload>.json`). See `regbench/README.md`.

use regbench::golden::Golden;
use regbench::host::{median, nproc, percentile};
use regbench::trace::Tracer;
use regbench::workloads::{Env, Op, Rep, Timed, Workload, SETUP_SAMPLES_PER_REP};
use regbench::yardstick::{Yardstick, REFERENCE_SLICE_S};
use regbench::{compare, per_layer_names, per_layer_unit, probe, END_TO_END};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  regbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  regbench bless [--workload NAME]
  regbench compare --base RUN.txt... --new RUN.txt... [--spec BENCHMARK.json]
workloads: detailed_suite paper_sweep sampled serve_sweep
Run from the repository root.";

struct RunOpts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("regbench: {msg}");
    std::process::exit(2);
}

fn parse_run(mut args: impl Iterator<Item = String>) -> RunOpts {
    let mut workload = None;
    let mut opts = RunOpts {
        workload: Workload::DetailedSuite,
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name:?}\n{USAGE}"))),
                );
            }
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| die("--seconds needs a positive number"))
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--smoke" => opts.smoke = true,
            other => die(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| die(&format!("--workload is required\n{USAGE}")));
    opts
}

/// The benchmark's scratch space under the target directory; removed
/// when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the repository's release binaries (a no-op when current) and
/// returns where they and the scratch space are.
fn prepare() -> Result<(Env, WorkDir), String> {
    if !Path::new("src/bin/experiments.rs").is_file() || !Path::new("regbench/Cargo.toml").is_file()
    {
        return Err("run regbench from the repository root".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "experiments",
            "--bin",
            "regsim",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the repository failed ({status})"));
    }
    let release = target_dir().join("release");
    let work = target_dir()
        .join("regbench")
        .join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    Ok((
        Env {
            experiments: release.join("experiments"),
            regsim: release.join("regsim"),
            work: work.clone(),
        },
        WorkDir(work),
    ))
}

/// Checks one operation against the golden outputs.
fn check(golden: &Golden, op: &Op) -> Result<(), String> {
    if let Some(e) = &op.error {
        return Err(e.clone());
    }
    for (key, d, _) in &op.outputs {
        golden.check(key, d)?;
    }
    if op.complete {
        let got: Vec<&String> = op.outputs.iter().map(|(k, _, _)| k).collect();
        let want: Vec<&String> = golden.entries.keys().collect();
        if got != want {
            return Err(format!("outputs {got:?} != golden {want:?}"));
        }
    }
    Ok(())
}

/// The order seed of rep `run`: every rep of a run gets its own
/// permutation, all fixed by the run's seed.
fn rep_seed(seed: u64, run: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(run)
}

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, golden: &Golden, rep: &Rep) {
        for op in &rep.ops {
            self.attempted += 1;
            if let Err(e) = check(golden, op) {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("regbench: FAILED {e}");
                }
            }
        }
    }
}

/// A metric as printed: name, unit, value.
type Metric = (String, &'static str, f64);

fn cmd_run(opts: &RunOpts) -> Result<(), String> {
    let w = opts.workload;
    let (env, _work) = prepare()?;
    let golden = Golden::load(w.name(), &w.params())?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let metrics = if opts.trace {
        run_traced(opts, &env, &golden, &mut tally)?
    } else {
        run_untraced(opts, &env, &golden, &mut tally)?
    };
    for (name, unit, v) in &metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, v)| {
            let value = Value::Object(vec![
                ("value".to_string(), Value::Float(v)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]);
            (name, value)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(tally.failed == 0)),
        ("attempted".to_string(), Value::UInt(tally.attempted)),
        ("failed".to_string(), Value::UInt(tally.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(())
}

/// The end-to-end run: a warm-up rep, then reps until the budget is
/// spent, each followed by [`SETUP_SAMPLES_PER_REP`] set-up samples, so
/// that the set-up samples see the same host as the reps. Every time is
/// read in yardstick slices (see `workloads`); set-up is reported in
/// seconds at [`REFERENCE_SLICE_S`]. A smoke run skips the warm-up and
/// runs one rep and one set-up sample.
fn run_untraced(
    opts: &RunOpts,
    env: &Env,
    golden: &Golden,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let w = opts.workload;
    let mut tracer = Tracer::off();
    let mut yardstick = Yardstick::new();
    if !opts.smoke {
        // A warm-up rep fills the page cache and lets lazy start-up
        // finish; its outputs are checked, its costs are not counted.
        let warm_up = w.rep(env, rep_seed(opts.seed, 0), 0, &mut tracer, &mut yardstick)?;
        tally.add(golden, &warm_up);
    }
    let samples_per_rep = if opts.smoke { 1 } else { SETUP_SAMPLES_PER_REP };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<Timed> = Vec::new();
    let mut rep_secs = Vec::new();
    loop {
        let t = Instant::now();
        let run = reps.len() as u64 + 1;
        let rep = w.rep(
            env,
            rep_seed(opts.seed, run),
            run,
            &mut tracer,
            &mut yardstick,
        )?;
        tally.add(golden, &rep);
        setups.extend(rep.setup);
        reps.push(rep);
        for i in 0..samples_per_rep as u64 {
            let seed = rep_seed(opts.seed, run).wrapping_add(i + 1);
            setups.extend(w.setup_sample(env, seed, &mut yardstick)?);
        }
        rep_secs.push(t.elapsed().as_secs_f64());
        if opts.smoke || started.elapsed().as_secs_f64() + median(&rep_secs) > opts.seconds {
            break;
        }
    }
    println!(
        "regbench workload={} seed={} trace=0 reps={} setups={} nproc={}",
        w.name(),
        opts.seed,
        reps.len(),
        setups.len(),
        nproc()
    );
    let each = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let shown = |v: &[f64]| -> String {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  rep wall_s:      {}", shown(&each(&|r| r.wall.s)));
    println!("  rep wall_slices: {}", shown(&each(&|r| r.wall.slices)));
    println!("  rep cpu_s:       {}", shown(&each(&|r| r.cpu.s)));
    let setup_s: Vec<f64> = setups.iter().map(|t| t.s).collect();
    let setup_slices: Vec<f64> = setups.iter().map(|t| t.slices).collect();
    println!("  setup_s:         {}", shown(&setup_s));
    println!("  setup_slices:    {}", shown(&setup_slices));
    let values = [
        median(&each(&|r| r.wall.slices)),
        median(&each(&|r| r.cpu.slices)),
        median(&each(&|r| r.cpu.s / (r.wall.s * nproc() as f64))),
        median(&each(&|r| r.rss_mb)),
        median(&setup_slices) * REFERENCE_SLICE_S,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), *unit, v))
        .collect())
}

/// The traced run: one rep with a span around every client call, then
/// probe passes over the workload's kernel mix until the budget is spent.
fn run_traced(
    opts: &RunOpts,
    env: &Env,
    golden: &Golden,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let w = opts.workload;
    let mut tracer = Tracer::on();
    let started = Instant::now();
    let rep = w.rep(
        env,
        rep_seed(opts.seed, 0),
        0,
        &mut tracer,
        &mut Yardstick::new(),
    )?;
    tally.add(golden, &rep);
    let spec = w.probe(opts.seed);
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut pass_secs = Vec::new();
    loop {
        let t = Instant::now();
        tally.attempted += 1;
        match probe::pass(&spec, &mut tracer, passes.len() as u64 + 1) {
            Ok(m) => passes.push(m),
            Err(e) => {
                tally.failed += 1;
                eprintln!("regbench: FAILED probe: {e}");
                break;
            }
        }
        pass_secs.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&pass_secs) > opts.seconds {
            break;
        }
    }
    let path = target_dir()
        .join("regbench")
        .join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "regbench workload={} seed={} trace=1 probe_passes={} spans={}",
        w.name(),
        opts.seed,
        passes.len(),
        path.display()
    );
    Ok(per_layer_names()
        .into_iter()
        .map(|name| {
            let v = match name.as_str() {
                "client.calls" => rep.calls_ms.len() as f64,
                "client.call_p50_ms" => median(&rep.calls_ms),
                "client.call_p95_ms" => percentile(&rep.calls_ms, 0.95),
                _ => {
                    let samples: Vec<f64> = passes
                        .iter()
                        .filter_map(|p| p.get(&name).copied())
                        .collect();
                    if samples.is_empty() {
                        0.0
                    } else {
                        median(&samples)
                    }
                }
            };
            let unit = per_layer_unit(&name);
            (name, unit, v)
        })
        .collect())
}

/// Regenerates the goldens: two untraced reps with different orders
/// must produce identical outputs, which are then written.
fn cmd_bless(only: Option<Workload>) -> Result<(), String> {
    let (env, _work) = prepare()?;
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut tracer = Tracer::off();
        let mut yardstick = Yardstick::new();
        let mut blessed: Vec<Golden> = Vec::new();
        for (run, seed) in [(0u64, 1u64), (1, 2)] {
            let rep = w.rep(&env, seed, run, &mut tracer, &mut yardstick)?;
            let mut golden = Golden::new(&w.params());
            for op in &rep.ops {
                if let Some(e) = &op.error {
                    return Err(format!("{}: {e}", w.name()));
                }
                for (key, d, note) in &op.outputs {
                    golden.insert(key, d.clone(), note);
                }
            }
            blessed.push(golden);
        }
        if blessed[0] != blessed[1] {
            return Err(format!(
                "{}: two runs produced different outputs; the program is not deterministic",
                w.name()
            ));
        }
        let path = blessed[0]
            .save(w.name())
            .map_err(|e| format!("write golden: {e}"))?;
        println!(
            "blessed {} ({} outputs) -> {}",
            w.name(),
            blessed[0].entries.len(),
            path.display()
        );
    }
    Ok(())
}

fn cmd_compare(args: impl Iterator<Item = String>) -> Result<bool, String> {
    let (mut base, mut new, mut spec) = (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut side = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--base" => side = Some(true),
            "--new" => side = Some(false),
            "--spec" => spec = args.next().ok_or("--spec needs a path")?,
            file => {
                let text =
                    std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
                let run = compare::parse_run(&text).map_err(|e| format!("{file}: {e}"))?;
                match side {
                    Some(true) => base.push(run),
                    Some(false) => new.push(run),
                    None => return Err(format!("{file}: name --base or --new first")),
                }
            }
        }
    }
    if base.is_empty() || new.is_empty() {
        return Err(format!("compare needs runs on both sides\n{USAGE}"));
    }
    let spec = std::fs::read_to_string(&spec).map_err(|e| format!("read {spec}: {e}"))?;
    let (report, regressed) = compare::compare(&base, &new, &compare::rules(&spec)?);
    print!("{report}");
    Ok(regressed)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => cmd_run(&parse_run(args)),
        Some("bless") => {
            let only = match (args.next().as_deref(), args.next()) {
                (None, _) => None,
                (Some("--workload"), Some(name)) => Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| die(&format!("unknown workload {name:?}"))),
                ),
                _ => die(USAGE),
            };
            cmd_bless(only)
        }
        Some("compare") => match cmd_compare(args) {
            Ok(true) => {
                eprintln!("regbench: regression found");
                std::process::exit(1);
            }
            Ok(false) => Ok(()),
            Err(e) => Err(e),
        },
        _ => die(USAGE),
    };
    if let Err(e) = outcome {
        die(&e);
    }
}
