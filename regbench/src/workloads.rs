//! The four workloads. Each is a closed loop driven from this process,
//! one call at a time, against the repository's own release binaries
//! (`regsim`, `experiments`, `experiments serve`), so the end-to-end
//! numbers are those of the code users run, built with the
//! repository's build settings.
//!
//! A workload is run as repetitions ("reps"). One rep is the unit of
//! work a user waits for; its wall time, CPU time and peak memory are
//! one sample of the end-to-end metrics. Every time is read beside the
//! [`Yardstick`]: each `regsim` process of `detailed_suite` between two
//! slices on the CPU it is pinned to, every other measurement between
//! two blocks of slices over all CPUs. The seed only permutes the order
//! of kernels, experiments or jobs inside a rep, so every seed does the
//! same work.

use crate::golden::digest;
use crate::host::{run_measured, Finished, Running};
use crate::probe::{ProbeSpec, PROBE_RF};
use crate::trace::Tracer;
use crate::yardstick::{pin_command, Yardstick};
use regshare::workloads::{all_kernels, Kernel};
use regshare_serve::Client;
use serde::Value;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Instructions per `regsim` point in `detailed_suite`.
const DETAILED_SCALE: u64 = 100_000;

/// Instruction budget of every point in `paper_sweep`.
const SWEEP_SCALE: u64 = 2_500;

/// The experiments `experiments all` runs, in registry order.
const SWEEP_EXPERIMENTS: [&str; 19] = [
    "fig1",
    "fig2",
    "fig3",
    "table1",
    "table2",
    "table3",
    "fig9",
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
    "inject",
    "smt",
];

/// `experiments sample` arguments: the first tenth of the paper-scale
/// run users make (`--scale 10000000`, a window every 200 K): the same
/// windows at the same spacing, so the same mix of functional warming
/// and detailed windows, with two window workers.
const SAMPLED_ARGS: [&str; 7] = [
    "sample",
    "--scale",
    "1000000",
    "--period",
    "200000",
    "--workers",
    "2",
];

/// A `paper_sweep` set-up sample: the sweep at the smallest scale every
/// experiment accepts (at scale 1 `analyze` finds too few instructions to
/// bracket), which is about nine tenths fixed cost.
const SWEEP_SETUP_ARGS: [&str; 2] = ["--scale", "10"];

/// A `sampled` set-up sample: one 20-instruction window per kernel.
const SAMPLED_SETUP_ARGS: [&str; 10] = [
    "--scale",
    "100",
    "--period",
    "100",
    "--warmup",
    "10",
    "--measure",
    "10",
    "--workers",
    "2",
];

/// Instruction budget of every job in `serve_sweep`: large enough that
/// the jobs' simulation, not the requests, takes most of a rep.
const SERVE_SCALE: u64 = 200_000;

/// Jobs per `POST /jobs` batch.
const SERVE_BATCH: usize = 16;

/// Warm (cache-served) passes after each cold pass.
const SERVE_WARM_ROUNDS: usize = 2;

/// Interval between `/stats` polls while a batch runs.
const STATS_POLL: Duration = Duration::from_millis(20);

/// Set-up samples taken after every rep, besides the one a
/// `detailed_suite` or `serve_sweep` rep pays itself.
pub const SETUP_SAMPLES_PER_REP: usize = 2;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 18 kernels × {baseline, proposed} through `regsim`.
    DetailedSuite,
    /// The paper's evaluation (`experiments all`) at a small scale.
    PaperSweep,
    /// The two-speed sampled engine (`experiments sample`).
    Sampled,
    /// A cold then warm job batch against `experiments serve`.
    ServeSweep,
}

/// One operation a rep performed, for the correctness check: the
/// outputs it produced, keyed, and why it failed if it did.
pub struct Op {
    /// (key, digest, note) for every output.
    pub outputs: Vec<(String, String, String)>,
    /// Whether this operation must produce exactly the golden's keys.
    pub complete: bool,
    /// A failure the operation itself reported (exit status, HTTP
    /// status, dead letter, warm/cold mismatch).
    pub error: Option<String>,
}

impl Op {
    fn failed(error: String) -> Op {
        Op {
            outputs: Vec::new(),
            complete: false,
            error: Some(error),
        }
    }
}

/// A measured time, in seconds and in yardstick slices: each part of it
/// over the slice time read beside that part.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Seconds as measured.
    pub s: f64,
    /// The same time in slices.
    pub slices: f64,
}

impl Timed {
    /// `s` seconds read beside a slice of `slice_s` seconds.
    pub(crate) fn beside(s: f64, slice_s: f64) -> Timed {
        Timed {
            s,
            slices: s / slice_s,
        }
    }

    fn add(&mut self, other: Timed) {
        self.s += other.s;
        self.slices += other.slices;
    }
}

/// One rep's cost and operations.
pub struct Rep {
    /// Wall-clock time of the rep's work.
    pub wall: Timed,
    /// CPU time the program spent on it.
    pub cpu: Timed,
    /// Peak resident memory of the program, MiB.
    pub rss_mb: f64,
    /// Set-up time observed inside the rep, if it has any.
    pub setup: Option<Timed>,
    /// Latency of every call the client made, ms.
    pub calls_ms: Vec<f64>,
    /// Operations, for the golden check.
    pub ops: Vec<Op>,
}

/// Where the repository's binaries and the benchmark's scratch files are.
pub struct Env {
    /// `experiments`.
    pub experiments: PathBuf,
    /// `regsim`.
    pub regsim: PathBuf,
    /// Scratch directory for outputs and service state.
    pub work: PathBuf,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::DetailedSuite,
        Workload::PaperSweep,
        Workload::Sampled,
        Workload::ServeSweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetailedSuite => "detailed_suite",
            Workload::PaperSweep => "paper_sweep",
            Workload::Sampled => "sampled",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The parameters the golden outputs depend on.
    pub fn params(self) -> String {
        match self {
            Workload::DetailedSuite => {
                format!("regsim --scheme both --regs {PROBE_RF} --scale {DETAILED_SCALE}")
            }
            Workload::PaperSweep => format!(
                "experiments {} --scale {SWEEP_SCALE}",
                SWEEP_EXPERIMENTS.join(" ")
            ),
            Workload::Sampled => format!("experiments {}", SAMPLED_ARGS.join(" ")),
            Workload::ServeSweep => format!(
                "experiments serve --workers 2; kernels x baseline,proposed x rf {PROBE_RF} \
                 x scale {SERVE_SCALE}"
            ),
        }
    }

    /// The in-process layer probe of this workload's kernel mix.
    pub fn probe(self, seed: u64) -> ProbeSpec {
        let (point_scale, warm_scale) = match self {
            Workload::DetailedSuite => (DETAILED_SCALE, DETAILED_SCALE),
            Workload::PaperSweep => (SWEEP_SCALE, SWEEP_SCALE),
            // A sampled window is 2 K warmup + 10 K measured instructions;
            // warming runs the whole 1 M stream.
            Workload::Sampled => (12_000, 1_000_000),
            Workload::ServeSweep => (SERVE_SCALE, SERVE_SCALE),
        };
        ProbeSpec {
            kernels: shuffled(all_kernels(), seed),
            point_scale,
            warm_scale,
        }
    }

    /// One set-up sample, read beside the yardstick, or `None` for
    /// `detailed_suite`, whose reps measure their own. For `paper_sweep`
    /// and `sampled` a sample is the workload's own command at the
    /// smallest size it accepts (see [`SWEEP_SETUP_ARGS`] and
    /// [`SAMPLED_SETUP_ARGS`]): process start, program builds, thread
    /// pools and output files, with next to no simulation. For
    /// `serve_sweep` it is a service start on fresh state.
    pub fn setup_sample(
        self,
        env: &Env,
        seed: u64,
        yardstick: &mut Yardstick,
    ) -> Result<Option<Timed>, String> {
        let out = env.work.join("setup");
        let time = |names: Vec<&str>, args: &[&str]| -> Result<f64, String> {
            let done = run_measured(
                Command::new(&env.experiments)
                    .args(&names)
                    .args(args)
                    .arg("--out")
                    .arg(&out),
            )
            .map_err(|e| format!("spawn experiments: {e}"))?;
            let _ = std::fs::remove_dir_all(&out);
            if !done.ok() {
                return Err(format!(
                    "set-up sample `experiments {} {}` exited with {:?}",
                    names.join(" "),
                    args.join(" "),
                    done.code
                ));
            }
            Ok(done.wall_s)
        };
        let (seconds, slice) = match self {
            Workload::DetailedSuite => return Ok(None),
            Workload::PaperSweep => {
                let names = shuffled(SWEEP_EXPERIMENTS.to_vec(), seed);
                yardstick.beside(None, || time(names, &SWEEP_SETUP_ARGS))
            }
            Workload::Sampled => {
                yardstick.beside(None, || time(vec![SAMPLED_ARGS[0]], &SAMPLED_SETUP_ARGS))
            }
            Workload::ServeSweep => {
                let dir = env.work.join("serve-setup");
                let (service, slice) = yardstick.beside(None, || Service::start(env, &dir));
                let service = service?;
                let ready = service.ready_s;
                service.stop()?;
                let _ = std::fs::remove_dir_all(&dir);
                (Ok(ready), slice)
            }
        };
        Ok(Some(Timed::beside(seconds?, slice)))
    }

    /// Runs one rep. `run` numbers the rep; with a recording `tracer`
    /// every call is a span, and `paper_sweep` runs each experiment in
    /// its own process so the spans attribute time per experiment.
    pub fn rep(
        self,
        env: &Env,
        seed: u64,
        run: u64,
        tracer: &mut Tracer,
        yardstick: &mut Yardstick,
    ) -> Result<Rep, String> {
        let span = tracer.open(self.name(), "bench", None, run);
        let mut call = Call {
            run,
            span,
            tracer,
            yardstick,
        };
        let rep = match self {
            Workload::DetailedSuite => detailed_rep(env, seed, &mut call),
            Workload::PaperSweep => {
                let names = shuffled(SWEEP_EXPERIMENTS.to_vec(), seed);
                let groups: Vec<Vec<&str>> = if call.tracer.is_on() {
                    names.iter().map(|n| vec![*n]).collect()
                } else {
                    vec![names]
                };
                let scale = SWEEP_SCALE.to_string();
                experiments_rep(env, &groups, &["--scale", &scale], &mut call)
            }
            Workload::Sampled => experiments_rep(
                env,
                &[SAMPLED_ARGS[..1].to_vec()],
                &SAMPLED_ARGS[1..],
                &mut call,
            ),
            Workload::ServeSweep => serve_rep(env, seed, &mut call),
        };
        call.tracer.close(span);
        rep
    }
}

/// What a rep records its calls with: its run number and span, the
/// tracer, and the yardstick it reads the host with.
struct Call<'a> {
    run: u64,
    span: usize,
    tracer: &'a mut Tracer,
    yardstick: &'a mut Yardstick,
}

/// A seeded Fisher–Yates shuffle (SplitMix64 stream).
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Simulated seconds `regsim` reports for its own `Pipeline::run` calls.
fn reported_sim_seconds(stdout: &str) -> f64 {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("host: wall="))
        .filter_map(|l| l.split('s').next()?.parse::<f64>().ok())
        .sum()
}

/// `regsim`'s output without its host-time lines: the deterministic
/// part the golden pins.
fn deterministic_output(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("host:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `regsim` on one kernel under both schemes at `scale`, on `cpu`
/// if given, and returns the process with its set-up time: everything
/// but the simulation the process reports (process start, program build,
/// pipeline construction, printing).
fn regsim_point(
    env: &Env,
    kernel: &Kernel,
    scale: u64,
    cpu: Option<usize>,
) -> Result<(Finished, f64), String> {
    let mut cmd = Command::new(&env.regsim);
    cmd.args([
        "--kernel",
        kernel.name,
        "--scheme",
        "both",
        "--regs",
        &PROBE_RF.to_string(),
        "--scale",
        &scale.to_string(),
    ]);
    if let Some(cpu) = cpu {
        pin_command(&mut cmd, cpu);
    }
    let done = run_measured(&mut cmd).map_err(|e| format!("spawn regsim: {e}"))?;
    let setup_s = (done.wall_s - reported_sim_seconds(&done.stdout)).max(0.0);
    Ok((done, setup_s))
}

/// One `regsim` process per kernel, each pinned to the next CPU in turn
/// and read between two slices on that CPU: a process lasts about a
/// tenth of a second, shorter than a CPU stays fast or slow, so the
/// slices beside it read the speed it ran at.
fn detailed_rep(env: &Env, seed: u64, call: &mut Call) -> Result<Rep, String> {
    let mut rep = Rep {
        wall: Timed::default(),
        cpu: Timed::default(),
        rss_mb: 0.0,
        setup: Some(Timed::default()),
        calls_ms: Vec::new(),
        ops: Vec::new(),
    };
    let cpus = call.yardstick.cpus().to_vec();
    for (i, kernel) in shuffled(all_kernels(), seed).into_iter().enumerate() {
        let cpu = (!cpus.is_empty()).then(|| cpus[i % cpus.len()]);
        let Call {
            run,
            span,
            tracer,
            yardstick,
        } = call;
        let (point, slice) = yardstick.beside(cpu, || {
            let (done, setup_s) = regsim_point(env, &kernel, DETAILED_SCALE, cpu)?;
            let id = tracer.record(kernel.name, "regsim", Some(*span), *run, done.wall_s);
            tracer.count(id, "setup_s", setup_s);
            Ok::<_, String>((done, setup_s))
        });
        let (done, setup_s) = point?;
        rep.wall.add(Timed::beside(done.wall_s, slice));
        rep.cpu.add(Timed::beside(done.cpu_s, slice));
        rep.rss_mb = rep.rss_mb.max(done.rss_mb);
        if let Some(setup) = rep.setup.as_mut() {
            setup.add(Timed::beside(setup_s, slice));
        }
        rep.calls_ms.push(done.wall_s * 1e3);
        let text = deterministic_output(&done.stdout);
        let note: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("cycles="))
            .map(|l| l.split(" ipc=").next().unwrap_or(l))
            .collect();
        rep.ops.push(Op {
            outputs: vec![(
                kernel.name.to_string(),
                digest(text.as_bytes()),
                note.join(" / "),
            )],
            complete: false,
            error: (!done.ok())
                .then(|| format!("regsim {} exited with {:?}", kernel.name, done.code)),
        });
    }
    Ok(rep)
}

/// Runs `experiments <group…> <args…> --out <dir>` once per group, all
/// between two blocks of slices, and digests every result file the rep
/// wrote.
fn experiments_rep(
    env: &Env,
    groups: &[Vec<&str>],
    args: &[&str],
    call: &mut Call,
) -> Result<Rep, String> {
    let out = env.work.join(format!("out-{}", call.run));
    let _ = std::fs::remove_dir_all(&out);
    let mut rep = Rep {
        wall: Timed::default(),
        cpu: Timed::default(),
        rss_mb: 0.0,
        setup: None,
        calls_ms: Vec::new(),
        ops: Vec::new(),
    };
    let Call {
        run,
        span,
        tracer,
        yardstick,
    } = call;
    let (processes, slice) = yardstick.beside(None, || {
        groups
            .iter()
            .map(|group| {
                let done = run_measured(
                    Command::new(&env.experiments)
                        .args(group)
                        .args(args)
                        .arg("--out")
                        .arg(&out),
                )
                .map_err(|e| format!("spawn experiments: {e}"))?;
                let name = group.join(" ");
                tracer.record(&name, "experiments", Some(*span), *run, done.wall_s);
                Ok(done)
            })
            .collect::<Result<Vec<Finished>, String>>()
    });
    let mut errors = Vec::new();
    for (group, done) in groups.iter().zip(processes?) {
        rep.wall.add(Timed::beside(done.wall_s, slice));
        rep.cpu.add(Timed::beside(done.cpu_s, slice));
        rep.rss_mb = rep.rss_mb.max(done.rss_mb);
        rep.calls_ms.push(done.wall_s * 1e3);
        if !done.ok() {
            errors.push(format!(
                "experiments {} exited with {:?}",
                group.join(" "),
                done.code
            ));
        }
    }
    let outputs = digest_dir(&out)?;
    let _ = std::fs::remove_dir_all(&out);
    rep.ops.push(Op {
        outputs,
        complete: true,
        error: (!errors.is_empty()).then(|| errors.join("; ")),
    });
    Ok(rep)
}

fn digest_dir(dir: &Path) -> Result<Vec<(String, String, String)>, String> {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => return Ok(Vec::new()),
    };
    files.sort();
    files
        .iter()
        .map(|f| {
            let bytes = std::fs::read(f).map_err(|e| format!("read {}: {e}", f.display()))?;
            let name = f
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            Ok((name, digest(&bytes), String::new()))
        })
        .collect()
}

fn payload(kernel: &Kernel, scheme: &str) -> Value {
    Value::Object(vec![
        ("kernel".to_string(), Value::Str(kernel.name.to_string())),
        ("scheme".to_string(), Value::Str(scheme.to_string())),
        ("rf".to_string(), Value::UInt(PROBE_RF as u64)),
        ("scale".to_string(), Value::UInt(SERVE_SCALE)),
    ])
}

/// The client side of one serve rep: every HTTP call is timed, both as a
/// span of the current pass and as a client latency.
struct Session<'a> {
    client: &'a Client,
    tracer: &'a mut Tracer,
    run: u64,
    pass: usize,
    calls_ms: Vec<f64>,
}

impl Session<'_> {
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Value), String> {
        let t = Instant::now();
        let result = self.client.request(method, path, body);
        let seconds = t.elapsed().as_secs_f64();
        let route = if path.starts_with("/jobs/") {
            "/jobs/<id>"
        } else {
            path
        };
        let name = format!("{method} {route}");
        self.tracer
            .record(&name, "serve", Some(self.pass), self.run, seconds);
        self.calls_ms.push(seconds * 1e3);
        result
    }
}

/// The service under test: spawned on an ephemeral port with fresh
/// state, its stdout drained by a thread so it never blocks on a full
/// pipe.
struct Service {
    running: Running,
    client: Client,
    drain: std::thread::JoinHandle<()>,
    /// Spawn to the `listening` banner, which the service prints once its
    /// state is loaded and its workers run. The first request's wait in
    /// the accept loop (0 to 5 ms, by where its sleep stands) is request
    /// latency, not set-up.
    ready_s: f64,
}

impl Service {
    fn start(env: &Env, dir: &Path) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut running = Running::spawn(
            Command::new(&env.experiments)
                .args(["serve", "--port", "0", "--workers", "2", "--data-dir"])
                .arg(dir),
        )
        .map_err(|e| format!("spawn experiments serve: {e}"))?;
        let mut stdout = BufReader::new(running.take_stdout().expect("stdout was piped"));
        let mut port = None;
        let mut line = String::new();
        while port.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                running.kill();
                return Err("experiments serve exited before listening".into());
            }
            port = line
                .split("listening on 127.0.0.1:")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next()?.parse::<u16>().ok());
        }
        let ready_s = running.started().elapsed().as_secs_f64();
        let drain = std::thread::spawn(move || {
            let _ = stdout.read_to_end(&mut Vec::new());
        });
        let client = Client::new(&format!("127.0.0.1:{}", port.expect("loop ends on a port")));
        let deadline = Instant::now() + Duration::from_secs(30);
        while client.healthz().is_err() {
            if Instant::now() > deadline {
                running.kill();
                let _ = drain.join();
                return Err("experiments serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Service {
            running,
            client,
            drain,
            ready_s,
        })
    }

    /// Drains the service through `POST /shutdown` and measures it.
    fn stop(self) -> Result<Finished, String> {
        let done = match self.client.shutdown_server() {
            Ok(()) => self
                .running
                .finish(Duration::from_secs(30))
                .map_err(|e| format!("experiments serve: {e}")),
            Err(e) => {
                self.running.kill();
                Err(format!("shutdown: {e}"))
            }
        };
        let _ = self.drain.join();
        done
    }
}

/// A service start read beside the yardstick, then the rounds between
/// two blocks of slices; the server's CPU time is read beside the
/// rounds' slices.
fn serve_rep(env: &Env, seed: u64, call: &mut Call) -> Result<Rep, String> {
    let Call {
        run,
        span,
        tracer,
        yardstick,
    } = call;
    let (run, span) = (*run, *span);
    let dir = env.work.join(format!("serve-{run}"));
    let (service, start_slice) = yardstick.beside(None, || Service::start(env, &dir));
    let service = service?;
    let mut rep = Rep {
        wall: Timed::default(),
        cpu: Timed::default(),
        rss_mb: 0.0,
        setup: Some(Timed::beside(service.ready_s, start_slice)),
        calls_ms: Vec::new(),
        ops: Vec::new(),
    };
    let jobs: Vec<Value> = all_kernels()
        .iter()
        .flat_map(|kernel| ["baseline", "proposed"].map(|scheme| payload(kernel, scheme)))
        .collect();
    let jobs = shuffled(jobs, seed);
    let batches: Vec<String> = jobs
        .chunks(SERVE_BATCH)
        .map(|chunk| {
            serde_json::to_string(&Value::Object(vec![(
                "jobs".to_string(),
                Value::Array(chunk.to_vec()),
            )]))
            .expect("job batch serializes")
        })
        .collect();

    let mut session = Session {
        client: &service.client,
        tracer,
        run,
        pass: span,
        calls_ms: Vec::new(),
    };
    let ((result, wall_s), slice) = yardstick.beside(None, || {
        let started = Instant::now();
        let result = serve_rounds(&mut session, &jobs, &batches, &mut rep.ops, span);
        (result, started.elapsed().as_secs_f64())
    });
    rep.wall = Timed::beside(wall_s, slice);
    rep.calls_ms = session.calls_ms;
    let stopped = service.stop();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        rep.ops.push(Op::failed(e));
    }
    let done = stopped?;
    rep.cpu = Timed::beside(done.cpu_s, slice);
    rep.rss_mb = done.rss_mb;
    if !done.ok() {
        rep.ops.push(Op::failed(format!(
            "experiments serve exited with {:?}",
            done.code
        )));
    }
    Ok(rep)
}

/// The cold pass and the warm passes of one serve rep: submit every
/// batch, then fetch each job in submission order, polling until it is
/// terminal.
fn serve_rounds(
    session: &mut Session,
    jobs: &[Value],
    batches: &[String],
    ops: &mut Vec<Op>,
    span: usize,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut cold: Vec<String> = Vec::new();
    for round in 0..=SERVE_WARM_ROUNDS {
        let name = if round == 0 { "cold" } else { "warm" };
        session.pass = session.tracer.open(name, "bench", Some(span), session.run);
        let mut ids = Vec::new();
        for batch in batches {
            let (status, body) = session.call("POST", "/jobs", Some(batch))?;
            if status != 202 {
                return Err(format!("POST /jobs answered {status}"));
            }
            let accepted = body.get("jobs").and_then(Value::as_array).unwrap_or(&[]);
            ids.extend(
                accepted
                    .iter()
                    .filter_map(|j| j.get("id").and_then(Value::as_u64)),
            );
        }
        if ids.len() != jobs.len() {
            return Err(format!(
                "service accepted {} of {} jobs",
                ids.len(),
                jobs.len()
            ));
        }
        // Wait for the batch through `/stats` at a fixed interval, so the
        // number of requests does not depend on how fast jobs finish.
        loop {
            let (status, stats) = session.call("GET", "/stats", None)?;
            let count = |k: &str| {
                stats
                    .get("jobs")
                    .and_then(|j| j.get(k))
                    .and_then(Value::as_u64)
            };
            match (status, count("queued"), count("running")) {
                (200, Some(0), Some(0)) => break,
                (200, Some(_), Some(_)) => {}
                _ => return Err(format!("GET /stats answered {status} without job counts")),
            }
            if Instant::now() > deadline {
                return Err("jobs still pending after 120 s".into());
            }
            std::thread::sleep(STATS_POLL);
        }
        for (i, (id, job)) in ids.iter().zip(jobs).enumerate() {
            let path = format!("/jobs/{id}");
            let op = loop {
                if Instant::now() > deadline {
                    return Err(format!("{path} still pending after 120 s"));
                }
                let (status, row) = session.call("GET", &path, None)?;
                if status != 200 {
                    break Op::failed(format!("GET {path} answered {status}"));
                }
                match row.get("status").and_then(Value::as_str) {
                    Some("completed") => {
                        let result = row.get("result").and_then(Value::as_str).unwrap_or("");
                        if round == 0 {
                            cold.push(result.to_string());
                        }
                        break job_op(job, result, cold.get(i).map(String::as_str));
                    }
                    Some("dead_lettered") => {
                        let why = row.get("error").and_then(Value::as_str).unwrap_or("?");
                        break Op::failed(format!("dead-lettered {job:?}: {why}"));
                    }
                    _ => {}
                }
            };
            if round == 0 && op.error.is_some() {
                cold.push(String::new());
            }
            ops.push(op);
        }
        session.tracer.close(session.pass);
    }
    Ok(())
}

/// The correctness record of one served job: its result's digest, and
/// on warm rounds a byte comparison with the cold result.
fn job_op(job: &Value, result: &str, cold: Option<&str>) -> Op {
    let key = format!(
        "{}/{}/{}",
        job.get("kernel").and_then(Value::as_str).unwrap_or("?"),
        job.get("scheme").and_then(Value::as_str).unwrap_or("?"),
        job.get("rf").and_then(Value::as_u64).unwrap_or(0)
    );
    let error =
        (cold != Some(result)).then(|| format!("{key}: warm result differs from the cold result"));
    Op {
        outputs: vec![(key, digest(result.as_bytes()), String::new())],
        complete: false,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled((0..19).collect::<Vec<u32>>(), 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..19).collect::<Vec<u32>>());
        assert_eq!(a, shuffled((0..19).collect::<Vec<u32>>(), 7));
        assert_ne!(a, shuffled((0..19).collect::<Vec<u32>>(), 8));
    }

    #[test]
    fn regsim_output_splits_into_deterministic_and_host_parts() {
        let out = "=== k ===\ncycles=10 insts=5 ipc=0.5 halted=true\n\
                   host: wall=0.250s throughput=1 insts/s\n\
                   host: wall=0.125s throughput=1 insts/s\n";
        assert_eq!(reported_sim_seconds(out), 0.375);
        assert_eq!(
            deterministic_output(out),
            "=== k ===\ncycles=10 insts=5 ipc=0.5 halted=true"
        );
    }
}
