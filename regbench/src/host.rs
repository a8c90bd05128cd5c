//! Host-side measurement: child processes timed from spawn to exit, with
//! CPU time from the kernel's `wait4` accounting and peak resident memory
//! sampled from `/proc`, and order statistics over repeated samples.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("regbench reads child accounting through Linux wait4(2) and /proc");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets: two timevals
/// followed by fourteen `long` counters, `ru_maxrss` (KiB) first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// The head of Linux's 128-byte `siginfo_t`, as `waitid` fills it for a
/// child: `si_pid` sits at byte 16.
#[repr(C)]
#[derive(Default)]
struct SigInfo {
    signo: i32,
    errno: i32,
    code: i32,
    pad: i32,
    pid: i32,
    rest: [i32; 27],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn waitid(idtype: i32, id: u32, info: *mut SigInfo, options: i32) -> i32;
}

/// What one finished child process cost.
#[derive(Debug, Clone)]
pub(crate) struct Finished {
    /// Spawn-to-exit wall-clock seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child (and its threads).
    pub cpu_s: f64,
    /// Peak resident set of the child, MiB.
    pub rss_mb: f64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

impl Finished {
    /// Whether the child exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

fn os_error_unless_interrupted() -> Option<std::io::Error> {
    let err = std::io::Error::last_os_error();
    (err.kind() != std::io::ErrorKind::Interrupted).then_some(err)
}

/// Whether child `pid` has exited, without reaping it (so its pid cannot
/// be reused while the peak watcher still reads its `/proc` entry).
fn has_exited(pid: u32) -> std::io::Result<bool> {
    const P_PID: i32 = 1;
    const WNOHANG: i32 = 1;
    const WEXITED: i32 = 4;
    const WNOWAIT: i32 = 0x0100_0000;
    loop {
        let mut info = SigInfo::default();
        // SAFETY: `info` is a live, zeroed buffer with the size and layout
        // of the `siginfo_t` waitid writes; `pid` is our own child.
        let r = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOHANG | WNOWAIT) };
        if r == 0 {
            return Ok(info.pid != 0);
        }
        if let Some(err) = os_error_unless_interrupted() {
            return Err(err);
        }
    }
}

/// Reaps `pid` and returns its exit status and resource usage.
fn reap(pid: u32) -> std::io::Result<(i32, Rusage)> {
    let pid = i32::try_from(pid).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact C layouts wait4 fills; `pid` is our own unreaped child.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            return Ok((status, usage));
        }
        if let Some(err) = os_error_unless_interrupted() {
            return Err(err);
        }
    }
}

/// How often the peak watcher samples a child.
const PEAK_SAMPLE: Duration = Duration::from_millis(5);

/// Samples a child's own peak resident set, `VmHWM` in
/// `/proc/<pid>/status`, until stopped.
///
/// `wait4`'s `ru_maxrss` cannot serve: the kernel charges an exec'd child
/// with the peak of the address space it replaced, which for a spawned
/// process is the spawner's, so every child would report at least this
/// benchmark's own footprint.
struct PeakWatch {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Option<u64>>,
}

impl PeakWatch {
    fn start(pid: u32) -> PeakWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let path = format!("/proc/{pid}/status");
            let mut peak = None;
            // The flag publishes nothing; the result travels through join.
            while !flag.load(Ordering::Relaxed) {
                let hwm = std::fs::read_to_string(&path).ok().and_then(|s| {
                    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                    line.split_whitespace().nth(1)?.parse::<u64>().ok()
                });
                peak = peak.max(hwm);
                std::thread::park_timeout(PEAK_SAMPLE);
            }
            peak
        });
        PeakWatch { stop, thread }
    }

    /// Stops sampling and returns the peak seen, KiB. Call before the
    /// child is reaped.
    fn stop(self) -> Option<u64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        self.thread.join().expect("the peak watcher does not panic")
    }
}

fn finished(
    wall: Duration,
    status: i32,
    usage: &Rusage,
    peak_kib: Option<u64>,
    stdout: String,
) -> Finished {
    // A child too short-lived for a single sample falls back to
    // ru_maxrss, an upper bound.
    let kib = peak_kib.unwrap_or(usage.maxrss_kib as u64);
    Finished {
        wall_s: wall.as_secs_f64(),
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        rss_mb: kib as f64 / 1024.0,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout,
    }
}

/// Runs `cmd` to completion with stdout captured (stderr passes through)
/// and measures it. The child is always reaped before this returns.
pub(crate) fn run_measured(cmd: &mut Command) -> std::io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let watch = PeakWatch::start(child.id());
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    // End of stdout means the child is exiting; it stays unreaped (and
    // its pid reserved) until `reap`.
    let wall = started.elapsed();
    let peak = watch.stop();
    let (status, usage) = reap(child.id())?;
    read?;
    Ok(finished(wall, status, &usage, peak, stdout))
}

/// A spawned child that is measured when it ends (the job service).
pub(crate) struct Running {
    child: std::process::Child,
    watch: PeakWatch,
    started: Instant,
}

impl Running {
    /// Spawns `cmd` with stdout piped so the caller can read its banner.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Running> {
        let started = Instant::now();
        let child = cmd.stdout(Stdio::piped()).spawn()?;
        let watch = PeakWatch::start(child.id());
        Ok(Running {
            child,
            watch,
            started,
        })
    }

    /// When the child was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The child's stdout pipe (taken once).
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Waits up to `timeout` for the child to exit and measures it; a
    /// child still running then is killed and reported as an error.
    pub fn finish(self, timeout: Duration) -> std::io::Result<Finished> {
        let deadline = Instant::now() + timeout;
        while !has_exited(self.child.id())? {
            if Instant::now() > deadline {
                self.kill();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "child did not exit in time and was killed",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let wall = self.started.elapsed();
        let peak = self.watch.stop();
        let (status, usage) = reap(self.child.id())?;
        Ok(finished(wall, status, &usage, peak, String::new()))
    }

    /// Kills and reaps the child (error paths).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        self.watch.stop();
        let _ = reap(self.child.id());
    }
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// Logical CPUs this process may run on (the `cpu_util` denominator).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The three quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method,
/// which extrapolates past the ends of small samples); a single sample
/// is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let len = v.len() as i64;
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    let at = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    [at(1), at(2), at(3)]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The `q` quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two nearest order statistics (Python's "inclusive"
/// method), so a tail never reads beyond the largest sample.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn percentile_matches_python_inclusive_method() {
        // statistics.quantiles([1..=20], n=20, method="inclusive")[18] == 19.05
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((percentile(&v, 0.95) - 19.05).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.5), 10.5);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn measures_a_child_process() {
        let done = run_measured(Command::new("sh").args(["-c", "echo hi; exit 3"])).unwrap();
        assert_eq!(done.stdout, "hi\n");
        assert_eq!(done.code, Some(3));
        assert!(done.wall_s > 0.0 && done.rss_mb > 0.0);
    }
}
