//! Shared plumbing for the experiment subcommands: the parsed CLI
//! options, result persistence, and small formatting helpers.
//!
//! Result files are written through [`write_json_atomic`] — temp file +
//! atomic rename — so a killed run leaves either the previous artifact
//! or the new one, never a torn half-file. I/O and serialization
//! failures surface as [`ExpError`] values naming the offending path,
//! in the same structured-diagnostic discipline `SimError` brought to
//! the pipeline.

use crate::harness::{RunMemo, RunSpec};
use crate::sim::SimReport;
use regshare_stats::SamplePlan;
use serde::Serialize;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// A structured experiment-harness failure. Every variant names the
/// artifact involved so a failing batch run is diagnosable from the
/// message alone.
#[derive(Debug)]
pub enum ExpError {
    /// Creating the results directory failed.
    CreateDir {
        /// The directory being created.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Writing (or renaming into place) a results file failed.
    WriteFile {
        /// The destination path.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// JSON serialization of result rows failed.
    Serialize {
        /// What was being serialized (the results file it was bound for).
        what: String,
        /// The serializer's diagnostic.
        detail: String,
    },
    /// The job service (or its client) failed.
    Serve {
        /// The service diagnostic.
        detail: String,
    },
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::CreateDir { path, source } => {
                write!(f, "create results directory {path}: {source}")
            }
            ExpError::WriteFile { path, source } => {
                write!(f, "write results file {path}: {source}")
            }
            ExpError::Serialize { what, detail } => {
                write!(f, "serialize rows for {what}: {detail}")
            }
            ExpError::Serve { detail } => write!(f, "job service: {detail}"),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExpError::CreateDir { source, .. } | ExpError::WriteFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The baseline register-file sizes every sweep walks (§VI-B).
pub const RF_SIZES: [usize; 7] = [48, 56, 64, 72, 80, 96, 112];

/// Default detailed-warmup instructions per sampled window.
pub const DEFAULT_WARMUP: u64 = 2_000;

/// Default measured instructions per sampled window.
pub const DEFAULT_MEASURE: u64 = 10_000;

/// Options shared by every experiment, parsed once by the CLI front end.
pub struct Args {
    /// Experiment names to run, in request order (`all` expands to the
    /// full registry).
    pub exps: Vec<String>,
    /// Instruction budget per simulation point.
    pub scale: u64,
    /// Directory the per-experiment JSON rows are written to.
    pub out_dir: String,
    /// Number of fault-injection campaigns (`inject`).
    pub campaigns: usize,
    /// Base seed for fault-injection schedules (`inject`).
    pub seed: u64,
    /// Kernel subset for `inject` (`None` = all kernels).
    pub kernels: Option<Vec<String>>,
    /// Run through the two-speed sampled engine (`all` then dispatches
    /// the reduced sampled registry).
    pub sample: bool,
    /// Worker threads: the kernels `sample` runs at once, or the
    /// `serve` job pool (`None` = one per core; results are identical
    /// either way).
    pub workers: Option<usize>,
    /// Override: instructions between sampled-window starts.
    pub period: Option<u64>,
    /// Override: detailed warmup instructions per window.
    pub warmup: Option<u64>,
    /// Override: measured instructions per window.
    pub measure: Option<u64>,
    /// Job-service port: the bind port for `serve` (0 = ephemeral,
    /// printed at startup), the target port for `submit`.
    pub port: u16,
    /// Job-service state directory (journal + result cache) for `serve`.
    pub data_dir: String,
    /// The process's shared detailed runs: the experiments that read
    /// the paper's (kernel, RF size) grid ask here, so a point shared
    /// between experiments simulates once.
    pub memo: RunMemo,
}

impl Default for Args {
    /// The CLI defaults (scale 150 000, results under `results/`) with
    /// no experiment named yet and an empty memo.
    fn default() -> Self {
        Args {
            exps: Vec::new(),
            scale: 150_000,
            out_dir: "results".to_string(),
            campaigns: 108,
            seed: 0xC0FFEE,
            kernels: None,
            sample: false,
            workers: None,
            period: None,
            warmup: None,
            measure: None,
            port: 0,
            data_dir: "results/serve".to_string(),
            memo: RunMemo::new(),
        }
    }
}

impl Args {
    /// The report of `spec`, simulated at most once per process through
    /// [`Args::memo`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors — an experiment must never
    /// silently drop a run.
    pub(crate) fn report(&self, spec: &RunSpec) -> Arc<SimReport> {
        self.memo
            .run(spec)
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
    }

    /// The sampling plan at a given instruction budget: defaults scale
    /// the period so a run gets ~50 windows, floored so windows never
    /// overlap and short smoke runs still get a handful of observations.
    ///
    /// # Errors
    ///
    /// A zero `--measure`, a `--warmup + --measure` that overflows, or a
    /// `--period` shorter than one window: flags no plan can honour.
    pub fn sample_plan(&self, scale: u64) -> Result<SamplePlan, String> {
        let warmup = self.warmup.unwrap_or(DEFAULT_WARMUP);
        let measure = self.measure.unwrap_or(DEFAULT_MEASURE);
        if measure == 0 {
            return Err("--measure must be positive".into());
        }
        let window = warmup
            .checked_add(measure)
            .ok_or("--warmup + --measure overflows")?;
        let period = self.period.unwrap_or_else(|| (scale / 50).max(window));
        if period < window {
            return Err(format!(
                "--period {period} is shorter than a window of {warmup} warmup + \
                 {measure} measured instructions"
            ));
        }
        Ok(SamplePlan::new(period, warmup, measure))
    }
}

/// Prints `msg` as an error and exits with status 2.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The command-line value after `flag`, parsed as a `T`; exits through
/// [`die`] with "`flag` needs `what`" when it is missing or does not parse.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// Writes `text` to `path` through a sibling temp file and an atomic
/// rename: concurrent readers (and crashes mid-write) see either the
/// old contents or the new, never a torn file.
pub fn write_json_atomic(path: &Path, text: &str) -> Result<(), ExpError> {
    let shown = path.display().to_string();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|source| ExpError::CreateDir {
                path: parent.display().to_string(),
                source,
            })?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()
    };
    write(&tmp).map_err(|source| ExpError::WriteFile {
        path: tmp.display().to_string(),
        source,
    })?;
    std::fs::rename(&tmp, path).map_err(|source| ExpError::WriteFile {
        path: shown,
        source,
    })
}

/// Writes one experiment's rows to `<out_dir>/<name>.json` (atomically;
/// see [`write_json_atomic`]).
pub(crate) fn save<T: Serialize>(out_dir: &str, name: &str, rows: &T) -> Result<(), ExpError> {
    let path = format!("{out_dir}/{name}.json");
    let json = serde_json::to_string_pretty(rows).map_err(|e| ExpError::Serialize {
        what: path.clone(),
        detail: e.to_string(),
    })?;
    write_json_atomic(Path::new(&path), &json)?;
    println!("  -> {path}\n");
    Ok(())
}

pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

pub(crate) fn ratio_pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64 * 100.0
    }
}
