//! `experiments serve` — the simulation job service.
//!
//! Wraps the deterministic simulator in a [`regshare_serve::JobExecutor`]
//! and runs the supervised service from `crates/serve` on top of it:
//! HTTP job intake with backpressure, per-attempt deadlines wired to the
//! pipeline's cooperative [`CancelToken`], retries, panic isolation, a
//! verified result cache, and journal-replay crash recovery. `experiments
//! submit` (and `ci/serve_smoke.sh`) are the matching clients.
//!
//! A job payload selects one simulation point:
//!
//! ```json
//! {"kernel": "saxpy", "scheme": "proposed", "rf": 64, "scale": 20000}
//! ```
//!
//! and the result is a JSON row of the report's *deterministic* fields
//! only — wall-clock numbers are deliberately excluded so a cached
//! result is byte-identical to a recomputed one, which is what lets the
//! cache be verified at all.

use super::common::{Args, ExpError};
use crate::harness::{check_swept_rf, kernel_by_name, swept_class, RunSpec, Scheme};
use crate::sim::{CancelToken, SimReport};
use regshare_serve::{install_signal_handlers, JobExecutor, ServeConfig, Server};
use serde::Value;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Bump when the simulator or the result schema changes in any way that
/// could alter result bytes: the version is folded into every cache
/// key, so stale entries become unreachable instead of wrong.
pub const SIM_SERVICE_VERSION: &str = "regshare-sim-v1";

/// The [`JobExecutor`] that runs one deterministic simulation point per
/// job.
pub struct SimExecutor;

fn scheme_by_name(name: &str) -> Result<Scheme, String> {
    match name {
        "baseline" => Ok(Scheme::Baseline),
        "proposed" => Ok(Scheme::Proposed),
        other => Err(format!(
            "unknown scheme {other:?} (known: baseline, proposed)"
        )),
    }
}

/// The deterministic result row: every field is a pure function of the
/// payload, so recomputation reproduces cached bytes exactly.
fn report_row(payload: &Value, report: &SimReport) -> Value {
    Value::Object(vec![
        ("spec".to_string(), payload.clone()),
        ("cycles".to_string(), Value::UInt(report.cycles)),
        (
            "committed_instructions".to_string(),
            Value::UInt(report.committed_instructions),
        ),
        (
            "committed_uops".to_string(),
            Value::UInt(report.committed_uops),
        ),
        ("ipc".to_string(), Value::Float(report.ipc())),
        ("halted".to_string(), Value::Bool(report.halted)),
        ("mispredicts".to_string(), Value::UInt(report.mispredicts)),
        ("exceptions".to_string(), Value::UInt(report.exceptions)),
        (
            "rename_stall_cycles".to_string(),
            Value::UInt(report.rename_stall_cycles),
        ),
        (
            "reuse_fraction".to_string(),
            Value::Float(report.rename.reuse_fraction()),
        ),
    ])
}

impl JobExecutor for SimExecutor {
    fn version(&self) -> String {
        SIM_SERVICE_VERSION.to_string()
    }

    /// Runs one simulation point. The service's deadline reaper owns
    /// the `cancel` flag; it is threaded into the pipeline driver loop
    /// as a [`CancelToken`], so a runaway simulation stops at the next
    /// check interval instead of pinning a worker forever.
    fn run(&self, payload: &Value, cancel: &Arc<AtomicBool>) -> Result<String, String> {
        let kernel_name = payload
            .get("kernel")
            .and_then(Value::as_str)
            .ok_or("payload missing \"kernel\"")?;
        let scheme_name = payload
            .get("scheme")
            .and_then(Value::as_str)
            .ok_or("payload missing \"scheme\"")?;
        let rf = payload
            .get("rf")
            .and_then(Value::as_u64)
            .ok_or("payload missing \"rf\"")? as usize;
        let scale = payload
            .get("scale")
            .and_then(Value::as_u64)
            .ok_or("payload missing \"scale\"")?;
        let kernel = kernel_by_name(kernel_name)?;
        let scheme = scheme_by_name(scheme_name)?;
        if !(16..=512).contains(&rf) {
            return Err(format!("rf {rf} out of range [16, 512]"));
        }
        check_swept_rf(rf, swept_class(kernel.suite), scheme == Scheme::Proposed)
            .map_err(|e| format!("rf {rf} {e}"))?;

        let mut sim = RunSpec::scheme(kernel, scheme, rf, scale).pipeline();
        sim.set_cancel(CancelToken::from_flag(Arc::clone(cancel)));
        let report = sim
            .run()
            .map_err(|e| format!("{kernel_name} ({scheme_name}, {rf} regs): {e}"))?;
        serde_json::to_string(&report_row(payload, &report))
            .map_err(|e| format!("serialize report row: {e}"))
    }
}

/// The service configuration `experiments serve` and the tests share:
/// worker count from `--workers`, state under `--data-dir`.
pub(crate) fn service_config(args: &Args) -> ServeConfig {
    ServeConfig {
        addr: format!("127.0.0.1:{}", args.port),
        workers: args
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(2)
            })
            .max(1),
        queue_capacity: 256,
        max_attempts: 3,
        deadline: Duration::from_secs(120),
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_secs(2),
        data_dir: args.data_dir.clone().into(),
    }
}

/// Runs the service until SIGTERM/SIGINT or `POST /shutdown`, then
/// drains and exits. Queued-but-unfinished jobs stay journaled and are
/// replayed by the next start.
pub fn run(args: &Args) -> Result<(), ExpError> {
    install_signal_handlers();
    let config = service_config(args);
    let data_dir = config.data_dir.display().to_string();
    let workers = config.workers;
    let server = Server::start(config, Arc::new(SimExecutor)).map_err(|e| ExpError::Serve {
        detail: format!("start service: {e}"),
    })?;
    outln!(
        "== regshare job service ==\n\
         listening on 127.0.0.1:{} ({workers} workers, state in {data_dir})\n\
         endpoints: POST /jobs, GET /jobs/<id>, GET /healthz, GET /stats, POST /shutdown\n\
         recovered {} journaled job(s); SIGTERM or POST /shutdown drains and exits",
        server.port(),
        server.recovered_jobs(),
    );
    server.run_until_signalled();
    outln!("drained; journal and cache left in {data_dir}");
    Ok(())
}
