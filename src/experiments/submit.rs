//! `experiments submit` — batch client for the job service.
//!
//! Builds a sweep of simulation points (kernels × schemes at a few
//! register-file sizes), submits them to a running `experiments serve`
//! instance in batches, polls until every job is terminal, and then
//! **verifies** each completed result against a direct in-process run
//! of the same payload: the service must return byte-identical rows, or
//! the run fails. The summary (status, cache hits, verification) lands
//! in `<out_dir>/submit.json`.

use super::common::{save, Args, ExpError};
use super::serve::SimExecutor;
use crate::stats::Table;
use crate::workloads::all_kernels;
use regshare_serve::{Client, JobExecutor};
use serde::{Serialize, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

#[derive(Serialize)]
struct SubmitRow {
    kernel: String,
    scheme: String,
    rf: usize,
    status: String,
    cached: bool,
    verified: bool,
}

fn serve_err(detail: String) -> ExpError {
    ExpError::Serve { detail }
}

fn payload_for(kernel: &str, scheme: &str, rf: usize, scale: u64) -> Value {
    Value::Object(vec![
        ("kernel".to_string(), Value::Str(kernel.to_string())),
        ("scheme".to_string(), Value::Str(scheme.to_string())),
        ("rf".to_string(), Value::UInt(rf as u64)),
        ("scale".to_string(), Value::UInt(scale)),
    ])
}

/// Submits the sweep and verifies the results. Needs `--port` pointing
/// at a running `experiments serve`.
pub fn run(args: &Args) -> Result<(), ExpError> {
    if args.port == 0 {
        return Err(serve_err(
            "submit needs --port pointing at a running `experiments serve`".into(),
        ));
    }
    let client = Client::new(&format!("127.0.0.1:{}", args.port));
    client
        .healthz()
        .map_err(|e| serve_err(format!("service not reachable: {e}")))?;

    // The sweep: every kernel (or the --kernels subset) under both
    // schemes at three register-file sizes.
    let kernels = args.kernels.clone().unwrap_or_else(all_kernels);
    let mut payloads = Vec::new();
    for kernel in &kernels {
        for scheme in ["baseline", "proposed"] {
            for rf in [56usize, 64, 80] {
                payloads.push(payload_for(kernel.name, scheme, rf, args.scale));
            }
        }
    }

    outln!(
        "== submit: {} jobs ({} kernels x 2 schemes x 3 sizes) to 127.0.0.1:{} ==",
        payloads.len(),
        kernels.len(),
        args.port
    );
    // Batches of 16: large enough to exercise batch admission, small
    // enough that a full queue backs off per-batch, not per-sweep.
    let mut ids = Vec::with_capacity(payloads.len());
    for chunk in payloads.chunks(16) {
        let mut batch_ids = client
            .submit(chunk)
            .map_err(|e| serve_err(format!("submit batch: {e}")))?;
        ids.append(&mut batch_ids);
    }
    let rows_raw = client
        .wait_terminal(&ids, Duration::from_secs(600))
        .map_err(|e| serve_err(format!("await jobs: {e}")))?;

    // Verification: recompute each completed job in-process and demand
    // byte-identical result rows.
    let executor = SimExecutor;
    let unused = Arc::new(AtomicBool::new(false));
    let mut rows = Vec::with_capacity(rows_raw.len());
    let mut verified = 0usize;
    let mut cached = 0usize;
    let mut failed = 0usize;
    for (payload, row) in payloads.iter().zip(&rows_raw) {
        let status = row
            .get("status")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let was_cached = row.get("cached").and_then(Value::as_bool).unwrap_or(false);
        let ok = if status == "completed" {
            let served = row.get("result").and_then(Value::as_str).unwrap_or("");
            let direct = executor
                .run(payload, &unused)
                .map_err(|e| serve_err(format!("in-process verification run: {e}")))?;
            if served != direct {
                return Err(serve_err(format!(
                    "verification mismatch for {}: served {served} != direct {direct}",
                    serde_json::to_string(payload).unwrap_or_default()
                )));
            }
            verified += 1;
            cached += was_cached as usize;
            true
        } else {
            failed += 1;
            false
        };
        rows.push(SubmitRow {
            kernel: payload
                .get("kernel")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            scheme: payload
                .get("scheme")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            rf: payload.get("rf").and_then(Value::as_u64).unwrap_or(0) as usize,
            status,
            cached: was_cached,
            verified: ok,
        });
    }

    let mut table = Table::with_headers(&["outcome", "jobs"]);
    table.numeric();
    table.row(vec!["completed+verified".into(), verified.to_string()]);
    table.row(vec!["  of which cached".into(), cached.to_string()]);
    table.row(vec!["dead-lettered".into(), failed.to_string()]);
    out!("{table}");
    if failed > 0 {
        for (payload, row) in payloads.iter().zip(&rows_raw) {
            if row.get("status").and_then(Value::as_str) != Some("completed") {
                eprintln!(
                    "dead-lettered: {} -> {}",
                    serde_json::to_string(payload).unwrap_or_default(),
                    row.get("error").and_then(Value::as_str).unwrap_or("?")
                );
            }
        }
        return Err(serve_err(format!("{failed} job(s) dead-lettered")));
    }
    outln!("all {verified} results byte-identical to direct in-process runs");
    save(&args.out_dir, "submit", &rows)
}
