//! Chaos campaign for the job service running the **real simulator**:
//! worker kills (injected panics), a corrupted cache entry, a truncated
//! journal, and forced deadline timeouts — under all of which every job
//! must reach a terminal state, completed results must be byte-identical
//! to direct in-process runs, and corrupt cache entries must be
//! quarantined rather than served.

use regshare::experiments::SimExecutor;
use regshare_serve::{Client, JobExecutor, ServeConfig, Server};
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SCALE: u64 = 4_000;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("regshare-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        data_dir: temp_dir(tag),
        workers: 3,
        queue_capacity: 128,
        max_attempts: 3,
        deadline: Duration::from_secs(30),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

fn sim_payload(kernel: &str, scheme: &str, rf: u64) -> Value {
    sim_payload_scaled(kernel, scheme, rf, SCALE)
}

fn sim_payload_scaled(kernel: &str, scheme: &str, rf: u64, scale: u64) -> Value {
    Value::Object(vec![
        ("kernel".to_string(), Value::Str(kernel.to_string())),
        ("scheme".to_string(), Value::Str(scheme.to_string())),
        ("rf".to_string(), Value::UInt(rf)),
        ("scale".to_string(), Value::UInt(scale)),
    ])
}

fn direct_result(payload: &Value) -> String {
    SimExecutor
        .run(payload, &Arc::new(AtomicBool::new(false)))
        .expect("direct run")
}

/// Wraps the real simulator executor and injects panics into the first
/// `kills` attempts service-wide — the worker-kill chaos knob.
struct KillingExecutor {
    inner: SimExecutor,
    kills: AtomicU64,
}

impl JobExecutor for KillingExecutor {
    fn version(&self) -> String {
        self.inner.version()
    }
    fn run(&self, payload: &Value, cancel: &Arc<AtomicBool>) -> Result<String, String> {
        if self
            .kills
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("chaos: injected worker kill");
        }
        self.inner.run(payload, cancel)
    }
}

#[test]
fn real_sim_jobs_complete_and_match_direct_runs() {
    let server = Server::start(config("direct"), Arc::new(SimExecutor)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let payloads = vec![
        sim_payload("saxpy", "baseline", 64),
        sim_payload("saxpy", "proposed", 64),
        sim_payload("fft", "proposed", 80),
        sim_payload("hashjoin", "baseline", 56),
    ];
    let ids = client.submit(&payloads).unwrap();
    let rows = client
        .wait_terminal(&ids, Duration::from_secs(120))
        .unwrap();
    for (payload, row) in payloads.iter().zip(&rows) {
        assert_eq!(row.get("status").and_then(Value::as_str), Some("completed"));
        let served = row.get("result").and_then(Value::as_str).unwrap();
        assert_eq!(
            served,
            direct_result(payload),
            "served result must be byte-identical to a direct run"
        );
    }

    // Resubmission: byte-identical again, now from the verified cache.
    let ids2 = client.submit(&payloads).unwrap();
    let rows2 = client
        .wait_terminal(&ids2, Duration::from_secs(30))
        .unwrap();
    for (row, row2) in rows.iter().zip(&rows2) {
        assert_eq!(row2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(
            row.get("result").and_then(Value::as_str),
            row2.get("result").and_then(Value::as_str)
        );
    }

    server.shutdown();
    server.join();
}

#[test]
fn worker_kills_do_not_lose_jobs_or_change_results() {
    // Three injected panics: enough to take out every initial worker at
    // least once while leaving the 3-attempt budget survivable.
    let exec = Arc::new(KillingExecutor {
        inner: SimExecutor,
        kills: AtomicU64::new(3),
    });
    let server = Server::start(config("kills"), exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let payloads: Vec<Value> = ["saxpy", "fft", "dct", "hashjoin"]
        .iter()
        .map(|k| sim_payload(k, "proposed", 64))
        .collect();
    let ids = client.submit(&payloads).unwrap();
    let rows = client
        .wait_terminal(&ids, Duration::from_secs(120))
        .unwrap();
    for (payload, row) in payloads.iter().zip(&rows) {
        assert_eq!(
            row.get("status").and_then(Value::as_str),
            Some("completed"),
            "every job terminates despite worker kills: {row:?}"
        );
        assert_eq!(
            row.get("result").and_then(Value::as_str).unwrap(),
            direct_result(payload),
            "retried results stay byte-identical"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("panics").and_then(Value::as_u64), Some(3));
    assert!(stats
        .get("workers_replaced")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));

    server.shutdown();
    server.join();
}

#[test]
fn corrupted_cache_entry_is_quarantined_and_recomputed() {
    let cfg = config("corrupt");
    let cache_dir = cfg.data_dir.join("cache");
    let server = Server::start(cfg, Arc::new(SimExecutor)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let payloads = vec![sim_payload("saxpy", "proposed", 64)];
    let ids = client.submit(&payloads).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(60)).unwrap();
    let good = rows[0]
        .get("result")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // Flip result bytes inside the single cache entry without fixing
    // the checksum — a silent on-disk corruption.
    let entry = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "json"))
        .expect("one cache entry")
        .path();
    let text = std::fs::read_to_string(&entry).unwrap();
    let poisoned = text.replacen("cycles", "cylces", 1);
    assert_ne!(text, poisoned);
    std::fs::write(&entry, poisoned).unwrap();

    // Resubmission must NOT serve the poisoned entry: it quarantines,
    // recomputes, and returns the correct bytes.
    let ids2 = client.submit(&payloads).unwrap();
    let rows2 = client
        .wait_terminal(&ids2, Duration::from_secs(60))
        .unwrap();
    assert_eq!(rows2[0].get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(
        rows2[0].get("result").and_then(Value::as_str),
        Some(good.as_str())
    );
    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("quarantined").and_then(Value::as_u64), Some(1));
    let quarantined = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .any(|e| e.path().extension().is_some_and(|x| x == "corrupt"));
    assert!(quarantined, "evidence file kept");

    server.shutdown();
    server.join();
}

#[test]
fn forced_timeouts_cancel_the_pipeline_and_dead_letter() {
    let mut cfg = config("timeout");
    // A deadline far below the simulation's runtime: every attempt is
    // reaped, exercising CancelToken through the real pipeline driver
    // loop. The job runs millions of instructions (~seconds of work)
    // against a 1ms budget, so no hot-loop speedup can let it finish
    // before the reaper fires.
    cfg.deadline = Duration::from_millis(1);
    cfg.max_attempts = 2;
    let server = Server::start(cfg, Arc::new(SimExecutor)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let ids = client
        .submit(&[sim_payload_scaled("fft", "proposed", 64, 8_000_000)])
        .unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(60)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("dead_lettered"),
        "hopeless deadline ends in the dead-letter list, not a hang"
    );
    let err = rows[0].get("error").and_then(Value::as_str).unwrap();
    assert!(
        err.contains("deadline exceeded") && err.contains("cancelled by supervisor"),
        "diagnostic carries both the service budget and the pipeline's \
         cancellation point: {err}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("timeouts").and_then(Value::as_u64), Some(2));

    server.shutdown();
    server.join();
}

#[test]
fn proposed_rf_without_a_table_iii_row_dead_letters_without_a_panic() {
    let server = Server::start(config("paper-rf"), Arc::new(SimExecutor)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    // Inside the accepted 16..=512 range, but Table III has no
    // equal-area bank split for 100 registers.
    let ids = client
        .submit(&[sim_payload_scaled("saxpy", "proposed", 100, 1_000)])
        .unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(60)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("dead_lettered")
    );
    let err = rows[0].get("error").and_then(Value::as_str).unwrap();
    assert!(
        err.contains("rf 100 has no Table III equal-area split")
            && err.contains("[48, 56, 64, 72, 80, 96, 112]"),
        "the dead letter names the valid sizes: {err}"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("panics").and_then(Value::as_u64), Some(0));
    assert_eq!(
        stats.get("workers_replaced").and_then(Value::as_u64),
        Some(0)
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_file_too_small_to_rename_is_an_error_not_a_panic() {
    // saxpy sweeps the fp file; 24 registers cannot even hold its 32
    // logical registers.
    let err = SimExecutor
        .run(
            &sim_payload("saxpy", "baseline", 24),
            &Arc::new(AtomicBool::new(false)),
        )
        .expect_err("a 24-register fp file cannot be built");
    assert!(
        err.contains("rf 24") && err.contains("32 logical registers"),
        "the error names the size and the logical registers: {err}"
    );
}

#[test]
fn truncated_journal_replay_finishes_the_remainder() {
    let cfg = config("journal");
    let data_dir = cfg.data_dir.clone();
    let server = Server::start(cfg.clone(), Arc::new(SimExecutor)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let done_payloads = vec![sim_payload("saxpy", "proposed", 64)];
    let done = client.submit(&done_payloads).unwrap();
    client
        .wait_terminal(&done, Duration::from_secs(60))
        .unwrap();
    server.shutdown();
    server.join();

    // Forge the crash window: an accepted-but-never-run job appended to
    // the journal, then a torn half-record where the kill landed.
    let pending = sim_payload("dct", "baseline", 56);
    {
        use regshare_serve::{fnv1a64_hex, JobSpec};
        let spec = JobSpec {
            payload: pending.clone(),
        };
        let key = spec.cache_key(&SimExecutor.version());
        let payload_json = serde_json::to_string(&pending).unwrap();
        let json = format!(
            "{{\"rec\":\"accepted\",\"id\":500,\"key\":\"{key}\",\"payload\":{payload_json}}}"
        );
        let journal = data_dir.join("journal.log");
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(&format!("{} {json}\n", fnv1a64_hex(json.as_bytes())));
        text.push_str("0123456789abcdef {\"rec\":\"start");
        std::fs::write(&journal, text).unwrap();
    }

    let server2 = Server::start(cfg, Arc::new(SimExecutor)).unwrap();
    let client2 = Client::new(&format!("127.0.0.1:{}", server2.port()));
    // The journaled job runs to completion without being resubmitted,
    // and its result matches a direct run byte-for-byte.
    let rows = client2
        .wait_terminal(&[500], Duration::from_secs(60))
        .unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        rows[0].get("result").and_then(Value::as_str).unwrap(),
        direct_result(&pending)
    );
    // The pre-drain job survives as a cached completion; the torn tail
    // was counted and dropped.
    let old = client2
        .wait_terminal(&done, Duration::from_secs(30))
        .unwrap();
    assert_eq!(
        old[0].get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(old[0].get("cached").and_then(Value::as_bool), Some(true));
    let stats = client2.stats().unwrap();
    assert_eq!(
        stats.get("journal_dropped").and_then(Value::as_u64),
        Some(1)
    );

    server2.shutdown();
    server2.join();
}
