//! End-to-end exercises of the job service with controllable toy
//! executors: the happy path, cache hits, retry-then-succeed, panic
//! isolation + worker replacement, deadline cancellation, backpressure,
//! journal-replay recovery, and the drain's wake-up of an idle accept
//! loop. The root crate's `tests/serve.rs` runs the same machinery
//! against the real simulator.

use regshare_serve::{Client, JobExecutor, ServeConfig, Server};
use serde::Value;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("regshare-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        data_dir: temp_dir(tag),
        workers: 2,
        queue_capacity: 64,
        max_attempts: 3,
        deadline: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

fn payload(text: &str) -> Value {
    serde_json::from_str(text).expect("test payload")
}

/// Deterministic echo executor: result = `{"echo":<n>}`.
struct Echo;
impl JobExecutor for Echo {
    fn version(&self) -> String {
        "echo-1".into()
    }
    fn run(&self, payload: &Value, _cancel: &Arc<AtomicBool>) -> Result<String, String> {
        let n = payload
            .get("n")
            .and_then(Value::as_u64)
            .ok_or("missing n")?;
        Ok(format!("{{\"echo\":{n}}}"))
    }
}

/// Misbehaves on command: payloads select failure, panic, or hang.
struct Chaos {
    failures_left: AtomicU64,
}
impl JobExecutor for Chaos {
    fn version(&self) -> String {
        "chaos-1".into()
    }
    fn run(&self, payload: &Value, cancel: &Arc<AtomicBool>) -> Result<String, String> {
        match payload.get("mode").and_then(Value::as_str) {
            Some("flaky") => {
                // Fail the first N attempts service-wide, then succeed.
                if self
                    .failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err("transient failure".into())
                } else {
                    Ok("{\"ok\":true}".into())
                }
            }
            Some("panic") => panic!("injected worker crash"),
            Some("hang") => {
                // Cooperative infinite loop: only the cancel flag (the
                // deadline reaper) gets us out.
                while !cancel.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err("cancelled while hanging".into())
            }
            Some("fail") => Err("permanent failure".into()),
            _ => Ok("{\"ok\":true}".into()),
        }
    }
}

#[test]
fn jobs_complete_and_second_submission_hits_cache() {
    let server = Server::start(config("cache"), Arc::new(Echo)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let batch: Vec<Value> = (0..8).map(|n| payload(&format!("{{\"n\":{n}}}"))).collect();
    let ids = client.submit(&batch).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(20)).unwrap();
    for (n, row) in rows.iter().enumerate() {
        assert_eq!(row.get("status").and_then(Value::as_str), Some("completed"));
        assert_eq!(
            row.get("result").and_then(Value::as_str),
            Some(format!("{{\"echo\":{n}}}").as_str())
        );
        assert_eq!(row.get("cached").and_then(Value::as_bool), Some(false));
    }

    // Same payloads again: all answered from the verified cache.
    let ids2 = client.submit(&batch).unwrap();
    let rows2 = client.wait_terminal(&ids2, Duration::from_secs(5)).unwrap();
    for (row, row2) in rows.iter().zip(&rows2) {
        assert_eq!(row2.get("cached").and_then(Value::as_bool), Some(true));
        // Byte-identical to the computed result.
        assert_eq!(
            row.get("result").and_then(Value::as_str),
            row2.get("result").and_then(Value::as_str)
        );
    }
    let stats = client.stats().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(8));
    assert!(stats
        .get("latency_ms")
        .and_then(|l| l.get("count"))
        .and_then(Value::as_u64)
        .is_some_and(|c| c >= 8));

    server.shutdown();
    server.join();
}

#[test]
fn flaky_jobs_retry_then_succeed() {
    let exec = Arc::new(Chaos {
        failures_left: AtomicU64::new(2),
    });
    let server = Server::start(config("flaky"), exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let ids = client.submit(&[payload("{\"mode\":\"flaky\"}")]).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(20)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(rows[0].get("attempts").and_then(Value::as_u64), Some(3));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("retries").and_then(Value::as_u64), Some(2));

    server.shutdown();
    server.join();
}

#[test]
fn permanent_failures_dead_letter_with_diagnostics() {
    let exec = Arc::new(Chaos {
        failures_left: AtomicU64::new(0),
    });
    let server = Server::start(config("dead"), exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let ids = client.submit(&[payload("{\"mode\":\"fail\"}")]).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(20)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("dead_lettered")
    );
    let err = rows[0].get("error").and_then(Value::as_str).unwrap();
    assert!(
        err.contains("attempt 3/3") && err.contains("permanent failure"),
        "diagnostic names the budget and cause: {err}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn panics_are_isolated_and_workers_replaced() {
    let exec = Arc::new(Chaos {
        failures_left: AtomicU64::new(0),
    });
    let server = Server::start(config("panic"), exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    // Panicking jobs and healthy jobs interleaved: every healthy job
    // still completes because the supervisor replaces crashed workers.
    let mut batch = vec![payload("{\"mode\":\"panic\"}")];
    for _ in 0..4 {
        batch.push(payload("{\"mode\":\"ok\"}"));
    }
    let ids = client.submit(&batch).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(30)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("dead_lettered")
    );
    let err = rows[0].get("error").and_then(Value::as_str).unwrap();
    assert!(err.contains("injected worker crash"), "{err}");
    for row in &rows[1..] {
        assert_eq!(row.get("status").and_then(Value::as_str), Some("completed"));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("panics").and_then(Value::as_u64), Some(3));
    assert!(
        stats
            .get("workers_replaced")
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1),
        "supervisor replaced at least one worker"
    );

    server.shutdown();
    server.join();
}

#[test]
fn deadline_cancels_hanging_jobs() {
    let mut cfg = config("deadline");
    cfg.deadline = Duration::from_millis(100);
    cfg.max_attempts = 2;
    let exec = Arc::new(Chaos {
        failures_left: AtomicU64::new(0),
    });
    let server = Server::start(cfg, exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    let ids = client.submit(&[payload("{\"mode\":\"hang\"}")]).unwrap();
    let rows = client.wait_terminal(&ids, Duration::from_secs(20)).unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("dead_lettered")
    );
    let err = rows[0].get("error").and_then(Value::as_str).unwrap();
    assert!(err.contains("deadline exceeded"), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("timeouts").and_then(Value::as_u64), Some(2));

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_rejects_whole_batches_with_429() {
    let mut cfg = config("backpressure");
    cfg.queue_capacity = 2;
    cfg.workers = 1;
    cfg.deadline = Duration::from_secs(2);
    let exec = Arc::new(Chaos {
        failures_left: AtomicU64::new(0),
    });
    let server = Server::start(cfg, exec).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    // Occupy the worker and fill the queue with hanging jobs.
    let _ids = client
        .submit(&[
            payload("{\"mode\":\"hang\"}"),
            payload("{\"mode\":\"hang\",\"x\":1}"),
        ])
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let body = "{\"jobs\":[{\"mode\":\"ok\"},{\"mode\":\"ok\",\"x\":2},{\"mode\":\"ok\",\"x\":3}]}";
    let (status, v) = client.request("POST", "/jobs", Some(body)).unwrap();
    assert_eq!(status, 429, "full queue refuses the batch: {v:?}");
    assert_eq!(v.get("error").and_then(Value::as_str), Some("queue full"));

    server.shutdown();
    server.join();
}

#[test]
fn drain_then_restart_replays_the_journal() {
    let cfg = config("replay");
    let data_dir = cfg.data_dir.clone();
    let server = Server::start(cfg.clone(), Arc::new(Echo)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));

    // Two fast jobs complete; then drain immediately after queueing
    // more — the drained server leaves them journaled, not run.
    let done = client
        .submit(&[payload("{\"n\":1}"), payload("{\"n\":2}")])
        .unwrap();
    client
        .wait_terminal(&done, Duration::from_secs(10))
        .unwrap();
    server.shutdown();
    server.join();

    // Simulate a crash having left accepted-but-unfinished work: write
    // acceptance records straight into the journal tail, as if the
    // process died between accept and run.
    {
        use regshare_serve::{fnv1a64_hex, JobSpec};
        let spec = JobSpec {
            payload: payload("{\"n\":42}"),
        };
        let key = spec.cache_key("echo-1");
        let json = format!(
            "{{\"rec\":\"accepted\",\"id\":900,\"key\":\"{key}\",\"payload\":{{\"n\":42}}}}"
        );
        let line = format!("{} {json}\n", fnv1a64_hex(json.as_bytes()));
        let journal = data_dir.join("journal.log");
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str(&line);
        // Plus a torn half-record, as a kill mid-append would leave.
        text.push_str("deadbeef {\"rec\":\"acce");
        std::fs::write(&journal, text).unwrap();
    }

    let server2 = Server::start(cfg, Arc::new(Echo)).unwrap();
    let client2 = Client::new(&format!("127.0.0.1:{}", server2.port()));
    // The interrupted job finishes without being resubmitted.
    let rows = client2
        .wait_terminal(&[900], Duration::from_secs(10))
        .unwrap();
    assert_eq!(
        rows[0].get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(
        rows[0].get("result").and_then(Value::as_str),
        Some("{\"echo\":42}")
    );
    // The two finished jobs are still terminal (served from cache state
    // rebuilt off the journal + verified cache), and the torn tail was
    // counted, not fatal.
    let rows = client2
        .wait_terminal(&done, Duration::from_secs(5))
        .unwrap();
    for row in &rows {
        assert_eq!(row.get("status").and_then(Value::as_str), Some("completed"));
        assert_eq!(row.get("cached").and_then(Value::as_bool), Some(true));
    }
    let stats = client2.stats().unwrap();
    assert_eq!(
        stats.get("journal_dropped").and_then(Value::as_u64),
        Some(1)
    );

    server2.shutdown();
    server2.join();
}

#[test]
fn healthz_flips_to_draining() {
    let server = Server::start(config("health"), Arc::new(Echo)).unwrap();
    let client = Client::new(&format!("127.0.0.1:{}", server.port()));
    assert_eq!(
        client
            .healthz()
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("ok")
    );
    client.shutdown_server().unwrap();
    assert_eq!(
        client
            .healthz()
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("draining")
    );
    // Submissions during drain are refused with 503.
    let (status, _) = client
        .request("POST", "/jobs", Some("{\"jobs\":[{\"n\":1}]}"))
        .unwrap();
    assert_eq!(status, 503);
    server.join();
}

#[test]
fn drain_wakes_an_idle_acceptor_on_an_unspecified_address() {
    let cfg = ServeConfig {
        addr: "0.0.0.0:0".into(),
        ..config("wake")
    };
    let server = Server::start(cfg, Arc::new(Echo)).unwrap();
    let port = server.port();
    // No client ever connects: only the drain's own connection can get
    // the acceptor out of `accept`. A lost wake-up fails the wait below
    // instead of hanging the test run.
    server.shutdown();
    let (done, joined) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(30))
        .expect("join returns once the acceptor is woken");
    joiner.join().unwrap();
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err(),
        "the listener is closed after join"
    );
}
