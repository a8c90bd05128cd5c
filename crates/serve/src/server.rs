//! The HTTP front end: listener, routing, journal replay on startup,
//! and the drain/shutdown protocol.
//!
//! Startup replays `journal.log` (re-queueing work that never reached a
//! terminal state — completed jobs come back from the verified cache,
//! and a corrupt cache entry silently re-queues the job instead), then
//! compacts the journal so it never grows without bound. Shutdown
//! (SIGTERM/ctrl-C via [`install_signal_handlers`], or `POST
//! /shutdown`) flips the drain flag: submissions get `503`, workers
//! finish their current attempts, and whatever stays queued is left
//! journaled for the next start to replay.

use crate::cache::{CacheRead, ResultCache};
use crate::http::{read_request, write_response, Request};
use crate::job::{JobExecutor, JobRecord, JobSpec, JobState};
use crate::journal::{Journal, Record};
use crate::metrics::Metrics;
use crate::queue::BoundedQueue;
use crate::state::{lock, Shared};
use crate::worker::WorkerPool;
use crate::ServeConfig;
use serde::Value;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Process-wide flag flipped by the signal handler.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT arrived since [`install_signal_handlers`].
pub fn shutdown_requested() -> bool {
    SIGNALLED.load(Ordering::Acquire)
}

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGNALLED.store(true, Ordering::Release);
}

/// Routes SIGTERM and SIGINT to the [`shutdown_requested`] flag so the
/// serving loop can drain instead of dying mid-attempt. No `libc`
/// dependency — the two constants and `signal(2)` are declared
/// directly.
#[cfg(unix)]
pub fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_signal` does one atomic store, which is
    // async-signal-safe, and the declared `signal(2)` signature (int,
    // handler pointer; returns the previous handler as a word) matches
    // the unix C ABI.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Non-unix fallback: drain only via `POST /shutdown`.
#[cfg(not(unix))]
pub fn install_signal_handlers() {
    let _ = on_signal; // referenced so both cfgs compile it
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    /// Where [`Server::join`] connects to wake the acceptor: the bound
    /// address, with an unspecified IP mapped to its family's loopback.
    wake: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    pool: WorkerPool,
}

/// Journal replay folded into startup state: the job table, the ids to
/// re-queue, and the compacted record list to rewrite.
struct Recovered {
    jobs: HashMap<u64, JobRecord>,
    requeue: Vec<u64>,
    compacted: Vec<Record>,
    next_id: u64,
    dropped: usize,
}

fn recover(journal_path: &std::path::Path, cache: &ResultCache, metrics: &Metrics) -> Recovered {
    let replay = Journal::replay(journal_path);
    let mut jobs: HashMap<u64, JobRecord> = HashMap::new();
    let mut next_id = 0u64;
    for rec in &replay.records {
        match rec {
            Record::Accepted { id, payload, key } => {
                next_id = next_id.max(id + 1);
                jobs.insert(
                    *id,
                    JobRecord {
                        id: *id,
                        spec: JobSpec {
                            payload: payload.clone(),
                        },
                        key: key.clone(),
                        attempts: 0,
                        state: JobState::Queued,
                    },
                );
            }
            // Interrupted attempts don't count against the retry
            // budget on restart — the server dying is not the job's
            // fault — so `Started` records only matter for ordering.
            Record::Started { .. } => {}
            Record::Completed { id, key } => {
                if let Some(job) = jobs.get_mut(id) {
                    match cache.get(key) {
                        CacheRead::Hit(result) => {
                            job.state = JobState::Completed {
                                result,
                                cached: true,
                            };
                        }
                        // Entry lost or quarantined: recompute.
                        CacheRead::Miss => {}
                        CacheRead::Quarantined => {
                            crate::metrics::bump(&metrics.cache_quarantined);
                        }
                    }
                }
            }
            Record::DeadLettered { id, error } => {
                if let Some(job) = jobs.get_mut(id) {
                    job.state = JobState::DeadLettered {
                        error: error.clone(),
                    };
                }
            }
        }
    }
    let mut requeue: Vec<u64> = jobs
        .values()
        .filter(|j| !j.state.is_terminal())
        .map(|j| j.id)
        .collect();
    requeue.sort_unstable();
    let mut compacted = Vec::new();
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let job = &jobs[&id];
        compacted.push(Record::Accepted {
            id,
            payload: job.spec.payload.clone(),
            key: job.key.clone(),
        });
        match &job.state {
            JobState::Completed { .. } => compacted.push(Record::Completed {
                id,
                key: job.key.clone(),
            }),
            JobState::DeadLettered { error } => compacted.push(Record::DeadLettered {
                id,
                error: error.clone(),
            }),
            _ => {}
        }
    }
    Recovered {
        jobs,
        requeue,
        compacted,
        next_id,
        dropped: replay.dropped,
    }
}

fn json_error(msg: &str) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::Str(msg.to_string()),
    )]))
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".into())
}

fn handle(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = serde_json::to_string(&Value::Object(vec![
                (
                    "status".to_string(),
                    Value::Str(
                        if shared.is_draining() {
                            "draining"
                        } else {
                            "ok"
                        }
                        .to_string(),
                    ),
                ),
                (
                    "queue_depth".to_string(),
                    Value::UInt(shared.queue.len() as u64),
                ),
            ]))
            .unwrap_or_default();
            write_response(stream, 200, &body, None)
        }
        ("GET", "/stats") => {
            let mut snap = shared.metrics.snapshot(
                shared.queue.len(),
                WorkerPool::configured_workers(shared),
                shared.is_draining(),
            );
            let (queued, running, completed, dead) = shared.job_counts();
            if let Value::Object(fields) = &mut snap {
                fields.push((
                    "jobs".to_string(),
                    Value::Object(vec![
                        ("queued".to_string(), Value::UInt(queued as u64)),
                        ("running".to_string(), Value::UInt(running as u64)),
                        ("completed".to_string(), Value::UInt(completed as u64)),
                        ("dead_lettered".to_string(), Value::UInt(dead as u64)),
                    ]),
                ));
            }
            let body = serde_json::to_string_pretty(&snap).unwrap_or_default();
            write_response(stream, 200, &body, None)
        }
        ("POST", "/jobs") => {
            if shared.is_draining() {
                return write_response(stream, 503, &json_error("draining"), None);
            }
            let parsed = match serde_json::from_str(&req.body) {
                Ok(v) => v,
                Err(e) => {
                    return write_response(
                        stream,
                        400,
                        &json_error(&format!("bad JSON body: {e}")),
                        None,
                    )
                }
            };
            let Some(items) = parsed.get("jobs").and_then(Value::as_array) else {
                return write_response(
                    stream,
                    400,
                    &json_error("body must be {\"jobs\": [payload, ...]}"),
                    None,
                );
            };
            if items.is_empty() {
                return write_response(stream, 400, &json_error("empty job batch"), None);
            }
            let specs: Vec<JobSpec> = items
                .iter()
                .map(|payload| JobSpec {
                    payload: payload.clone(),
                })
                .collect();
            match shared.admit_batch(specs) {
                Ok(admitted) => {
                    let rows: Vec<Value> = admitted
                        .iter()
                        .map(|a| {
                            Value::Object(vec![
                                ("id".to_string(), Value::UInt(a.id)),
                                ("status".to_string(), Value::Str(a.status.to_string())),
                                ("cached".to_string(), Value::Bool(a.cached)),
                            ])
                        })
                        .collect();
                    let body = serde_json::to_string(&Value::Object(vec![(
                        "jobs".to_string(),
                        Value::Array(rows),
                    )]))
                    .unwrap_or_default();
                    write_response(stream, 202, &body, None)
                }
                Err(()) => {
                    let body = serde_json::to_string(&Value::Object(vec![
                        ("error".to_string(), Value::Str("queue full".to_string())),
                        (
                            "queue_depth".to_string(),
                            Value::UInt(shared.queue.len() as u64),
                        ),
                        (
                            "capacity".to_string(),
                            Value::UInt(shared.queue.capacity() as u64),
                        ),
                    ]))
                    .unwrap_or_default();
                    write_response(stream, 429, &body, Some(1))
                }
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let id = path["/jobs/".len()..].parse::<u64>().ok();
            let row = id.and_then(|id| lock(&shared.jobs).get(&id).map(JobRecord::to_value));
            match row {
                Some(v) => {
                    let body = serde_json::to_string_pretty(&v).unwrap_or_default();
                    write_response(stream, 200, &body, None)
                }
                None => write_response(stream, 404, &json_error("no such job"), None),
            }
        }
        ("POST", "/shutdown") => {
            shared.draining.store(true, Ordering::Release);
            write_response(stream, 200, "{\"status\":\"draining\"}", None)
        }
        _ => write_response(stream, 404, &json_error("no such route"), None),
    }
}

fn serve_connection(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    match read_request(&mut stream) {
        Ok(req) => {
            let _ = handle(&shared, &req, &mut stream);
        }
        Err(e) => {
            let _ = write_response(&mut stream, 400, &json_error(&e), None);
        }
    }
}

impl Server {
    /// Binds, replays the journal, compacts it, starts the worker pool
    /// and the accept loop. `addr` port 0 picks an ephemeral port.
    pub fn start(config: ServeConfig, executor: Arc<dyn JobExecutor>) -> std::io::Result<Server> {
        let cache = ResultCache::open(&config.data_dir.join("cache"))?;
        let journal_path = config.data_dir.join("journal.log");
        let metrics = Metrics::default();
        let recovered = recover(&journal_path, &cache, &metrics);
        let mut journal = Journal::open(&journal_path)?;
        journal.compact(&recovered.compacted)?;
        for _ in 0..recovered.dropped {
            crate::metrics::bump(&metrics.journal_dropped);
        }

        let listener = TcpListener::bind(&config.addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }

        let version = executor.version();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            config,
            executor,
            version,
            jobs: std::sync::Mutex::new(recovered.jobs),
            next_id: AtomicU64::new(recovered.next_id),
            cache,
            journal: std::sync::Mutex::new(journal),
            metrics,
            draining: AtomicBool::new(false),
            pool_done: AtomicBool::new(false),
            running: std::sync::Mutex::new(HashMap::new()),
            retries: std::sync::Mutex::new(Vec::new()),
        });
        // Accepted-but-unfinished work survives the previous process:
        // requeue bypasses admission capacity by design.
        for id in &recovered.requeue {
            shared.queue.push_force(*id);
        }

        let pool = WorkerPool::spawn(&shared);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || loop {
                    // Blocks until a client connects; once the pool is
                    // done, the connection `join` opens ends the loop.
                    let accepted = listener.accept();
                    if shared.pool_done.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            let shared = Arc::clone(&shared);
                            let _ = std::thread::Builder::new()
                                .name("serve-conn".into())
                                .spawn(move || serve_connection(shared, stream));
                        }
                        // A persistent error such as EMFILE returns at
                        // once: back off so the loop cannot spin.
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            shared,
            wake,
            acceptor: Some(acceptor),
            pool,
        })
    }

    /// The bound port (useful with ephemeral binds).
    pub fn port(&self) -> u16 {
        self.wake.port()
    }

    /// Number of jobs re-queued from the journal at startup.
    pub fn recovered_jobs(&self) -> usize {
        // Replay happened before workers started; by the time a caller
        // asks, some may already be running — report both.
        let (queued, running, _, _) = self.shared.job_counts();
        queued + running
    }

    /// Requests a drain: stop accepting, finish in-flight attempts.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Whether the service has been asked to drain.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Blocks until the worker pool and accept loop have exited. Call
    /// after [`Server::shutdown`] (or it blocks until one arrives over
    /// the API/a signal watcher).
    pub fn join(mut self) {
        self.pool.join();
        if let Some(h) = self.acceptor.take() {
            // `std` has no accept timeout, so one connection wakes the
            // acceptor, which now sees `pool_done`. A failed connect
            // means the listener has already closed.
            let _ = TcpStream::connect(self.wake);
            let _ = h.join();
        }
    }

    /// Serves until [`shutdown_requested`] (signal) or a `POST
    /// /shutdown` flips the drain flag, then drains and returns.
    pub fn run_until_signalled(self) {
        while !shutdown_requested() && !self.is_draining() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
        self.join();
    }
}
