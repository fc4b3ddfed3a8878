//! The daemon: TCP accept loop, routing, and lifecycle.
//!
//! Endpoints:
//!
//! * `POST /scan` — submit a job (JSON body; see [`crate::job`]). Cache
//!   hits complete immediately (200); misses queue (202); a full lane
//!   rejects with 429 + `Retry-After`; a draining daemon with 503.
//!   Sending an `X-Omega-Trace` header opts the request into tracing:
//!   the response echoes the trace context and the completed span tree
//!   lands in the flight recorder.
//! * `GET /jobs/<id>` — job state, result, and timing.
//! * `GET /stats` — the metrics registry (with exact bucket-boundary
//!   percentiles), queue and cache occupancy, and the serve instrument
//!   inventory, as JSON.
//! * `GET /metrics` — the same registry in Prometheus text exposition.
//! * `GET /traces` — flight-recorder index (most recent traces).
//! * `GET /traces/<hex-id>` — one completed trace's full span tree.
//! * `GET /healthz` — liveness, uptime, build info, per-lane depths.
//!
//! Shutdown is graceful by construction: [`ServeHandle::shutdown`] stops
//! admission first (new submissions get 503), then joins the lane
//! workers — which by the lane contract finish every admitted job —
//! and only then tears down the acceptor.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omega_obs::{JsonObject, RequestTrace, TraceContext};

use crate::cache::{CacheKey, ResultCache};
use crate::http::{error_body, serve_connection, spawn_acceptor, Request, Response};
use crate::job::{job_json, parse_scan_request, BackendKind, JobId, JobLookup, JobState, JobTable};
use crate::job::{DEFAULT_RETAIN_FOR, DEFAULT_RETAIN_TERMINAL};
use crate::queue::{Lanes, Submission, SubmitError};
use crate::scheduler::run_lane;
use crate::store::ResultStore;
use crate::wal::{RecoveredState, Wal};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Per-lane queue capacity (admission-control bound).
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_capacity_bytes: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// `Retry-After` hint (seconds) on 429 responses.
    pub retry_after_secs: u64,
    /// Start with lanes paused (accept-and-hold; tests and maintenance).
    pub start_paused: bool,
    /// Flight-recorder capacity (completed traces held for `/traces`;
    /// 0 disables capture).
    pub trace_capacity: usize,
    /// Trace every request, not just those sending `X-Omega-Trace`.
    pub trace_all: bool,
    /// Durability root (`-data-dir`): holds the write-ahead job log and
    /// the on-disk result store. `None` runs fully in-memory.
    pub data_dir: Option<PathBuf>,
    /// Cap on retained terminal job records.
    pub retain_jobs: usize,
    /// Age bound on retained terminal job records.
    pub retain_job_secs: u64,
    /// Stable worker identity surfaced in `/healthz` (`-worker-id`).
    /// A cluster coordinator uses it to tell workers apart across
    /// restarts and address changes; empty means standalone.
    pub worker_id: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            queue_capacity: 64,
            cache_capacity_bytes: 32 << 20,
            max_body_bytes: 8 << 20,
            retry_after_secs: 1,
            start_paused: false,
            trace_capacity: 256,
            trace_all: false,
            data_dir: None,
            retain_jobs: DEFAULT_RETAIN_TERMINAL,
            retain_job_secs: DEFAULT_RETAIN_FOR.as_secs(),
            worker_id: String::new(),
        }
    }
}

struct Shared {
    lanes: Lanes,
    table: JobTable,
    cache: ResultCache,
    wal: Option<Wal>,
    config: ServeConfig,
    shutting_down: AtomicBool,
    started: Instant,
}

/// Touches every serve instrument once so `/stats` always lists the
/// full inventory, even before the first request.
fn register_instruments() {
    omega_obs::counter!("serve.jobs").add(0);
    omega_obs::counter!("serve.rejected").add(0);
    omega_obs::counter!("serve.cache_hits").add(0);
    omega_obs::counter!("serve.cache_misses").add(0);
    omega_obs::counter!("serve.cache_evictions").add(0);
    omega_obs::counter!("serve.auto_routed").add(0);
    omega_obs::counter!("serve.auto_routed.cpu").add(0);
    omega_obs::counter!("serve.auto_routed.gpu").add(0);
    omega_obs::counter!("serve.auto_routed.fpga").add(0);
    omega_obs::counter!("serve.http_conn_reuses").add(0);
    omega_obs::counter!("serve.jobs_evicted").add(0);
    omega_obs::counter!("serve.jobs_recovered").add(0);
    omega_obs::counter!("serve.store_errors").add(0);
    omega_obs::counter!("serve.store_hits").add(0);
    omega_obs::counter!("serve.store_misses").add(0);
    omega_obs::counter!("serve.store_rehydrated").add(0);
    omega_obs::counter!("serve.store_writes").add(0);
    omega_obs::counter!("serve.wal_appends").add(0);
    omega_obs::counter!("serve.wal_compactions").add(0);
    omega_obs::counter!("serve.wal_corrupt_skipped").add(0);
    omega_obs::counter!("serve.wal_errors").add(0);
    omega_obs::counter!("serve.wal_replayed").add(0);
    omega_obs::counter!("obs.trace.completed").add(0);
    omega_obs::counter!("obs.trace.dropped").add(0);
    omega_obs::gauge!("serve.queue_depth").set(0);
    omega_obs::gauge!("serve.store_bytes").set(0);
    omega_obs::gauge!("serve.wal_bytes").set(0);
    let _ = omega_obs::histogram!("serve.wal_fsync_ns");
    let _ = omega_obs::histogram!("serve.batch_size");
    let _ = omega_obs::histogram!("serve.latency.cpu");
    let _ = omega_obs::histogram!("serve.latency.gpu");
    let _ = omega_obs::histogram!("serve.latency.fpga");
    let _ = omega_obs::histogram!("serve.queue_wait_ns");
    let _ = omega_obs::histogram!("serve.coalesce_ns");
    let _ = omega_obs::histogram!("serve.kernel_ns");
    let _ = omega_obs::histogram!("serve.kernel_ns.cpu");
    let _ = omega_obs::histogram!("serve.kernel_ns.gpu");
    let _ = omega_obs::histogram!("serve.kernel_ns.fpga");
    let _ = omega_obs::histogram!("serve.transfer_ns");
    let _ = omega_obs::histogram!("serve.cache_lookup_ns");
    let _ = omega_obs::histogram!("serve.auto_predict_ns");
    let _ = omega_obs::histogram!("serve.auto_error_pct");
}

/// Renders `/stats`: the full metrics snapshot plus daemon-local
/// occupancy figures and the serve instrument inventory.
fn stats_json(shared: &Shared) -> String {
    let snap = omega_obs::snapshot();
    let mut counters = JsonObject::new();
    for (name, v) in &snap.counters {
        counters = counters.u64(name, *v);
    }
    let mut gauges = JsonObject::new();
    for (name, v) in &snap.gauges {
        gauges = gauges.raw(name, &v.to_string());
    }
    let mut histograms = JsonObject::new();
    for (name, h) in &snap.histograms {
        let entry = JsonObject::new()
            .u64("count", h.count())
            .u64("sum", h.sum)
            .f64("mean", h.mean())
            .u64("p50", h.percentile(50.0))
            .u64("p90", h.percentile(90.0))
            .u64("p95", h.percentile(95.0))
            .u64("p99", h.percentile(99.0))
            .u64_array("buckets", h.counts.iter().copied())
            .finish();
        histograms = histograms.raw(name, &entry);
    }
    let queue = JsonObject::new()
        .u64("depth", shared.lanes.depth() as u64)
        .u64("capacity_per_lane", shared.lanes.capacity() as u64)
        .raw("draining", if shared.lanes.is_draining() { "true" } else { "false" })
        .finish();
    let cache_stats = shared.cache.stats();
    let cache = JsonObject::new()
        .u64("bytes", cache_stats.bytes as u64)
        .u64("capacity_bytes", cache_stats.capacity_bytes as u64)
        .u64("entries", cache_stats.entries as u64)
        .finish();
    let persistence = match (&shared.wal, shared.cache.store()) {
        (Some(wal), Some(store)) => JsonObject::new()
            .raw("enabled", "true")
            .u64("wal_bytes", wal.bytes())
            .u64("wal_live_jobs", wal.live_jobs() as u64)
            .u64("store_bytes", store.bytes())
            .finish(),
        _ => JsonObject::new().raw("enabled", "false").finish(),
    };
    let mut instruments = String::from("[");
    for (i, name) in omega_obs::INSTRUMENTS.iter().filter(|n| n.starts_with("serve.")).enumerate() {
        if i > 0 {
            instruments.push(',');
        }
        instruments.push('"');
        instruments.push_str(name);
        instruments.push('"');
    }
    instruments.push(']');
    JsonObject::new()
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &histograms.finish())
        .raw("queue", &queue)
        .raw("cache", &cache)
        .raw("persistence", &persistence)
        .raw("instruments", &instruments)
        .finish()
}

/// Renders `/healthz`: liveness plus uptime, build identity, and the
/// current per-lane queue depths.
fn healthz_json(shared: &Shared) -> String {
    let mut queues = JsonObject::new();
    for kind in BackendKind::ALL {
        queues = queues.u64(kind.as_str(), shared.lanes.depth_of(kind) as u64);
    }
    let build = JsonObject::new()
        .string("name", env!("CARGO_PKG_NAME"))
        .string("version", env!("CARGO_PKG_VERSION"))
        .finish();
    JsonObject::new()
        .string("status", "ok")
        .string("worker_id", &shared.config.worker_id)
        .u64("uptime_secs", shared.started.elapsed().as_secs())
        .raw("build", &build)
        .raw("queue_depths", &queues.finish())
        .raw("draining", if shared.lanes.is_draining() { "true" } else { "false" })
        .finish()
}

/// Renders the `/traces` flight-recorder index, most recent last.
fn traces_index_json() -> String {
    let recorder = omega_obs::recorder();
    let traces = recorder.recent(usize::MAX);
    let mut list = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            list.push(',');
        }
        list.push_str(&t.summary_json());
    }
    list.push(']');
    JsonObject::new()
        .u64("count", traces.len() as u64)
        .u64("capacity", recorder.capacity() as u64)
        .raw("traces", &list)
        .finish()
}

/// Routes one parsed request.
fn route(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "OK", healthz_json(shared)),
        ("GET", "/stats") => Response::json(200, "OK", stats_json(shared)),
        ("GET", "/metrics") => Response {
            content_type: "text/plain; version=0.0.4",
            ..Response::json(200, "OK", omega_obs::render_prometheus(&omega_obs::snapshot()))
        },
        ("GET", "/traces") => Response::json(200, "OK", traces_index_json()),
        ("POST", "/scan") => handle_scan(shared, request),
        ("GET", path) if path.starts_with("/traces/") => {
            let id_text = &path["/traces/".len()..];
            match u64::from_str_radix(id_text, 16).ok().and_then(|id| omega_obs::recorder().get(id))
            {
                Some(trace) => Response::json(200, "OK", trace.json()),
                None => Response::error(404, "Not Found", &format!("no trace {id_text:?}")),
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let id_text = &path["/jobs/".len()..];
            match JobId::parse(id_text) {
                Some(id) => match shared.table.lookup(id) {
                    JobLookup::Found(record) => Response::json(200, "OK", job_json(id, &record)),
                    // The id was real but its record aged out of bounded
                    // retention: "polled too late", not "never existed".
                    JobLookup::Evicted => Response::error(
                        410,
                        "Gone",
                        &format!("job {id_text} has been evicted from retention"),
                    ),
                    JobLookup::Unknown => {
                        Response::error(404, "Not Found", &format!("no job {id_text:?}"))
                    }
                },
                None => Response::error(404, "Not Found", &format!("no job {id_text:?}")),
            }
        }
        ("POST" | "GET", _) => Response::error(404, "Not Found", "unknown path"),
        _ => Response::error(405, "Method Not Allowed", "only GET and POST are supported"),
    }
}

fn handle_scan(shared: &Shared, http_request: &Request) -> Response {
    let text = match std::str::from_utf8(&http_request.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "Bad Request", "body is not UTF-8"),
    };
    let request = match parse_scan_request(text) {
        Ok(r) => r,
        Err(e) => return Response::error(400, "Bad Request", &e.to_string()),
    };

    // Tracing is opt-in: any X-Omega-Trace header (or trace_all) starts
    // a request trace; a well-formed header additionally joins the
    // caller's trace id and parent span.
    let inbound = http_request.trace_header.as_deref().and_then(TraceContext::parse);
    let trace = (http_request.trace_header.is_some() || shared.config.trace_all)
        .then(|| RequestTrace::begin("serve.request", inbound));
    let trace_headers = |t: &Option<Arc<RequestTrace>>| -> Vec<(&'static str, String)> {
        t.iter().map(|t| ("X-Omega-Trace", t.context().header_value())).collect()
    };

    let key = CacheKey::new(
        request.payload_digest,
        request.params,
        request.backend_label.clone(),
        request.overlap,
        request.shard,
    );
    let lookup_started = Instant::now();
    // `"cache":"bypass"` skips the lookup but not the insert: the fresh
    // result still lands in the cache for later `"cache":"use"` callers.
    // Benchmarks use it to measure compute, not cache hits.
    let cached = if request.cache_bypass { None } else { shared.cache.get(&key) };
    let lookup_ns = lookup_started.elapsed().as_nanos() as u64;
    omega_obs::histogram!("serve.cache_lookup_ns").record(lookup_ns);
    if let Some(t) = &trace {
        t.record_wall("serve.cache_lookup", t.root_span(), t.offset_of(lookup_started), lookup_ns);
        t.annotate("cache", if cached.is_some() { "hit" } else { "miss" });
        t.annotate("backend", request.kind.as_str());
    }

    if let Some(result) = cached {
        let id = shared.table.create_cached(request.kind, result);
        // Cache hits complete inline and are not individually logged;
        // an amortised id reservation (one fsync per block) is enough
        // to keep a restarted daemon from re-issuing this id.
        if let Some(wal) = &shared.wal {
            wal.reserve_id(id.0);
        }
        if let Some(t) = &trace {
            shared.table.update(id, |r| r.trace_id = Some(t.trace_id()));
            t.annotate("job", &id.to_string());
            t.annotate("state", "done");
            t.finish();
        }
        let body = match shared.table.get(id) {
            Some(r) => job_json(id, &r),
            None => error_body("job record vanished"),
        };
        return Response { headers: trace_headers(&trace), ..Response::json(200, "OK", body) };
    }

    let id = shared.table.create(request.kind);
    if let Some(t) = &trace {
        shared.table.update(id, |r| r.trace_id = Some(t.trace_id()));
    }
    match shared.lanes.submit(Submission { id, request, trace: trace.clone() }) {
        Ok(()) => {
            // The admit record is fsync'd *before* the 202 goes out:
            // once the client holds the job id, a crash cannot lose the
            // job. Rejected submissions (below) are never logged.
            if let Some(wal) = &shared.wal {
                wal.append_admit(id.0, text);
            }
            let body = match shared.table.get(id) {
                Some(r) => job_json(id, &r),
                None => error_body("job record vanished"),
            };
            Response { headers: trace_headers(&trace), ..Response::json(202, "Accepted", body) }
        }
        Err(SubmitError::QueueFull { queued, capacity }) => {
            shared.table.remove(id);
            if let Some(t) = &trace {
                t.annotate("state", "rejected");
                t.finish();
            }
            let retry = shared.config.retry_after_secs.max(1);
            let body = JsonObject::new()
                .string("error", "queue full")
                .u64("queued", queued as u64)
                .u64("capacity", capacity as u64)
                .u64("retry_after_secs", retry)
                .finish();
            let mut headers = trace_headers(&trace);
            headers.push(("Retry-After", retry.to_string()));
            Response { headers, ..Response::json(429, "Too Many Requests", body) }
        }
        Err(SubmitError::Draining) => {
            shared.table.remove(id);
            if let Some(t) = &trace {
                t.annotate("state", "rejected");
                t.finish();
            }
            Response {
                headers: trace_headers(&trace),
                ..Response::error(503, "Service Unavailable", "daemon is draining")
            }
        }
    }
}

/// Serves one connection through the shared loop, counting every
/// request after a connection's first as a keep-alive reuse.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let mut served: u64 = 0;
    serve_connection(stream, shared.config.max_body_bytes, &shared.shutting_down, |request| {
        if served > 0 {
            omega_obs::counter!("serve.http_conn_reuses").inc();
        }
        served += 1;
        route(shared, request)
    });
}

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// call [`ServeHandle::shutdown`] (or let the process exit).
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Holds queued work (admission continues). See [`Lanes::pause`].
    pub fn pause(&self) {
        self.shared.lanes.pause();
    }

    /// Releases held work.
    pub fn resume(&self) {
        self.shared.lanes.resume();
    }

    /// Total queued jobs across lanes.
    pub fn queue_depth(&self) -> usize {
        self.shared.lanes.depth()
    }

    /// Graceful shutdown: reject new work, finish every admitted job,
    /// then stop accepting. Returns the drain report — every job's
    /// final state — once all threads have exited.
    pub fn shutdown(mut self) -> Vec<(crate::job::JobId, crate::job::JobState)> {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.lanes.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection, then reap it.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.table.states()
    }

    /// Blocks on the accept loop (daemon mode: runs until the process
    /// is killed).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Simulated crash for recovery tests: stops the lane workers
    /// *immediately* (queued jobs stay queued — and, with a WAL, stay
    /// recoverable) and tears down the acceptor without draining.
    /// Unlike [`ServeHandle::shutdown`], admitted work is abandoned,
    /// exactly as `kill -9` would abandon it.
    pub fn abort(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.lanes.poison();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Rebuilds daemon state from a WAL replay: queued jobs re-enter their
/// lanes (bypassing admission — they were already acknowledged),
/// finished jobs get their records back (results rehydrated from the
/// store, byte-identical to the pre-crash response), and the id
/// allocator is advanced past every id a pre-crash client could hold.
fn recover(shared: &Shared, store: &ResultStore, replay: crate::wal::Replay) {
    shared.table.reserve_through(replay.next_id.saturating_sub(1));
    let mut recovered = 0u64;
    for job in replay.jobs {
        let id = JobId(job.id);
        match job.state {
            RecoveredState::Queued => match parse_scan_request(&job.body) {
                Ok(request) => {
                    shared.table.create_with_id(id, request.kind);
                    shared.lanes.restore(Submission { id, request, trace: None });
                    recovered += 1;
                }
                Err(e) => {
                    // A body that parsed pre-crash but not now means the
                    // log is damaged; fail the job visibly instead of
                    // dropping it silently.
                    shared.table.create_with_id(id, BackendKind::Cpu);
                    shared.table.update(id, |r| {
                        r.state = JobState::Failed;
                        r.error = Some(format!("recovered job body no longer parses: {e}"));
                    });
                    if let Some(wal) = &shared.wal {
                        wal.append_terminal(id.0, JobState::Failed, None);
                    }
                }
            },
            RecoveredState::Done { key } => {
                let kind =
                    parse_scan_request(&job.body).map(|r| r.kind).unwrap_or(BackendKind::Cpu);
                shared.table.create_with_id(id, kind);
                match store.read_by_digest(key) {
                    Some((_, value)) => {
                        shared.table.update(id, |r| {
                            r.state = JobState::Done;
                            r.result = Some(value);
                        });
                        recovered += 1;
                    }
                    None => {
                        shared.table.update(id, |r| {
                            r.state = JobState::Failed;
                            r.error = Some("result bytes did not survive the restart".to_string());
                        });
                    }
                }
            }
            RecoveredState::Failed => {
                shared.table.create_with_id(id, BackendKind::Cpu);
                shared.table.update(id, |r| {
                    r.state = JobState::Failed;
                    r.error = Some("failed before the restart".to_string());
                });
            }
            RecoveredState::Expired => {
                shared.table.create_with_id(id, BackendKind::Cpu);
                shared.table.update(id, |r| {
                    r.state = JobState::Expired;
                    r.error = Some("expired before the restart".to_string());
                });
            }
        }
    }
    if recovered > 0 {
        omega_obs::counter!("serve.jobs_recovered").add(recovered);
    }
}

/// Boots the daemon: binds, opens the durability layer (when
/// configured), replays the write-ahead log, spawns the three lane
/// workers and the acceptor, and returns a handle.
pub fn start(config: ServeConfig) -> io::Result<ServeHandle> {
    register_instruments();
    omega_obs::recorder().set_capacity(config.trace_capacity);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    // Durability boots before the first connection is accepted, so a
    // recovered job can never race a fresh submission for its id.
    let mut wal = None;
    let mut replay = None;
    let mut store = None;
    if let Some(dir) = &config.data_dir {
        std::fs::create_dir_all(dir)?;
        let s = Arc::new(ResultStore::open(&dir.join("store"))?);
        let (w, r) = Wal::open_and_replay(&dir.join("jobs.wal"))?;
        store = Some(s);
        wal = Some(w);
        replay = Some(r);
    }
    let cache = match &store {
        Some(s) => ResultCache::with_store(config.cache_capacity_bytes, Arc::clone(s)),
        None => ResultCache::with_capacity(config.cache_capacity_bytes),
    };

    let shared = Arc::new(Shared {
        lanes: Lanes::with_capacity(config.queue_capacity),
        table: JobTable::with_retention(
            config.retain_jobs,
            Duration::from_secs(config.retain_job_secs),
        ),
        cache,
        wal,
        config: config.clone(),
        shutting_down: AtomicBool::new(false),
        started: Instant::now(),
    });
    if let (Some(store), Some(replay)) = (&store, replay) {
        shared.cache.rehydrate();
        recover(&shared, store, replay);
        if let Some(wal) = &shared.wal {
            // Recovery replays terminal records too; compacting now
            // bounds the next boot's replay to the live set.
            wal.compact();
        }
    }
    if config.start_paused {
        shared.lanes.pause();
    }

    let mut workers = Vec::new();
    for kind in BackendKind::ALL {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new().name(format!("serve-lane-{}", kind.as_str())).spawn(
                move || {
                    run_lane(kind, &shared.lanes, &shared.table, &shared.cache, shared.wal.as_ref())
                },
            )?,
        );
    }

    let acceptor = spawn_acceptor(
        listener,
        "serve",
        Arc::clone(&shared),
        |s| &s.shutting_down,
        handle_connection,
    )?;

    Ok(ServeHandle { addr, shared, acceptor: Some(acceptor), workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_capacity > 0);
        assert!(c.cache_capacity_bytes > 0);
        assert!(c.max_body_bytes > 0);
    }

    #[test]
    fn stats_json_is_valid_and_lists_serve_instruments() {
        register_instruments();
        let shared = Shared {
            lanes: Lanes::with_capacity(4),
            table: JobTable::default(),
            cache: ResultCache::with_capacity(1024),
            wal: None,
            config: ServeConfig::default(),
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
        };
        let json = stats_json(&shared);
        let v = omega_obs::parse_json(&json).unwrap();
        let instruments = v.get("instruments").unwrap().as_array().unwrap();
        let listed: Vec<&str> = instruments.iter().filter_map(|x| x.as_str()).collect();
        for name in omega_obs::INSTRUMENTS.iter().filter(|n| n.starts_with("serve.")) {
            assert!(listed.contains(name), "{name} missing from /stats instruments");
        }
        assert!(v.get("counters").unwrap().get("serve.jobs").is_some());
        assert!(v.get("queue").unwrap().get("capacity_per_lane").is_some());
        assert!(v.get("cache").unwrap().get("capacity_bytes").is_some());
        let batch = v.get("histograms").unwrap().get("serve.batch_size").unwrap();
        for pct in ["p50", "p90", "p95", "p99"] {
            assert!(batch.get(pct).is_some(), "{pct} missing from histogram entry");
        }
    }

    #[test]
    fn healthz_reports_uptime_build_and_depths() {
        register_instruments();
        let shared = Shared {
            lanes: Lanes::with_capacity(4),
            table: JobTable::default(),
            cache: ResultCache::with_capacity(1024),
            wal: None,
            config: ServeConfig::default(),
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
        };
        let v = omega_obs::parse_json(&healthz_json(&shared)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert!(v.get("uptime_secs").unwrap().as_u64().is_some());
        assert!(v.get("build").unwrap().get("version").unwrap().as_str().is_some());
        let depths = v.get("queue_depths").unwrap();
        for lane in ["cpu", "gpu", "fpga"] {
            assert_eq!(depths.get(lane).unwrap().as_u64(), Some(0));
        }
    }
}
