//! `loadgen` — closed-loop load generator and CI gate for the
//! omega-serve daemon and the omega-cluster coordinator.
//!
//! Usage: `loadgen serve|persist|cluster [OUT.json]`
//!
//! Each scenario boots its daemons in-process on ephemeral ports (so the
//! run is hermetic), drives them from client threads, writes its own
//! JSON record (default `BENCH_<scenario>.json`, schema in DESIGN.md),
//! prints every gate, and exits non-zero if any fails:
//!
//! * `serve` — a traced fill (all cache misses), then untraced and traced
//!   cache hits paired on one daemon; also audits `/traces` and
//!   `/metrics`.
//! * `persist` — cache hits paired between a daemon with a `-data-dir`
//!   and an in-memory one, then a warm restart on the data dir.
//! * `cluster` — cache-bypassing scans through a three-worker
//!   coordinator and a one-worker baseline, compared on *modelled*
//!   device time, then a warm round for the affinity evidence.
//!
//! Both overhead gates use one paired rule ([`run_paired`]): each client
//! alternates the two arms request by request, so host noise hits both
//! alike and cancels, and each arm's rps is `CLIENTS / p50` (throughput
//! at fixed concurrency is inverse latency). Every request honors a
//! 429's `Retry-After` once (bounded), and each client thread holds one
//! keep-alive `HttpClient` per daemon address.

use std::cell::RefCell;
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use omega_obs::trace::fresh_trace_id;
use omega_obs::{CompletedTrace, JsonObject, JsonValue, SpanRecord, TraceContext};
use omega_serve::http::HttpClient;
use omega_serve::{ServeConfig, ServeHandle};

const DISTINCT: usize = 6;
/// Concurrent client threads in every replay phase.
const CLIENTS: usize = 16;
/// Requests per client in a paired replay, half per arm: 3,072 samples
/// per arm, and `serve`'s traced arm still fits its 4,096-trace recorder.
const PAIRED_REQUESTS_PER_CLIENT: usize = 384;
/// `serve` floor on traced/untraced paired throughput.
const MAX_TRACING_OVERHEAD: f64 = 0.05;
/// `serve` minimum number of verified span trees.
const MIN_AUDITED_TRACES: usize = 100;
/// `persist` ceiling on the WAL/store hot-path cost: replay throughput
/// with persistence on must stay within this fraction of `-no-persist`.
const MAX_PERSIST_OVERHEAD: f64 = 0.05;
/// Workers behind the coordinator in `cluster`.
const CLUSTER_WORKERS: usize = 3;
/// Replay requests per client per coordinator in `cluster`.
const CLUSTER_REQUESTS_PER_CLIENT: usize = 6;
/// `cluster` floor on modelled replay speedup over one worker
/// (near-linear for three workers).
const MIN_CLUSTER_SPEEDUP: f64 = 2.2;
/// Ceiling on one honored `Retry-After` backoff sleep.
const MAX_RETRY_BACKOFF_MS: u64 = 500;
/// Per-IO timeout: generous, as a loaded runner can hold a scan for seconds.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Deterministic ms-format payload `i`: a small LCG fills a replicate
/// with `i`-dependent sites so every payload digests differently.
fn payload_shaped(i: usize, n_samples: usize, n_sites: usize) -> String {
    let mut state = 0x9e37_79b9_u64.wrapping_add(i as u64);
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let positions: Vec<String> =
        (0..n_sites).map(|s| format!("{:.6}", (s as f64 + 0.5) / n_sites as f64)).collect();
    let positions = positions.join(" ");
    let mut out =
        format!("ms {n_samples} 1\n{i}\n\n//\nsegsites: {n_sites}\npositions: {positions}\n");
    for _ in 0..n_samples {
        for _ in 0..n_sites {
            out.push(if next() % 2 == 0 { '0' } else { '1' });
        }
        out.push('\n');
    }
    out
}

fn scan_body(i: usize) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":4}}}}",
        payload_shaped(i, 8, 12 + i)
    )
}

/// Cluster bodies carry enough sites and grid positions that the
/// weight-balanced partitioner can cut three near-equal shards, and pin
/// the GPU lane: its per-shard cost is the simulator's *modelled* device
/// time (deterministic in the workload shape), so the speedup gate
/// measures the partition balance rather than host scheduling noise.
fn cluster_scan_body(i: usize, bypass: bool) -> String {
    format!(
        "{{\"format\":\"ms\",\"payload\":{:?},\"params\":{{\"grid\":32}},\"backend\":\"gpu\",\"cache\":{:?}}}",
        payload_shaped(i, 16, 64 + 4 * i),
        if bypass { "bypass" } else { "use" }
    )
}

/// Connections opened / requests completed across all client threads.
static CONNECTS_OPENED: AtomicU64 = AtomicU64::new(0);
static REQUESTS_DONE: AtomicU64 = AtomicU64::new(0);
/// Honored 429s (slept + retried) and how many of those retries then
/// succeeded.
static RETRIES_HONORED: AtomicU64 = AtomicU64::new(0);
static RETRIES_RECOVERED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// One keep-alive client per daemon address this thread talks to,
    /// as a real closed-loop client would hold them.
    static CONNECTIONS: RefCell<Vec<HttpClient>> = const { RefCell::new(Vec::new()) };
}

/// One HTTP round-trip over this thread's keep-alive client for `addr`:
/// returns (status, body, Retry-After).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<(u16, String, Option<u64>), String> {
    CONNECTIONS.with(|clients| {
        let mut clients = clients.borrow_mut();
        let addr = addr.to_string();
        let at = clients.iter().position(|c| c.addr() == addr).unwrap_or_else(|| {
            clients.push(HttpClient::new(addr, IO_TIMEOUT));
            clients.len() - 1
        });
        let client = &clients[at];
        let opened = client.connections_opened();
        let outcome = client.request(method, path, headers, body);
        CONNECTS_OPENED.fetch_add(client.connections_opened() - opened, Ordering::Relaxed);
        let response = outcome.map_err(|e| format!("request: {}", e.detail()))?;
        REQUESTS_DONE.fetch_add(1, Ordering::Relaxed);
        Ok((response.status, response.body, response.retry_after))
    })
}

/// GETs `path` and parses the 200 body as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Result<(JsonValue, String), String> {
    let (status, body, _) = http(addr, "GET", path, &[], "")?;
    if status != 200 {
        return Err(format!("{path} returned {status}: {body}"));
    }
    let parsed = omega_obs::parse_json(&body).map_err(|e| format!("{path}: {e}"))?;
    Ok((parsed, body))
}

/// POSTs a scan (with a fresh `X-Omega-Trace` context when `traced`),
/// honoring back-pressure: one 429 sleeps the daemon's `Retry-After`
/// (bounded by [`MAX_RETRY_BACKOFF_MS`]) and retries exactly once; the
/// retry's status is final either way.
fn post_scan(addr: SocketAddr, body: &str, traced: bool) -> Result<(u16, String), String> {
    let once = || {
        let trace =
            traced.then(|| TraceContext { trace_id: fresh_trace_id(), span_id: 0 }.header_value());
        let headers: Vec<(&str, &str)> =
            trace.iter().map(|t| ("X-Omega-Trace", t.as_str())).collect();
        http(addr, "POST", "/scan", &headers, body)
    };
    let (status, resp, retry_after) = once()?;
    if status != 429 {
        return Ok((status, resp));
    }
    RETRIES_HONORED.fetch_add(1, Ordering::Relaxed);
    let backoff_ms = retry_after.unwrap_or(1).saturating_mul(1000).min(MAX_RETRY_BACKOFF_MS);
    std::thread::sleep(Duration::from_millis(backoff_ms));
    let (status, resp, _) = once()?;
    if status < 400 {
        RETRIES_RECOVERED.fetch_add(1, Ordering::Relaxed);
    }
    Ok((status, resp))
}

/// Submits payload `i` and polls the job to a terminal state.
fn fill_one(addr: SocketAddr, i: usize, traced: bool) -> Result<(), String> {
    let (status, body) = post_scan(addr, &scan_body(i), traced)?;
    if status != 202 {
        return Err(format!("fill expected 202, got {status}: {body}"));
    }
    let parsed = omega_obs::parse_json(&body).map_err(|e| e.to_string())?;
    let id = parsed.get("job").and_then(JsonValue::as_str).ok_or(format!("no job id in {body}"))?;
    loop {
        let (job, body) = get_json(addr, &format!("/jobs/{id}"))?;
        match job.get("state").and_then(JsonValue::as_str) {
            Some("done") => return Ok(()),
            Some("queued" | "running") => std::thread::sleep(Duration::from_millis(2)),
            other => return Err(format!("job {id} reached {other:?}: {body}")),
        }
    }
}

/// One replay request; must be an inline cache hit (200, state done).
fn replay_one(addr: SocketAddr, i: usize, traced: bool) -> Result<(), String> {
    let (status, body) = post_scan(addr, &scan_body(i), traced)?;
    if status != 200 {
        return Err(format!("replay expected 200 (cache hit), got {status}: {body}"));
    }
    Ok(())
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

/// One load phase: each successful request's latency and the sample it
/// returned, the failed requests' errors, and the phase's wall time.
struct Phase<T> {
    samples: Vec<(Duration, T)>,
    errors: Vec<String>,
    wall: Duration,
}

/// Runs `work(thread, request)` `per_thread` times on each of `threads`
/// client threads, timing every request.
fn run_phase<T: Send>(
    threads: usize,
    per_thread: usize,
    work: impl Fn(usize, usize) -> Result<T, String> + Sync,
) -> Phase<T> {
    let t0 = Instant::now();
    let mut phase = Phase { samples: Vec::new(), errors: Vec::new(), wall: Duration::ZERO };
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let (mut samples, mut errors) = (Vec::new(), Vec::new());
                    for r in 0..per_thread {
                        let start = Instant::now();
                        match work(t, r) {
                            Ok(sample) => samples.push((start.elapsed(), sample)),
                            Err(e) => errors.push(e),
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((samples, errors)) => {
                    phase.samples.extend(samples);
                    phase.errors.extend(errors);
                }
                Err(_) => phase.errors.push("client thread panicked".to_string()),
            }
        }
    });
    phase.wall = t0.elapsed();
    phase
}

impl<T> Phase<T> {
    /// Sorted latencies of the samples `keep` selects.
    fn latencies_ns(&self, keep: impl Fn(&T) -> bool) -> Vec<u64> {
        let mut ns: Vec<u64> = self
            .samples
            .iter()
            .filter(|(_, s)| keep(s))
            .map(|(d, _)| d.as_nanos() as u64)
            .collect();
        ns.sort_unstable();
        ns
    }

    fn json(&self, name: &str) -> String {
        let ns = self.latencies_ns(|_| true);
        let requests = self.samples.len() + self.errors.len();
        let secs = self.wall.as_secs_f64();
        JsonObject::new()
            .string("phase", name)
            .u64("requests", requests as u64)
            .u64("errors", self.errors.len() as u64)
            .u64("p50_ns", percentile(&ns, 50.0))
            .u64("p95_ns", percentile(&ns, 95.0))
            .u64("p99_ns", percentile(&ns, 99.0))
            .f64("wall_seconds", secs)
            .f64("throughput_rps", if secs > 0.0 { requests as f64 / secs } else { 0.0 })
            .finish()
    }
}

/// A paired A/B replay: every request's latency tagged with its arm
/// (`true` = B), and each arm's record name, median latency and
/// throughput.
struct Paired {
    replay: Phase<bool>,
    arms: [&'static str; 2],
    p50_ns: [u64; 2],
    rps: [f64; 2],
    max_overhead: f64,
}

/// Replays cache hits from [`CLIENTS`] threads. Inside each client,
/// requests alternate between the arms in A-B-B-A order, each pair
/// asking for the same payload, and each client starts one step further
/// into that cycle. So the arms share the wall-clock window, the work
/// mix and first place within a pair, and at any instant about half the
/// requests in flight are on each arm.
fn run_paired(
    arms: [&'static str; 2],
    max_overhead: f64,
    a: impl Fn(usize) -> Result<(), String> + Sync,
    b: impl Fn(usize) -> Result<(), String> + Sync,
) -> Paired {
    let replay = run_phase(CLIENTS, PAIRED_REQUESTS_PER_CLIENT, |t, r| {
        let k = r + t;
        let i = (t + k / 2) % DISTINCT;
        let arm_b = (k % 2 == 1) != (k / 2 % 2 == 1);
        (if arm_b { b(i) } else { a(i) }).map(|()| arm_b)
    });
    let p50_ns = [false, true].map(|b| percentile(&replay.latencies_ns(|&arm_b| arm_b == b), 50.0));
    // At fixed concurrency, throughput is inverse latency.
    let rps = p50_ns.map(|ns| CLIENTS as f64 / (ns as f64 / 1e9).max(1e-9));
    Paired { replay, arms, p50_ns, rps, max_overhead }
}

impl Paired {
    /// B's throughput shortfall against A (0 when B is at least as fast).
    fn overhead(&self) -> f64 {
        (1.0 - self.rps[1] / self.rps[0]).max(0.0)
    }

    /// Adds `<arm>_p50_ns`, `<arm>_rps`, `overhead_fraction` and
    /// `max_overhead_fraction` to `obj`.
    fn fields(&self, obj: JsonObject) -> JsonObject {
        let [a, b] = self.arms;
        obj.u64(&format!("{a}_p50_ns"), self.p50_ns[0])
            .u64(&format!("{b}_p50_ns"), self.p50_ns[1])
            .f64(&format!("{a}_rps"), self.rps[0])
            .f64(&format!("{b}_rps"), self.rps[1])
            .f64("overhead_fraction", self.overhead())
            .f64("max_overhead_fraction", self.max_overhead)
    }

    fn gate(&self) -> (bool, String) {
        let [a, b] = self.arms;
        (
            self.rps[1] >= (1.0 - self.max_overhead) * self.rps[0],
            format!(
                "{b} {:.0} rps vs {a} {:.0} rps: overhead {:.1}% (cap {:.0}%)",
                self.rps[1],
                self.rps[0],
                self.overhead() * 100.0,
                self.max_overhead * 100.0
            ),
        )
    }
}

/// An in-process `omega-serve` daemon on an ephemeral port, shut down
/// when dropped so every exit path stops it.
struct Daemon {
    addr: SocketAddr,
    handle: Option<ServeHandle>,
}

impl Daemon {
    fn boot(config: ServeConfig) -> Result<Daemon, String> {
        let handle = omega_serve::start(ServeConfig { addr: "127.0.0.1:0".to_string(), ..config })
            .map_err(|e| format!("cannot boot daemon: {e}"))?;
        Ok(Daemon { addr: handle.addr(), handle: Some(handle) })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// What a scenario hands back: its record (`main` appends the fields
/// every scenario shares), the request errors it saw, and its gates as
/// (passed, what was checked).
struct Run {
    record: JsonObject,
    errors: Vec<String>,
    gates: Vec<(bool, String)>,
}

fn stat_counter(stats: &JsonValue, name: &str) -> u64 {
    stats.get("counters").and_then(|c| c.get(name)).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Rebuilds a `GET /traces/<id>` body as a [`CompletedTrace`], so the
/// daemon's own [`CompletedTrace::well_formed`] audits it. Span names
/// are not carried over (the audit never reads them); a span is
/// modelled unless its kind is `wall`.
fn completed_trace(v: &JsonValue) -> Result<CompletedTrace, String> {
    let span = |s: &JsonValue| -> Result<SpanRecord, String> {
        let field =
            |k: &str| s.get(k).and_then(JsonValue::as_u64).ok_or(format!("span has no {k}"));
        Ok(SpanRecord {
            id: field("id")?,
            parent: field("parent")?,
            name: "",
            start_ns: field("start_ns")?,
            dur_ns: field("dur_ns")?,
            modelled: s.get("kind").and_then(JsonValue::as_str) != Some("wall"),
        })
    };
    let hex = v.get("trace").and_then(JsonValue::as_str).ok_or("trace has no id")?;
    let spans = v.get("spans").and_then(JsonValue::as_array).ok_or("trace has no spans array")?;
    Ok(CompletedTrace {
        trace_id: u64::from_str_radix(hex, 16).map_err(|e| format!("trace id {hex}: {e}"))?,
        root: span(v.get("root").ok_or("trace has no root span")?)?,
        spans: spans.iter().map(span).collect::<Result<_, _>>()?,
        attrs: Vec::new(),
    })
}

/// Pulls every recorded trace back through `/traces/<id>` and checks
/// each tree, then parses the Prometheus exposition. Returns (verified
/// trace count, exposition sample count).
fn audit_telemetry(addr: SocketAddr) -> Result<(usize, usize), String> {
    let (index, _) = get_json(addr, "/traces")?;
    let traces =
        index.get("traces").and_then(JsonValue::as_array).ok_or("/traces has no traces array")?;
    for summary in traces {
        let hex = summary.get("trace").and_then(JsonValue::as_str).ok_or("summary has no id")?;
        let (tree, _) = get_json(addr, &format!("/traces/{hex}"))?;
        completed_trace(&tree)?.well_formed().map_err(|e| format!("trace {hex} malformed: {e}"))?;
    }
    let (status, metrics, _) = http(addr, "GET", "/metrics", &[], "")?;
    if status != 200 {
        return Err(format!("/metrics returned {status}"));
    }
    let samples = omega_obs::parse_prometheus(&metrics)
        .map_err(|e| format!("/metrics does not parse: {e}"))?;
    Ok((traces.len(), samples))
}

/// `serve`: one daemon, traced fill, paired untraced/traced replay, then
/// the cache counters and the telemetry plane.
fn serve() -> Result<Run, String> {
    let daemon = Daemon::boot(ServeConfig {
        queue_capacity: DISTINCT.max(CLIENTS) * 2,
        trace_capacity: 4096,
        ..Default::default()
    })?;
    let addr = daemon.addr;
    let (health, _) = get_json(addr, "/healthz")?;
    let uptime = health.get("uptime_secs").and_then(JsonValue::as_u64);

    println!("loadgen: daemon on {addr}, traced fill of {DISTINCT} payloads");
    let fill = run_phase(DISTINCT, 1, |t, _| fill_one(addr, t, true));
    let paired = run_paired(
        ["untraced", "traced"],
        MAX_TRACING_OVERHEAD,
        |i| replay_one(addr, i, false),
        |i| replay_one(addr, i, true),
    );

    let (stats, _) = get_json(addr, "/stats")?;
    let hits = stat_counter(&stats, "serve.cache_hits");
    let misses = stat_counter(&stats, "serve.cache_misses");
    let rejected = stat_counter(&stats, "serve.rejected");
    let expected_hits = (CLIENTS * PAIRED_REQUESTS_PER_CLIENT) as u64;
    let (verified, samples) = audit_telemetry(addr)?;

    let record = JsonObject::new()
        .string("bench", "serve_loadgen")
        .u64("clients", CLIENTS as u64)
        .u64("distinct_payloads", DISTINCT as u64)
        .u64("requests_per_client", PAIRED_REQUESTS_PER_CLIENT as u64)
        .raw("fill", &fill.json("fill"))
        .raw("replay", &paired.replay.json("replay"))
        .raw(
            "cache",
            &JsonObject::new()
                .u64("hits", hits)
                .u64("misses", misses)
                .u64("expected_hits", expected_hits)
                .u64("expected_misses", DISTINCT as u64)
                .finish(),
        )
        .u64("rejected", rejected)
        .raw(
            "trace_audit",
            &paired
                .fields(
                    JsonObject::new()
                        .u64("verified_traces", verified as u64)
                        .u64("metrics_samples", samples as u64)
                        .u64("mixed_rounds", 1),
                )
                .finish(),
        );
    let gates = vec![
        (uptime.is_some(), format!("/healthz uptime_secs {uptime:?}")),
        (
            misses == DISTINCT as u64 && hits == expected_hits,
            format!("cache {misses}/{DISTINCT} misses, {hits}/{expected_hits} hits"),
        ),
        (rejected == 0, format!("{rejected} rejections with an uncontended queue")),
        (
            verified >= MIN_AUDITED_TRACES,
            format!("{verified} span trees well-formed (want >= {MIN_AUDITED_TRACES})"),
        ),
        (samples >= 1, format!("/metrics parses with {samples} samples")),
        paired.gate(),
    ];
    let errors = fill.errors.into_iter().chain(paired.replay.errors).collect();
    Ok(Run { record, errors, gates })
}

/// `persist`: the paired persistence audit and warm restart, on a
/// scratch data dir that is removed however the audit ends.
fn persist() -> Result<Run, String> {
    let data_dir =
        std::env::temp_dir().join(format!("omega-loadgen-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let run = persist_audit(&data_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
    run
}

fn persist_audit(data_dir: &Path) -> Result<Run, String> {
    let boot = |dir: Option<&Path>| {
        Daemon::boot(ServeConfig {
            queue_capacity: DISTINCT.max(CLIENTS) * 2,
            data_dir: dir.map(Path::to_path_buf),
            ..Default::default()
        })
    };
    let persist = boot(Some(data_dir))?;
    let plain = boot(None)?;
    let (persist_addr, plain_addr) = (persist.addr, plain.addr);

    println!("loadgen: persist audit — fill {DISTINCT} payloads on both daemons");
    let fill_persist = run_phase(DISTINCT, 1, |t, _| fill_one(persist_addr, t, false));
    let fill_plain = run_phase(DISTINCT, 1, |t, _| fill_one(plain_addr, t, false));
    let paired = run_paired(
        ["no_persist", "persist"],
        MAX_PERSIST_OVERHEAD,
        |i| replay_one(plain_addr, i, false),
        |i| replay_one(persist_addr, i, false),
    );

    // Restart the persist daemon on the same data dir: every payload
    // must come back as an inline hit without a detector run.
    drop(persist);
    let reborn = boot(Some(data_dir))?;
    let warm = run_phase(1, DISTINCT, |_, r| replay_one(reborn.addr, r, false));
    let warm_hits = warm.samples.len();

    let record = paired
        .fields(
            JsonObject::new()
                .string("bench", "serve_loadgen_persist_audit")
                .u64("clients", CLIENTS as u64)
                .u64("distinct_payloads", DISTINCT as u64)
                .u64("rounds", 1)
                .u64("requests_per_client", PAIRED_REQUESTS_PER_CLIENT as u64),
        )
        .u64("warm_restart_hits", warm_hits as u64);
    let gates = vec![
        paired.gate(),
        (warm_hits == DISTINCT, format!("warm restart served {warm_hits}/{DISTINCT} inline hits")),
    ];
    let errors =
        [fill_persist.errors, fill_plain.errors, paired.replay.errors, warm.errors].concat();
    Ok(Run { record, errors, gates })
}

/// One coordinator round-trip: must come back 200/done; returns the
/// response's `cluster` record (shard counts, cache provenance, modelled
/// scatter times).
fn cluster_scan_one(addr: SocketAddr, i: usize, bypass: bool) -> Result<JsonValue, String> {
    let (status, body) = post_scan(addr, &cluster_scan_body(i, bypass), false)?;
    if status != 200 {
        return Err(format!("cluster scan expected 200, got {status}: {body}"));
    }
    let parsed = omega_obs::parse_json(&body).map_err(|e| e.to_string())?;
    if parsed.get("state").and_then(JsonValue::as_str) != Some("done") {
        return Err(format!("cluster scan not done: {body}"));
    }
    parsed.get("cluster").cloned().ok_or("response has no cluster record".to_string())
}

/// Sums `key` over the `cluster` records a phase collected.
fn total(phase: &Phase<JsonValue>, key: &str) -> f64 {
    phase.samples.iter().filter_map(|(_, c)| c.get(key).and_then(JsonValue::as_f64)).sum()
}

/// `cluster`: fill through the coordinator, replay cache-bypassing
/// traffic through it and through a one-worker baseline, and re-request
/// every fill payload warm for the affinity evidence.
fn cluster() -> Result<Run, String> {
    let boot_worker = |id: String| {
        Daemon::boot(ServeConfig {
            queue_capacity: (CLIENTS * CLUSTER_WORKERS * 4).max(64),
            worker_id: id,
            ..Default::default()
        })
    };
    let boot_coordinator = |workers: &[Daemon]| {
        omega_cluster::start(omega_cluster::ClusterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: workers.iter().map(|w| w.addr.to_string()).collect(),
            ..Default::default()
        })
        .map_err(|e| format!("cannot boot coordinator: {e}"))
    };

    let workers: Vec<Daemon> =
        (0..CLUSTER_WORKERS).map(|i| boot_worker(format!("w{i}"))).collect::<Result<_, _>>()?;
    let coord = boot_coordinator(&workers)?;
    let coord_addr = coord.addr();
    let (health, _) = get_json(coord_addr, "/healthz")?;
    let healthy = health.get("workers").and_then(JsonValue::as_array).map_or(0, |ws| {
        ws.iter().filter(|w| matches!(w.get("healthy"), Some(JsonValue::Bool(true)))).count()
    });

    println!("loadgen: coordinator on {coord_addr} over {CLUSTER_WORKERS} workers");
    let fill = run_phase(DISTINCT, 1, |t, _| cluster_scan_one(coord_addr, t, false));
    let per_client = CLUSTER_REQUESTS_PER_CLIENT;
    let bypass_replay = |addr| {
        run_phase(CLIENTS, per_client, move |t, r| {
            cluster_scan_one(addr, (t * per_client + r) % DISTINCT, true)
        })
    };
    let replay = bypass_replay(coord_addr);
    // Affinity evidence: repeat every fill payload without bypass — the
    // ring routes each shard back to the worker whose cache holds it.
    let warm = run_phase(1, DISTINCT, |_, r| cluster_scan_one(coord_addr, r, false));

    // One-worker baseline: a fresh worker behind its own coordinator
    // runs the same bypass replay; its makespan is the modelled
    // single-node time for the identical request stream.
    let solo_worker = [boot_worker("solo".to_string())?];
    let solo_coord = boot_coordinator(&solo_worker)?;
    let solo = bypass_replay(solo_coord.addr());
    coord.shutdown();
    solo_coord.shutdown();

    let (makespan, sum) = (total(&replay, "makespan_seconds"), total(&replay, "sum_seconds"));
    let solo_makespan = total(&solo, "makespan_seconds");
    let (cached, shards) = (total(&warm, "cached_shards") as u64, total(&warm, "shards") as u64);
    let per_makespan = |x: f64| if makespan > 0.0 { x / makespan } else { 0.0 };
    let speedup = per_makespan(solo_makespan);
    let efficiency = per_makespan(sum / CLUSTER_WORKERS as f64);

    let record = JsonObject::new()
        .string("bench", "serve_loadgen_cluster")
        .u64("workers", CLUSTER_WORKERS as u64)
        .u64("clients", CLIENTS as u64)
        .u64("distinct_payloads", DISTINCT as u64)
        .u64("requests_per_client", per_client as u64)
        .raw("fill", &fill.json("fill"))
        .raw("replay", &replay.json("replay"))
        .raw("solo_replay", &solo.json("solo_replay"))
        .raw(
            "cluster",
            &JsonObject::new()
                .f64("makespan_seconds", makespan)
                .f64("sum_seconds", sum)
                .f64("parallel_efficiency", efficiency)
                .finish(),
        )
        .raw("solo", &JsonObject::new().f64("makespan_seconds", solo_makespan).finish())
        .f64("speedup_vs_one_worker", speedup)
        .f64("min_speedup", MIN_CLUSTER_SPEEDUP)
        .raw(
            "affinity",
            &JsonObject::new()
                .u64("warm_requests", DISTINCT as u64)
                .u64("cached_shards", cached)
                .u64("total_shards", shards)
                .finish(),
        );
    let gates = vec![
        (
            healthy == CLUSTER_WORKERS,
            format!("coordinator sees {healthy}/{CLUSTER_WORKERS} healthy workers"),
        ),
        (
            speedup >= MIN_CLUSTER_SPEEDUP,
            format!(
                "{speedup:.2}x modelled speedup over one worker (floor {MIN_CLUSTER_SPEEDUP:.1}x)"
            ),
        ),
        (shards > 0 && cached == shards, format!("warm affinity {cached}/{shards} shards cached")),
    ];
    let errors = [fill.errors, replay.errors, warm.errors, solo.errors].concat();
    Ok(Run { record, errors, gates })
}

/// Runs `scenario`, writes its record to `out_path`, and checks every
/// gate (zero request errors first).
fn run(scenario: &str, out_path: &str) -> Result<(), String> {
    let run = match scenario {
        "serve" => serve(),
        "persist" => persist(),
        "cluster" => cluster(),
        other => Err(format!("unknown scenario {other:?}")),
    }?;
    let requests = REQUESTS_DONE.load(Ordering::Relaxed);
    let connects = CONNECTS_OPENED.load(Ordering::Relaxed);
    let reuse = if requests > 0 { 1.0 - (connects as f64 / requests as f64).min(1.0) } else { 0.0 };
    let record = run
        .record
        .raw(
            "connection_reuse",
            &JsonObject::new()
                .u64("requests", requests)
                .u64("connections", connects)
                .f64("reuse_fraction", reuse)
                .finish(),
        )
        .raw(
            "retries",
            &JsonObject::new()
                .u64("honored_429", RETRIES_HONORED.load(Ordering::Relaxed))
                .u64("recovered", RETRIES_RECOVERED.load(Ordering::Relaxed))
                .u64("max_backoff_ms", MAX_RETRY_BACKOFF_MS)
                .finish(),
        )
        .u64("errors", run.errors.len() as u64)
        .finish();
    std::fs::write(out_path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path}");

    for e in run.errors.iter().take(5) {
        eprintln!("loadgen: error: {e}");
    }
    let errors = (run.errors.is_empty(), format!("{} request errors", run.errors.len()));
    let mut failed = 0;
    for (passed, what) in std::iter::once(errors).chain(run.gates) {
        println!("loadgen: {} {what}", if passed { "ok  " } else { "FAIL" });
        failed += usize::from(!passed);
    }
    if failed > 0 {
        return Err(format!("{scenario}: {failed} gate(s) failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [scenario] => run(scenario, &format!("BENCH_{scenario}.json")),
        [scenario, out_path] => run(scenario, out_path),
        _ => Err("usage: loadgen serve|persist|cluster [OUT.json]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, dur_ns: u64, modelled: bool) -> SpanRecord {
        SpanRecord { id, parent, name: "s", start_ns: 0, dur_ns, modelled }
    }

    #[test]
    fn rebuilt_traces_keep_their_well_formed_verdict() {
        let cases = [
            // A modelled child may outlast its wall parent.
            (
                "well-formed",
                vec![span(2, 1, 60, false), span(3, 2, 50, false), span(4, 3, 500, true)],
            ),
            ("orphan", vec![span(2, 99, 1, false)]),
            ("wall overflow", vec![span(2, 1, 80, false), span(3, 1, 40, false)]),
            ("duplicate id", vec![span(2, 1, 1, false), span(2, 1, 1, false)]),
            ("parent cycle", vec![span(2, 3, 1, false), span(3, 2, 1, false)]),
        ];
        for (kind, spans) in cases {
            let trace = CompletedTrace {
                trace_id: 0xfeed_0000_0000_0001,
                root: SpanRecord { name: "serve.request", ..span(1, 0, 100, false) },
                spans,
                attrs: vec![("backend".to_string(), "gpu".to_string())],
            };
            let body = omega_obs::parse_json(&trace.json()).expect("trace json parses");
            let rebuilt = completed_trace(&body).expect("trace body converts");
            assert_eq!(rebuilt.trace_id, trace.trace_id, "{kind}");
            assert_eq!(rebuilt.well_formed(), trace.well_formed(), "{kind}");
            assert_eq!(trace.well_formed().is_ok(), kind == "well-formed", "{kind}");
        }
    }
}
