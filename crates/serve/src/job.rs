//! Scan jobs: request parsing/validation, the job table, and result
//! serialisation.
//!
//! A `POST /scan` body is parsed into a [`ScanRequest`] *at admission*:
//! the payload is decoded into alignments and the parameters validated
//! before the job ever enters a queue, so malformed input costs one
//! parse, not a detector slot. The functional part of a result is
//! serialised by [`result_json`] into deterministic bytes — two runs of
//! the same input produce identical JSON, which is what makes the
//! content-addressed cache sound (and lets tests assert bit-identity
//! against a direct [`omega_accel::BatchDetector`] run). Timing is kept
//! in a separate, non-deterministic member.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use omega_accel::{AutoLane, Backend, BatchOutcome, CostPredictor, ShardSpec};
use omega_core::ScanParams;
use omega_fpga_sim::FpgaDevice;
use omega_genome::ms::{read_ms, MsReadOptions};
use omega_genome::sites::read_sites;
use omega_genome::vcf::{read_vcf_with, VcfReadOptions};
use omega_genome::{fasta, Alignment};
use omega_gpu_sim::{GpuDevice, OverlapMode};
use omega_obs::{JsonObject, JsonValue};

use crate::digest::Fnv64;

/// Default region length for `ms` coordinate scaling when the request
/// does not carry one (matches the CLI default).
pub const DEFAULT_MS_LENGTH: u64 = 100_000;

/// Which worker lane executes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Host CPU lane.
    Cpu,
    /// Simulated-GPU lane.
    Gpu,
    /// Simulated-FPGA lane.
    Fpga,
}

impl BackendKind {
    /// All lanes, in worker-spawn order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Cpu, BackendKind::Gpu, BackendKind::Fpga];

    /// Lane index (stable: cpu=0, gpu=1, fpga=2).
    pub fn index(self) -> usize {
        match self {
            BackendKind::Cpu => 0,
            BackendKind::Gpu => 1,
            BackendKind::Fpga => 2,
        }
    }

    /// The lane named `name` (`auto` names no lane).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        Self::ALL.into_iter().find(|kind| kind.as_str() == name)
    }

    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Gpu => "gpu",
            BackendKind::Fpga => "fpga",
        }
    }
}

/// Why a `POST /scan` body was rejected (always a 4xx, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The body was not valid JSON.
    Json(String),
    /// A required member was absent.
    MissingField(&'static str),
    /// A member had the wrong type or an out-of-range value.
    BadField(&'static str, String),
    /// Unknown `format` / `backend` / `device` selector.
    UnknownSelector(&'static str, String),
    /// The payload failed to parse as the declared format.
    Payload(String),
    /// The scan parameters failed validation.
    InvalidParams(String),
    /// The payload parsed but contains no replicates.
    EmptyInput,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "request body is not valid JSON: {e}"),
            RequestError::MissingField(name) => write!(f, "missing required field {name:?}"),
            RequestError::BadField(name, why) => write!(f, "bad field {name:?}: {why}"),
            RequestError::UnknownSelector(what, got) => write!(f, "unknown {what} {got:?}"),
            RequestError::Payload(e) => write!(f, "payload does not parse: {e}"),
            RequestError::InvalidParams(e) => write!(f, "{e}"),
            RequestError::EmptyInput => write!(f, "payload contains no replicates"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A fully validated scan job, ready to queue.
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// Lane selector.
    pub kind: BackendKind,
    /// Device selector within the lane ("" = the lane default).
    pub device: String,
    /// Backend label as reported in results (e.g. "GPU (Tesla K80)").
    pub backend_label: String,
    /// Validated scan parameters.
    pub params: ScanParams,
    /// Transfer/compute overlap schedule.
    pub overlap: OverlapMode,
    /// Parsed replicates (one for FASTA/VCF, one-or-more for ms).
    pub alignments: Vec<Alignment>,
    /// FNV-1a digest over (format, region length, payload bytes).
    pub payload_digest: u64,
    /// Optional per-request deadline, relative to submission.
    pub deadline: Option<std::time::Duration>,
    /// Whether `kind` was chosen by the `backend=auto` cost predictor
    /// rather than the client.
    pub auto_routed: bool,
    /// The predictor's runtime estimate for the chosen lane (seconds of
    /// modelled/measured LD+ω); set only for auto-routed jobs, compared
    /// against the actual stage time after the run.
    pub predicted_seconds: Option<f64>,
    /// Cluster shard geometry: when set, the job evaluates only this
    /// slice of the *global* grid, with positions recomputed from the
    /// global first/last-SNP coordinates (bit-identical to the
    /// single-node plan). Shard requests carry exactly one replicate.
    pub shard: Option<ShardSpec>,
    /// `"cache":"bypass"` — skip the result-cache lookup so the scan
    /// recomputes even on a warm cache (the cluster loadgen uses this to
    /// measure real scatter-gather compute throughput).
    pub cache_bypass: bool,
}

/// Builds the concrete backend for a validated request.
pub fn make_backend(kind: BackendKind, device: &str) -> Result<Backend, RequestError> {
    match kind {
        BackendKind::Cpu => Ok(Backend::Cpu),
        BackendKind::Gpu => Ok(Backend::Gpu(match device {
            "" | "k80" => GpuDevice::tesla_k80(),
            "radeon" => GpuDevice::radeon_hd8750m(),
            other => return Err(RequestError::UnknownSelector("GPU device", other.to_string())),
        })),
        BackendKind::Fpga => Ok(Backend::Fpga(match device {
            "" | "alveo" => FpgaDevice::alveo_u200(),
            "zcu102" => FpgaDevice::zcu102(),
            other => return Err(RequestError::UnknownSelector("FPGA device", other.to_string())),
        })),
    }
}

fn get_u64(v: &JsonValue, field: &'static str) -> Result<Option<u64>, RequestError> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(m) => m
            .as_u64()
            .map(Some)
            .ok_or_else(|| RequestError::BadField(field, "expected a non-negative integer".into())),
    }
}

fn parse_params(v: &JsonValue) -> Result<ScanParams, RequestError> {
    let mut params = ScanParams { threads: 1, ..ScanParams::default() };
    if let Some(p) = v.get("params") {
        if p.as_object().is_none() {
            return Err(RequestError::BadField("params", "expected an object".into()));
        }
        if let Some(grid) = get_u64(p, "grid")? {
            params.grid = grid as usize;
        }
        if let Some(w) = get_u64(p, "min_win")? {
            params.min_win = w;
        }
        if let Some(w) = get_u64(p, "max_win")? {
            params.max_win = w;
        }
        if let Some(n) = get_u64(p, "min_snps")? {
            params.min_snps_per_side = n as usize;
        }
    }
    params.validate().map_err(|e| RequestError::InvalidParams(e.to_string()))?;
    Ok(params)
}

/// Parses and validates a `POST /scan` body.
pub fn parse_scan_request(body: &str) -> Result<ScanRequest, RequestError> {
    let v = omega_obs::parse_json(body).map_err(|e| RequestError::Json(e.to_string()))?;
    if v.as_object().is_none() {
        return Err(RequestError::Json("top-level value must be an object".into()));
    }

    let format = v
        .get("format")
        .ok_or(RequestError::MissingField("format"))?
        .as_str()
        .ok_or_else(|| RequestError::BadField("format", "expected a string".into()))?
        .to_string();
    let payload = v
        .get("payload")
        .ok_or(RequestError::MissingField("payload"))?
        .as_str()
        .ok_or_else(|| RequestError::BadField("payload", "expected a string".into()))?;

    let length = get_u64(&v, "length")?;
    let params = parse_params(&v)?;

    // The lane selector validates before the payload is parsed (so a bad
    // selector is reported even alongside a bad payload); `auto` defers
    // the actual choice until the alignments exist to predict over.
    let explicit = match v.get("backend").and_then(JsonValue::as_str).unwrap_or("cpu") {
        "auto" => None,
        name => Some(
            BackendKind::from_name(name)
                .ok_or_else(|| RequestError::UnknownSelector("backend", name.to_string()))?,
        ),
    };
    let device = v.get("device").and_then(JsonValue::as_str).unwrap_or("").to_string();
    if explicit.is_none() && !device.is_empty() {
        return Err(RequestError::BadField(
            "device",
            "cannot be combined with backend \"auto\" (the router picks the lane)".into(),
        ));
    }
    // Explicit device selectors still fail fast, before payload parsing.
    if let Some(kind) = explicit {
        make_backend(kind, &device)?;
    }

    let overlap = match v.get("overlap").and_then(JsonValue::as_str).unwrap_or("off") {
        "on" => OverlapMode::DoubleBuffered,
        "off" => OverlapMode::Serialized,
        other => return Err(RequestError::UnknownSelector("overlap mode", other.to_string())),
    };

    let deadline = get_u64(&v, "deadline_ms")?.map(std::time::Duration::from_millis);

    let cache_bypass = match v.get("cache").and_then(JsonValue::as_str).unwrap_or("use") {
        "use" => false,
        "bypass" => true,
        other => return Err(RequestError::UnknownSelector("cache mode", other.to_string())),
    };

    let shard = match v.get("shard") {
        None | Some(JsonValue::Null) => None,
        Some(s) => {
            if s.as_object().is_none() {
                return Err(RequestError::BadField("shard", "expected an object".into()));
            }
            let field = |name: &'static str| -> Result<u64, RequestError> {
                get_u64(s, name)?.ok_or(RequestError::MissingField(name))
            };
            let spec = ShardSpec {
                first_bp: field("first_bp")?,
                last_bp: field("last_bp")?,
                grid: field("grid")? as usize,
                lo: field("lo")? as usize,
                hi: field("hi")? as usize,
            };
            if !spec.is_valid() {
                return Err(RequestError::BadField(
                    "shard",
                    "requires first_bp <= last_bp and lo < hi <= grid".into(),
                ));
            }
            if spec.grid != params.grid {
                return Err(RequestError::BadField(
                    "shard",
                    "shard grid must equal params.grid (the global grid)".into(),
                ));
            }
            Some(spec)
        }
    };

    let alignments: Vec<Alignment> = match format.as_str() {
        "ms" => {
            let opts = MsReadOptions { region_len: length.unwrap_or(DEFAULT_MS_LENGTH) };
            read_ms(payload.as_bytes(), opts).map_err(|e| RequestError::Payload(e.to_string()))?
        }
        "fasta" => {
            let a = fasta::read_fasta(payload.as_bytes())
                .map_err(|e| RequestError::Payload(e.to_string()))?;
            let a = match length {
                Some(len) => {
                    a.with_region_len(len).map_err(|e| RequestError::Payload(e.to_string()))?
                }
                None => a,
            };
            vec![a]
        }
        "vcf" => {
            let out = read_vcf_with(payload.as_bytes(), VcfReadOptions { region_len: length })
                .map_err(|e| RequestError::Payload(e.to_string()))?;
            vec![out.alignment]
        }
        // Exact-coordinate shard payloads: positions are literal u64 bp,
        // so the worker sees byte-for-byte the sites the coordinator
        // sliced (no fractional rescaling).
        "sites" => {
            read_sites(payload.as_bytes()).map_err(|e| RequestError::Payload(e.to_string()))?
        }
        other => return Err(RequestError::UnknownSelector("format", other.to_string())),
    };
    if alignments.is_empty() || alignments.iter().all(|a| a.n_sites() == 0) {
        return Err(RequestError::EmptyInput);
    }
    if shard.is_some() && alignments.len() != 1 {
        return Err(RequestError::BadField(
            "shard",
            format!("shard requests carry exactly one replicate, got {}", alignments.len()),
        ));
    }

    // Auto routing: price the job on every lane and take the predicted
    // fastest. Resolving the label *here* means an auto job's cache key
    // and result bytes are exactly those of the equivalent explicit
    // request — routing is invisible downstream of admission.
    let (kind, auto_routed, predicted_seconds) = match explicit {
        Some(kind) => (kind, false, None),
        None => {
            let t0 = Instant::now();
            let prediction = CostPredictor::global().predict_batch(&alignments, &params);
            omega_obs::histogram!("serve.auto_predict_ns").record(t0.elapsed().as_nanos() as u64);
            let lane = prediction.fastest();
            omega_obs::counter!("serve.auto_routed").inc();
            let kind = match lane {
                AutoLane::Cpu => {
                    omega_obs::counter!("serve.auto_routed.cpu").inc();
                    BackendKind::Cpu
                }
                AutoLane::Gpu => {
                    omega_obs::counter!("serve.auto_routed.gpu").inc();
                    BackendKind::Gpu
                }
                AutoLane::Fpga => {
                    omega_obs::counter!("serve.auto_routed.fpga").inc();
                    BackendKind::Fpga
                }
            };
            (kind, true, Some(prediction.seconds_for(lane)))
        }
    };
    let backend_label = make_backend(kind, &device)?.label();

    let mut digest = Fnv64::new();
    digest.update(format.as_bytes());
    digest.update(&length.unwrap_or(0).to_le_bytes());
    digest.update(payload.as_bytes());

    Ok(ScanRequest {
        kind,
        device,
        backend_label,
        params,
        overlap,
        alignments,
        payload_digest: digest.finish(),
        deadline,
        auto_routed,
        predicted_seconds,
        shard,
        cache_bypass,
    })
}

/// Opaque job identifier (`j<n>` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

impl JobId {
    /// Parses the wire form (`j<n>`).
    pub fn parse(text: &str) -> Option<JobId> {
        text.strip_prefix('j')?.parse().ok().map(JobId)
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its lane.
    Queued,
    /// A lane worker is scanning it.
    Running,
    /// Finished; result available.
    Done,
    /// Rejected by the detector or lane (message in the record).
    Failed,
    /// Its deadline passed before a lane picked it up.
    Expired,
}

impl JobState {
    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Expired => "expired",
        }
    }

    /// Whether this state ends the job's lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Expired)
    }
}

/// One job's mutable record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Current lifecycle state.
    pub state: JobState,
    /// Lane the job targets.
    pub kind: BackendKind,
    /// Whether the result came from the cache (detector untouched).
    pub cached: bool,
    /// Deterministic result JSON (shared with the cache).
    pub result: Option<Arc<String>>,
    /// Timing JSON (non-deterministic; absent for cached results).
    pub timing: Option<String>,
    /// Failure message, for `Failed`.
    pub error: Option<String>,
    /// Submission instant (latency accounting).
    pub submitted: Instant,
    /// When the job reached a terminal state (retention clock).
    pub finished: Option<Instant>,
    /// Trace id when the request opted into tracing (wire hex on the
    /// job body, joinable against `GET /traces/<id>`).
    pub trace_id: Option<u64>,
}

/// Outcome of a job-id lookup, distinguishing "never existed" from
/// "existed, since evicted" — the latter answers `410 Gone`, the former
/// `404 Not Found`.
#[derive(Debug, Clone)]
pub enum JobLookup {
    /// The record is live.
    Found(JobRecord),
    /// The id was allocated but its record has been evicted (bounded
    /// retention) or removed (admission-time rejection).
    Evicted,
    /// The id was never allocated by this daemon.
    Unknown,
}

/// Default cap on retained terminal job records.
pub const DEFAULT_RETAIN_TERMINAL: usize = 1024;
/// Default terminal-record age bound.
pub const DEFAULT_RETAIN_FOR: std::time::Duration = std::time::Duration::from_secs(600);

/// Age sweeps run at most once per this many terminal transitions, so
/// the common case stays an O(1) counter check.
const SWEEP_EVERY: usize = 64;

#[derive(Debug, Default)]
struct TableInner {
    map: HashMap<u64, JobRecord>,
    /// Terminal records currently retained (eviction trigger).
    terminal: usize,
    /// Terminal transitions since the last age sweep.
    since_sweep: usize,
}

/// The job table: id allocation plus state shared between the HTTP
/// handlers and the lane workers.
///
/// Terminal records are retained *bounded*: at most `retain_terminal`
/// of them, none older than `retain_for`. Without the bound, sustained
/// traffic grows the map (and daemon memory) without limit — each
/// completed job would pin its result JSON forever. Evicted ids answer
/// `410 Gone` rather than `404`, so clients can tell "polled too late"
/// from "never existed". Bounded retention is also what makes WAL
/// compaction possible: the log only needs to cover what the table
/// still remembers.
#[derive(Debug)]
pub struct JobTable {
    next: AtomicU64,
    inner: Mutex<TableInner>,
    retain_terminal: usize,
    retain_for: std::time::Duration,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable::with_retention(DEFAULT_RETAIN_TERMINAL, DEFAULT_RETAIN_FOR)
    }
}

impl JobTable {
    /// A table retaining at most `retain_terminal` terminal records,
    /// none older than `retain_for`.
    pub fn with_retention(retain_terminal: usize, retain_for: std::time::Duration) -> Self {
        JobTable {
            next: AtomicU64::new(0),
            inner: Mutex::new(TableInner::default()),
            retain_terminal: retain_terminal.max(1),
            retain_for,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn fresh_record(kind: BackendKind) -> JobRecord {
        JobRecord {
            state: JobState::Queued,
            kind,
            cached: false,
            result: None,
            timing: None,
            error: None,
            submitted: Instant::now(),
            finished: None,
            trace_id: None,
        }
    }

    /// Allocates a job in `Queued` state.
    pub fn create(&self, kind: BackendKind) -> JobId {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        self.lock().map.insert(id, Self::fresh_record(kind));
        omega_obs::counter!("serve.jobs").inc();
        JobId(id)
    }

    /// Re-creates a job under its pre-crash id (WAL recovery). The id
    /// allocator is bumped past `id` so fresh allocations never collide.
    pub fn create_with_id(&self, id: JobId, kind: BackendKind) {
        self.next.fetch_max(id.0, Ordering::Relaxed);
        self.lock().map.insert(id.0, Self::fresh_record(kind));
        omega_obs::counter!("serve.jobs").inc();
    }

    /// Marks ids `<= floor` as allocated (recovery: ids a pre-crash
    /// client may hold must not be re-issued, and must answer 410, not
    /// 404, when their records did not survive).
    pub fn reserve_through(&self, floor: u64) {
        self.next.fetch_max(floor, Ordering::Relaxed);
    }

    /// Allocates a job already completed from the cache.
    pub fn create_cached(&self, kind: BackendKind, result: Arc<String>) -> JobId {
        let id = self.create(kind);
        self.update(id, |r| {
            r.state = JobState::Done;
            r.cached = true;
            r.result = Some(result);
        });
        id
    }

    /// Snapshot of one record.
    pub fn get(&self, id: JobId) -> Option<JobRecord> {
        self.lock().map.get(&id.0).cloned()
    }

    /// Looks up `id`, distinguishing evicted from never-allocated.
    pub fn lookup(&self, id: JobId) -> JobLookup {
        if let Some(r) = self.lock().map.get(&id.0) {
            return JobLookup::Found(r.clone());
        }
        if id.0 >= 1 && id.0 <= self.next.load(Ordering::Relaxed) {
            JobLookup::Evicted
        } else {
            JobLookup::Unknown
        }
    }

    /// Applies `f` to the record, if present. A transition into a
    /// terminal state stamps the retention clock and (amortised)
    /// enforces the retention bounds.
    pub fn update(&self, id: JobId, f: impl FnOnce(&mut JobRecord)) {
        let mut inner = self.lock();
        let Some(r) = inner.map.get_mut(&id.0) else { return };
        let was_terminal = r.state.is_terminal();
        f(r);
        let now_terminal = r.state.is_terminal();
        if now_terminal && r.finished.is_none() {
            r.finished = Some(Instant::now());
        }
        if now_terminal && !was_terminal {
            inner.terminal += 1;
            inner.since_sweep += 1;
            if inner.terminal > self.retain_terminal || inner.since_sweep >= SWEEP_EVERY {
                self.enforce_retention(&mut inner);
            }
        }
    }

    /// Evicts terminal records beyond the count cap (oldest-finished
    /// first) and any older than the age bound.
    fn enforce_retention(&self, inner: &mut TableInner) {
        inner.since_sweep = 0;
        let now = Instant::now();
        let mut terminal: Vec<(u64, Instant)> = inner
            .map
            .iter()
            .filter(|(_, r)| r.state.is_terminal())
            .map(|(&id, r)| (id, r.finished.unwrap_or(r.submitted)))
            .collect();
        terminal.sort_by_key(|&(_, at)| at);
        let over_cap = terminal.len().saturating_sub(self.retain_terminal);
        let mut evicted = 0u64;
        for (i, &(id, finished)) in terminal.iter().enumerate() {
            let too_old = now.duration_since(finished) > self.retain_for;
            if i < over_cap || too_old {
                inner.map.remove(&id);
                evicted += 1;
            }
        }
        inner.terminal = terminal.len() - evicted as usize;
        if evicted > 0 {
            omega_obs::counter!("serve.jobs_evicted").add(evicted);
        }
    }

    /// Removes a record (used when admission control rejects a job that
    /// was provisionally created).
    pub fn remove(&self, id: JobId) {
        let mut inner = self.lock();
        if let Some(r) = inner.map.remove(&id.0) {
            if r.state.is_terminal() {
                inner.terminal = inner.terminal.saturating_sub(1);
            }
        }
    }

    /// Live records (the bounded-memory figure for `/stats`).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no records are live.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Snapshot of every live job's (id, state) — the shutdown drain
    /// report.
    pub fn states(&self) -> Vec<(JobId, JobState)> {
        let mut out: Vec<(JobId, JobState)> =
            self.lock().map.iter().map(|(&id, r)| (JobId(id), r.state)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

/// Per-backend end-to-end latency histogram (nanoseconds, from
/// submission to completion). The macro needs literal names, hence the
/// static match.
pub fn job_latency_histogram(kind: BackendKind) -> &'static omega_obs::Histogram {
    match kind {
        BackendKind::Cpu => omega_obs::histogram!("serve.latency.cpu"),
        BackendKind::Gpu => omega_obs::histogram!("serve.latency.gpu"),
        BackendKind::Fpga => omega_obs::histogram!("serve.latency.fpga"),
    }
}

/// Per-backend kernel-stage wall-time histogram (nanoseconds per
/// coalesced detector run). The exposition layer folds the backend
/// suffix into a `backend` label on one `omega_serve_kernel_ns` family.
pub fn kernel_stage_histogram(kind: BackendKind) -> &'static omega_obs::Histogram {
    match kind {
        BackendKind::Cpu => omega_obs::histogram!("serve.kernel_ns.cpu"),
        BackendKind::Gpu => omega_obs::histogram!("serve.kernel_ns.gpu"),
        BackendKind::Fpga => omega_obs::histogram!("serve.kernel_ns.fpga"),
    }
}

/// Serialises the functional part of a batch outcome deterministically:
/// identical inputs yield identical bytes (floats via shortest
/// round-trip, plus the raw bits for audit). Timing is deliberately
/// excluded — it lives in [`timing_json`].
pub fn result_json(outcome: &BatchOutcome) -> String {
    let mut reps = String::from("[");
    for (i, rep) in outcome.replicates.iter().enumerate() {
        if i > 0 {
            reps.push(',');
        }
        let mut positions = String::from("[");
        for (j, p) in rep.results.iter().enumerate() {
            if j > 0 {
                positions.push(',');
            }
            let pos = JsonObject::new()
                .u64("pos_bp", p.pos_bp)
                .f64("omega", f64::from(p.omega))
                .u64("omega_bits", u64::from(p.omega.to_bits()))
                .u64("left_bp", p.left_bp)
                .u64("right_bp", p.right_bp)
                .u64("n_combinations", p.n_combinations)
                .finish();
            positions.push_str(&pos);
        }
        positions.push(']');
        let stats = JsonObject::new()
            .u64("omega_evaluations", rep.stats.omega_evaluations)
            .u64("r2_pairs", rep.stats.r2_pairs)
            .u64("scorable_positions", rep.stats.scorable_positions as u64)
            .finish();
        let _ = write!(reps, "{{\"positions\":{positions},\"stats\":{stats}}}");
    }
    reps.push(']');
    JsonObject::new()
        .string("backend", &outcome.backend)
        .u64("n_replicates", outcome.n_replicates() as u64)
        .raw("replicates", &reps)
        .finish()
}

/// Serialises the (non-deterministic) timing of a batch outcome.
pub fn timing_json(outcome: &BatchOutcome) -> String {
    JsonObject::new()
        .f64("ld_seconds", outcome.ld_seconds)
        .f64("omega_seconds", outcome.omega_seconds)
        .f64("other_seconds", outcome.other_seconds)
        .f64("overlap_hidden_seconds", outcome.overlap_hidden_seconds)
        .f64("transfer_seconds", outcome.transfer_seconds)
        .f64("total_seconds", outcome.total_seconds())
        .finish()
}

/// Renders one job as the `GET /jobs/<id>` body.
pub fn job_json(id: JobId, record: &JobRecord) -> String {
    let mut obj = JsonObject::new()
        .string("job", &id.to_string())
        .string("state", record.state.as_str())
        .string("backend", record.kind.as_str())
        .raw("cached", if record.cached { "true" } else { "false" });
    if let Some(result) = &record.result {
        obj = obj.raw("result", result);
    }
    if let Some(timing) = &record.timing {
        obj = obj.raw("timing", timing);
    }
    if let Some(error) = &record.error {
        obj = obj.string("error", error);
    }
    if let Some(trace_id) = record.trace_id {
        obj = obj.string("trace", &format!("{trace_id:016x}"));
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms_payload() -> String {
        "ms 4 1\n1234\n\n//\nsegsites: 3\npositions: 0.1 0.4 0.8\n101\n010\n110\n001\n".to_string()
    }

    fn body(extra: &str) -> String {
        format!("{{\"format\":\"ms\",\"payload\":{:?}{extra}}}", ms_payload())
    }

    #[test]
    fn minimal_ms_request_parses() {
        let req = parse_scan_request(&body("")).unwrap();
        assert_eq!(req.kind, BackendKind::Cpu);
        assert_eq!(req.alignments.len(), 1);
        assert_eq!(req.alignments[0].n_sites(), 3);
        assert_eq!(req.overlap, OverlapMode::Serialized);
        assert!(req.deadline.is_none());
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = parse_scan_request(&body("")).unwrap();
        let b = parse_scan_request(&body(",\"params\":{\"grid\":4}")).unwrap();
        // Same payload, different params: same digest (params are keyed
        // separately in the cache key).
        assert_eq!(a.payload_digest, b.payload_digest);
        let other = body("").replace("0.8", "0.9");
        let c = parse_scan_request(&other).unwrap();
        assert_ne!(a.payload_digest, c.payload_digest);
    }

    #[test]
    fn selectors_and_fields_validate() {
        assert!(matches!(
            parse_scan_request("{\"format\":\"ms\"}"),
            Err(RequestError::MissingField("payload"))
        ));
        assert!(matches!(parse_scan_request("not json"), Err(RequestError::Json(_))));
        assert!(matches!(
            parse_scan_request(&body(",\"backend\":\"tpu\"")),
            Err(RequestError::UnknownSelector("backend", _))
        ));
        assert!(matches!(
            parse_scan_request(&body(",\"params\":{\"grid\":0}")),
            Err(RequestError::InvalidParams(_))
        ));
        assert!(matches!(
            parse_scan_request(&body(",\"overlap\":\"maybe\"")),
            Err(RequestError::UnknownSelector("overlap mode", _))
        ));
        assert!(matches!(
            parse_scan_request("{\"format\":\"ms\",\"payload\":\"garbage\"}"),
            Err(RequestError::Payload(_) | RequestError::EmptyInput)
        ));
    }

    #[test]
    fn gpu_device_selector_resolves() {
        let req = parse_scan_request(&body(",\"backend\":\"gpu\",\"device\":\"k80\"")).unwrap();
        assert_eq!(req.kind, BackendKind::Gpu);
        assert!(req.backend_label.contains("K80"));
        assert!(matches!(
            parse_scan_request(&body(",\"backend\":\"gpu\",\"device\":\"nope\"")),
            Err(RequestError::UnknownSelector("GPU device", _))
        ));
    }

    #[test]
    fn job_table_lifecycle() {
        let table = JobTable::default();
        let id = table.create(BackendKind::Cpu);
        assert_eq!(table.get(id).unwrap().state, JobState::Queued);
        table.update(id, |r| {
            r.state = JobState::Done;
            r.result = Some(Arc::new("{}".to_string()));
        });
        let record = table.get(id).unwrap();
        assert_eq!(record.state, JobState::Done);
        let json = job_json(id, &record);
        let v = omega_obs::parse_json(&json).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(v.get("job").unwrap().as_str(), Some(id.to_string().as_str()));
        assert_eq!(JobId::parse(&id.to_string()), Some(id));
        assert_eq!(JobId::parse("zzz"), None);
    }
}
