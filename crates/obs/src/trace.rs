//! Request-scoped tracing: a propagatable [`TraceContext`], an
//! [`RequestTrace`] accumulator that collects per-stage spans across
//! threads, and a bounded [`FlightRecorder`] ring buffer of completed
//! traces for the `/traces` endpoints.
//!
//! This is deliberately separate from the thread-local [`crate::span!`]
//! machinery: serve jobs cross threads (HTTP handler → lane worker), so a
//! request trace is an `Arc`-shared accumulator rather than a stack. Spans
//! come in two kinds:
//!
//! - **wall** spans measure elapsed real time and must nest inside their
//!   parent (the audit checks that wall children sum to ≤ the parent's
//!   duration);
//! - **modelled** spans carry simulator cost-model time (e.g. the GPU
//!   H2D+D2H transfer estimate), which can legitimately exceed wall time
//!   because the simulation runs faster than the device it models. They
//!   are excluded from the containment check.
//!
//! Wire format of the `X-Omega-Trace` header: `<trace_id>-<span_id>`,
//! both zero-padded 16-digit lowercase hex. An inbound header adopts the
//! caller's trace id and parents the request root under the caller's span,
//! which is what the future scatter-gather coordinator needs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::JsonObject;

/// A trace identity as carried on the wire: which trace, and which span
/// within it is the current parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id, non-zero.
    pub trace_id: u64,
    /// Parent span id within the trace (0 = no parent).
    pub span_id: u64,
}

impl TraceContext {
    /// Parses an `X-Omega-Trace` header value
    /// (`<16 hex>-<16 hex>`); `None` if malformed or the trace id is 0.
    pub fn parse(text: &str) -> Option<TraceContext> {
        let text = text.trim();
        let (t, s) = text.split_once('-')?;
        if t.len() != 16 || s.len() != 16 {
            return None;
        }
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(s, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id })
    }

    /// Renders the wire form (`<16 hex>-<16 hex>`).
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }
}

/// Allocates a fresh process-unique trace id (non-zero). Mixes a
/// wall-clock sample with a process counter so ids from different daemon
/// instances rarely collide.
pub fn fresh_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    (seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
}

/// One closed span within a request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the trace.
    pub id: u64,
    /// Parent span id (the trace root for top-level stages; 0 for the
    /// root itself when there was no inbound context).
    pub parent: u64,
    /// Stage name (registered in [`crate::names::INSTRUMENTS`]).
    pub name: &'static str,
    /// Start offset in ns since the trace began.
    pub start_ns: u64,
    /// Duration in ns (wall or modelled, per `modelled`).
    pub dur_ns: u64,
    /// Whether the duration is simulator-modelled rather than measured.
    pub modelled: bool,
}

impl SpanRecord {
    fn json(&self) -> String {
        JsonObject::new()
            .u64("id", self.id)
            .u64("parent", self.parent)
            .string("name", self.name)
            .u64("start_ns", self.start_ns)
            .u64("dur_ns", self.dur_ns)
            .string("kind", if self.modelled { "modelled" } else { "wall" })
            .finish()
    }
}

const ROOT_SPAN_ID: u64 = 1;

/// An in-flight request trace, shared by every thread that touches the
/// request. Cheap to clone (`Arc`); spans are appended under a mutex on
/// the cold path only (a handful per request).
#[derive(Debug)]
pub struct RequestTrace {
    trace_id: u64,
    remote_parent: u64,
    root_name: &'static str,
    started: Instant,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    attrs: Mutex<Vec<(String, String)>>,
    finished: AtomicBool,
}

impl RequestTrace {
    /// Starts a trace rooted at `root_name`. With an inbound context the
    /// caller's trace id is adopted and the root is parented under the
    /// caller's span; otherwise a fresh trace id is allocated.
    pub fn begin(root_name: &'static str, inbound: Option<TraceContext>) -> Arc<RequestTrace> {
        let (trace_id, remote_parent) = match inbound {
            Some(ctx) => (ctx.trace_id, ctx.span_id),
            None => (fresh_trace_id(), 0),
        };
        Arc::new(RequestTrace {
            trace_id,
            remote_parent,
            root_name,
            started: Instant::now(),
            next_span: AtomicU64::new(ROOT_SPAN_ID + 1),
            spans: Mutex::new(Vec::new()),
            attrs: Mutex::new(Vec::new()),
            finished: AtomicBool::new(false),
        })
    }

    /// The trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The root span id — parent for top-level stage spans.
    pub fn root_span(&self) -> u64 {
        ROOT_SPAN_ID
    }

    /// Context for propagating this trace downstream (children of the
    /// root span).
    pub fn context(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: ROOT_SPAN_ID }
    }

    /// Offset of `at` in ns since the trace began (0 if `at` precedes it).
    pub fn offset_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.started).as_nanos() as u64
    }

    /// Current offset in ns since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).push(record);
    }

    /// Records a closed wall-time span; returns its id (usable as a
    /// parent for sub-spans).
    pub fn record_wall(&self, name: &'static str, parent: u64, start_ns: u64, dur_ns: u64) -> u64 {
        let id = self.alloc_span();
        self.push(SpanRecord { id, parent, name, start_ns, dur_ns, modelled: false });
        id
    }

    /// Records a closed modelled-time span (simulator cost estimates);
    /// returns its id.
    pub fn record_modelled(
        &self,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.alloc_span();
        self.push(SpanRecord { id, parent, name, start_ns, dur_ns, modelled: true });
        id
    }

    /// Opens a RAII wall span that records itself when dropped.
    pub fn start_wall(self: &Arc<Self>, name: &'static str, parent: u64) -> StageSpan {
        StageSpan { trace: Arc::clone(self), name, parent, opened: Instant::now() }
    }

    /// Attaches a key/value annotation to the trace (backend, job id,
    /// outcome, ...). Later writes with the same key win at render time.
    pub fn annotate(&self, key: &str, value: &str) {
        self.attrs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((key.to_string(), value.to_string()));
    }

    /// Closes the root span at the current instant and publishes the
    /// completed trace to the global [`recorder`]. Idempotent: only the
    /// first call publishes. Returns the root wall duration in ns.
    pub fn finish(&self) -> u64 {
        let wall_ns = self.now_ns();
        if self.finished.swap(true, Ordering::AcqRel) {
            return wall_ns;
        }
        // Publish happens exactly once (the swap above), so the buffers
        // can be moved out instead of cloned; a straggler span recorded
        // after finish lands in the emptied vec and is dropped.
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap_or_else(|p| p.into_inner()));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let attrs = std::mem::take(&mut *self.attrs.lock().unwrap_or_else(|p| p.into_inner()));
        let completed = CompletedTrace {
            trace_id: self.trace_id,
            root: SpanRecord {
                id: ROOT_SPAN_ID,
                parent: self.remote_parent,
                name: self.root_name,
                start_ns: 0,
                dur_ns: wall_ns,
                modelled: false,
            },
            spans,
            attrs,
        };
        crate::counter!("obs.trace.completed").inc();
        recorder().push(completed);
        wall_ns
    }
}

/// RAII guard for a wall stage span; records on drop.
#[derive(Debug)]
pub struct StageSpan {
    trace: Arc<RequestTrace>,
    name: &'static str,
    parent: u64,
    opened: Instant,
}

impl StageSpan {
    /// Elapsed ns since the span opened (without closing it).
    pub fn elapsed_ns(&self) -> u64 {
        self.opened.elapsed().as_nanos() as u64
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let start_ns = self.trace.offset_of(self.opened);
        self.trace.record_wall(self.name, self.parent, start_ns, self.elapsed_ns());
    }
}

/// A finished trace: the root span plus its stage spans, start-ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedTrace {
    /// Trace id.
    pub trace_id: u64,
    /// The request root span (parent = inbound remote span, or 0).
    pub root: SpanRecord,
    /// Stage spans, sorted by (start_ns, id).
    pub spans: Vec<SpanRecord>,
    /// Annotations; later entries with the same key win.
    pub attrs: Vec<(String, String)>,
}

impl CompletedTrace {
    /// Root wall duration in ns.
    pub fn wall_ns(&self) -> u64 {
        self.root.dur_ns
    }

    /// The trace id in wire form (16-digit lowercase hex).
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    fn attrs_json(&self) -> String {
        let mut obj = JsonObject::new();
        // Last write wins: iterate deduped in first-seen key order.
        let mut emitted: Vec<&str> = Vec::new();
        for (key, _) in &self.attrs {
            if emitted.contains(&key.as_str()) {
                continue;
            }
            emitted.push(key);
            if let Some((_, value)) = self.attrs.iter().rev().find(|(k, _)| k == key) {
                obj = obj.string(key, value);
            }
        }
        obj.finish()
    }

    /// Full span-tree JSON for `GET /traces/<id>`.
    pub fn json(&self) -> String {
        let mut spans = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            spans.push_str(&s.json());
        }
        spans.push(']');
        JsonObject::new()
            .string("trace", &self.trace_hex())
            .string("name", self.root.name)
            .u64("wall_ns", self.wall_ns())
            .raw("root", &self.root.json())
            .raw("spans", &spans)
            .raw("attrs", &self.attrs_json())
            .finish()
    }

    /// One-line summary JSON for the `GET /traces` index.
    pub fn summary_json(&self) -> String {
        JsonObject::new()
            .string("trace", &self.trace_hex())
            .string("name", self.root.name)
            .u64("wall_ns", self.wall_ns())
            .u64("spans", self.spans.len() as u64)
            .raw("attrs", &self.attrs_json())
            .finish()
    }

    /// Structural audit: every span must reach the root through recorded
    /// parents (no orphans, no cycles), span ids must be unique, and for
    /// every parent the wall-kind children must sum to at most the
    /// parent's duration (modelled spans are exempt — simulated device
    /// time routinely exceeds host wall time).
    pub fn well_formed(&self) -> Result<(), String> {
        let mut ids = vec![self.root.id];
        for s in &self.spans {
            if ids.contains(&s.id) {
                return Err(format!("duplicate span id {}", s.id));
            }
            ids.push(s.id);
        }
        for s in &self.spans {
            // Walk to the root; the hop budget bounds cycles.
            let mut at = s.id;
            let mut hops = 0;
            while at != self.root.id {
                let parent = match self.spans.iter().find(|x| x.id == at) {
                    Some(x) => x.parent,
                    None => return Err(format!("span {} parent chain leaves the trace", s.id)),
                };
                at = parent;
                hops += 1;
                if hops > self.spans.len() + 1 {
                    return Err(format!("span {} parent chain cycles", s.id));
                }
            }
        }
        for parent_id in &ids {
            let parent_dur = if *parent_id == self.root.id {
                self.root.dur_ns
            } else {
                match self.spans.iter().find(|x| x.id == *parent_id) {
                    Some(x) if x.modelled => continue,
                    Some(x) => x.dur_ns,
                    None => continue,
                }
            };
            let child_sum: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent == *parent_id && !s.modelled)
                .map(|s| s.dur_ns)
                .sum();
            if child_sum > parent_dur {
                return Err(format!(
                    "wall children of span {parent_id} sum to {child_sum} ns > parent \
                     {parent_dur} ns"
                ));
            }
        }
        Ok(())
    }
}

/// Bounded ring buffer of the most recent completed traces.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
}

#[derive(Debug)]
struct RecorderInner {
    buf: VecDeque<CompletedTrace>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` traces (0 disables capture).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder { inner: Mutex::new(RecorderInner { buf: VecDeque::new(), capacity }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reconfigures the capacity, trimming oldest traces if shrinking.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        while inner.buf.len() > capacity {
            inner.buf.pop_front();
            crate::counter!("obs.trace.dropped").inc();
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether no traces are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a completed trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: CompletedTrace) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            crate::counter!("obs.trace.dropped").inc();
            return;
        }
        inner.buf.push_back(trace);
        while inner.buf.len() > inner.capacity {
            inner.buf.pop_front();
            crate::counter!("obs.trace.dropped").inc();
        }
    }

    /// The most recent `limit` traces, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<CompletedTrace> {
        let inner = self.lock();
        let skip = inner.buf.len().saturating_sub(limit);
        inner.buf.iter().skip(skip).cloned().collect()
    }

    /// Looks up a trace by id (most recent wins on id reuse).
    pub fn get(&self, trace_id: u64) -> Option<CompletedTrace> {
        let inner = self.lock();
        inner.buf.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }
}

/// The process-global flight recorder (default capacity 256; the serve
/// daemon reconfigures it from `ServeConfig`).
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(256))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips_and_rejects_junk() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, span_id: 7 };
        assert_eq!(TraceContext::parse(&ctx.header_value()), Some(ctx));
        assert_eq!(ctx.header_value(), "00000000deadbeef-0000000000000007");
        for bad in ["", "xyz", "0000000000000001", "1-2", &"0".repeat(33)] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
        // Zero trace id is reserved.
        assert_eq!(TraceContext::parse("0000000000000000-0000000000000001"), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = fresh_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn spans_accumulate_and_finish_publishes_once() {
        let trace = RequestTrace::begin("serve.request", None);
        let root = trace.root_span();
        let kernel = trace.record_wall("serve.kernel", root, 10, 100);
        trace.record_modelled("serve.transfer", kernel, 10, 1_000_000);
        trace.annotate("backend", "cpu");
        trace.annotate("backend", "gpu"); // last write wins
        let wall = trace.finish();
        let again = trace.finish();
        assert!(again >= wall);

        let got = recorder().get(trace.trace_id()).expect("published");
        assert_eq!(got.spans.len(), 2);
        assert_eq!(got.root.name, "serve.request");
        got.well_formed().expect("well formed");
        let rendered = got.json();
        let v = crate::parse_json(&rendered).expect("trace json parses");
        assert_eq!(v.get("attrs").unwrap().get("backend").unwrap().as_str(), Some("gpu"));
        assert_eq!(v.get("spans").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn inbound_context_is_adopted() {
        let ctx = TraceContext { trace_id: 42, span_id: 9 };
        let trace = RequestTrace::begin("serve.request", Some(ctx));
        assert_eq!(trace.trace_id(), 42);
        trace.finish();
        let got = recorder().get(42).expect("published");
        assert_eq!(got.root.parent, 9);
    }

    #[test]
    fn well_formed_rejects_orphans_and_overflow() {
        let root =
            SpanRecord { id: 1, parent: 0, name: "r", start_ns: 0, dur_ns: 100, modelled: false };
        let orphan = CompletedTrace {
            trace_id: 1,
            root: root.clone(),
            spans: vec![SpanRecord {
                id: 2,
                parent: 99,
                name: "x",
                start_ns: 0,
                dur_ns: 1,
                modelled: false,
            }],
            attrs: vec![],
        };
        assert!(orphan.well_formed().is_err());

        let overflow = CompletedTrace {
            trace_id: 2,
            root: root.clone(),
            spans: vec![
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "a",
                    start_ns: 0,
                    dur_ns: 80,
                    modelled: false,
                },
                SpanRecord {
                    id: 3,
                    parent: 1,
                    name: "b",
                    start_ns: 80,
                    dur_ns: 40,
                    modelled: false,
                },
            ],
            attrs: vec![],
        };
        assert!(overflow.well_formed().is_err());

        let span = |id, parent| SpanRecord {
            id,
            parent,
            name: "s",
            start_ns: 0,
            dur_ns: 1,
            modelled: false,
        };
        let duplicate = CompletedTrace {
            trace_id: 4,
            root: root.clone(),
            spans: vec![span(2, 1), span(2, 1)],
            attrs: vec![],
        };
        let err = duplicate.well_formed().expect_err("duplicate span id");
        assert!(err.contains("duplicate span id 2"), "{err}");

        // 2 -> 3 -> 2 never reaches the root.
        let cycle = CompletedTrace {
            trace_id: 5,
            root: root.clone(),
            spans: vec![span(2, 3), span(3, 2)],
            attrs: vec![],
        };
        let err = cycle.well_formed().expect_err("parent cycle");
        assert!(err.contains("cycles"), "{err}");

        // The same overflow as modelled time is fine.
        let modelled = CompletedTrace {
            trace_id: 3,
            root,
            spans: vec![SpanRecord {
                id: 2,
                parent: 1,
                name: "m",
                start_ns: 0,
                dur_ns: 10_000,
                modelled: true,
            }],
            attrs: vec![],
        };
        modelled.well_formed().expect("modelled spans exempt from containment");
    }

    #[test]
    fn recorder_ring_evicts_oldest() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 1..=5u64 {
            rec.push(CompletedTrace {
                trace_id: i,
                root: SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "r",
                    start_ns: 0,
                    dur_ns: i,
                    modelled: false,
                },
                spans: vec![],
                attrs: vec![],
            });
        }
        assert_eq!(rec.len(), 3);
        assert!(rec.get(1).is_none());
        assert!(rec.get(2).is_none());
        let recent = rec.recent(10);
        let ids: Vec<u64> = recent.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [3, 4, 5]);
        assert_eq!(rec.recent(2).len(), 2);
        rec.set_capacity(1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.recent(10)[0].trace_id, 5);
    }
}
