//! Request-scoped tracing: one [`Trace`] per captured request, made of
//! hierarchical [`SpanRecord`]s with monotonic offsets, durations, and
//! typed attributes, retained in a bounded ring of completed traces.
//!
//! Aggregate metrics (the [`Registry`](super::Registry)) answer "how is
//! the service doing"; a trace answers "why was *this* request slow" —
//! which filter stage ate the time, which shard straggled, what the WAL
//! fsync cost, how far the candidate set survived the check/NN funnel.
//!
//! ## Capture model
//!
//! A [`TraceCollector`] is cheap enough to build per request: it holds
//! the trace id, one `Instant`, and a span `Vec`. The service decides
//! *before* dispatch whether this request can be captured at all
//! (sampling says yes, or slow-query logging is armed and the request
//! might exceed the threshold); requests that can't be captured skip
//! the collector entirely, so the disabled path costs one atomic
//! fetch-add in [`Tracer::should_sample`] and one thread-local read per
//! [`emit`] or [`with`] call on its way. At the end of the request the
//! guard [`finish`](TraceGuard::finish)es the collector into an
//! immutable [`Trace`], which — if the sample decision or the
//! slow-query threshold says keep it — is [`Tracer::record`]ed.
//!
//! ## The ring
//!
//! Completed traces land in a fixed-capacity ring. The slot claim is a
//! lock-free `fetch_add` on the write cursor; publishing into the
//! claimed slot takes that slot's own mutex for the duration of one
//! `Arc` store, so producers on different slots never contend and a
//! reader ([`Tracer::snapshot`]) can never observe a torn trace — it
//! sees the whole previous `Arc<Trace>` or the whole new one. When the
//! ring wraps, the oldest trace is dropped; a slot keeps the write with
//! the highest sequence if two wrapped producers ever race on it.
//!
//! ## One collector per request thread
//!
//! While a request is captured, its collector lives in a thread-local:
//! [`begin`] installs it and returns the [`TraceGuard`] whose
//! [`finish`](TraceGuard::finish) yields the [`Trace`] (dropping the
//! guard discards it). Code anywhere on that thread then adds its span
//! with one call and nothing threaded through signatures:
//!
//! - [`emit`] hangs a span that ends now off the root — the storage
//!   hook (which fires on whatever thread commits) and the group commit
//!   use it. With no trace installed it is a no-op: one thread-local
//!   read, which is why unconditional `emit` calls on hot paths are
//!   safe.
//! - [`with`] lends the collector itself to code that builds a subtree
//!   (the read path's query → shard → phase spans). The closure does
//!   span bookkeeping only: it **must not** call [`emit`] or [`with`],
//!   because the collector is mutably borrowed while it runs and a
//!   nested borrow panics.
//!
//! Nested [`begin`]s are not supported: the inner one replaces the
//! outer trace, and either guard's drop clears the thread-local.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::json::{obj, Json};

/// One typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AttrValue {
    /// Unsigned counter-like values (funnel counts, byte sizes, seqs).
    U64(u64),
    /// Short descriptive strings.
    Str(String),
    /// Flags.
    Bool(bool),
}

impl AttrValue {
    /// The value as JSON.
    fn to_json(&self) -> Json {
        match self {
            Self::U64(v) => Json::Num(*v as f64),
            Self::Str(s) => Json::Str(s.clone()),
            Self::Bool(b) => Json::Bool(*b),
        }
    }
}

/// Index of a span inside its trace (the root is always index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanId(u32);

/// The root span every [`TraceCollector`] starts with.
pub(crate) const ROOT: SpanId = SpanId(0);

/// One completed span: a named slice of its trace's timeline, linked to
/// a parent span, with typed attributes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanRecord {
    /// The span kind — a small closed vocabulary (`http`, `shard`,
    /// `stage`, `verify`, `explain`, `wal_write`, `wal_fsync`,
    /// `group_commit_wait`, `group_commit_lead`, `snapshot`,
    /// `compaction`, `apply`, …), never request data.
    pub(crate) kind: &'static str,
    /// Parent span index; `None` only for the root.
    pub(crate) parent: Option<u32>,
    /// Start offset from the trace's start, in microseconds.
    pub(crate) start_us: u64,
    /// Duration in microseconds.
    pub(crate) dur_us: u64,
    /// Typed attributes (funnel counts, shard index, record counts…).
    pub(crate) attrs: Vec<(&'static str, AttrValue)>,
}

/// One captured request: an id (the service's request id, echoed as
/// `X-Request-Id`), the route, the response status, and the span tree.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Trace {
    /// Trace id — identical to the request id in logs and the
    /// `X-Request-Id` response header.
    pub(crate) id: u64,
    /// Canonical route label of the request.
    pub(crate) route: &'static str,
    /// HTTP status the request answered with.
    pub(crate) status: u16,
    /// True when the trace was kept because the request met the
    /// slow-query threshold (as opposed to 1-in-N sampling).
    pub(crate) slow: bool,
    /// Whole-request duration in microseconds (the root span's).
    pub(crate) dur_us: u64,
    /// Spans, root first; `parent` indices point into this vector.
    pub(crate) spans: Vec<SpanRecord>,
}

impl Trace {
    /// The trace as one `/debug/traces` element (format version 1).
    fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self.spans.iter().map(|span| {
            let attrs = span.attrs.iter();
            obj(vec![
                ("kind", Json::Str(span.kind.into())),
                ("parent", span.parent.map_or(Json::Null, |p| num(p.into()))),
                ("start_us", num(span.start_us)),
                ("duration_us", num(span.dur_us)),
                (
                    "attrs",
                    Json::Obj(attrs.map(|(k, v)| ((*k).into(), v.to_json())).collect()),
                ),
            ])
        });
        obj(vec![
            ("id", num(self.id)),
            ("route", Json::Str(self.route.into())),
            ("status", num(self.status.into())),
            ("slow", Json::Bool(self.slow)),
            ("duration_us", num(self.dur_us)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Renders a page of traces as the `/debug/traces` JSON document:
/// `{"version":1,"traces":[…]}`, oldest first.
pub(crate) fn render_traces(traces: &[Arc<Trace>]) -> String {
    let traces = traces.iter().map(|t| t.to_json()).collect();
    obj(vec![
        ("version", Json::Num(1.0)),
        ("traces", Json::Arr(traces)),
    ])
    .to_string()
}

/// Builds one request's span tree, installed on the request's thread
/// by [`begin`] and finished into a [`Trace`]. Every span records work
/// whose duration was measured elsewhere — per-shard
/// `PhaseTiming`-style checkpoints via [`add_span`](Self::add_span)
/// inside [`with`], hook events via [`emit`].
#[derive(Debug)]
pub(crate) struct TraceCollector {
    id: u64,
    route: &'static str,
    t0: Instant,
    spans: Vec<SpanRecord>,
}

impl TraceCollector {
    /// Starts a trace: the root span (kind `http`) opens now.
    pub(crate) fn begin(id: u64, route: &'static str) -> Self {
        Self {
            id,
            route,
            t0: Instant::now(),
            spans: vec![SpanRecord {
                kind: "http",
                parent: None,
                start_us: 0,
                dur_us: 0,
                attrs: Vec::new(),
            }],
        }
    }

    /// Microseconds elapsed since the trace began.
    pub(crate) fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Records a span whose timing was measured elsewhere.
    pub(crate) fn add_span(
        &mut self,
        parent: SpanId,
        kind: &'static str,
        start_us: u64,
        dur: Duration,
    ) -> SpanId {
        self.push(SpanRecord {
            kind,
            parent: Some(parent.0),
            start_us,
            dur_us: dur.as_micros() as u64,
            attrs: Vec::new(),
        })
    }

    /// Attaches one typed attribute to a span.
    pub(crate) fn attr(&mut self, span: SpanId, key: &'static str, value: AttrValue) {
        if let Some(record) = self.spans.get_mut(span.0 as usize) {
            record.attrs.push((key, value));
        }
    }

    /// Shorthand for the most common attribute type.
    pub(crate) fn attr_u64(&mut self, span: SpanId, key: &'static str, value: u64) {
        self.attr(span, key, AttrValue::U64(value));
    }

    /// Closes the root span and freezes the trace.
    pub(crate) fn finish(mut self, status: u16, slow: bool) -> Trace {
        let dur_us = self.now_us();
        self.spans[0].dur_us = dur_us;
        Trace {
            id: self.id,
            route: self.route,
            status,
            slow,
            dur_us,
            spans: self.spans,
        }
    }

    fn push(&mut self, record: SpanRecord) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(record);
        id
    }
}

/// One ring slot: the sequence number of the write it holds, so a
/// wrapped racing producer with an older claim never clobbers a newer
/// trace, and snapshots can order slots by recency.
#[derive(Debug, Default)]
struct Slot {
    seq: u64,
    trace: Option<Arc<Trace>>,
}

/// The process-wide trace sink: sampling state plus the bounded ring of
/// completed traces. One per service; handles are shared by `Arc`.
#[derive(Debug)]
pub(crate) struct Tracer {
    slots: Box<[Mutex<Slot>]>,
    cursor: AtomicU64,
    /// 1-in-N sampling; 0 disables sampling (slow-query capture still
    /// records).
    sample: AtomicU64,
    ticks: AtomicU64,
}

impl Tracer {
    /// A tracer retaining up to `capacity` completed traces (clamped to
    /// ≥ 1), with sampling off.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(Slot::default())).collect(),
            cursor: AtomicU64::new(0),
            sample: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        }
    }

    /// Sets 1-in-`n` sampling (`0` turns sampling off; slow-query
    /// capture is independent of this).
    pub(crate) fn set_sample(&self, n: u64) {
        self.sample.store(n, Ordering::Relaxed);
    }

    /// Draws this request's sampling decision: true for every Nth
    /// request under 1-in-N sampling. One relaxed fetch-add — the whole
    /// cost of tracing for a request that won't be captured.
    pub(crate) fn should_sample(&self) -> bool {
        let n = self.sample.load(Ordering::Relaxed);
        if n == 0 {
            return false;
        }
        self.ticks.fetch_add(1, Ordering::Relaxed).is_multiple_of(n)
    }

    /// Publishes one completed trace, evicting the oldest when full.
    /// The slot claim is a lock-free fetch-add; the publish itself
    /// takes only the claimed slot's lock (producers on different slots
    /// never contend).
    pub(crate) fn record(&self, trace: Trace) {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let seq = n + 1; // 0 marks an empty slot
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        // A producer that stalled a full ring-lap behind a racing one
        // must not replace the newer trace with its older claim.
        if seq > slot.seq {
            slot.seq = seq;
            slot.trace = Some(Arc::new(trace));
        }
    }

    /// The retained traces, oldest first. Each slot is locked just long
    /// enough to clone its `Arc`, so a snapshot never tears a trace and
    /// never blocks producers for longer than one clone.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Trace>> {
        let mut entries: Vec<(u64, Arc<Trace>)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                slot.trace.as_ref().map(|t| (slot.seq, Arc::clone(t)))
            })
            .collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, t)| t).collect()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCollector>> = const { RefCell::new(None) };
}

/// Starts capturing a trace on this thread: the root span (kind
/// `http`) opens now, and [`emit`] / [`with`] reach the collector
/// until the returned guard is finished or dropped.
pub(crate) fn begin(id: u64, route: &'static str) -> TraceGuard {
    CURRENT.with(|current| *current.borrow_mut() = Some(TraceCollector::begin(id, route)));
    TraceGuard(PhantomData)
}

/// Adds a child of the root that ends now and lasted `dur` (start =
/// now − `dur`, clamped into the trace): hooks fire *after* the work
/// they describe. A no-op when this thread captures no trace.
pub(crate) fn emit(kind: &'static str, dur: Duration, attrs: Vec<(&'static str, AttrValue)>) {
    CURRENT.with(|current| {
        if let Some(trace) = current.borrow_mut().as_mut() {
            let dur_us = dur.as_micros() as u64;
            trace.push(SpanRecord {
                kind,
                parent: Some(ROOT.0),
                start_us: trace.now_us().saturating_sub(dur_us),
                dur_us,
                attrs,
            });
        }
    });
}

/// Runs `f` on this thread's collector; `None` (and `f` never runs)
/// when no trace is captured. `f` must not call [`emit`] or `with`:
/// the collector is borrowed while it runs, and a nested borrow panics.
pub(crate) fn with<R>(f: impl FnOnce(&mut TraceCollector) -> R) -> Option<R> {
    CURRENT.with(|current| current.borrow_mut().as_mut().map(f))
}

/// The trace [`begin`] installed on this thread. Not `Send`: it stands
/// for a thread-local.
#[derive(Debug)]
pub(crate) struct TraceGuard(PhantomData<*const ()>);

impl TraceGuard {
    /// Takes the trace off the thread, closes its root span and freezes
    /// it.
    pub(crate) fn finish(self, status: u16, slow: bool) -> Trace {
        CURRENT
            .with(|current| current.borrow_mut().take())
            .expect("begin installed a trace on this thread")
            .finish(status, slow)
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(id: u64) -> Trace {
        let mut c = TraceCollector::begin(id, "/search");
        let shard = c.add_span(ROOT, "shard", 0, Duration::from_micros(50));
        c.attr_u64(shard, "shard", 0);
        c.add_span(shard, "stage", 0, Duration::from_micros(20));
        c.finish(200, false)
    }

    #[test]
    fn collector_builds_a_parented_tree() {
        let mut c = TraceCollector::begin(7, "/search");
        let shard = c.add_span(ROOT, "shard", 0, Duration::from_micros(20));
        let child = c.add_span(shard, "stage", 3, Duration::from_micros(11));
        c.attr(child, "candidates", AttrValue::U64(42));
        let trace = c.finish(200, true);
        assert_eq!(trace.id, 7);
        assert!(trace.slow);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].kind, "http");
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[2].dur_us, 11);
        assert_eq!(
            trace.spans[2].attrs,
            vec![("candidates", AttrValue::U64(42))]
        );
        // The root duration is the whole trace's.
        assert_eq!(trace.dur_us, trace.spans[0].dur_us);
    }

    #[test]
    fn sampling_is_one_in_n() {
        let tracer = Tracer::new(8);
        assert!(!tracer.should_sample(), "sampling defaults to off");
        tracer.set_sample(3);
        let hits = (0..9).filter(|_| tracer.should_sample()).count();
        assert_eq!(hits, 3);
        tracer.set_sample(1);
        assert!(tracer.should_sample(), "1-in-1 samples everything");
    }

    #[test]
    fn ring_evicts_oldest_and_orders_snapshots() {
        let tracer = Tracer::new(4);
        for id in 1..=10 {
            tracer.record(tiny_trace(id));
        }
        let kept: Vec<u64> = tracer.snapshot().iter().map(|t| t.id).collect();
        assert_eq!(kept, vec![7, 8, 9, 10], "newest 4 survive, in order");
    }

    #[test]
    fn ring_hammer_never_tears_and_stays_bounded() {
        // Writers race on a ring smaller than the write volume while a
        // reader snapshots continuously. Every observed trace must be
        // internally consistent (its spans encode its id), the ring
        // must never exceed capacity, and snapshot order must be
        // non-decreasing in recency.
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 300;
        let tracer = Arc::new(Tracer::new(16));
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let tracer = Arc::clone(&tracer);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let id = w * PER_WRITER + i;
                        let mut c = TraceCollector::begin(id, "/search");
                        let shard = c.add_span(ROOT, "shard", 0, Duration::from_micros(id));
                        c.attr_u64(shard, "echo", id);
                        tracer.record(c.finish(200, false));
                    }
                });
            }
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = tracer.snapshot();
                    assert!(snap.len() <= 16, "ring exceeded capacity: {}", snap.len());
                    for t in &snap {
                        // Torn-trace check: the span attribute must
                        // echo the trace id it was built with.
                        assert_eq!(t.spans.len(), 2);
                        assert_eq!(
                            t.spans[1].attrs,
                            vec![("echo", AttrValue::U64(t.id))],
                            "trace {} holds another trace's spans",
                            t.id
                        );
                        assert_eq!(t.spans[1].dur_us, t.id);
                    }
                }
            });
        });
        assert_eq!(tracer.snapshot().len(), 16);
    }

    #[test]
    fn json_rendering_is_wellformed_and_escapes() {
        let mut c = TraceCollector::begin(3, "/search");
        let span = c.add_span(ROOT, "shard", 1, Duration::from_micros(9));
        c.attr(
            span,
            "note",
            AttrValue::Str("say \"hi\"\n\tdone\u{1}".into()),
        );
        c.attr(span, "ok", AttrValue::Bool(true));
        let page = render_traces(&[Arc::new(c.finish(200, false))]);
        assert!(page.starts_with("{\"version\":1,\"traces\":["), "{page}");
        assert!(page.contains("\"kind\":\"shard\""), "{page}");
        assert!(page.contains("\\\"hi\\\"\\n\\tdone\\u0001"), "{page}");
        assert!(page.contains("\"ok\":true"), "{page}");
        assert!(Json::parse(&page).is_ok(), "{page}");
    }

    #[test]
    fn spans_reach_the_installed_trace_only() {
        emit("wal_write", Duration::from_micros(5), Vec::new());
        assert_eq!(with(|t| t.now_us()), None, "no trace installed");
        let capture = begin(4, "/sets");
        emit(
            "wal_write",
            Duration::from_micros(7),
            vec![("records", AttrValue::U64(2))],
        );
        let query = with(|t| t.add_span(ROOT, "query", 0, Duration::from_micros(3))).unwrap();
        emit("wal_fsync", Duration::from_micros(11), Vec::new());
        let trace = capture.finish(200, false);
        let kinds: Vec<_> = trace.spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["http", "wal_write", "query", "wal_fsync"]);
        assert_eq!(query, SpanId(2));
        assert!(trace.spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(trace.spans[1].attrs, vec![("records", AttrValue::U64(2))]);
        assert_eq!(trace.spans[3].dur_us, 11);
        // An emitted span ends when it is emitted, so it starts inside
        // the trace.
        assert!(trace.spans[1..].iter().all(|s| s.start_us <= trace.dur_us));
        assert_eq!(with(|t| t.now_us()), None, "finish takes the trace off");

        // A dropped guard discards its trace; the next begins empty.
        drop(begin(5, "/sets"));
        emit("wal_write", Duration::from_micros(13), Vec::new());
        assert_eq!(with(|t| t.now_us()), None, "drop clears the thread");
        assert_eq!(begin(6, "/sets").finish(200, false).spans.len(), 1);
    }
}
