//! The SilkMoth network service: HTTP routes over a [`ShardedEngine`] —
//! ephemeral, or durable behind a `silkmoth-storage` [`Store`].
//!
//! ## Endpoints
//!
//! | Route            | Body                                             | Response |
//! |------------------|--------------------------------------------------|----------|
//! | `POST /search`   | a [`QuerySpec`] object (see [`queryspec`](crate::queryspec)): `{"reference": [elem, …], "k"?, "floor"?, "deadline_ms"?, "stats"?, "explain"?}` | `{"results": [{"set", "score"}, …], "timed_out": b, "stats"?: {…}, "explain"?: […]}` |
//! | `POST /search/batch` | `{"queries": [spec, …]}`                     | `{"outputs": [one per spec, same shape as /search]}` |
//! | `POST /discover` | `{"references": [[elem, …], …]}`                 | `{"pairs": [{"r", "s", "score"}, …], "stats": {…}}` |
//! | `POST /sets`     | `{"sets": [[elem, …], …]}`                       | `{"appended": [id, …], "sets": n}` |
//! | `DELETE /sets`   | `{"ids": [id, …]}`                               | `{"removed": n, "sets": n}` |
//! | `POST /compact`  | —                                                | `{"sets": n}` |
//! | `POST /snapshot` | —                                                | `{"snapshot_seq": n}` (durable mode; 409 otherwise) |
//! | `POST /promote`  | —                                                | `{"role": "primary", "epoch", "update_seq"}` — follower failover (409 when already primary) |
//! | `GET /stats`     | —                                                | request counters, per-shard and merged [`PassStats`], and (durable) the storage generation |
//! | `GET /healthz`   | —                                                | `{"status": "ok", "durable": b, "role": "primary"\|"follower", "version", "uptime_secs", "update_seq", …}` |
//! | `GET /metrics`   | —                                                | the [`metrics`](crate::metrics) bundle in the Prometheus text exposition format |
//! | `GET /debug/traces` | optional `?route=`, `?min_ms=`, `?id=` filters | `{"version": 1, "traces": […]}` — the captured-trace ring, newest-last (see Observability) |
//!
//! Set ids in responses are **global** (the line number of the set in
//! the served input; appended sets continue the numbering), identical
//! to what one unsharded engine would report, and stable across every
//! update including compaction. `DELETE /sets` is idempotent per id
//! but rejects ids that were never assigned (404). Errors come back as
//! `{"error": "…"}` with a 4xx status.
//!
//! ## Durability
//!
//! In durable mode every update route is **WAL-logged and fsync'd
//! before it is acknowledged** — a 200 means the mutation survives
//! `kill -9`. Concurrent updates **group-commit**: they queue in front
//! of the store, and whichever request thread claims leadership
//! drains the queue and commits the whole batch with one buffered WAL
//! write and one fsync ([`Store::commit_batch`]), then applies it to
//! the engine in WAL order under the write lock — so N concurrent
//! writers pay ~1 fsync, not N. The WAL append itself runs under the
//! *shared* engine lock: searches keep executing through the fsync.
//! `POST /snapshot` forces a checkpoint + WAL rotation, and the
//! store's [`CompactionPolicy`] may compact/checkpoint automatically
//! after any update. A storage failure (disk full, fsync error) is a
//! 500 and the update is *not* acknowledged — with one deliberate
//! exception: when the update itself committed durably but the
//! *post-commit* policy maintenance (auto-compaction / auto-snapshot)
//! failed, the route still answers 200 with `"degraded": true` and
//! logs the maintenance error, because a 500 would invite a retry of
//! an update that already happened.
//!
//! ## Deadlines
//!
//! A per-query `deadline_ms` caps one query's wall-clock budget: on
//! expiry the engine stops cooperatively and answers `200` with
//! `"timed_out": true` and the results proven so far. A server-level
//! [`with_search_timeout`](SearchService::with_search_timeout)
//! (`serve --search-timeout-ms`) additionally bounds the **whole
//! request** (a batch counts as one request); exhausting it answers
//! `504` instead.
//!
//! ## Concurrency and backpressure
//!
//! Updates take the engine's write lock; searches share a read lock,
//! so an ingest waits for in-flight searches and vice versa, and every
//! search sees either all or none of an update. Updates waiting for
//! the write lock queue up; with
//! [`with_max_inflight_updates`](SearchService::with_max_inflight_updates)
//! the queue is bounded — excess updates are rejected immediately with
//! `503` + `Retry-After` instead of pinning workers.
//!
//! ## Observability
//!
//! Every request flows through an instrumented wrapper: a monotonic
//! request id, an in-flight gauge, and per-route counters + latency
//! histograms in the [`metrics`](crate::metrics) bundle served on
//! `GET /metrics`. Search routes additionally record per-phase query
//! timing (stage / verify / explain, worst shard per phase) and — when
//! the spec sets `"timing": true` — return the same numbers in the
//! response. [`with_log_format`](SearchService::with_log_format) turns
//! on one structured log line per request (text or JSON), and
//! [`with_slow_query_ms`](SearchService::with_slow_query_ms) logs the
//! full spec of any search slower than the threshold.
//!
//! Per-request **traces** ride the same wrapper: every response carries
//! its request id in an `X-Request-Id` header and the log line's
//! `trace` field, and a sampled request
//! ([`with_trace_sample`](SearchService::with_trace_sample), 1-in-N) or
//! any request at/over the slow-query threshold records a hierarchical
//! span tree — http → query → shard → stage/verify, plus WAL
//! write/fsync and group-commit spans in durable mode — with the
//! paper's filter-funnel survivor counts as span attributes, into a
//! bounded in-memory ring served at `GET /debug/traces`.

use std::io;
use std::net::ToSocketAddrs;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use silkmoth_collection::{SetIdx, UpdateError};
use silkmoth_core::{CompactionPolicy, PassStats, QuerySpec, Update, UpdateOutcome};
use silkmoth_replica::{CommitSignal, FollowerShared};
use silkmoth_storage::{StorageError, Store, StoreEvent, TelemetryHook};
use silkmoth_telemetry::trace::{self, AttrValue, SpanId, TraceCollector, Tracer};

use crate::http::{self, HttpServer, Request, Response};
use crate::json::{obj, Json};
use crate::metrics::{canonical_route, ServiceMetrics};
use crate::queryspec::{explanation_json, spec_from_json, spec_to_json};
use crate::shard::{merge_stats, ShardedEngine, ShardedQueryOutput};

/// What the service serves: a bare engine, or an engine owned by a
/// durable store that WAL-logs every update.
//
// One Backend exists per service, so the size gap between the
// variants (the Store carries WAL + policy + hooks inline) costs
// nothing; boxing the durable side would only add a pointer chase to
// every update.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    Ephemeral(ShardedEngine),
    Durable(Store<ShardedEngine>),
}

impl Backend {
    fn engine(&self) -> &ShardedEngine {
        match self {
            Self::Ephemeral(engine) => engine,
            Self::Durable(store) => store.engine(),
        }
    }
}

/// Read access to the served engine (returned by
/// [`SearchService::engine`]); dereferences to [`ShardedEngine`] and
/// holds the service's read lock while alive.
#[derive(Debug)]
pub struct EngineGuard<'a>(RwLockReadGuard<'a, Backend>);

impl Deref for EngineGuard<'_> {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        self.0.engine()
    }
}

/// Decrements the in-flight update counter on drop (see
/// [`SearchService::with_max_inflight_updates`]).
struct InflightGuard<'a>(Option<&'a AtomicUsize>);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(counter) = self.0 {
            counter.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The group-commit queue in front of the durable store. Concurrent
/// update requests enqueue here; whichever request thread finds no
/// leader active claims leadership, drains the queue **once**, and
/// commits everything drained as one batch (one WAL write + one
/// fsync), applies it to the engine, and delivers each update's
/// outcome into its slot. The other threads wait on the condvar —
/// crucially *without* queueing on a lock the leader holds, so a
/// writer whose update was acked by the previous leader can respond
/// and enqueue its next update while the current leader is still
/// inside its fsync. That is what lets batches grow: the fsync window
/// is exactly when the queue fills.
#[derive(Debug, Default)]
struct CommitQueue {
    /// Updates waiting for the next leader's drain.
    pending: Mutex<Vec<QueuedUpdate>>,
    /// True while a leader is inside its commit → apply → maintain
    /// cycle (or `/snapshot`/`/promote` holds leadership before the
    /// write lock) — so a WAL rotation can never interleave between a
    /// batch's durable commit and its engine apply (a snapshot cut
    /// there would record a seq the engine hasn't reached). Guarded by
    /// this mutex, handed over through `wakeup`.
    leading: Mutex<bool>,
    /// Signalled when the leader resigns: completed waiters pick up
    /// their results, and one of the rest becomes the next leader.
    wakeup: Condvar,
}

impl CommitQueue {
    /// Blocks until this thread holds batch leadership. While the
    /// guard lives, no group commit can sit between its durable-commit
    /// and engine-apply phases, and none can start.
    fn lead(&self) -> LeaderGuard<'_> {
        let mut leading = self.leading.lock().unwrap_or_else(PoisonError::into_inner);
        while *leading {
            leading = self
                .wakeup
                .wait(leading)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *leading = true;
        LeaderGuard { queue: self }
    }
}

/// Resigns leadership on drop (even on panic) and wakes every waiter.
struct LeaderGuard<'a> {
    queue: &'a CommitQueue,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        *self
            .queue
            .leading
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = false;
        self.queue.wakeup.notify_all();
    }
}

/// One enqueued update and the slot its outcome is delivered into.
#[derive(Debug)]
struct QueuedUpdate {
    update: Update,
    slot: Arc<UpdateSlot>,
}

/// Where a queued update's result lands. The completing leader fills
/// every drained slot before resigning, so a waiter woken by the
/// queue's condvar either finds its result here or becomes the next
/// leader.
#[derive(Debug, Default)]
struct UpdateSlot(Mutex<Option<Result<GroupReceipt, GroupCommitError>>>);

impl UpdateSlot {
    fn complete(&self, result: Result<GroupReceipt, GroupCommitError>) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    }

    fn take(&self) -> Option<Result<GroupReceipt, GroupCommitError>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// What one update gets back from its group commit.
#[derive(Debug)]
struct GroupReceipt {
    outcome: UpdateOutcome,
    /// Live sets after the whole batch applied.
    total: usize,
    /// The update is durably committed and applied, but post-commit
    /// policy maintenance failed — the route must still answer
    /// success, flagged degraded (see
    /// [`ApplyReceipt::maintenance_error`](silkmoth_storage::ApplyReceipt)).
    maintenance_error: Option<String>,
}

/// What an update route needs to render its response.
#[derive(Debug)]
struct AppliedUpdate {
    outcome: UpdateOutcome,
    /// Live sets after the update.
    total: usize,
    /// Durable mode: the update committed and applied but post-commit
    /// maintenance failed — rendered as `"degraded": true`, never as
    /// an error status (a retry would duplicate the update).
    degraded: bool,
}

/// Why a queued update failed.
#[derive(Debug)]
enum GroupCommitError {
    /// The update was invalid against the engine state it would have
    /// applied to. It was never WAL-logged; the rest of its batch is
    /// unaffected.
    Update(UpdateError),
    /// The batch's commit or apply failed — shared by every update in
    /// the batch, none of which was acknowledged.
    Storage(Arc<StorageError>),
}

/// How request log lines are rendered (`serve --log-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// `request id=42 route=/search status=200 duration_ms=1.234 …`
    Text,
    /// One JSON object per line, same fields.
    Json,
}

/// Where request log lines go. Defaults to stderr; tests inject a
/// capturing sink.
#[derive(Clone)]
struct LogSink(Arc<dyn Fn(&str) + Send + Sync>);

impl std::fmt::Debug for LogSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LogSink(..)")
    }
}

impl Default for LogSink {
    fn default() -> Self {
        Self(Arc::new(|line| eprintln!("{line}")))
    }
}

/// What a handler reports back to the instrumented request wrapper:
/// the shard fan-out, whether any query timed out, and — only when
/// slow-query logging is armed — the parsed specs, for the slow-query
/// log line.
#[derive(Debug, Default)]
struct RequestInfo {
    /// Shards the request scattered across (search/discover routes).
    shards: Option<usize>,
    /// True when any query in the request timed out cooperatively.
    timed_out: bool,
    /// Specs rendered for slow-query logging (empty unless armed).
    specs: Vec<Json>,
    /// The request's span collector, present only when this request
    /// can end up in the trace ring (sampled, or slow-query capture is
    /// armed); handlers hang query/shard/phase spans off it.
    trace: Option<TraceCollector>,
}

/// Completed traces the ring retains (`GET /debug/traces`). At the
/// typical few-KB per trace this bounds the ring's memory near a
/// megabyte regardless of traffic.
const TRACE_RING_CAPACITY: usize = 256;

/// The service's place in a replication topology. Everything starts as
/// a standalone primary; `serve --replicate-from` flips to the
/// follower role ([`crate::replication::start_follower`]) and
/// `POST /promote` flips back.
#[derive(Debug)]
enum ReplicationRole {
    /// Accepts writes.
    Primary,
    /// Read-only: update routes answer `409` naming `primary`;
    /// replicated records land through the sink instead.
    Follower {
        primary: String,
        shared: Arc<FollowerShared>,
    },
}

/// Shared service state: the engine (plus its store, in durable mode)
/// and cumulative observability counters for `GET /stats`.
#[derive(Debug)]
pub struct SearchService {
    backend: RwLock<Backend>,
    /// Role in the replication topology (primary unless tailing).
    replication: Mutex<ReplicationRole>,
    /// Live connections on the attached replication log listener, when
    /// one is serving (`--replicate-addr`) — independent of role, so a
    /// chained follower reports its downstream count too.
    follower_gauge: Mutex<Option<Arc<AtomicUsize>>>,
    /// Notified at the durable store's commit point; what replication
    /// streamers block on instead of polling. Idle on ephemeral
    /// services.
    commit_signal: Arc<CommitSignal>,
    /// Group-commit queue for durable updates (idle on ephemeral
    /// services).
    commit_queue: CommitQueue,
    /// The WAL retention floor installed on the durable store, kept
    /// here so a bootstrap store replacement re-installs it.
    retention_hook: Mutex<Option<silkmoth_storage::RetentionHook>>,
    /// Ephemeral-mode auto-compaction (durable mode: the policy lives
    /// in the store's `StoreConfig` so auto-actions are WAL-logged).
    policy: CompactionPolicy,
    /// `Some(n)`: at most n updates admitted concurrently (holding or
    /// waiting for the write lock); the rest get 503.
    max_inflight_updates: Option<usize>,
    /// `Some(n)`: `POST /sets` answers a named 403 once the collection
    /// would hold more than n live sets (catalog quota).
    max_sets: Option<usize>,
    /// `Some(n)`: `POST /sets` answers a named 403 once live element
    /// text would exceed n bytes (catalog quota).
    max_bytes: Option<u64>,
    /// The catalog collection this service serves, when it is one of a
    /// catalog's tenants: query trace spans carry it as a `collection`
    /// attribute. `None` on a standalone (or default) service keeps
    /// those spans byte-identical to the single-tenant server's.
    collection: Option<String>,
    /// Whole-request wall-clock budget for `/search` and
    /// `/search/batch`: execution is capped cooperatively at this
    /// deadline and an expired request answers `504`.
    search_timeout: Option<Duration>,
    inflight_updates: AtomicUsize,
    searches: AtomicU64,
    discoveries: AtomicU64,
    updates: AtomicU64,
    /// Ephemeral-mode policy compactions (durable mode reports the
    /// store's own counter).
    auto_compactions: AtomicU64,
    /// Cumulative pass stats per shard, merged in after every request.
    shard_stats: Vec<Mutex<PassStats>>,
    /// The `/metrics` registry and its recording handles.
    metrics: ServiceMetrics,
    /// When the service started, for `/healthz` uptime.
    started: Instant,
    /// Monotonic request id source for log correlation.
    request_ids: AtomicU64,
    /// `Some`: one structured log line per request.
    log_format: Option<LogFormat>,
    /// `Some(ms)`: searches slower than this log their full specs.
    slow_query_ms: Option<u64>,
    log_sink: LogSink,
    /// The request-trace ring (`GET /debug/traces`): slow queries are
    /// always captured, `--trace-sample` captures 1-in-N of the rest.
    tracer: Arc<Tracer>,
}

impl SearchService {
    /// Wraps an engine in fresh ephemeral (in-memory only) service
    /// state.
    pub fn new(engine: ShardedEngine) -> Self {
        Self::with_backend(Backend::Ephemeral(engine))
    }

    /// Wraps a durable store: every update route WAL-logs before
    /// acknowledging, `POST /snapshot` checkpoints, and the store's
    /// own policy drives auto-compaction/auto-snapshots.
    pub fn durable(store: Store<ShardedEngine>) -> Self {
        Self::with_backend(Backend::Durable(store))
    }

    fn with_backend(mut backend: Backend) -> Self {
        let shard_stats = (0..backend.engine().shard_count())
            .map(|_| Mutex::new(PassStats::default()))
            .collect();
        let commit_signal = Arc::new(CommitSignal::new());
        let metrics = ServiceMetrics::new();
        if let Backend::Durable(store) = &mut backend {
            commit_signal.seed(store.status().update_seq);
            store.set_commit_hook(commit_signal.hook());
            store.set_telemetry_hook(store_telemetry_hook(&metrics));
        }
        Self {
            backend: RwLock::new(backend),
            replication: Mutex::new(ReplicationRole::Primary),
            follower_gauge: Mutex::new(None),
            commit_signal,
            commit_queue: CommitQueue::default(),
            retention_hook: Mutex::new(None),
            policy: CompactionPolicy::DISABLED,
            max_inflight_updates: None,
            max_sets: None,
            max_bytes: None,
            collection: None,
            search_timeout: None,
            inflight_updates: AtomicUsize::new(0),
            searches: AtomicU64::new(0),
            discoveries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            auto_compactions: AtomicU64::new(0),
            shard_stats,
            metrics,
            started: Instant::now(),
            request_ids: AtomicU64::new(0),
            log_format: None,
            slow_query_ms: None,
            log_sink: LogSink::default(),
            tracer: Arc::new(Tracer::new(TRACE_RING_CAPACITY)),
        }
    }

    /// Auto-compaction policy for the **ephemeral** backend (checked
    /// after every update). In durable mode set the policy in the
    /// store's `StoreConfig` instead, so policy actions are WAL-logged
    /// like any other update; a policy set here is then ignored.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds how many update requests may be in flight (applying, or
    /// queued on the engine write lock) at once; beyond `n` (clamped
    /// to ≥ 1), update routes answer `503` with a `Retry-After` header
    /// instead of queuing unboundedly.
    pub fn with_max_inflight_updates(mut self, n: usize) -> Self {
        self.max_inflight_updates = Some(n.max(1));
        self
    }

    /// Bounds how many live sets this collection may hold: a
    /// `POST /sets` that would push past `n` answers a named `403`
    /// without touching the engine (catalog `max_sets` quota).
    pub fn with_max_sets(mut self, n: usize) -> Self {
        self.max_sets = Some(n);
        self
    }

    /// Bounds the live element-text bytes this collection may hold:
    /// a `POST /sets` that would push past `n` bytes answers a named
    /// `403` (catalog `max_bytes` quota). The live total is only
    /// computed when this bound is set.
    pub fn with_max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }

    /// Swaps in a pre-built metric bundle — how a catalog gives each
    /// collection's service `collection`-labelled families on one
    /// shared registry ([`ServiceMetrics::for_collection`]). The
    /// bundle's collection name (if any) also becomes the `collection`
    /// attribute on query trace spans. On a durable backend the store's
    /// telemetry hook is re-wired to the new cells.
    pub fn with_metrics(mut self, metrics: ServiceMetrics) -> Self {
        if let Backend::Durable(store) = &mut *self
            .backend
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
        {
            store.set_telemetry_hook(store_telemetry_hook(&metrics));
        }
        self.collection = metrics.collection().map(str::to_owned);
        self.metrics = metrics;
        self
    }

    /// Bounds how long one `/search` or `/search/batch` request may
    /// run. The deadline is enforced cooperatively inside the engine's
    /// ordered filter/verify loop (capped together with any per-query
    /// `deadline_ms` the spec carries); a request that exhausts the
    /// whole budget answers `504` instead of partial results — a
    /// per-query `deadline_ms` that expires on its own still answers
    /// `200` with `"timed_out": true`.
    pub fn with_search_timeout(mut self, timeout: Duration) -> Self {
        self.search_timeout = Some(timeout);
        self
    }

    /// Turns on structured request logging: one line per request
    /// (`serve --log-format`). Off by default.
    pub fn with_log_format(mut self, format: LogFormat) -> Self {
        self.log_format = Some(format);
        self
    }

    /// Logs the full spec of any search request slower than `ms`
    /// milliseconds (`serve --slow-query-ms`). Independent of
    /// [`with_log_format`](Self::with_log_format); slow-query lines
    /// render as text unless a format says otherwise.
    pub fn with_slow_query_ms(mut self, ms: u64) -> Self {
        self.slow_query_ms = Some(ms);
        self
    }

    /// Redirects log lines (tests capture them; the default sink is
    /// stderr).
    pub fn with_log_sink(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.log_sink = LogSink(Arc::new(sink));
        self
    }

    /// Samples 1-in-`n` requests into the trace ring served on
    /// `GET /debug/traces` (`serve --trace-sample`). `0` — the default
    /// — turns sampling off; requests at or over the
    /// [`with_slow_query_ms`](Self::with_slow_query_ms) threshold are
    /// captured regardless.
    pub fn with_trace_sample(self, n: u64) -> Self {
        self.tracer.set_sample(n);
        self
    }

    /// The service's metric bundle (what `GET /metrics` renders).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The request-trace ring (what `GET /debug/traces` serves).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Read access to the engine being served (shared with in-flight
    /// searches; blocks while an update holds the write lock).
    pub fn engine(&self) -> EngineGuard<'_> {
        EngineGuard(self.backend.read().expect("engine lock poisoned"))
    }

    /// Runs `f` against the durable store under the read lock; `None`
    /// on an ephemeral service.
    pub(crate) fn read_durable<R>(&self, f: impl FnOnce(&Store<ShardedEngine>) -> R) -> Option<R> {
        match &*self.backend.read().expect("engine lock poisoned") {
            Backend::Durable(store) => Some(f(store)),
            Backend::Ephemeral(_) => None,
        }
    }

    /// Runs `f` against the durable store under the **write** lock —
    /// how replicated records land without passing the follower
    /// read-only check; `None` on an ephemeral service.
    pub(crate) fn with_durable_store<R>(
        &self,
        f: impl FnOnce(&mut Store<ShardedEngine>) -> R,
    ) -> Option<R> {
        match &mut *self.backend.write().expect("engine lock poisoned") {
            Backend::Durable(store) => Some(f(store)),
            Backend::Ephemeral(_) => None,
        }
    }

    /// Swaps in a replacement durable store (a follower installing a
    /// bootstrap snapshot), rewiring the commit signal to it. False on
    /// an ephemeral service (nothing replaced).
    pub(crate) fn replace_durable_store(&self, mut store: Store<ShardedEngine>) -> bool {
        let mut backend = self.backend.write().expect("engine lock poisoned");
        if !matches!(&*backend, Backend::Durable(_)) {
            return false;
        }
        // Under the write lock no commit hook can fire concurrently,
        // so the unconditional reset is safe (the new store may sit at
        // a *lower* seq than a diverged local history did).
        self.commit_signal.reset(store.status().update_seq);
        store.set_commit_hook(self.commit_signal.hook());
        store.set_telemetry_hook(store_telemetry_hook(&self.metrics));
        if let Some(hook) = &*self
            .retention_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            store.set_retention_hook(hook.clone());
        }
        *backend = Backend::Durable(store);
        true
    }

    /// The signal notified at every durable commit (what replication
    /// streamers block on).
    pub(crate) fn commit_signal(&self) -> &Arc<CommitSignal> {
        &self.commit_signal
    }

    /// Installs the WAL segment retention floor on the durable store —
    /// sealed segments a replication cursor still needs are kept until
    /// the cursor moves past them. The hook survives a bootstrap store
    /// replacement (it is re-installed by `replace_durable_store`).
    /// No-op on an ephemeral service.
    pub fn set_wal_retention(&self, hook: silkmoth_storage::RetentionHook) {
        let mut backend = self.backend.write().expect("engine lock poisoned");
        if let Backend::Durable(store) = &mut *backend {
            store.set_retention_hook(hook.clone());
        }
        drop(backend);
        *self
            .retention_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(hook);
    }

    /// Marks this service a follower of `primary` (updates answer 409
    /// until [`POST /promote`](Self::promote)).
    pub(crate) fn set_role_follower(&self, primary: String, shared: Arc<FollowerShared>) {
        *self.replication.lock().expect("replication lock poisoned") =
            ReplicationRole::Follower { primary, shared };
    }

    /// Attaches the live follower-connection gauge of a replication
    /// log listener, so `/stats` can report it.
    pub fn set_follower_gauge(&self, gauge: Arc<AtomicUsize>) {
        *self.follower_gauge.lock().expect("gauge lock poisoned") = Some(gauge);
    }

    /// Admits one update, or `None` when the in-flight bound is
    /// reached.
    fn admit_update(&self) -> Option<InflightGuard<'_>> {
        let Some(max) = self.max_inflight_updates else {
            return Some(InflightGuard(None));
        };
        let mut current = self.inflight_updates.load(Ordering::Relaxed);
        loop {
            if current >= max {
                return None;
            }
            match self.inflight_updates.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(InflightGuard(Some(&self.inflight_updates))),
                Err(observed) => current = observed,
            }
        }
    }

    /// Routes one request. Pure request → response, so it is directly
    /// testable without a socket. Wraps the private route dispatch
    /// with the observability layer: request id, in-flight gauge,
    /// per-route counter + latency histogram, and (when configured) the
    /// structured log line.
    pub fn handle(&self, req: &Request) -> Response {
        let id = self.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let path = req.path.split('?').next().unwrap_or("");
        let route = canonical_route(path);
        let mut info = RequestInfo::default();
        // Capture decision up front: requests that can't end up in the
        // ring (not sampled, slow-query capture unarmed) never build a
        // collector — the whole cost of tracing for them is the one
        // fetch-add inside should_sample.
        let sampled = self.tracer.should_sample();
        let sink = if sampled || self.slow_query_ms.is_some() {
            info.trace = Some(TraceCollector::begin(id, route));
            Some(trace::install_sink())
        } else {
            None
        };
        let start = Instant::now();
        self.metrics.inflight().add(1);
        let resp = self.dispatch(req, path, &mut info);
        self.metrics.inflight().sub(1);
        let elapsed = start.elapsed();
        self.metrics.observe_request(route, resp.status, elapsed);
        let slow = self
            .slow_query_ms
            .is_some_and(|limit| elapsed.as_secs_f64() * 1e3 >= limit as f64);
        if let Some(mut collector) = info.trace.take() {
            if sampled || slow {
                if let Some(sink) = &sink {
                    // Storage/group-commit spans emitted on this thread
                    // during dispatch hang off the root.
                    for span in sink.drain() {
                        collector.add_pending(trace::ROOT, span);
                    }
                }
                self.tracer.record(collector.finish(resp.status, slow));
            }
        }
        drop(sink);
        self.log_request(id, route, resp.status, elapsed, &info);
        resp.with_header("X-Request-Id", id.to_string())
    }

    fn dispatch(&self, req: &Request, path: &str, info: &mut RequestInfo) -> Response {
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/stats") => self.stats(),
            ("GET", "/metrics") => self.metrics_page(),
            ("GET", "/debug/traces") => self.debug_traces(req),
            ("POST", "/search") => self.search(&req.body, info),
            ("POST", "/search/batch") => self.search_batch(&req.body, info),
            ("POST", "/discover") => self.discover(&req.body, info),
            ("POST", "/sets") => self.append(&req.body),
            ("DELETE", "/sets") => self.remove(&req.body),
            ("POST", "/compact") => self.compact(),
            ("POST", "/snapshot") => self.snapshot(),
            ("POST", "/promote") => self.promote(),
            (
                _,
                "/healthz" | "/stats" | "/metrics" | "/debug/traces" | "/search" | "/search/batch"
                | "/discover" | "/sets" | "/compact" | "/snapshot" | "/promote",
            ) => error_response(405, "method not allowed for this route"),
            _ => error_response(404, "no such route"),
        }
    }

    /// One structured line per request (when configured), plus the
    /// slow-query line carrying the full specs of a search that blew
    /// the `--slow-query-ms` budget.
    fn log_request(
        &self,
        id: u64,
        route: &str,
        status: u16,
        elapsed: Duration,
        info: &RequestInfo,
    ) {
        let ms = elapsed.as_secs_f64() * 1e3;
        if let Some(format) = self.log_format {
            // `trace` repeats the request id on purpose: it is the
            // correlation key shared with the `X-Request-Id` response
            // header and the trace ring, so grepping a client-reported
            // id hits logs and `/debug/traces?id=` alike.
            let line = match format {
                LogFormat::Text => format!(
                    "request id={id} trace={id} route={route} status={status} \
                     duration_ms={ms:.3} shards={} timed_out={}",
                    info.shards.map_or_else(|| "-".into(), |n| n.to_string()),
                    info.timed_out,
                ),
                LogFormat::Json => obj(vec![
                    ("event", Json::Str("request".into())),
                    ("id", Json::Num(id as f64)),
                    ("trace", Json::Num(id as f64)),
                    ("route", Json::Str(route.into())),
                    ("status", Json::Num(f64::from(status))),
                    ("duration_ms", Json::Num(ms)),
                    (
                        "shards",
                        info.shards.map_or(Json::Null, |n| Json::Num(n as f64)),
                    ),
                    ("timed_out", Json::Bool(info.timed_out)),
                ])
                .to_string(),
            };
            (self.log_sink.0)(&line);
        }
        let slow = self.slow_query_ms.is_some_and(|limit| ms >= limit as f64);
        if slow {
            for spec in &info.specs {
                let line = match self.log_format.unwrap_or(LogFormat::Text) {
                    LogFormat::Text => {
                        format!("slow_query id={id} route={route} duration_ms={ms:.3} spec={spec}")
                    }
                    LogFormat::Json => obj(vec![
                        ("event", Json::Str("slow_query".into())),
                        ("id", Json::Num(id as f64)),
                        ("route", Json::Str(route.into())),
                        ("duration_ms", Json::Num(ms)),
                        ("spec", spec.clone()),
                    ])
                    .to_string(),
                };
                (self.log_sink.0)(&line);
            }
        }
    }

    /// `GET /metrics`: refresh the poll-style families (replication
    /// status, follower count), then render the page.
    fn metrics_page(&self) -> Response {
        {
            let role = self
                .replication
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let ReplicationRole::Follower { shared, .. } = &*role {
                self.metrics.record_follower(&shared.status());
            }
        }
        if let Some(gauge) = self
            .follower_gauge
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            self.metrics
                .set_followers(gauge.load(Ordering::Relaxed) as i64);
        }
        self.metrics
            .set_uptime_secs(self.started.elapsed().as_secs());
        Response::text(200, silkmoth_telemetry::CONTENT_TYPE, self.metrics.render())
    }

    /// `GET /debug/traces`: the retained trace ring as JSON, oldest
    /// first, optionally filtered with `?route=/search`, `?min_ms=N`
    /// (whole-request duration floor), and `?id=N` (one request id).
    fn debug_traces(&self, req: &Request) -> Response {
        let query = req.path.split_once('?').map_or("", |(_, q)| q);
        let mut route_filter: Option<&str> = None;
        let mut min_us = 0u64;
        let mut id_filter: Option<u64> = None;
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "route" => route_filter = Some(value),
                "min_ms" => match value.parse::<u64>() {
                    Ok(ms) => min_us = ms.saturating_mul(1000),
                    Err(_) => return error_response(400, "min_ms must be whole milliseconds"),
                },
                "id" => match value.parse::<u64>() {
                    Ok(id) => id_filter = Some(id),
                    Err(_) => return error_response(400, "id must be a request id"),
                },
                other => {
                    return error_response(
                        400,
                        &format!("unknown query parameter '{other}' (route, min_ms, id)"),
                    )
                }
            }
        }
        let traces: Vec<_> = self
            .tracer
            .snapshot()
            .into_iter()
            .filter(|t| {
                route_filter.is_none_or(|r| t.route == r)
                    && t.dur_us >= min_us
                    && id_filter.is_none_or(|id| t.id == id)
            })
            .collect();
        Response::json(200, trace::render_traces(&traces))
    }

    fn healthz(&self) -> Response {
        // Role first, backend second — promote locks in that order too
        // (never hold the backend lock while taking the role lock).
        let (role, follower_state) = {
            let role = self.replication.lock().expect("replication lock poisoned");
            match &*role {
                ReplicationRole::Primary => ("primary", None),
                ReplicationRole::Follower { shared, .. } => {
                    ("follower", Some(shared.status().state.as_str()))
                }
            }
        };
        let backend = self.backend.read().expect("engine lock poisoned");
        let engine = backend.engine();
        // Followers report the replicated store's seq, primaries their
        // own; ephemeral services (no WAL) report the request-level
        // update count instead so the field always moves on writes.
        let update_seq = match &*backend {
            Backend::Durable(store) => store.status().update_seq,
            Backend::Ephemeral(_) => self.updates.load(Ordering::Relaxed),
        };
        let mut fields = vec![
            ("status", Json::Str("ok".into())),
            ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
            (
                "uptime_secs",
                Json::Num(self.started.elapsed().as_secs() as f64),
            ),
            (
                "durable",
                Json::Bool(matches!(*backend, Backend::Durable(_))),
            ),
            ("role", Json::Str(role.into())),
            ("update_seq", Json::Num(update_seq as f64)),
            ("shards", Json::Num(engine.shard_count() as f64)),
            ("sets", Json::Num(engine.len() as f64)),
        ];
        if let Some(state) = follower_state {
            // Always 200: a follower retrying an unreachable primary is
            // alive and serving reads; the state says what it's doing.
            fields.push(("replication_state", Json::Str(state.into())));
        }
        Response::json(200, obj(fields).to_string())
    }

    /// The `replication` section of `/stats`: role, lag, and the log
    /// listener's live follower count when one is attached.
    fn replication_json(&self) -> Json {
        let followers = self
            .follower_gauge
            .lock()
            .expect("gauge lock poisoned")
            .as_ref()
            .map(|g| g.load(Ordering::Relaxed));
        let role = self.replication.lock().expect("replication lock poisoned");
        let mut fields = match &*role {
            ReplicationRole::Primary => vec![("role".to_owned(), Json::Str("primary".into()))],
            ReplicationRole::Follower { primary, shared } => {
                let st = shared.status();
                vec![
                    ("role".to_owned(), Json::Str("follower".into())),
                    ("primary".to_owned(), Json::Str(primary.clone())),
                    ("state".to_owned(), Json::Str(st.state.as_str().into())),
                    ("applied_seq".to_owned(), Json::Num(st.applied_seq as f64)),
                    ("primary_seq".to_owned(), Json::Num(st.primary_seq as f64)),
                    ("lag".to_owned(), Json::Num(st.lag() as f64)),
                    ("connects".to_owned(), Json::Num(st.connects as f64)),
                    ("bootstraps".to_owned(), Json::Num(st.bootstraps as f64)),
                    (
                        "last_error".to_owned(),
                        st.last_error.map_or(Json::Null, Json::Str),
                    ),
                ]
            }
        };
        if let Some(n) = followers {
            fields.push(("followers".to_owned(), Json::Num(n as f64)));
        }
        Json::Obj(fields)
    }

    fn stats(&self) -> Response {
        let replication = self.replication_json();
        // Recover from poison instead of panicking: PassStats is plain
        // counters, so the worst a poisoned merge leaves behind is one
        // request's missing increments — not worth failing /stats over.
        let per_shard: Vec<PassStats> = self
            .shard_stats
            .iter()
            .map(|m| *m.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let (sizes, total, slots, storage, auto_compactions) = {
            let backend = self.backend.read().expect("engine lock poisoned");
            let engine = backend.engine();
            let (storage, auto) = match &*backend {
                Backend::Ephemeral(_) => (None, self.auto_compactions.load(Ordering::Relaxed)),
                Backend::Durable(store) => {
                    let status = store.status();
                    let storage = obj(vec![
                        ("snapshot_seq", Json::Num(status.snapshot_seq as f64)),
                        ("wal_records", Json::Num(status.wal_records as f64)),
                        ("wal_segments", Json::Num(f64::from(status.wal_segments))),
                        ("update_seq", Json::Num(status.update_seq as f64)),
                        ("epoch", Json::Num(status.epoch as f64)),
                        ("last_fsync_ok", Json::Bool(status.last_fsync_ok)),
                        ("auto_snapshots", Json::Num(status.auto_snapshots as f64)),
                        (
                            "auto_compactions",
                            Json::Num(status.auto_compactions as f64),
                        ),
                    ]);
                    (Some(storage), status.auto_compactions)
                }
            };
            (
                engine.shard_sizes(),
                engine.len(),
                engine.slot_count(),
                storage,
                auto,
            )
        };
        let shards_json: Vec<Json> = per_shard
            .iter()
            .zip(&sizes)
            .map(|(stats, &sets)| {
                let mut o = stats_json_pairs(stats);
                o.insert(0, ("sets".to_owned(), Json::Num(sets as f64)));
                Json::Obj(o)
            })
            .collect();
        let mut fields = vec![
            (
                "requests",
                obj(vec![
                    (
                        "search",
                        Json::Num(self.searches.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "discover",
                        Json::Num(self.discoveries.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "update",
                        Json::Num(self.updates.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            ("sets", Json::Num(total as f64)),
            ("slots", Json::Num(slots as f64)),
            ("auto_compactions", Json::Num(auto_compactions as f64)),
        ];
        if let Some(storage) = storage {
            fields.push(("storage", storage));
        }
        fields.push(("replication", replication));
        fields.push(("shards", Json::Arr(shards_json)));
        fields.push((
            "merged",
            Json::Obj(stats_json_pairs(&merge_stats(&per_shard))),
        ));
        Response::json(200, obj(fields).to_string())
    }

    /// The whole-request deadline for a search arriving now, when
    /// `--search-timeout-ms` is configured.
    fn request_deadline(&self, start: Instant) -> Option<Instant> {
        self.search_timeout.map(|t| start + t)
    }

    /// True when the whole-request budget is exhausted: the response
    /// must be the `504`, not partial results.
    fn request_expired(&self, start: Instant) -> bool {
        self.search_timeout.is_some_and(|t| start.elapsed() >= t)
    }

    fn search(&self, body: &[u8], info: &mut RequestInfo) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(resp) => return resp,
        };
        let spec = match spec_from_json(&doc) {
            Ok(spec) => spec,
            Err(msg) => return error_response(400, &msg),
        };
        if self.slow_query_ms.is_some() {
            info.specs.push(spec_to_json(&spec));
        }
        let start = Instant::now();
        let trace_start = info.trace.as_ref().map(TraceCollector::now_us);
        let out = self
            .engine()
            .execute_until(&spec, self.request_deadline(start));
        let executed = start.elapsed();
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.accumulate(&out.shard_stats);
        self.metrics.observe_phases(&out.merged_timing());
        self.metrics.observe_funnel(&out.merged_stats());
        if let (Some(trace), Some(at)) = (info.trace.as_mut(), trace_start) {
            record_query_spans(trace, &out, at, executed, self.collection.as_deref());
        }
        info.shards = Some(out.shard_timings.len());
        info.timed_out = out.timed_out;
        if self.request_expired(start) {
            return search_timeout_response();
        }
        Response::json(200, query_output_json(&spec, &out).to_string())
    }

    fn search_batch(&self, body: &[u8], info: &mut RequestInfo) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(resp) => return resp,
        };
        let queries = match doc.get("queries").and_then(Json::as_array) {
            Some(q) if !q.is_empty() => q,
            _ => {
                return error_response(
                    400,
                    "'queries' must be a non-empty array of query spec objects",
                )
            }
        };
        let mut specs = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match spec_from_json(q) {
                Ok(spec) => specs.push(spec),
                Err(msg) => return error_response(400, &format!("queries[{i}]: {msg}")),
            }
        }
        if self.slow_query_ms.is_some() {
            info.specs.extend(specs.iter().map(spec_to_json));
        }
        let start = Instant::now();
        let trace_start = info.trace.as_ref().map(TraceCollector::now_us);
        let outs = self
            .engine()
            .execute_batch_until(&specs, self.request_deadline(start));
        self.searches
            .fetch_add(specs.len() as u64, Ordering::Relaxed);
        for out in &outs {
            self.accumulate(&out.shard_stats);
            self.metrics.observe_phases(&out.merged_timing());
            self.metrics.observe_funnel(&out.merged_stats());
            info.timed_out |= out.timed_out;
            // The batch executes as one engine call, so per-query wall
            // windows are not observable here; each query span borrows
            // the batch's start and its own worst-shard phase sum.
            if let (Some(trace), Some(at)) = (info.trace.as_mut(), trace_start) {
                record_query_spans(
                    trace,
                    out,
                    at,
                    out.merged_timing().total(),
                    self.collection.as_deref(),
                );
            }
        }
        info.shards = outs.first().map(|out| out.shard_timings.len());
        if self.request_expired(start) {
            return search_timeout_response();
        }
        let outputs: Vec<Json> = specs
            .iter()
            .zip(&outs)
            .map(|(spec, out)| query_output_json(spec, out))
            .collect();
        Response::json(200, obj(vec![("outputs", Json::Arr(outputs))]).to_string())
    }

    fn discover(&self, body: &[u8], info: &mut RequestInfo) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(resp) => return resp,
        };
        let refs_json = match doc.get("references").and_then(Json::as_array) {
            Some(r) if !r.is_empty() => r,
            _ => {
                return error_response(
                    400,
                    "'references' must be a non-empty array of element-string arrays",
                )
            }
        };
        let mut references: Vec<Vec<String>> = Vec::with_capacity(refs_json.len());
        for (i, r) in refs_json.iter().enumerate() {
            match string_array(Some(r), "references") {
                Ok(set) => references.push(set),
                Err(_) => {
                    return error_response(
                        400,
                        &format!("references[{i}] must be a non-empty array of strings"),
                    )
                }
            }
        }
        let start = Instant::now();
        let trace_start = info.trace.as_ref().map(TraceCollector::now_us);
        let out = self.engine().discover(&references);
        let executed = start.elapsed();
        self.discoveries.fetch_add(1, Ordering::Relaxed);
        self.accumulate(&out.shard_stats);
        self.metrics.observe_funnel(&out.merged_stats());
        if let (Some(trace), Some(at)) = (info.trace.as_mut(), trace_start) {
            let stats = out.merged_stats();
            let span = trace.add_span(trace::ROOT, "discover", at, executed);
            funnel_attrs(trace, span, &stats);
        }
        info.shards = Some(out.shard_stats.len());
        let pairs: Vec<Json> = out
            .pairs
            .iter()
            .map(|p| {
                obj(vec![
                    ("r", Json::Num(f64::from(p.r))),
                    ("s", Json::Num(f64::from(p.s))),
                    ("score", Json::Num(p.score)),
                ])
            })
            .collect();
        Response::json(
            200,
            obj(vec![
                ("pairs", Json::Arr(pairs)),
                ("stats", Json::Obj(stats_json_pairs(&out.merged_stats()))),
            ])
            .to_string(),
        )
    }

    /// Applies one update through the backend — group-committed to the
    /// WAL first in durable mode, with the ephemeral compaction policy
    /// applied afterwards in ephemeral mode. Returns the outcome, the
    /// post-update live set count, and the maintenance-degraded flag,
    /// or the ready-to-send error response.
    fn apply_update(&self, update: Update) -> Result<AppliedUpdate, Response> {
        if let Some(resp) = self.reject_if_follower() {
            return Err(resp);
        }
        let Some(_admitted) = self.admit_update() else {
            return Err(overloaded_response());
        };
        let durable = matches!(
            &*self.backend.read().expect("engine lock poisoned"),
            Backend::Durable(_)
        );
        let applied = if durable {
            match self.group_commit(update) {
                Ok(receipt) => {
                    if let Some(why) = &receipt.maintenance_error {
                        // The update is durable and applied; only the
                        // policy's post-commit maintenance failed.
                        (self.log_sink.0)(&format!(
                            "maintenance_degraded update_committed=true error={why}"
                        ));
                    }
                    AppliedUpdate {
                        outcome: receipt.outcome,
                        total: receipt.total,
                        degraded: receipt.maintenance_error.is_some(),
                    }
                }
                Err(GroupCommitError::Update(e)) => return Err(update_error_response(e)),
                Err(GroupCommitError::Storage(e)) => return Err(storage_error_response(&e)),
            }
        } else {
            let mut backend = self.backend.write().expect("engine lock poisoned");
            let Backend::Ephemeral(engine) = &mut *backend else {
                unreachable!("a service never changes from ephemeral to durable");
            };
            let outcome = engine.apply(update).map_err(update_error_response)?;
            if self
                .policy
                .should_compact(engine.len(), engine.slot_count())
            {
                engine.apply(Update::Compact).expect("compact cannot fail");
                self.auto_compactions.fetch_add(1, Ordering::Relaxed);
            }
            AppliedUpdate {
                outcome,
                total: engine.len(),
                degraded: false,
            }
        };
        self.updates.fetch_add(1, Ordering::Relaxed);
        Ok(applied)
    }

    /// Commits one update through the group-commit queue, blocking
    /// until a leader (possibly this thread) has made it durable and
    /// applied it.
    fn group_commit(&self, update: Update) -> Result<GroupReceipt, GroupCommitError> {
        let enqueued = Instant::now();
        let slot = Arc::new(UpdateSlot::default());
        self.commit_queue
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(QueuedUpdate {
                update,
                slot: Arc::clone(&slot),
            });
        let mut leading = self
            .commit_queue
            .leading
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                // A previous leader batched this update in: the whole
                // enqueue→completion window was spent waiting on it.
                trace::emit("group_commit_wait", enqueued.elapsed(), Vec::new());
                return result;
            }
            if !*leading {
                *leading = true;
                drop(leading);
                let guard = LeaderGuard {
                    queue: &self.commit_queue,
                };
                let led = Instant::now();
                self.lead_commit();
                trace::emit("group_commit_lead", led.elapsed(), Vec::new());
                drop(guard); // resign + wake the batch's waiters
                return slot
                    .take()
                    .expect("the leader completes every drained slot");
            }
            leading = self
                .commit_queue
                .wakeup
                .wait(leading)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains the pending queue once (as the current leader) and
    /// commits it as one or more batches. [`Update::Compact`] is a
    /// batch barrier: the store requires it committed alone, and the
    /// updates behind it must be validated against the post-compaction
    /// engine (compaction drops tombstoned gids for good).
    fn lead_commit(&self) {
        // Classic group-commit window: give contending writers one
        // scheduler beat to enqueue before the drain. When nothing
        // else is runnable this is nearly free; when writers are
        // contending it grows the batch, and every update added here
        // rides an fsync that was being paid anyway.
        std::thread::yield_now();
        let drained = std::mem::take(
            &mut *self
                .commit_queue
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let mut group: Vec<QueuedUpdate> = Vec::with_capacity(drained.len());
        for queued in drained {
            if matches!(queued.update, Update::Compact) {
                if !group.is_empty() {
                    self.commit_group(std::mem::take(&mut group));
                }
                self.commit_group(vec![queued]);
            } else {
                group.push(queued);
            }
        }
        if !group.is_empty() {
            self.commit_group(group);
        }
    }

    /// Commits one batch. Phase 1 under the **shared** engine lock:
    /// validate each update against the batch's virtual engine state
    /// and make the accepted ones durable with one WAL write + one
    /// fsync — searches keep executing through the fsync. Phase 2
    /// under the write lock: apply the committed records to the engine
    /// in WAL order, then run policy maintenance. The leader lock
    /// (held by the caller) keeps rotations and other batches from
    /// interleaving between the phases.
    fn commit_group(&self, group: Vec<QueuedUpdate>) {
        let fail_all = |slots: &[Arc<UpdateSlot>], e: StorageError| {
            let shared = Arc::new(e);
            for slot in slots {
                slot.complete(Err(GroupCommitError::Storage(Arc::clone(&shared))));
            }
        };
        // Phase 1: validate + durable commit, under the read lock.
        let (batch, slots) = {
            let backend = self.backend.read().expect("engine lock poisoned");
            let Backend::Durable(store) = &*backend else {
                let slots: Vec<_> = group.into_iter().map(|q| q.slot).collect();
                fail_all(
                    &slots,
                    StorageError::BadState("group commit on an ephemeral service".into()),
                );
                return;
            };
            let engine = store.engine();
            // Validate each update against the state it will apply to:
            // appends advance a virtual next-gid, so a Remove may name
            // a gid appended earlier in the same batch; engine removes
            // are idempotent per gid, so an earlier Remove never
            // invalidates a later one. A rejected update is never
            // logged and does not fail its batch.
            let engine_next = engine.next_gid();
            let mut virtual_next = engine_next;
            let mut updates = Vec::with_capacity(group.len());
            let mut slots = Vec::with_capacity(group.len());
            for queued in group {
                let valid = match &queued.update {
                    Update::Append(sets) => {
                        virtual_next += sets.len() as SetIdx;
                        Ok(())
                    }
                    Update::Remove(gids) => gids
                        .iter()
                        .find(|&&gid| {
                            gid >= virtual_next || (gid < engine_next && !engine.has_gid(gid))
                        })
                        .map_or(Ok(()), |&bad| Err(UpdateError::NoSuchSet(bad))),
                    Update::Compact => Ok(()),
                };
                match valid {
                    Ok(()) => {
                        updates.push(queued.update);
                        slots.push(queued.slot);
                    }
                    Err(e) => queued.slot.complete(Err(GroupCommitError::Update(e))),
                }
            }
            if updates.is_empty() {
                return;
            }
            match store.commit_batch(updates) {
                Ok(batch) => (batch, slots),
                Err(e) => {
                    fail_all(&slots, e);
                    return;
                }
            }
        };
        // Phase 2: apply + maintain, under the write lock.
        let mut backend = self.backend.write().expect("engine lock poisoned");
        let applied = {
            let Backend::Durable(store) = &mut *backend else {
                unreachable!("backend flavor cannot change while the leader lock is held");
            };
            match store.apply_committed(batch) {
                Ok(outcomes) => {
                    let report = store.maintain();
                    Ok((outcomes, report, store.engine().len()))
                }
                Err(e) => Err(e),
            }
        };
        drop(backend);
        match applied {
            Ok((outcomes, report, total)) => {
                for (slot, outcome) in slots.iter().zip(outcomes) {
                    slot.complete(Ok(GroupReceipt {
                        outcome,
                        total,
                        maintenance_error: report.error.clone(),
                    }));
                }
            }
            Err(e) => fail_all(&slots, e),
        }
    }

    fn append(&self, body: &[u8]) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(resp) => return resp,
        };
        let sets_json = match doc.get("sets").and_then(Json::as_array) {
            Some(s) if !s.is_empty() => s,
            _ => {
                return error_response(
                    400,
                    "'sets' must be a non-empty array of element-string arrays",
                )
            }
        };
        let mut sets: Vec<Vec<String>> = Vec::with_capacity(sets_json.len());
        for (i, s) in sets_json.iter().enumerate() {
            match string_array(Some(s), "sets") {
                Ok(set) => sets.push(set),
                Err(_) => {
                    return error_response(
                        400,
                        &format!("sets[{i}] must be a non-empty array of strings"),
                    )
                }
            }
        }
        if let Some(resp) = self.reject_over_quota(&sets) {
            return resp;
        }
        let done = match self.apply_update(Update::Append(sets)) {
            Ok(done) => done,
            Err(resp) => return resp,
        };
        let appended: Vec<Json> = done
            .outcome
            .appended
            .iter()
            .map(|&gid| Json::Num(f64::from(gid)))
            .collect();
        let mut fields = vec![
            ("appended", Json::Arr(appended)),
            ("sets", Json::Num(done.total as f64)),
        ];
        if done.degraded {
            fields.push(("degraded", Json::Bool(true)));
        }
        Response::json(200, obj(fields).to_string())
    }

    fn remove(&self, body: &[u8]) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(resp) => return resp,
        };
        let ids_json = match doc.get("ids").and_then(Json::as_array) {
            Some(ids) if !ids.is_empty() => ids,
            _ => return error_response(400, "'ids' must be a non-empty array of set ids"),
        };
        let mut ids = Vec::with_capacity(ids_json.len());
        for v in ids_json {
            match v.as_usize() {
                Some(id) if id <= u32::MAX as usize => ids.push(id as u32),
                _ => return error_response(400, "'ids' must contain non-negative set ids"),
            }
        }
        let done = match self.apply_update(Update::Remove(ids)) {
            Ok(done) => done,
            Err(resp) => return resp,
        };
        let mut fields = vec![
            ("removed", Json::Num(done.outcome.removed as f64)),
            ("sets", Json::Num(done.total as f64)),
        ];
        if done.degraded {
            fields.push(("degraded", Json::Bool(true)));
        }
        Response::json(200, obj(fields).to_string())
    }

    fn compact(&self) -> Response {
        let done = match self.apply_update(Update::Compact) {
            Ok(done) => done,
            Err(resp) => return resp,
        };
        let mut fields = vec![("sets", Json::Num(done.total as f64))];
        if done.degraded {
            fields.push(("degraded", Json::Bool(true)));
        }
        Response::json(200, obj(fields).to_string())
    }

    fn snapshot(&self) -> Response {
        let Some(_admitted) = self.admit_update() else {
            return overloaded_response();
        };
        // Leadership first: a rotation must never interleave between
        // a group's WAL commit and its engine apply — a snapshot cut
        // there would record a seq the engine hasn't reached.
        let _leader = self.commit_queue.lead();
        let mut backend = self.backend.write().expect("engine lock poisoned");
        match &mut *backend {
            Backend::Ephemeral(_) => error_response(
                409,
                "server is not durable; restart with --data-dir to enable snapshots",
            ),
            Backend::Durable(store) => match store.snapshot() {
                Ok(seq) => Response::json(
                    200,
                    obj(vec![("snapshot_seq", Json::Num(seq as f64))]).to_string(),
                ),
                Err(e) => storage_error_response(&e),
            },
        }
    }

    /// The catalog quota gate for `POST /sets`: a named `403` when the
    /// append would push the collection past its `max_sets` or
    /// `max_bytes` bound, `None` otherwise. Quotas are admission
    /// checks, not invariants — two concurrent appends may both pass
    /// and land the collection slightly over the line; the *next*
    /// append is then rejected, which is the boundedness a tenant quota
    /// is for.
    fn reject_over_quota(&self, sets: &[Vec<String>]) -> Option<Response> {
        if self.max_sets.is_none() && self.max_bytes.is_none() {
            return None;
        }
        let engine = self.engine();
        if let Some(max) = self.max_sets {
            let after = engine.len() + sets.len();
            if after > max {
                return Some(error_response(
                    403,
                    &format!(
                        "collection set quota exceeded: {after} live sets would pass the \
                         max_sets={max} bound"
                    ),
                ));
            }
        }
        if let Some(max) = self.max_bytes {
            let incoming: u64 = sets
                .iter()
                .flat_map(|s| s.iter())
                .map(|e| e.len() as u64)
                .sum();
            let after = engine.text_bytes() + incoming;
            if after > max {
                return Some(error_response(
                    403,
                    &format!(
                        "collection byte quota exceeded: {after} bytes of element text \
                         would pass the max_bytes={max} bound"
                    ),
                ));
            }
        }
        None
    }

    /// This collection's entry in the catalog's per-collection `/stats`
    /// and `/healthz` sections: live sets, slot count, shard count, the
    /// update sequence, and (durable backends) the storage status.
    /// Recovers from lock poison — a summary section must never take
    /// down the whole stats page over one tenant's panicked writer.
    pub(crate) fn collection_summary_json(&self) -> Json {
        let backend = self.backend.read().unwrap_or_else(PoisonError::into_inner);
        let engine = backend.engine();
        let update_seq = match &*backend {
            Backend::Durable(store) => store.status().update_seq,
            Backend::Ephemeral(_) => self.updates.load(Ordering::Relaxed),
        };
        let mut fields = vec![
            ("sets".to_owned(), Json::Num(engine.len() as f64)),
            ("slots".to_owned(), Json::Num(engine.slot_count() as f64)),
            ("shards".to_owned(), Json::Num(engine.shard_count() as f64)),
            ("update_seq".to_owned(), Json::Num(update_seq as f64)),
            (
                "durable".to_owned(),
                Json::Bool(matches!(*backend, Backend::Durable(_))),
            ),
        ];
        if let Backend::Durable(store) = &*backend {
            let status = store.status();
            fields.push((
                "storage".to_owned(),
                obj(vec![
                    ("snapshot_seq", Json::Num(status.snapshot_seq as f64)),
                    ("wal_records", Json::Num(status.wal_records as f64)),
                    ("wal_segments", Json::Num(f64::from(status.wal_segments))),
                    ("last_fsync_ok", Json::Bool(status.last_fsync_ok)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// The follower read-only rejection for external update routes
    /// (`None` in the primary role). Replicated records bypass this by
    /// landing through [`with_durable_store`](Self::with_durable_store).
    pub(crate) fn reject_if_follower(&self) -> Option<Response> {
        let role = self.replication.lock().expect("replication lock poisoned");
        match &*role {
            ReplicationRole::Primary => None,
            ReplicationRole::Follower { primary, .. } => Some(error_response(
                409,
                &format!(
                    "read-only follower; send writes to the primary replicating from {primary}"
                ),
            )),
        }
    }

    /// `POST /promote`: stop tailing, durably bump the store's
    /// failover epoch, and start accepting writes. 409 when already
    /// primary. The epoch bump is what prevents a stale follower of
    /// the *old* primary from silently resuming a diverged cursor
    /// against this server.
    fn promote(&self) -> Response {
        let mut role = self.replication.lock().expect("replication lock poisoned");
        let shared = match &*role {
            ReplicationRole::Primary => return error_response(409, "already primary"),
            ReplicationRole::Follower { shared, .. } => Arc::clone(shared),
        };
        shared.stop();
        if !shared.wait_exited(Duration::from_secs(10)) {
            return error_response(500, "follower loop did not stop in time; retry");
        }
        // Same order as group commit and /snapshot: leadership before
        // the write lock (the epoch bump rotates the WAL).
        let _leader = self.commit_queue.lead();
        let mut backend = self.backend.write().expect("engine lock poisoned");
        match &mut *backend {
            Backend::Durable(store) => match store.bump_epoch() {
                Ok(epoch) => {
                    let update_seq = store.status().update_seq;
                    drop(backend);
                    *role = ReplicationRole::Primary;
                    Response::json(
                        200,
                        obj(vec![
                            ("role", Json::Str("primary".into())),
                            ("epoch", Json::Num(epoch as f64)),
                            ("update_seq", Json::Num(update_seq as f64)),
                        ])
                        .to_string(),
                    )
                }
                Err(e) => storage_error_response(&e),
            },
            // Follower role implies a durable backend, but don't panic
            // on the impossible combination.
            Backend::Ephemeral(_) => {
                error_response(409, "service is not durable; nothing to promote")
            }
        }
    }

    fn accumulate(&self, per_shard: &[PassStats]) {
        for (mutex, stats) in self.shard_stats.iter().zip(per_shard) {
            mutex
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge(stats);
        }
    }
}

/// Binds `addr` and serves `engine` on `threads` HTTP workers; every
/// search request additionally scatters across the engine's shards on
/// scoped threads. Shut down gracefully with [`HttpServer::shutdown`]
/// or block with [`HttpServer::wait`].
pub fn serve<A: ToSocketAddrs>(
    engine: ShardedEngine,
    addr: A,
    threads: usize,
) -> io::Result<HttpServer> {
    serve_service(Arc::new(SearchService::new(engine)), addr, threads)
}

/// Binds `addr` and serves an already-configured service (durable
/// backend, backpressure bounds, policies) on `threads` HTTP workers.
pub fn serve_service<A: ToSocketAddrs>(
    service: Arc<SearchService>,
    addr: A,
    threads: usize,
) -> io::Result<HttpServer> {
    http::serve(addr, threads, move |req: &Request| service.handle(req))
}

pub(crate) fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| error_response(400, "request body is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| error_response(400, &format!("request body: {e}")))?;
    if matches!(doc, Json::Obj(_)) {
        Ok(doc)
    } else {
        Err(error_response(400, "request body must be a JSON object"))
    }
}

fn string_array(v: Option<&Json>, field: &str) -> Result<Vec<String>, Response> {
    let items = v.and_then(Json::as_array).ok_or_else(|| {
        error_response(
            400,
            &format!("'{field}' must be a non-empty array of strings"),
        )
    })?;
    if items.is_empty() {
        return Err(error_response(
            400,
            &format!("'{field}' must be a non-empty array of strings"),
        ));
    }
    items
        .iter()
        .map(|e| e.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| error_response(400, &format!("'{field}' must contain only strings")))
}

/// Renders one executed spec's output: `results`, the `timed_out`
/// flag, and — governed by the spec's `stats` / `explain` flags — the
/// merged pass counters and per-hit explanations.
fn query_output_json(spec: &QuerySpec, out: &ShardedQueryOutput) -> Json {
    let results: Vec<Json> = out
        .hits
        .iter()
        .map(|&(set, score)| {
            obj(vec![
                ("set", Json::Num(f64::from(set))),
                ("score", Json::Num(score)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("results", Json::Arr(results)),
        ("timed_out", Json::Bool(out.timed_out)),
    ];
    if spec.want_stats() {
        fields.push(("stats", Json::Obj(stats_json_pairs(&out.merged_stats()))));
    }
    if spec.want_explain() {
        let explain: Vec<Json> = out
            .explanations
            .iter()
            .map(|(set, expl)| explanation_json(*set, expl))
            .collect();
        fields.push(("explain", Json::Arr(explain)));
    }
    if spec.want_timing() {
        // Microsecond integers: per-phase worst shard (element-wise
        // max across shards — phases overlap in wall time, so summing
        // per-shard durations would overstate).
        let t = out.merged_timing();
        let us = |d: Duration| d.as_micros() as f64;
        // total is the sum of the three REPORTED integers, not a
        // separately truncated Duration sum — the invariant
        // total_us == stage_us + verify_us + explain_us must hold
        // exactly for whoever diffs the log against the page.
        fields.push((
            "timing",
            obj(vec![
                ("stage_us", Json::Num(us(t.stage))),
                ("verify_us", Json::Num(us(t.verify))),
                ("explain_us", Json::Num(us(t.explain))),
                (
                    "total_us",
                    Json::Num(us(t.stage) + us(t.verify) + us(t.explain)),
                ),
            ]),
        ));
    }
    obj(fields)
}

/// The whole-request expiry: the server-side `--search-timeout-ms`
/// budget ran out before the request finished.
fn search_timeout_response() -> Response {
    error_response(504, "search deadline exceeded (--search-timeout-ms)")
}

pub(crate) fn error_response(status: u16, msg: &str) -> Response {
    Response::json(
        status,
        obj(vec![("error", Json::Str(msg.into()))]).to_string(),
    )
}

/// The backpressure rejection: the client should retry shortly.
fn overloaded_response() -> Response {
    error_response(503, "too many updates in flight; retry shortly").with_header("Retry-After", "1")
}

fn update_error_response(e: UpdateError) -> Response {
    match e {
        UpdateError::NoSuchSet(_) => error_response(404, &e.to_string()),
    }
}

/// A storage failure means the update was NOT durably acknowledged.
fn storage_error_response(e: &StorageError) -> Response {
    error_response(500, &format!("storage: {e}"))
}

/// The one storage-layer hook, fanning each [`StoreEvent`] into the
/// metric cells *and* the calling thread's trace sink. The store keeps
/// exactly one hook, so both consumers must share it; the trace side is
/// a no-op on threads with no sink installed (unsampled requests,
/// background maintenance).
fn store_telemetry_hook(metrics: &ServiceMetrics) -> TelemetryHook {
    let cells = metrics.storage_hook();
    TelemetryHook::new(move |event| {
        cells.fire(event);
        match event {
            StoreEvent::CommitBatch {
                records,
                write,
                sync,
            } => {
                trace::emit(
                    "wal_write",
                    write,
                    vec![("records", AttrValue::U64(records))],
                );
                trace::emit("wal_fsync", sync, Vec::new());
            }
            StoreEvent::Snapshot | StoreEvent::AutoSnapshot => {
                trace::emit("snapshot", Duration::ZERO, Vec::new());
            }
            StoreEvent::AutoCompaction => trace::emit("compaction", Duration::ZERO, Vec::new()),
        }
    })
}

/// Attaches the paper's filter-funnel counters as span attributes —
/// the per-request twin of the `silkmoth_query_filter_survivors_total`
/// metric family.
fn funnel_attrs(trace: &mut TraceCollector, span: SpanId, stats: &PassStats) {
    trace.attr_u64(span, "candidates", stats.candidates as u64);
    trace.attr_u64(span, "after_check", stats.after_check as u64);
    trace.attr_u64(span, "after_nn", stats.after_nn as u64);
    trace.attr_u64(span, "verified", stats.verified as u64);
    trace.attr_u64(span, "results", stats.results as u64);
    trace.attr_u64(span, "sim_evals", stats.sim_evals);
    trace.attr_u64(span, "signature_cost", stats.signature_cost);
}

/// Places one executed query on the request's trace: a `query` span
/// carrying the merged filter-funnel attributes, a `shard` child per
/// shard, and `stage`/`verify`(/`explain`) grandchildren from that
/// shard's [`PhaseTiming`]. Phase starts are reconstructed
/// sequentially — stage → verify → explain is the engine's actual
/// execution order inside one shard.
fn record_query_spans(
    trace: &mut TraceCollector,
    out: &ShardedQueryOutput,
    start_us: u64,
    dur: Duration,
    collection: Option<&str>,
) {
    let stats = out.merged_stats();
    let query = trace.add_span(trace::ROOT, "query", start_us, dur);
    funnel_attrs(trace, query, &stats);
    if let Some(name) = collection {
        trace.attr(query, "collection", AttrValue::Str(name.to_owned()));
    }
    trace.attr(query, "timed_out", AttrValue::Bool(out.timed_out));
    for (id, (timing, stats)) in out.shard_timings.iter().zip(&out.shard_stats).enumerate() {
        let shard = trace.add_span(query, "shard", start_us, timing.total());
        trace.attr_u64(shard, "shard", id as u64);
        trace.attr_u64(shard, "candidates", stats.candidates as u64);
        trace.attr_u64(shard, "verified", stats.verified as u64);
        let verify_at = start_us + timing.stage.as_micros() as u64;
        trace.add_span(shard, "stage", start_us, timing.stage);
        trace.add_span(shard, "verify", verify_at, timing.verify);
        if !timing.explain.is_zero() {
            let explain_at = verify_at + timing.verify.as_micros() as u64;
            trace.add_span(shard, "explain", explain_at, timing.explain);
        }
    }
}

/// [`PassStats`] as ordered JSON object fields.
fn stats_json_pairs(stats: &PassStats) -> Vec<(String, Json)> {
    let num = |v: f64| Json::Num(v);
    vec![
        ("candidates".into(), num(stats.candidates as f64)),
        ("after_check".into(), num(stats.after_check as f64)),
        ("after_nn".into(), num(stats.after_nn as f64)),
        ("verified".into(), num(stats.verified as f64)),
        ("results".into(), num(stats.results as f64)),
        ("sim_evals".into(), num(stats.sim_evals as f64)),
        ("reduced_pairs".into(), num(stats.reduced_pairs as f64)),
        ("signature_cost".into(), num(stats.signature_cost as f64)),
        ("degenerate".into(), num(f64::from(stats.degenerate))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_core::{EngineConfig, RelatednessMetric};
    use silkmoth_storage::StoreConfig;
    use silkmoth_text::SimilarityFunction;

    fn corpus() -> Vec<Vec<String>> {
        (0..20)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect()
    }

    fn engine_cfg() -> EngineConfig {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.5,
            0.0,
        )
    }

    fn service() -> SearchService {
        SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
    }

    fn post(service: &SearchService, path: &str, body: &str) -> (u16, Json) {
        let req = Request::new("POST", path, body.as_bytes().to_vec());
        let resp = service.handle(&req);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, doc)
    }

    fn get(service: &SearchService, path: &str) -> (u16, Json) {
        let req = Request::new("GET", path, Vec::new());
        let resp = service.handle(&req);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, doc)
    }

    #[test]
    fn healthz_reports_shape() {
        let s = service();
        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("durable"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("shards").and_then(Json::as_usize), Some(3));
        assert_eq!(doc.get("sets").and_then(Json::as_usize), Some(20));
        assert_eq!(
            doc.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(doc.get("uptime_secs").and_then(Json::as_usize).is_some());
        // Ephemeral services count request-level updates as their seq.
        assert_eq!(doc.get("update_seq").and_then(Json::as_usize), Some(0));
        post(&s, "/sets", r#"{"sets": [["seq marker"]]}"#);
        let (_, doc) = get(&s, "/healthz");
        assert_eq!(doc.get("update_seq").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn metrics_page_matches_golden_file() {
        // A fresh service's first scrape is fully deterministic: the
        // declared HTTP families are header-only (the scrape itself is
        // observed after rendering), the in-flight gauge reads 1 (this
        // request), and every histogram is empty. Pinning the whole
        // page pins family order, HELP text, bucket bounds, and the
        // exposition syntax at once. Regenerate with
        // `BLESS_GOLDEN_METRICS=1 cargo test -p silkmoth-server`.
        let s = service();
        let req = Request::new("GET", "/metrics", Vec::new());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, silkmoth_telemetry::CONTENT_TYPE);
        let body = std::str::from_utf8(&resp.body).unwrap();
        let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/golden_metrics.txt");
        if std::env::var_os("BLESS_GOLDEN_METRICS").is_some() {
            std::fs::write(golden_path, body).unwrap();
        }
        assert_eq!(
            body,
            include_str!("golden_metrics.txt"),
            "exposition format drifted; re-bless with BLESS_GOLDEN_METRICS=1 if intended"
        );
        // The page must also satisfy the same parser + lint CI runs.
        let families = silkmoth_telemetry::expo::parse_text(body).expect("page parses");
        assert_eq!(
            silkmoth_telemetry::expo::lint(None, &families),
            Vec::<String>::new()
        );
    }

    #[test]
    fn metrics_track_requests_phases_and_lint_clean_across_scrapes() {
        let s = service();
        post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        post(&s, "/nope", "");
        let first = {
            let resp = s.handle(&Request::new("GET", "/metrics", Vec::new()));
            String::from_utf8(resp.body).unwrap()
        };
        assert!(
            first.contains("silkmoth_http_requests_total{route=\"/search\",status=\"200\"} 1"),
            "{first}"
        );
        assert!(
            first.contains("silkmoth_http_requests_total{route=\"other\",status=\"404\"} 1"),
            "{first}"
        );
        assert!(
            first.contains("silkmoth_query_phase_duration_seconds_count{phase=\"stage\"} 1"),
            "{first}"
        );
        // A second scrape (after more traffic) must pass the
        // two-scrape lint: counters only move forward.
        post(&s, "/search", r#"{"reference": ["w2 w3 shared1"]}"#);
        let second = {
            let resp = s.handle(&Request::new("GET", "/metrics", Vec::new()));
            String::from_utf8(resp.body).unwrap()
        };
        let prev = silkmoth_telemetry::expo::parse_text(&first).unwrap();
        let cur = silkmoth_telemetry::expo::parse_text(&second).unwrap();
        assert_eq!(
            silkmoth_telemetry::expo::lint(Some(&prev), &cur),
            Vec::<String>::new()
        );
    }

    #[test]
    fn phase_timings_fit_inside_the_route_histogram() {
        // With one shard the three phases are disjoint slices of the
        // query's wall time, and the route histogram brackets the whole
        // request — so summed phase seconds can never exceed summed
        // /search seconds. (Multi-shard timings are per-phase maxima
        // across overlapping shards, where this inequality is not
        // guaranteed; hence the 1-shard service.)
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 1).unwrap());
        for _ in 0..5 {
            let (status, _) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"], "k": 5}"#);
            assert_eq!(status, 200);
        }
        let page = s.metrics().render();
        let families = silkmoth_telemetry::expo::parse_text(&page).unwrap();
        let sum_of = |family: &str, sample: &str| -> f64 {
            families
                .iter()
                .find(|f| f.name == family)
                .unwrap_or_else(|| panic!("{family} missing"))
                .samples
                .iter()
                .filter(|s| s.name == sample)
                .map(|s| s.value)
                .sum()
        };
        let phases = sum_of(
            "silkmoth_query_phase_duration_seconds",
            "silkmoth_query_phase_duration_seconds_sum",
        );
        let route = sum_of(
            "silkmoth_http_request_duration_seconds",
            "silkmoth_http_request_duration_seconds_sum",
        );
        assert!(phases > 0.0, "no phase time recorded:\n{page}");
        assert!(
            phases <= route,
            "phase seconds {phases} exceed route seconds {route}:\n{page}"
        );
    }

    #[test]
    fn request_logging_emits_one_line_per_request_and_slow_specs() {
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_log_format(LogFormat::Json)
            .with_slow_query_ms(0) // everything is "slow": specs always log
            .with_log_sink(move |line| sink.lock().unwrap().push(line.to_owned()));
        post(&s, "/search", r#"{"reference": ["w0 w1 shared0"], "k": 2}"#);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let request = Json::parse(&lines[0]).expect("request line is JSON");
        assert_eq!(request.get("event").and_then(Json::as_str), Some("request"));
        assert_eq!(request.get("id").and_then(Json::as_usize), Some(1));
        assert_eq!(request.get("trace").and_then(Json::as_usize), Some(1));
        assert_eq!(request.get("route").and_then(Json::as_str), Some("/search"));
        assert_eq!(request.get("status").and_then(Json::as_usize), Some(200));
        assert_eq!(request.get("shards").and_then(Json::as_usize), Some(3));
        assert_eq!(request.get("timed_out"), Some(&Json::Bool(false)));
        assert!(request.get("duration_ms").and_then(Json::as_f64).is_some());
        let slow = Json::parse(&lines[1]).expect("slow-query line is JSON");
        assert_eq!(slow.get("event").and_then(Json::as_str), Some("slow_query"));
        let spec = slow.get("spec").expect("slow line carries the full spec");
        assert_eq!(spec.get("k").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn text_logging_renders_one_line_and_respects_the_slow_threshold() {
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_log_format(LogFormat::Text)
            .with_slow_query_ms(60_000) // nothing in this test is slow
            .with_log_sink(move |line| sink.lock().unwrap().push(line.to_owned()));
        post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        get(&s, "/healthz");
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].starts_with("request id=1 trace=1 route=/search status=200 duration_ms="),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].ends_with("shards=3 timed_out=false"),
            "{}",
            lines[0]
        );
        // Routes without a fan-out log a placeholder, not a fake count.
        assert!(lines[1].contains("route=/healthz"), "{}", lines[1]);
        assert!(lines[1].contains("shards=-"), "{}", lines[1]);
    }

    #[test]
    fn timing_section_appears_only_when_asked() {
        let s = service();
        let (status, doc) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 200);
        assert!(doc.get("timing").is_none());
        let (status, doc) = post(
            &s,
            "/search",
            r#"{"reference": ["w0 w1 shared0"], "timing": true}"#,
        );
        assert_eq!(status, 200, "{doc}");
        let timing = doc.get("timing").expect("timing section");
        let total = timing.get("total_us").and_then(Json::as_usize).unwrap();
        let parts: usize = ["stage_us", "verify_us", "explain_us"]
            .iter()
            .map(|f| timing.get(f).and_then(Json::as_usize).unwrap())
            .sum();
        assert_eq!(total, parts);
    }

    #[test]
    fn search_roundtrip_and_stats_accumulate() {
        let s = service();
        let (status, doc) = post(
            &s,
            "/search",
            r#"{"reference": ["w0 w1 shared0", "w3 w4 shared0"], "k": 5, "floor": 0.2}"#,
        );
        assert_eq!(status, 200, "{doc}");
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        assert!(!results.is_empty());
        // Scores are sorted descending under k.
        let scores: Vec<f64> = results
            .iter()
            .map(|r| r.get("score").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        // /stats saw the pass.
        let (_, stats) = get(&s, "/stats");
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("search"))
                .and_then(Json::as_usize),
            Some(1)
        );
        let merged = stats.get("merged").unwrap();
        assert!(merged.get("candidates").and_then(Json::as_usize).unwrap() > 0);
        assert_eq!(
            stats.get("shards").and_then(Json::as_array).map(<[_]>::len),
            Some(3)
        );
        // Ephemeral services report no storage section.
        assert!(stats.get("storage").is_none());
        assert_eq!(stats.get("slots").and_then(Json::as_usize), Some(20));
    }

    #[test]
    fn discover_roundtrip() {
        let s = service();
        let (status, doc) = post(
            &s,
            "/discover",
            r#"{"references": [["w0 w1 shared0", "w3 w4 shared0"], ["nothing matches this"]]}"#,
        );
        assert_eq!(status, 200, "{doc}");
        let pairs = doc.get("pairs").and_then(Json::as_array).unwrap();
        assert!(pairs
            .iter()
            .all(|p| p.get("r").is_some() && p.get("s").is_some() && p.get("score").is_some()));
    }

    #[test]
    fn bad_requests_get_400() {
        let s = service();
        for (path, body) in [
            ("/search", "not json"),
            ("/search", "[1,2,3]"),
            ("/search", r#"{"reference": []}"#),
            ("/search", r#"{"reference": [42]}"#),
            ("/search", r#"{"reference": ["a"], "k": -1}"#),
            ("/search", r#"{"reference": ["a"], "k": 1.5}"#),
            ("/search", r#"{"reference": ["a"], "floor": "x"}"#),
            ("/search", r#"{"reference": ["a"], "floor": 1.5}"#),
            ("/discover", r#"{"references": []}"#),
            ("/discover", r#"{"references": [[]]}"#),
            ("/discover", r#"{"references": [["a"], [3]]}"#),
        ] {
            let (status, doc) = post(&s, path, body);
            assert_eq!(status, 400, "{path} {body} → {doc}");
            assert!(doc.get("error").is_some(), "{path} {body}");
        }
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = service();
        assert_eq!(get(&s, "/nope").0, 404);
        assert_eq!(post(&s, "/healthz", "").0, 405);
        assert_eq!(get(&s, "/search").0, 405);
        assert_eq!(get(&s, "/sets").0, 405);
        assert_eq!(get(&s, "/compact").0, 405);
        assert_eq!(get(&s, "/snapshot").0, 405);
        assert_eq!(post(&s, "/metrics", "").0, 405);
        // Query strings are ignored for routing.
        assert_eq!(get(&s, "/healthz?verbose=1").0, 200);
    }

    #[test]
    fn update_routes_mutate_and_validate() {
        let s = service();
        // Malformed update bodies are 400s.
        for (method, body) in [
            ("POST", "not json"),
            ("POST", r#"{"sets": []}"#),
            ("POST", r#"{"sets": [[]]}"#),
            ("POST", r#"{"sets": [["a"], [1]]}"#),
            ("DELETE", r#"{"ids": []}"#),
            ("DELETE", r#"{"ids": [-1]}"#),
            ("DELETE", r#"{"ids": ["x"]}"#),
            ("DELETE", r#"{"ids": [1.5]}"#),
        ] {
            let req = Request::new(method, "/sets", body.as_bytes().to_vec());
            let resp = s.handle(&req);
            assert_eq!(resp.status, 400, "{method} {body}");
        }

        // Append, then search for the new set.
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["unique marker element"]]}"#);
        assert_eq!(status, 200, "{doc}");
        assert_eq!(
            doc.get("appended").and_then(Json::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("sets").and_then(Json::as_usize), Some(21));
        let (_, found) = post(
            &s,
            "/search",
            r#"{"reference": ["unique marker element"], "floor": 0.9}"#,
        );
        let hits = found.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("set").and_then(Json::as_usize), Some(20));

        // Remove it again; unknown ids are a named 404.
        let req = Request::new("DELETE", "/sets", br#"{"ids": [20]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        let req = Request::new("DELETE", "/sets", br#"{"ids": [555]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 404);

        // /stats reflects the update count and the live set count.
        let (_, stats) = get(&s, "/stats");
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("update"))
                .and_then(Json::as_usize),
            Some(2)
        );
        assert_eq!(stats.get("sets").and_then(Json::as_usize), Some(20));
    }

    #[test]
    fn search_reports_timed_out_and_batch_matches_one_by_one() {
        let s = service();
        // One-by-one answers…
        let bodies = [
            r#"{"reference": ["w0 w1 shared0"], "k": 4, "floor": 0.1}"#,
            r#"{"reference": ["w2 w3 shared1", "w4 w0 shared2"], "floor": 0.0, "k": 3}"#,
            r#"{"reference": ["nothing matches this"]}"#,
        ];
        let singles: Vec<Json> = bodies
            .iter()
            .map(|b| {
                let (status, doc) = post(&s, "/search", b);
                assert_eq!(status, 200, "{doc}");
                assert_eq!(doc.get("timed_out"), Some(&Json::Bool(false)));
                doc.get("results").unwrap().clone()
            })
            .collect();
        // …must equal the batch answers for the same specs.
        let batch_body = format!(r#"{{"queries": [{}]}}"#, bodies.join(","));
        let (status, doc) = post(&s, "/search/batch", &batch_body);
        assert_eq!(status, 200, "{doc}");
        let outputs = doc.get("outputs").and_then(Json::as_array).unwrap();
        assert_eq!(outputs.len(), singles.len());
        for (out, single) in outputs.iter().zip(&singles) {
            assert_eq!(out.get("results"), Some(single));
            assert_eq!(out.get("timed_out"), Some(&Json::Bool(false)));
        }
        // The batch counted one search per query.
        let (_, stats) = get(&s, "/stats");
        assert_eq!(
            stats
                .get("requests")
                .and_then(|r| r.get("search"))
                .and_then(Json::as_usize),
            Some(2 * bodies.len())
        );
    }

    #[test]
    fn spec_flags_control_the_response_shape() {
        let s = service();
        // stats off: no stats object in the response.
        let (status, doc) = post(
            &s,
            "/search",
            r#"{"reference": ["w0 w1 shared0"], "stats": false}"#,
        );
        assert_eq!(status, 200, "{doc}");
        assert!(doc.get("stats").is_none());
        assert!(doc.get("results").is_some());
        // explain on: one explanation per hit, aligned.
        let (status, doc) = post(
            &s,
            "/search",
            r#"{"reference": ["w0 w1 shared0"], "k": 3, "floor": 0.0, "explain": true}"#,
        );
        assert_eq!(status, 200, "{doc}");
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        let explain = doc.get("explain").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), explain.len());
        assert!(!results.is_empty());
        for (r, e) in results.iter().zip(explain) {
            assert_eq!(r.get("set"), e.get("set"));
            assert_eq!(e.get("related"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn unsupported_spec_version_and_bad_batch_bodies_are_400s() {
        let s = service();
        let (status, doc) = post(&s, "/search", r#"{"v": 2, "reference": ["a"]}"#);
        assert_eq!(status, 400);
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("version 2"));
        for body in [
            "not json",
            r#"{}"#,
            r#"{"queries": []}"#,
            r#"{"queries": "x"}"#,
            r#"{"queries": [{"reference": []}]}"#,
            r#"{"queries": [{"reference": ["a"]}, {"reference": ["b"], "floor": 7}]}"#,
        ] {
            let (status, doc) = post(&s, "/search/batch", body);
            assert_eq!(status, 400, "{body} → {doc}");
        }
        // The error names the offending batch entry.
        let (_, doc) = post(
            &s,
            "/search/batch",
            r#"{"queries": [{"reference": ["a"]}, {"reference": ["b"], "floor": 7}]}"#,
        );
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("queries[1]"));
    }

    #[test]
    fn per_query_deadline_answers_200_with_timed_out() {
        let s = service();
        // A zero budget expires before any verification: still a 200,
        // with well-formed (empty-prefix) results and the flag set.
        let (status, doc) = post(
            &s,
            "/search",
            r#"{"reference": ["w0 w1 shared0"], "floor": 0.0, "deadline_ms": 0}"#,
        );
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("timed_out"), Some(&Json::Bool(true)));
        assert!(doc.get("results").and_then(Json::as_array).is_some());
    }

    #[test]
    fn whole_request_timeout_is_a_504() {
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_search_timeout(Duration::ZERO);
        let (status, doc) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 504, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--search-timeout-ms"));
        let (status, _) = post(
            &s,
            "/search/batch",
            r#"{"queries": [{"reference": ["w0 w1 shared0"]}]}"#,
        );
        assert_eq!(status, 504);
        // A generous budget answers normally.
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_search_timeout(Duration::from_secs(60));
        let (status, doc) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("timed_out"), Some(&Json::Bool(false)));
    }

    #[test]
    fn search_batch_rejects_other_methods() {
        let s = service();
        assert_eq!(get(&s, "/search/batch").0, 405);
    }

    #[test]
    fn snapshot_on_ephemeral_service_is_a_409() {
        let s = service();
        let (status, doc) = post(&s, "/snapshot", "");
        assert_eq!(status, 409, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--data-dir"));
    }

    #[test]
    fn ephemeral_policy_compacts_automatically() {
        let raw = corpus();
        let s = SearchService::new(ShardedEngine::build(&raw, engine_cfg(), 3).unwrap())
            .with_policy(CompactionPolicy::default().compact_at_dead_ratio(0.2));
        // Removing 4/20 sets crosses the 0.2 dead ratio: the service
        // compacts on its own and /stats shows dense slots again.
        let (status, _) = {
            let req = Request::new("DELETE", "/sets", br#"{"ids": [1, 5, 9, 13]}"#.to_vec());
            let resp = s.handle(&req);
            (resp.status, ())
        };
        assert_eq!(status, 200);
        let (_, stats) = get(&s, "/stats");
        assert_eq!(stats.get("sets").and_then(Json::as_usize), Some(16));
        assert_eq!(
            stats.get("slots").and_then(Json::as_usize),
            Some(16),
            "auto-compaction dropped the tombstones"
        );
        assert_eq!(
            stats.get("auto_compactions").and_then(Json::as_usize),
            Some(1)
        );
        // Global ids survive the auto-compaction (stable-gid guarantee).
        let (status, _) = {
            let req = Request::new("DELETE", "/sets", br#"{"ids": [19]}"#.to_vec());
            (s.handle(&req).status, ())
        };
        assert_eq!(status, 200);
    }

    #[test]
    fn durable_service_logs_snapshots_and_reports_storage_stats() {
        let dir =
            std::env::temp_dir().join(format!("silkmoth-service-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap();
        let store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
        let s = SearchService::durable(store);

        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("durable"), Some(&Json::Bool(true)));

        let (status, doc) = post(&s, "/sets", r#"{"sets": [["durable marker"]]}"#);
        assert_eq!(status, 200, "{doc}");
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").expect("durable stats section");
        assert_eq!(
            storage.get("snapshot_seq").and_then(Json::as_usize),
            Some(0)
        );
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(1));
        assert_eq!(storage.get("last_fsync_ok"), Some(&Json::Bool(true)));

        // Forcing a checkpoint rotates the generation and empties the WAL.
        let (status, doc) = post(&s, "/snapshot", "");
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("snapshot_seq").and_then(Json::as_usize), Some(1));
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(
            storage.get("snapshot_seq").and_then(Json::as_usize),
            Some(1)
        );
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(0));

        // Unknown removes stay named 404s through the durable path (and
        // are not logged: the WAL count is unchanged).
        let req = Request::new("DELETE", "/sets", br#"{"ids": [999]}"#.to_vec());
        assert_eq!(s.handle(&req).status, 404);
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(storage.get("wal_records").and_then(Json::as_usize), Some(0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_on_a_plain_primary_is_a_409() {
        let s = service();
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 409, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("already primary"));
    }

    #[test]
    fn follower_rejects_writes_until_promoted() {
        use crate::replication::{follower_store_config, start_follower};
        use crate::ShardSpec;
        use silkmoth_replica::FollowerConfig;

        let dir =
            std::env::temp_dir().join(format!("silkmoth-service-follower-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap();
        let store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
        let s = Arc::new(SearchService::durable(store));

        // Point the follower loop at a primary that refuses connections:
        // it must retry with backoff and stay alive, not exit.
        let runtime = start_follower(
            Arc::clone(&s),
            "127.0.0.1:9".to_string(),
            ShardSpec {
                cfg: engine_cfg(),
                shards: 3,
            },
            follower_store_config(StoreConfig::default()),
            FollowerConfig {
                backoff_min: Duration::from_millis(2),
                backoff_max: Duration::from_millis(20),
                ..FollowerConfig::default()
            },
        );

        // Health stays 200 with the role and loop state visible.
        let (status, doc) = get(&s, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("follower"));
        assert!(doc.get("replication_state").is_some());

        // Writes are rejected naming the primary; reads still work.
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["nope"]]}"#);
        assert_eq!(status, 409, "{doc}");
        let err = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains("read-only follower") && err.contains("127.0.0.1:9"));
        let (status, _) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 200);

        let (_, stats) = get(&s, "/stats");
        let repl = stats.get("replication").expect("replication stats");
        assert_eq!(repl.get("role").and_then(Json::as_str), Some("follower"));
        assert_eq!(
            repl.get("primary").and_then(Json::as_str),
            Some("127.0.0.1:9")
        );
        assert!(repl.get("lag").is_some());

        // Promote: the loop stops, the epoch bumps durably, writes open.
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));
        assert_eq!(doc.get("epoch").and_then(Json::as_usize), Some(1));
        runtime.handle.join().unwrap();

        let (_, doc) = get(&s, "/healthz");
        assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));
        let (status, doc) = post(&s, "/sets", r#"{"sets": [["now writable"]]}"#);
        assert_eq!(status, 200, "{doc}");
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(storage.get("epoch").and_then(Json::as_usize), Some(1));
        let (status, doc) = post(&s, "/promote", "");
        assert_eq!(status, 409, "{doc}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn every_response_carries_a_request_id_header() {
        let s = service();
        let cases = [
            Request::new("POST", "/search", br#"{"reference": ["w0"]}"#.to_vec()),
            Request::new("GET", "/no/such/route", Vec::new()),
            Request::new("GET", "/search", Vec::new()), // 405
            Request::new("POST", "/search", b"not json".to_vec()), // 400
        ];
        for (i, req) in cases.into_iter().enumerate() {
            let resp = s.handle(&req);
            assert_eq!(
                header(&resp, "X-Request-Id"),
                Some((i + 1).to_string().as_str()),
                "request {} (status {})",
                i + 1,
                resp.status
            );
        }
    }

    #[test]
    fn timeout_504_header_matches_its_log_line() {
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&lines);
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_search_timeout(Duration::ZERO)
            .with_log_format(LogFormat::Text)
            .with_log_sink(move |line| sink.lock().unwrap().push(line.to_owned()));
        let req = Request::new("POST", "/search", br#"{"reference": ["w0"]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 504);
        let id = header(&resp, "X-Request-Id").expect("504 carries the id");
        let lines = lines.lock().unwrap();
        let line = lines
            .iter()
            .find(|l| l.contains("status=504"))
            .expect("the 504 was logged");
        assert!(
            line.contains(&format!("id={id} ")) && line.contains(&format!("trace={id} ")),
            "header id {id} missing from log line: {line}"
        );
    }

    /// The acceptance-criteria pin: a slow-query-captured `/search`
    /// trace shows ≥ 5 distinct span kinds and its funnel attributes
    /// equal that query's `PassStats` from the response; a durable
    /// update's trace carries the WAL write/fsync and group-commit
    /// spans.
    #[test]
    fn slow_query_trace_pins_span_kinds_and_funnel() {
        let dir =
            std::env::temp_dir().join(format!("silkmoth-service-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap();
        let store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
        let s = SearchService::durable(store).with_slow_query_ms(0); // every request is "slow"

        let sets_req = Request::new("POST", "/sets", br#"{"sets": [["w0 w1 traced"]]}"#.to_vec());
        let sets_resp = s.handle(&sets_req);
        assert_eq!(sets_resp.status, 200);
        let sets_id: u64 = header(&sets_resp, "X-Request-Id").unwrap().parse().unwrap();

        let search_req = Request::new(
            "POST",
            "/search",
            br#"{"reference": ["w0 w1 shared0", "w3 w4 shared0"], "floor": 0.2}"#.to_vec(),
        );
        let search_resp = s.handle(&search_req);
        assert_eq!(search_resp.status, 200);
        let search_id: u64 = header(&search_resp, "X-Request-Id")
            .unwrap()
            .parse()
            .unwrap();
        let search_doc = Json::parse(std::str::from_utf8(&search_resp.body).unwrap()).unwrap();
        let stats = search_doc.get("stats").expect("stats in the response");

        let (status, page) = get(&s, "/debug/traces");
        assert_eq!(status, 200);
        assert_eq!(page.get("version").and_then(Json::as_usize), Some(1));
        let traces = page.get("traces").and_then(Json::as_array).unwrap();
        let by_id = |id: u64| {
            traces
                .iter()
                .find(|t| t.get("id").and_then(Json::as_usize) == Some(id as usize))
                .unwrap_or_else(|| panic!("trace {id} captured"))
        };

        // The search trace: root "http" span + ≥ 5 distinct kinds.
        let trace = by_id(search_id);
        assert_eq!(trace.get("route").and_then(Json::as_str), Some("/search"));
        assert_eq!(trace.get("slow"), Some(&Json::Bool(true)));
        let spans = trace.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans[0].get("kind").and_then(Json::as_str), Some("http"));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let kinds: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|sp| sp.get("kind").and_then(Json::as_str))
            .collect();
        for kind in ["http", "query", "shard", "stage", "verify"] {
            assert!(kinds.contains(kind), "missing span kind {kind}: {kinds:?}");
        }
        assert!(kinds.len() >= 5, "{kinds:?}");

        // The query span's funnel attributes equal the response stats.
        let query = spans
            .iter()
            .find(|sp| sp.get("kind").and_then(Json::as_str) == Some("query"))
            .unwrap();
        let attrs = query.get("attrs").unwrap();
        for field in [
            "candidates",
            "after_check",
            "after_nn",
            "verified",
            "results",
            "sim_evals",
            "signature_cost",
        ] {
            assert_eq!(
                attrs.get(field).and_then(Json::as_usize),
                stats.get(field).and_then(Json::as_usize),
                "funnel attr {field} diverges from PassStats"
            );
        }

        // The durable update's trace shows the storage side channel.
        let spans = by_id(sets_id)
            .get("spans")
            .and_then(Json::as_array)
            .unwrap();
        let kinds: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|sp| sp.get("kind").and_then(Json::as_str))
            .collect();
        for kind in ["wal_write", "wal_fsync", "group_commit_lead"] {
            assert!(kinds.contains(kind), "missing span kind {kind}: {kinds:?}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_traces_filters_by_route_duration_and_id() {
        let s = service().with_trace_sample(1); // capture everything
        post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        get(&s, "/healthz");
        post(&s, "/search", r#"{"reference": ["w3 w4 shared0"]}"#);

        let routes = |doc: &Json| -> Vec<String> {
            doc.get("traces")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|t| t.get("route").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let (status, doc) = get(&s, "/debug/traces");
        assert_eq!(status, 200);
        assert_eq!(routes(&doc).len(), 3); // the listing itself isn't in yet
        let (_, doc) = get(&s, "/debug/traces?route=/search");
        assert_eq!(routes(&doc), ["/search", "/search"]);
        let (_, doc) = get(&s, "/debug/traces?id=2");
        let traces = doc.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("route").and_then(Json::as_str),
            Some("/healthz")
        );
        // An hour-long floor filters everything out but stays valid JSON.
        let (_, doc) = get(&s, "/debug/traces?min_ms=3600000");
        assert_eq!(routes(&doc).len(), 0);

        assert_eq!(get(&s, "/debug/traces?min_ms=abc").0, 400);
        assert_eq!(get(&s, "/debug/traces?id=x").0, 400);
        assert_eq!(get(&s, "/debug/traces?bogus=1").0, 400);
        assert_eq!(post(&s, "/debug/traces", "").0, 405);
    }

    /// The differential guarantee: tracing captures observations, it
    /// never changes results. Same corpus + same requests with tracing
    /// at sample=1 vs fully disabled must produce byte-identical
    /// bodies.
    #[test]
    fn tracing_on_vs_off_is_byte_identical() {
        let traced = service().with_trace_sample(1);
        let plain = service();
        let requests = [
            (
                "POST",
                "/search",
                r#"{"reference": ["w0 w1 shared0", "w3 w4 shared0"], "k": 5, "floor": 0.2}"#,
            ),
            (
                "POST",
                "/search/batch",
                r#"{"queries": [{"reference": ["w0 w1 shared0"]}, {"reference": ["w2 w3 shared1"], "k": 3}]}"#,
            ),
            (
                "POST",
                "/discover",
                r#"{"references": [["w0 w1 shared0"], ["w3 w4 shared0"]]}"#,
            ),
            ("GET", "/stats", ""),
        ];
        for (method, path, body) in requests {
            let req = Request::new(method, path, body.as_bytes().to_vec());
            let a = traced.handle(&req);
            let b = plain.handle(&req);
            assert_eq!(a.status, b.status, "{path}");
            assert_eq!(a.body, b.body, "{path}: tracing changed the response body");
        }
        assert!(traced.tracer().recorded() >= 4);
        assert_eq!(plain.tracer().recorded(), 0);
    }

    /// `/debug/traces` JSON survives a hostile reader: the full page
    /// round-trips through the parser, and no truncation or injected
    /// garbage can make parsing panic.
    #[test]
    fn trace_json_roundtrips_and_survives_truncation_fuzz() {
        let mut collector = TraceCollector::begin(7, "/search");
        let query = collector.add_span(trace::ROOT, "query", 5, Duration::from_micros(90));
        collector.attr_u64(query, "candidates", 12);
        collector.attr(query, "note", AttrValue::Str("quote\" slash\\ nl\n".into()));
        collector.attr(query, "ratio", AttrValue::F64(f64::NAN));
        collector.attr(query, "timed_out", AttrValue::Bool(false));
        let trace = Arc::new(collector.finish(200, true));
        let page = trace::render_traces(&[trace]);

        let doc = Json::parse(&page).expect("the page is valid JSON");
        let traces = doc.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(traces[0].get("id").and_then(Json::as_usize), Some(7));
        let spans = traces[0].get("spans").and_then(Json::as_array).unwrap();
        let attrs = spans[1].get("attrs").unwrap();
        assert_eq!(
            attrs.get("note").and_then(Json::as_str),
            Some("quote\" slash\\ nl\n")
        );
        assert_eq!(attrs.get("ratio"), Some(&Json::Null)); // NaN → null
        assert_eq!(attrs.get("candidates").and_then(Json::as_usize), Some(12));

        // Truncation at every char boundary: Err is fine, panic is not.
        for cut in 0..=page.len() {
            if page.is_char_boundary(cut) {
                let _ = Json::parse(&page[..cut]);
            }
        }
        // Injected garbage at a few positions, same rule.
        for (pos, junk) in [
            (0, "\u{0}"),
            (1, "}}]]"),
            (page.len() / 2, "\\u12"),
            (page.len(), "garbage"),
        ] {
            let mut broken = page.clone();
            broken.insert_str(pos, junk);
            let _ = Json::parse(&broken);
        }
    }
}
