//! One collection's core: the routes over a [`ShardedEngine`] owned by
//! a `silkmoth-storage` [`Store`] — on disk behind a WAL, or
//! [in memory](Store::in_memory). Both take the same write path.
//!
//! ## One front, N cores
//!
//! A [`SearchService`] holds what is per **collection** — engine,
//! store, group-commit queue, quotas, cumulative stats,
//! `collection`-labelled metrics — and answers a route given
//! `(method, path, query, body)`. Everything per **process** — request
//! ids, the request log, slow-query capture, the trace ring, uptime,
//! the replication role — lives once, in the front it holds (see
//! `front.rs`), which wraps every response. A
//! [`CatalogService`](crate::catalog::CatalogService) sends `/search`
//! and `/collections/<name>/search` through that same route call and
//! hands the default collection's front to every core it builds. A core
//! built with [`SearchService::new`] / [`SearchService::durable`] owns
//! a private front and [`SearchService::handle`] runs it — the
//! standalone single-collection server.
//!
//! ## Endpoints
//!
//! | Route            | Body                                             | Response |
//! |------------------|--------------------------------------------------|----------|
//! | `POST /search`   | a [`QuerySpec`](silkmoth_core::QuerySpec) object (see [`queryspec`](crate::queryspec)): `{"reference": [elem, …], "k"?, "floor"?, "deadline_ms"?, "stats"?, "explain"?}` | `{"results": [{"set", "score"}, …], "timed_out": b, "stats"?: {…}, "explain"?: […]}` |
//! | `POST /search/batch` | `{"queries": [spec, …]}`                     | `{"outputs": [one per spec, same shape as /search]}` |
//! | `POST /discover` | `{"references": [[elem, …], …]}`                 | `{"pairs": [{"r", "s", "score"}, …], "stats": {…}}` |
//! | `POST /sets`     | `{"sets": [[elem, …], …]}`                       | `{"appended": [id, …], "sets": n}` |
//! | `DELETE /sets`   | `{"ids": [id, …]}`                               | `{"removed": n, "sets": n}` |
//! | `POST /compact`  | —                                                | `{"sets": n}` |
//! | `POST /snapshot` | —                                                | `{"snapshot_seq": n}` (a store on disk; 409 in memory) |
//! | `GET /stats`     | —                                                | request counters, per-shard and merged [`PassStats`], the policy's auto-compactions since the process started, and (on disk) the storage generation |
//! | `GET /healthz`   | —                                                | `{"status": "ok", "durable": b, "role": "primary"\|"follower", "version", "uptime_secs", "update_seq", …}` — `update_seq` is the store's commit sequence, policy compactions included |
//! | `POST /promote`  | —                                                | `{"role": "primary", "epoch", "update_seq"}` — follower failover (409 when already primary) |
//! | `GET /metrics`   | —                                                | the service's metric families in the Prometheus text exposition format |
//! | `GET /debug/traces` | optional `?route=`, `?min_ms=`, `?id=` filters | `{"version": 1, "traces": […]}` — the captured-trace ring, newest-last |
//!
//! The last three are **per-process**: under a catalog they answer the
//! same whatever the scope, and one promotion makes every collection
//! writable. The rest are per-collection.
//!
//! Set ids in responses are **global** (the line number of the set in
//! the served input; appended sets continue the numbering), identical
//! to what one unsharded engine would report, and stable across every
//! update including compaction. `DELETE /sets` is idempotent per id
//! but rejects ids that were never assigned (404). Errors come back as
//! `{"error": "…"}` with a 4xx status, or `504` when a read route
//! outlives the whole-request budget (see *Deadlines*).
//!
//! ## Durability
//!
//! Every update takes one path: admission, group commit, apply,
//! maintain. Concurrent updates **group-commit**: they queue in front
//! of the store, and whichever request thread claims leadership
//! drains the queue and commits the whole batch
//! ([`Store::commit_batch`]), then applies it to the engine in commit
//! order under the write lock. The store's
//! [`CompactionPolicy`](silkmoth_core::CompactionPolicy) may then
//! compact automatically, committed like any other update.
//!
//! With a data directory every update route is **WAL-logged and
//! fsync'd before it is acknowledged** — a 200 means the mutation
//! survives `kill -9` — and a batch costs one buffered WAL write and one
//! fsync, so N concurrent writers pay ~1 fsync, not N. The WAL append
//! itself runs under the *shared* engine lock: searches keep executing
//! through the fsync. `POST /snapshot` forces a checkpoint + WAL
//! rotation, and the policy may also checkpoint automatically. An
//! in-memory store commits by numbering the batch and answers
//! `POST /snapshot` with a 409. A storage failure (disk full, fsync
//! error) is a 500 and the update is *not* acknowledged — with one
//! deliberate exception: when the update itself committed but the
//! *post-commit* policy maintenance (auto-compaction / auto-snapshot)
//! failed, the route still answers 200 with `"degraded": true` and
//! logs the maintenance error, because a 500 would invite a retry of
//! an update that already happened.
//!
//! ## Lock order
//!
//! **Front role → batch leadership → engine lock**, never the other
//! way round; only `POST /promote` holds the role lock across the other
//! two. Between a batch's WAL commit and its engine apply the store's
//! sequence number is ahead of the engine, so whatever pairs the two —
//! a snapshot rotation, an epoch bump, a replication bootstrap cut, a
//! replicated record landing, a store replacement — goes through the
//! one quiesced accessor (`SearchService::quiesced`): leadership,
//! then the write lock.
//!
//! ## Deadlines
//!
//! A per-query `deadline_ms` caps one query's wall-clock budget: on
//! expiry the engine stops cooperatively and answers `200` with
//! `"timed_out": true` and the results proven so far. A server-level
//! [`with_search_timeout`](SearchService::with_search_timeout)
//! (`serve --search-timeout-ms`) additionally bounds the **whole
//! request** on every read route (a batch or a discovery counts as one
//! request); exhausting it answers `504` instead.
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
//! Every request flows through the front's one wrapper: a monotonic
//! request id, an in-flight gauge, and per-route counters + latency
//! histograms in the service's metric bundle served on
//! `GET /metrics`. The three read routes run their specs through one
//! executor, which records **each query** once — a batch of N specs or
//! a discovery of N references as N: its per-shard counters into
//! `/stats`, its phase timing (stage / verify / explain, worst shard
//! per phase) and filter funnel into the metrics, and a `query` span
//! onto the trace. When a spec sets `"timing": true` the response
//! carries the same phase numbers.
//! [`with_log_format`](SearchService::with_log_format) turns on one
//! structured log line per request (text or JSON), and
//! [`with_slow_query_ms`](SearchService::with_slow_query_ms) logs the
//! full spec of any search slower than the threshold.
//!
//! Per-request **traces** ride the same wrapper: every response carries
//! its request id in an `X-Request-Id` header and the log line's
//! `trace` field, and a sampled request
//! ([`with_trace_sample`](SearchService::with_trace_sample), 1-in-N) or
//! any request at/over the slow-query threshold records a hierarchical
//! span tree — http → query → shard → stage/verify, plus group-commit
//! spans, and WAL write/fsync spans on a store on disk — with the
//! paper's filter-funnel survivor counts as span attributes (and a
//! catalog tenant's name), into a bounded in-memory ring served at
//! `GET /debug/traces`. The trace lives on the request's thread while
//! the request runs, so the read path, the group commit and the storage
//! hook each add their spans with one call (`trace::with` or
//! `trace::emit`). A follower traces a sampled apply the same way: a
//! `replica/apply` trace holds the `apply` span and the record's WAL
//! spans.

mod read;
mod status;
mod write;

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use silkmoth_core::PassStats;
use silkmoth_storage::{Store, StoreConfig};

use crate::front::{Front, LogFormat, RequestInfo};
use crate::http::{self, Request, Response};
use crate::json::{obj, Json};
use crate::metrics::{canonical_route, ServiceMetrics};
use crate::replication::CommitSignal;
use crate::shard::ShardedEngine;
use crate::telemetry::trace::Tracer;
use write::CommitQueue;

pub(crate) use status::{page, Fields};

/// Read access to the served engine (returned by
/// [`SearchService::engine`]); dereferences to [`ShardedEngine`] and
/// holds the service's read lock while alive.
#[derive(Debug)]
pub struct EngineGuard<'a>(RwLockReadGuard<'a, Store<ShardedEngine>>);

impl Deref for EngineGuard<'_> {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        self.0.engine()
    }
}

/// One collection's core: the store that owns its engine, its write
/// path and quotas, and cumulative counters for `GET /stats`.
/// Everything per-process lives in the front it holds.
#[derive(Debug)]
pub struct SearchService {
    store: RwLock<Store<ShardedEngine>>,
    /// Request identity, logging, tracing, uptime and the replication
    /// role: private to a standalone service, the default collection's
    /// for every core a catalog builds.
    front: Arc<Front>,
    /// Notified at the store's commit point; what replication streamers
    /// block on instead of polling.
    commit_signal: Arc<CommitSignal>,
    /// Group-commit queue in front of the store.
    commit_queue: CommitQueue,
    /// The WAL retention floor installed on the store, kept
    /// here so a bootstrap store replacement re-installs it.
    retention_hook: Mutex<Option<silkmoth_storage::RetentionHook>>,
    /// `Some(n)`: at most n updates admitted concurrently (holding or
    /// waiting for the write lock); the rest get 503.
    max_inflight_updates: Option<usize>,
    /// `Some(n)`: `POST /sets` answers a named 403 without touching the
    /// engine once the collection would hold more than n live sets
    /// (catalog `max_sets` quota).
    pub(crate) max_sets: Option<usize>,
    /// `Some(n)`: `POST /sets` answers a named 403 once live element
    /// text would exceed n bytes (catalog `max_bytes` quota). The live
    /// total is only computed when this bound is set.
    pub(crate) max_bytes: Option<u64>,
    /// Whole-request wall-clock budget for `/search`, `/search/batch`
    /// and `/discover`: execution is capped cooperatively at this
    /// deadline and an expired request answers `504`.
    search_timeout: Option<Duration>,
    inflight_updates: AtomicUsize,
    searches: AtomicU64,
    discoveries: AtomicU64,
    updates: AtomicU64,
    /// Cumulative pass stats per shard, merged in after every request.
    shard_stats: Vec<Mutex<PassStats>>,
    /// This collection's recording handles on the `/metrics` registry.
    /// A catalog tenant's bundle carries its name, which query trace
    /// spans repeat as a `collection` attribute; the unnamed bundle of
    /// a standalone (or default) service keeps those spans
    /// byte-identical to the single-tenant server's.
    metrics: ServiceMetrics,
}

impl SearchService {
    /// Serves `engine` from an in-memory [`Store`] with no compaction
    /// policy: the write path of a durable service, with no WAL behind
    /// it. [`durable`](Self::durable) over [`Store::in_memory`] takes a
    /// policy.
    pub fn new(engine: ShardedEngine) -> Self {
        Self::durable(Store::in_memory(engine, StoreConfig::default()))
    }

    /// Serves `store`. Every update route commits through it before
    /// acknowledging — WAL-logged when the store has a directory — and
    /// the store's own policy drives auto-compaction (and, on disk,
    /// auto-snapshots); `POST /snapshot` checkpoints a store on disk.
    pub fn durable(store: Store<ShardedEngine>) -> Self {
        let shard_stats = (0..store.engine().shard_count())
            .map(|_| Mutex::new(PassStats::default()))
            .collect();
        let service = Self {
            store: RwLock::new(store),
            front: Arc::new(Front::new()),
            commit_signal: Arc::default(),
            commit_queue: CommitQueue::default(),
            retention_hook: Mutex::new(None),
            max_inflight_updates: None,
            max_sets: None,
            max_bytes: None,
            search_timeout: None,
            inflight_updates: AtomicUsize::new(0),
            searches: AtomicU64::new(0),
            discoveries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            shard_stats,
            metrics: ServiceMetrics::new(),
        };
        service.quiesced(|store| service.wire(store));
        service
    }

    /// Makes `store` this core's store: points the commit signal at its
    /// sequence number and installs the commit, telemetry and retention
    /// hooks. Call it with the store quiesced — under the write lock no
    /// commit hook can fire concurrently, so the unconditional reset is
    /// safe (a bootstrap replacement may sit at a *lower* seq than a
    /// diverged local history did).
    pub(crate) fn wire(&self, store: &mut Store<ShardedEngine>) {
        self.commit_signal.reset(store.status().update_seq);
        store.set_commit_hook(self.commit_signal.hook());
        store.set_telemetry_hook(self.metrics.storage_hook());
        if let Some(hook) = &*self
            .retention_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            store.set_retention_hook(hook.clone());
        }
    }

    /// Bounds how many update requests may be in flight (applying, or
    /// queued on the engine write lock) at once; beyond `n` (clamped
    /// to ≥ 1), update routes answer `503` with a `Retry-After` header
    /// instead of queuing unboundedly.
    pub fn with_max_inflight_updates(mut self, n: usize) -> Self {
        self.max_inflight_updates = Some(n.max(1));
        self
    }

    /// Makes this core one of `default`'s catalog's tenants: it shares
    /// the default collection's front (so its requests are numbered,
    /// logged, slow-captured, traced and role-checked with everyone
    /// else's) and records into `metrics`, the `collection`-labelled
    /// families on the shared registry
    /// ([`ServiceMetrics::for_collection`]).
    pub(crate) fn into_tenant_of(mut self, default: &Self, metrics: ServiceMetrics) -> Self {
        self.front = Arc::clone(&default.front);
        self.metrics = metrics;
        self.quiesced(|store| self.wire(store));
        self
    }

    /// Bounds how long one `/search`, `/search/batch` or `/discover`
    /// request may run. The deadline is enforced cooperatively inside the engine's
    /// ordered filter/verify loop (capped together with any per-query
    /// `deadline_ms` the spec carries); a request that exhausts the
    /// whole budget answers `504` instead of partial results — a
    /// per-query `deadline_ms` that expires on its own still answers
    /// `200` with `"timed_out": true`.
    pub fn with_search_timeout(mut self, timeout: Duration) -> Self {
        self.search_timeout = Some(timeout);
        self
    }

    /// The front, while this service is still being built (the `with_`
    /// methods consume the service, so nothing shares it yet).
    fn front_mut(&mut self) -> &mut Front {
        Arc::get_mut(&mut self.front).expect("the front is configured before it is shared")
    }

    /// Turns on structured request logging: one line per request
    /// (`serve --log-format`). Off by default.
    pub fn with_log_format(mut self, format: LogFormat) -> Self {
        self.front_mut().log_format = Some(format);
        self
    }

    /// Logs the full spec of any search request slower than `ms`
    /// milliseconds (`serve --slow-query-ms`). Independent of
    /// [`with_log_format`](Self::with_log_format); slow-query lines
    /// render as text unless a format says otherwise.
    pub fn with_slow_query_ms(mut self, ms: u64) -> Self {
        self.front_mut().slow_query_ms = Some(ms);
        self
    }

    /// Redirects log lines (tests capture them; the default sink is
    /// stderr).
    pub fn with_log_sink(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.front_mut().log_sink = Arc::new(sink);
        self
    }

    /// Samples 1-in-`n` requests into the trace ring served on
    /// `GET /debug/traces` (`serve --trace-sample`). `0` — the default
    /// — turns sampling off; requests at or over the
    /// [`with_slow_query_ms`](Self::with_slow_query_ms) threshold are
    /// captured regardless.
    pub fn with_trace_sample(self, n: u64) -> Self {
        self.front.tracer().set_sample(n);
        self
    }

    /// The service's metric bundle (what `GET /metrics` renders).
    pub(crate) fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The request-trace ring (what `GET /debug/traces` serves).
    pub(crate) fn tracer(&self) -> &Arc<Tracer> {
        self.front.tracer()
    }

    /// The front this core answers through.
    pub(crate) fn front(&self) -> &Front {
        &self.front
    }

    /// Read access to the engine being served (shared with in-flight
    /// searches; blocks while an update holds the write lock).
    pub fn engine(&self) -> EngineGuard<'_> {
        EngineGuard(self.store.read().expect("engine lock poisoned"))
    }

    /// The signal notified at every commit (what replication streamers
    /// block on).
    pub(crate) fn commit_signal(&self) -> &Arc<CommitSignal> {
        &self.commit_signal
    }

    /// Routes one request through this service's own front. Pure
    /// request → response, so it is directly testable without a socket.
    pub fn handle(&self, req: &Request) -> Response {
        let (path, query) = http::split_target(&req.path);
        self.front
            .observe(&self.metrics, canonical_route(path), |info| {
                self.route(&req.method, path, query, &req.body, info)
            })
    }

    /// Answers one route of this collection — the single entry a front
    /// dispatches through, for `/search` and `/collections/<name>/search`
    /// alike. `path` is the route with any collection prefix and query
    /// string already split off.
    pub(crate) fn route(
        &self,
        method: &str,
        path: &str,
        query: &str,
        body: &[u8],
        info: &mut RequestInfo,
    ) -> Answer {
        match (method, path) {
            ("GET", "/healthz") => Ok(status::page(self.healthz_fields())),
            ("GET", "/stats") => Ok(status::page(self.stats_fields())),
            ("GET", "/metrics") => Ok(self.front.metrics_page(&self.metrics)),
            ("GET", "/debug/traces") => self.front.debug_traces(query),
            ("POST", "/search") => self.search(body, info),
            ("POST", "/search/batch") => self.search_batch(body, info),
            ("POST", "/discover") => self.discover(body, info),
            ("POST", "/sets") => self.append(body),
            ("DELETE", "/sets") => self.remove(body),
            ("POST", "/compact") => self.compact(),
            ("POST", "/snapshot") => self.snapshot(),
            ("POST", "/promote") => self.promote(),
            _ if matches!(canonical_route(path), "other" | "/collections") => {
                Err(error_response(404, "no such route"))
            }
            _ => Err(error_response(405, "method not allowed for this route")),
        }
    }
}

/// What a route hands back: the response, or — `Err` — the ready-to-send
/// error response that cut it short. Both go to the client.
pub(crate) type Answer = Result<Response, Response>;

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

/// The non-empty array under `field`, or the 400 naming what it must
/// be an array `of`.
fn array_field<'d>(doc: &'d Json, field: &str, of: &str) -> Result<&'d [Json], Response> {
    match doc.get(field).and_then(Json::as_array) {
        Some(items) if !items.is_empty() => Ok(items),
        _ => Err(error_response(
            400,
            &format!("'{field}' must be a non-empty array of {of}"),
        )),
    }
}

/// `doc[field]` as sets: a non-empty array of non-empty string arrays.
fn string_sets(doc: &Json, field: &str) -> Result<Vec<Vec<String>>, Response> {
    let set = |v: &Json| -> Option<Vec<String>> {
        let elements = v.as_array().filter(|e| !e.is_empty())?;
        elements
            .iter()
            .map(|e| e.as_str().map(str::to_owned))
            .collect()
    };
    array_field(doc, field, "element-string arrays")?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            set(v).ok_or_else(|| {
                error_response(
                    400,
                    &format!("{field}[{i}] must be a non-empty array of strings"),
                )
            })
        })
        .collect()
}

pub(crate) fn error_response(status: u16, msg: &str) -> Response {
    Response::json(
        status,
        obj(vec![("error", Json::Str(msg.into()))]).to_string(),
    )
}

/// What every seam's tests build on: a 20-set corpus on three shards
/// and request helpers that go through [`SearchService::handle`].
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use silkmoth_core::{EngineConfig, RelatednessMetric};
    use silkmoth_text::SimilarityFunction;

    pub(crate) fn corpus() -> Vec<Vec<String>> {
        (0..20)
            .map(|i| {
                (0..3)
                    .map(|j| format!("w{} w{} shared{}", (i * 3 + j) % 7, (i + j) % 5, i % 4))
                    .collect()
            })
            .collect()
    }

    pub(crate) fn engine_cfg() -> EngineConfig {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.5,
            0.0,
        )
    }

    pub(crate) fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::build(&corpus(), engine_cfg(), shards).unwrap()
    }

    pub(crate) fn service() -> SearchService {
        SearchService::new(engine(3))
    }

    pub(crate) fn post(service: &SearchService, path: &str, body: &str) -> (u16, Json) {
        send(service, "POST", path, body)
    }

    pub(crate) fn get(service: &SearchService, path: &str) -> (u16, Json) {
        send(service, "GET", path, "")
    }

    pub(crate) fn send(
        service: &SearchService,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, Json) {
        let req = Request::new(method, path, body.as_bytes().to_vec());
        let resp = service.handle(&req);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, doc)
    }

    pub(crate) fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;

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
}
