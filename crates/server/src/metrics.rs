//! The service's metric bundle: every family the stack exposes on
//! `GET /metrics`, registered eagerly so the exposition page has a
//! deterministic family order from the first scrape (the golden-format
//! test pins it).
//!
//! Four layers feed one [`Registry`]:
//!
//! * **HTTP** — per-route request counters (`route`/`status` labels),
//!   per-route latency histograms, and an in-flight gauge, observed by
//!   the front's request wrapper;
//! * **query phases** — stage / verify / explain durations from
//!   [`PhaseTiming`], the per-shard worst merged by
//!   [`ShardedQueryOutput::merged_timing`](crate::shard::ShardedQueryOutput::merged_timing);
//! * **storage** — WAL append/fsync latency and snapshot / compaction
//!   counters, delivered through the store's one [`TelemetryHook`]
//!   (which also hangs the storage spans on the request's trace) so the
//!   storage crate itself stays dependency-free;
//! * **replication** — the follower lag/connect/bootstrap families,
//!   refreshed from the follower loop's [`FollowerStatus`] at scrape
//!   time (so the loop itself stays metrics-free), plus a follower count
//!   gauge on the primary.
//!
//! Route and status label sets are bounded: paths are canonicalised
//! through [`canonical_route`] (unknown paths collapse to `"other"`),
//! and statuses are the handful the service actually emits.

use crate::replication::{FollowerState, FollowerStatus};
use crate::telemetry::trace::{self, AttrValue};
use crate::telemetry::{Counter, Gauge, Histogram, MetricKind, Registry, LATENCY_BUCKETS};
use silkmoth_core::{PassStats, PhaseTiming};
use silkmoth_storage::{StoreEvent, TelemetryHook};
use std::sync::Arc;
use std::time::Duration;

/// Buckets for the commit-batch size histogram: a count, not a
/// duration, so powers of two up to well past the practical number of
/// concurrent writers.
const BATCH_SIZE_BUCKETS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Buckets for per-query signature cost (the paper's token-level
/// signature work, a unitless count): decades, because the cost spans
/// a handful of tokens on toy sets to ~10⁸ on adversarial corpora.
const SIGNATURE_COST_BUCKETS: [f64; 9] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

const HTTP_REQUESTS: &str = "silkmoth_http_requests_total";
const HTTP_REQUESTS_HELP: &str = "HTTP requests served, by route and status";
const HTTP_DURATION: &str = "silkmoth_http_request_duration_seconds";
const HTTP_DURATION_HELP: &str = "Wall-clock request latency, by route";

/// Collapses a request path to a bounded route label. Every route the
/// service dispatches maps to itself; anything else — typos, probes,
/// scanners — collapses to `"other"` so label cardinality cannot grow
/// with traffic. Catalog management paths (`/collections`,
/// `/collections/<name>`) collapse to one `"/collections"` label — the
/// name must not leak into the route label because collection identity
/// rides the dedicated `collection` label. Collection-*scoped* routes
/// never reach this function with their prefix: the catalog resolves
/// `/collections/<name>/search` to that collection and labels the
/// request with the route behind the prefix, `/search`.
pub(crate) fn canonical_route(path: &str) -> &'static str {
    if path == "/collections" || path.starts_with("/collections/") {
        return "/collections";
    }
    match path {
        "/healthz" => "/healthz",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/debug/traces" => "/debug/traces",
        "/search" => "/search",
        "/search/batch" => "/search/batch",
        "/discover" => "/discover",
        "/sets" => "/sets",
        "/compact" => "/compact",
        "/snapshot" => "/snapshot",
        "/promote" => "/promote",
        _ => "other",
    }
}

/// One process's metric families and the handles to record into them.
/// Construct once per [`SearchService`](crate::service::SearchService);
/// cloning shares the registry and every cell.
#[derive(Debug, Clone)]
pub(crate) struct ServiceMetrics {
    registry: Arc<Registry>,
    /// `Some(name)` when this bundle records for one named collection:
    /// the route/query/WAL families carry a `collection` label and this
    /// is its value. `None` keeps the single-tenant label sets
    /// byte-identical to what they were before the catalog existed.
    collection: Option<String>,
    uptime: Gauge,
    inflight: Gauge,
    phase_stage: Histogram,
    phase_verify: Histogram,
    phase_explain: Histogram,
    /// The paper's filter funnel, one survivor counter per stage:
    /// candidates → after_check → after_nn → verified → results.
    funnel: [Counter; 5],
    sim_evals: Counter,
    signature_cost: Histogram,
    wal_append: Histogram,
    wal_fsync: Histogram,
    batch_records: Histogram,
    batch_duration: Histogram,
    snapshots: Counter,
    auto_compactions: Counter,
    auto_snapshots: Counter,
    // A follower's replication state, polled from its status at scrape
    // time.
    replication_lag: Gauge,
    applied_seq: Gauge,
    primary_seq: Gauge,
    streaming: Gauge,
    connects: Counter,
    bootstraps: Counter,
    followers: Gauge,
}

impl ServiceMetrics {
    /// Registers every family the stack exposes, in the order the
    /// `/metrics` page renders them. The HTTP families are declared
    /// (header-only) here because their series only appear as routes
    /// are hit; everything else registers its series immediately.
    pub(crate) fn new() -> Self {
        Self::build(Arc::new(Registry::new()), None)
    }

    /// Registers the same families on a **shared** registry with a
    /// `collection` label on every route/query/WAL family — one bundle
    /// per catalog collection, all rendering onto one `/metrics` page.
    /// Process-wide families (build info, uptime, in-flight,
    /// replication) are get-or-created unlabelled, so every collection
    /// shares those cells.
    pub(crate) fn for_collection(registry: &Arc<Registry>, collection: &str) -> Self {
        Self::build(Arc::clone(registry), Some(collection))
    }

    fn build(registry: Arc<Registry>, collection: Option<&str>) -> Self {
        registry.declare(HTTP_REQUESTS, HTTP_REQUESTS_HELP, MetricKind::Counter, None);
        registry.declare(
            HTTP_DURATION,
            HTTP_DURATION_HELP,
            MetricKind::Histogram,
            Some(&LATENCY_BUCKETS),
        );
        // The per-tenant label, appended after any per-family label so
        // the single-tenant series names are a strict prefix of the
        // multi-tenant ones.
        fn with_collection<'a>(
            base: &[(&'a str, &'a str)],
            collection: Option<&'a str>,
        ) -> Vec<(&'a str, &'a str)> {
            let mut labels = base.to_vec();
            if let Some(name) = collection {
                labels.push(("collection", name));
            }
            labels
        }
        // Constant 1 with the version as a label — the Prometheus
        // build-info convention, so dashboards can join any series
        // against the running version.
        registry
            .gauge(
                "silkmoth_build_info",
                "Build metadata; constant 1, the version rides the label",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        let uptime = registry.gauge(
            "silkmoth_uptime_seconds",
            "Seconds since the service started (what /healthz reports)",
            &[],
        );
        let inflight = registry.gauge(
            "silkmoth_http_inflight_requests",
            "Requests currently being handled",
            &[],
        );
        let phase = |name: &'static str| {
            registry.histogram(
                "silkmoth_query_phase_duration_seconds",
                "Query time per engine phase (worst shard per phase)",
                &with_collection(&[("phase", name)], collection),
                &LATENCY_BUCKETS,
            )
        };
        let phase_stage = phase("stage");
        let phase_verify = phase("verify");
        let phase_explain = phase("explain");
        let survivors = |stage: &'static str| {
            registry.counter(
                "silkmoth_query_filter_survivors_total",
                "Sets surviving each SilkMoth filter stage, summed over queries (results: verified pairs that reached the threshold they were verified against)",
                &with_collection(&[("stage", stage)], collection),
            )
        };
        let funnel = [
            survivors("candidates"),
            survivors("after_check"),
            survivors("after_nn"),
            survivors("verified"),
            survivors("results"),
        ];
        let sim_evals = registry.counter(
            "silkmoth_query_sim_evals_total",
            "Element-pair similarity evaluations performed across all queries (one per distinct pair a pass meets)",
            &with_collection(&[], collection),
        );
        let signature_cost = registry.histogram(
            "silkmoth_query_signature_cost",
            "Per-query signature cost (token-level signature work, unitless)",
            &with_collection(&[], collection),
            &SIGNATURE_COST_BUCKETS,
        );
        let wal_append = registry.histogram(
            "silkmoth_wal_append_duration_seconds",
            "Time writing one record into the WAL file (before fsync)",
            &with_collection(&[], collection),
            &LATENCY_BUCKETS,
        );
        let wal_fsync = registry.histogram(
            "silkmoth_wal_fsync_duration_seconds",
            "Time in fsync per commit batch (0 when sync is off)",
            &with_collection(&[], collection),
            &LATENCY_BUCKETS,
        );
        let batch_records = registry.histogram(
            "silkmoth_wal_commit_batch_records",
            "Updates amortized into one WAL write + fsync by group commit",
            &with_collection(&[], collection),
            &BATCH_SIZE_BUCKETS,
        );
        let batch_duration = registry.histogram(
            "silkmoth_wal_commit_batch_duration_seconds",
            "Wall-clock time of one commit batch (write + fsync)",
            &with_collection(&[], collection),
            &LATENCY_BUCKETS,
        );
        let snapshots = registry.counter(
            "silkmoth_storage_snapshots_total",
            "Snapshots written (manual and automatic)",
            &with_collection(&[], collection),
        );
        let auto_compactions = registry.counter(
            "silkmoth_storage_auto_compactions_total",
            "Auto-compactions triggered by the WAL growth policy",
            &with_collection(&[], collection),
        );
        let auto_snapshots = registry.counter(
            "silkmoth_storage_auto_snapshots_total",
            "Snapshots taken automatically by the WAL growth policy",
            &with_collection(&[], collection),
        );
        let replication_lag = registry.gauge(
            "silkmoth_replication_lag_records",
            "Records the primary has committed that this follower has not yet applied",
            &[],
        );
        let applied_seq = registry.gauge(
            "silkmoth_replication_applied_seq",
            "Updates this follower has applied locally",
            &[],
        );
        let primary_seq = registry.gauge(
            "silkmoth_replication_primary_seq",
            "The primary's committed update count per its latest heartbeat",
            &[],
        );
        let streaming = registry.gauge(
            "silkmoth_replication_streaming",
            "1 while the follower is connected and processing frames, else 0",
            &[],
        );
        let connects = registry.counter(
            "silkmoth_replication_connects_total",
            "Successful connections this follower has made to the primary",
            &[],
        );
        let bootstraps = registry.counter(
            "silkmoth_replication_bootstraps_total",
            "Snapshot bootstraps this follower has performed",
            &[],
        );
        let followers = registry.gauge(
            "silkmoth_replication_followers",
            "Follower connections currently streaming from this primary",
            &[],
        );
        Self {
            registry,
            collection: collection.map(str::to_owned),
            uptime,
            inflight,
            phase_stage,
            phase_verify,
            phase_explain,
            funnel,
            sim_evals,
            signature_cost,
            wal_append,
            wal_fsync,
            batch_records,
            batch_duration,
            snapshots,
            auto_compactions,
            auto_snapshots,
            replication_lag,
            applied_seq,
            primary_seq,
            streaming,
            connects,
            bootstraps,
            followers,
        }
    }

    /// The gauge tracking requests currently inside the handler.
    pub(crate) fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// The registry every family lives in — shared across collections
    /// in a catalog deployment, so the catalog can hang its own gauges
    /// (collection count, cardinality bound) on the same page.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The collection this bundle records for, when it was built with
    /// [`for_collection`](Self::for_collection).
    pub(crate) fn collection(&self) -> Option<&str> {
        self.collection.as_deref()
    }

    /// Records one finished request into the per-route counter and
    /// latency histogram. `route` must come from [`canonical_route`] so
    /// the label set stays bounded.
    pub(crate) fn observe_request(&self, route: &'static str, status: u16, elapsed: Duration) {
        let status = status.to_string();
        let mut counter_labels = vec![("route", route), ("status", status.as_str())];
        let mut histogram_labels = vec![("route", route)];
        if let Some(name) = self.collection.as_deref() {
            counter_labels.push(("collection", name));
            histogram_labels.push(("collection", name));
        }
        self.registry
            .counter(HTTP_REQUESTS, HTTP_REQUESTS_HELP, &counter_labels)
            .inc();
        self.registry
            .histogram(
                HTTP_DURATION,
                HTTP_DURATION_HELP,
                &histogram_labels,
                &LATENCY_BUCKETS,
            )
            .observe(elapsed);
    }

    /// Records one query's per-phase timing (already merged across
    /// shards — element-wise max, the worst shard per phase).
    pub(crate) fn observe_phases(&self, timing: &PhaseTiming) {
        self.phase_stage.observe(timing.stage);
        self.phase_verify.observe(timing.verify);
        self.phase_explain.observe(timing.explain);
    }

    /// Records one query's filter funnel from its merged [`PassStats`]:
    /// how many sets survived each stage of the signature → check → NN
    /// → verification pipeline (`results`: the verified pairs that
    /// reached the threshold they were verified against — under `top_k`
    /// the rising k-th best score, not the floor), plus the
    /// similarity-evaluation count and the signature cost distribution.
    pub(crate) fn observe_funnel(&self, stats: &PassStats) {
        let stages = [
            stats.candidates as u64,
            stats.after_check as u64,
            stats.after_nn as u64,
            stats.verified as u64,
            stats.results as u64,
        ];
        for (counter, survivors) in self.funnel.iter().zip(stages) {
            counter.add(survivors);
        }
        self.sim_evals.add(stats.sim_evals);
        self.signature_cost
            .observe_secs(stats.signature_cost as f64);
    }

    /// Refreshes the uptime gauge (called at scrape time so the page
    /// matches what `/healthz` reports).
    pub(crate) fn set_uptime_secs(&self, secs: u64) {
        self.uptime.set(secs as i64);
    }

    /// The one [`TelemetryHook`] the store keeps: each commit batch
    /// lands its write/fsync timings in the latency histograms, its
    /// record count and total duration in the group-commit families;
    /// snapshot and compaction events hit their counters. Each event
    /// but `AutoSnapshot` (its snapshot already fired `Snapshot`) also
    /// becomes a span on the trace captured on the calling thread
    /// ([`trace::emit`]) — a no-op on threads capturing none (unsampled
    /// requests, background maintenance). The hook captures clones of
    /// the cells, so the storage crate never sees the registry.
    pub(crate) fn storage_hook(&self) -> TelemetryHook {
        let append = self.wal_append.clone();
        let fsync = self.wal_fsync.clone();
        let batch_records = self.batch_records.clone();
        let batch_duration = self.batch_duration.clone();
        let snapshots = self.snapshots.clone();
        let compactions = self.auto_compactions.clone();
        let auto_snapshots = self.auto_snapshots.clone();
        TelemetryHook::new(move |event| match event {
            StoreEvent::CommitBatch {
                records,
                write,
                sync,
            } => {
                append.observe(write);
                fsync.observe(sync);
                batch_records.observe_secs(records as f64);
                batch_duration.observe(write + sync);
                let attrs = vec![("records", AttrValue::U64(records))];
                trace::emit("wal_write", write, attrs);
                trace::emit("wal_fsync", sync, Vec::new());
            }
            StoreEvent::Snapshot => {
                snapshots.inc();
                trace::emit("snapshot", Duration::ZERO, Vec::new());
            }
            StoreEvent::AutoCompaction => {
                compactions.inc();
                trace::emit("compaction", Duration::ZERO, Vec::new());
            }
            // The snapshot it took already fired `Snapshot`, span and all.
            StoreEvent::AutoSnapshot => auto_snapshots.inc(),
        })
    }

    /// `(auto_compactions, auto_snapshots)` since the process started:
    /// what `/stats` reports of `silkmoth_storage_auto_*_total`.
    pub(crate) fn policy_counts(&self) -> (u64, u64) {
        (self.auto_compactions.get(), self.auto_snapshots.get())
    }

    /// Refreshes the replication families from a follower's status
    /// snapshot (called at scrape time on follower-role services).
    /// Monotonic totals (`connects`, `bootstraps`) go through
    /// [`Counter::record_total`], so a scrape can never observe them
    /// moving backwards even though they are polled, not incremented.
    pub(crate) fn record_follower(&self, status: &FollowerStatus) {
        self.replication_lag.set(status.lag() as i64);
        self.applied_seq.set(status.applied_seq as i64);
        self.primary_seq.set(status.primary_seq as i64);
        self.streaming
            .set(i64::from(status.state == FollowerState::Streaming));
        self.connects.record_total(status.connects);
        self.bootstraps.record_total(status.bootstraps);
    }

    /// Sets the primary-side follower connection count.
    pub(crate) fn set_followers(&self, n: i64) {
        self.followers.set(n);
    }

    /// Renders the `/metrics` page.
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_paths_collapse_to_other() {
        assert_eq!(canonical_route("/search"), "/search");
        assert_eq!(canonical_route("/search/"), "other");
        assert_eq!(canonical_route("/../etc/passwd"), "other");
    }

    #[test]
    fn collection_paths_share_one_route_label() {
        assert_eq!(canonical_route("/collections"), "/collections");
        assert_eq!(canonical_route("/collections/tenant-a"), "/collections");
        assert_eq!(
            canonical_route("/collections/tenant-a/search"),
            "/collections"
        );
        // No collection name may become its own route label.
        assert_eq!(canonical_route("/collectionsx"), "other");
    }

    #[test]
    fn for_collection_labels_tenant_families_and_shares_globals() {
        let base = ServiceMetrics::new();
        let tenant = ServiceMetrics::for_collection(base.registry(), "tenant-a");
        tenant.observe_request(canonical_route("/search"), 200, Duration::from_millis(1));
        tenant.observe_funnel(&PassStats {
            candidates: 7,
            ..Default::default()
        });
        let page = base.render();
        assert!(
            page.contains(
                "silkmoth_http_requests_total{route=\"/search\",status=\"200\",collection=\"tenant-a\"} 1"
            ),
            "{page}"
        );
        assert!(
            page.contains(
                "silkmoth_query_filter_survivors_total{stage=\"candidates\",collection=\"tenant-a\"} 7"
            ),
            "{page}"
        );
        // Globals stay unlabelled and shared: exactly one in-flight
        // gauge series even with two bundles registered.
        assert_eq!(
            page.matches("\nsilkmoth_http_inflight_requests ").count(),
            1,
            "{page}"
        );
        assert_eq!(tenant.collection(), Some("tenant-a"));
        assert_eq!(base.collection(), None);
    }

    #[test]
    fn every_family_renders_before_any_traffic() {
        let m = ServiceMetrics::new();
        let page = m.render();
        for family in [
            "silkmoth_http_requests_total",
            "silkmoth_http_request_duration_seconds",
            "silkmoth_build_info",
            "silkmoth_uptime_seconds",
            "silkmoth_http_inflight_requests",
            "silkmoth_query_phase_duration_seconds",
            "silkmoth_query_filter_survivors_total",
            "silkmoth_query_sim_evals_total",
            "silkmoth_query_signature_cost",
            "silkmoth_wal_append_duration_seconds",
            "silkmoth_wal_fsync_duration_seconds",
            "silkmoth_wal_commit_batch_records",
            "silkmoth_wal_commit_batch_duration_seconds",
            "silkmoth_storage_snapshots_total",
            "silkmoth_storage_auto_compactions_total",
            "silkmoth_storage_auto_snapshots_total",
            "silkmoth_replication_lag_records",
            "silkmoth_replication_connects_total",
            "silkmoth_replication_followers",
        ] {
            assert!(
                page.contains(&format!("# TYPE {family} ")),
                "{family} missing:\n{page}"
            );
        }
    }

    #[test]
    fn storage_hook_routes_events_to_the_right_cells() {
        let m = ServiceMetrics::new();
        let hook = m.storage_hook();
        hook.fire(StoreEvent::CommitBatch {
            records: 3,
            write: Duration::from_micros(20),
            sync: Duration::from_millis(2),
        });
        hook.fire(StoreEvent::Snapshot);
        hook.fire(StoreEvent::AutoCompaction);
        hook.fire(StoreEvent::AutoSnapshot);
        let page = m.render();
        assert!(
            page.contains("silkmoth_wal_append_duration_seconds_count 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_wal_fsync_duration_seconds_count 1"),
            "{page}"
        );
        // The batch size histogram buckets by record count: 3 records
        // land in le="4" but not le="2".
        assert!(
            page.contains("silkmoth_wal_commit_batch_records_count 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_wal_commit_batch_records_bucket{le=\"2\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_wal_commit_batch_records_bucket{le=\"4\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_wal_commit_batch_duration_seconds_count 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_storage_snapshots_total 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_storage_auto_compactions_total 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_storage_auto_snapshots_total 1"),
            "{page}"
        );
    }

    #[test]
    fn funnel_observation_sums_survivors_per_stage() {
        let m = ServiceMetrics::new();
        let stats = PassStats {
            candidates: 100,
            after_check: 40,
            after_nn: 12,
            verified: 12,
            results: 5,
            sim_evals: 310,
            signature_cost: 720,
            ..Default::default()
        };
        m.observe_funnel(&stats);
        m.observe_funnel(&stats);
        let page = m.render();
        for (stage, want) in [
            ("candidates", 200),
            ("after_check", 80),
            ("after_nn", 24),
            ("verified", 24),
            ("results", 10),
        ] {
            assert!(
                page.contains(&format!(
                    "silkmoth_query_filter_survivors_total{{stage=\"{stage}\"}} {want}"
                )),
                "{stage}:\n{page}"
            );
        }
        assert!(
            page.contains("silkmoth_query_sim_evals_total 620"),
            "{page}"
        );
        // 720 lands in the le="1000" decade but not le="100".
        assert!(
            page.contains("silkmoth_query_signature_cost_bucket{le=\"100\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_query_signature_cost_bucket{le=\"1000\"} 2"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_query_signature_cost_count 2"),
            "{page}"
        );
    }

    #[test]
    fn build_info_and_uptime_render() {
        let m = ServiceMetrics::new();
        m.set_uptime_secs(42);
        let page = m.render();
        assert!(
            page.contains(&format!(
                "silkmoth_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "{page}"
        );
        assert!(page.contains("silkmoth_uptime_seconds 42"), "{page}");
    }

    fn follower_status(applied: u64, primary: u64, connects: u64) -> FollowerStatus {
        FollowerStatus {
            state: FollowerState::Streaming,
            applied_seq: applied,
            primary_seq: primary,
            connects,
            frames: 0,
            skipped: 0,
            bootstraps: 1,
            last_error: None,
        }
    }

    #[test]
    fn record_reflects_the_status_snapshot() {
        let metrics = ServiceMetrics::new();
        metrics.record_follower(&follower_status(7, 10, 3));
        let page = metrics.render();
        assert!(
            page.contains("silkmoth_replication_lag_records 3"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_replication_applied_seq 7"),
            "{page}"
        );
        assert!(page.contains("silkmoth_replication_streaming 1"), "{page}");
        assert!(
            page.contains("silkmoth_replication_connects_total 3"),
            "{page}"
        );
    }

    #[test]
    fn polled_counters_never_move_backwards() {
        // A racing status read could deliver an older snapshot after a
        // newer one; record_total's fetch_max keeps the exposed counter
        // monotonic regardless of arrival order.
        let metrics = ServiceMetrics::new();
        metrics.record_follower(&follower_status(5, 5, 4));
        metrics.record_follower(&follower_status(3, 5, 2)); // stale snapshot arrives late
        let page = metrics.render();
        assert!(
            page.contains("silkmoth_replication_connects_total 4"),
            "{page}"
        );
    }

    #[test]
    fn request_observation_creates_bounded_series() {
        let m = ServiceMetrics::new();
        m.observe_request(canonical_route("/search"), 200, Duration::from_millis(1));
        m.observe_request(canonical_route("/nope"), 404, Duration::from_micros(30));
        let page = m.render();
        assert!(
            page.contains("silkmoth_http_requests_total{route=\"/search\",status=\"200\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("silkmoth_http_requests_total{route=\"other\",status=\"404\"} 1"),
            "{page}"
        );
    }
}
