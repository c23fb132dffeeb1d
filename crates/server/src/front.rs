//! The HTTP front: what exists **once per listener**, however many
//! collections the process serves — request identity, the request log,
//! slow-query capture, the trace ring behind `GET /debug/traces`, the
//! uptime clock, and the process's role in a replication topology.
//!
//! [`Front::observe`] wraps every response the listener sends — an
//! unscoped route, a `/collections/<name>/…` route, or a `/collections`
//! management call — so one request-id sequence, one log and one trace
//! ring cover all of them. A collection core
//! ([`SearchService`](crate::service::SearchService), whose docs have
//! the operator's view) holds an `Arc<Front>`: its own when it stands
//! alone, the default collection's when a
//! [`CatalogService`](crate::catalog::CatalogService) built it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use silkmoth_core::QuerySpec;

use crate::http::Response;
use crate::json::{obj, Json};
use crate::metrics::ServiceMetrics;
use crate::queryspec::spec_to_json;
use crate::replication::FollowerShared;
use crate::service::{error_response, Answer};
use crate::telemetry::trace::{self, Tracer};

/// How request log lines are rendered (`serve --log-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// `request id=42 route=/search status=200 duration_ms=1.234 …`
    Text,
    /// One JSON object per line, same fields.
    Json,
}

/// What a route reports back to [`Front::observe`]: the shard fan-out,
/// whether any query timed out, and — only when slow-query logging is
/// armed — the parsed specs, for the slow-query log line.
#[derive(Debug, Default)]
pub(crate) struct RequestInfo {
    /// Shards the request scattered across (search/discover routes).
    pub(crate) shards: Option<usize>,
    /// True when any query in the request timed out cooperatively.
    pub(crate) timed_out: bool,
    /// True when slow-query logging is armed: routes hand their specs
    /// to [`note_spec`](Self::note_spec).
    log_specs: bool,
    /// Specs rendered for slow-query logging (empty unless armed).
    specs: Vec<Json>,
}

impl RequestInfo {
    /// Keeps `spec` for the slow-query line (no-op unless armed).
    pub(crate) fn note_spec(&mut self, spec: &QuerySpec) {
        if self.log_specs {
            self.specs.push(spec_to_json(spec));
        }
    }
}

/// Completed traces the ring retains (`GET /debug/traces`). At the
/// typical few-KB per trace this bounds the ring's memory near a
/// megabyte regardless of traffic.
const TRACE_RING_CAPACITY: usize = 256;

/// The process's place in a replication topology. Everything starts as
/// a standalone primary; `serve --replicate-from` flips to the
/// follower role ([`crate::replication::start_follower`]) and
/// `POST /promote` flips back.
#[derive(Debug)]
enum ReplicationRole {
    /// Accepts writes.
    Primary,
    /// Read-only: update routes of **every** collection answer `409`
    /// naming `primary`; replicated records land through the sink
    /// instead.
    Follower {
        primary: String,
        shared: Arc<FollowerShared>,
    },
}

/// See the module docs.
pub(crate) struct Front {
    /// Monotonic request id source: `X-Request-Id`, the log's `id` and
    /// `trace` fields, and the trace ring's key.
    request_ids: AtomicU64,
    /// The request-trace ring (`GET /debug/traces`): slow queries are
    /// always captured, `--trace-sample` captures 1-in-N of the rest.
    tracer: Arc<Tracer>,
    /// `Some`: one structured log line per request.
    pub(crate) log_format: Option<LogFormat>,
    /// `Some(ms)`: searches slower than this log their full specs.
    pub(crate) slow_query_ms: Option<u64>,
    /// Where log lines go: stderr, unless a test captures them.
    pub(crate) log_sink: Arc<dyn Fn(&str) + Send + Sync>,
    /// When the process started serving, for `/healthz` uptime.
    started: Instant,
    /// Role in the replication topology (primary unless tailing).
    role: Mutex<ReplicationRole>,
    /// Live connections on the attached replication log listener, when
    /// one is serving (`--replicate-addr`) — independent of role, so a
    /// chained follower reports its downstream count too.
    follower_gauge: Mutex<Option<Arc<AtomicUsize>>>,
}

impl std::fmt::Debug for Front {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Front")
            .field("role", &self.role)
            .finish_non_exhaustive()
    }
}

impl Front {
    pub(crate) fn new() -> Self {
        Self {
            request_ids: AtomicU64::new(0),
            tracer: Arc::new(Tracer::new(TRACE_RING_CAPACITY)),
            log_format: None,
            slow_query_ms: None,
            log_sink: Arc::new(|line| eprintln!("{line}")),
            started: Instant::now(),
            role: Mutex::new(ReplicationRole::Primary),
            follower_gauge: Mutex::new(None),
        }
    }

    pub(crate) fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Writes one line to the log sink.
    pub(crate) fn log(&self, line: &str) {
        (self.log_sink)(line);
    }

    /// Runs one request under the observability layer and returns its
    /// response: a fresh request id (attached as `X-Request-Id`), the
    /// in-flight gauge, the per-route counter and latency histogram of
    /// `metrics` (the collection the request resolved to), the trace
    /// capture, and the structured log line. `route` must come from
    /// [`canonical_route`](crate::metrics::canonical_route). A captured
    /// request's trace is installed on this thread while `run` runs
    /// ([`trace::begin`]), so every span emitted on the way — by the
    /// read path, the group commit or the storage hook — lands in it.
    pub(crate) fn observe(
        &self,
        metrics: &ServiceMetrics,
        route: &'static str,
        run: impl FnOnce(&mut RequestInfo) -> Answer,
    ) -> Response {
        let id = self.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let mut info = RequestInfo {
            log_specs: self.slow_query_ms.is_some(),
            ..RequestInfo::default()
        };
        // Capture decision up front: requests that can't end up in the
        // ring (not sampled, slow-query capture unarmed) never begin a
        // trace — the whole cost of tracing for them is the one
        // fetch-add inside should_sample and one thread-local read per
        // span call.
        let sampled = self.tracer.should_sample();
        let capture = (sampled || self.slow_query_ms.is_some()).then(|| trace::begin(id, route));
        let start = Instant::now();
        metrics.inflight().add(1);
        let resp = run(&mut info).unwrap_or_else(|early| early);
        metrics.inflight().sub(1);
        let elapsed = start.elapsed();
        metrics.observe_request(route, resp.status, elapsed);
        let slow = self
            .slow_query_ms
            .is_some_and(|limit| elapsed.as_secs_f64() * 1e3 >= limit as f64);
        // A capture neither sampled nor slow is dropped, which discards it.
        if let Some(capture) = capture.filter(|_| sampled || slow) {
            self.tracer.record(capture.finish(resp.status, slow));
        }
        self.log_request(id, route, resp.status, elapsed, slow, &info);
        resp.with_header("X-Request-Id", id.to_string())
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
        slow: bool,
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
            self.log(&line);
        }
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
                self.log(&line);
            }
        }
    }

    /// `GET /metrics`: refresh the poll-style families (replication
    /// status, follower count, uptime), then render the page. Every
    /// collection's bundle shares one registry, so any of them renders
    /// the whole process.
    pub(crate) fn metrics_page(&self, metrics: &ServiceMetrics) -> Response {
        if let ReplicationRole::Follower { shared, .. } = &*self.role() {
            metrics.record_follower(&shared.status());
        }
        if let Some(n) = self.followers() {
            metrics.set_followers(n as i64);
        }
        metrics.set_uptime_secs(self.uptime_secs());
        Response::text(200, crate::telemetry::CONTENT_TYPE, metrics.render())
    }

    /// `GET /debug/traces`: the retained trace ring as JSON, oldest
    /// first, optionally filtered with `?route=/search`, `?min_ms=N`
    /// (whole-request duration floor), and `?id=N` (one request id).
    pub(crate) fn debug_traces(&self, query: &str) -> Answer {
        let mut route_filter: Option<&str> = None;
        let mut min_us = 0u64;
        let mut id_filter: Option<u64> = None;
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "route" => route_filter = Some(value),
                "min_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| error_response(400, "min_ms must be whole milliseconds"))?;
                    min_us = ms.saturating_mul(1000);
                }
                "id" => {
                    let id = value
                        .parse()
                        .map_err(|_| error_response(400, "id must be a request id"))?;
                    id_filter = Some(id);
                }
                other => {
                    return Err(error_response(
                        400,
                        &format!("unknown query parameter '{other}' (route, min_ms, id)"),
                    ))
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
        Ok(Response::json(200, trace::render_traces(&traces)))
    }

    fn role(&self) -> std::sync::MutexGuard<'_, ReplicationRole> {
        self.role.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn followers(&self) -> Option<usize> {
        self.follower_gauge
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|g| g.load(Ordering::Relaxed))
    }

    /// Marks the process a follower of `primary` (updates answer 409
    /// until [`promote`](Self::promote)).
    pub(crate) fn set_role_follower(&self, primary: String, shared: Arc<FollowerShared>) {
        *self.role() = ReplicationRole::Follower { primary, shared };
    }

    /// Attaches the live follower-connection gauge of a replication
    /// log listener, so `/stats` can report it.
    pub(crate) fn set_follower_gauge(&self, gauge: Arc<AtomicUsize>) {
        *self
            .follower_gauge
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(gauge);
    }

    /// The follower read-only rejection for external update routes
    /// (`Ok` in the primary role). Replicated records never pass here:
    /// the sink lands them through the quiesced store accessor.
    pub(crate) fn check_writable(&self) -> Result<(), Response> {
        match &*self.role() {
            ReplicationRole::Primary => Ok(()),
            ReplicationRole::Follower { primary, .. } => Err(error_response(
                409,
                &format!(
                    "read-only follower; send writes to the primary replicating from {primary}"
                ),
            )),
        }
    }

    /// The role as `/healthz` reports it, plus the follower loop's
    /// state while tailing.
    pub(crate) fn role_and_state(&self) -> (&'static str, Option<&'static str>) {
        match &*self.role() {
            ReplicationRole::Primary => ("primary", None),
            ReplicationRole::Follower { shared, .. } => {
                ("follower", Some(shared.status().state.as_str()))
            }
        }
    }

    /// The `replication` section of `/stats`: role, lag, and the log
    /// listener's live follower count when one is attached.
    pub(crate) fn replication_json(&self) -> Json {
        let followers = self.followers();
        let mut fields = match &*self.role() {
            ReplicationRole::Primary => vec![("role", Json::Str("primary".into()))],
            ReplicationRole::Follower { primary, shared } => {
                let st = shared.status();
                vec![
                    ("role", Json::Str("follower".into())),
                    ("primary", Json::Str(primary.clone())),
                    ("state", Json::Str(st.state.as_str().into())),
                    ("applied_seq", Json::Num(st.applied_seq as f64)),
                    ("primary_seq", Json::Num(st.primary_seq as f64)),
                    ("lag", Json::Num(st.lag() as f64)),
                    ("connects", Json::Num(st.connects as f64)),
                    ("bootstraps", Json::Num(st.bootstraps as f64)),
                    ("last_error", st.last_error.map_or(Json::Null, Json::Str)),
                ]
            }
        };
        if let Some(n) = followers {
            fields.push(("followers", Json::Num(n as f64)));
        }
        obj(fields)
    }

    /// `POST /promote`: stop tailing, run `bump_epoch` (the replicated
    /// store's durable epoch bump, which answers the new epoch and the
    /// update sequence it was cut at), and start accepting writes. 409
    /// when already primary. The role lock is held throughout, so two
    /// promotions cannot interleave.
    pub(crate) fn promote(
        &self,
        bump_epoch: impl FnOnce() -> Result<(u64, u64), Response>,
    ) -> Answer {
        let mut role = self.role();
        let shared = match &*role {
            ReplicationRole::Primary => return Err(error_response(409, "already primary")),
            ReplicationRole::Follower { shared, .. } => Arc::clone(shared),
        };
        shared.stop();
        if !shared.wait_exited(Duration::from_secs(10)) {
            return Err(error_response(
                500,
                "follower loop did not stop in time; retry",
            ));
        }
        let (epoch, update_seq) = bump_epoch()?;
        *role = ReplicationRole::Primary;
        Ok(Response::json(
            200,
            obj(vec![
                ("role", Json::Str("primary".into())),
                ("epoch", Json::Num(epoch as f64)),
                ("update_seq", Json::Num(update_seq as f64)),
            ])
            .to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use silkmoth_storage::{Store, StoreConfig};

    use super::*;
    use crate::http::Request;
    use crate::service::testutil::*;
    use crate::service::SearchService;
    use crate::shard::ShardedEngine;
    use crate::telemetry::trace::{AttrValue, TraceCollector};

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
        assert_eq!(resp.content_type, crate::telemetry::CONTENT_TYPE);
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
        let families = crate::telemetry::expo::parse_text(body).expect("page parses");
        assert_eq!(
            crate::telemetry::expo::lint(None, &families),
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
        let prev = crate::telemetry::expo::parse_text(&first).unwrap();
        let cur = crate::telemetry::expo::parse_text(&second).unwrap();
        assert_eq!(
            crate::telemetry::expo::lint(Some(&prev), &cur),
            Vec::<String>::new()
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

        // The durable update's trace carries the storage hook's spans.
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

    /// An auto-snapshot leaves one `snapshot` span on the trace of the
    /// request whose commit triggered it, though the store fires two
    /// events for it (`Snapshot`, then `AutoSnapshot`); `/stats` still
    /// counts it.
    #[test]
    fn an_auto_snapshot_is_one_snapshot_span() {
        let dir = std::env::temp_dir().join(format!(
            "silkmoth-auto-snapshot-trace-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            policy: silkmoth_core::CompactionPolicy::default().snapshot_at_wal_records(1),
            ..StoreConfig::default()
        };
        let store = Store::create(&dir, engine(3), cfg).unwrap();
        let s = SearchService::durable(store).with_slow_query_ms(0);
        let req = Request::new("POST", "/sets", br#"{"sets": [["w0 w1 snap"]]}"#.to_vec());
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        let id = header(&resp, "X-Request-Id").unwrap();
        let (_, page) = get(&s, &format!("/debug/traces?id={id}"));
        let traces = page.get("traces").and_then(Json::as_array).unwrap();
        let spans = traces[0].get("spans").and_then(Json::as_array).unwrap();
        let kinds: Vec<&str> = spans
            .iter()
            .filter_map(|sp| sp.get("kind").and_then(Json::as_str))
            .collect();
        let snapshots = kinds.iter().filter(|k| **k == "snapshot").count();
        assert_eq!(snapshots, 1, "{kinds:?}");
        let (_, stats) = get(&s, "/stats");
        let storage = stats.get("storage").unwrap();
        assert_eq!(
            storage.get("auto_snapshots").and_then(Json::as_usize),
            Some(1)
        );
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
    /// bodies — in memory, and on disk, where updates run the storage
    /// hook's spans.
    #[test]
    fn tracing_on_vs_off_is_byte_identical() {
        let dirs = ["traced", "plain"].map(|side| {
            let dir = std::env::temp_dir().join(format!(
                "silkmoth-tracing-on-off-{side}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let durable = |dir| {
            SearchService::durable(Store::create(dir, engine(3), StoreConfig::default()).unwrap())
        };
        let pairs = [
            (service().with_trace_sample(1), service()),
            (durable(&dirs[0]).with_trace_sample(1), durable(&dirs[1])),
        ];
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
            (
                "POST",
                "/sets",
                r#"{"sets": [["w0 w1 traced"], ["w5 w6"]]}"#,
            ),
            ("DELETE", "/sets", r#"{"ids": [3, 21]}"#),
            ("POST", "/compact", ""),
            ("POST", "/snapshot", ""),
            ("GET", "/stats", ""),
        ];
        for (traced, plain) in &pairs {
            for (method, path, body) in requests {
                let req = Request::new(method, path, body.as_bytes().to_vec());
                let a = traced.handle(&req);
                let b = plain.handle(&req);
                assert_eq!(a.status, b.status, "{method} {path}");
                assert_eq!(
                    a.body, b.body,
                    "{method} {path}: tracing changed the response body"
                );
            }
            assert!(traced.tracer().snapshot().len() >= requests.len());
            assert!(plain.tracer().snapshot().is_empty());
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
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
        collector.attr(query, "timed_out", AttrValue::Bool(false));
        let mut trace = collector.finish(200, true);
        // The root's duration is wall-clock; fixed, the page is exact.
        trace.dur_us = 250;
        trace.spans[0].dur_us = 250;
        let page = trace::render_traces(&[Arc::new(trace)]);
        assert_eq!(
            page,
            concat!(
                r#"{"version":1,"traces":[{"id":7,"route":"/search","status":200,"slow":true,"#,
                r#""duration_us":250,"spans":[{"kind":"http","parent":null,"start_us":0,"#,
                r#""duration_us":250,"attrs":{}},{"kind":"query","parent":0,"start_us":5,"#,
                r#""duration_us":90,"attrs":{"candidates":12,"#,
                r#""note":"quote\" slash\\ nl\n","timed_out":false}}]}]}"#,
            )
        );

        let doc = Json::parse(&page).expect("the page is valid JSON");
        let traces = doc.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(traces[0].get("id").and_then(Json::as_usize), Some(7));
        let spans = traces[0].get("spans").and_then(Json::as_array).unwrap();
        let attrs = spans[1].get("attrs").unwrap();
        assert_eq!(
            attrs.get("note").and_then(Json::as_str),
            Some("quote\" slash\\ nl\n")
        );
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
