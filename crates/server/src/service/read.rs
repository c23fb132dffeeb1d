//! The read routes: `/search`, `/search/batch`, `/discover` — spec
//! decode, one executor that runs the specs under the shared lock and
//! records each query once (stats, metrics, trace), and response
//! rendering.

use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use silkmoth_core::{PassStats, QuerySpec};

use super::{array_field, error_response, parse_body, string_sets, Answer, SearchService};
use crate::front::RequestInfo;
use crate::http::Response;
use crate::json::{obj, Json};
use crate::queryspec::{explanation_json, spec_from_json};
use crate::shard::{merge_stats, ShardedQueryOutput};
use crate::telemetry::trace::{self, AttrValue, TraceCollector};

impl SearchService {
    /// Runs `specs` as one engine call under the whole-request deadline
    /// and records each query once: per-shard stats into `/stats`,
    /// phases and funnel into the metrics, a `query` span onto the
    /// trace, fan-out and timeout onto `info`. Past the deadline the
    /// request is the `504`, not partial results.
    fn execute(
        &self,
        specs: &[QuerySpec],
        info: &mut RequestInfo,
    ) -> Result<Vec<ShardedQueryOutput>, Response> {
        let start = Instant::now();
        let trace_start = trace::with(|t| t.now_us());
        let outs = self
            .engine()
            .execute_batch_until(specs, self.search_timeout.map(|t| start + t));
        let (executed, batched) = (start.elapsed(), outs.len() > 1);
        for out in &outs {
            for (cell, stats) in self.shard_stats.iter().zip(&out.shard_stats) {
                cell.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .merge(stats);
            }
            let (timing, stats) = (out.merged_timing(), out.merged_stats());
            self.metrics.observe_phases(&timing);
            self.metrics.observe_funnel(&stats);
            info.timed_out |= out.timed_out;
            if let Some(at) = trace_start {
                // A batched query's own wall window is not observable:
                // its span lasts its worst-shard phase sum.
                let dur = if batched { timing.total() } else { executed };
                trace::with(|t| {
                    record_query_spans(t, out, &stats, at, dur, self.metrics.collection())
                });
            }
        }
        info.shards = outs.first().map(|out| out.shard_stats.len());
        if self.search_timeout.is_some_and(|t| start.elapsed() >= t) {
            let msg = "search deadline exceeded (--search-timeout-ms)";
            return Err(error_response(504, msg));
        }
        Ok(outs)
    }

    pub(super) fn search(&self, body: &[u8], info: &mut RequestInfo) -> Answer {
        let spec = spec_from_json(&parse_body(body)?).map_err(|msg| error_response(400, &msg))?;
        info.note_spec(&spec);
        self.searches.fetch_add(1, Ordering::Relaxed);
        let out = self.execute(std::slice::from_ref(&spec), info)?;
        Ok(Response::json(
            200,
            query_output_json(&spec, &out[0]).to_string(),
        ))
    }

    pub(super) fn search_batch(&self, body: &[u8], info: &mut RequestInfo) -> Answer {
        let doc = parse_body(body)?;
        let mut specs = Vec::new();
        for (i, q) in array_field(&doc, "queries", "query spec objects")?
            .iter()
            .enumerate()
        {
            let spec = spec_from_json(q)
                .map_err(|msg| error_response(400, &format!("queries[{i}]: {msg}")))?;
            info.note_spec(&spec);
            specs.push(spec);
        }
        self.searches
            .fetch_add(specs.len() as u64, Ordering::Relaxed);
        let outputs: Vec<Json> = specs
            .iter()
            .zip(&self.execute(&specs, info)?)
            .map(|(spec, out)| query_output_json(spec, out))
            .collect();
        Ok(Response::json(
            200,
            obj(vec![("outputs", Json::Arr(outputs))]).to_string(),
        ))
    }

    /// RELATED SET DISCOVERY over external references: one spec per
    /// reference at the engine's δ, executed as one batch. Reference
    /// `r`'s hits are its pairs, already in `(r, s)` order; the stats
    /// are the queries' sum.
    pub(super) fn discover(&self, body: &[u8], info: &mut RequestInfo) -> Answer {
        let specs: Vec<QuerySpec> = string_sets(&parse_body(body)?, "references")?
            .into_iter()
            .map(QuerySpec::new)
            .collect();
        self.discoveries.fetch_add(1, Ordering::Relaxed);
        let outs = self.execute(&specs, info)?;
        let pairs = outs.iter().enumerate().flat_map(|(r, out)| {
            out.hits.iter().map(move |&(s, score)| {
                obj(vec![
                    ("r", Json::Num(r as f64)),
                    ("s", Json::Num(f64::from(s))),
                    ("score", Json::Num(score)),
                ])
            })
        });
        let stats: Vec<PassStats> = outs.iter().map(ShardedQueryOutput::merged_stats).collect();
        Ok(Response::json(
            200,
            obj(vec![
                ("pairs", Json::Arr(pairs.collect())),
                ("stats", Json::Obj(stats_json_pairs(&merge_stats(&stats)))),
            ])
            .to_string(),
        ))
    }
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

/// Places one executed query on the request's trace: a `query` span
/// carrying the published counters of its merged `stats`, a `shard`
/// child per shard, and `stage`/`verify`(/`explain`) grandchildren from
/// that shard's [`PhaseTiming`](silkmoth_core::PhaseTiming). Phase
/// starts are reconstructed sequentially — stage → verify → explain is
/// the engine's actual execution order inside one shard.
fn record_query_spans(
    trace: &mut TraceCollector,
    out: &ShardedQueryOutput,
    stats: &PassStats,
    start_us: u64,
    dur: Duration,
    collection: Option<&str>,
) {
    let query = trace.add_span(trace::ROOT, "query", start_us, dur);
    for (key, value) in published(stats) {
        trace.attr_u64(query, key, value);
    }
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

/// The [`PassStats`] counters the service publishes, in order: the
/// fields of every `stats` object and the attributes of every `query`
/// span.
fn published(stats: &PassStats) -> [(&'static str, u64); 9] {
    [
        ("candidates", stats.candidates as u64),
        ("after_check", stats.after_check as u64),
        ("after_nn", stats.after_nn as u64),
        ("verified", stats.verified as u64),
        ("results", stats.results as u64),
        ("sim_evals", stats.sim_evals),
        ("reduced_pairs", stats.reduced_pairs),
        ("signature_cost", stats.signature_cost),
        ("degenerate", u64::from(stats.degenerate)),
    ]
}

/// [`PassStats`] as ordered JSON object fields.
pub(super) fn stats_json_pairs(stats: &PassStats) -> Vec<(String, Json)> {
    published(stats)
        .into_iter()
        .map(|(key, value)| (key.to_owned(), Json::Num(value as f64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::super::testutil::*;
    use super::*;
    use crate::shard::ShardedEngine;

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
        let families = crate::telemetry::expo::parse_text(&page).unwrap();
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
        // In-memory services report no storage section.
        assert!(stats.get("storage").is_none());
        assert_eq!(stats.get("slots").and_then(Json::as_usize), Some(20));
    }

    /// `/discover` records each reference as one query, as `/search`
    /// does: one signature-cost and one phase observation per reference,
    /// and one `query` span per reference carrying every published
    /// counter.
    #[test]
    fn discover_roundtrip() {
        let s = service().with_trace_sample(1);
        let sample = |name: &str, labels: &[(&str, &str)]| -> f64 {
            let page = s.metrics().render();
            crate::telemetry::expo::parse_text(&page)
                .unwrap()
                .iter()
                .flat_map(|f| &f.samples)
                .find(|x| {
                    let got = x.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    x.name == name && got.eq(labels.iter().copied())
                })
                .unwrap_or_else(|| panic!("{name} {labels:?} missing:\n{page}"))
                .value
        };
        let cost = "silkmoth_query_signature_cost_count";
        let stage = "silkmoth_query_phase_duration_seconds_count";
        let before = (sample(cost, &[]), sample(stage, &[("phase", "stage")]));
        let references = r#"{"references": [["w0 w1 shared0", "w3 w4 shared0"], ["nothing matches this"], ["w2 w3 shared1"]]}"#;
        let (status, doc) = post(&s, "/discover", references);
        assert_eq!(status, 200, "{doc}");
        let pairs = doc.get("pairs").and_then(Json::as_array).unwrap();
        assert!(pairs
            .iter()
            .all(|p| p.get("r").is_some() && p.get("s").is_some() && p.get("score").is_some()));
        assert_eq!(sample(cost, &[]), before.0 + 3.0);
        assert_eq!(sample(stage, &[("phase", "stage")]), before.1 + 3.0);

        let (_, page) = get(&s, "/debug/traces?route=/discover");
        let traces = page.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(traces.len(), 1, "{page}");
        let spans = traces[0].get("spans").and_then(Json::as_array).unwrap();
        let queries: Vec<&Json> = spans
            .iter()
            .filter(|sp| sp.get("kind").and_then(Json::as_str) == Some("query"))
            .collect();
        assert_eq!(queries.len(), 3, "{page}");
        for query in queries {
            let attrs = query.get("attrs").unwrap();
            for (key, _) in published(&PassStats::default()) {
                assert!(
                    attrs.get(key).and_then(Json::as_usize).is_some(),
                    "{key}: {query}"
                );
            }
        }
    }

    /// `POST /discover` is the per-reference `/search`es flattened:
    /// reference `r`'s results are the pairs that name `r`, in the same
    /// order and with the same scores, and the stats are the searches'
    /// sum — on every shard count, fresh and after Remove + Append +
    /// Compact.
    #[test]
    fn discover_equals_the_flattened_per_reference_searches() {
        let references: Vec<Vec<String>> = corpus()
            .into_iter()
            .step_by(3)
            .chain([vec!["nothing matches this".to_owned()]])
            .collect();
        let texts = |set: &[String]| Json::Arr(set.iter().cloned().map(Json::Str).collect());
        let discover = obj(vec![(
            "references",
            Json::Arr(references.iter().map(|set| texts(set)).collect()),
        )])
        .to_string();
        for shards in [1, 2, 7] {
            let s = SearchService::new(engine(shards));
            for state in ["fresh", "updated"] {
                if state == "updated" {
                    let (status, _) = send(&s, "DELETE", "/sets", r#"{"ids": [1, 4, 9]}"#);
                    assert_eq!(status, 200);
                    let appended = r#"{"sets": [["w0 w1 shared0", "w3 w4 shared0"], ["w2 w2"]]}"#;
                    assert_eq!(post(&s, "/sets", appended).0, 200);
                    assert_eq!(post(&s, "/compact", "").0, 200);
                }
                let mut want_pairs = Vec::new();
                let mut want_stats: Vec<(String, f64)> = Vec::new();
                for (r, set) in references.iter().enumerate() {
                    let body = obj(vec![("reference", texts(set))]).to_string();
                    let (status, doc) = post(&s, "/search", &body);
                    assert_eq!(status, 200, "{doc}");
                    for hit in doc.get("results").and_then(Json::as_array).unwrap() {
                        want_pairs.push(obj(vec![
                            ("r", Json::Num(r as f64)),
                            ("s", hit.get("set").unwrap().clone()),
                            ("score", hit.get("score").unwrap().clone()),
                        ]));
                    }
                    let Some(Json::Obj(stats)) = doc.get("stats") else {
                        panic!("no stats in {doc}");
                    };
                    want_stats.resize(stats.len(), (String::new(), 0.0));
                    for ((name, sum), (field, v)) in want_stats.iter_mut().zip(stats) {
                        name.clone_from(field);
                        *sum += v.as_f64().unwrap();
                    }
                }
                let (status, doc) = post(&s, "/discover", &discover);
                let context = format!("shards={shards} {state}");
                assert_eq!(status, 200, "{context}: {doc}");
                let pairs = doc.get("pairs").and_then(Json::as_array).unwrap();
                assert!(!pairs.is_empty(), "{context}");
                assert_eq!(pairs, &want_pairs[..], "{context}");
                let want_stats: Vec<(String, Json)> = want_stats
                    .into_iter()
                    .map(|(name, sum)| (name, Json::Num(sum)))
                    .collect();
                assert_eq!(doc.get("stats"), Some(&Json::Obj(want_stats)), "{context}");
            }
        }
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
        // Discovery holds the read lock for one pass per reference, and
        // answers to the same budget.
        let discover = r#"{"references": [["w0 w1 shared0"], ["w3 w4 shared0"]]}"#;
        let (status, doc) = post(&s, "/discover", discover);
        assert_eq!(status, 504, "{doc}");
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("--search-timeout-ms"));
        // Malformed references are still named 400s, not timeouts.
        let (status, _) = post(&s, "/discover", r#"{"references": [[]]}"#);
        assert_eq!(status, 400);
        // A generous budget answers normally.
        let s = SearchService::new(ShardedEngine::build(&corpus(), engine_cfg(), 3).unwrap())
            .with_search_timeout(Duration::from_secs(60));
        let (status, doc) = post(&s, "/search", r#"{"reference": ["w0 w1 shared0"]}"#);
        assert_eq!(status, 200, "{doc}");
        assert_eq!(doc.get("timed_out"), Some(&Json::Bool(false)));
        let (status, doc) = post(&s, "/discover", discover);
        assert_eq!(status, 200, "{doc}");
        assert!(doc.get("pairs").and_then(Json::as_array).is_some());
    }

    #[test]
    fn search_batch_rejects_other_methods() {
        let s = service();
        assert_eq!(get(&s, "/search/batch").0, 405);
    }
}
