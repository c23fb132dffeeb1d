//! The traced run: the per-layer budget.
//!
//! In-process, the bench's own code builds the same corpus and replays a
//! fixed sample of the workload's ops. Each layer's public function is
//! called with the inputs the layer above would pass it, and timed. The
//! program itself has no spans at these boundaries yet, so the calls run
//! one after another and the span tree is laid out on a **synthetic**
//! timeline: a child starts where its parent (or previous sibling)
//! starts, with its measured duration; shard engines, which a server
//! with several shards runs side by side, start together (the suite's
//! server has one, like the end-to-end run). A layer's self time is then
//! the usual one: its duration minus what its children cover.
//!
//! The replay composes the layers' public functions the way the engine
//! composes them today: encode, `Searcher::survivors`, `verify_pair` on
//! every survivor, rank. It checks only what any engine must give, the
//! answer. A change that alters the composition (stopping verification
//! early, say) shows as `bench.trace_accounted_ratio` leaving 1, and the
//! replay is then brought along in a benchmark change of its own.

use silkmoth_collection::{Collection, InvertedIndex};
use silkmoth_core::signature::{generate, SigKind, SigParams};
use silkmoth_core::{
    rank, verify_pair, Engine, PassStats, Phi, QuerySpec, Restriction, Searcher, Update, VerifyCost,
};
use silkmoth_server::json::{obj, Json};
use silkmoth_server::{
    http, spec_from_json, CatalogConfig, CatalogService, Request, Response, SearchService,
    ShardSpec, ShardedEngine, ShardedQueryOutput,
};
use silkmoth_storage::{Store, StoreConfig, StoreEvent, TelemetryHook};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::server::{dir_bytes, Client};
use crate::workload::{Inputs, Op, SHARDS};

/// Searches and updates replayed per workload. The top-k workloads run a
/// query about eight times per sampled op (once per layer boundary), so
/// their sample is smaller.
const TRACE_UPDATES: usize = 500;
/// Sets in the self-join of `core.discover.*` (the paper's Problem 1),
/// and the threads it runs on.
const DISCOVER_SETS: usize = 2_000;
const DISCOVER_THREADS: usize = 2;

fn trace_searches(inputs: &Inputs) -> usize {
    if inputs.workload.k.is_some() {
        50
    } else {
        200
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) id: u32,
    pub(crate) name: &'static str,
    /// The sampled op this span belongs to.
    pub(crate) op: u32,
    pub(crate) parent: Option<u32>,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

/// One measured call, with the calls measured beneath it.
#[derive(Debug, Default)]
pub(crate) struct Node {
    pub(crate) name: &'static str,
    pub(crate) dur_ns: u64,
    pub(crate) children: Vec<Node>,
    /// The children ran side by side (the shard scatter), so they all
    /// start with the parent instead of one after another.
    pub(crate) parallel: bool,
}

impl Node {
    fn leaf(name: &'static str, dur_ns: u64) -> Node {
        Node {
            name,
            dur_ns,
            ..Node::default()
        }
    }

    fn with(name: &'static str, dur_ns: u64, children: Vec<Node>) -> Node {
        Node {
            name,
            dur_ns,
            children,
            parallel: false,
        }
    }

    /// Lays this tree out as spans starting at `start_ns`.
    pub(crate) fn flatten(
        &self,
        op: u32,
        parent: Option<u32>,
        start_ns: u64,
        spans: &mut Vec<Span>,
    ) {
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            name: self.name,
            op,
            parent,
            start_ns,
            end_ns: start_ns + self.dur_ns,
        });
        let mut at = start_ns;
        for child in &self.children {
            child.flatten(op, Some(id), at, spans);
            if !self.parallel {
                at += child.dur_ns;
            }
        }
    }
}

/// Self time per span: its duration minus what its child spans cover
/// (children may nest, touch or overlap). Signed: on the synthetic
/// timeline a child was timed apart from its parent and can outlast it
/// by noise; cutting that off would push every mean upwards.
pub(crate) fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) as i64 - covered as i64
        })
        .collect()
}

/// Per layer name: summed duration and summed self time, in ns.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LayerTime {
    pub(crate) total_ns: u64,
    pub(crate) self_ns: i64,
    pub(crate) calls: u64,
}

pub(crate) fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let layer = layers.entry(span.name).or_default();
        layer.total_ns += span.end_ns - span.start_ns;
        layer.self_ns += own;
        layer.calls += 1;
    }
    layers
}

/// Where the time goes: per request kind (the name of the root span),
/// each layer's self time per request and its share of the whole.
pub(crate) fn layer_table(spans: &[Span]) -> String {
    // A parent is always laid out before its children.
    let mut kind: Vec<&'static str> = Vec::with_capacity(spans.len());
    let mut requests: BTreeMap<&str, f64> = BTreeMap::new();
    for span in spans {
        match span.parent {
            Some(p) => kind.push(kind[p as usize]),
            None => {
                kind.push(span.name);
                *requests.entry(span.name).or_default() += 1.0;
            }
        }
    }
    let mut own_ns: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for ((span, own), kind) in spans.iter().zip(self_times(spans)).zip(&kind) {
        *own_ns.entry((kind, span.name)).or_default() += own as f64;
    }
    // A layer whose summed self time comes out below zero is noise around zero.
    own_ns.values_mut().for_each(|ns| *ns = ns.max(0.0));
    let mut out = String::new();
    for (kind, requests) in requests {
        let layers = own_ns.iter().filter(|((k, _), _)| *k == kind);
        let whole: f64 = layers.clone().map(|(_, ns)| ns).sum();
        for ((_, name), ns) in layers {
            out.push_str(&format!(
                "  {kind:<22} {name:<22} {:>10.1} us self {:>5.1} %\n",
                ns / 1e3 / requests,
                ns / whole.max(1.0) * 100.0
            ));
        }
    }
    out
}

/// A layer's mean time per op in µs: its self time (`own`; a mean below
/// zero is noise around zero) or its whole duration.
fn per_op_us(layers: &BTreeMap<&'static str, LayerTime>, name: &str, own: bool, ops: f64) -> f64 {
    layers.get(name).map_or(0.0, |l| {
        let ns = if own {
            l.self_ns.max(0) as f64
        } else {
            l.total_ns as f64
        };
        ns / 1e3 / ops
    })
}

impl Traced {
    /// Lays `tree` out after the spans recorded so far.
    fn record(&mut self, op: usize, tree: Node) {
        let at = self.spans.last().map_or(0, |s| s.end_ns);
        tree.flatten(op as u32, None, at, &mut self.spans);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// Counts summed over the sampled searches; they come from the public
/// `PassStats` and must repeat exactly for a seed.
#[derive(Debug, Default)]
struct ReadCounts {
    stats: PassStats,
    verify: VerifyCost,
    encode_calls: u64,
    /// The φ-only pass: its time and the evaluations it made.
    phi_ns: u64,
    phi_pairs: u64,
    brute_evals: u64,
    stage_us: f64,
    verify_us: f64,
    engine_ns: u64,
    explained_ns: u64,
}

/// What the traced run reports, by per-layer metric name.
#[derive(Default)]
pub(crate) struct Traced {
    pub(crate) metrics: BTreeMap<&'static str, f64>,
    pub(crate) spans: Vec<Span>,
    /// Sampled ops whose re-enacted answer differs from the real one.
    pub(crate) mismatches: usize,
}

fn render(spec: &QuerySpec, out: &ShardedQueryOutput) -> String {
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
        let s = out.merged_stats();
        let pairs = [
            ("candidates", s.candidates as f64),
            ("after_check", s.after_check as f64),
            ("after_nn", s.after_nn as f64),
            ("verified", s.verified as f64),
            ("results", s.results as f64),
            ("sim_evals", s.sim_evals as f64),
            ("reduced_pairs", s.reduced_pairs as f64),
            ("signature_cost", s.signature_cost as f64),
            ("degenerate", f64::from(s.degenerate)),
        ];
        fields.push((
            "stats",
            obj(pairs.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ));
    }
    obj(fields).to_string()
}

/// One shard's `Engine::execute`, then the same pass layer by layer.
/// Returns the `core.engine` node, the engine's hits, and whether the
/// layers reproduced them.
fn trace_shard(
    engine: &Engine,
    spec: &QuerySpec,
    counts: &mut ReadCounts,
) -> (Node, Vec<(u32, f64)>, bool) {
    // The scatter ran this shard on another thread, maybe another core;
    // one untimed call brings its data to this one, so that the timed
    // call and the layers below it meet the same caches.
    engine.execute(spec);
    let (real, engine_ns) = timed(|| engine.execute(spec));
    counts.stats.merge(&real.stats);
    counts.stage_us += real.timing.stage.as_secs_f64() * 1e6;
    counts.verify_us += real.timing.verify.as_secs_f64() * 1e6;

    let mut cfg = *engine.config();
    if let Some(floor) = spec.floor() {
        cfg.delta = floor.max(f64::MIN_POSITIVE);
    }
    let collection = engine.collection();
    let (r, encode_ns) = timed(|| collection.encode_set(spec.reference()));
    counts.encode_calls += 1;
    let params = SigParams {
        theta: cfg.delta * r.len() as f64,
        alpha: cfg.alpha,
        kind: SigKind::of(cfg.similarity),
    };
    let (_, signature_ns) = timed(|| generate(&r, cfg.scheme, params, engine.index()));
    // `Searcher::new` sizes its scratch to the collection on every
    // query, as `Engine::execute` does; `survivors` generates the
    // signature again inside, which is why it is the filter's child.
    let (survivors, filter_ns) = timed(|| {
        Searcher::new(collection, engine.index(), cfg)
            .survivors(&r, Restriction::default())
            .0
    });
    let phi = Phi::new(cfg.similarity, cfg.alpha);
    let mut cost = VerifyCost::default();
    let (mut hits, verify_ns) = timed(|| {
        survivors
            .iter()
            .filter_map(|&sid| {
                verify_pair(&r, collection.set(sid), &cfg, &phi, &mut cost)
                    .map(|score| (sid, score))
            })
            .collect::<Vec<(u32, f64)>>()
    });
    counts.verify.sim_evals += cost.sim_evals;
    counts.verify.reduced_pairs += cost.reduced_pairs;
    let (_, rank_ns) = timed(|| match spec.top_k() {
        Some(k) => rank::rank_top_k(&mut hits, k),
        None => hits.sort_unstable_by_key(|&(sid, _)| sid),
    });

    // φ alone, by the public kernel over the element pairs of the
    // verified sets: the time of one evaluation, times the evaluations
    // `verify_pair` counted, is the `text` part of `core.verify`; what is
    // left of it is the matching layer (reduction and assignment).
    let (pairs, phi_ns) = timed(|| {
        let mut pairs = 0u64;
        for &sid in &survivors {
            let s = collection.set(sid);
            for re in &r.elements {
                for se in &s.elements {
                    std::hint::black_box(phi.eval(re, se));
                }
            }
            pairs += (r.len() * s.len()) as u64;
        }
        pairs
    });
    counts.phi_ns += phi_ns;
    counts.phi_pairs += pairs;
    let text_ns = ((phi_ns as f64 / pairs.max(1) as f64) * cost.sim_evals as f64) as u64;
    let text_ns = text_ns.min(verify_ns);
    let assign_ns = verify_ns - text_ns;
    // Whatever the engine does inside, its answer is the verified
    // survivors, ranked.
    let same = hits == real.hits;
    let elements: usize = collection
        .live_ids()
        .map(|sid| collection.set(sid).len())
        .sum();
    counts.brute_evals += (r.len() * elements) as u64;
    counts.engine_ns += engine_ns;
    counts.explained_ns += encode_ns + filter_ns + verify_ns + rank_ns;

    let node = Node::with(
        "core.engine",
        engine_ns,
        vec![
            Node::leaf("collection.encode", encode_ns),
            Node::with(
                "core.filter",
                filter_ns,
                vec![Node::leaf("core.signature", signature_ns)],
            ),
            Node::with(
                "core.verify",
                verify_ns,
                vec![
                    Node::leaf("text.sim", text_ns),
                    Node::leaf("matching.assign", assign_ns),
                ],
            ),
            Node::leaf("core.rank", rank_ns),
        ],
    );
    (node, real.hits, same)
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request::new(method, path, body.as_bytes().to_vec())
}

fn ok(resp: &Response, what: &str) -> Result<(), String> {
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!(
            "{what} answered {} in process: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ))
    }
}

fn catalog_over(service: Arc<SearchService>, inputs: &Inputs) -> Result<CatalogService, String> {
    CatalogService::open(
        service,
        CatalogConfig {
            data_dir: None,
            engine_cfg: inputs.workload.cfg,
            store_cfg: StoreConfig::default(),
            ephemeral_policy: Default::default(),
            default_shards: SHARDS,
            max_collections: 64,
            max_inflight_updates: None,
            search_timeout: None,
        },
    )
    .map_err(|e| e.to_string())
}

/// `killed_dir` is the data dir the end-to-end run left behind after
/// its last `SIGKILL`; `work` holds the trace's own stores.
pub(crate) fn trace(inputs: &Inputs, killed_dir: &Path, work: &Path) -> Result<Traced, String> {
    let mut t = Traced::default();
    let engine = trace_build(inputs, &mut t)?;
    trace_reads(inputs, engine, &mut t)?;
    trace_writes(inputs, work, &mut t)?;

    let w = &inputs.workload;
    let spec = ShardSpec {
        cfg: w.cfg,
        shards: SHARDS,
    };
    let (opened, open_ns) =
        timed(|| Store::<ShardedEngine>::open(killed_dir, &spec, StoreConfig::default()));
    let (_, report) = opened.map_err(|e| format!("opening {}: {e}", killed_dir.display()))?;
    t.metrics.insert("storage.open.s", open_ns as f64 / 1e9);
    t.metrics
        .insert("storage.open.replayed_records", report.wal_replayed as f64);
    Ok(t)
}

fn build_engine(inputs: &Inputs) -> Result<ShardedEngine, String> {
    ShardedEngine::build(&inputs.corpus, inputs.workload.cfg, SHARDS).map_err(|e| e.to_string())
}

/// Build times and sizes; returns the engine the read path is traced on.
fn trace_build(inputs: &Inputs, t: &mut Traced) -> Result<ShardedEngine, String> {
    let w = &inputs.workload;
    let m = &mut t.metrics;
    let (collection, build_ns) = timed(|| Collection::build(&inputs.corpus, w.cfg.tokenization()));
    let (index, index_ns) = timed(|| InvertedIndex::build(&collection));
    m.insert("collection.build_s", build_ns as f64 / 1e9);
    m.insert("collection.index_build_s", index_ns as f64 / 1e9);
    m.insert("collection.postings", index.total_postings() as f64);
    m.insert("collection.tokens", index.num_tokens() as f64);
    drop((collection, index));
    let (engine, shard_build_ns) = timed(|| build_engine(inputs));
    let engine = engine?;
    m.insert("server.shard.build_s", shard_build_ns as f64 / 1e9);
    m.insert("collection.text_bytes", engine.text_bytes() as f64);

    // Discovery (the paper's Problem 1), on a prefix.
    let prefix = &inputs.corpus[..inputs.corpus.len().min(DISCOVER_SETS)];
    let joiner = Engine::new(Collection::build(prefix, w.cfg.tokenization()), w.cfg)
        .map_err(|e| e.to_string())?;
    let (found, discover_ns) = timed(|| joiner.discover_self_parallel(DISCOVER_THREADS));
    m.insert(
        "core.discover.sets_per_s",
        prefix.len() as f64 / (discover_ns as f64 / 1e9),
    );
    m.insert("core.discover.pairs", found.pairs.len() as f64);
    Ok(engine)
}

/// The read path: the sampled searches, layer by layer.
fn trace_reads(inputs: &Inputs, engine: ShardedEngine, t: &mut Traced) -> Result<(), String> {
    let service = Arc::new(SearchService::new(engine));
    let catalog = catalog_over(Arc::clone(&service), inputs)?;
    let sample: Vec<usize> = (0..inputs.references.len().min(trace_searches(inputs))).collect();
    let n = sample.len().max(1) as f64;

    let mut counts = ReadCounts::default();
    let (mut scoped_total, mut skew_sum) = (0u64, 0.0);
    for (op, &s) in sample.iter().enumerate() {
        let body = &inputs.searches[s];
        let req = request("POST", "/search", body);
        let scoped = request("POST", "/collections/default/search", body);
        let (spec, decode_ns) = timed(|| {
            Json::parse(body)
                .map_err(|e| e.to_string())
                .and_then(|d| spec_from_json(&d))
        });
        let spec = spec?;
        let engine = service.engine();
        // Every sampled op runs about nine times back to back, so all
        // but this first, untimed call meet warm caches: layer times
        // compare with each other, not with a cold request's latency.
        ok(&catalog.handle(&req), "POST /search")?;
        // The whole-request calls, each timed on its own. Even warm, a
        // later call of the same request runs a little faster than an
        // earlier one; the order rotates from op to op so that no layer
        // always goes first and the means of their differences hold.
        let (mut catalog_ns, mut scoped_ns, mut service_ns, mut execute_ns) = (0, 0, 0, 0);
        let (mut resp, mut out) = (None, None);
        for turn in 0..4 {
            match (turn + op) % 4 {
                0 => {
                    let (r, ns) = timed(|| catalog.handle(&req));
                    (resp, catalog_ns) = (Some(r), ns);
                }
                1 => {
                    let (r, ns) = timed(|| catalog.handle(&scoped));
                    ok(&r, "POST /collections/default/search")?;
                    scoped_ns = ns;
                }
                2 => service_ns = timed(|| service.handle(&req)).1,
                _ => {
                    let (o, ns) = timed(|| engine.execute_until(&spec, None));
                    (out, execute_ns) = (Some(o), ns);
                }
            }
        }
        let (resp, out) = (resp.expect("turn 0 ran"), out.expect("turn 3 ran"));
        scoped_total += scoped_ns;
        let (rendered, encode_ns) = timed(|| render(&spec, &out));
        if rendered.as_bytes() != resp.body {
            t.mismatches += 1;
        }

        let mut shard_nodes = Vec::with_capacity(SHARDS);
        let mut parts = Vec::with_capacity(SHARDS);
        for shard in engine.shards() {
            let (node, hits, same) = trace_shard(shard, &spec, &mut counts);
            t.mismatches += usize::from(!same);
            parts.push(hits);
            shard_nodes.push(node);
        }
        let slowest = shard_nodes.iter().map(|n| n.dur_ns).max().unwrap_or(0);
        let mean = shard_nodes.iter().map(|n| n.dur_ns as f64).sum::<f64>() / SHARDS as f64;
        skew_sum += slowest as f64 / mean.max(1.0);
        let (_, merge_ns) = timed(|| rank::merge_partitioned(parts, spec.top_k()));

        let scatter = Node {
            name: "server.shard.scatter",
            dur_ns: slowest,
            children: shard_nodes,
            parallel: true,
        };
        let tree = Node::with(
            "server.catalog",
            catalog_ns,
            vec![Node::with(
                "server.service",
                service_ns,
                vec![
                    Node::leaf("server.json.decode", decode_ns),
                    Node::with(
                        "server.shard",
                        execute_ns,
                        vec![scatter, Node::leaf("core.rank", merge_ns)],
                    ),
                    Node::leaf("server.json.encode", encode_ns),
                ],
            )],
        );
        t.record(op, tree);
    }

    let layers = by_layer(&t.spans);
    let us = |name: &str, own: bool| per_op_us(&layers, name, own, n);
    let m = &mut t.metrics;
    m.insert("server.catalog.self_us", us("server.catalog", true));
    m.insert(
        "server.catalog.scoped_self_us",
        (scoped_total as f64 / 1e3 / n - us("server.service", false)).max(0.0),
    );
    m.insert("server.service.self_us", us("server.service", true));
    m.insert("server.json.decode_us", us("server.json.decode", false));
    m.insert("server.json.encode_us", us("server.json.encode", false));
    m.insert("server.shard.self_us", us("server.shard", true));
    m.insert("server.shard.skew", skew_sum / n);
    m.insert("collection.encode_us", us("collection.encode", false));
    m.insert("collection.encode_calls", counts.encode_calls as f64 / n);
    m.insert("core.signature.us", us("core.signature", false));
    m.insert(
        "core.signature.cost",
        counts.stats.signature_cost as f64 / n,
    );
    m.insert("core.filter.us", us("core.filter", true));
    m.insert("core.filter.candidates", counts.stats.candidates as f64 / n);
    m.insert(
        "core.filter.after_check",
        counts.stats.after_check as f64 / n,
    );
    m.insert("core.filter.after_nn", counts.stats.after_nn as f64 / n);
    m.insert("core.verify.us", us("core.verify", false));
    m.insert("core.verify.verified", counts.stats.verified as f64 / n);
    m.insert("core.verify.results", counts.stats.results as f64 / n);
    m.insert(
        "core.verify.useful_ratio",
        counts.stats.results as f64 / (counts.stats.verified.max(1)) as f64,
    );
    m.insert("core.verify.sim_evals", counts.verify.sim_evals as f64 / n);
    m.insert(
        "core.verify.reduced_pairs",
        counts.verify.reduced_pairs as f64 / n,
    );
    m.insert("matching.assign_us", us("matching.assign", false));
    m.insert("matching.calls", counts.stats.verified as f64 / n);
    m.insert(
        "matching.mean_dim",
        (counts.verify.sim_evals as f64 / counts.stats.verified.max(1) as f64).sqrt(),
    );
    m.insert(
        "text.sim_ns",
        counts.phi_ns as f64 / counts.phi_pairs.max(1) as f64,
    );
    m.insert("core.sim_evals", counts.stats.sim_evals as f64 / n);
    m.insert(
        "core.sim_evals_vs_brute",
        counts.stats.sim_evals as f64 / counts.brute_evals.max(1) as f64,
    );
    m.insert("core.rank.us", us("core.rank", false));
    m.insert("core.engine.stage_us", counts.stage_us / n);
    m.insert("core.engine.verify_us", counts.verify_us / n);
    m.insert(
        "bench.trace_accounted_ratio",
        counts.explained_ns as f64 / counts.engine_ns.max(1) as f64,
    );

    // HTTP framing alone: the same request bytes against an echo handler.
    let echo = http::serve("127.0.0.1:0", 1, |req: &Request| {
        Response::json(200, String::from_utf8_lossy(&req.body).into_owned())
    })
    .map_err(|e| format!("starting the echo server: {e}"))?;
    let mut client = Client::connect(&echo.addr().to_string())?;
    let mut roundtrip_ns = 0;
    for &s in &sample {
        let (reply, ns) = timed(|| client.send("POST", "/search", &inputs.searches[s]));
        reply?;
        roundtrip_ns += ns;
    }
    drop(client);
    echo.shutdown();
    m.insert("server.http.roundtrip_us", roundtrip_ns as f64 / 1e3 / n);

    Ok(())
}

/// The write path: the sampled updates through a durable service, and
/// the same updates through a twin store and an ephemeral engine.
fn trace_writes(inputs: &Inputs, work: &Path, t: &mut Traced) -> Result<(), String> {
    let updates: Vec<&Op> = inputs
        .chunk
        .iter()
        .chain(&inputs.tail)
        .filter(|op| !matches!(op, Op::Search(_)))
        .take(TRACE_UPDATES)
        .collect();
    let u = updates.len().max(1) as f64;
    let store_cfg = StoreConfig::default();
    let fresh = |name: &str| -> Result<Store<ShardedEngine>, String> {
        let dir = work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        Store::create(dir, build_engine(inputs)?, store_cfg).map_err(|e| e.to_string())
    };
    let durable = SearchService::durable(fresh("trace-service")?);
    let mut twin = fresh("trace-store")?;
    let fsyncs = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&fsyncs);
    twin.set_telemetry_hook(TelemetryHook::new(move |event| {
        if let StoreEvent::CommitBatch { sync, .. } = event {
            counter.fetch_add(u64::from(!sync.is_zero()), Ordering::Relaxed);
        }
    }));
    let mut ephemeral = build_engine(inputs)?;
    let wal_before = dir_bytes(twin.dir())?;
    for (op, update_op) in updates.iter().enumerate() {
        let (method, path, body) = inputs.request(update_op);
        let req = request(method, path, &body);
        let (resp, handle_ns) = timed(|| durable.handle(&req));
        ok(&resp, path)?;
        let update = match update_op {
            Op::Append(a) => Update::Append(vec![inputs.incoming[*a].clone()]),
            Op::Remove(id) => Update::Remove(vec![*id]),
            Op::Search(_) => unreachable!("searches were filtered out"),
        };
        let (batch, commit_ns) = timed(|| twin.commit_batch(vec![update.clone()]));
        let batch = batch.map_err(|e| e.to_string())?;
        let (applied, apply_ns) = timed(|| twin.apply_committed(batch));
        applied.map_err(|e| e.to_string())?;
        let (applied, engine_ns) = timed(|| ephemeral.apply(update));
        applied.map_err(|e| e.to_string())?;
        let apply = Node::with(
            "storage.apply",
            apply_ns,
            vec![Node::leaf("core.engine.apply", engine_ns)],
        );
        let tree = Node::with(
            "server.service.update",
            handle_ns,
            vec![Node::leaf("storage.commit", commit_ns), apply],
        );
        t.record(op, tree);
    }
    let wal_bytes = dir_bytes(twin.dir())?.saturating_sub(wal_before);
    let layers = by_layer(&t.spans);
    let us = |name: &str, own: bool| per_op_us(&layers, name, own, u);
    let m = &mut t.metrics;
    m.insert(
        "server.service.update_self_us",
        us("server.service.update", true),
    );
    m.insert("storage.commit.us", us("storage.commit", false));
    m.insert("storage.apply.us", us("storage.apply", false));
    m.insert("core.engine.apply_us", us("core.engine.apply", false));
    m.insert("storage.wal.bytes_per_update", wal_bytes as f64 / u);
    m.insert(
        "storage.fsyncs_per_update",
        fsyncs.load(Ordering::Relaxed) as f64 / u,
    );
    let (snapshot, snapshot_ns) = timed(|| twin.snapshot());
    snapshot.map_err(|e| e.to_string())?;
    m.insert("storage.snapshot.write_s", snapshot_ns as f64 / 1e9);
    // The rotation retires the old generation, so what is left is the
    // new snapshot and an empty WAL segment.
    m.insert("storage.snapshot.bytes", dir_bytes(twin.dir())? as f64);
    Ok(())
}

pub(crate) fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("id", Json::Num(f64::from(s.id))),
                ("name", Json::Str(s.name.into())),
                ("op", Json::Num(f64::from(s.op))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::Arr(rows).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),  // adjacent to the next one
            span(2, Some(0), 40, 60),  // has a child of its own
            span(3, Some(2), 45, 55),  // grandchild: only span 2 sees it
            span(4, Some(0), 50, 70),  // overlaps span 2 (side by side)
            span(5, Some(0), 90, 120), // timed apart, outlasts the parent
        ];
        // Children cover [10, 70) and [90, 120): 90 against the root's 100.
        assert_eq!(self_times(&spans), vec![10, 30, 10, 10, 20, 30]);
        // A child that outlasts its parent altogether: negative, not cut.
        assert_eq!(
            self_times(&[span(0, None, 0, 10), span(1, Some(0), 0, 14)]),
            vec![-4, 14]
        );
    }

    #[test]
    fn parallel_children_start_together() {
        let tree = Node {
            name: "scatter",
            dur_ns: 50,
            children: vec![Node::leaf("a", 50), Node::leaf("b", 30)],
            parallel: true,
        };
        let root = Node::with("root", 80, vec![tree, Node::leaf("merge", 10)]);
        let mut spans = Vec::new();
        root.flatten(7, None, 1_000, &mut spans);
        let at: Vec<(u64, u64)> = spans
            .iter()
            .map(|s| (s.start_ns - 1_000, s.end_ns - 1_000))
            .collect();
        assert_eq!(at, vec![(0, 80), (0, 50), (0, 50), (0, 30), (50, 60)]);
        // Root: 80 − scatter 50 − merge 10; scatter: covered by its slowest child.
        assert_eq!(self_times(&spans), vec![20, 0, 50, 30, 10]);
        assert!(spans.iter().all(|s| s.op == 7));
    }
}
