//! Differential property harness for incremental collection updates.
//!
//! Correctness of the mutation layer is defined *differentially*: after
//! **any** sequence of appends, removals, and compactions, the output of
//! search / top-k / discover must be **byte-identical** — same ids, same
//! tie order, bit-for-bit equal scores — to an engine freshly built from
//! the equivalent live raw sets. This harness generates random op/query
//! interleavings (vendored proptest, seeded deterministically per test;
//! on failure the runner prints the case seed for reproduction) and
//! checks that equivalence simultaneously for:
//!
//! * the unsharded [`Engine`] mutated through [`Engine::apply`]
//!   (including id renumbering across `Update::Compact`), and
//! * [`ShardedEngine`]s with shard counts {1, 2, 7}, whose global ids
//!   are stable across every update.
//!
//! Removal renumbers nothing, so incremental ids and fresh-build ids
//! relate by the order-preserving "live order" map; order-preservation
//! is what keeps top-k tie order comparable.
//!
//! At the service level, a collection served from memory and one served
//! from a store on disk take one write path, so the same request stream
//! must get byte-identical answers from both.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth::server::{Json, Request, SearchService};
use silkmoth::{
    brute, Collection, CompactionPolicy, Engine, EngineConfig, QuerySpec, RelatednessMetric,
    SetIdx, ShardedEngine, SimilarityFunction, Store, StoreConfig, Update,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn cfg(rng: &mut StdRng) -> EngineConfig {
    let metric = if rng.random::<bool>() {
        RelatednessMetric::Similarity
    } else {
        RelatednessMetric::Containment
    };
    let delta = [0.4, 0.6, 0.8][rng.random_range(0..3usize)];
    let alpha = [0.0, 0.3][rng.random_range(0..2usize)];
    EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, alpha)
}

/// Eds over 2-grams with α > 0 on both sides of `q/(q+1)`: below it an
/// element that shares no q-gram with a reference element can still be
/// its nearest neighbor.
fn edit_cfg(rng: &mut StdRng) -> EngineConfig {
    let alpha = [0.3, 0.5, 0.7][rng.random_range(0..3usize)];
    EngineConfig {
        similarity: SimilarityFunction::Eds { q: 2 },
        alpha,
        ..cfg(rng)
    }
}

fn gen_element(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=4usize);
    (0..n)
        .map(|_| {
            if rng.random::<bool>() {
                format!("w{}", rng.random_range(0..12u32))
            } else {
                format!("shared{}", rng.random_range(0..4u32))
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// An element of a corpus that repeats its elements: one of seven
/// texts, so the same element is in most sets, often twice in one, in
/// what is appended, in what is removed and in what a compaction keeps.
fn repeated_element(rng: &mut StdRng) -> String {
    const POOL: [&str; 7] = [
        "w0 shared0",
        "w0 shared0 w1",
        "w1",
        "shared1 shared2",
        "w2 w3 shared0",
        "w0",
        "shared0 shared1 w4 w5",
    ];
    POOL[rng.random_range(0..POOL.len())].to_owned()
}

/// An element of a corpus whose sets repeat a text *inside* themselves:
/// one of four, so a set of three or four elements nearly always holds
/// one twice, and every text is in most sets. The second half are strings
/// for the edit-similarity leg, two of them sharing no 2-gram.
fn doubled_element(rng: &mut StdRng, edit: bool) -> String {
    const POOL: [&str; 8] = [
        "w0 shared0",
        "w0 w1",
        "shared0",
        "w1 shared0 w2",
        "abab",
        "abba",
        "baab",
        "cb",
    ];
    POOL[usize::from(edit) * 4 + rng.random_range(0..4usize)].to_owned()
}

/// How a run of the harness draws its elements.
type ElementGen = fn(&mut StdRng) -> String;

fn gen_set(rng: &mut StdRng, element: ElementGen) -> Vec<String> {
    let n = rng.random_range(1..=4usize);
    (0..n).map(|_| element(rng)).collect()
}

/// Per-reference hits as `(reference, gid, score bits)` triples, in
/// `(r, s)` order; `gid` maps an engine's id into the stable gid space.
fn triples(
    per_reference: impl IntoIterator<Item = Vec<(SetIdx, f64)>>,
    gid: impl Fn(SetIdx) -> SetIdx,
) -> Vec<(u32, SetIdx, u64)> {
    let mut out = Vec::new();
    for (r, hits) in (0u32..).zip(per_reference) {
        out.extend(
            hits.into_iter()
                .map(|(id, score)| (r, gid(id), score.to_bits())),
        );
    }
    out
}

/// The harness state: one incremental engine per flavor plus the model
/// (live raw sets per stable global id).
struct Harness {
    cfg: EngineConfig,
    /// gid → live raw set (`None` = removed). Gids are the sharded
    /// engines' stable global ids; slots are never reused.
    slots: Vec<Option<Vec<String>>>,
    sharded: Vec<ShardedEngine>,
    /// The unsharded engine mutated through `Engine::apply`.
    inc: Engine,
    /// gid → the unsharded engine's current id for that set (compaction
    /// renumbers these via the returned remap).
    inc_ids: HashMap<SetIdx, SetIdx>,
}

impl Harness {
    fn new(rng: &mut StdRng, element: ElementGen, cfg: fn(&mut StdRng) -> EngineConfig) -> Self {
        let cfg = cfg(rng);
        let n = rng.random_range(8..=16usize);
        let base: Vec<Vec<String>> = (0..n).map(|_| gen_set(rng, element)).collect();
        let sharded = SHARD_COUNTS
            .iter()
            .map(|&s| ShardedEngine::build(&base, cfg, s).expect("valid config"))
            .collect();
        let inc = Engine::new(Collection::build(&base, cfg.tokenization()), cfg).unwrap();
        Self {
            cfg,
            inc_ids: (0..n as SetIdx).map(|i| (i, i)).collect(),
            slots: base.into_iter().map(Some).collect(),
            sharded,
            inc,
        }
    }

    fn live_gids(&self) -> Vec<SetIdx> {
        (0..self.slots.len() as SetIdx)
            .filter(|&g| self.slots[g as usize].is_some())
            .collect()
    }

    fn append(&mut self, sets: Vec<Vec<String>>) {
        for engine in &mut self.sharded {
            let out = engine.apply(Update::Append(sets.clone())).unwrap();
            // Every flavor assigns the same monotonic ids.
            let want: Vec<SetIdx> = (0..sets.len())
                .map(|i| (self.slots.len() + i) as SetIdx)
                .collect();
            assert_eq!(out.appended, want, "sharded gid assignment");
        }
        let out = self.inc.apply(Update::Append(sets.clone())).unwrap();
        for (i, &inc_id) in out.appended.iter().enumerate() {
            self.inc_ids
                .insert((self.slots.len() + i) as SetIdx, inc_id);
        }
        self.slots.extend(sets.into_iter().map(Some));
    }

    fn remove(&mut self, gids: Vec<SetIdx>) {
        for engine in &mut self.sharded {
            engine.apply(Update::Remove(gids.clone())).unwrap();
        }
        let inc_ids: Vec<SetIdx> = gids.iter().map(|g| self.inc_ids[g]).collect();
        self.inc.apply(Update::Remove(inc_ids)).unwrap();
        for g in gids {
            self.slots[g as usize] = None;
        }
    }

    fn compact(&mut self) {
        for engine in &mut self.sharded {
            engine.apply(Update::Compact).unwrap();
        }
        let remap = self.inc.apply(Update::Compact).unwrap().remap.unwrap();
        // Survivors follow the remap; tombstoned gids drop out of the map
        // for good (their `remap` entry is `None`).
        self.inc_ids = self
            .inc_ids
            .iter()
            .filter_map(|(&g, &i)| remap[i as usize].map(|ni| (g, ni)))
            .collect();
    }

    /// The fresh-build comparator: an engine over exactly the live raw
    /// sets, plus the dense-id → gid map (ascending, order-preserving).
    fn fresh(&self) -> (Engine, Vec<SetIdx>) {
        let gids = self.live_gids();
        let raw: Vec<Vec<String>> = gids
            .iter()
            .map(|&g| self.slots[g as usize].clone().unwrap())
            .collect();
        let engine = Engine::new(Collection::build(&raw, self.cfg.tokenization()), self.cfg)
            .expect("fresh rebuild");
        (engine, gids)
    }

    /// Runs one query on every incremental flavor and asserts each
    /// output byte-identical to the fresh rebuild.
    fn check_query(&self, elems: &[String], k: Option<usize>, floor: Option<f64>) {
        let (fresh, gids) = self.fresh();
        let mut spec = QuerySpec::new(elems.to_vec());
        if let Some(k) = k {
            spec = spec.with_top_k(k);
        }
        if let Some(f) = floor {
            spec = spec.with_floor(f).unwrap();
        }
        // Fresh results in the stable gid space.
        let want: Vec<(SetIdx, u64)> = fresh
            .execute(&spec)
            .hits
            .into_iter()
            .map(|(fid, score)| (gids[fid as usize], score.to_bits()))
            .collect();

        for engine in &self.sharded {
            let got: Vec<(SetIdx, u64)> = engine
                .execute(&spec)
                .hits
                .into_iter()
                .map(|(gid, score)| (gid, score.to_bits()))
                .collect();
            assert_eq!(
                got,
                want,
                "sharded({}) vs fresh rebuild, k={k:?} floor={floor:?}",
                engine.shard_count()
            );
        }

        // The unsharded incremental engine reports its own (possibly
        // compacted) ids; map them back to gids. The inc→gid map is
        // order-preserving, so tie order survives the translation.
        let gid_of: HashMap<SetIdx, SetIdx> = self.inc_ids.iter().map(|(&g, &i)| (i, g)).collect();
        let got: Vec<(SetIdx, u64)> = self
            .inc
            .execute(&spec)
            .hits
            .into_iter()
            .map(|(iid, score)| (gid_of[&iid], score.to_bits()))
            .collect();
        assert_eq!(
            got, want,
            "Engine::apply vs fresh rebuild, k={k:?} floor={floor:?}"
        );
    }

    /// Batched discovery — one spec per reference — across all flavors
    /// vs brute force over the fresh rebuild.
    fn check_discover(&self, refs: &[Vec<String>]) {
        let (fresh, gids) = self.fresh();
        let encoded: Vec<_> = refs
            .iter()
            .map(|set| fresh.collection().encode_set(set))
            .collect();
        let want: Vec<(u32, SetIdx, u64)> =
            brute::discover(&encoded, fresh.collection(), &self.cfg)
                .into_iter()
                .map(|p| (p.r, gids[p.s as usize], p.score.to_bits()))
                .collect();
        let specs: Vec<QuerySpec> = refs.iter().cloned().map(QuerySpec::new).collect();
        for engine in &self.sharded {
            let outs = engine.execute_batch(&specs);
            let got = triples(outs.into_iter().map(|out| out.hits), |gid| gid);
            assert_eq!(
                got,
                want,
                "sharded({}) discover vs fresh rebuild",
                engine.shard_count()
            );
        }

        // The unsharded Engine::apply path too (ids mapped back to gids).
        let gid_of: HashMap<SetIdx, SetIdx> = self.inc_ids.iter().map(|(&g, &i)| (i, g)).collect();
        let outs = self.inc.execute_batch(&specs, 1);
        let got = triples(outs.into_iter().map(|out| out.hits), |iid| gid_of[&iid]);
        assert_eq!(got, want, "Engine::apply discover vs fresh rebuild");
    }

    fn check_counts(&self) {
        let live = self.live_gids().len();
        for engine in &self.sharded {
            assert_eq!(
                engine.len(),
                live,
                "sharded({}) live count",
                engine.shard_count()
            );
            assert_eq!(engine.shard_sizes().iter().sum::<usize>(), live);
        }
        assert_eq!(self.inc.collection().live_len(), live);
    }
}

/// One random interleaving of appends, removals, compactions and
/// queries over elements drawn by `element`, under a configuration drawn
/// by `cfg` — every query byte-identical to a fresh rebuild, across shard
/// counts {1, 2, 7} and the unsharded `Engine::apply` path.
fn check_update_sequence(seed: u64, element: ElementGen, cfg: fn(&mut StdRng) -> EngineConfig) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut h = Harness::new(rng, element, cfg);
    for _ in 0..12 {
        match rng.random_range(0..100u32) {
            0..=29 => {
                let n = rng.random_range(1..=3usize);
                h.append((0..n).map(|_| gen_set(rng, element)).collect());
            }
            30..=49 => {
                let live = h.live_gids();
                if live.is_empty() {
                    continue;
                }
                let n = rng.random_range(1..=3usize).min(live.len());
                let mut gids: Vec<SetIdx> = (0..n)
                    .map(|_| live[rng.random_range(0..live.len())])
                    .collect();
                // Duplicates are legal (idempotent removal).
                if rng.random::<bool>() {
                    gids.dedup();
                }
                h.remove(gids);
            }
            50..=59 => h.compact(),
            _ => {
                let elems = match h.live_gids().as_slice() {
                    // Query a live set's own elements half the time…
                    live if !live.is_empty() && rng.random::<bool>() => {
                        let g = live[rng.random_range(0..live.len())];
                        h.slots[g as usize].clone().unwrap()
                    }
                    // …or a fresh random reference.
                    _ => gen_set(rng, element),
                };
                let k = [None, Some(1), Some(3)][rng.random_range(0..3usize)];
                let floor = [None, Some(0.0), Some(0.3)][rng.random_range(0..3usize)];
                h.check_query(&elems, k, floor);
            }
        }
        h.check_counts();
    }
    // Always finish with a full sweep — plain search, ranked search, and
    // batched discovery — as the interleaving left things, and again
    // after one Remove + Append + Compact, whatever it happened to draw.
    for last in [false, true] {
        if last {
            if let Some(&gid) = h.live_gids().first() {
                h.remove(vec![gid]);
            }
            h.append(vec![gen_set(rng, element), gen_set(rng, element)]);
            h.compact();
            h.check_counts();
        }
        let elems = gen_set(rng, element);
        h.check_query(&elems, None, None);
        h.check_query(&elems, Some(5), Some(0.0));
        h.check_discover(&[gen_set(rng, element), gen_set(rng, element)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The tentpole property.
    #[test]
    fn any_update_sequence_is_equivalent_to_a_rebuild(seed in any::<u64>()) {
        check_update_sequence(seed, gen_element, cfg);
    }

    // The same over a corpus that repeats its elements, where an update
    // meets the element dictionary: an append shares what is stored, a
    // removal orphans it, a compaction drops and renumbers it.
    #[test]
    fn any_update_sequence_over_repeated_elements_is_equivalent_to_a_rebuild(
        seed in any::<u64>(),
    ) {
        check_update_sequence(seed, repeated_element, cfg);
    }

    // And over sets that hold a text twice, whose postings name one
    // element id with a multiplicity — under Jaccard, and under Eds with
    // α > 0, where the nearest-neighbor search has to know whether every
    // position of a set shares a q-gram with the reference element.
    #[test]
    fn any_update_sequence_over_sets_that_repeat_a_text_is_equivalent_to_a_rebuild(
        seed in any::<u64>(),
    ) {
        check_update_sequence(seed, |rng| doubled_element(rng, false), cfg);
        check_update_sequence(seed, |rng| doubled_element(rng, true), edit_cfg);
    }
}

/// Removing an id that was never assigned fails by name and mutates
/// nothing, on both engine flavors.
#[test]
fn remove_of_unknown_id_is_a_named_error_and_a_no_op() {
    let raw: Vec<Vec<String>> = (0..6).map(|i| vec![format!("w{i} shared0")]).collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    );

    let mut engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
    let err = engine.apply(Update::Remove(vec![2, 99])).unwrap_err();
    assert_eq!(err.to_string(), "no such set: 99");
    assert!(
        engine.collection().is_live(2),
        "validation precedes mutation"
    );

    let mut sharded = ShardedEngine::build(&raw, cfg, 3).unwrap();
    let err = sharded.apply(Update::Remove(vec![0, 77])).unwrap_err();
    assert_eq!(err.to_string(), "no such set: 77");
    assert_eq!(sharded.len(), 6);

    // After compaction the dropped gid is gone for good.
    sharded.apply(Update::Remove(vec![4])).unwrap();
    sharded.apply(Update::Compact).unwrap();
    let err = sharded.apply(Update::Remove(vec![4])).unwrap_err();
    assert_eq!(err.to_string(), "no such set: 4");
    // …while surviving gids are still addressable.
    assert_eq!(sharded.apply(Update::Remove(vec![5])).unwrap().removed, 1);
}

/// The service acceptance path: `POST /sets` / `DELETE /sets` mutate the
/// served engine and `GET /stats` + `GET /healthz` reflect the post-update
/// live set counts.
#[test]
fn service_stats_reflect_post_update_set_counts() {
    let raw: Vec<Vec<String>> = (0..10)
        .map(|i| vec![format!("w{} shared{}", i % 5, i % 3)])
        .collect();
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    );
    let service = SearchService::new(ShardedEngine::build(&raw, cfg, 3).unwrap());

    let call = |method: &str, path: &str, body: &str| {
        let resp = service.handle(&Request::new(method, path, body.as_bytes().to_vec()));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, doc)
    };
    let sets_of = |doc: &Json| doc.get("sets").and_then(Json::as_usize).unwrap();

    let (status, doc) = call("POST", "/sets", r#"{"sets": [["w0 shared0"], ["w9 w9"]]}"#);
    assert_eq!(status, 200, "{doc}");
    let appended = doc.get("appended").and_then(Json::as_array).unwrap();
    assert_eq!(appended.len(), 2);
    assert_eq!(
        appended[0].as_usize(),
        Some(10),
        "ids continue the numbering"
    );
    assert_eq!(sets_of(&doc), 12);

    let (status, doc) = call("DELETE", "/sets", r#"{"ids": [0, 10]}"#);
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("removed").and_then(Json::as_usize), Some(2));
    assert_eq!(sets_of(&doc), 10);

    for path in ["/stats", "/healthz"] {
        let (status, doc) = call("GET", path, "");
        assert_eq!(status, 200);
        assert_eq!(sets_of(&doc), 10, "{path} must reflect updates");
    }

    // A removed set no longer matches searches; an appended one does.
    let (status, doc) = call(
        "POST",
        "/search",
        r#"{"reference": ["w9 w9"], "floor": 0.9}"#,
    );
    assert_eq!(status, 200, "{doc}");
    let hits: Vec<usize> = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.get("set").and_then(Json::as_usize).unwrap())
        .collect();
    assert_eq!(hits, vec![11]);

    // Unknown ids are a named 404; /compact keeps counts and gids stable.
    let (status, doc) = call("DELETE", "/sets", r#"{"ids": [999]}"#);
    assert_eq!(status, 404);
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("no such set"));
    let (status, doc) = call("POST", "/compact", "");
    assert_eq!(status, 200);
    assert_eq!(sets_of(&doc), 10);
    let (_, doc) = call(
        "POST",
        "/search",
        r#"{"reference": ["w9 w9"], "floor": 0.9}"#,
    );
    let hits: Vec<usize> = doc
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.get("set").and_then(Json::as_usize).unwrap())
        .collect();
    assert_eq!(hits, vec![11], "global ids survive compaction");
}

/// A service's answer to one request: status and raw body.
fn call(service: &SearchService, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let resp = service.handle(&Request::new(method, path, body.as_bytes().to_vec()));
    (resp.status, resp.body)
}

/// `GET /stats` without its `storage` object, which only a store on
/// disk has.
fn stats_without_storage(service: &SearchService) -> String {
    let (_, body) = call(service, "GET", "/stats", "");
    match Json::parse(std::str::from_utf8(&body).unwrap()).unwrap() {
        Json::Obj(pairs) => {
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "storage").collect()).to_string()
        }
        other => panic!("/stats is not an object: {other}"),
    }
}

/// The JSON array of `sets` as request text.
fn sets_json(sets: &[Vec<String>]) -> String {
    let set = |s: &Vec<String>| {
        let elems: Vec<String> = s.iter().map(|e| format!("\"{e}\"")).collect();
        format!("[{}]", elems.join(","))
    };
    format!("[{}]", sets.iter().map(set).collect::<Vec<_>>().join(","))
}

/// One random request of the stream: an append, a remove (mostly of
/// assigned ids, some already removed, now and then one never assigned:
/// a 404), a compaction or a search. `next_gid` tracks the ids appends
/// assign.
fn stream_request(rng: &mut StdRng, next_gid: &mut u32) -> (&'static str, &'static str, String) {
    match rng.random_range(0..100u32) {
        0..=29 => {
            let n = rng.random_range(1..=3usize);
            let sets: Vec<_> = (0..n).map(|_| gen_set(rng, gen_element)).collect();
            *next_gid += n as u32;
            let body = format!(r#"{{"sets": {}}}"#, sets_json(&sets));
            ("POST", "/sets", body)
        }
        30..=54 => {
            let ids: Vec<String> = (0..rng.random_range(1..=3usize))
                .map(|_| rng.random_range(0..*next_gid + 2).to_string())
                .collect();
            let body = format!(r#"{{"ids": [{}]}}"#, ids.join(","));
            ("DELETE", "/sets", body)
        }
        55..=64 => ("POST", "/compact", String::new()),
        _ => {
            let reference = sets_json(&[gen_set(rng, gen_element)]);
            let mut spec = format!(
                r#"{{"reference": {}, "stats": true"#,
                &reference[1..reference.len() - 1]
            );
            if let Some(k) = [None, Some(1), Some(3)][rng.random_range(0..3usize)] {
                spec += &format!(r#", "k": {k}"#);
            }
            if let Some(f) = [None, Some(0.0), Some(0.3)][rng.random_range(0..3usize)] {
                spec += &format!(r#", "floor": {f}"#);
            }
            ("POST", "/search", spec + "}")
        }
    }
}

/// Drives one seeded stream through an in-memory service and a service
/// over a store on disk, both under `policy`, and returns how many
/// compactions the policy committed.
fn check_stream(seed: u64, policy: CompactionPolicy, shards: usize) -> usize {
    let rng = &mut StdRng::seed_from_u64(seed);
    let cfg = cfg(rng);
    let base: Vec<Vec<String>> = (0..12).map(|_| gen_set(rng, gen_element)).collect();
    let engine = || ShardedEngine::build(&base, cfg, shards).unwrap();
    // The durable twin's fsyncs would prove nothing here.
    let store_cfg = StoreConfig {
        sync: false,
        policy,
    };
    let memory = if policy.is_disabled() {
        SearchService::new(engine())
    } else {
        SearchService::durable(Store::in_memory(engine(), store_cfg))
    };
    let dir = std::env::temp_dir().join(format!(
        "silkmoth-update-equivalence-{}-{seed}-{shards}-{}",
        std::process::id(),
        policy.is_disabled()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = SearchService::durable(Store::create(&dir, engine(), store_cfg).unwrap());

    let run = format!("seed {seed}, {shards} shards, policy {policy:?}");
    let mut next_gid = base.len() as u32;
    for step in 0..40 {
        let (method, path, body) = stream_request(rng, &mut next_gid);
        let want = call(&durable, method, path, &body);
        let got = call(&memory, method, path, &body);
        assert_eq!(
            (got.0, String::from_utf8_lossy(&got.1)),
            (want.0, String::from_utf8_lossy(&want.1)),
            "{run}, step {step}: {method} {path} {body}"
        );
    }
    let stats = stats_without_storage(&memory);
    assert_eq!(stats, stats_without_storage(&durable), "{run}: /stats");
    let update_seq = |service: &SearchService| {
        let (_, body) = call(service, "GET", "/healthz", "");
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        doc.get("update_seq").and_then(Json::as_usize)
    };
    assert_eq!(update_seq(&memory), update_seq(&durable), "{run}: /healthz");
    let _ = std::fs::remove_dir_all(&dir);
    Json::parse(&stats)
        .unwrap()
        .get("auto_compactions")
        .and_then(Json::as_usize)
        .unwrap()
}

/// The same seeded stream through an in-memory service and a service
/// over a store on disk, at shard counts {1, 2, 7}, with and without a
/// dead-ratio policy: every response is byte-identical, and so are
/// `/stats` apart from its `storage` object and the `/healthz` sequence.
#[test]
fn in_memory_and_durable_services_answer_a_stream_byte_identically() {
    let mut auto_compactions = 0;
    for seed in 0..4u64 {
        for shards in SHARD_COUNTS {
            check_stream(seed, CompactionPolicy::DISABLED, shards);
            let policy = CompactionPolicy::default().compact_at_dead_ratio(0.25);
            auto_compactions += check_stream(seed, policy, shards);
        }
    }
    assert!(auto_compactions > 0, "the policy never compacted");
}
