//! Pins the shape of the status pages. On one fixed history — an
//! append, a remove that crosses the compaction policy's dead ratio
//! (so the store compacts on its own), and a second append — a catalog
//! over an in-memory and over a durable default collection must answer
//! `GET /healthz`, `GET /stats` and `GET /collections/default` with
//! exactly these key paths, in this order, with these JSON types, and
//! with the set counts and store positions the history fixes.

use std::sync::Arc;

use silkmoth_core::{CompactionPolicy, EngineConfig, RelatednessMetric};
use silkmoth_server::telemetry::expo;
use silkmoth_server::{CatalogConfig, CatalogService, Json, Request, SearchService, ShardedEngine};
use silkmoth_storage::{Store, StoreConfig};
use silkmoth_text::SimilarityFunction;

fn engine_cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn engine() -> ShardedEngine {
    let raw: Vec<Vec<String>> = (0..20)
        .map(|i| vec![format!("w{} shared{}", i % 7, i % 3), format!("x{i}")])
        .collect();
    ShardedEngine::build(&raw, engine_cfg(), 2).unwrap()
}

fn store_cfg() -> StoreConfig {
    StoreConfig {
        policy: CompactionPolicy::default().compact_at_dead_ratio(0.2),
        ..StoreConfig::default()
    }
}

fn catalog(default: SearchService, data_dir: Option<std::path::PathBuf>) -> CatalogService {
    CatalogService::open(
        Arc::new(default),
        CatalogConfig {
            data_dir,
            engine_cfg: engine_cfg(),
            store_cfg: store_cfg(),
            ephemeral_policy: store_cfg().policy,
            default_shards: 2,
            max_collections: 4,
            max_inflight_updates: None,
            search_timeout: None,
        },
    )
    .unwrap()
}

fn send(catalog: &CatalogService, method: &str, path: &str, body: &str) -> Json {
    let resp = catalog.handle(&Request::new(method, path, body.as_bytes().to_vec()));
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(resp.status, 200, "{method} {path}: {text}");
    Json::parse(&text).unwrap()
}

/// The history every page is read after: 20 sets, +1, −5 (5 of 21
/// slots dead crosses 0.2, so the policy compacts), +1.
fn replay(catalog: &CatalogService) {
    send(catalog, "POST", "/sets", r#"{"sets": [["first append"]]}"#);
    send(catalog, "DELETE", "/sets", r#"{"ids": [0, 1, 2, 3, 4]}"#);
    send(catalog, "POST", "/sets", r#"{"sets": [["second append"]]}"#);
}

/// Every key path of `doc` in document order, one `path type` per line.
fn shape(doc: &Json, path: &str, out: &mut String) {
    let kind = match doc {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    out.push_str(&format!("{path} {kind}\n"));
    match doc {
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                shape(item, &format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                shape(value, &format!("{path}.{key}"), out);
            }
        }
        _ => {}
    }
}

fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    path.split('.')
        .fold(doc, |d, key| d.get(key).unwrap_or_else(|| panic!("{path}")))
}

fn number(doc: &Json, path: &str) -> usize {
    at(doc, path).as_usize().unwrap_or_else(|| panic!("{path}"))
}

/// The per-shard and merged filter counters, under `prefix`.
fn pass_stats(prefix: &str) -> String {
    [
        "candidates",
        "after_check",
        "after_nn",
        "verified",
        "results",
        "sim_evals",
        "reduced_pairs",
        "signature_cost",
        "degenerate",
    ]
    .iter()
    .map(|key| format!("{prefix}.{key} number\n"))
    .collect()
}

/// The `storage` object under `prefix` (durable stores only): the
/// health fields, and on `/stats` (`full`) the position and policy
/// counters too.
fn storage(prefix: &str, full: bool) -> String {
    let mut s = format!(
        "{prefix}.storage object\n{prefix}.storage.snapshot_seq number\n\
         {prefix}.storage.wal_records number\n{prefix}.storage.wal_segments number\n"
    );
    if full {
        s += &format!("{prefix}.storage.update_seq number\n{prefix}.storage.epoch number\n");
    }
    s += &format!("{prefix}.storage.last_fsync_ok bool\n");
    if full {
        s += &format!(
            "{prefix}.storage.auto_snapshots number\n{prefix}.storage.auto_compactions number\n"
        );
    }
    s
}

/// The catalog's per-collection section of `/healthz` and `/stats`.
fn collections(durable: bool) -> String {
    let mut s = "\
$.collections object
$.collections.default object
$.collections.default.sets number
$.collections.default.slots number
$.collections.default.shards number
$.collections.default.update_seq number
$.collections.default.durable bool
"
    .to_owned();
    if durable {
        s += &storage("$.collections.default", false);
    }
    s
}

fn healthz_shape(durable: bool) -> String {
    "\
$ object
$.status string
$.version string
$.uptime_secs number
$.durable bool
$.role string
$.update_seq number
$.shards number
$.sets number
"
    .to_owned()
        + &collections(durable)
}

fn stats_shape(durable: bool) -> String {
    let mut s = "\
$ object
$.requests object
$.requests.search number
$.requests.discover number
$.requests.update number
$.sets number
$.slots number
$.auto_compactions number
"
    .to_owned();
    if durable {
        s += &storage("$", true);
    }
    s += "$.replication object\n$.replication.role string\n$.shards array\n";
    for i in 0..2 {
        s += &format!("$.shards[{i}] object\n$.shards[{i}].sets number\n");
        s += &pass_stats(&format!("$.shards[{i}]"));
    }
    s += "$.merged object\n";
    s += &pass_stats("$.merged");
    s + &collections(durable)
}

fn collection_shape(durable: bool) -> String {
    let mut s = "\
$ object
$.name string
$.sets number
$.slots number
$.shards number
$.update_seq number
$.durable bool
"
    .to_owned();
    if durable {
        s += &storage("$", false);
    }
    s + "$.quotas object\n"
}

fn check(catalog: &CatalogService, durable: bool) {
    replay(catalog);
    let healthz = send(catalog, "GET", "/healthz", "");
    let stats = send(catalog, "GET", "/stats", "");
    let info = send(catalog, "GET", "/collections/default", "");
    for (name, doc, want) in [
        ("/healthz", &healthz, healthz_shape(durable)),
        ("/stats", &stats, stats_shape(durable)),
        ("/collections/default", &info, collection_shape(durable)),
    ] {
        let mut got = String::new();
        shape(doc, "$", &mut got);
        assert_eq!(got, want, "{name} (durable: {durable}):\n{doc}");
    }

    assert_eq!(at(&healthz, "durable"), &Json::Bool(durable));
    // 20 + 1 − 5 + 1 live sets; the compaction reclaimed the five dead
    // slots, so every slot holds a live set.
    for doc in [&healthz, &stats, &info] {
        assert_eq!(number(doc, "sets"), 17);
    }
    assert_eq!(number(&stats, "slots"), 17);
    assert_eq!(number(&info, "slots"), 17);
    // Three updates plus the policy's compaction.
    assert_eq!(number(&healthz, "update_seq"), 4);
    assert_eq!(number(&info, "update_seq"), 4);
    assert_eq!(number(&stats, "auto_compactions"), 1);
    assert_eq!(number(&stats, "requests.update"), 3);
    if durable {
        assert_eq!(number(&stats, "storage.update_seq"), 4);
        assert_eq!(number(&stats, "storage.auto_compactions"), 1);
    }

    // The policy counts on `/stats` are the cells `/metrics` renders.
    let page = catalog.handle(&Request::new("GET", "/metrics", Vec::new()));
    let families = expo::parse_text(std::str::from_utf8(&page.body).unwrap()).unwrap();
    let metric = |name: &str| {
        let sample = families.iter().flat_map(|f| &f.samples);
        sample
            .filter(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value as usize)
            .next()
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let compactions = metric("silkmoth_storage_auto_compactions_total");
    assert_eq!(number(&stats, "auto_compactions"), compactions);
    if durable {
        assert_eq!(number(&stats, "storage.auto_compactions"), compactions);
        assert_eq!(
            number(&stats, "storage.auto_snapshots"),
            metric("silkmoth_storage_auto_snapshots_total")
        );
    }
}

/// `GET /collections` after `aux` joins `default`: one entry per
/// collection in name order, each with its name, live shard count, set
/// count and only the quotas it was created with.
fn check_listing(catalog: &CatalogService) {
    send(
        catalog,
        "PUT",
        "/collections/aux",
        r#"{"shards": 3, "quotas": {"max_sets": 10}}"#,
    );
    let listing = send(catalog, "GET", "/collections", "");
    let mut want = "$ object\n$.collections array\n".to_owned();
    for (i, quotas) in [(0, "$.collections[0].quotas.max_sets number\n"), (1, "")] {
        want += &format!(
            "$.collections[{i}] object\n$.collections[{i}].name string\n\
             $.collections[{i}].shards number\n$.collections[{i}].sets number\n\
             $.collections[{i}].quotas object\n{quotas}"
        );
    }
    let mut got = String::new();
    shape(&listing, "$", &mut got);
    assert_eq!(got, want, "GET /collections:\n{listing}");
}

#[test]
fn status_pages_keep_their_shape_in_memory_and_on_disk() {
    let in_memory = SearchService::durable(Store::in_memory(engine(), store_cfg()));
    let in_memory = catalog(in_memory, None);
    check(&in_memory, false);
    check_listing(&in_memory);

    let dir = std::env::temp_dir().join(format!("silkmoth-status-pages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = SearchService::durable(Store::create(&dir, engine(), store_cfg()).unwrap());
    let durable = catalog(durable, Some(dir.clone()));
    check(&durable, true);
    check_listing(&durable);
    let _ = std::fs::remove_dir_all(&dir);
}
