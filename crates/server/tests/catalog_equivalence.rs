//! Differential harness for the catalog front — the multi-tenant
//! counterpart of `recovery_equivalence.rs`.
//!
//! 1. A catalog server with only its `default` collection must be
//!    **byte-identical** to the legacy single-collection server (ids,
//!    tie order, score bits of every response body; `/metrics`
//!    families modulo the catalog's own gauges) across shard counts
//!    {1, 2, 7}. The catalog is a router, not a reinterpretation —
//!    and `/<route>` *is* `/collections/default/<route>`: same body,
//!    same header names, for every route in the script.
//! 2. A scoped route (`/collections/<name>/search`, …) must answer
//!    byte-identically to the unscoped route on a legacy server
//!    holding the same sets — scoping changes *which* collection
//!    answers, never *what* it answers.
//! 3. Three tenants writing concurrently, then a crash (every store
//!    dropped mid-sequence, no clean shutdown): each tenant recovers
//!    to exactly its acked updates, and no set ever bleeds across
//!    tenants.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_core::{CompactionPolicy, EngineConfig, RelatednessMetric};
use silkmoth_server::{
    CatalogConfig, CatalogService, Json, Request, Response, SearchService, ShardSpec, ShardedEngine,
};
use silkmoth_storage::{StorageError, Store, StoreConfig};
use silkmoth_text::SimilarityFunction;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn engine_cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn gen_set(rng: &mut StdRng) -> Vec<String> {
    let n = rng.random_range(1..=3usize);
    (0..n)
        .map(|_| {
            let w = rng.random_range(1..=3usize);
            (0..w)
                .map(|_| format!("w{}", rng.random_range(0..12u32)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn corpus(rng: &mut StdRng, n: usize) -> Vec<Vec<String>> {
    (0..n).map(|_| gen_set(rng)).collect()
}

fn sets_body(sets: &[Vec<String>]) -> String {
    let arr: Vec<Json> = sets
        .iter()
        .map(|s| Json::Arr(s.iter().map(|e| Json::Str(e.clone())).collect()))
        .collect();
    format!("{{\"sets\": {}}}", Json::Arr(arr))
}

fn request(method: &str, path: &str, body: &str) -> Request {
    Request::new(method, path, body.as_bytes().to_vec())
}

fn catalog_over(service: SearchService) -> CatalogService {
    CatalogService::open(
        Arc::new(service),
        CatalogConfig {
            data_dir: None,
            engine_cfg: engine_cfg(),
            store_cfg: StoreConfig::default(),
            ephemeral_policy: CompactionPolicy::DISABLED,
            default_shards: 2,
            max_collections: 16,
            max_inflight_updates: None,
            search_timeout: None,
        },
    )
    .expect("ephemeral catalog opens")
}

/// The request script both servers replay: every route whose bodies
/// must agree byte-for-byte, including mutations in the middle so the
/// comparison covers post-update state too.
fn script(rng: &mut StdRng) -> Vec<(String, String, String)> {
    let mut reqs = Vec::new();
    let search = |rng: &mut StdRng, extra: &str| {
        let q = Json::Arr(
            gen_set(rng)
                .into_iter()
                .map(Json::Str)
                .collect::<Vec<Json>>(),
        );
        (
            "POST".to_owned(),
            "/search".to_owned(),
            format!("{{\"reference\": {q}, \"floor\": 0.0{extra}}}"),
        )
    };
    reqs.push(search(rng, ""));
    reqs.push(search(rng, ", \"k\": 3"));
    reqs.push(search(rng, ", \"stats\": true"));
    let batch: Vec<String> = (0..3)
        .map(|_| {
            let q = Json::Arr(
                gen_set(rng)
                    .into_iter()
                    .map(Json::Str)
                    .collect::<Vec<Json>>(),
            );
            format!("{{\"reference\": {q}, \"k\": 5, \"floor\": 0.0}}")
        })
        .collect();
    reqs.push((
        "POST".to_owned(),
        "/search/batch".to_owned(),
        format!("{{\"queries\": [{}]}}", batch.join(", ")),
    ));
    reqs.push((
        "POST".to_owned(),
        "/discover".to_owned(),
        sets_body(&corpus(rng, 2)).replace("\"sets\"", "\"references\""),
    ));
    reqs.push((
        "POST".to_owned(),
        "/sets".to_owned(),
        sets_body(&corpus(rng, 3)),
    ));
    reqs.push((
        "DELETE".to_owned(),
        "/sets".to_owned(),
        "{\"ids\": [1, 4]}".to_owned(),
    ));
    reqs.push(search(rng, ""));
    reqs.push(("POST".to_owned(), "/compact".to_owned(), String::new()));
    reqs.push(search(rng, ", \"k\": 2"));
    reqs.push(("GET".to_owned(), "/stats".to_owned(), String::new()));
    reqs.push(("GET".to_owned(), "/healthz".to_owned(), String::new()));
    reqs
}

fn header_names(resp: &Response) -> Vec<&'static str> {
    resp.headers.iter().map(|(name, _)| *name).collect()
}

/// The `# TYPE` family names on a metrics page, sorted.
fn metric_families(page: &str) -> Vec<String> {
    let mut families: Vec<String> = page
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_owned)
        .collect();
    families.sort();
    families
}

#[test]
fn one_collection_catalog_is_byte_identical_to_legacy_across_shards() {
    for &shards in &SHARD_COUNTS {
        let rng = &mut StdRng::seed_from_u64(0xCA7A106 + shards as u64);
        let base = corpus(rng, 20);
        let legacy = SearchService::new(ShardedEngine::build(&base, engine_cfg(), shards).unwrap());
        let catalog = catalog_over(SearchService::new(
            ShardedEngine::build(&base, engine_cfg(), shards).unwrap(),
        ));
        // A twin catalog replays the script scoped to `default`.
        let scoped = catalog_over(SearchService::new(
            ShardedEngine::build(&base, engine_cfg(), shards).unwrap(),
        ));
        for (method, path, body) in script(rng) {
            let want: Response = legacy.handle(&request(&method, &path, &body));
            let got: Response = catalog.handle(&request(&method, &path, &body));
            assert_eq!(got.status, want.status, "{method} {path} ({shards} shards)");
            let twin = scoped.handle(&request(
                &method,
                &format!("/collections/default{path}"),
                &body,
            ));
            assert_eq!(
                (twin.status, &twin.body, header_names(&twin)),
                (got.status, &got.body, header_names(&got)),
                "/collections/default{path} must be byte-identical to {path} ({shards} shards)\n\
                 unscoped: {}\nscoped:   {}",
                String::from_utf8_lossy(&got.body),
                String::from_utf8_lossy(&twin.body),
            );
            if path == "/stats" || path == "/healthz" {
                // The one sanctioned difference: the catalog appends a
                // `collections` section — as a pure suffix, so the
                // legacy body minus its closing brace is a byte prefix.
                let want_prefix = &want.body[..want.body.len() - 1];
                assert!(
                    got.body.starts_with(want_prefix),
                    "{path}: the catalog body must extend the legacy body \
                     ({shards} shards)\nlegacy: {}\ncatalog: {}",
                    String::from_utf8_lossy(&want.body),
                    String::from_utf8_lossy(&got.body),
                );
                let text = String::from_utf8(got.body).unwrap();
                assert!(text.contains("\"collections\""), "{text}");
                continue;
            }
            assert_eq!(
                got.body,
                want.body,
                "{method} {path} must be byte-identical ({shards} shards)\nlegacy: {}\ncatalog: {}",
                String::from_utf8_lossy(&want.body),
                String::from_utf8_lossy(&got.body),
            );
        }
        // /metrics: same families, plus exactly the catalog's own two
        // gauges (the default collection's series stay unlabelled, so
        // nothing else may appear or change name).
        let want_page =
            String::from_utf8(legacy.handle(&request("GET", "/metrics", "")).body).unwrap();
        let got_page =
            String::from_utf8(catalog.handle(&request("GET", "/metrics", "")).body).unwrap();
        let mut want_families = metric_families(&want_page);
        want_families.extend([
            "silkmoth_catalog_collections".to_owned(),
            "silkmoth_catalog_collections_max".to_owned(),
        ]);
        want_families.sort();
        assert_eq!(metric_families(&got_page), want_families, "{shards} shards");
        assert!(
            !got_page.contains("collection=\""),
            "a default-only catalog must not emit collection labels"
        );
    }
}

#[test]
fn scoped_routes_answer_byte_identically_to_an_unscoped_legacy_server() {
    for &shards in &SHARD_COUNTS {
        let rng = &mut StdRng::seed_from_u64(0x5C0_BED + shards as u64);
        let base = corpus(rng, 16);
        let legacy = SearchService::new(ShardedEngine::build(&base, engine_cfg(), shards).unwrap());
        // The tenant starts empty and receives the corpus through the
        // API — incremental build vs bulk build is already pinned
        // byte-identical elsewhere, so the bodies must agree.
        let catalog = catalog_over(SearchService::new(
            ShardedEngine::build(&corpus(rng, 5), engine_cfg(), 2).unwrap(),
        ));
        let (status, _) = {
            let r = catalog.handle(&request(
                "PUT",
                "/collections/tenant",
                &format!("{{\"shards\": {shards}}}"),
            ));
            (r.status, r.body)
        };
        assert_eq!(status, 200);
        let resp = catalog.handle(&request(
            "POST",
            "/collections/tenant/sets",
            &sets_body(&base),
        ));
        assert_eq!(resp.status, 200);
        for (method, path, body) in script(rng) {
            if path == "/sets" || path == "/compact" || path == "/stats" || path == "/healthz" {
                continue; // mutations would desync the two corpora here
            }
            let want = legacy.handle(&request(&method, &path, &body));
            let got = catalog.handle(&request(
                &method,
                &format!("/collections/tenant{path}"),
                &body,
            ));
            assert_eq!(got.status, want.status, "{method} {path} ({shards} shards)");
            assert_eq!(
                got.body, want.body,
                "scoped {method} {path} must be byte-identical ({shards} shards)"
            );
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("silkmoth-catalog-eq-{}-{tag}", std::process::id()))
}

#[test]
fn three_tenants_crash_and_recover_to_acked_updates_without_bleed() {
    let dir = temp_dir("crash");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = CatalogConfig {
        data_dir: Some(dir.clone()),
        engine_cfg: engine_cfg(),
        store_cfg: StoreConfig {
            sync: false, // fsync off: the in-process "crash" is a drop,
            // which still flushes; the literal kill -9 lives in
            // scripts/crash_recovery.sh
            policy: CompactionPolicy::DISABLED,
        },
        ephemeral_policy: CompactionPolicy::DISABLED,
        default_shards: 2,
        max_collections: 8,
        max_inflight_updates: None,
        search_timeout: None,
    };
    let open = |config: &CatalogConfig| {
        let spec = ShardSpec {
            cfg: engine_cfg(),
            shards: 2,
        };
        let store = match Store::open(&dir, &spec, config.store_cfg) {
            Ok((store, _)) => store,
            Err(StorageError::NotInitialized { .. }) => Store::create(
                &dir,
                ShardedEngine::build(&corpus(&mut StdRng::seed_from_u64(9), 6), engine_cfg(), 2)
                    .unwrap(),
                config.store_cfg,
            )
            .unwrap(),
            Err(e) => panic!("{e}"),
        };
        CatalogService::open(Arc::new(SearchService::durable(store)), config.clone()).unwrap()
    };

    // Three tenants (distinct shard counts), five rounds of
    // interleaved writes, every ack recorded per tenant.
    let mut acked: Vec<Vec<String>> = vec![Vec::new(); 3];
    {
        let catalog = open(&config);
        for (i, shards) in [1usize, 2, 3].iter().enumerate() {
            let resp = catalog.handle(&request(
                "PUT",
                &format!("/collections/tenant-{i}"),
                &format!("{{\"shards\": {shards}, \"quotas\": {{\"max_sets\": 1000}}}}"),
            ));
            assert_eq!(resp.status, 200);
        }
        for round in 0..5 {
            for (i, tenant_acks) in acked.iter_mut().enumerate() {
                let marker = format!("tenant-{i} round-{round} payload");
                let resp = catalog.handle(&request(
                    "POST",
                    &format!("/collections/tenant-{i}/sets"),
                    &sets_body(&[vec![marker.clone()]]),
                ));
                assert_eq!(resp.status, 200, "the write must be acked");
                tenant_acks.push(marker);
            }
        }
        // Crash: every store dropped mid-sequence, no clean shutdown.
    }

    let catalog = open(&config);
    assert_eq!(
        catalog.collection_names(),
        ["default", "tenant-0", "tenant-1", "tenant-2"],
        "the manifest recovers every tenant"
    );
    for i in 0..3 {
        let service = catalog.collection(&format!("tenant-{i}")).unwrap();
        let engine = service.engine();
        // Walk every live set: the recovered state must be a prefix of
        // the acked sequence (here: all of it), and contain nothing
        // from any other tenant.
        let mut texts = Vec::new();
        for shard in engine.shards() {
            let coll = shard.collection();
            for id in coll.live_ids() {
                for element in &coll.set(id).elements {
                    texts.push(element.text.to_string());
                }
            }
        }
        texts.sort();
        let mut want = acked[i].clone();
        want.sort();
        assert_eq!(
            texts, want,
            "tenant-{i} recovers exactly its acked updates, nothing else"
        );
        assert_eq!(
            engine.shard_count(),
            [1, 2, 3][i],
            "tenant-{i}'s shard count survives"
        );
        // Its quota config survives the restart too.
        let resp = catalog.handle(&request("GET", &format!("/collections/tenant-{i}"), ""));
        let doc = Json::parse(&String::from_utf8(resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("quotas")
                .and_then(|q| q.get("max_sets"))
                .and_then(Json::as_usize),
            Some(1000),
            "tenant-{i} quotas recover"
        );
    }
    // The default collection is intact as well (6 seed sets, untouched
    // by tenant traffic).
    assert_eq!(catalog.default_service().engine().len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
