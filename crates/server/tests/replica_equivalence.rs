//! Differential proof that replication preserves the service exactly:
//! a durable primary takes a seeded random committed workload over
//! HTTP while a follower (started from an **empty** data dir) tails
//! its replication log over real TCP. Once caught up, the follower
//! must be **byte-identical** to the primary — same serialized engine
//! state, same search ids, same tie order, bit-equal scores — and both
//! must match a reference store that replayed the same updates from
//! scratch (the "fresh rebuild"). Exercised at shard counts 1, 2, 7.
//!
//! The failover leg promotes a caught-up follower, writes to it, and
//! attaches an observer follower to *its* log: the observer must
//! replicate the post-promotion writes byte-identically.
//!
//! The last test holds one batch between its WAL commit and its engine
//! apply and asks for a bootstrap snapshot meanwhile — the race that
//! used to make the first test fail about one run in a hundred under
//! load (a snapshot stamped with a sequence number its state had not
//! reached, so the follower skipped that record for good).

use rand::{rngs::StdRng, Rng, SeedableRng};
use silkmoth_core::{CompactionPolicy, EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{
    bootstrap_snapshot, follower_store_config, serve_log, start_follower, FollowerConfig, Json,
    ReplicaServer, Request, SearchService, ShardSpec, ShardedEngine, StreamerConfig,
};
use silkmoth_storage::{
    parse_snapshot, snapshot_bytes, EngineState, RetentionHook, SnapshotMeta, Store, StoreConfig,
    StoreEngine,
};
use silkmoth_text::SimilarityFunction;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn spec(shards: usize) -> ShardSpec {
    ShardSpec { cfg: cfg(), shards }
}

fn corpus() -> Vec<Vec<String>> {
    (0..12)
        .map(|i| {
            (0..2)
                .map(|j| format!("w{} w{} shared{}", (i * 2 + j) % 7, (i + j) % 5, i % 4))
                .collect()
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("silkmoth-replica-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn nosync() -> StoreConfig {
    StoreConfig {
        sync: false,
        ..StoreConfig::default()
    }
}

fn fast_streamer() -> StreamerConfig {
    StreamerConfig {
        heartbeat: Duration::from_millis(10),
        batch: 32,
        ..StreamerConfig::default()
    }
}

fn fast_follower() -> FollowerConfig {
    FollowerConfig {
        backoff_min: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        ..FollowerConfig::default()
    }
}

fn post(service: &SearchService, path: &str, body: &str) -> (u16, Json) {
    let req = Request::new("POST", path, body.as_bytes().to_vec());
    let resp = service.handle(&req);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    (resp.status, doc)
}

fn delete(service: &SearchService, path: &str, body: &str) -> (u16, Json) {
    let req = Request::new("DELETE", path, body.as_bytes().to_vec());
    let resp = service.handle(&req);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    (resp.status, doc)
}

/// The `/search` results as serialized JSON — compared for exact
/// equality between services, which covers ids, tie order, and score
/// formatting (bit-equality) at once. Pass statistics are excluded:
/// a restored engine may lay out its index differently from an
/// incrementally-updated one, shifting cost counters without changing
/// any output.
fn search_body(service: &SearchService, body: &str) -> String {
    let req = Request::new("POST", "/search", body.as_bytes().to_vec());
    let resp = service.handle(&req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    format!(
        "{} timed_out={}",
        doc.get("results").expect("search results"),
        doc.get("timed_out").expect("timed_out flag")
    )
}

/// A durable primary service over a fresh store built from the corpus.
fn primary_service(dir: &Path, shards: usize) -> Arc<SearchService> {
    let engine = ShardedEngine::build(&corpus(), cfg(), shards).unwrap();
    let store = Store::create(dir, engine, nosync()).unwrap();
    Arc::new(SearchService::durable(store))
}

/// A durable follower service over an **empty** store — everything it
/// ever holds must come through the replication stream.
fn empty_follower_service(dir: &Path, shards: usize) -> Arc<SearchService> {
    Arc::new(SearchService::durable(empty_follower_store(dir, shards)))
}

fn empty_follower_store(dir: &Path, shards: usize) -> Store<ShardedEngine> {
    let state = EngineState {
        texts: Vec::new(),
        live: Vec::new(),
        dead: Vec::new(),
        next_id: 0,
        tokenization: cfg().tokenization(),
    };
    let engine = <ShardedEngine as StoreEngine>::restore(&spec(shards), state).unwrap();
    Store::create(dir, engine, follower_store_config(nosync())).unwrap()
}

/// Starts a replication log listener for `service` on an ephemeral
/// port.
fn attach_log(service: &Arc<SearchService>) -> ReplicaServer {
    serve_log(Arc::clone(service), "127.0.0.1:0", fast_streamer()).unwrap()
}

fn update_seq(service: &SearchService) -> u64 {
    let (status, stats) = {
        let req = Request::new("GET", "/stats", Vec::new());
        let resp = service.handle(&req);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        (resp.status, doc)
    };
    assert_eq!(status, 200);
    stats
        .get("storage")
        .and_then(|s| s.get("update_seq"))
        .and_then(Json::as_usize)
        .expect("durable stats carry update_seq") as u64
}

fn wait_caught_up(primary: &SearchService, follower: &SearchService, what: &str) {
    let want = update_seq(primary);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if update_seq(follower) == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at {} of {want}",
            update_seq(follower)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn engine_bytes(service: &SearchService) -> Vec<u8> {
    snapshot_bytes(
        SnapshotMeta::default(),
        &StoreEngine::capture(&*service.engine()),
    )
}

fn assert_services_identical(a: &SearchService, b: &SearchService, what: &str) {
    assert_eq!(engine_bytes(a), engine_bytes(b), "{what}: state differs");
    for probe in [
        r#"{"reference": ["w0 w1 shared0", "w2 w0 shared2"]}"#,
        r#"{"reference": ["w4 w2 shared3"], "k": 5}"#,
        r#"{"reference": ["replica marker 3"], "floor": 0.3}"#,
    ] {
        assert_eq!(
            search_body(a, probe),
            search_body(b, probe),
            "{what}: search {probe} differs"
        );
    }
}

/// One random committed update: applied to the primary over HTTP and
/// returned as the equivalent [`Update`] for the reference replay.
fn random_op(rng: &mut StdRng, primary: &SearchService) -> Update {
    let live: Vec<u32> = StoreEngine::capture(&*primary.engine())
        .live
        .iter()
        .map(|(id, _)| *id)
        .collect();
    let roll: u32 = rng.random_range(0..10u32);
    if roll < 6 || live.len() < 4 {
        let sets: Vec<Vec<String>> = (0..rng.random_range(1..3usize))
            .map(|_| {
                (0..rng.random_range(1..3usize))
                    .map(|_| {
                        format!(
                            "w{} shared{} replica marker {}",
                            rng.random_range(0..7u32),
                            rng.random_range(0..5u32),
                            rng.random_range(0..9u32),
                        )
                    })
                    .collect()
            })
            .collect();
        let body = format!(
            r#"{{"sets": [{}]}}"#,
            sets.iter()
                .map(|s| format!(
                    "[{}]",
                    s.iter()
                        .map(|e| format!("{e:?}"))
                        .collect::<Vec<_>>()
                        .join(",")
                ))
                .collect::<Vec<_>>()
                .join(",")
        );
        let (status, doc) = post(primary, "/sets", &body);
        assert_eq!(status, 200, "{doc}");
        Update::Append(sets)
    } else if roll < 9 {
        let mut ids: Vec<u32> = (0..rng.random_range(1..3usize))
            .map(|_| live[rng.random_range(0..live.len())])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let body = format!(
            r#"{{"ids": [{}]}}"#,
            ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
        );
        let (status, doc) = delete(primary, "/sets", &body);
        assert_eq!(status, 200, "{doc}");
        Update::Remove(ids)
    } else {
        let (status, doc) = post(primary, "/compact", "");
        assert_eq!(status, 200, "{doc}");
        Update::Compact
    }
}

#[test]
fn follower_matches_primary_and_rebuild_across_shard_counts() {
    for shards in [1usize, 2, 7] {
        let seed = 0x5eed_0000 + shards as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let p_dir = temp_dir(&format!("p{shards}"));
        let f_dir = temp_dir(&format!("f{shards}"));
        let r_dir = temp_dir(&format!("r{shards}"));

        let primary = primary_service(&p_dir, shards);
        let mut log = attach_log(&primary);
        let follower = empty_follower_service(&f_dir, shards);
        let runtime = start_follower(
            Arc::clone(&follower),
            log.local_addr().to_string(),
            spec(shards),
            follower_store_config(nosync()),
            fast_follower(),
        );
        // The reference: a separate store replaying the identical
        // update sequence from the identical starting state — what a
        // from-scratch rebuild of the primary's history produces.
        let mut reference = Store::create(
            &r_dir,
            ShardedEngine::build(&corpus(), cfg(), shards).unwrap(),
            nosync(),
        )
        .unwrap();

        for i in 0..60 {
            let op = random_op(&mut rng, &primary);
            reference.apply(op).unwrap();
            if i % 17 == 16 {
                // Rotate the primary's WAL mid-run: a follower whose
                // cursor predates the retained log must re-bootstrap.
                let (status, doc) = post(&primary, "/snapshot", "");
                assert_eq!(status, 200, "{doc}");
            }
        }

        wait_caught_up(&primary, &follower, &format!("shards={shards}"));
        assert_services_identical(&primary, &follower, &format!("shards={shards} follower"));
        assert_eq!(
            engine_bytes(&primary),
            snapshot_bytes(
                SnapshotMeta::default(),
                &StoreEngine::capture(reference.engine())
            ),
            "shards={shards}: primary diverged from the from-scratch replay"
        );

        // A caught-up follower ships its own log (the CLI chains
        // replicas), and the records streamed to it serve from that log
        // in the primary's bytes, byte for byte.
        let caught_up = update_seq(&primary);
        for _ in 0..5 {
            reference.apply(random_op(&mut rng, &primary)).unwrap();
        }
        wait_caught_up(&primary, &follower, &format!("shards={shards} tail"));
        let shipped = |service: &SearchService| {
            let log = service.retained_log().expect("a durable service");
            log.records_after(caught_up, usize::MAX).unwrap().unwrap()
        };
        let records = shipped(&primary);
        assert_eq!(records.len() as u64, update_seq(&primary) - caught_up);
        assert_eq!(
            shipped(&follower),
            records,
            "shards={shards}: the follower's log ships other bytes than the primary's"
        );

        runtime.shared.stop();
        let _ = runtime.handle.join();
        log.shutdown();
        for dir in [&p_dir, &f_dir, &r_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A follower samples its applies into the ring behind its own
/// `/debug/traces`: at 1-in-1 sampling every record it applies is a
/// `replica/apply` trace keyed by the record's update seq, whose
/// `apply` span names that seq and the record's size, beside the
/// record's own WAL write and fsync spans.
#[test]
fn a_followers_sampled_applies_are_traced() {
    let p_dir = temp_dir("traced-p");
    let f_dir = temp_dir("traced-f");
    let primary = primary_service(&p_dir, 2);
    let mut log = attach_log(&primary);
    let follower =
        Arc::new(SearchService::durable(empty_follower_store(&f_dir, 2)).with_trace_sample(1));
    let runtime = start_follower(
        Arc::clone(&follower),
        log.local_addr().to_string(),
        spec(2),
        follower_store_config(nosync()),
        fast_follower(),
    );
    // The first update may reach the follower inside its bootstrap
    // snapshot; the ones after it arrive as records.
    let (status, doc) = post(&primary, "/sets", r#"{"sets": [["traced bootstrap"]]}"#);
    assert_eq!(status, 200, "{doc}");
    wait_caught_up(&primary, &follower, "bootstrap");
    let first = update_seq(&primary);
    for body in [
        r#"{"sets": [["traced one"], ["traced two"]]}"#,
        r#"{"sets": [["traced three"]]}"#,
    ] {
        let (status, doc) = post(&primary, "/sets", body);
        assert_eq!(status, 200, "{doc}");
    }
    let (status, doc) = delete(&primary, "/sets", r#"{"ids": [0]}"#);
    assert_eq!(status, 200, "{doc}");
    // The loop counts a record applied only after its trace is in the
    // ring; polling it adds no traces of its own, as `/stats` would.
    let last = update_seq(&primary);
    let deadline = Instant::now() + Duration::from_secs(60);
    while runtime.shared.status().applied_seq < last {
        assert!(Instant::now() < deadline, "follower never applied {last}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let req = Request::new("GET", "/debug/traces?route=replica/apply", Vec::new());
    let page = Json::parse(std::str::from_utf8(&follower.handle(&req).body).unwrap()).unwrap();
    let traces = page.get("traces").and_then(Json::as_array).unwrap();
    for seq in first + 1..=last {
        let trace = traces
            .iter()
            .find(|t| t.get("id").and_then(Json::as_usize) == Some(seq as usize))
            .unwrap_or_else(|| panic!("no replica/apply trace for record {seq}: {page}"));
        let spans = trace.get("spans").and_then(Json::as_array).unwrap();
        let apply = spans
            .iter()
            .find(|sp| sp.get("kind").and_then(Json::as_str) == Some("apply"))
            .unwrap_or_else(|| panic!("record {seq}: no apply span: {trace}"));
        let attrs = apply.get("attrs").unwrap();
        assert_eq!(
            attrs.get("seq").and_then(Json::as_usize),
            Some(seq as usize)
        );
        assert!(
            attrs.get("bytes").and_then(Json::as_usize).unwrap() > 0,
            "{trace}"
        );
        for kind in ["wal_write", "wal_fsync"] {
            assert!(
                spans
                    .iter()
                    .any(|sp| sp.get("kind").and_then(Json::as_str) == Some(kind)),
                "record {seq}: no {kind} span: {trace}"
            );
        }
    }

    runtime.shared.stop();
    let _ = runtime.handle.join();
    log.shutdown();
    for dir in [&p_dir, &f_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn promoted_follower_accepts_writes_that_an_observer_replicates() {
    let shards = 2usize;
    let p_dir = temp_dir("promo-p");
    let f_dir = temp_dir("promo-f");
    let o_dir = temp_dir("promo-o");

    let primary = primary_service(&p_dir, shards);
    let mut p_log = attach_log(&primary);
    let follower = empty_follower_service(&f_dir, shards);
    let runtime = start_follower(
        Arc::clone(&follower),
        p_log.local_addr().to_string(),
        spec(shards),
        follower_store_config(nosync()),
        fast_follower(),
    );

    let (status, doc) = post(&primary, "/sets", r#"{"sets": [["before failover"]]}"#);
    assert_eq!(status, 200, "{doc}");
    wait_caught_up(&primary, &follower, "pre-promotion");

    // Writes bounce off the follower until it is promoted.
    let (status, _) = post(&follower, "/sets", r#"{"sets": [["too early"]]}"#);
    assert_eq!(status, 409);
    let (status, doc) = post(&follower, "/promote", "");
    assert_eq!(status, 200, "{doc}");
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(doc.get("epoch").and_then(Json::as_usize), Some(1));
    let _ = runtime.handle.join();

    // The promoted follower is a primary now: it takes writes and
    // ships its own log, post-promotion history included.
    let (status, doc) = post(
        &follower,
        "/sets",
        r#"{"sets": [["after failover"], ["w0 w1 shared0 epilogue"]]}"#,
    );
    assert_eq!(status, 200, "{doc}");
    let (status, doc) = delete(&follower, "/sets", r#"{"ids": [3]}"#);
    assert_eq!(status, 200, "{doc}");

    let mut f_log = attach_log(&follower);
    let observer = empty_follower_service(&o_dir, shards);
    let obs_runtime = start_follower(
        Arc::clone(&observer),
        f_log.local_addr().to_string(),
        spec(shards),
        follower_store_config(nosync()),
        fast_follower(),
    );
    wait_caught_up(&follower, &observer, "observer");
    assert_services_identical(&follower, &observer, "observer of the promoted follower");

    obs_runtime.shared.stop();
    let _ = obs_runtime.handle.join();
    f_log.shutdown();
    p_log.shutdown();
    for dir in [&p_dir, &f_dir, &o_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn bootstrap_snapshot_is_never_cut_between_a_batchs_commit_and_its_apply() {
    let dir = temp_dir("cut");
    // Seal a WAL segment on every commit: sealing asks the retention
    // hook for its floor from inside `commit_batch` — after the append
    // advanced the store's sequence number, before the engine applies.
    // Parking the hook holds the batch exactly there.
    let store_cfg = StoreConfig {
        sync: false,
        policy: CompactionPolicy::DISABLED.segment_at_wal_bytes(1),
    };
    let engine = ShardedEngine::build(&corpus(), cfg(), 2).unwrap();
    let primary = Arc::new(SearchService::durable(
        Store::create(&dir, engine, store_cfg).unwrap(),
    ));
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let park_once = Mutex::new(Some((parked_tx, release_rx)));
    primary.set_wal_retention(RetentionHook::new(move || {
        if let Some((parked, release)) = park_once.lock().unwrap().take() {
            parked.send(()).unwrap();
            release.recv().unwrap();
        }
        u64::MAX
    }));

    let writer = {
        let primary = Arc::clone(&primary);
        std::thread::spawn(move || post(&primary, "/sets", r#"{"sets": [["cut marker"]]}"#).0)
    };
    parked_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the append reaches its commit point");

    // Record 1 is committed and not applied. A follower bootstraps now.
    let (cut_tx, cut_rx) = mpsc::channel();
    let streamer = {
        let primary = Arc::clone(&primary);
        std::thread::spawn(move || cut_tx.send(bootstrap_snapshot(&primary)).unwrap())
    };
    assert!(
        cut_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "the cut must wait for the batch in flight"
    );
    release_tx.send(()).unwrap();
    assert_eq!(writer.join().unwrap(), 200);
    let (bytes, seq, _epoch) = cut_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the cut completes once the batch has applied")
        .unwrap();
    streamer.join().unwrap();

    // `(seq, state)` is one consistent pair: stamped 1, it holds
    // record 1's set.
    let (meta, state) = parse_snapshot(&bytes, "bootstrap cut").unwrap();
    assert_eq!((seq, meta.update_seq), (1, 1));
    assert!(
        snapshot_bytes(SnapshotMeta::default(), &state) == engine_bytes(&primary),
        "a snapshot stamped seq {seq} must hold the state after {seq} updates, \
         but it holds {} live sets of the primary's {}",
        state.live.len(),
        primary.engine().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
