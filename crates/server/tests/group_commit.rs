//! Group commit under concurrency: N writer threads pushing updates
//! through [`SearchService`]'s durable routes must (a) all get honest
//! acks, (b) share fsyncs (fewer commit batches than updates), (c) see
//! rejections confined to the invalid updates in a mixed batch — on an
//! in-memory store too, which logs nothing — and (d) leave on-disk state that recovers to a **sequence-prefix of the
//! acknowledged updates** no matter when the crash image is taken —
//! checked byte-identically at shard counts {1, 2, 7}.
//!
//! The degraded-ack leg pins the lost-ack bugfix at the HTTP surface:
//! when post-commit maintenance fails, the route answers 200 with
//! `"degraded": true` instead of an error that would bait a retry.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use silkmoth_core::{CompactionPolicy, EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{Json, Request, SearchService, ShardSpec, ShardedEngine};
use silkmoth_storage::{Store, StoreConfig, StoreEngine};
use silkmoth_text::SimilarityFunction;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn base_sets() -> Vec<Vec<String>> {
    (0..6)
        .map(|i| vec![format!("w{} shared{}", i % 4, i % 2)])
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "silkmoth-group-commit-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn durable_service(dir: &Path, shards: usize, store_cfg: StoreConfig) -> SearchService {
    let engine = ShardedEngine::build(&base_sets(), cfg(), shards).unwrap();
    let store = Store::create(dir, engine, store_cfg).unwrap();
    SearchService::durable(store)
}

/// The value of the sample `name` on the service's `/metrics` page.
fn scrape(service: &SearchService, name: &str) -> usize {
    let page = service.handle(&Request::new("GET", "/metrics", Vec::new()));
    let page = String::from_utf8(page.body).unwrap();
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("missing sample {name} in:\n{page}"))
        .trim()
        .parse::<f64>()
        .unwrap() as usize
}

/// The appended gid from a successful `POST /sets` of one set.
fn appended_gid(doc: &Json) -> u32 {
    let ids = doc.get("appended").and_then(Json::as_array).unwrap();
    assert_eq!(ids.len(), 1);
    ids[0].as_usize().unwrap() as u32
}

#[test]
fn concurrent_writers_share_fsyncs_and_all_get_acked() {
    const WRITERS: usize = 16;
    const PER_WRITER: usize = 25;
    let dir = temp_dir("batching");
    let service = durable_service(
        &dir,
        2,
        StoreConfig {
            sync: true,
            policy: CompactionPolicy::DISABLED,
        },
    );

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let service = &service;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let (status, doc) =
                        post(service, "/sets", &format!(r#"{{"sets": [["w{w} u{i}"]]}}"#));
                    assert_eq!(status, 200, "{doc:?}");
                    assert!(doc.get("appended").is_some());
                }
            });
        }
    });

    // The service's own storage telemetry saw every record; the batch
    // histogram's count is the number of commits (≈ fsyncs).
    let total = WRITERS * PER_WRITER;
    let records = scrape(&service, "silkmoth_wal_commit_batch_records_sum");
    let commits = scrape(&service, "silkmoth_wal_commit_batch_records_count");
    assert_eq!(records, total, "every ack was logged");
    assert!(
        commits < total,
        "16 contending writers must share at least one fsync \
         ({commits} commits for {total} updates)"
    );
    assert_eq!(
        service.engine().len(),
        base_sets().len() + total,
        "every acked append is live"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight writers mixing valid appends with removes of a gid that never
/// existed: each invalid update fails alone, and the store's sequence
/// counts exactly the accepted ones.
fn mixed_batch_fails_invalid_updates_alone(service: &SearchService) {
    let appends = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..8 {
            let appends = &appends;
            scope.spawn(move || {
                for i in 0..10 {
                    if (w + i) % 3 == 0 {
                        // A remove of a gid that never existed: rejected
                        // by the batch's virtual validation, without
                        // poisoning the valid neighbors.
                        let (status, doc) = delete(service, "/sets", r#"{"ids": [999999]}"#);
                        assert_eq!(status, 404, "{doc:?}");
                    } else {
                        let (status, doc) =
                            post(service, "/sets", &format!(r#"{{"sets": [["m{w} {i}"]]}}"#));
                        assert_eq!(status, 200, "{doc:?}");
                        appends.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let appends = appends.load(Ordering::Relaxed);
    assert!(appends > 0);
    assert_eq!(service.engine().len(), base_sets().len() + appends);
    // The store agrees: only the accepted updates were committed.
    let resp = service.handle(&Request::new("GET", "/healthz", Vec::new()));
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("update_seq").and_then(Json::as_usize),
        Some(appends)
    );
}

#[test]
fn invalid_updates_in_a_mixed_batch_fail_alone() {
    let dir = temp_dir("mixed");
    let service = durable_service(
        &dir,
        2,
        StoreConfig {
            sync: true,
            policy: CompactionPolicy::DISABLED,
        },
    );
    mixed_batch_fails_invalid_updates_alone(&service);
    let _ = std::fs::remove_dir_all(&dir);

    // The same path over an in-memory store, which writes no WAL and
    // so records no WAL commit.
    let service = SearchService::new(ShardedEngine::build(&base_sets(), cfg(), 2).unwrap());
    mixed_batch_fails_invalid_updates_alone(&service);
    assert_eq!(
        scrape(&service, "silkmoth_wal_commit_batch_records_count"),
        0
    );
}

#[test]
fn failed_maintenance_still_acks_with_a_degraded_flag() {
    let dir = temp_dir("degraded");
    let service = durable_service(
        &dir,
        2,
        StoreConfig {
            sync: true,
            policy: CompactionPolicy::default().snapshot_at_wal_records(1),
        },
    );
    // Sabotage the auto-snapshot exactly as the storage-level test
    // does: a directory squatting on the next generation's WAL path.
    std::fs::create_dir_all(dir.join("wal-1-0.log")).unwrap();
    let (status, doc) = post(&service, "/sets", r#"{"sets": [["survives"]]}"#);
    assert_eq!(status, 200, "a committed update must ack: {doc:?}");
    assert_eq!(doc.get("degraded"), Some(&Json::Bool(true)));
    assert!(doc.get("appended").is_some());

    // With the obstruction gone the next update acks clean.
    std::fs::remove_dir_all(dir.join("wal-1-0.log")).unwrap();
    let (status, doc) = post(&service, "/sets", r#"{"sets": [["clean"]]}"#);
    assert_eq!(status, 200);
    assert_eq!(doc.get("degraded"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one consistent-enough crash image of a running store
/// directory: list first, then copy — a file that exists at listing
/// time is complete unless it is the newest segment, which recovery
/// treats as the (possibly torn) active tail.
fn crash_image(live: &Path, image: &Path) {
    let _ = std::fs::remove_dir_all(image);
    std::fs::create_dir_all(image).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(live)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        if let Ok(bytes) = std::fs::read(live.join(&name)) {
            std::fs::write(image.join(&name), bytes).unwrap();
        }
    }
}

#[test]
fn any_crash_image_recovers_a_prefix_of_acked_updates() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 10;
    const TOTAL: usize = WRITERS * PER_WRITER;
    for shards in SHARD_COUNTS {
        let dir = temp_dir(&format!("prefix-{shards}"));
        let store_cfg = StoreConfig {
            sync: true,
            // Small segments so crash images span several files.
            policy: CompactionPolicy::DISABLED.segment_at_wal_bytes(256),
        };
        let service = durable_service(&dir, shards, store_cfg);
        let acked: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());
        let ack_count = AtomicUsize::new(0);
        let early = temp_dir(&format!("prefix-{shards}-img-early"));
        let mid = temp_dir(&format!("prefix-{shards}-img-mid"));
        let last = temp_dir(&format!("prefix-{shards}-img-final"));

        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (service, acked, ack_count) = (&service, &acked, &ack_count);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let marker = format!("writer{w} update{i} shards");
                        let (status, doc) =
                            post(service, "/sets", &format!(r#"{{"sets": [["{marker}"]]}}"#));
                        assert_eq!(status, 200, "{doc:?}");
                        acked.lock().unwrap().push((appended_gid(&doc), marker));
                        ack_count.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // The "kill -9" camera: copy the live directory while the
            // writers are mid-flight. Gating on the ack count makes the
            // images deterministically non-empty and mid-run.
            let (dir, early, mid, ack_count) = (&dir, &early, &mid, &ack_count);
            scope.spawn(move || {
                while ack_count.load(Ordering::SeqCst) < 1 {
                    std::thread::yield_now();
                }
                crash_image(dir, early);
                while ack_count.load(Ordering::SeqCst) < TOTAL / 2 {
                    std::thread::yield_now();
                }
                crash_image(dir, mid);
            });
        });
        crash_image(&dir, &last);

        let mut acked = acked.into_inner().unwrap();
        assert_eq!(acked.len(), TOTAL);
        // Gid order IS commit order: the group-commit leader assigns
        // gids in the order records hit the WAL.
        acked.sort_by_key(|(gid, _)| *gid);

        let spec = ShardSpec { cfg: cfg(), shards };
        for (image, floor) in [(&early, 1), (&mid, TOTAL / 2), (&last, TOTAL)] {
            let (store, report) = Store::<ShardedEngine>::open(image, &spec, store_cfg)
                .unwrap_or_else(|e| panic!("image of {shards}-shard store must open: {e}"));
            let k = report.wal_replayed as usize;
            assert!(
                k >= floor && k <= TOTAL,
                "image taken after {floor} acks holds {k} records"
            );
            // Byte-identity with a mirror that applied exactly the
            // first k acked updates — any hole, reorder, or phantom in
            // the recovered state breaks this.
            let mut mirror = ShardedEngine::build(&base_sets(), cfg(), shards).unwrap();
            for (_, marker) in &acked[..k] {
                mirror
                    .apply(Update::Append(vec![vec![marker.clone()]]))
                    .unwrap();
            }
            assert_eq!(
                StoreEngine::capture(store.engine()),
                StoreEngine::capture(&mirror),
                "{shards}-shard image at >={floor} acks is the {k}-update prefix"
            );
        }
        for d in [&dir, &early, &mid, &last] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
