//! Store lifecycle tests over the [`ShardedEngine`] the server runs:
//! create → apply → crash (drop) → open must recover an engine
//! **byte-identical** to the in-memory engine that executed the same
//! committed updates, and the generation rotation / auto-policy
//! machinery must behave.
//!
//! (The full random-interleaving differential harness — at shard
//! counts {1, 2, 7} — lives in `recovery_equivalence.rs`; this file
//! pins the storage semantics themselves.)

use std::path::PathBuf;

use silkmoth_collection::UpdateError;
use silkmoth_core::{CompactionPolicy, EngineConfig, QuerySpec, RelatednessMetric, Update};
use silkmoth_server::{ShardSpec, ShardedEngine};
use silkmoth_storage::{
    load_snapshot, MaintenanceReport, StorageError, Store, StoreConfig, StoreEngine,
};
use silkmoth_text::SimilarityFunction;

const SHARDS: usize = 3;

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn base_sets() -> Vec<Vec<String>> {
    (0..8)
        .map(|i| {
            (0..2)
                .map(|j| format!("w{} w{} shared{}", (i * 2 + j) % 5, (i + j) % 3, i % 4))
                .collect()
        })
        .collect()
}

fn spec() -> ShardSpec {
    ShardSpec {
        cfg: cfg(),
        shards: SHARDS,
    }
}

fn fresh_engine(raw: &[Vec<String>]) -> ShardedEngine {
    ShardedEngine::build(raw, cfg(), SHARDS).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "silkmoth-store-recovery-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Search output as comparable (id, score bits) pairs.
fn search_bits(engine: &ShardedEngine, elems: &[&str]) -> Vec<(u32, u64)> {
    let spec = QuerySpec::new(elems.iter().map(|e| e.to_string()).collect());
    engine
        .execute(&spec)
        .hits
        .into_iter()
        .map(|(sid, score)| (sid, score.to_bits()))
        .collect()
}

/// Asserts two engines agree byte-for-byte on state and on a few
/// searches.
fn assert_engines_identical(got: &ShardedEngine, want: &ShardedEngine, what: &str) {
    assert_eq!(got.capture(), want.capture(), "{what}: collection state");
    for probe in [
        vec!["w0 w1 shared0", "w2 w0 shared2"],
        vec!["w4 w2 shared3"],
        vec!["nothing matches this"],
        vec!["fresh unique marker"],
    ] {
        assert_eq!(
            search_bits(got, &probe),
            search_bits(want, &probe),
            "{what}: search {probe:?}"
        );
    }
}

#[test]
fn crash_recovery_replays_the_wal() {
    let dir = temp_dir("replay");
    let raw = base_sets();
    let updates = vec![
        Update::Append(vec![
            vec!["fresh unique marker".into()],
            vec!["w0 w1".into()],
        ]),
        Update::Remove(vec![1, 3]),
        Update::Remove(vec![1]), // idempotent re-remove is committed too
        Update::Compact,
        Update::Append(vec![vec!["post compact set".into()]]),
        Update::Remove(vec![0]),
    ];

    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    let mut mirror = fresh_engine(&raw);
    for u in &updates {
        store.apply(u.clone()).unwrap();
        mirror.apply(u.clone()).unwrap();
    }
    assert_eq!(store.status().wal_records, updates.len() as u64);
    assert!(store.status().last_fsync_ok);
    drop(store); // crash: no snapshot was ever taken after creation

    let (store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(report.snapshot_seq, 0);
    assert_eq!(report.wal_replayed, updates.len() as u64);
    assert_eq!(report.wal_discarded, None);
    assert_eq!(report.snapshots_skipped, 0);
    assert_engines_identical(store.engine(), &mirror, "recovered vs in-memory");

    // Skipping WAL replay (snapshot only) would NOT reproduce the
    // state — i.e. the replay step is load-bearing in this test.
    let (meta, snap_state) = load_snapshot(&dir.join("snapshot-0.smc")).unwrap();
    assert_eq!(meta.seq, 0);
    let snapshot_only = ShardedEngine::restore(&spec(), snap_state).unwrap();
    assert_ne!(snapshot_only.capture(), mirror.capture());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_rotates_generations_atomically() {
    let dir = temp_dir("rotate");
    let raw = base_sets();
    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    let mut mirror = fresh_engine(&raw);
    for u in [
        Update::Append(vec![vec!["alpha beta".into()]]),
        Update::Remove(vec![2]),
    ] {
        store.apply(u.clone()).unwrap();
        mirror.apply(u).unwrap();
    }
    let seq = store.snapshot().unwrap();
    assert_eq!(seq, 1);
    assert_eq!(store.status().wal_records, 0, "WAL rotated");
    // The old generation is retired, the new one is on disk.
    assert!(!dir.join("snapshot-0.smc").exists());
    assert!(!dir.join("wal-0-0.log").exists());
    assert!(dir.join("snapshot-1.smc").exists());
    assert!(dir.join("wal-1-0.log").exists());

    // More updates on the new generation, then crash + recover.
    store
        .apply(Update::Append(vec![vec!["gamma delta".into()]]))
        .unwrap();
    mirror
        .apply(Update::Append(vec![vec!["gamma delta".into()]]))
        .unwrap();
    drop(store);
    let (store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(report.snapshot_seq, 1);
    assert_eq!(report.wal_replayed, 1);
    assert_engines_identical(store.engine(), &mirror, "post-rotation recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn policy_drives_auto_compaction_and_auto_snapshot() {
    let dir = temp_dir("policy");
    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: true,
        policy: CompactionPolicy::default()
            .compact_at_dead_ratio(0.25)
            .snapshot_at_wal_records(4),
    };
    let mut store = Store::create(&dir, fresh_engine(&raw), store_cfg).unwrap();

    // One removal of 2/8 sets = ratio 0.25: exactly at the threshold,
    // so the policy compacts right away (and logs the compaction).
    let (_, report) = store.apply(Update::Remove(vec![0, 5])).unwrap();
    assert!(report.auto_compacted);
    assert_eq!(report.auto_snapshot, None, "2 records < threshold 4");
    assert_eq!(store.engine().slot_count(), 6, "compacted away the dead");
    assert_eq!(store.status().wal_records, 2, "remove + compact logged");

    // Two more updates reach the WAL threshold: auto-snapshot fires and
    // resets the WAL. Across the three calls the policy acted twice:
    // one compaction, one snapshot.
    let (_, report) = store
        .apply(Update::Append(vec![vec!["one more".into()]]))
        .unwrap();
    assert_eq!(report, MaintenanceReport::default());
    let (_, report) = store
        .apply(Update::Append(vec![vec!["and another".into()]]))
        .unwrap();
    assert!(!report.auto_compacted);
    assert_eq!(report.auto_snapshot, Some(1));
    assert_eq!(store.status().wal_records, 0);

    // The recovered store matches an in-memory engine that performed
    // the same (auto-included) updates.
    let mut mirror = fresh_engine(&raw);
    mirror.apply(Update::Remove(vec![0, 5])).unwrap();
    mirror.apply(Update::Compact).unwrap();
    mirror
        .apply(Update::Append(vec![vec!["one more".into()]]))
        .unwrap();
    mirror
        .apply(Update::Append(vec![vec!["and another".into()]]))
        .unwrap();
    drop(store);
    let (store, report) = Store::<ShardedEngine>::open(&dir, &spec(), store_cfg).unwrap();
    assert_eq!(report.snapshot_seq, 1);
    assert_eq!(report.wal_replayed, 0, "snapshot already holds it all");
    assert_engines_identical(store.engine(), &mirror, "auto-policy recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_updates_are_never_logged() {
    let dir = temp_dir("rejected");
    let raw = base_sets();
    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    let err = store.apply(Update::Remove(vec![2, 99])).unwrap_err();
    assert!(
        matches!(err, StorageError::Update(UpdateError::NoSuchSet(99))),
        "{err}"
    );
    assert_eq!(store.status().wal_records, 0, "nothing was logged");
    assert!(store.engine().has_gid(2), "nothing was applied");
    assert_eq!(store.engine().len(), 8, "nothing was applied");
    drop(store);
    // …so recovery has nothing to trip over.
    let (store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(report.wal_replayed, 0);
    assert_eq!(store.engine().len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_refuses_existing_store_and_open_refuses_empty_dir() {
    let dir = temp_dir("guards");
    let raw = base_sets();
    let store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    drop(store);
    let err = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap_err();
    assert!(
        matches!(err, StorageError::AlreadyInitialized { .. }),
        "{err}"
    );

    let empty = temp_dir("guards-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let err = Store::<ShardedEngine>::open(&empty, &spec(), StoreConfig::default()).unwrap_err();
    assert!(matches!(err, StorageError::NotInitialized { .. }), "{err}");
    // A directory that does not exist at all reads the same way.
    let missing = temp_dir("guards-missing");
    let err = Store::<ShardedEngine>::open(&missing, &spec(), StoreConfig::default()).unwrap_err();
    assert!(matches!(err, StorageError::NotInitialized { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn mismatched_serving_config_is_a_named_error() {
    let dir = temp_dir("tokmismatch");
    let raw = base_sets();
    let store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    drop(store);
    // The store holds whitespace-tokenized data; opening it for edit
    // similarity (q-gram tokenization) must fail by name, not serve
    // garbage.
    let edit_spec = ShardSpec {
        cfg: EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 2 },
            0.5,
            0.0,
        ),
        shards: SHARDS,
    };
    let err = Store::<ShardedEngine>::open(&dir, &edit_spec, StoreConfig::default()).unwrap_err();
    assert!(matches!(err, StorageError::Config(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsynced_stores_still_recover_what_reached_disk() {
    let dir = temp_dir("nosync");
    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: false,
        policy: CompactionPolicy::DISABLED,
    };
    let mut store = Store::create(&dir, fresh_engine(&raw), store_cfg).unwrap();
    let mut mirror = fresh_engine(&raw);
    for u in [
        Update::Append(vec![vec!["x y z".into()]]),
        Update::Remove(vec![0]),
    ] {
        store.apply(u.clone()).unwrap();
        mirror.apply(u).unwrap();
    }
    // A clean drop flushes the File buffers (there is no process
    // crash here), so recovery still sees both records — sync=false
    // only weakens the guarantee under a real kill/power-cut.
    drop(store);
    let (store, report) = Store::<ShardedEngine>::open(&dir, &spec(), store_cfg).unwrap();
    assert_eq!(report.wal_replayed, 2);
    assert_engines_identical(store.engine(), &mirror, "unsynced recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_seq_and_epoch_survive_rotation_and_recovery() {
    let dir = temp_dir("seq-epoch");
    let raw = base_sets();
    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    assert_eq!(store.status().update_seq, 0);
    assert_eq!(store.status().epoch, 0);

    // The commit hook fires once per committed record with the new
    // global sequence number.
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = seen.clone();
    store.set_commit_hook(silkmoth_storage::CommitHook::new(move |seq| {
        sink.lock().unwrap().push(seq)
    }));

    store
        .apply(Update::Append(vec![vec!["one".into()]]))
        .unwrap();
    store.apply(Update::Remove(vec![0])).unwrap();
    assert_eq!(store.status().update_seq, 2);
    store.snapshot().unwrap();
    // Rotation empties the WAL but the global counter keeps going.
    assert_eq!(store.status().wal_records, 0);
    assert_eq!(store.status().update_seq, 2);
    store.apply(Update::Compact).unwrap();
    assert_eq!(store.status().update_seq, 3);
    assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);

    assert_eq!(store.bump_epoch().unwrap(), 1);
    store
        .apply(Update::Append(vec![vec!["two".into()]]))
        .unwrap();

    drop(store); // crash
    let (store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(report.wal_replayed, 1);
    assert_eq!(store.status().update_seq, 4, "snapshot base + replayed");
    assert_eq!(store.status().epoch, 1, "epoch recovered from snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lost-ack regression: when an update has durably committed and
/// applied but the *post-commit* auto-snapshot fails, `apply` must
/// return `Ok` with the failure in its `MaintenanceReport` — an `Err` here
/// historically made callers retry an update that already happened,
/// duplicating it.
#[test]
fn committed_update_acks_despite_failed_maintenance() {
    let dir = temp_dir("lost-ack");
    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: true,
        policy: CompactionPolicy::default().snapshot_at_wal_records(1),
    };
    let mut store = Store::create(&dir, fresh_engine(&raw), store_cfg).unwrap();
    // Sabotage the auto-snapshot: rotation starts by creating the new
    // generation's WAL segment, and a directory squatting on that path
    // makes it fail — after the caller's update is already durable.
    std::fs::create_dir_all(dir.join("wal-1-0.log")).unwrap();
    let (outcome, report) = store
        .apply(Update::Append(vec![vec![
            "survives the failed snapshot".into()
        ]]))
        .unwrap();
    assert_eq!(outcome.appended, vec![8], "the update itself succeeded");
    assert_eq!(report.auto_snapshot, None);
    let why = report.error.expect("auto-snapshot must have failed");
    assert!(why.contains("auto-snapshot failed"), "{why}");
    // The ack was honest: the update is on disk. Nothing was
    // double-applied by the failed maintenance, and because the caller
    // got an Ok there is no reason for it to retry.
    assert_eq!(store.status().update_seq, 1);
    assert_eq!(store.engine().len(), 9);
    drop(store); // crash
    std::fs::remove_dir_all(dir.join("wal-1-0.log")).unwrap();
    let (store, report) = Store::<ShardedEngine>::open(&dir, &spec(), store_cfg).unwrap();
    assert_eq!(report.wal_replayed, 1);
    assert_eq!(store.engine().len(), 9, "exactly one copy recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt newer generations are skipped once, quarantined (renamed
/// `*.corrupt`), and therefore invisible to the next open — which
/// reports `snapshots_skipped: 0` again instead of re-parsing garbage
/// forever.
#[test]
fn corrupt_newer_generation_is_quarantined_once() {
    let dir = temp_dir("quarantine");
    let raw = base_sets();
    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    store
        .apply(Update::Append(vec![vec!["kept".into()]]))
        .unwrap();
    drop(store);
    // A half-written future generation: garbage snapshot, torn WAL.
    std::fs::write(dir.join("snapshot-3.smc"), b"not a snapshot at all").unwrap();
    std::fs::write(dir.join("wal-3-0.log"), b"torn").unwrap();

    let (store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(report.snapshot_seq, 0, "fell back to the good generation");
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(store.engine().len(), 9);
    assert!(!dir.join("snapshot-3.smc").exists(), "quarantined");
    assert!(dir.join("snapshot-3.smc.corrupt").exists());
    assert!(dir.join("wal-3-0.log.corrupt").exists());
    drop(store);

    let (_store, report) =
        Store::<ShardedEngine>::open(&dir, &spec(), StoreConfig::default()).unwrap();
    assert_eq!(
        report.snapshots_skipped, 0,
        "the quarantine made the second open clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The telemetry contract for fsync-less stores: `CommitBatch.sync`
/// is **exactly** `Duration::ZERO` when sync is off, so the fsync
/// histogram never records phantom time.
#[test]
fn no_sync_commit_reports_zero_sync_duration() {
    let dir = temp_dir("zero-sync");
    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: false,
        policy: CompactionPolicy::DISABLED,
    };
    let mut store = Store::create(&dir, fresh_engine(&raw), store_cfg).unwrap();
    let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = events.clone();
    store.set_telemetry_hook(silkmoth_storage::TelemetryHook::new(move |event| {
        sink.lock().unwrap().push(event)
    }));
    store
        .apply(Update::Append(vec![vec!["unsynced".into()]]))
        .unwrap();
    let seen = events.lock().unwrap();
    match seen.as_slice() {
        [silkmoth_storage::StoreEvent::CommitBatch {
            records,
            write,
            sync,
        }] => {
            assert_eq!(*records, 1);
            assert!(*write > std::time::Duration::ZERO);
            assert_eq!(
                *sync,
                std::time::Duration::ZERO,
                "no fsync ran, so no fsync time may be reported"
            );
        }
        other => panic!("expected exactly one CommitBatch event, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Segmented WAL end to end: a byte threshold seals segments as the
/// log grows, status reports the segment count, and recovery replays
/// across all of them into the same state as an in-memory mirror.
#[test]
fn sealed_segments_recover_identically() {
    let dir = temp_dir("segments");
    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: true,
        // Tiny threshold: every append seals the active segment.
        policy: CompactionPolicy::default().segment_at_wal_bytes(64),
    };
    let mut store = Store::create(&dir, fresh_engine(&raw), store_cfg).unwrap();
    let mut mirror = fresh_engine(&raw);
    let updates = vec![
        Update::Append(vec![vec!["segment one lives here".into()]]),
        Update::Append(vec![vec!["segment two lives here".into()]]),
        Update::Remove(vec![1, 8]),
        Update::Append(vec![vec!["segment three lives here".into()]]),
        Update::Remove(vec![8]), // idempotent re-remove crosses a seal
    ];
    for u in &updates {
        store.apply(u.clone()).unwrap();
        mirror.apply(u.clone()).unwrap();
    }
    let status = store.status();
    assert!(
        status.wal_segments > 1,
        "the 64-byte threshold must have sealed at least once (got {})",
        status.wal_segments
    );
    assert_eq!(status.wal_records, updates.len() as u64);
    assert!(dir.join("wal-0-0.log").exists());
    assert!(dir.join("wal-0-1.log").exists());
    drop(store); // crash with records spread over several segments

    let (store, report) = Store::<ShardedEngine>::open(&dir, &spec(), store_cfg).unwrap();
    assert_eq!(report.wal_replayed, updates.len() as u64);
    assert_eq!(report.wal_discarded, None);
    assert_engines_identical(store.engine(), &mirror, "multi-segment recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_payloads_read_back_raw_and_bounded() {
    let dir = temp_dir("payloads");
    let raw = base_sets();
    let mut store = Store::create(&dir, fresh_engine(&raw), StoreConfig::default()).unwrap();
    for i in 0..5u32 {
        store
            .apply(Update::Append(vec![vec![format!("record {i}")]]))
            .unwrap();
    }
    let log = store.retained_log().unwrap();
    let all = log.records_after(0, 100).unwrap().unwrap();
    assert_eq!(all.len(), 5);
    // Skip + limit slice the same stream, and payloads decode to the
    // exact updates that were committed.
    let tail = log.records_after(3, 100).unwrap().unwrap();
    assert_eq!(tail, all[3..].to_vec());
    let window = log.records_after(1, 2).unwrap().unwrap();
    assert_eq!(window, all[1..3].to_vec());
    for (i, payload) in all.iter().enumerate() {
        match silkmoth_core::wire::decode_update(payload).unwrap() {
            Update::Append(sets) => assert_eq!(sets, vec![vec![format!("record {i}")]]),
            other => panic!("unexpected update {other:?}"),
        }
    }
    // A cursor ahead of what has committed is not servable: the caller
    // bootstraps instead.
    assert_eq!(log.records_after(6, 1).unwrap(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store with no directory runs the same commit → apply → maintain
/// path: commits are numbered and reach the commit hook, the policy's
/// compaction is committed and reported like on disk, and nothing that
/// needs a WAL happens — no `CommitBatch` event, no snapshot or segment
/// however low their thresholds, and explicit snapshots and epoch bumps
/// fail by name without changing the store.
#[test]
fn in_memory_store_commits_without_a_wal() {
    use std::sync::{Arc, Mutex};

    use silkmoth_storage::{CommitHook, StoreEvent, TelemetryHook};

    let raw = base_sets();
    let store_cfg = StoreConfig {
        sync: true,
        policy: CompactionPolicy::default()
            .compact_at_dead_ratio(0.25)
            .snapshot_at_wal_records(1)
            .segment_at_wal_bytes(1),
    };
    let mut store = Store::in_memory(fresh_engine(&raw), store_cfg);
    assert!(!store.is_durable());
    assert!(store.retained_log().is_none(), "no WAL to ship");
    assert_eq!(store.dir(), std::path::Path::new(""));
    let events = Arc::new(Mutex::new(Vec::new()));
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let (sink, seq_sink) = (Arc::clone(&events), Arc::clone(&seqs));
    store.set_telemetry_hook(TelemetryHook::new(move |e| sink.lock().unwrap().push(e)));
    store.set_commit_hook(CommitHook::new(move |seq| {
        seq_sink.lock().unwrap().push(seq)
    }));

    // 2 of 8 sets removed crosses the 0.25 dead ratio.
    let (_, report) = store.apply(Update::Remove(vec![0, 5])).unwrap();
    assert!(report.auto_compacted);
    assert_eq!(report.auto_snapshot, None);
    assert_eq!(report.error, None);
    assert_eq!(*events.lock().unwrap(), [StoreEvent::AutoCompaction]);
    assert_eq!(*seqs.lock().unwrap(), [1, 2], "remove, then its compaction");
    let status = store.status();
    assert_eq!(
        (status.update_seq, status.wal_records, status.wal_segments),
        (2, 0, 1)
    );
    assert_eq!(status.snapshot_seq, 0);

    let mut mirror = fresh_engine(&raw);
    mirror.apply(Update::Remove(vec![0, 5])).unwrap();
    mirror.apply(Update::Compact).unwrap();
    assert_engines_identical(store.engine(), &mirror, "in-memory store");

    assert!(matches!(store.snapshot(), Err(StorageError::BadState(_))));
    assert!(matches!(store.bump_epoch(), Err(StorageError::BadState(_))));
    assert_eq!(store.status(), status, "failed snapshots change nothing");
    assert_eq!(events.lock().unwrap().len(), 1);
}
