//! Durability-layer costs: WAL-logged updates (the per-request overhead
//! `serve --data-dir` adds), snapshot encode/decode, and full crash
//! recovery (`Store::open` = newest snapshot + WAL replay).
//!
//! On this container the fsync dominates the WAL append by orders of
//! magnitude (as it should — it IS the durability), so the append
//! numbers are reported with `sync: false` to expose the CPU cost;
//! recovery numbers include index rebuilds and are the ones that bound
//! restart time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use silkmoth_collection::Collection;
use silkmoth_core::{CompactionPolicy, Engine, EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{Request, SearchService, ShardedEngine};
use silkmoth_storage::{
    load_snapshot, snapshot_bytes, SnapshotMeta, Store, StoreConfig, StoreEngine,
};
use silkmoth_text::SimilarityFunction;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.6,
        0.0,
    )
}

fn corpus(n: usize) -> Vec<Vec<String>> {
    (0..n)
        .map(|i| {
            (0..3)
                .map(|j| {
                    format!(
                        "w{} w{} w{} shared{}",
                        i % 97,
                        (i + j) % 53,
                        (i * 7 + j) % 31,
                        i % 11
                    )
                })
                .collect()
        })
        .collect()
}

fn engine(n: usize) -> Engine {
    Engine::new(Collection::build(&corpus(n), cfg().tokenization()), cfg()).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "silkmoth-bench-storage-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/wal_append_nosync");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    let dir = temp_dir("append");
    let mut store = Store::create(
        &dir,
        engine(1000),
        StoreConfig {
            sync: false,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let set = vec!["w1 w2 w3 shared0".to_string()];
    group.bench_function(BenchmarkId::from_parameter("1k-sets"), |b| {
        b.iter(|| store.apply(Update::Append(vec![set.clone()])).unwrap())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/snapshot");
    group.sample_size(10);
    for n in [1000usize, 5000] {
        let state = engine(n).capture();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |b, _| {
            b.iter(|| snapshot_bytes(SnapshotMeta::default(), &state))
        });
    }
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/recovery");
    group.sample_size(10);
    for (n, wal) in [(1000usize, 0usize), (1000, 200), (5000, 0)] {
        let dir = temp_dir(&format!("recover-{n}-{wal}"));
        let mut store = Store::create(&dir, engine(n), StoreConfig::default()).unwrap();
        for i in 0..wal {
            store
                .apply(Update::Append(vec![vec![format!("tail set {i}")]]))
                .unwrap();
        }
        drop(store);
        group.throughput(Throughput::Elements((n + wal) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}sets+{wal}wal")),
            &dir,
            |b, dir| {
                b.iter(|| {
                    let (store, report) =
                        Store::<Engine>::open(dir, &cfg(), StoreConfig::default()).unwrap();
                    assert_eq!(report.wal_replayed, wal as u64);
                    store.engine().collection().live_len()
                })
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_snapshot_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/snapshot_load");
    group.sample_size(10);
    let dir = temp_dir("load");
    let store = Store::create(&dir, engine(5000), StoreConfig::default()).unwrap();
    drop(store);
    let path = dir.join("snapshot-0.smc");
    group.throughput(Throughput::Elements(5000));
    group.bench_function(BenchmarkId::from_parameter("5k-sets"), |b| {
        b.iter(|| load_snapshot(&path).unwrap().1.live.len())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One timed pass of `writers` threads each pushing `per_writer`
/// single-set appends through the service's durable update route
/// (fsync per commit batch). Returns the wall time.
fn group_commit_pass(service: &SearchService, writers: usize, per_writer: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                for i in 0..per_writer {
                    let body = format!(r#"{{"sets": [["bench w{w} u{i} shared{}"]]}}"#, i % 11);
                    let resp = service.handle(&Request::new("POST", "/sets", body.into_bytes()));
                    assert_eq!(resp.status, 200);
                }
            });
        }
    });
    start.elapsed()
}

fn durable_service(dir: &PathBuf) -> SearchService {
    let engine = ShardedEngine::build(&corpus(100), cfg(), 2).unwrap();
    let store = Store::create(
        dir,
        engine,
        StoreConfig {
            sync: true,
            policy: CompactionPolicy::DISABLED,
        },
    )
    .unwrap();
    SearchService::durable(store)
}

/// Durable ingest with 1/4/16 concurrent writers: the group-commit
/// acceptance bench. Contending writers share fsyncs, so throughput
/// must scale far better than fsync-per-update.
fn bench_group_commit(c: &mut Criterion) {
    // Long enough per pass that steady-state batching dominates the
    // first few small warm-up batches.
    const PER_WRITER: usize = 96;
    let mut group = c.benchmark_group("storage/group_commit_sync");
    group.sample_size(10);
    for writers in [1usize, 4, 16] {
        group.throughput(Throughput::Elements((writers * PER_WRITER) as u64));
        let dir = temp_dir(&format!("group-commit-{writers}"));
        let service = durable_service(&dir);
        group.bench_function(
            BenchmarkId::from_parameter(format!("{writers}-writers")),
            |b| b.iter(|| group_commit_pass(&service, writers, PER_WRITER)),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Crash recovery over a segmented WAL (decoded and CRC-checked in
/// parallel) vs the same history in one unbounded segment.
fn bench_parallel_recovery(c: &mut Criterion) {
    const SETS: usize = 2000;
    const WAL: usize = 1024;
    let mut group = c.benchmark_group("storage/parallel_recovery");
    group.sample_size(10);
    group.throughput(Throughput::Elements((SETS + WAL) as u64));
    for (label, policy) in [
        ("single-segment", CompactionPolicy::DISABLED),
        (
            "segmented",
            CompactionPolicy::DISABLED.segment_at_wal_bytes(4096),
        ),
    ] {
        let dir = temp_dir(&format!("parallel-recovery-{label}"));
        let store_cfg = StoreConfig {
            sync: false,
            policy,
        };
        let mut store = Store::create(&dir, engine(SETS), store_cfg).unwrap();
        for i in 0..WAL {
            store
                .apply(Update::Append(vec![vec![format!(
                    "tail set {i} shared{}",
                    i % 11
                )]]))
                .unwrap();
        }
        drop(store);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let (store, report) = Store::<Engine>::open(&dir, &cfg(), store_cfg).unwrap();
                assert_eq!(report.wal_replayed, WAL as u64);
                store.engine().collection().live_len()
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_snapshot_roundtrip,
    bench_snapshot_load,
    bench_recovery,
    bench_group_commit,
    bench_parallel_recovery
);
criterion_main!(benches);
