//! Seeded chaos harness for the replication stream: a primary store
//! takes a random committed workload (appends, removes, compactions,
//! forced snapshot rotations) while a follower tails it over the
//! deterministic fault-injecting transport from [`silkmoth_replica::sim`]
//! — connections refused, cut mid-record, bytes flipped in transit.
//! The follower must converge to a state **byte-identical** to the
//! primary (zero acked-write loss), surviving every disconnect by
//! resuming from its cursor or re-bootstrapping from a snapshot.
//!
//! Also pinned here, scripted rather than randomized: idempotent skip
//! of re-sent records, forced bootstrap when the cursor predates the
//! retained WAL, and forced bootstrap on an epoch change (failover).

use rand::{rngs::StdRng, Rng, SeedableRng};
use silkmoth_collection::Collection;
use silkmoth_core::{CompactionPolicy, Engine, EngineConfig, QuerySpec, RelatednessMetric, Update};
use silkmoth_replica::{
    run_follower, serve_log, sim_duplex, stream_updates, write_frame, Connector, FaultPlan,
    FollowerConfig, FollowerShared, Frame, ReplicaSink, SimStream, StoreSink, StoreSource,
    StreamerConfig, TcpConnector,
};
use silkmoth_storage::{
    snapshot_bytes, RetentionHook, SnapshotMeta, Store, StoreConfig, StoreEngine,
};
use silkmoth_text::SimilarityFunction;
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

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

fn fresh_engine(raw: &[Vec<String>]) -> Engine {
    Engine::new(Collection::build(raw, cfg().tokenization()), cfg()).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "silkmoth-replica-chaos-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn nosync() -> StoreConfig {
    StoreConfig {
        sync: false,
        ..StoreConfig::default()
    }
}

/// Search output as comparable (id, score bits) pairs.
fn search_bits(engine: &Engine, elems: &[&str]) -> Vec<(u32, u64)> {
    let spec = QuerySpec::new(elems.iter().map(|e| e.to_string()).collect());
    engine
        .execute(&spec)
        .hits
        .into_iter()
        .map(|(sid, score)| (sid, score.to_bits()))
        .collect()
}

/// Byte-identical check: same serialized snapshot under the same meta,
/// and bit-equal search output for a few probes.
fn assert_byte_identical(got: &Engine, want: &Engine, what: &str) {
    let meta = SnapshotMeta::default();
    assert_eq!(
        snapshot_bytes(meta, &got.capture()),
        snapshot_bytes(meta, &want.capture()),
        "{what}: serialized state differs"
    );
    for probe in [
        vec!["w0 w1 shared0", "w2 w0 shared2"],
        vec!["w4 w2 shared3"],
        vec!["chaos marker 7"],
    ] {
        assert_eq!(
            search_bits(got, &probe),
            search_bits(want, &probe),
            "{what}: search {probe:?}"
        );
    }
}

/// One random committed update against the primary. Ids are taken from
/// a capture so removals always name live sets.
fn random_update(rng: &mut StdRng, primary: &Arc<RwLock<Store<Engine>>>) -> Update {
    let roll: u32 = rng.random_range(0..10u32);
    let live: Vec<u32> = {
        let guard = primary.read().unwrap();
        guard
            .engine()
            .capture()
            .live
            .iter()
            .map(|(id, _)| *id)
            .collect()
    };
    if roll < 6 || live.len() < 3 {
        let n = rng.random_range(1..3usize);
        Update::Append(
            (0..n)
                .map(|_| {
                    (0..rng.random_range(1..3usize))
                        .map(|_| {
                            format!(
                                "w{} shared{} chaos marker {}",
                                rng.random_range(0..6u32),
                                rng.random_range(0..4u32),
                                rng.random_range(0..9u32)
                            )
                        })
                        .collect()
                })
                .collect(),
        )
    } else if roll < 9 {
        let k = rng.random_range(1..3usize).min(live.len());
        let mut ids: Vec<u32> = (0..k)
            .map(|_| live[rng.random_range(0..live.len())])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Update::Remove(ids)
    } else {
        Update::Compact
    }
}

/// A follower connector over the simulated transport: each connect may
/// be refused, and each accepted connection gets a seeded fault plan on
/// the primary→follower direction (cuts mid-record, byte flips). The
/// primary side of every pipe runs a real [`stream_updates`] session in
/// its own thread.
struct ChaosConnector {
    source: Arc<StoreSource<Engine>>,
    stop: Arc<AtomicBool>,
    rng: StdRng,
    streamer_cfg: StreamerConfig,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Connector for ChaosConnector {
    type Io = SimStream;

    fn connect(&mut self) -> std::io::Result<SimStream> {
        if self.rng.random_range(0..8u32) == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "simulated refusal",
            ));
        }
        let primary_faults = FaultPlan {
            cut_after: if self.rng.random_range(0..3u32) < 2 {
                Some(self.rng.random_range(30..6000u64))
            } else {
                None
            },
            flip: if self.rng.random_range(0..4u32) == 0 {
                Some((self.rng.random_range(0..3000u64), 0xA5))
            } else {
                None
            },
            delay: None,
        };
        let (follower_io, mut primary_io) = sim_duplex(
            FaultPlan::default(),
            primary_faults,
            Duration::from_millis(500),
        );
        let source = Arc::clone(&self.source);
        let stop = Arc::clone(&self.stop);
        let cfg = self.streamer_cfg;
        self.threads.push(thread::spawn(move || {
            let _ = stream_updates(source.as_ref(), &mut primary_io, &stop, &cfg, None);
        }));
        Ok(follower_io)
    }
}

fn fast_streamer_cfg() -> StreamerConfig {
    StreamerConfig {
        heartbeat: Duration::from_millis(10),
        batch: 16,
        ..StreamerConfig::default()
    }
}

fn fast_follower_cfg() -> FollowerConfig {
    FollowerConfig {
        backoff_min: Duration::from_millis(2),
        backoff_max: Duration::from_millis(40),
        ..FollowerConfig::default()
    }
}

#[test]
fn follower_converges_byte_identically_under_chaos() {
    for seed in [11u64, 29, 47] {
        let primary_dir = temp_dir(&format!("chaos-primary-{seed}"));
        let follower_dir = temp_dir(&format!("chaos-follower-{seed}"));
        let primary = Arc::new(RwLock::new(
            Store::create(&primary_dir, fresh_engine(&base_sets()), nosync()).unwrap(),
        ));
        let source = Arc::new(StoreSource::install(Arc::clone(&primary)));

        let stop_streamers = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(FollowerShared::new());
        let connector = ChaosConnector {
            source: Arc::clone(&source),
            stop: Arc::clone(&stop_streamers),
            rng: StdRng::seed_from_u64(seed ^ 0xC0FFEE),
            streamer_cfg: fast_streamer_cfg(),
            threads: Vec::new(),
        };
        let sink = StoreSink::new(
            Store::create(&follower_dir, fresh_engine(&[]), nosync()).unwrap(),
            cfg(),
            nosync(),
        );
        let follower = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
        };

        // Drive a random committed workload, forcing a rotation every
        // 20 updates so a lagging follower's cursor falls off the
        // retained WAL and the bootstrap path gets exercised.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..80 {
            let update = random_update(&mut rng, &primary);
            primary.write().unwrap().apply(update).unwrap();
            if i % 20 == 19 {
                primary.write().unwrap().snapshot().unwrap();
            }
            if i % 7 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let target = {
            let guard = primary.read().unwrap();
            guard.status().update_seq
        };

        // Convergence: every committed (acked) update present on the
        // follower.
        let deadline = Instant::now() + Duration::from_secs(60);
        while shared.status().applied_seq != target {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: follower stuck at {} of {target} (status {:?})",
                shared.status().applied_seq,
                shared.status()
            );
            thread::sleep(Duration::from_millis(5));
        }
        shared.stop();
        let sink = follower.join().unwrap();
        stop_streamers.store(true, Ordering::Relaxed);

        let status = shared.status();
        assert_eq!(status.applied_seq, target, "seed {seed}: lost acked writes");
        {
            let guard = primary.read().unwrap();
            assert_byte_identical(
                sink.store().engine(),
                guard.engine(),
                &format!("seed {seed} after chaos"),
            );
        }
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }
}

/// Serves a scripted frame sequence to one follower connection, then
/// heartbeats until the follower disconnects.
struct ScriptConnector {
    frames: Vec<Frame>,
    committed: u64,
    served: bool,
    thread: Option<thread::JoinHandle<()>>,
}

impl Connector for ScriptConnector {
    type Io = SimStream;

    fn connect(&mut self) -> std::io::Result<SimStream> {
        assert!(!self.served, "script serves one connection");
        self.served = true;
        let (follower_io, mut primary_io) = sim_duplex(
            FaultPlan::default(),
            FaultPlan::default(),
            Duration::from_millis(500),
        );
        let frames = std::mem::take(&mut self.frames);
        let committed = self.committed;
        self.thread = Some(thread::spawn(move || {
            let mut hello = [0u8; 25];
            primary_io.read_exact(&mut hello).unwrap();
            for frame in &frames {
                write_frame(&mut primary_io, frame).unwrap();
            }
            loop {
                let beat = Frame::Heartbeat {
                    committed_seq: committed,
                };
                if write_frame(&mut primary_io, &beat).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
        }));
        Ok(follower_io)
    }
}

/// Re-sent records (duplicate seqs after a retransmission) are skipped,
/// not re-applied: replay is idempotent.
#[test]
fn duplicate_records_are_skipped_idempotently() {
    let dir = temp_dir("dup-follower");
    let reference_dir = temp_dir("dup-reference");

    // Build the canonical three updates on a reference store and lift
    // its WAL payloads + bootstrap snapshot through a real source.
    let reference = Arc::new(RwLock::new(
        Store::create(&reference_dir, fresh_engine(&base_sets()), nosync()).unwrap(),
    ));
    let source = StoreSource::install(Arc::clone(&reference));
    let updates = vec![
        Update::Append(vec![vec!["chaos marker 7".into()]]),
        Update::Append(vec![vec!["w1 shared2".into()]]),
        Update::Remove(vec![2]),
    ];
    for u in updates {
        reference.write().unwrap().apply(u).unwrap();
    }
    use silkmoth_replica::ReplicationSource;
    let (snapshot, snap_seq, snap_epoch) = {
        // Snapshot of the *initial* state is gone (the store moved on),
        // so bootstrap from the live state minus the tail we replay:
        // instead, bootstrap with the full snapshot and replay records
        // 1..=3 *again* — every one must be skipped.
        source.snapshot().unwrap()
    };
    let payloads = source.records_after(0, 10).unwrap().unwrap();
    assert_eq!(payloads.len(), 3);

    let mut frames = vec![Frame::Snapshot {
        epoch: snap_epoch,
        seq: snap_seq,
        snapshot,
    }];
    for (i, p) in payloads.iter().enumerate() {
        frames.push(Frame::Record {
            seq: i as u64 + 1,
            payload: p.clone(),
        });
    }

    let shared = Arc::new(FollowerShared::new());
    let connector = ScriptConnector {
        frames,
        committed: snap_seq,
        served: false,
        thread: None,
    };
    let sink = StoreSink::new(
        Store::create(&dir, fresh_engine(&[]), nosync()).unwrap(),
        cfg(),
        nosync(),
    );
    let follower = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while shared.status().skipped < 3 {
        assert!(
            Instant::now() < deadline,
            "follower never skipped: {:?}",
            shared.status()
        );
        thread::sleep(Duration::from_millis(2));
    }
    shared.stop();
    let sink = follower.join().unwrap();
    let status = shared.status();
    assert_eq!(status.skipped, 3, "all re-sent records skipped");
    assert_eq!(status.bootstraps, 1);
    assert_eq!(sink.applied_seq(), 3);
    assert_byte_identical(
        sink.store().engine(),
        reference.read().unwrap().engine(),
        "after duplicate replay",
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// A promotion elsewhere (epoch bump) invalidates a same-seq cursor:
/// the reconnecting follower must be re-bootstrapped, not resumed, and
/// must converge on the promoted history.
#[test]
fn epoch_change_forces_rebootstrap() {
    let primary_dir = temp_dir("epoch-primary");
    let follower_dir = temp_dir("epoch-follower");
    let primary = Arc::new(RwLock::new(
        Store::create(&primary_dir, fresh_engine(&base_sets()), nosync()).unwrap(),
    ));
    let source = Arc::new(StoreSource::install(Arc::clone(&primary)));
    for i in 0..5 {
        primary
            .write()
            .unwrap()
            .apply(Update::Append(vec![vec![format!("epoch test {i}")]]))
            .unwrap();
    }

    // Catch a follower up over the clean simulated transport.
    let run_until_caught_up = |sink: StoreSink<Engine>, target: u64| -> (StoreSink<Engine>, u64) {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(FollowerShared::new());
        let connector = ChaosConnector {
            source: Arc::clone(&source),
            stop: Arc::clone(&stop),
            rng: StdRng::seed_from_u64(0), // faults are fine; the loop retries to convergence
            streamer_cfg: fast_streamer_cfg(),
            threads: Vec::new(),
        };
        let follower = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while shared.status().applied_seq != target {
            assert!(Instant::now() < deadline, "stuck: {:?}", shared.status());
            thread::sleep(Duration::from_millis(2));
        }
        shared.stop();
        let sink = follower.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        (sink, shared.status().bootstraps)
    };

    let sink = StoreSink::new(
        Store::create(&follower_dir, fresh_engine(&[]), nosync()).unwrap(),
        cfg(),
        nosync(),
    );
    let (sink, _) = run_until_caught_up(sink, 5);
    assert_eq!(sink.epoch(), 0);
    assert_eq!(sink.applied_seq(), 5);

    // Failover happens on the primary: epoch bumps, history continues.
    {
        let mut guard = primary.write().unwrap();
        assert_eq!(guard.bump_epoch().unwrap(), 1);
        guard
            .apply(Update::Append(vec![vec!["post failover set".into()]]))
            .unwrap();
    }

    // The follower's (epoch 0, seq 5) cursor must not be resumed.
    let (sink, bootstraps) = run_until_caught_up(sink, 6);
    assert!(
        bootstraps >= 1,
        "stale-epoch cursor must be re-bootstrapped"
    );
    assert_eq!(sink.epoch(), 1);
    assert_byte_identical(
        sink.store().engine(),
        primary.read().unwrap().engine(),
        "after failover",
    );
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// End-to-end over real TCP: [`serve_log`] + [`TcpConnector`], live
/// tailing of appends committed after the follower connected, and the
/// follower-count gauge.
#[test]
fn tcp_serve_log_tails_live_commits() {
    let primary_dir = temp_dir("tcp-primary");
    let follower_dir = temp_dir("tcp-follower");
    let primary = Arc::new(RwLock::new(
        Store::create(&primary_dir, fresh_engine(&base_sets()), nosync()).unwrap(),
    ));
    let source = Arc::new(StoreSource::install(Arc::clone(&primary)));
    let mut server = serve_log(source, "127.0.0.1:0", fast_streamer_cfg()).unwrap();

    let shared = Arc::new(FollowerShared::new());
    let connector = TcpConnector {
        addr: server.local_addr().to_string(),
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        shared: Some(Arc::clone(&shared)),
    };
    let sink = StoreSink::new(
        Store::create(&follower_dir, fresh_engine(&[]), nosync()).unwrap(),
        cfg(),
        nosync(),
    );
    let follower = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
    };

    // Commits made while the follower is already tailing.
    for i in 0..10 {
        primary
            .write()
            .unwrap()
            .apply(Update::Append(vec![vec![format!("tcp live {i}")]]))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while shared.status().applied_seq != 10 {
        assert!(Instant::now() < deadline, "stuck: {:?}", shared.status());
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.follower_count(), 1);
    shared.stop();
    let sink = follower.join().unwrap();
    assert_byte_identical(
        sink.store().engine(),
        primary.read().unwrap().engine(),
        "tcp tail",
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// A faultless connector over the simulated transport: every connect
/// succeeds and streams cleanly, so any bootstrap the follower takes
/// is forced by the source, never by transport damage.
struct CleanConnector {
    source: Arc<StoreSource<Engine>>,
    stop: Arc<AtomicBool>,
    streamer_cfg: StreamerConfig,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Connector for CleanConnector {
    type Io = SimStream;

    fn connect(&mut self) -> std::io::Result<SimStream> {
        let (follower_io, mut primary_io) = sim_duplex(
            FaultPlan::default(),
            FaultPlan::default(),
            Duration::from_millis(500),
        );
        let source = Arc::clone(&self.source);
        let stop = Arc::clone(&self.stop);
        let cfg = self.streamer_cfg;
        self.threads.push(thread::spawn(move || {
            let _ = stream_updates(source.as_ref(), &mut primary_io, &stop, &cfg, None);
        }));
        Ok(follower_io)
    }
}

/// A follower whose cursor sits inside **sealed, retained WAL
/// segments** — including old-generation segments that survived a
/// snapshot rotation thanks to the retention floor — must resume from
/// records alone. Re-bootstrapping from a full snapshot here would
/// mean segment retention is not load-bearing for read scale-out.
#[test]
fn resume_inside_retained_segments_never_bootstraps() {
    let primary_dir = temp_dir("retain-primary");
    let follower_dir = temp_dir("retain-follower");
    let store_cfg = StoreConfig {
        sync: false,
        // Tiny segments: every record seals one, so the cursor always
        // points inside a sealed segment.
        policy: CompactionPolicy::DISABLED.segment_at_wal_bytes(64),
    };
    let mut store = Store::create(&primary_dir, fresh_engine(&base_sets()), store_cfg).unwrap();
    // The floor a replication cursor parked at seq 3 would publish.
    store.set_retention_hook(RetentionHook::new(|| 3));
    let primary = Arc::new(RwLock::new(store));
    let source = Arc::new(StoreSource::install(Arc::clone(&primary)));
    for i in 0..3 {
        primary
            .write()
            .unwrap()
            .apply(Update::Append(vec![vec![format!("pre rotation {i}")]]))
            .unwrap();
    }

    let run_until_caught_up = |sink: StoreSink<Engine>, target: u64| -> (StoreSink<Engine>, u64) {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(FollowerShared::new());
        let connector = CleanConnector {
            source: Arc::clone(&source),
            stop: Arc::clone(&stop),
            streamer_cfg: fast_streamer_cfg(),
            threads: Vec::new(),
        };
        let follower = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while shared.status().applied_seq != target {
            assert!(Instant::now() < deadline, "stuck: {:?}", shared.status());
            thread::sleep(Duration::from_millis(2));
        }
        shared.stop();
        let sink = follower.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        (sink, shared.status().bootstraps)
    };

    let sink = StoreSink::new(
        Store::create(&follower_dir, fresh_engine(&[]), nosync()).unwrap(),
        cfg(),
        nosync(),
    );
    let (sink, _) = run_until_caught_up(sink, 3);
    assert_eq!(sink.applied_seq(), 3);

    // Records 4 and 5 land in sealed generation-0 segments, then a
    // rotation moves the primary on — the floor (3) must keep every
    // old segment still holding unconsumed records.
    {
        let mut guard = primary.write().unwrap();
        for i in 3..5 {
            guard
                .apply(Update::Append(vec![vec![format!("sealed segment {i}")]]))
                .unwrap();
        }
        guard.snapshot().unwrap();
        for i in 5..7 {
            guard
                .apply(Update::Append(vec![vec![format!("post rotation {i}")]]))
                .unwrap();
        }
    }
    let old_segments = std::fs::read_dir(&primary_dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-0-"))
        .count();
    assert!(
        old_segments > 0,
        "the retention floor must keep generation-0 segments across the rotation"
    );

    let (sink, bootstraps) = run_until_caught_up(sink, 7);
    assert_eq!(
        bootstraps, 0,
        "a cursor inside retained segments resumes from records, never a snapshot"
    );
    assert_eq!(sink.applied_seq(), 7);
    assert_byte_identical(
        sink.store().engine(),
        primary.read().unwrap().engine(),
        "after retained-segment resume",
    );
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
