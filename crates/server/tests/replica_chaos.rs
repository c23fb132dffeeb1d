//! Seeded chaos harness for replication between the two halves the
//! server ships. A durable primary [`SearchService`] takes a random
//! committed workload over its own routes (appends, removes,
//! compactions, snapshot rotations) and streams it to followers with
//! [`stream_updates`]; a follower service tails it through
//! [`ServiceSink`] under [`run_follower`], over the deterministic
//! fault-injecting transport from [`sim_duplex`] — connections refused,
//! cut mid-record, bytes flipped in transit. The follower must converge
//! to a state **byte-identical** to the primary (zero acked-write
//! loss), surviving every disconnect by resuming from its cursor or
//! re-bootstrapping from a snapshot, which the streamer cuts through
//! the service's quiesced store accessor.
//!
//! Also pinned here, scripted rather than randomized: idempotent skip
//! of re-sent records, forced bootstrap on an epoch change (failover),
//! live tailing over real TCP ([`serve_log`]), a resume from retained
//! WAL segments that takes no bootstrap at all, and the same resume
//! through a primary wired by [`serve_log`] alone.

mod sim;

use rand::{rngs::StdRng, Rng, SeedableRng};
use silkmoth_core::{CompactionPolicy, EngineConfig, QuerySpec, RelatednessMetric};
use silkmoth_server::json::obj;
use silkmoth_server::replication::{
    run_follower, serve_log, stream_updates, write_frame, Connector, FollowerConfig,
    FollowerShared, FollowerStatus, Frame, StreamerConfig, TcpConnector,
};
use silkmoth_server::{
    bootstrap_snapshot, follower_store_config, Json, Request, SearchService, ServiceSink,
    ShardSpec, ShardedEngine,
};
use silkmoth_storage::{
    snapshot_bytes, RetentionHook, SnapshotMeta, Store, StoreConfig, StoreEngine,
};
use silkmoth_text::SimilarityFunction;
use sim::{sim_duplex, FaultPlan, SimStream};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

fn cfg() -> EngineConfig {
    EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Jaccard,
        0.5,
        0.0,
    )
}

fn spec() -> ShardSpec {
    ShardSpec {
        cfg: cfg(),
        shards: SHARDS,
    }
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

/// A durable primary over a fresh store built from [`base_sets`].
fn primary_service(dir: &Path, store_cfg: StoreConfig) -> Arc<SearchService> {
    let engine = ShardedEngine::build(&base_sets(), cfg(), SHARDS).unwrap();
    Arc::new(SearchService::durable(
        Store::create(dir, engine, store_cfg).unwrap(),
    ))
}

/// A durable follower over an **empty** store, and the sink that feeds
/// it — everything it ever holds must come through the stream.
fn follower_service(dir: &Path) -> (Arc<SearchService>, ServiceSink) {
    let engine = ShardedEngine::build(&Vec::<Vec<String>>::new(), cfg(), SHARDS).unwrap();
    let store_cfg = follower_store_config(nosync());
    let service = Arc::new(SearchService::durable(
        Store::create(dir, engine, store_cfg).unwrap(),
    ));
    let sink = ServiceSink::new(Arc::clone(&service), spec(), store_cfg);
    (service, sink)
}

/// Sends one request through the service's routes; it must succeed.
fn send(service: &SearchService, method: &str, path: &str, body: &str) -> Json {
    let resp = service.handle(&Request::new(method, path, body.as_bytes().to_vec()));
    let body = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 200, "{method} {path}: {body}");
    Json::parse(&body).unwrap()
}

/// How many updates `service` has committed, as `/healthz` reports it.
fn committed(service: &SearchService) -> u64 {
    let health = send(service, "GET", "/healthz", "");
    health.get("update_seq").and_then(Json::as_usize).unwrap() as u64
}

fn append(service: &SearchService, sets: &[Vec<String>]) {
    let set = |s: &Vec<String>| Json::Arr(s.iter().cloned().map(Json::Str).collect());
    let body = obj(vec![("sets", Json::Arr(sets.iter().map(set).collect()))]);
    send(service, "POST", "/sets", &body.to_string());
}

fn remove(service: &SearchService, ids: &[u32]) {
    let ids = ids.iter().map(|&id| Json::Num(f64::from(id))).collect();
    send(
        service,
        "DELETE",
        "/sets",
        &obj(vec![("ids", Json::Arr(ids))]).to_string(),
    );
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

/// Byte-identical check: same serialized state under the same meta, and
/// bit-equal search output for a few probes.
fn assert_byte_identical(got: &SearchService, want: &SearchService, what: &str) {
    let (got, want) = (got.engine(), want.engine());
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
            search_bits(&got, &probe),
            search_bits(&want, &probe),
            "{what}: search {probe:?}"
        );
    }
}

/// One random committed update against the primary, through its
/// routes. Ids are taken from a capture so removals always name live
/// sets.
fn random_update(rng: &mut StdRng, primary: &SearchService) {
    let roll: u32 = rng.random_range(0..10u32);
    let live: Vec<u32> = primary
        .engine()
        .capture()
        .live
        .iter()
        .map(|(id, _)| *id)
        .collect();
    if roll < 6 || live.len() < 3 {
        let n = rng.random_range(1..3usize);
        let sets: Vec<Vec<String>> = (0..n)
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
            .collect();
        append(primary, &sets);
    } else if roll < 9 {
        let k = rng.random_range(1..3usize).min(live.len());
        let mut ids: Vec<u32> = (0..k)
            .map(|_| live[rng.random_range(0..live.len())])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        remove(primary, &ids);
    } else {
        send(primary, "POST", "/compact", "");
    }
}

/// A follower connector over the simulated transport; the primary side
/// of every pipe runs a real [`stream_updates`] session over `primary`
/// in a thread of `streamers`. With an `rng`, each connect may be
/// refused and each accepted connection gets a seeded fault plan on the
/// primary→follower direction (cuts mid-record, byte flips). Without
/// one, every connect succeeds and streams cleanly, so any bootstrap
/// the follower takes is forced by the primary, never by transport
/// damage.
struct SimConnector {
    primary: Arc<SearchService>,
    rng: Option<StdRng>,
    streamers: Arc<Streamers>,
}

/// The primary-side sessions one connector started, stopped and joined
/// together.
#[derive(Default)]
struct Streamers {
    stop: AtomicBool,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Streamers {
    fn stop_and_join(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for streamer in std::mem::take(&mut *self.threads.lock().unwrap()) {
            streamer.join().unwrap();
        }
    }
}

impl SimConnector {
    fn new(primary: &Arc<SearchService>, rng: Option<StdRng>) -> Self {
        Self {
            primary: Arc::clone(primary),
            rng,
            streamers: Arc::default(),
        }
    }
}

impl Connector for SimConnector {
    type Io = SimStream;

    fn connect(&mut self) -> std::io::Result<SimStream> {
        let mut primary_faults = FaultPlan::default();
        if let Some(rng) = &mut self.rng {
            if rng.random_range(0..8u32) == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "simulated refusal",
                ));
            }
            if rng.random_range(0..3u32) < 2 {
                primary_faults.cut_after = Some(rng.random_range(30..6000u64));
            }
            if rng.random_range(0..4u32) == 0 {
                primary_faults.flip = Some((rng.random_range(0..3000u64), 0xA5));
            }
        }
        let (follower_io, mut primary_io) = sim_duplex(
            FaultPlan::default(),
            primary_faults,
            Duration::from_millis(500),
        );
        let primary = Arc::clone(&self.primary);
        let streamers = Arc::clone(&self.streamers);
        let session = thread::spawn(move || {
            let cfg = fast_streamer_cfg();
            let _ = stream_updates(&primary, &mut primary_io, &streamers.stop, &cfg);
        });
        self.streamers.threads.lock().unwrap().push(session);
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

/// A follower loop tailing over a [`SimConnector`] (or real TCP) on its
/// own thread.
struct Tail {
    shared: Arc<FollowerShared>,
    follower: thread::JoinHandle<ServiceSink>,
    streamers: Arc<Streamers>,
}

impl Tail {
    fn start(connector: SimConnector, sink: ServiceSink) -> Self {
        let streamers = Arc::clone(&connector.streamers);
        Self::spawn(connector, sink, Arc::new(FollowerShared::new()), streamers)
    }

    /// Tails the [`serve_log`] listener at `addr` over real TCP.
    fn tcp(addr: &str, sink: ServiceSink) -> Self {
        let shared = Arc::new(FollowerShared::new());
        let connector = TcpConnector {
            addr: addr.to_string(),
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            shared: Some(Arc::clone(&shared)),
        };
        Self::spawn(connector, sink, shared, Arc::default())
    }

    fn spawn(
        connector: impl Connector + 'static,
        sink: ServiceSink,
        shared: Arc<FollowerShared>,
        streamers: Arc<Streamers>,
    ) -> Self {
        let follower = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
        };
        Self {
            shared,
            follower,
            streamers,
        }
    }

    /// Waits until the follower's status satisfies `done`.
    fn wait_until(&self, what: &str, done: impl Fn(&FollowerStatus) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done(&self.shared.status()) {
            assert!(
                Instant::now() < deadline,
                "{what}: follower stuck (status {:?})",
                self.shared.status()
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the loop and joins the streamers behind it. Hands back the
    /// sink and how many snapshot bootstraps the run took.
    fn stop(self) -> (ServiceSink, u64) {
        self.shared.stop();
        let sink = self.follower.join().unwrap();
        self.streamers.stop_and_join();
        (sink, self.shared.status().bootstraps)
    }

    /// Waits until the follower has applied `target` records, then
    /// [`stop`](Self::stop)s it.
    fn finish_at(self, target: u64, what: &str) -> (ServiceSink, u64) {
        self.wait_until(what, |status| status.applied_seq == target);
        let (sink, bootstraps) = self.stop();
        assert_eq!(sink.applied_seq(), target, "{what}: lost acked writes");
        (sink, bootstraps)
    }
}

#[test]
fn follower_converges_byte_identically_under_chaos() {
    for seed in [11u64, 29, 47] {
        let primary_dir = temp_dir(&format!("chaos-primary-{seed}"));
        let follower_dir = temp_dir(&format!("chaos-follower-{seed}"));
        let primary = primary_service(&primary_dir, nosync());
        let (follower, sink) = follower_service(&follower_dir);
        let rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let tail = Tail::start(SimConnector::new(&primary, Some(rng)), sink);

        // Drive a random committed workload while the follower tails,
        // rotating the snapshot every 20 updates so a lagging
        // follower's cursor falls off the retained WAL and the bootstrap
        // path gets exercised.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..80 {
            random_update(&mut rng, &primary);
            if i % 20 == 19 {
                send(&primary, "POST", "/snapshot", "");
            }
            if i % 7 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        // Every update above was acknowledged, so every one must reach
        // the follower.
        tail.finish_at(committed(&primary), &format!("seed {seed}"));
        assert_byte_identical(&follower, &primary, &format!("seed {seed} after chaos"));
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
        thread::spawn(move || {
            let mut hello = [0u8; 28];
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
        });
        Ok(follower_io)
    }
}

/// Re-sent records (duplicate seqs after a retransmission) are skipped,
/// not re-applied: replay is idempotent.
#[test]
fn duplicate_records_are_skipped_idempotently() {
    let dir = temp_dir("dup-follower");
    let reference_dir = temp_dir("dup-reference");

    // Commit three updates on a reference primary and lift its WAL
    // payloads and its bootstrap cut: the follower bootstraps from the
    // full snapshot, then is sent records 1..=3 *again* — every one
    // must be skipped.
    let reference = primary_service(&reference_dir, nosync());
    append(&reference, &[vec!["chaos marker 7".into()]]);
    append(&reference, &[vec!["w1 shared2".into()]]);
    remove(&reference, &[2]);
    let (snapshot, snap_seq, snap_epoch) = bootstrap_snapshot(&reference).unwrap();
    let payloads = reference
        .retained_log()
        .unwrap()
        .records_after(0, 10)
        .unwrap()
        .unwrap();
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
    };
    let (follower, sink) = follower_service(&dir);
    let tail = {
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
    let sink = tail.join().unwrap();
    let status = shared.status();
    assert_eq!(status.skipped, 3, "all re-sent records skipped");
    assert_eq!(status.bootstraps, 1);
    assert_eq!(sink.applied_seq(), 3);
    assert_byte_identical(&follower, &reference, "after duplicate replay");
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
    let primary = primary_service(&primary_dir, nosync());
    for i in 0..5 {
        append(&primary, &[vec![format!("epoch test {i}")]]);
    }

    // Catch a follower up; the transport's faults are fine, the loop
    // retries to convergence.
    let (follower, sink) = follower_service(&follower_dir);
    let connector = SimConnector::new(&primary, Some(StdRng::seed_from_u64(0)));
    let (sink, _) = Tail::start(connector, sink).finish_at(5, "epoch 0");
    assert_eq!(sink.epoch(), 0);

    // Failover: the primary restarts from its data dir with its epoch
    // bumped (a store-level step no route exposes) and continues the
    // history. Its streamers are joined, so nothing else holds it.
    drop(Arc::into_inner(primary).expect("the primary has one owner left"));
    let (mut store, _) = Store::<ShardedEngine>::open(&primary_dir, &spec(), nosync()).unwrap();
    assert_eq!(store.bump_epoch().unwrap(), 1);
    let primary = Arc::new(SearchService::durable(store));
    append(&primary, &[vec!["post failover set".into()]]);

    // The follower's (epoch 0, seq 5) cursor must not be resumed.
    let connector = SimConnector::new(&primary, Some(StdRng::seed_from_u64(0)));
    let (sink, bootstraps) = Tail::start(connector, sink).finish_at(6, "epoch 1");
    assert!(
        bootstraps >= 1,
        "stale-epoch cursor must be re-bootstrapped"
    );
    assert_eq!(sink.epoch(), 1);
    assert_byte_identical(&follower, &primary, "after failover");
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
    let primary = primary_service(&primary_dir, nosync());
    let mut server = serve_log(Arc::clone(&primary), "127.0.0.1:0", fast_streamer_cfg()).unwrap();

    let shared = Arc::new(FollowerShared::new());
    let connector = TcpConnector {
        addr: server.local_addr().to_string(),
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        shared: Some(Arc::clone(&shared)),
    };
    let (follower, sink) = follower_service(&follower_dir);
    let tail = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || run_follower(connector, sink, &shared, &fast_follower_cfg()))
    };

    // Commits made while the follower is already tailing.
    for i in 0..10 {
        append(&primary, &[vec![format!("tcp live {i}")]]);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while shared.status().applied_seq != 10 {
        assert!(Instant::now() < deadline, "stuck: {:?}", shared.status());
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.follower_count(), 1);
    shared.stop();
    tail.join().unwrap();
    assert_byte_identical(&follower, &primary, "tcp tail");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
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
    let primary = primary_service(&primary_dir, store_cfg);
    // The floor a replication cursor parked at seq 3 would publish.
    primary.set_wal_retention(RetentionHook::new(|| 3));
    for i in 0..3 {
        append(&primary, &[vec![format!("pre rotation {i}")]]);
    }

    let (follower, sink) = follower_service(&follower_dir);
    let (sink, _) = Tail::start(SimConnector::new(&primary, None), sink).finish_at(3, "first");

    // Records 4 and 5 land in sealed generation-0 segments, then a
    // rotation moves the primary on — the floor (3) must keep every
    // old segment still holding unconsumed records.
    for i in 3..5 {
        append(&primary, &[vec![format!("sealed segment {i}")]]);
    }
    send(&primary, "POST", "/snapshot", "");
    for i in 5..7 {
        append(&primary, &[vec![format!("post rotation {i}")]]);
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

    let (_, bootstraps) =
        Tail::start(SimConnector::new(&primary, None), sink).finish_at(7, "resume");
    assert_eq!(
        bootstraps, 0,
        "a cursor inside retained segments resumes from records, never a snapshot"
    );
    assert_byte_identical(&follower, &primary, "after retained-segment resume");
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// [`serve_log`] on its own does what a caller used to wire by hand: it
/// reports its followers on `/stats` and installs the WAL retention
/// floor. A follower that left at seq 3 reconnects into a backlog larger
/// than loopback socket buffers hold and stalls applying it, so the
/// primary's cursor for it stays at 3 while a snapshot rotates the WAL
/// and more appends land. The follower then disconnects, resumes from
/// the retained records alone, and ends byte-identical. Without the
/// floor the rotation retires the records it lacks and the resume takes
/// a bootstrap.
#[test]
fn serve_log_alone_keeps_the_log_a_stalled_follower_resumes_from() {
    let primary_dir = temp_dir("wired-primary");
    let follower_dir = temp_dir("wired-follower");
    let store_cfg = StoreConfig {
        sync: false,
        policy: CompactionPolicy::DISABLED,
    };
    let primary = primary_service(&primary_dir, store_cfg);
    let mut log = serve_log(Arc::clone(&primary), "127.0.0.1:0", fast_streamer_cfg()).unwrap();
    let addr = log.local_addr().to_string();
    for i in 0..3 {
        append(&primary, &[vec![format!("before the stall {i}")]]);
    }
    let (follower, sink) = follower_service(&follower_dir);
    let tail = Tail::tcp(&addr, sink);
    tail.wait_until("first", |status| status.applied_seq == 3);
    let stats = send(&primary, "GET", "/stats", "");
    let followers = stats.get("replication").and_then(|r| r.get("followers"));
    assert_eq!(followers.and_then(Json::as_usize), Some(1), "{stats}");
    let (sink, _) = tail.stop();

    // Records 4..=6; the last two carry 6 MiB each.
    append(&primary, &[vec!["stall marker".into()]]);
    for big in ["y", "z"] {
        append(&primary, &[vec![big.repeat(6 << 20)]]);
    }
    // With its engine read-locked the follower takes the heartbeat, then
    // blocks applying record 4; the primary's streamer blocks writing
    // the batch 4..=6, its cursor still at 3.
    let frozen = follower.engine();
    let tail = Tail::tcp(&addr, sink);
    tail.wait_until("reconnect", |status| status.primary_seq == 6);
    send(&primary, "POST", "/snapshot", "");
    for i in 0..2 {
        append(&primary, &[vec![format!("after the rotation {i}")]]);
    }
    tail.shared.stop();
    drop(frozen);
    let (sink, _) = tail.stop();

    let (_, bootstraps) = Tail::tcp(&addr, sink).finish_at(8, "resume");
    assert_eq!(
        bootstraps, 0,
        "the records the follower lacks outlive the rotation"
    );
    assert_byte_identical(&follower, &primary, "after the stalled follower resumed");
    log.shutdown();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
