//! Differential crash-recovery harness — the durable counterpart of
//! `tests/update_equivalence.rs`.
//!
//! For random interleavings of appends, removals, compactions, forced
//! snapshots, and **crashes** (drop the [`Store`] mid-sequence, reopen
//! from disk), the recovered engine must be **byte-identical** — same
//! ids, same tie order, bit-for-bit equal scores — to an in-memory
//! engine that applied the same committed updates, and hence to an
//! engine freshly built from the surviving sets. Checked
//! simultaneously for `Store<ShardedEngine>` at shard counts {1, 2, 7}
//! (stable global ids).
//!
//! The WAL replay step is proven load-bearing at every crash: whenever
//! the WAL holds records, a snapshot-only restore (replay skipped) must
//! **differ** from the in-memory mirror — so deleting the replay logic
//! fails this harness, and `wal_robustness.rs` pins the CRC check the
//! same way.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_collection::{Collection, SetIdx};
use silkmoth_core::{
    brute, CompactionPolicy, Engine, EngineConfig, QuerySpec, RelatednessMetric, Update,
};
use silkmoth_server::{ShardSpec, ShardedEngine};
use silkmoth_storage::{load_snapshot, Store, StoreConfig, StoreEngine};
use silkmoth_text::SimilarityFunction;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn cfg(rng: &mut StdRng) -> EngineConfig {
    let metric = if rng.random::<bool>() {
        RelatednessMetric::Similarity
    } else {
        RelatednessMetric::Containment
    };
    let delta = [0.4, 0.6, 0.8][rng.random_range(0..3usize)];
    EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0)
}

fn gen_element(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=3usize);
    (0..n)
        .map(|_| {
            if rng.random::<bool>() {
                format!("w{}", rng.random_range(0..10u32))
            } else {
                format!("shared{}", rng.random_range(0..4u32))
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn gen_set(rng: &mut StdRng) -> Vec<String> {
    let n = rng.random_range(1..=3usize);
    (0..n).map(|_| gen_element(rng)).collect()
}

fn temp_dir(seed: u64, flavor: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "silkmoth-recovery-eq-{}-{seed:x}-{flavor}",
        std::process::id()
    ))
}

/// One durable sharded flavor: the store on disk plus its in-memory
/// mirror that applies the same updates without ever touching disk.
struct ShardedFlavor {
    dir: PathBuf,
    spec: ShardSpec,
    store: Option<Store<ShardedEngine>>,
    mirror: ShardedEngine,
}

struct Harness {
    cfg: EngineConfig,
    /// gid → live raw set (`None` = removed); gids are the sharded
    /// engines' stable global ids.
    slots: Vec<Option<Vec<String>>>,
    sharded: Vec<ShardedFlavor>,
}

/// Stores run with a disabled policy here: the harness forces explicit
/// compactions/snapshots so the in-memory mirrors stay in lockstep
/// (policy-triggered actions are pinned by the storage crate's tests).
/// Segment sealing stays ON with a tiny threshold — it is
/// state-neutral, so every crash/recovery in the harness also proves
/// multi-segment stitching and the parallel replay path byte-identical.
fn store_cfg() -> StoreConfig {
    StoreConfig {
        policy: CompactionPolicy::DISABLED.segment_at_wal_bytes(96),
        ..StoreConfig::default()
    }
}

impl Harness {
    fn new(rng: &mut StdRng, seed: u64) -> Self {
        let cfg = cfg(rng);
        let n = rng.random_range(6..=12usize);
        let base: Vec<Vec<String>> = (0..n).map(|_| gen_set(rng)).collect();
        let sharded = SHARD_COUNTS
            .iter()
            .map(|&shards| {
                let dir = temp_dir(seed, &format!("s{shards}"));
                let _ = std::fs::remove_dir_all(&dir);
                let engine = ShardedEngine::build(&base, cfg, shards).expect("valid config");
                let mirror = ShardedEngine::build(&base, cfg, shards).expect("valid config");
                let store = Store::create(&dir, engine, store_cfg()).expect("create store");
                ShardedFlavor {
                    dir,
                    spec: ShardSpec { cfg, shards },
                    store: Some(store),
                    mirror,
                }
            })
            .collect();
        Self {
            cfg,
            slots: base.into_iter().map(Some).collect(),
            sharded,
        }
    }

    fn cleanup(&self) {
        for flavor in &self.sharded {
            let _ = std::fs::remove_dir_all(&flavor.dir);
        }
    }

    fn live_gids(&self) -> Vec<SetIdx> {
        (0..self.slots.len() as SetIdx)
            .filter(|&g| self.slots[g as usize].is_some())
            .collect()
    }

    fn apply_everywhere(&mut self, update: &Update) {
        for flavor in &mut self.sharded {
            let store = flavor.store.as_mut().expect("store is open");
            let got = store.apply(update.clone()).expect("durable apply").0;
            let want = flavor.mirror.apply(update.clone()).expect("mirror apply");
            assert_eq!(got, want, "store and mirror outcomes agree");
        }
    }

    fn append(&mut self, sets: Vec<Vec<String>>) {
        self.apply_everywhere(&Update::Append(sets.clone()));
        self.slots.extend(sets.into_iter().map(Some));
    }

    fn remove(&mut self, gids: Vec<SetIdx>) {
        self.apply_everywhere(&Update::Remove(gids.clone()));
        for g in gids {
            self.slots[g as usize] = None;
        }
    }

    fn compact(&mut self) {
        self.apply_everywhere(&Update::Compact);
    }

    fn force_snapshot(&mut self) {
        for flavor in &mut self.sharded {
            flavor
                .store
                .as_mut()
                .expect("store is open")
                .snapshot()
                .expect("snapshot");
        }
    }

    /// The crash: drop every store (while the process keeps its
    /// in-memory mirrors as the ground truth), reopen from disk, and
    /// demand the recovered engines be byte-identical to the mirrors.
    ///
    /// With `expect_replay_matters` (used after an append that the WAL
    /// alone holds), additionally proves the replay step is
    /// load-bearing: a snapshot-only restore must NOT reproduce the
    /// mirror — so deleting WAL replay fails this harness.
    fn crash_and_recover(&mut self, expect_replay_matters: bool) {
        for flavor in &mut self.sharded {
            let store = flavor.store.take().expect("store is open");
            let wal_records = store.status().wal_records;
            let snapshot_seq = store.status().snapshot_seq;
            drop(store); // crash

            if expect_replay_matters {
                assert!(wal_records > 0, "the detector append was WAL-logged");
                let (_, snap_state) =
                    load_snapshot(&flavor.dir.join(format!("snapshot-{snapshot_seq}.smc")))
                        .expect("snapshot loads");
                let snapshot_only =
                    <ShardedEngine as StoreEngine>::restore(&flavor.spec, snap_state)
                        .expect("snapshot restores");
                assert_ne!(
                    StoreEngine::capture(&snapshot_only),
                    StoreEngine::capture(&flavor.mirror),
                    "with {wal_records} WAL records the replay must be load-bearing"
                );
            }

            let (store, report) =
                Store::open(&flavor.dir, &flavor.spec, store_cfg()).expect("recovery");
            assert_eq!(report.wal_replayed, wal_records, "every committed record");
            assert_eq!(report.wal_discarded, None, "clean shutdowns have no tail");
            assert_eq!(
                StoreEngine::capture(store.engine()),
                StoreEngine::capture(&flavor.mirror),
                "recovered state == in-memory state ({} shards)",
                flavor.spec.shards
            );
            flavor.store = Some(store);
        }
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

    /// One query on every durable flavor, asserted byte-identical to
    /// the fresh rebuild (and hence to the mirrors, which
    /// `update_equivalence.rs` already pins to fresh rebuilds).
    fn check_query(&self, elems: &[String], k: Option<usize>, floor: Option<f64>) {
        let (fresh, gids) = self.fresh();
        let mut spec = QuerySpec::new(elems.to_vec());
        if let Some(k) = k {
            spec = spec.with_top_k(k);
        }
        if let Some(f) = floor {
            spec = spec.with_floor(f).unwrap();
        }
        let want: Vec<(SetIdx, u64)> = fresh
            .execute(&spec)
            .hits
            .into_iter()
            .map(|(fid, score)| (gids[fid as usize], score.to_bits()))
            .collect();

        for flavor in &self.sharded {
            let engine = flavor.store.as_ref().expect("store is open").engine();
            let got: Vec<(SetIdx, u64)> = engine
                .execute(&spec)
                .hits
                .into_iter()
                .map(|(gid, score)| (gid, score.to_bits()))
                .collect();
            assert_eq!(
                got, want,
                "durable sharded({}) vs fresh rebuild, k={k:?} floor={floor:?}",
                flavor.spec.shards
            );
        }
    }

    /// Batched discovery — one spec per reference — across the sharded
    /// flavors vs brute force over the rebuild.
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
        for flavor in &self.sharded {
            let engine = flavor.store.as_ref().expect("store is open").engine();
            let got: Vec<(u32, SetIdx, u64)> = engine
                .execute_batch(&specs)
                .into_iter()
                .enumerate()
                .flat_map(|(r, out)| {
                    let hits = out.hits.into_iter();
                    hits.map(move |(gid, score)| (r as u32, gid, score.to_bits()))
                })
                .collect();
            assert_eq!(
                got, want,
                "durable sharded({}) discover vs fresh rebuild",
                flavor.spec.shards
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The acceptance property: random op interleavings with crashes —
    // every recovered engine byte-identical to the in-memory engine
    // that applied the same committed updates, across shard counts
    // {1, 2, 7}.
    #[test]
    fn any_crash_recovery_is_byte_identical_to_the_surviving_engine(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut h = Harness::new(rng, seed);
        for _ in 0..10 {
            match rng.random_range(0..100u32) {
                0..=24 => {
                    let n = rng.random_range(1..=2usize);
                    h.append((0..n).map(|_| gen_set(rng)).collect());
                }
                25..=44 => {
                    let live = h.live_gids();
                    if live.is_empty() {
                        continue;
                    }
                    let n = rng.random_range(1..=2usize).min(live.len());
                    let mut gids: Vec<SetIdx> = (0..n)
                        .map(|_| live[rng.random_range(0..live.len())])
                        .collect();
                    gids.dedup();
                    h.remove(gids);
                }
                45..=54 => h.compact(),
                55..=64 => h.force_snapshot(),
                65..=84 => h.crash_and_recover(false),
                _ => {
                    let elems = match h.live_gids().as_slice() {
                        live if !live.is_empty() && rng.random::<bool>() => {
                            let g = live[rng.random_range(0..live.len())];
                            h.slots[g as usize].clone().unwrap()
                        }
                        _ => gen_set(rng),
                    };
                    let k = [None, Some(1), Some(3)][rng.random_range(0..3usize)];
                    let floor = [None, Some(0.0), Some(0.3)][rng.random_range(0..3usize)];
                    h.check_query(&elems, k, floor);
                }
            }
        }
        // Always end with an append (held only by the WAL) + crash +
        // full sweep, so every case exercises recovery with a replay
        // that provably matters.
        h.append(vec![gen_set(rng)]);
        h.crash_and_recover(true);
        let elems = gen_set(rng);
        h.check_query(&elems, None, None);
        h.check_query(&elems, Some(5), Some(0.0));
        h.check_discover(&[gen_set(rng), gen_set(rng)]);
        h.cleanup();
    }
}
