//! Restore ≡ build: a snapshot restore rebuilds each shard's collection
//! from the dictionary-coded state — indices into the distinct texts —
//! instead of from one text per occurrence, and must give exactly the
//! collection `Collection::build` gives over that shard's texts.
//!
//! For random Jaccard and q-gram collections — fresh, after appends and
//! removals, and after a compaction — the state is captured from
//! sharded engines at shard counts {1, 2, 7} and restored at a
//! different count. Every restored shard's collection must equal a
//! from-text build of the same slots field by field: element ids, token
//! ids and frequencies, element encodings, liveness, and every posting
//! of the inverted index. The captured state, and so the snapshot
//! bytes, must not depend on the shard count, and a restored engine
//! must capture back to the state it came from.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_collection::{Collection, InvertedIndex, SetIdx};
use silkmoth_core::{EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{ShardSpec, ShardedEngine};
use silkmoth_storage::{snapshot_bytes, EngineState, SnapshotMeta, StoreEngine};
use silkmoth_text::SimilarityFunction;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// One element text: few distinct ones, so texts recur across and
/// within sets the way real columns repeat their values.
fn gen_element(rng: &mut StdRng, edit: bool) -> String {
    if edit {
        let len = rng.random_range(0..7usize);
        (0..len)
            .map(|_| char::from(b'a' + rng.random_range(0..4u8)))
            .collect()
    } else {
        (0..rng.random_range(1..=3usize))
            .map(|_| format!("w{}", rng.random_range(0..8u32)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn gen_sets(rng: &mut StdRng, edit: bool, n: std::ops::Range<usize>) -> Vec<Vec<String>> {
    (0..rng.random_range(n))
        .map(|_| {
            (0..rng.random_range(0..=4usize))
                .map(|_| gen_element(rng, edit))
                .collect()
        })
        .collect()
}

/// The slots of `c` spelled out as texts (a tombstoned placeholder is
/// empty), built from scratch and tombstoned the same way.
fn rebuilt(c: &Collection) -> Collection {
    let raw: Vec<Vec<&str>> = c
        .sets()
        .iter()
        .map(|s| s.elements.iter().map(|e| &*e.text).collect())
        .collect();
    let mut built = Collection::build(&raw, c.tokenization());
    let dead: Vec<SetIdx> = (0..c.len() as SetIdx).filter(|&i| !c.is_live(i)).collect();
    built.remove_sets(&dead).unwrap();
    built
}

/// Field-by-field equality of two collections and their indexes.
fn assert_same_collection(got: &Collection, want: &Collection, what: &str) {
    assert_eq!(got.tokenization(), want.tokenization(), "{what}");
    assert_eq!(
        (got.len(), got.live_len(), got.max_set_len()),
        (want.len(), want.live_len(), want.max_set_len()),
        "{what}: slots"
    );
    let (gd, wd) = (got.dict(), want.dict());
    assert_eq!(gd.len(), wd.len(), "{what}: token count");
    for t in 0..gd.len() as u32 {
        assert_eq!(gd.token(t), wd.token(t), "{what}: token {t}");
        assert_eq!(gd.frequency(t), wd.frequency(t), "{what}: frequency of {t}");
    }
    let mut elements = 0;
    for (sid, (g, w)) in got.sets().iter().zip(want.sets()).enumerate() {
        assert_eq!(
            got.is_live(sid as SetIdx),
            want.is_live(sid as SetIdx),
            "{what}"
        );
        assert_eq!(g.len(), w.len(), "{what}: set {sid}");
        for (ge, we) in g.elements.iter().zip(w.elements.iter()) {
            assert_eq!(ge.id(), we.id(), "{what}: set {sid} element ids");
            assert_eq!(**ge, **we, "{what}: set {sid} element encoding");
            elements = elements.max(ge.id().unwrap() + 1);
        }
    }
    for id in 0..elements {
        assert_eq!(got.element(id), want.element(id), "{what}: element {id}");
    }
    let (gi, wi) = (InvertedIndex::build(got), InvertedIndex::build(want));
    assert_eq!(gi.num_tokens(), wi.num_tokens(), "{what}: lists");
    assert_eq!(gi.total_postings(), wi.total_postings(), "{what}: postings");
    for t in 0..gi.num_tokens() as u32 {
        assert_eq!(gi.list(t), wi.list(t), "{what}: postings of token {t}");
    }
}

fn check(rng: &mut StdRng) {
    let edit = rng.random::<bool>();
    let similarity = if edit {
        SimilarityFunction::Eds {
            q: rng.random_range(2..=3usize),
        }
    } else {
        SimilarityFunction::Jaccard
    };
    let cfg = EngineConfig::full(RelatednessMetric::Similarity, similarity, 0.5, 0.0);
    let base = gen_sets(rng, edit, 0..14);
    let appended = gen_sets(rng, edit, 1..5);
    let slots = (base.len() + appended.len()) as SetIdx;
    let removed: Vec<SetIdx> = (0..rng.random_range(1..5usize))
        .map(|_| rng.random_range(0..slots))
        .collect();
    let stages = [
        ("fresh", vec![]),
        (
            "appended and removed",
            vec![Update::Append(appended), Update::Remove(removed)],
        ),
        ("compacted", vec![Update::Compact]),
    ];

    let mut engines: Vec<ShardedEngine> = SHARD_COUNTS
        .iter()
        .map(|&n| ShardedEngine::build(&base, cfg, n).unwrap())
        .collect();
    for (stage, updates) in stages {
        for update in updates {
            for engine in &mut engines {
                engine.apply(update.clone()).unwrap();
            }
        }
        let states: Vec<EngineState> = engines.iter().map(StoreEngine::capture).collect();
        let bytes = snapshot_bytes(SnapshotMeta::default(), &states[0]);
        for (state, n) in states.iter().zip(SHARD_COUNTS) {
            let what = format!("{stage}, captured at {n} shards");
            assert_eq!(
                snapshot_bytes(SnapshotMeta::default(), state),
                bytes,
                "{what}"
            );
            let to = SHARD_COUNTS[(SHARD_COUNTS.iter().position(|&c| c == n).unwrap() + 1) % 3];
            let spec = ShardSpec { cfg, shards: to };
            let restored = <ShardedEngine as StoreEngine>::restore(&spec, state.clone()).unwrap();
            assert_eq!(restored.shard_count(), to, "{what}");
            for (shard, engine) in restored.shards().iter().enumerate() {
                let c = engine.collection();
                assert_same_collection(c, &rebuilt(c), &format!("{what}, shard {shard} of {to}"));
            }
            assert_eq!(
                &StoreEngine::capture(&restored),
                state,
                "{what}: recaptured"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn restore_equals_build_across_shard_counts(seed in any::<u64>()) {
        check(&mut StdRng::seed_from_u64(seed));
    }
}
