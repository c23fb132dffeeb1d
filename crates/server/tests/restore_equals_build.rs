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
//! must capture back to the state it came from. A text an append adds
//! must encode as a fresh build and as `encode_set` encode it, and a
//! fixed corpus pins token ids, frequencies, encodings and snapshot
//! bytes exactly. Every collection checked also reads each element by
//! id (`Collection::element_view`) as the element itself gives it,
//! here and after a snapshot round trip through `Store::open`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth_collection::{Collection, Element, InvertedIndex, SetIdx, Tokenization};
use silkmoth_core::{EngineConfig, RelatednessMetric, Update};
use silkmoth_server::{ShardSpec, ShardedEngine};
use silkmoth_storage::{
    snapshot_bytes, EngineState, SnapshotMeta, Store, StoreConfig, StoreEngine,
};
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
    assert_views_are_the_elements(got, what);
    assert_views_are_the_elements(want, what);
    let (gi, wi) = (InvertedIndex::build(got), InvertedIndex::build(want));
    assert_eq!(gi.num_tokens(), wi.num_tokens(), "{what}: lists");
    assert_eq!(gi.total_postings(), wi.total_postings(), "{what}: postings");
    for t in 0..gi.num_tokens() as u32 {
        assert_eq!(gi.list(t), wi.list(t), "{what}: postings of token {t}");
    }
}

/// Every element id the sets of `c` hold, and every id below it, reads
/// by id the tokens, chunks and chars of the element with that id.
fn assert_views_are_the_elements(c: &Collection, what: &str) {
    let ids = c.sets().iter().flat_map(|s| s.elements.iter());
    let end = ids.map(|e| e.id().unwrap() + 1).max().unwrap_or(0);
    for id in 0..end {
        let (view, element) = (c.element_view(id), c.element(id));
        assert_eq!(view.tokens(), element.tokens(), "{what}: tokens of {id}");
        assert_eq!(view.chunks(), element.chunks(), "{what}: chunks of {id}");
        assert_eq!(view.chars(), element.chars(), "{what}: chars of {id}");
    }
}

/// An element's encoding with each token id spelled as its string: the
/// distinct tokens (sorted), the q-chunks in order, and the characters.
fn spelled<'c>(c: &'c Collection, e: &Element) -> (Vec<&'c str>, Vec<&'c str>, Vec<char>, u32) {
    let mut tokens: Vec<&str> = e.tokens().iter().map(|&t| c.dict().token(t)).collect();
    tokens.sort_unstable();
    let chunks = e.chunks().iter().map(|&t| c.dict().token(t)).collect();
    (tokens, chunks, e.chars().to_vec(), e.char_len)
}

/// A text `append_sets` adds encodes as `encode_set` encodes it then, and
/// as a fresh build over all the sets does, token for token.
fn check_appended_encodings(base: &[Vec<String>], appended: &[Vec<String>], cfg: EngineConfig) {
    let mut grown = Collection::build(base, cfg.tokenization());
    let added = grown.append_sets(appended);
    let all: Vec<Vec<String>> = base.iter().chain(appended).cloned().collect();
    let fresh = Collection::build(&all, cfg.tokenization());
    for sid in added {
        let elements = &grown.set(sid).elements;
        let texts: Vec<&str> = elements.iter().map(|e| &*e.text).collect();
        let external = grown.encode_set(&texts);
        let rebuilt = &fresh.set(sid).elements;
        for ((e, x), f) in elements
            .iter()
            .zip(external.elements.iter())
            .zip(rebuilt.iter())
        {
            assert_eq!(**e, **x, "{:?}: appended vs encode_set", e.text);
            let (got, want) = (spelled(&grown, e), spelled(&fresh, f));
            assert_eq!(got, want, "{:?}: appended vs a fresh build", e.text);
        }
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
    check_appended_encodings(&base, &appended, cfg);
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

/// A store's collections read their elements by id after a snapshot
/// round trip through `Store::open` — the snapshot restored, then the
/// WAL's appends, which bring new texts and tokens, replayed on top —
/// at every shard count and under both tokenizations.
#[test]
fn element_views_survive_a_snapshot_round_trip_through_store_open() {
    let similarities = [
        SimilarityFunction::Jaccard,
        SimilarityFunction::Eds { q: 2 },
        SimilarityFunction::Eds { q: 3 },
    ];
    for (k, similarity) in similarities.into_iter().enumerate() {
        for shards in SHARD_COUNTS {
            let what = format!("{similarity:?} at {shards} shards");
            let dir = std::env::temp_dir().join(format!(
                "silkmoth-element-views-{}-{k}-{shards}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut rng = StdRng::seed_from_u64(k as u64 * 10 + shards as u64);
            let edit = similarity.is_edit();
            let cfg = EngineConfig::full(RelatednessMetric::Similarity, similarity, 0.5, 0.0);
            let engine =
                ShardedEngine::build(&gen_sets(&mut rng, edit, 6..14), cfg, shards).unwrap();
            let mut store = Store::create(&dir, engine, StoreConfig::default()).unwrap();
            let unseen = vec![vec!["new tokens".to_string(), "zz yy".to_string()]];
            store
                .apply(Update::Append(gen_sets(&mut rng, edit, 2..5)))
                .unwrap();
            store.apply(Update::Remove(vec![0])).unwrap();
            store.apply(Update::Compact).unwrap();
            store.apply(Update::Append(unseen.clone())).unwrap();
            store.snapshot().unwrap();
            store
                .apply(Update::Append(gen_sets(&mut rng, edit, 2..5)))
                .unwrap();
            store.apply(Update::Append(unseen)).unwrap();
            drop(store);
            let spec = ShardSpec { cfg, shards };
            let (store, report) =
                Store::<ShardedEngine>::open(&dir, &spec, StoreConfig::default()).unwrap();
            assert_eq!(report.wal_replayed, 2, "{what}");
            for (shard, engine) in store.engine().shards().iter().enumerate() {
                let what = format!("{what}, shard {shard}");
                assert_views_are_the_elements(engine.collection(), &what);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A fixed corpus with multi-byte characters, an empty element, a token
/// repeated within an element, tabs and non-ASCII spaces (U+3000, U+00A0,
/// U+2003).
const CORPUS: [&[&str]; 3] = [
    &["héllo wörld", "", "a a b", "tab\tsep\ta"],
    &["b\u{3000}a", "héllo", "a a b", "日本語 héllo"],
    &["", "wörld\u{a0}a\u{2003}b", "a a b"],
];

/// What a build of [`CORPUS`] must give: the dictionary in id order as
/// `(token, frequency)`, every element in id order as
/// `(text, tokens, chunks)`, and the snapshot of the engine over it, hex.
struct Pinned {
    similarity: SimilarityFunction,
    dict: &'static [(&'static str, u32)],
    elements: &'static [(&'static str, &'static [u32], &'static [u32])],
    snapshot: &'static str,
}

const WHITESPACE: Pinned = Pinned {
    similarity: SimilarityFunction::Jaccard,
    dict: &[
        ("a", 6),
        ("b", 5),
        ("héllo", 3),
        ("wörld", 2),
        ("sep", 1),
        ("tab", 1),
        ("日本語", 1),
    ],
    elements: &[
        ("héllo wörld", &[2, 3], &[]),
        ("", &[], &[]),
        ("a a b", &[0, 1], &[]),
        ("tab\tsep\ta", &[0, 4, 5], &[]),
        ("b\u{3000}a", &[0, 1], &[]),
        ("héllo", &[2], &[]),
        ("日本語 héllo", &[2, 6], &[]),
        ("wörld\u{a0}a\u{2003}b", &[0, 1, 3], &[]),
    ],
    snapshot: "534d535303000000000000000000000000000000000000000000000000000000\
               030000000300000000000000000000000100000002000000b400000000000000\
               534d4332000000000008000000000000000d00000068c3a96c6c6f2077c3b672\
               6c64000000000500000061206120620900000074616209736570096105000000\
               62e38080610600000068c3a96c6c6f10000000e697a5e69cace8aa9e2068c3a9\
               6c6c6f0d00000077c3b6726c64c2a061e2808362030000000000000004000000\
               0000000001000000020000000300000004000000040000000500000002000000\
               0600000003000000010000000700000002000000a23fc1cb",
};

const QGRAM: Pinned = Pinned {
    similarity: SimilarityFunction::Eds { q: 3 },
    dict: &[
        ("b\u{1}\u{1}", 4),
        (" a ", 3),
        (" b\u{1}", 3),
        ("a a", 3),
        ("a b", 3),
        ("hél", 3),
        ("llo", 3),
        ("éll", 3),
        ("a\u{1}\u{1}", 2),
        ("lo\u{1}", 2),
        ("o\u{1}\u{1}", 2),
        ("rld", 2),
        ("wör", 2),
        ("örl", 2),
        ("\ta\u{1}", 1),
        ("\tse", 1),
        (" hé", 1),
        (" wö", 1),
        ("ab\t", 1),
        ("a\u{2003}b", 1),
        ("b\ts", 1),
        ("b\u{3000}a", 1),
        ("d\u{1}\u{1}", 1),
        ("d\u{a0}a", 1),
        ("ep\t", 1),
        ("ld\u{1}", 1),
        ("ld\u{a0}", 1),
        ("lo ", 1),
        ("o w", 1),
        ("p\ta", 1),
        ("sep", 1),
        ("tab", 1),
        ("\u{a0}a\u{2003}", 1),
        ("\u{2003}b\u{1}", 1),
        ("\u{3000}a\u{1}", 1),
        ("日本語", 1),
        ("本語 ", 1),
        ("語 h", 1),
    ],
    elements: &[
        (
            "héllo wörld",
            &[5, 6, 7, 11, 12, 13, 17, 22, 25, 27, 28],
            &[5, 27, 12, 25],
        ),
        ("", &[], &[]),
        ("a a b", &[0, 1, 2, 3, 4], &[3, 2]),
        (
            "tab\tsep\ta",
            &[8, 14, 15, 18, 20, 24, 29, 30, 31],
            &[31, 15, 29],
        ),
        ("b\u{3000}a", &[8, 21, 34], &[21]),
        ("héllo", &[5, 6, 7, 9, 10], &[5, 9]),
        (
            "日本語 héllo",
            &[5, 6, 7, 9, 10, 16, 35, 36, 37],
            &[35, 16, 6],
        ),
        (
            "wörld\u{a0}a\u{2003}b",
            &[0, 11, 12, 13, 19, 23, 26, 32, 33],
            &[12, 26, 19],
        ),
    ],
    snapshot: "534d535303000000000000000000000000000000000000000000000000000000\
               030000000300000000000000000000000100000002000000b400000000000000\
               534d4332010300000008000000000000000d00000068c3a96c6c6f2077c3b672\
               6c64000000000500000061206120620900000074616209736570096105000000\
               62e38080610600000068c3a96c6c6f10000000e697a5e69cace8aa9e2068c3a9\
               6c6c6f0d00000077c3b6726c64c2a061e2808362030000000000000004000000\
               0000000001000000020000000300000004000000040000000500000002000000\
               0600000003000000010000000700000002000000fd446bb3",
};

/// Token ids, frequencies, element encodings and snapshot bytes of a
/// fixed corpus are pinned under both tokenizations: a change to how a
/// build tokenises, counts or ranks shows here, not only as a difference
/// between two builds that share it.
#[test]
fn a_fixed_corpus_builds_to_the_pinned_dictionary_encodings_and_snapshot() {
    let raw: Vec<Vec<&str>> = CORPUS.iter().map(|set| set.to_vec()).collect();
    for pinned in [WHITESPACE, QGRAM] {
        let cfg = EngineConfig::full(RelatednessMetric::Similarity, pinned.similarity, 0.5, 0.0);
        let tokenization = cfg.tokenization();
        let c = Collection::build(&raw, tokenization);
        let dict: Vec<(&str, u32)> = (0..c.dict().len() as u32)
            .map(|t| (c.dict().token(t), c.dict().frequency(t)))
            .collect();
        assert_eq!(dict, pinned.dict, "{tokenization:?}");
        for (id, &(text, tokens, chunks)) in pinned.elements.iter().enumerate() {
            let e = c.element(id as u32);
            assert_eq!(&*e.text, text, "{tokenization:?}");
            assert_eq!((e.tokens(), e.chunks()), (tokens, chunks), "{text:?}");
            let chars: Vec<char> = match tokenization.is_edit() {
                true => text.chars().collect(),
                false => Vec::new(),
            };
            assert_eq!(e.chars(), &chars[..], "{text:?}");
            assert_eq!(e.char_len as usize, text.chars().count(), "{text:?}");
        }
        let ids: Vec<Vec<u32>> = c
            .sets()
            .iter()
            .map(|s| s.elements.iter().map(|e| e.id().unwrap()).collect())
            .collect();
        assert_eq!(ids, [vec![0, 1, 2, 3], vec![4, 5, 2, 6], vec![1, 7, 2]]);

        let engine = ShardedEngine::build(&raw, cfg, 1).unwrap();
        let bytes = snapshot_bytes(SnapshotMeta::default(), &StoreEngine::capture(&engine));
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, pinned.snapshot, "{tokenization:?}");
    }
}

/// Appends enter a text's unseen tokens under trailing ids in
/// lexicographic order, and a reference's unknown tokens take ids past
/// the dictionary in the order they first occur; pinned like the build.
#[test]
fn appended_and_reference_tokens_take_the_pinned_ids() {
    let raw: Vec<Vec<&str>> = CORPUS.iter().map(|set| set.to_vec()).collect();
    let mut words = Collection::build(&raw, Tokenization::Whitespace);
    words.append_sets(&[vec!["zz yy a", "日本語 zz"]]);
    // "yy" comes second but sorts first.
    let ids = (words.dict().id("yy"), words.dict().id("zz"));
    assert_eq!(ids, (Some(7), Some(8)));
    assert_eq!(words.set(3).elements[0].tokens(), [0, 7, 8]);

    let mut c = Collection::build(&raw, Tokenization::QGram { q: 3 });
    c.append_sets(&[vec!["zz yy a", "日本語 zz"], vec!["yy b", "a a b"]]);
    let tail: Vec<(&str, u32)> = (38..c.dict().len() as u32)
        .map(|t| (c.dict().token(t), c.dict().frequency(t)))
        .collect();
    assert_eq!(
        tail,
        [
            (" a\u{1}", 1),
            (" yy", 1),
            ("y a", 1),
            ("yy ", 2),
            ("z y", 1),
            ("zz ", 1),
            (" zz", 1),
            ("z\u{1}\u{1}", 1),
            ("zz\u{1}", 1),
            ("語 z", 1),
            ("y b", 1),
        ]
    );
    let encoded = |s: u32| -> Vec<(Option<u32>, Vec<u32>, Vec<u32>)> {
        let elements = c.set(s).elements.iter();
        elements
            .map(|e| (e.id(), e.tokens().to_vec(), e.chunks().to_vec()))
            .collect()
    };
    assert_eq!(
        encoded(3),
        [
            (Some(8), vec![8, 38, 39, 40, 41, 42, 43], vec![43, 41, 8]),
            (Some(9), vec![35, 36, 44, 45, 46, 47], vec![35, 44]),
        ]
    );
    assert_eq!(
        encoded(4),
        [
            (Some(10), vec![0, 2, 41, 48], vec![41, 0]),
            (Some(2), vec![0, 1, 2, 3, 4], vec![3, 2]),
        ]
    );
    let frequencies: Vec<u32> = (0..c.dict().len() as u32)
        .map(|t| c.dict().frequency(t))
        .collect();
    assert_eq!(
        frequencies,
        [
            6, 4, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
            1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1
        ]
    );

    let fresh = Collection::build(&raw, Tokenization::QGram { q: 3 });
    let r = fresh.encode_set(&["qq pp qq a", "pp rr", "wörld"]);
    let got: Vec<(Vec<u32>, Vec<u32>)> = r
        .elements
        .iter()
        .map(|e| (e.tokens().to_vec(), e.chunks().to_vec()))
        .collect();
    assert_eq!(
        got,
        [
            (vec![8, 38, 39, 40, 41, 42, 43, 44, 45], vec![38, 41, 38, 8]),
            (vec![41, 46, 47, 48, 49], vec![41, 48]),
            (vec![11, 12, 13, 22, 25], vec![12, 25]),
        ]
    );
}
