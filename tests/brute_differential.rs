//! Brute-force differential property tests: the [`Engine`] must produce
//! exactly the `O(n³m²)` naive baseline's output (§1's exactness
//! guarantee) on random small workloads, across **every** metric ×
//! signature-scheme × reduction combination — including on collections
//! mutated through the incremental-update layer.
//!
//! Corpora that repeat their elements have two legs of their own: the
//! element dictionary, the postings that name its entries and the
//! per-pass φ table work on those, and brute force has none of them. The
//! second leg repeats a text *inside* a set and runs Eds with α below
//! `q/(q+1)`, where an element sharing no q-gram with a reference element
//! still bounds its nearest neighbor — the case that counts a set's
//! elements by the multiplicity of their postings.
//!
//! The ordered top-k pass has two legs of its own here: a property that
//! the size-aware `need` never prunes a related pair, and a corpus built
//! for **ties at the k-th boundary** — sets that score the same while
//! their bounds differ — across shard counts {1, 2, 7}, fresh and
//! post-update.
//!
//! Cases are generated by the vendored proptest (seeded per test name;
//! the runner prints the failing case's seed for reproduction — no
//! shrinking, so workloads are kept small enough to debug directly).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkmoth::core::rank::rank_top_k;
use silkmoth::{
    brute, Collection, Engine, EngineConfig, FilterKind, QuerySpec, RelatednessMetric,
    ShardedEngine, SignatureScheme, SimilarityFunction, Update,
};

const SCHEMES: [SignatureScheme; 5] = [
    SignatureScheme::Unweighted,
    SignatureScheme::Weighted,
    SignatureScheme::CombinedUnweighted,
    SignatureScheme::Skyline,
    SignatureScheme::Dichotomy,
];

const METRICS: [RelatednessMetric; 2] = [
    RelatednessMetric::Similarity,
    RelatednessMetric::Containment,
];

fn gen_corpus(rng: &mut StdRng, alphabet: &dyn Fn(&mut StdRng) -> String) -> Vec<Vec<String>> {
    let n = rng.random_range(4..=12usize);
    (0..n)
        .map(|_| {
            let elems = rng.random_range(1..=3usize);
            (0..elems).map(|_| alphabet(rng)).collect()
        })
        .collect()
}

fn word_element(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=3usize);
    (0..n)
        .map(|_| format!("t{}", rng.random_range(0..8u32)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn string_element(rng: &mut StdRng) -> String {
    let n = rng.random_range(1..=6usize);
    (0..n)
        .map(|_| char::from(b'a' + rng.random_range(0..4u8)))
        .collect()
}

/// Asserts engine output == brute output on search (from a random live
/// reference and an external reference) and on self-join discovery.
fn assert_engine_matches_brute(collection: &Collection, cfg: &EngineConfig, rng: &mut StdRng) {
    let engine = Engine::new(collection.clone(), *cfg).unwrap();
    let label = format!(
        "{:?}/{:?}/reduction={} δ={} α={}",
        cfg.metric, cfg.scheme, cfg.reduction, cfg.delta, cfg.alpha
    );

    // Search from a live collection set and from an external reference
    // re-encoded against the dictionary (callers guarantee ≥ 1 live set).
    let live: Vec<u32> = collection.live_ids().collect();
    let rid = live[rng.random_range(0..live.len())];
    let external: Vec<String> = collection
        .set(live[rng.random_range(0..live.len())])
        .elements
        .iter()
        .map(|e| e.text.to_string())
        .collect();
    let refs = [
        collection.set(rid).clone(),
        collection.encode_set(&external),
    ];

    for r in &refs {
        let texts = r.elements.iter().map(|e| e.text.to_string()).collect();
        let fast = engine.execute(&QuerySpec::new(texts)).hits;
        let slow = brute::search(r, collection, cfg);
        assert_eq!(fast.len(), slow.len(), "{label}: result count");
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.0, b.0, "{label}: result ids");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{label}: scores bit-equal");
        }
    }

    let fast = engine.discover_self_parallel(1).pairs;
    let slow = brute::discover_self(collection, cfg);
    assert_eq!(fast.len(), slow.len(), "{label}: pair count");
    for (a, b) in fast.iter().zip(&slow) {
        assert_eq!((a.r, a.s), (b.r, b.s), "{label}: pair ids");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{label}: pair scores");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Jaccard: every metric × scheme × reduction combination on one
    // random corpus per case.
    #[test]
    fn engine_matches_brute_jaccard_all_combinations(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let raw = gen_corpus(rng, &word_element);
        let delta = [0.3, 0.5, 0.7][rng.random_range(0..3usize)];
        let alpha = [0.0, 0.4][rng.random_range(0..2usize)];
        let collection = Collection::build(&raw, silkmoth::Tokenization::Whitespace);
        for metric in METRICS {
            for scheme in SCHEMES {
                for reduction in [false, true] {
                    let cfg = EngineConfig {
                        metric,
                        similarity: SimilarityFunction::Jaccard,
                        delta,
                        alpha,
                        scheme,
                        filter: FilterKind::CheckAndNearestNeighbor,
                        reduction,
                    };
                    assert_engine_matches_brute(&collection, &cfg, rng);
                }
            }
        }
    }

    // Edit similarity (q-grams): all schemes need α > q/(q+1) for the
    // unweighted family's validity argument, so α = 0.7 with q = 2.
    #[test]
    fn engine_matches_brute_edit_similarity_all_combinations(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let raw = gen_corpus(rng, &string_element);
        let collection = Collection::build(&raw, silkmoth::Tokenization::QGram { q: 2 });
        for metric in METRICS {
            for scheme in SCHEMES {
                for reduction in [false, true] {
                    let cfg = EngineConfig {
                        metric,
                        similarity: SimilarityFunction::Eds { q: 2 },
                        delta: 0.5,
                        alpha: 0.7,
                        scheme,
                        filter: FilterKind::CheckAndNearestNeighbor,
                        reduction,
                    };
                    assert_engine_matches_brute(&collection, &cfg, rng);
                }
            }
        }
    }

    // The same differential, on a collection that went through the
    // incremental-update layer (append + tombstones, no compact): brute
    // skips tombstoned sets by liveness, the engine by candidate
    // filtering — outputs must still agree exactly.
    #[test]
    fn engine_matches_brute_after_incremental_updates(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let raw = gen_corpus(rng, &word_element);
        let cfg = EngineConfig::full(
            METRICS[rng.random_range(0..2usize)],
            SimilarityFunction::Jaccard,
            [0.4, 0.6][rng.random_range(0..2usize)],
            0.0,
        );
        let mut engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
        engine
            .apply(Update::Append(gen_corpus(rng, &word_element)))
            .unwrap();
        let total = engine.collection().len() as u32;
        let doomed: Vec<u32> = (0..total).filter(|_| rng.random::<bool>()).collect();
        engine.apply(Update::Remove(doomed)).unwrap();
        prop_assume!(engine.collection().live_len() > 0);
        assert_engine_matches_brute(engine.collection(), engine.config(), rng);
    }

    // Corpora that repeat their elements: every element is one of a
    // handful of texts, so the same one turns up twice in a set, across
    // sets, in an append (beside texts the collection has never seen),
    // in a removed set and after a compaction. The collection stores
    // such an element once and candidate selection evaluates φ against
    // it once per reference element; brute force does neither.
    #[test]
    fn engine_matches_brute_on_repeated_elements_through_updates(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let edit = rng.random::<bool>();
        let (similarity, alpha, element): (_, _, &dyn Fn(&mut StdRng) -> String) = if edit {
            (SimilarityFunction::Eds { q: 2 }, 0.7, &string_element)
        } else {
            (SimilarityFunction::Jaccard, [0.0, 0.4][rng.random_range(0..2usize)], &word_element)
        };
        let mut pool: Vec<String> = (0..5).map(|_| element(rng)).collect();
        let draw = |rng: &mut StdRng, pool: &[String]| -> Vec<Vec<String>> {
            (0..rng.random_range(5..=10usize))
                .map(|_| {
                    (0..rng.random_range(1..=5usize))
                        .map(|_| pool[rng.random_range(0..pool.len())].clone())
                        .collect()
                })
                .collect()
        };
        let cfg = EngineConfig::full(
            METRICS[rng.random_range(0..2usize)],
            similarity,
            [0.3, 0.6][rng.random_range(0..2usize)],
            alpha,
        );
        let mut engine =
            Engine::new(Collection::build(&draw(rng, &pool), cfg.tokenization()), cfg).unwrap();
        assert_engine_matches_brute(engine.collection(), &cfg, rng);

        pool.extend([element(rng), element(rng)]);
        engine.apply(Update::Append(draw(rng, &pool))).unwrap();
        assert_engine_matches_brute(engine.collection(), &cfg, rng);

        let total = engine.collection().len() as u32;
        let doomed: Vec<u32> = (1..total).filter(|_| rng.random::<bool>()).collect();
        engine.apply(Update::Remove(doomed)).unwrap();
        assert_engine_matches_brute(engine.collection(), &cfg, rng);
        // A removed set's elements stay in the dictionary: appending
        // their texts again must find them in a usable state.
        engine.apply(Update::Append(draw(rng, &pool))).unwrap();
        assert_engine_matches_brute(engine.collection(), &cfg, rng);

        engine.apply(Update::Compact).unwrap();
        assert_engine_matches_brute(engine.collection(), &cfg, rng);
        prop_assert!(engine.collection().stats().distinct_elements <= pool.len());
    }

    // The filters prune against the matching score a pair *needs* —
    // δ(|R|+|S|)/(1+δ) under SET-SIMILARITY, which grows with |S| — and a
    // top-k pass against its rising k-th score. Neither may ever drop a
    // related pair: sets of unequal sizes, both metrics, Jaccard and Eds,
    // α off and high, floors down to 0.
    #[test]
    fn size_aware_need_never_prunes_a_related_pair(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let edit = rng.random::<bool>();
        let (similarity, element): (_, &dyn Fn(&mut StdRng) -> String) = if edit {
            (SimilarityFunction::Eds { q: 2 }, &string_element)
        } else {
            (SimilarityFunction::Jaccard, &word_element)
        };
        let raw: Vec<Vec<String>> = (0..rng.random_range(6..=16usize))
            .map(|_| (0..rng.random_range(1..=6usize)).map(|_| element(rng)).collect())
            .collect();
        let alpha = [0.0, 0.8][rng.random_range(0..2usize)];
        for metric in METRICS {
            let cfg = EngineConfig::full(metric, similarity, 0.7, alpha);
            let engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
            let reference = raw[rng.random_range(0..raw.len())].clone();
            for floor in [0.0, 0.05, 0.2, 0.5, 0.9] {
                let label = format!("{metric:?}/{similarity:?} α={alpha} floor={floor}");
                let spec = QuerySpec::new(reference.clone()).with_floor(floor).unwrap();
                let want = brute_at(&engine, &reference, floor);
                assert_hits_identical(&engine.execute(&spec).hits, &want, &label);
                for k in [1, 3] {
                    let mut ranked = want.clone();
                    rank_top_k(&mut ranked, k);
                    let got = engine.execute(&spec.clone().with_top_k(k)).hits;
                    assert_hits_identical(&got, &ranked, &format!("{label} k={k}"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Sets that hold the same text more than once, over a pool small
    // enough that every text is in most sets. A posting names the text's
    // dictionary entry, so the nearest-neighbor search sees such a set's
    // repeats as one id with a multiplicity; under Eds with α below
    // q/(q+1) it must still know whether *every* position of the set
    // shares a q-gram with the reference element, because one that does
    // not bounds the neighbor from above zero. Every weighted-family
    // scheme (the unweighted ones need α above that line), both metrics,
    // shard counts {1, 2, 7}, fresh, after Remove + Append, and the
    // engine again after Compact.
    #[test]
    fn engine_matches_brute_where_sets_repeat_a_text(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let edit = rng.random::<bool>();
        let (similarity, alpha, element): (_, _, &dyn Fn(&mut StdRng) -> String) = if edit {
            (SimilarityFunction::Eds { q: 2 }, [0.3, 0.5][rng.random_range(0..2usize)], &string_element)
        } else {
            (SimilarityFunction::Jaccard, [0.0, 0.4][rng.random_range(0..2usize)], &word_element)
        };
        let pool: Vec<String> = (0..4).map(|_| element(rng)).collect();
        let draw = |rng: &mut StdRng| -> Vec<Vec<String>> {
            (0..rng.random_range(6..=10usize))
                .map(|_| {
                    let mut set: Vec<String> = (0..rng.random_range(1..=3usize))
                        .map(|_| pool[rng.random_range(0..pool.len())].clone())
                        .collect();
                    // One of them once more, not next to itself.
                    set.push(set[0].clone());
                    set
                })
                .collect()
        };
        let cfg = EngineConfig {
            metric: METRICS[rng.random_range(0..2usize)],
            similarity,
            delta: [0.3, 0.6][rng.random_range(0..2usize)],
            alpha,
            scheme: [
                SignatureScheme::Weighted,
                SignatureScheme::Skyline,
                SignatureScheme::Dichotomy,
            ][rng.random_range(0..3usize)],
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: rng.random::<bool>(),
        };
        let raw = draw(rng);
        let mut engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
        let mut sharded: Vec<ShardedEngine> = [1, 2, 7]
            .iter()
            .map(|&shards| ShardedEngine::build(&raw, cfg, shards).unwrap())
            .collect();
        let reference = raw[rng.random_range(0..raw.len())].clone();
        let check = |engine: &Engine, sharded: &[ShardedEngine], rng: &mut StdRng, label: &str| {
            assert_engine_matches_brute(engine.collection(), &cfg, rng);
            for floor in [0.0, 0.3] {
                let all = brute_at(engine, &reference, floor);
                for k in [None, Some(2)] {
                    let mut want = all.clone();
                    let mut spec = QuerySpec::new(reference.clone()).with_floor(floor).unwrap();
                    if let Some(k) = k {
                        rank_top_k(&mut want, k);
                        spec = spec.with_top_k(k);
                    }
                    let label = format!("{label} {cfg:?} floor={floor} k={k:?}");
                    assert_hits_identical(&engine.execute(&spec).hits, &want, &label);
                    for s in sharded {
                        let label = format!("{label} shards={}", s.shards().len());
                        assert_hits_identical(&s.execute(&spec).hits, &want, &label);
                    }
                }
            }
        };
        check(&engine, &sharded, rng, "fresh");

        let doomed: Vec<u32> = (1..raw.len() as u32).filter(|_| rng.random::<bool>()).collect();
        for update in [Update::Remove(doomed), Update::Append(draw(rng))] {
            for s in &mut sharded {
                s.apply(update.clone()).unwrap();
            }
            engine.apply(update).unwrap();
        }
        check(&engine, &sharded, rng, "post-update");

        // Compaction renumbers the engine's sets (and its elements) and
        // leaves the sharded engines' global ids alone.
        engine.apply(Update::Compact).unwrap();
        check(&engine, &[], rng, "compacted");
    }
}

/// `brute::search` from `reference` at `floor` over the engine's own
/// collection, in ascending id order.
fn brute_at(engine: &Engine, reference: &[String], floor: f64) -> Vec<(u32, f64)> {
    let mut cfg = *engine.config();
    cfg.delta = floor.max(f64::MIN_POSITIVE);
    let r = engine.collection().encode_set(reference);
    brute::search(&r, engine.collection(), &cfg)
}

fn assert_hits_identical(got: &[(u32, f64)], want: &[(u32, f64)], label: &str) {
    let ids = |hits: &[(u32, f64)]| hits.iter().map(|h| h.0).collect::<Vec<_>>();
    assert_eq!(ids(got), ids(want), "{label}: ids and tie order");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{label}: score bits of {}",
            g.0
        );
    }
}

/// The reference the tie corpus is built around.
const TIE_REFERENCE: [&str; 3] = ["a b c d", "a b c e", "p q r s"];

/// One set of the tie corpus, by kind; `i` makes its filler elements
/// unique, so they share no token with anything.
///
/// * `Exact`: a copy of the reference — every copy scores 1.
/// * `Tight`: one reference element and filler. Matching score 1, and
///   nothing else in it resembles the reference, so its upper bound is
///   (about) its score.
/// * `Loose`: `"a b c d"` and filler. Matching score 1 as well — the one
///   element can be matched once — but *two* reference elements have it
///   as their nearest neighbor, so its bound is well above its score.
/// * `Halves`: `"a b c d"` and `"p q r s"`, each under four tokens of
///   filler, so each is half a reference element (Jaccard 4/8) — and
///   filler. Matching score ½ + ½ = 1 again, reached by two columns of
///   the weight matrix, and the column maxima sum to exactly that: the
///   bound verification checks before it solves anything *equals* what
///   the set needs to tie (in floats `need` even comes out one ulp above
///   it under SET-SIMILARITY).
/// * `Far`: filler only.
///
/// `Tight`, `Halves` and `Loose` tie on score while the ordered pass
/// meets every `Loose` set first, then every `Halves`. With `Tight` and
/// `Halves` sets on the lower ids, a top-k cut inside that tie group is
/// right only if the pass goes on examining candidates whose bound merely
/// *equals* its k-th score — and goes on solving the ones whose column
/// bound merely equals what that score needs.
#[derive(Clone, Copy)]
enum TieKind {
    Exact,
    Tight,
    Halves,
    Loose,
    Far,
}

fn tie_set(kind: TieKind, i: usize) -> Vec<String> {
    let filler = |j: usize| format!("f{i}x{j} f{i}y{j} f{i}z{j} f{i}w{j}");
    match kind {
        TieKind::Exact => TIE_REFERENCE.iter().map(|e| e.to_string()).collect(),
        TieKind::Tight => vec!["p q r s".into(), filler(0), filler(1)],
        TieKind::Halves => vec![
            format!("a b c d {}", filler(0)),
            filler(1),
            format!("p q r s {}", filler(2)),
        ],
        TieKind::Loose => vec![filler(0), "a b c d".into(), filler(1)],
        TieKind::Far => vec![filler(0), filler(1), filler(2)],
    }
}

/// Engine, sharded engines {1, 2, 7} and `brute::search` must agree on
/// ids, tie order and score bits for every `k`.
fn assert_topk_matches_brute(engine: &Engine, sharded: &[ShardedEngine], label: &str) {
    let with_extra: Vec<String> = TIE_REFERENCE
        .iter()
        .map(|e| e.to_string())
        .chain(["u v w".to_string()])
        .collect();
    for reference in [&with_extra[..3], &with_extra[..]] {
        for floor in [0.0, 0.15] {
            let all = brute_at(engine, reference, floor);
            // k = 1, cuts inside and exactly at the end of each tie
            // group, one past the result count, and far past it.
            let n = all.len();
            for k in [
                0,
                1,
                2,
                9,
                10,
                11,
                13,
                17,
                20,
                25,
                30,
                35,
                n - 1,
                n,
                n + 1,
                1000,
            ] {
                let mut want = all.clone();
                rank_top_k(&mut want, k);
                let spec = QuerySpec::new(reference.to_vec())
                    .with_floor(floor)
                    .unwrap()
                    .with_top_k(k);
                let label = format!("{label} |R|={} floor={floor} k={k}", reference.len());
                assert_hits_identical(&engine.execute(&spec).hits, &want, &label);
                for s in sharded {
                    let label = format!("{label} shards={}", s.shards().len());
                    assert_hits_identical(&s.execute(&spec).hits, &want, &label);
                }
            }
        }
    }
}

#[test]
fn topk_ties_at_the_kth_boundary_match_brute_across_shards_and_updates() {
    use TieKind::{Exact, Far, Halves, Loose, Tight};
    // Tight and Halves on the low ids of every stretch, Loose on the
    // high ones.
    let kinds = [Tight, Halves, Exact, Far, Loose];
    let raw: Vec<Vec<String>> = (0..50).map(|i| tie_set(kinds[i % 5], i)).collect();
    for metric in METRICS {
        for alpha in [0.0, 0.5] {
            let cfg = EngineConfig::full(metric, SimilarityFunction::Jaccard, 0.7, alpha);
            let label = format!("{metric:?} α={alpha}");
            let mut engine = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
            let mut sharded: Vec<ShardedEngine> = [1, 2, 7]
                .iter()
                .map(|&shards| ShardedEngine::build(&raw, cfg, shards).unwrap())
                .collect();
            assert_topk_matches_brute(&engine, &sharded, &format!("{label} fresh"));

            // Post-update: the lowest id of each tie group goes, and new
            // members arrive on the highest ids — Loose before Halves and
            // Tight, so the new stretch ties the other way round. No
            // compaction: the engine's ids stay the sharded engines'
            // global ids.
            let updates = [
                Update::Remove(vec![0, 1, 2, 4]),
                Update::Append(vec![
                    tie_set(Loose, 50),
                    tie_set(Exact, 51),
                    tie_set(Halves, 52),
                    tie_set(Tight, 53),
                    tie_set(Tight, 54),
                ]),
            ];
            for update in updates {
                for s in &mut sharded {
                    s.apply(update.clone()).unwrap();
                }
                engine.apply(update).unwrap();
            }
            assert_topk_matches_brute(&engine, &sharded, &format!("{label} post-update"));
        }
    }
}
