//! Shard-correctness acceptance test: `ShardedEngine` output —
//! search, top-k, and discovery — is **byte-identical** to a single
//! unsharded engine on ≥250-set datagen workloads, for shard counts
//! {1, 2, 7} and both relatedness metrics. One workload hardly repeats
//! an element; the other repeats each about twenty times, within sets
//! and across shards, which is where every shard's element dictionary
//! and φ memo differ from the single engine's.

use silkmoth_collection::{Collection, SetIdx};
use silkmoth_core::{Engine, EngineConfig, RelatednessMetric};
use silkmoth_server::ShardedEngine;
use silkmoth_text::SimilarityFunction;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn corpora() -> [(&'static str, Vec<Vec<String>>); 2] {
    let schemas = silkmoth_datagen::webtable_schemas(&silkmoth_datagen::SchemaConfig {
        num_sets: 250,
        ..Default::default()
    });
    let columns = silkmoth_datagen::webtable_columns(&silkmoth_datagen::ColumnsConfig {
        num_sets: 250,
        num_pools: 3,
        pool_size: 40,
        values_per_set: (6, 14),
        ..Default::default()
    });
    let stats = Collection::build(&columns, silkmoth_collection::Tokenization::Whitespace).stats();
    assert!(stats.num_elements > 10 * stats.distinct_elements, "{stats}");
    [("schemas", schemas), ("repeated columns", columns)]
}

fn cfg(metric: RelatednessMetric, delta: f64) -> EngineConfig {
    EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0)
}

/// References that partially overlap the corpus: every other attribute
/// of every fourth schema (some match, some don't).
fn references(raw: &[Vec<String>]) -> Vec<Vec<String>> {
    raw.iter()
        .step_by(4)
        .map(|set| set.iter().step_by(2).cloned().collect())
        .collect()
}

fn assert_results_identical(
    got: &[(SetIdx, f64)],
    want: &[(SetIdx, f64)],
    context: &std::fmt::Arguments<'_>,
) {
    assert_eq!(got.len(), want.len(), "{context}");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.0, b.0, "{context}");
        assert_eq!(
            a.1.to_bits(),
            b.1.to_bits(),
            "score for set {} must be bit-identical ({context})",
            a.0
        );
    }
}

#[test]
fn sharded_search_identical_to_single_engine() {
    for (name, raw) in corpora() {
        assert!(raw.len() >= 250);
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            let cfg = cfg(metric, 0.5);
            let single = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
            for shards in SHARD_COUNTS {
                let sharded = ShardedEngine::build(&raw, cfg, shards).unwrap();
                assert_eq!(sharded.shard_count(), shards);
                for (i, reference) in references(&raw).iter().enumerate().step_by(7) {
                    let encoded = single.collection().encode_set(reference);
                    // Plain search: ascending-id order.
                    let want = single.query(&encoded).run().unwrap().results;
                    let got = sharded.search(reference, None, None).unwrap().results;
                    assert_results_identical(
                        &got,
                        &want,
                        &format_args!("{name} {metric:?} shards={shards} ref={i} plain"),
                    );
                    // Top-k with a floor: global rank order.
                    let want = single
                        .query(&encoded)
                        .top_k(5)
                        .floor(0.3)
                        .run()
                        .unwrap()
                        .results;
                    let got = sharded
                        .search(reference, Some(5), Some(0.3))
                        .unwrap()
                        .results;
                    assert_results_identical(
                        &got,
                        &want,
                        &format_args!("{name} {metric:?} shards={shards} ref={i} top-k"),
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_discover_identical_to_single_engine() {
    for (name, raw) in corpora() {
        let refs = references(&raw);
        assert!(refs.len() >= 60);
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            let cfg = cfg(metric, 0.5);
            let single = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
            let encoded: Vec<_> = refs
                .iter()
                .map(|set| single.collection().encode_set(set))
                .collect();
            let want = single.discover(&encoded);
            assert!(!want.pairs.is_empty(), "workload must produce pairs");
            for shards in SHARD_COUNTS {
                let context = format!("{name} {metric:?} shards={shards}");
                let sharded = ShardedEngine::build(&raw, cfg, shards).unwrap();
                let got = sharded.discover(&refs);
                assert_eq!(got.pairs.len(), want.pairs.len(), "{context}");
                for (a, b) in got.pairs.iter().zip(&want.pairs) {
                    assert_eq!((a.r, a.s), (b.r, b.s), "{context}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score for ({}, {}) must be bit-identical ({context})",
                        a.r,
                        a.s
                    );
                }
                assert_eq!(got.shard_stats.len(), shards);
            }
        }
    }
}

#[test]
fn sharded_topk_tie_break_matches_single_engine() {
    // A corpus engineered for score ties: clusters of identical sets, so
    // top-k truncation must cut inside a tie group and the ascending
    // global-id tie-break is load-bearing across shard boundaries.
    let raw: Vec<Vec<String>> = (0..60)
        .map(|i| {
            let cluster = i % 3;
            vec![
                format!("c{cluster} alpha beta"),
                format!("c{cluster} gamma delta"),
            ]
        })
        .collect();
    let cfg = cfg(RelatednessMetric::Similarity, 0.5);
    let single = Engine::new(Collection::build(&raw, cfg.tokenization()), cfg).unwrap();
    let reference = raw[0].clone();
    let encoded = single.collection().encode_set(&reference);
    for shards in SHARD_COUNTS {
        let sharded = ShardedEngine::build(&raw, cfg, shards).unwrap();
        for k in [1, 3, 7, 19, 21, 100] {
            let want = single
                .query(&encoded)
                .top_k(k)
                .floor(0.4)
                .run()
                .unwrap()
                .results;
            let got = sharded
                .search(&reference, Some(k), Some(0.4))
                .unwrap()
                .results;
            assert_eq!(got, want, "shards={shards} k={k}");
        }
    }
}
