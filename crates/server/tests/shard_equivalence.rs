//! Shard-correctness acceptance test: `ShardedEngine` output —
//! search, top-k, and discovery — is **byte-identical** to a single
//! unsharded engine on ≥250-set datagen workloads, for shard counts
//! {1, 2, 7} and both relatedness metrics. One workload hardly repeats
//! an element; the other repeats each about twenty times, within sets
//! and across shards, which is where every shard's element dictionary
//! and φ memo differ from the single engine's.

use silkmoth_collection::{Collection, SetIdx};
use silkmoth_core::{Engine, EngineConfig, QuerySpec, RelatednessMetric};
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

/// Per-reference hits flattened to `(reference, set, score)` pairs, in
/// `(r, s)` order.
fn pairs<'o>(
    per_reference: impl Iterator<Item = &'o [(SetIdx, f64)]>,
) -> Vec<(usize, SetIdx, f64)> {
    per_reference
        .enumerate()
        .flat_map(|(r, hits)| hits.iter().map(move |&(s, score)| (r, s, score)))
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
                    // Plain search: ascending-id order.
                    let spec = QuerySpec::new(reference.clone());
                    let want = single.execute(&spec).hits;
                    let got = sharded.execute(&spec).hits;
                    assert_results_identical(
                        &got,
                        &want,
                        &format_args!("{name} {metric:?} shards={shards} ref={i} plain"),
                    );
                    // Top-k with a floor: global rank order.
                    let spec = spec.with_top_k(5).with_floor(0.3).unwrap();
                    let want = single.execute(&spec).hits;
                    let got = sharded.execute(&spec).hits;
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
            // Discovery over external references: one spec per reference.
            let specs: Vec<QuerySpec> = refs.iter().cloned().map(QuerySpec::new).collect();
            let want = pairs(single.execute_batch(&specs, 1).iter().map(|o| &o.hits[..]));
            assert!(!want.is_empty(), "workload must produce pairs");
            for shards in SHARD_COUNTS {
                let context = format!("{name} {metric:?} shards={shards}");
                let sharded = ShardedEngine::build(&raw, cfg, shards).unwrap();
                let outs = sharded.execute_batch(&specs);
                let got = pairs(outs.iter().map(|o| &o.hits[..]));
                assert_eq!(got.len(), want.len(), "{context}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!((a.0, a.1), (b.0, b.1), "{context}");
                    assert_eq!(
                        a.2.to_bits(),
                        b.2.to_bits(),
                        "score for ({}, {}) must be bit-identical ({context})",
                        a.0,
                        a.1
                    );
                }
                assert!(outs.iter().all(|o| o.shard_stats.len() == shards));
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
    let reference = QuerySpec::new(raw[0].clone()).with_floor(0.4).unwrap();
    for shards in SHARD_COUNTS {
        let sharded = ShardedEngine::build(&raw, cfg, shards).unwrap();
        for k in [1, 3, 7, 19, 21, 100] {
            let spec = reference.clone().with_top_k(k);
            let want = single.execute(&spec).hits;
            let got = sharded.execute(&spec).hits;
            assert_eq!(got, want, "shards={shards} k={k}");
        }
    }
}
