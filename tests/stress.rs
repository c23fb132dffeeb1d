//! Medium-scale smoke tests: determinism, parallel/serial equivalence,
//! cross-mode consistency, and instrumentation sanity on corpora large
//! enough to exercise every code path (degenerate signatures, saturated
//! elements, reduction, early termination) without slowing CI down.

use std::sync::Arc;

use silkmoth::{
    Collection, Engine, EngineConfig, FilterKind, QuerySpec, RelatednessMetric, SignatureScheme,
    SimilarityFunction, Tokenization,
};

#[test]
fn discovery_is_deterministic_across_runs_and_threads() {
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 600,
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q: 3 }));
    let cfg = EngineConfig::full(
        RelatednessMetric::Similarity,
        SimilarityFunction::Eds { q: 3 },
        0.8,
        0.8,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let serial1 = engine.discover_self_parallel(1);
    let serial2 = engine.discover_self_parallel(1);
    assert_eq!(serial1.pairs.len(), serial2.pairs.len());
    for (a, b) in serial1.pairs.iter().zip(&serial2.pairs) {
        assert_eq!((a.r, a.s), (b.r, b.s));
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "bitwise determinism");
    }
    for threads in [2, 3, 8] {
        let par = engine.discover_self_parallel(threads);
        assert_eq!(par.pairs.len(), serial1.pairs.len(), "threads={threads}");
        for (a, b) in par.pairs.iter().zip(&serial1.pairs) {
            assert_eq!((a.r, a.s), (b.r, b.s));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert_eq!(par.stats, serial1.stats);
    }
}

#[test]
fn search_and_discovery_agree() {
    // Every pair reported by self-discovery must also be reported by a
    // direct search from its reference side — one spec per set, run as a
    // batch — and vice versa.
    let corpus = silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: 250,
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.25,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let discovery = engine.discover_self_parallel(1);
    let specs: Vec<QuerySpec> = corpus.iter().cloned().map(QuerySpec::new).collect();
    let mut from_search = Vec::new();
    for (rid, out) in (0u32..).zip(engine.execute_batch(&specs, 0)) {
        for (sid, score) in out.hits {
            if sid != rid {
                from_search.push((rid, sid, score));
            }
        }
    }
    let d: Vec<(u32, u32)> = discovery.pairs.iter().map(|p| (p.r, p.s)).collect();
    let s: Vec<(u32, u32)> = from_search.iter().map(|&(r, s, _)| (r, s)).collect();
    assert_eq!(d, s);
}

#[test]
fn funnel_counts_are_sane_at_scale() {
    let corpus = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 800,
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.5,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let out = engine.discover_self_parallel(1);
    let st = out.stats;
    assert!(st.candidates >= st.after_check);
    assert!(st.after_check >= st.after_nn);
    assert_eq!(st.after_nn, st.verified);
    assert!(st.verified >= st.results);
    assert_eq!(st.results, out.pairs.len());
    // The funnel must actually prune at these thresholds.
    assert!(
        st.after_nn * 4 < st.candidates.max(1),
        "filters pruned too little: {st:?}"
    );
    // Signature-based candidate selection must beat the quadratic space.
    let m = collection.len();
    assert!(st.candidates < m * (m - 1), "no pruning at all?");
}

#[test]
fn degenerate_edit_configuration_still_exact() {
    // q = 4 with δ = 0.7 violates q < δ/(1−δ) ≈ 2.33, so most passes are
    // degenerate (§7.3) — the engine must fall back to comparing against
    // every set and still match brute force.
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 60,
        words_per_set: (2, 4),
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q: 4 }));
    let cfg = EngineConfig {
        metric: RelatednessMetric::Similarity,
        similarity: SimilarityFunction::Eds { q: 4 },
        delta: 0.7,
        alpha: 0.0,
        scheme: SignatureScheme::Weighted,
        filter: FilterKind::CheckAndNearestNeighbor,
        reduction: false,
    };
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let fast = engine.discover_self_parallel(1);
    assert!(fast.stats.degenerate > 0, "expected degenerate passes");
    let slow = silkmoth::brute::discover_self(&collection, &cfg);
    let f: Vec<(u32, u32)> = fast.pairs.iter().map(|p| (p.r, p.s)).collect();
    let s: Vec<(u32, u32)> = slow.iter().map(|p| (p.r, p.s)).collect();
    assert_eq!(f, s);
}

#[test]
fn reduction_fires_and_preserves_results_at_scale() {
    let corpus = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 150,
        values_per_set: (40, 80),
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    let base = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.0,
    );
    let with = Engine::new(collection.clone(), base)
        .unwrap()
        .discover_self_parallel(1);
    let mut cfg2 = base;
    cfg2.reduction = false;
    let without = Engine::new(collection.clone(), cfg2)
        .unwrap()
        .discover_self_parallel(1);
    assert!(with.stats.reduced_pairs > 0, "reduction should fire");
    assert_eq!(with.pairs.len(), without.pairs.len());
    for (a, b) in with.pairs.iter().zip(&without.pairs) {
        assert_eq!((a.r, a.s), (b.r, b.s));
        assert!((a.score - b.score).abs() < 1e-9);
    }
    // Reduction does strictly less similarity work in verification.
    assert!(with.stats.sim_evals <= without.stats.sim_evals);
}
