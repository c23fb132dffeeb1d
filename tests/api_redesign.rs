//! Integration tests for the owned, shareable engine API: construction
//! validation, the per-query knobs of a `QuerySpec` (top-k, floor), and
//! parallel batched discovery over external references.

use std::sync::Arc;

use silkmoth::{
    Collection, ConfigError, Engine, EngineConfig, PassStats, QuerySpec, RelatednessMetric,
    SignatureScheme, SimilarityFunction, Tokenization,
};

/// A schema-matching workload with planted related clusters.
fn schema_corpus(n: usize) -> Vec<Vec<String>> {
    silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: n,
        ..Default::default()
    })
}

/// The spec for stored set `rid`'s element texts.
fn spec_of(engine: &Engine, rid: u32) -> QuerySpec {
    let set = engine.collection().set(rid);
    QuerySpec::new(set.elements.iter().map(|e| e.text.to_string()).collect())
}

/// Full SilkMoth over Jaccard at `delta`, α = 0.
fn jaccard(metric: RelatednessMetric, delta: f64) -> EngineConfig {
    EngineConfig::full(metric, SimilarityFunction::Jaccard, delta, 0.0)
}

fn schema_engine(n: usize, metric: RelatednessMetric, delta: f64) -> Engine {
    let corpus = schema_corpus(n);
    let collection = Collection::build(&corpus, Tokenization::Whitespace);
    Engine::new(collection, jaccard(metric, delta)).unwrap()
}

#[test]
fn engine_is_lifetime_free_send_sync() {
    // Compile-time assertion: the engine can be stored in server state
    // ('static), moved across threads (Send), and shared (Sync).
    fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    assert_send_sync_static::<Engine>();
    assert_send_sync_static::<Arc<Engine>>();
}

#[test]
fn engine_shared_behind_arc_serves_concurrent_queries() {
    let engine = Arc::new(schema_engine(120, RelatednessMetric::Similarity, 0.6));
    // Serial ground truth for three references.
    let rids = [0u32, 13, 47];
    let want: Vec<_> = rids
        .iter()
        .map(|&rid| engine.execute(&spec_of(&engine, rid)).hits)
        .collect();
    // The same engine, queried concurrently from worker threads — the
    // server-handler shape the old borrowed Engine<'a> could not express.
    let handles: Vec<_> = rids
        .iter()
        .map(|&rid| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.execute(&spec_of(&engine, rid)).hits)
        })
        .collect();
    for (h, want) in handles.into_iter().zip(want) {
        assert_eq!(h.join().unwrap(), want);
    }
}

#[test]
fn engine_new_rejects_invalid_configurations() {
    let tiny = || Collection::build(&[vec!["a b", "c d"]], Tokenization::Whitespace);
    let similarity = |delta| jaccard(RelatednessMetric::Similarity, delta);
    assert!(matches!(
        Engine::new(tiny(), similarity(0.0)),
        Err(ConfigError::DeltaOutOfRange(_))
    ));
    assert!(matches!(
        Engine::new(tiny(), similarity(1.2)),
        Err(ConfigError::DeltaOutOfRange(_))
    ));
    assert!(matches!(
        Engine::new(
            tiny(),
            EngineConfig {
                alpha: 1.0,
                ..similarity(0.7)
            }
        ),
        Err(ConfigError::AlphaOutOfRange(_))
    ));
    // Whitespace tokenization cannot serve edit similarity.
    let eds = |q, alpha| {
        EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q },
            0.7,
            alpha,
        )
    };
    assert!(matches!(
        Engine::new(tiny(), eds(2, 0.7)),
        Err(ConfigError::TokenizationMismatch { .. })
    ));
    // Footnote 11: the unweighted scheme with edit similarity needs
    // α > q/(q+1).
    let qgram = Collection::build(&[vec!["abcd", "bcde"]], Tokenization::QGram { q: 3 });
    let unweighted = EngineConfig {
        scheme: SignatureScheme::Unweighted,
        ..eds(3, 0.5)
    };
    assert!(matches!(
        Engine::new(qgram, unweighted),
        Err(ConfigError::UnweightedEditNeedsAlpha { .. })
    ));
}

#[test]
fn query_floor_is_validated_not_clamped() {
    let engine = schema_engine(40, RelatednessMetric::Similarity, 0.7);
    for bad in [-0.5, 1.0001, f64::NAN, f64::NEG_INFINITY] {
        match spec_of(&engine, 0).with_floor(bad) {
            Err(ConfigError::FloorOutOfRange(v)) => {
                assert!(v.is_nan() || v == bad)
            }
            other => panic!("floor {bad} should be rejected, got {other:?}"),
        }
    }
    // Boundary values are legal, and execute: floor 0 relates every set.
    let all = engine.execute(&spec_of(&engine, 0).with_floor(0.0).unwrap());
    assert_eq!(all.hits.len(), engine.collection().len());
    let exact = engine.execute(&spec_of(&engine, 0).with_floor(1.0).unwrap());
    assert!(exact.hits.iter().any(|&(sid, _)| sid == 0));
}

#[test]
fn query_topk_ranks_and_breaks_ties_deterministically() {
    let engine = schema_engine(150, RelatednessMetric::Similarity, 0.9);
    for rid in [0u32, 9, 77] {
        let spec = spec_of(&engine, rid).with_floor(0.25).unwrap();
        let all = engine.execute(&spec).hits;
        let got = engine.execute(&spec.with_top_k(5)).hits;
        // Documented order: score descending, ties by ascending set id.
        let mut want = all.clone();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        want.truncate(5);
        assert_eq!(got, want, "rid={rid}");
    }
    // k = 0 yields nothing; huge k yields everything.
    let spec = spec_of(&engine, 0).with_floor(0.3).unwrap();
    assert!(engine.execute(&spec.clone().with_top_k(0)).hits.is_empty());
    let all = engine.execute(&spec).hits.len();
    assert_eq!(engine.execute(&spec.with_top_k(usize::MAX)).hits.len(), all);
}

/// The acceptance-criteria test: parallel batched discovery over
/// external references — one spec per reference — on a ≥200-set datagen
/// workload is byte-identical to serial: pairs, scores, and merged
/// `PassStats`.
#[test]
fn discover_parallel_external_refs_identical_to_serial() {
    let corpus = schema_corpus(250);
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    // External references: perturbations of corpus sets (every other
    // attribute of every fourth schema), so some match and some don't.
    let specs: Vec<QuerySpec> = corpus
        .iter()
        .step_by(4)
        .map(|set| QuerySpec::new(set.iter().step_by(2).cloned().collect()))
        .collect();
    assert!(specs.len() >= 60);
    for metric in [
        RelatednessMetric::Similarity,
        RelatednessMetric::Containment,
    ] {
        let engine = Engine::new(Arc::clone(&collection), jaccard(metric, 0.5)).unwrap();
        // (reference, set, score bits) in (r, s) order, and the stats
        // of all the passes merged.
        let discover = |threads: usize| {
            let mut pairs = Vec::new();
            let mut stats = PassStats::default();
            for (r, out) in engine.execute_batch(&specs, threads).iter().enumerate() {
                pairs.extend(out.hits.iter().map(|&(s, score)| (r, s, score.to_bits())));
                stats.merge(&out.stats);
            }
            (pairs, stats)
        };
        let serial = discover(1);
        assert!(!serial.0.is_empty(), "workload must produce pairs");
        // threads = 0 (auto) is also identical.
        for threads in [2, 3, 4, 8, 0] {
            let parallel = discover(threads);
            assert_eq!(parallel.0, serial.0, "{metric:?} threads={threads}");
            assert_eq!(parallel.1, serial.1, "{metric:?} threads={threads}");
        }
    }
}

#[test]
fn engine_outlives_its_builder_scope() {
    // The lifetime-free engine can be returned from a constructor whose
    // locals die — impossible with the old Engine<'a>.
    fn make() -> Engine {
        let corpus = schema_corpus(30);
        let collection = Collection::build(&corpus, Tokenization::Whitespace);
        Engine::new(collection, jaccard(RelatednessMetric::Similarity, 0.6)).unwrap()
    }
    let engine = make();
    let out = engine.discover_self_parallel(1);
    assert_eq!(out.stats.results, out.pairs.len());
}
