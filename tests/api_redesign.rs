//! Integration tests for the owned, shareable engine API: builder
//! validation, the fluent query layer (top-k, floor, streaming), and
//! parallel batched discovery over external references.

use std::sync::Arc;

use silkmoth::{
    Collection, ConfigError, Engine, RelatednessMetric, SignatureScheme, SimilarityFunction,
    Tokenization,
};

/// A schema-matching workload with planted related clusters.
fn schema_corpus(n: usize) -> Vec<Vec<String>> {
    silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: n,
        ..Default::default()
    })
}

fn schema_engine(n: usize, metric: RelatednessMetric, delta: f64) -> Engine {
    let corpus = schema_corpus(n);
    Engine::builder(Collection::build(&corpus, Tokenization::Whitespace))
        .metric(metric)
        .phi(SimilarityFunction::Jaccard)
        .delta(delta)
        .build()
        .unwrap()
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
        .map(|&rid| engine.search(engine.collection().set(rid)).results)
        .collect();
    // The same engine, queried concurrently from worker threads — the
    // server-handler shape the old borrowed Engine<'a> could not express.
    let handles: Vec<_> = rids
        .iter()
        .map(|&rid| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let r = engine.collection().set(rid).clone();
                engine.query(&r).run().unwrap().results
            })
        })
        .collect();
    for (h, want) in handles.into_iter().zip(want) {
        assert_eq!(h.join().unwrap(), want);
    }
}

#[test]
fn builder_rejects_invalid_configurations() {
    let tiny = || Collection::build(&[vec!["a b", "c d"]], Tokenization::Whitespace);
    assert!(matches!(
        Engine::builder(tiny()).delta(0.0).build(),
        Err(ConfigError::DeltaOutOfRange(_))
    ));
    assert!(matches!(
        Engine::builder(tiny()).delta(1.2).build(),
        Err(ConfigError::DeltaOutOfRange(_))
    ));
    assert!(matches!(
        Engine::builder(tiny()).alpha(1.0).build(),
        Err(ConfigError::AlphaOutOfRange(_))
    ));
    // Whitespace tokenization cannot serve edit similarity.
    assert!(matches!(
        Engine::builder(tiny())
            .phi(SimilarityFunction::Eds { q: 2 })
            .alpha(0.7)
            .build(),
        Err(ConfigError::TokenizationMismatch { .. })
    ));
    // Footnote 11: the unweighted scheme with edit similarity needs
    // α > q/(q+1).
    let qgram = Collection::build(&[vec!["abcd", "bcde"]], Tokenization::QGram { q: 3 });
    assert!(matches!(
        Engine::builder(qgram)
            .phi(SimilarityFunction::Eds { q: 3 })
            .alpha(0.5)
            .scheme(SignatureScheme::Unweighted)
            .build(),
        Err(ConfigError::UnweightedEditNeedsAlpha { .. })
    ));
}

#[test]
fn query_floor_is_validated_not_clamped() {
    let engine = schema_engine(40, RelatednessMetric::Similarity, 0.7);
    let r = engine.collection().set(0).clone();
    for bad in [-0.5, 1.0001, f64::NAN, f64::NEG_INFINITY] {
        match engine.query(&r).floor(bad).run() {
            Err(ConfigError::FloorOutOfRange(v)) => {
                assert!(v.is_nan() || v == bad)
            }
            other => panic!("floor {bad} should be rejected, got {other:?}"),
        }
    }
    // Boundary values are legal.
    assert!(engine.query(&r).floor(0.0).run().is_ok());
    assert!(engine.query(&r).floor(1.0).run().is_ok());
}

#[test]
fn query_topk_ranks_and_breaks_ties_deterministically() {
    let engine = schema_engine(150, RelatednessMetric::Similarity, 0.9);
    for rid in [0u32, 9, 77] {
        let r = engine.collection().set(rid).clone();
        let all = engine.query(&r).floor(0.25).run().unwrap().results;
        let got = engine.query(&r).floor(0.25).top_k(5).run().unwrap().results;
        // Documented order: score descending, ties by ascending set id.
        let mut want = all.clone();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        want.truncate(5);
        assert_eq!(got, want, "rid={rid}");
    }
    // k = 0 yields nothing; huge k yields everything.
    let r = engine.collection().set(0).clone();
    assert!(engine
        .query(&r)
        .floor(0.3)
        .top_k(0)
        .run()
        .unwrap()
        .results
        .is_empty());
    let all = engine.query(&r).floor(0.3).run().unwrap().results.len();
    assert_eq!(
        engine
            .query(&r)
            .floor(0.3)
            .top_k(usize::MAX)
            .run()
            .unwrap()
            .results
            .len(),
        all
    );
}

#[test]
fn query_iter_drained_equals_run() {
    let engine = schema_engine(200, RelatednessMetric::Similarity, 0.5);
    for rid in [0u32, 31, 150] {
        let r = engine.collection().set(rid).clone();
        let run = engine.query(&r).run().unwrap();
        let mut iter = engine.query(&r).iter().unwrap();
        let mut streamed: Vec<(u32, f64)> = iter.by_ref().collect();
        streamed.sort_unstable_by_key(|&(sid, _)| sid);
        assert_eq!(streamed.len(), run.results.len(), "rid={rid}");
        for (a, b) in streamed.iter().zip(&run.results) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "scores bit-identical");
        }
        assert_eq!(iter.stats(), run.stats, "rid={rid}");
    }
}

/// Search passes borrow their id-indexed scratch from the thread. Two
/// iterators alive at once on one thread, over collections of different
/// sizes, must each work on tables of their own: stepping them in turns
/// gives each exactly the answers it gives alone.
#[test]
fn interleaved_query_iters_over_two_collections_keep_their_own_answers() {
    let columns = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 300,
        num_pools: 3,
        pool_size: 40,
        ..Default::default()
    });
    let big = Engine::builder(Collection::build(&columns, Tokenization::Whitespace))
        .metric(RelatednessMetric::Containment)
        .phi(SimilarityFunction::Jaccard)
        .delta(0.3)
        .build()
        .unwrap();
    let small = schema_engine(60, RelatednessMetric::Similarity, 0.3);
    for (big_rid, small_rid) in [(0u32, 0u32), (17, 31), (299, 59)] {
        let rb = big.collection().set(big_rid).clone();
        let rs = small.collection().set(small_rid).clone();
        let alone_big: Vec<(u32, f64)> = big.query(&rb).iter().unwrap().collect();
        let alone_small: Vec<(u32, f64)> = small.query(&rs).iter().unwrap().collect();
        assert!(alone_big.len() > 1 && !alone_small.is_empty());

        // The small pass is staged while the big one holds the thread's
        // scratch, and the other way round.
        for big_first in [true, false] {
            let (mut ib, mut is);
            if big_first {
                ib = big.query(&rb).iter().unwrap();
                is = small.query(&rs).iter().unwrap();
            } else {
                is = small.query(&rs).iter().unwrap();
                ib = big.query(&rb).iter().unwrap();
            }
            let (mut got_big, mut got_small) = (Vec::new(), Vec::new());
            loop {
                let (b, s) = (ib.next(), is.next());
                got_big.extend(b);
                got_small.extend(s);
                if b.is_none() && s.is_none() {
                    break;
                }
            }
            assert_eq!(got_big, alone_big, "big_first={big_first}");
            assert_eq!(got_small, alone_small, "big_first={big_first}");
            assert_eq!(ib.stats(), big.query(&rb).run().unwrap().stats);
            assert_eq!(is.stats(), small.query(&rs).run().unwrap().stats);
        }
    }
}

#[test]
fn query_iter_early_termination_skips_verification_work() {
    let engine = schema_engine(200, RelatednessMetric::Similarity, 0.4);
    // Find a reference with several results so stopping early matters.
    let rid = (0..200u32)
        .find(|&rid| engine.search(engine.collection().set(rid)).results.len() >= 3)
        .expect("some reference has ≥3 related sets");
    let r = engine.collection().set(rid).clone();
    let full = engine.query(&r).run().unwrap();
    let mut iter = engine.query(&r).iter().unwrap();
    let first = iter.next().expect("at least one result");
    assert!(full.results.contains(&first));
    // Early termination: strictly fewer pairs verified than the full run.
    assert!(
        iter.stats().verified < full.stats.verified,
        "stopping early must save verification work ({} vs {})",
        iter.stats().verified,
        full.stats.verified
    );
}

/// The acceptance-criteria test: parallel batched discovery over
/// external references on a ≥200-set datagen workload is byte-identical
/// to serial — pairs, scores, and merged `PassStats`.
#[test]
fn discover_parallel_external_refs_identical_to_serial() {
    let corpus = schema_corpus(250);
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    // External references: re-encoded perturbations of corpus sets (every
    // other attribute of every fourth schema), so some match and some
    // don't.
    for metric in [
        RelatednessMetric::Similarity,
        RelatednessMetric::Containment,
    ] {
        let engine = Engine::builder(Arc::clone(&collection))
            .metric(metric)
            .phi(SimilarityFunction::Jaccard)
            .delta(0.5)
            .build()
            .unwrap();
        let refs: Vec<_> = corpus
            .iter()
            .step_by(4)
            .map(|set| {
                let strs: Vec<&str> = set.iter().step_by(2).map(String::as_str).collect();
                engine.collection().encode_set(&strs)
            })
            .collect();
        assert!(refs.len() >= 60);
        let serial = engine.discover(&refs);
        assert!(!serial.pairs.is_empty(), "workload must produce pairs");
        for threads in [2, 3, 4, 8] {
            let parallel = engine.discover_parallel(&refs, threads);
            assert_eq!(
                serial.pairs.len(),
                parallel.pairs.len(),
                "{metric:?} threads={threads}"
            );
            for (a, b) in serial.pairs.iter().zip(&parallel.pairs) {
                assert_eq!((a.r, a.s), (b.r, b.s), "{metric:?} threads={threads}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "scores bit-identical: {metric:?} threads={threads}"
                );
            }
            assert_eq!(serial.stats, parallel.stats, "{metric:?} threads={threads}");
        }
        // threads = 0 (auto) is also identical.
        let auto = engine.discover_parallel(&refs, 0);
        assert_eq!(serial.pairs.len(), auto.pairs.len());
        assert_eq!(serial.stats, auto.stats);
    }
}

#[test]
fn engine_outlives_its_builder_scope() {
    // The lifetime-free engine can be returned from a constructor whose
    // locals die — impossible with the old Engine<'a>.
    fn make() -> Engine {
        let corpus = schema_corpus(30);
        let collection = Collection::build(&corpus, Tokenization::Whitespace);
        Engine::builder(collection).delta(0.6).build().unwrap()
    }
    let engine = make();
    let out = engine.discover_self();
    assert_eq!(out.stats.results, out.pairs.len());
}
