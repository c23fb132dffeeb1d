//! The paper's central correctness promise (§1): SilkMoth produces
//! **exactly** the brute-force output — no false negatives, no false
//! positives — for every combination of metric, similarity function,
//! signature scheme, filter level, and threshold.
//!
//! These tests sweep that grid over small random corpora from all three
//! application generators.

use std::sync::Arc;

use silkmoth::{
    brute, Collection, Engine, EngineConfig, FilterKind, QuerySpec, RelatednessMetric,
    SignatureScheme, SimilarityFunction, Tokenization,
};

fn assert_equivalent(collection: &Arc<Collection>, cfg: EngineConfig, label: &str) {
    let engine = Engine::new(Arc::clone(collection), cfg).expect("engine construction");
    let fast = engine.discover_self_parallel(1);
    let slow = brute::discover_self(collection, &cfg);
    let f: Vec<(u32, u32)> = fast.pairs.iter().map(|p| (p.r, p.s)).collect();
    let s: Vec<(u32, u32)> = slow.iter().map(|p| (p.r, p.s)).collect();
    assert_eq!(f, s, "pair mismatch: {label}");
    for (a, b) in fast.pairs.iter().zip(&slow) {
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "score mismatch at ({}, {}): {label}",
            a.r,
            a.s
        );
    }
}

const ALL_SCHEMES: [SignatureScheme; 5] = [
    SignatureScheme::Unweighted,
    SignatureScheme::Weighted,
    SignatureScheme::CombinedUnweighted,
    SignatureScheme::Skyline,
    SignatureScheme::Dichotomy,
];

const ALL_FILTERS: [FilterKind; 3] = [
    FilterKind::None,
    FilterKind::Check,
    FilterKind::CheckAndNearestNeighbor,
];

#[test]
fn jaccard_schema_matching_grid() {
    let corpus = silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: 90,
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    for metric in [
        RelatednessMetric::Similarity,
        RelatednessMetric::Containment,
    ] {
        for scheme in ALL_SCHEMES {
            for filter in ALL_FILTERS {
                for (delta, alpha) in [(0.7, 0.0), (0.75, 0.25), (0.8, 0.5), (0.7, 0.75)] {
                    for reduction in [false, true] {
                        let cfg = EngineConfig {
                            metric,
                            similarity: SimilarityFunction::Jaccard,
                            delta,
                            alpha,
                            scheme,
                            filter,
                            reduction,
                        };
                        assert_equivalent(
                            &collection,
                            cfg,
                            &format!("{metric:?}/{scheme:?}/{filter:?}/δ={delta}/α={alpha}/red={reduction}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn jaccard_inclusion_dependency_grid() {
    let corpus = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 60,
        values_per_set: (5, 15),
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    for scheme in ALL_SCHEMES {
        for (delta, alpha) in [(0.7, 0.0), (0.7, 0.5), (0.85, 0.25)] {
            let cfg = EngineConfig {
                metric: RelatednessMetric::Containment,
                similarity: SimilarityFunction::Jaccard,
                delta,
                alpha,
                scheme,
                filter: FilterKind::CheckAndNearestNeighbor,
                reduction: true,
            };
            assert_equivalent(&collection, cfg, &format!("{scheme:?}/δ={delta}/α={alpha}"));
        }
    }
}

#[test]
fn eds_string_matching_grid() {
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 70,
        words_per_set: (3, 8),
        ..Default::default()
    });
    // α = 0.8 → q = 3 (footnote 11).
    let q = 3;
    let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q }));
    for scheme in ALL_SCHEMES {
        for (delta, alpha) in [(0.7, 0.8), (0.8, 0.8), (0.85, 0.85)] {
            let cfg = EngineConfig {
                metric: RelatednessMetric::Similarity,
                similarity: SimilarityFunction::Eds { q },
                delta,
                alpha,
                scheme,
                filter: FilterKind::CheckAndNearestNeighbor,
                reduction: false,
            };
            assert_equivalent(
                &collection,
                cfg,
                &format!("Eds {scheme:?}/δ={delta}/α={alpha}"),
            );
        }
    }
}

#[test]
fn eds_alpha_zero_weighted_schemes() {
    // α = 0 with edit similarity exercises the degenerate-signature path
    // (§7.3: the weighted scheme can be empty) and the no-shared-q-gram
    // bound in the NN filter.
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 40,
        words_per_set: (2, 5),
        ..Default::default()
    });
    for q in [2, 3] {
        let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q }));
        for scheme in [
            SignatureScheme::Weighted,
            SignatureScheme::Skyline,
            SignatureScheme::Dichotomy,
        ] {
            for filter in ALL_FILTERS {
                for delta in [0.6, 0.75] {
                    let cfg = EngineConfig {
                        metric: RelatednessMetric::Similarity,
                        similarity: SimilarityFunction::Eds { q },
                        delta,
                        alpha: 0.0,
                        scheme,
                        filter,
                        reduction: true,
                    };
                    assert_equivalent(
                        &collection,
                        cfg,
                        &format!("Eds α=0 q={q} {scheme:?}/{filter:?}/δ={delta}"),
                    );
                }
            }
        }
    }
}

#[test]
fn neds_variant() {
    let corpus = silkmoth::datagen::dblp_titles(&silkmoth::DblpConfig {
        num_sets: 50,
        words_per_set: (3, 6),
        ..Default::default()
    });
    let q = 3;
    let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q }));
    for (delta, alpha) in [(0.7, 0.8), (0.8, 0.0)] {
        let cfg = EngineConfig {
            metric: RelatednessMetric::Similarity,
            similarity: SimilarityFunction::NEds { q },
            delta,
            alpha,
            scheme: SignatureScheme::Dichotomy,
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: true, // must be silently skipped for NEds
        };
        assert_equivalent(&collection, cfg, &format!("NEds δ={delta} α={alpha}"));
    }
}

#[test]
fn search_mode_matches_brute() {
    let corpus = silkmoth::datagen::webtable_columns(&silkmoth::ColumnsConfig {
        num_sets: 80,
        values_per_set: (5, 20),
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    let refs = silkmoth::datagen::pick_references(&corpus, 15, 4, 99);
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.5,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    for &rid in &refs {
        let r = collection.set(rid as u32);
        let fast = engine.execute(&QuerySpec::new(corpus[rid].clone()));
        let slow = brute::search(r, &collection, &cfg);
        let f: Vec<u32> = fast.hits.iter().map(|x| x.0).collect();
        let s: Vec<u32> = slow.iter().map(|x| x.0).collect();
        assert_eq!(f, s, "reference {rid}");
    }
}

#[test]
fn pathological_corpora() {
    // Empty elements, duplicate elements, single-token sets, identical sets.
    let raw: Vec<Vec<&str>> = vec![
        vec!["", "a b", "a b"],
        vec!["a b", "", "c"],
        vec!["x"],
        vec!["x"],
        vec!["a b c d e f g h"],
        vec![""],
    ];
    let collection = Arc::new(Collection::build(&raw, Tokenization::Whitespace));
    for metric in [
        RelatednessMetric::Similarity,
        RelatednessMetric::Containment,
    ] {
        for scheme in [SignatureScheme::Weighted, SignatureScheme::Dichotomy] {
            for (delta, alpha) in [(0.5, 0.0), (0.8, 0.4)] {
                let cfg = EngineConfig {
                    metric,
                    similarity: SimilarityFunction::Jaccard,
                    delta,
                    alpha,
                    scheme,
                    filter: FilterKind::CheckAndNearestNeighbor,
                    reduction: true,
                };
                assert_equivalent(
                    &collection,
                    cfg,
                    &format!("pathological {metric:?}/{scheme:?}/δ={delta}/α={alpha}"),
                );
            }
        }
    }
}

#[test]
fn dice_and_cosine_extension_grid() {
    // The §2.1 extension functions: same exactness guarantee, adapted
    // weighted-scheme bounds, reduction never applied (their duals are not
    // metrics).
    let corpus = silkmoth::datagen::webtable_schemas(&silkmoth::SchemaConfig {
        num_sets: 80,
        ..Default::default()
    });
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    for similarity in [SimilarityFunction::Dice, SimilarityFunction::Cosine] {
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for scheme in ALL_SCHEMES {
                for (delta, alpha) in [(0.7, 0.0), (0.8, 0.5), (0.75, 0.75)] {
                    let cfg = EngineConfig {
                        metric,
                        similarity,
                        delta,
                        alpha,
                        scheme,
                        filter: FilterKind::CheckAndNearestNeighbor,
                        reduction: true,
                    };
                    assert_equivalent(
                        &collection,
                        cfg,
                        &format!("{similarity:?}/{metric:?}/{scheme:?}/δ={delta}/α={alpha}"),
                    );
                }
            }
        }
    }
}
