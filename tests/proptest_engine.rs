//! Property-based end-to-end tests: on arbitrary random corpora and
//! thresholds, the engine's output equals brute force, signatures are
//! valid per Lemma 1/2, and per-stage candidate counts are monotone.

use proptest::prelude::*;
use std::sync::Arc;

use silkmoth::{
    brute, Collection, Engine, EngineConfig, FilterKind, RelatednessMetric, SignatureScheme,
    SimilarityFunction, Tokenization,
};

/// Strategy: a small random corpus over a tiny vocabulary so related
/// pairs appear organically.
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    let word = prop_oneof![
        Just("alpha"),
        Just("beta"),
        Just("gamma"),
        Just("delta"),
        Just("eps"),
        Just("zeta"),
        Just("eta"),
        Just("theta"),
    ];
    let element = proptest::collection::vec(word, 1..5).prop_map(|ws| ws.join(" "));
    let set = proptest::collection::vec(element, 1..5);
    proptest::collection::vec(set, 2..10)
}

fn scheme_strategy() -> impl Strategy<Value = SignatureScheme> {
    prop_oneof![
        Just(SignatureScheme::Unweighted),
        Just(SignatureScheme::Weighted),
        Just(SignatureScheme::CombinedUnweighted),
        Just(SignatureScheme::Skyline),
        Just(SignatureScheme::Dichotomy),
    ]
}

fn filter_strategy() -> impl Strategy<Value = FilterKind> {
    prop_oneof![
        Just(FilterKind::None),
        Just(FilterKind::Check),
        Just(FilterKind::CheckAndNearestNeighbor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_engine_equals_brute(
        corpus in corpus_strategy(),
        scheme in scheme_strategy(),
        filter in filter_strategy(),
        metric_sim in any::<bool>(),
        delta in 0.3f64..0.95,
        alpha in prop_oneof![Just(0.0), 0.2f64..0.8],
        reduction in any::<bool>(),
    ) {
        let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
        let cfg = EngineConfig {
            metric: if metric_sim { RelatednessMetric::Similarity } else { RelatednessMetric::Containment },
            similarity: SimilarityFunction::Jaccard,
            delta,
            alpha,
            scheme,
            filter,
            reduction,
        };
        let engine = Engine::new(collection.clone(), cfg).unwrap();
        let fast = engine.discover_self_parallel(1);
        let slow = brute::discover_self(&collection, &cfg);
        let f: Vec<(u32, u32)> = fast.pairs.iter().map(|p| (p.r, p.s)).collect();
        let s: Vec<(u32, u32)> = slow.iter().map(|p| (p.r, p.s)).collect();
        prop_assert_eq!(f, s);
        // Stage counts are monotone: candidates ≥ after_check ≥ after_nn ≥ results.
        let st = fast.stats;
        prop_assert!(st.candidates >= st.after_check);
        prop_assert!(st.after_check >= st.after_nn);
        prop_assert!(st.after_nn >= st.results);
    }

    #[test]
    fn prop_engine_equals_brute_edit(
        corpus in proptest::collection::vec(
            proptest::collection::vec("[ab]{1,6}", 1..4), 2..8),
        delta in 0.4f64..0.9,
        use_alpha in any::<bool>(),
        scheme in prop_oneof![
            Just(SignatureScheme::Weighted),
            Just(SignatureScheme::Skyline),
            Just(SignatureScheme::Dichotomy),
        ],
    ) {
        let q = 2;
        // α must exceed q/(q+1) = 2/3 to exercise the sim-thresh machinery
        // meaningfully; otherwise 0.
        let alpha = if use_alpha { 0.7 } else { 0.0 };
        let collection = Arc::new(Collection::build(&corpus, Tokenization::QGram { q }));
        let cfg = EngineConfig {
            metric: RelatednessMetric::Similarity,
            similarity: SimilarityFunction::Eds { q },
            delta,
            alpha,
            scheme,
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: true,
        };
        let engine = Engine::new(collection.clone(), cfg).unwrap();
        let fast = engine.discover_self_parallel(1);
        let slow = brute::discover_self(&collection, &cfg);
        let f: Vec<(u32, u32)> = fast.pairs.iter().map(|p| (p.r, p.s)).collect();
        let s: Vec<(u32, u32)> = slow.iter().map(|p| (p.r, p.s)).collect();
        prop_assert_eq!(f, s);
    }

    #[test]
    fn prop_signature_validity_lemma2_adversary(
        corpus in corpus_strategy(),
        delta in 0.3f64..0.95,
        scheme in scheme_strategy(),
    ) {
        // Lemma 1/2: for any generated (non-degenerate) signature and the
        // adversarial set S = {rᵢ \ kᵢ}, the matching score must be below
        // θ = δ|R| whenever S shares no token with the signature — i.e. a
        // set built to dodge the signature is provably unrelated.
        use silkmoth::core::{generate_signature, SigKind, SigParams};
        use silkmoth::InvertedIndex;

        let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
        let index = InvertedIndex::build(&collection);
        let r = collection.set(0);
        let theta = delta * r.len() as f64;
        let sig = generate_signature(
            r,
            scheme,
            SigParams { theta, alpha: 0.0, kind: SigKind::Jaccard },
            &index,
        );
        prop_assume!(!sig.degenerate);
        // Adversarial S: strip each element of its signature tokens.
        let adversary: Vec<String> = r
            .elements
            .iter()
            .zip(&sig.elems)
            .map(|(e, se)| {
                e.tokens()
                    .iter()
                    .filter(|t| !se.tokens.contains(t))
                    .map(|&t| collection.dict().token(t).to_owned())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let s_rec = collection.encode_set(&adversary);
        let phi = silkmoth::core::Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = silkmoth::core::VerifyCost::default();
        let m = silkmoth::core::matching_score(r, &s_rec, &phi, false, &mut cost);
        // The adversary shares no signature token, so validity demands
        // m < θ... but only when α = 0 schemes guarantee the weighted sum
        // bound; all our schemes do (check_prunable implies Σ < θ).
        if sig.check_prunable {
            prop_assert!(m < theta + 1e-9, "m = {m}, θ = {theta}");
        }
    }
}
