//! The paper's worked examples (Tables 1–2, Examples 1–13), executed
//! end-to-end against the public API. Each test cites the example it
//! reproduces.

use silkmoth::core::{explain_pair, generate_signature, SigKind, SigParams, Verdict};
use std::sync::Arc;

use silkmoth::{
    Collection, Engine, EngineConfig, FilterKind, InvertedIndex, QueryOutput, QuerySpec,
    RelatednessMetric, SetRecord, SignatureScheme, SimilarityFunction, Tokenization,
};

fn table2() -> (Collection, silkmoth::SetRecord) {
    silkmoth::collection::paper_example::table2()
}

fn tid(i: usize) -> u32 {
    silkmoth::collection::paper_example::tid(i)
}

/// RELATED SET SEARCH from `r` at the engine's δ.
fn search_from(engine: &Engine, r: &SetRecord) -> QueryOutput {
    engine.execute(&QuerySpec::new(
        r.elements.iter().map(|e| e.text.to_string()).collect(),
    ))
}

/// Example 1: containment and similarity of Table 1's Address/Location
/// columns under Jaccard with α = 0.2.
///
/// Note: the paper reports per-element similarities (1/3, 1/3, 3/5); under
/// distinct-whitespace-token Jaccard the exact alignments differ slightly
/// (3/7, 1/4, 3/7) but the structure — all three Location rows align with
/// their Address counterparts — is identical.
#[test]
fn example1_table1_alignment() {
    let location = vec![
        "77 Mass Ave Boston MA",
        "5th St 02115 Seattle WA",
        "77 5th St Chicago IL",
    ];
    let address = vec![
        "77 Massachusetts Avenue Boston MA",
        "Fifth Street Seattle MA 02115",
        "77 Fifth Street Chicago IL",
        "One Kendall Square Cambridge MA",
    ];
    let corpus = vec![address];
    let collection = Arc::new(Collection::build(&corpus, Tokenization::Whitespace));
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.3,
        0.2,
    );
    let engine = Engine::new(collection.clone(), cfg).unwrap();
    let r = collection.encode_set(&location);
    let out = search_from(&engine, &r);
    assert_eq!(out.hits.len(), 1);
    let contain = out.hits[0].1;
    // Under our tokenization: (3/7 + 1/4 + 3/7) / 3 ≈ 0.369.
    assert!((contain - (3.0 / 7.0 + 0.25 + 3.0 / 7.0) / 3.0).abs() < 1e-9);

    // Similarity metric on the same pair (Definition 1).
    let cfg_sim = EngineConfig {
        metric: RelatednessMetric::Similarity,
        delta: 0.15,
        ..cfg
    };
    let engine = Engine::new(collection.clone(), cfg_sim).unwrap();
    let out = search_from(&engine, &r);
    assert_eq!(out.hits.len(), 1);
    let m = 3.0 / 7.0 + 0.25 + 3.0 / 7.0;
    assert!((out.hits[0].1 - m / (3.0 + 4.0 - m)).abs() < 1e-9);
}

/// Example 2: contain(R, S4) ≈ 0.743 > 0.7 via alignments
/// r1→s41 (0.8), r2→s42 (1.0), r3→s43 (3/7); S1–S3 all below δ.
#[test]
fn example2_search_returns_only_s4() {
    let (c, r) = table2();
    let cfg = EngineConfig::full(
        RelatednessMetric::Containment,
        SimilarityFunction::Jaccard,
        0.7,
        0.0,
    );
    let engine = Engine::new(c.clone(), cfg).unwrap();
    let out = search_from(&engine, &r);
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].0, 3);
    let expected = (0.8 + 1.0 + 3.0 / 7.0) / 3.0;
    assert!((out.hits[0].1 - expected).abs() < 1e-9);
}

/// Example 3: with the Example 6 weighted signature the initial candidates
/// are S2, S3, S4 and the verified result is S4.
#[test]
fn example3_candidate_funnel() {
    let (c, r) = table2();
    let cfg = EngineConfig {
        metric: RelatednessMetric::Containment,
        similarity: SimilarityFunction::Jaccard,
        delta: 0.7,
        alpha: 0.0,
        scheme: SignatureScheme::Weighted,
        filter: FilterKind::None,
        reduction: false,
    };
    let engine = Engine::new(c.clone(), cfg).unwrap();
    let out = search_from(&engine, &r);
    assert_eq!(out.stats.candidates, 3, "S2, S3, S4");
    assert_eq!(out.stats.verified, 3);
    assert_eq!(out.hits.len(), 1);
}

/// Examples 4–6: R^T spans t1..t12; the Example 6 signature
/// K^T = {t8, t9, t10, t11, t12} is valid in the weighted scheme with
/// Σ (|ri|−|ki|)/|ri| = 2 < θ = 2.1.
#[test]
fn examples4_to_6_weighted_signature() {
    let (c, r) = table2();
    assert_eq!(r.all_tokens().len(), 12);
    let index = InvertedIndex::build(&c);
    let sig = generate_signature(
        &r,
        SignatureScheme::Weighted,
        SigParams {
            theta: 2.1,
            alpha: 0.0,
            kind: SigKind::Jaccard,
        },
        &index,
    );
    assert_eq!(
        sig.flat_tokens(),
        vec![tid(8), tid(9), tid(10), tid(11), tid(12)]
    );
    assert!((sig.sum_bound - 2.0).abs() < 1e-12);
}

/// Example 5: the unweighted scheme removes c − 1 = 2 token occurrences.
#[test]
fn example5_unweighted_removal_count() {
    let (c, r) = table2();
    let index = InvertedIndex::build(&c);
    let sig = generate_signature(
        &r,
        SignatureScheme::Unweighted,
        SigParams {
            theta: 2.1,
            alpha: 0.0,
            kind: SigKind::Jaccard,
        },
        &index,
    );
    // 15 token occurrences minus 2 removed = 13 units kept.
    let kept: usize = sig.elems.iter().map(|e| e.units).sum();
    assert_eq!(kept, 13);
}

/// Example 7: greedy cost/value ordering selects t12, t11, t10, t9, t8.
#[test]
fn example7_greedy_costs() {
    let (c, _) = table2();
    let index = InvertedIndex::build(&c);
    let want = [9, 8, 7, 6, 6, 6, 5, 3, 3, 1, 1, 1];
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(index.cost(tid(i + 1)), w);
    }
}

/// Examples 8 & 9, as the pass runs them. Example 8: the check filter
/// rejects S2 (Jac(r1, s21) = 0.6 < 0.8, Jac(r2, s23) = 0.25 < 0.6).
/// Example 9 has the NN filter reject S3 with the early-termination
/// estimate 5/6 + 0.125 + 0.6 < 2.1, after searching r2's nearest
/// neighbor. The pass departs there: §5.2's computation reuse hands it
/// r1's exact 5/6 from the posting walk, and with the signature's bounds
/// for r2 and r3 its cheap bound 5/6 + 0.6 + 0.6 ≈ 2.033 is already below
/// need 2.1, so S3 is dropped before any nearest-neighbor search. S4 is
/// the one candidate the NN filter examines: it refines r3's bound 0.6 to
/// Jac(r3, s43) = 3/7, and S4 is related at 0.8 + 1 + 3/7.
#[test]
fn examples8_and_9_filter_internals() {
    let (c, r) = table2();
    let cfg = EngineConfig {
        metric: RelatednessMetric::Containment,
        similarity: SimilarityFunction::Jaccard,
        delta: 0.7,
        alpha: 0.0,
        scheme: SignatureScheme::Weighted,
        filter: FilterKind::CheckAndNearestNeighbor,
        reduction: false,
    };
    let engine = Engine::new(c, cfg).unwrap();
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

    // S1 holds no signature token.
    assert_eq!(explain_pair(&engine, &r, 0).verdict, Verdict::NotCandidate);

    let s2 = explain_pair(&engine, &r, 1);
    assert_eq!(s2.verdict, Verdict::CheckFilter, "{s2:?}");
    assert!(close(s2.elements[0].best_shared_sim, 0.6));
    assert!(close(s2.elements[1].best_shared_sim, 0.25));

    let s3 = explain_pair(&engine, &r, 2);
    assert_eq!(s3.verdict, Verdict::CheapBound, "{s3:?}");
    assert!(close(s3.elements[0].best_shared_sim, 5.0 / 6.0));
    assert!(close(s3.cheap_bound.unwrap(), 5.0 / 6.0 + 0.6 + 0.6));
    assert!(close(s3.need.unwrap(), 2.1));
    assert_eq!(s3.nn_upper_bound, None);

    let s4 = explain_pair(&engine, &r, 3);
    assert_eq!(s4.verdict, Verdict::Related, "{s4:?}");
    assert_eq!(s4.elements[0].nearest_neighbor_sim, None);
    assert_eq!(s4.elements[1].nearest_neighbor_sim, None);
    assert!(close(
        s4.elements[2].nearest_neighbor_sim.unwrap(),
        3.0 / 7.0
    ));
    assert!(close(s4.nn_upper_bound.unwrap(), 0.8 + 1.0 + 3.0 / 7.0));
    assert!(close(s4.matching_score.unwrap(), 0.8 + 1.0 + 3.0 / 7.0));
}

/// Example 10: with α = 0.7, M^T = {t6, t8, t9, t10, t11, t12} is a
/// sim-thresh signature — caps are ⌊0.3·5⌋ + 1 = 2 per element.
#[test]
fn example10_sim_thresh_cap() {
    use silkmoth::core::signature::sim_thresh_cap;
    assert_eq!(sim_thresh_cap(5, 5, 0.7, SigKind::Jaccard), Some(2));
}

/// Examples 11 & 12: at α = δ = 0.7 the skyline heuristic returns
/// L^T = K^T = {t8, t9, t10, t11, t12}.
#[test]
fn example12_skyline() {
    let (c, r) = table2();
    let index = InvertedIndex::build(&c);
    let sig = generate_signature(
        &r,
        SignatureScheme::Skyline,
        SigParams {
            theta: 2.1,
            alpha: 0.7,
            kind: SigKind::Jaccard,
        },
        &index,
    );
    assert_eq!(
        sig.flat_tokens(),
        vec![tid(8), tid(9), tid(10), tid(11), tid(12)]
    );
}

/// Example 13: the dichotomy heuristic saturates r3 after t12, t11 and
/// stops with L^T = {t11, t12}.
#[test]
fn example13_dichotomy() {
    let (c, r) = table2();
    let index = InvertedIndex::build(&c);
    let sig = generate_signature(
        &r,
        SignatureScheme::Dichotomy,
        SigParams {
            theta: 2.1,
            alpha: 0.7,
            kind: SigKind::Jaccard,
        },
        &index,
    );
    assert_eq!(sig.flat_tokens(), vec![tid(11), tid(12)]);
    assert!(sig.elems[2].saturated);
}

/// §2.1's similarity values: Jac example and both edit similarities.
#[test]
fn section2_similarity_functions() {
    assert!(
        (silkmoth::text::jaccard_str("50 Vassar St MA", "50 Vassar Street MA") - 0.6).abs() < 1e-12
    );
    assert!(
        (silkmoth::text::eds("50 Vassar St MA", "50 Vassar Street MA") - 15.0 / 19.0).abs() < 1e-12
    );
    let ld = silkmoth::text::lev::levenshtein("50 Vassar St MA", "50 Vassar Street MA");
    assert_eq!(ld, 4);
    let neds = silkmoth::text::neds("50 Vassar St MA", "50 Vassar Street MA");
    assert!((neds - (1.0 - 4.0 / 19.0)).abs() < 1e-12);
}

/// All five schemes, end to end, return exactly {S4} for the running
/// containment query at δ = 0.7 — Lemma 1's "no false negatives" on the
/// paper's own example.
#[test]
fn all_schemes_agree_on_running_example() {
    let (c, r) = table2();
    for scheme in [
        SignatureScheme::Unweighted,
        SignatureScheme::Weighted,
        SignatureScheme::CombinedUnweighted,
        SignatureScheme::Skyline,
        SignatureScheme::Dichotomy,
    ] {
        for alpha in [0.0, 0.25, 0.5, 0.7] {
            let cfg = EngineConfig {
                metric: RelatednessMetric::Containment,
                similarity: SimilarityFunction::Jaccard,
                delta: 0.7,
                alpha,
                scheme,
                filter: FilterKind::CheckAndNearestNeighbor,
                reduction: alpha == 0.0,
            };
            let engine = Engine::new(c.clone(), cfg).unwrap();
            let out = search_from(&engine, &r);
            let ids: Vec<u32> = out.hits.iter().map(|x| x.0).collect();
            // Jac(r3, s43) = 3/7 ≈ 0.43 is clamped to zero once α exceeds
            // it, dropping contain(R, S4) to 1.8/3 = 0.6 < δ.
            let expected: Vec<u32> = if alpha <= 3.0 / 7.0 { vec![3] } else { vec![] };
            assert_eq!(ids, expected, "{scheme:?} α={alpha}");
        }
    }
}
