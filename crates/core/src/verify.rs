//! Verification: maximum matching score, relatedness metrics, size checks
//! (§5.3, §5.4 and footnote 6).

use crate::config::{EngineConfig, RelatednessMetric, VERIFY_EPS};
use crate::phi::Phi;
use silkmoth_collection::SetRecord;
use silkmoth_matching::{
    max_weight_assignment, reduce_identical, sparse_max_matching, Edge, WeightMatrix,
};

/// Counters describing one verification call, for instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCost {
    /// φ evaluations performed while building the weight matrix.
    pub sim_evals: u64,
    /// Identical pairs removed by the reduction (0 when it did not apply).
    pub reduced_pairs: u64,
}

/// Computes the maximum matching score `|R ∩̃_φα S|` (§2.1), applying the
/// triangle-inequality reduction (§5.3) when the configuration allows it.
/// Every cell of the weight matrix is a fresh [`Phi::eval`]; a search pass
/// takes them from its φ table instead (`matching_score_over`, the same
/// fill and the same solvers).
pub fn matching_score(
    r: &SetRecord,
    s: &SetRecord,
    phi: &Phi,
    use_reduction: bool,
    cost: &mut VerifyCost,
) -> f64 {
    let (sim_evals, reduced_pairs) = (&mut cost.sim_evals, &mut cost.reduced_pairs);
    let evaluated = |i: usize, j: usize| {
        *sim_evals += 1;
        phi.eval(&r.elements[i], &s.elements[j])
    };
    let edges = &mut Vec::new();
    matching_score_over(r, s, phi, use_reduction, edges, reduced_pairs, evaluated)
}

/// [`matching_score`] over any source of cells: `cell(i, j)` is
/// `φα(rᵢ, sⱼ)`, asked for once per cell of the matrix that is solved —
/// the whole of it, or what the reduction leaves. With α > 0 most cells
/// are exactly zero (clamped) and zero edges never improve a non-negative
/// matching, so the positive ones go to `edges` (cleared first; the
/// caller's buffer) and are solved alone: same score, smaller Hungarian
/// instance.
pub(crate) fn matching_score_over(
    r: &SetRecord,
    s: &SetRecord,
    phi: &Phi,
    use_reduction: bool,
    edges: &mut Vec<Edge>,
    reduced_pairs: &mut u64,
    mut cell: impl FnMut(usize, usize) -> f64,
) -> f64 {
    if r.is_empty() || s.is_empty() {
        return 0.0;
    }
    let reduction = use_reduction.then(|| {
        let r_keys: Vec<_> = r.elements.iter().map(|e| phi.identity_key(e)).collect();
        let s_keys: Vec<_> = s.elements.iter().map(|e| phi.identity_key(e)).collect();
        reduce_identical(&r_keys, &s_keys)
    });
    let (rows, cols) = reduction.as_ref().map_or((r.len(), s.len()), |red| {
        (red.rest_r.len(), red.rest_s.len())
    });
    let sparse = phi.alpha() > 0.0;
    let mut dense = if sparse {
        WeightMatrix::zeros(0, 0)
    } else {
        WeightMatrix::zeros(rows, cols)
    };
    edges.clear();
    for j in 0..cols {
        for i in 0..rows {
            let weight = match &reduction {
                Some(red) => cell(red.rest_r[i], red.rest_s[j]),
                None => cell(i, j),
            };
            if !sparse {
                dense.set(i, j, weight);
            } else if weight > 0.0 {
                edges.push(Edge {
                    row: i,
                    col: j,
                    weight,
                });
            }
        }
    }
    let score = if sparse {
        sparse_max_matching(edges)
    } else {
        max_weight_assignment(&dense).score
    };
    match reduction {
        Some(red) => {
            *reduced_pairs += red.identical_pairs as u64;
            red.identical_pairs as f64 + score
        }
        None => score,
    }
}

/// Relatedness of `R` and `S` from a matching score `m` (Definitions 1–2).
///
/// * `Similarity`: `m / (|R| + |S| − m)`; two empty sets are defined as
///   fully related (score 1).
/// * `Containment`: `m / |R|`; an empty `R` scores 0. The definitional
///   precondition `|R| ≤ |S|` is *not* enforced: an `S` smaller than `R`
///   is judged on its matching score alone. Since `m ≤ |S|`, it can reach
///   δ only when `|S| ≥ δ|R|`, which is the engine's size check.
pub fn relatedness(metric: RelatednessMetric, m: f64, r_len: usize, s_len: usize) -> f64 {
    match metric {
        RelatednessMetric::Similarity => {
            let denom = r_len as f64 + s_len as f64 - m;
            if denom <= 0.0 {
                // Only possible when both sets are empty (m = 0).
                1.0
            } else {
                m / denom
            }
        }
        RelatednessMetric::Containment => {
            if r_len == 0 {
                0.0
            } else {
                m / r_len as f64
            }
        }
    }
}

/// The smallest matching score with which an `|R| = r_len`, `|S| = s_len`
/// pair can still reach relatedness `delta` — [`relatedness`] solved for
/// `m`. The cheap bound, the ordered pass's stop rule, the
/// nearest-neighbor filter and the column bound all prune against this
/// one value, and an explanation reports the one the pass compared with.
///
/// * `Similarity`: `m/(|R|+|S|−m) ≥ δ ⇔ m ≥ δ(|R|+|S|)/(1+δ)`, which is
///   at least `δ|R|` whenever `|S| ≥ δ|R|` (the [`size_check`]).
/// * `Containment`: `m/|R| ≥ δ ⇔ m ≥ δ|R|`; `|S|` plays no part.
///
/// Signature generation keeps `θ = δ|R|`: it runs before any `S` is
/// known.
pub(crate) fn need(metric: RelatednessMetric, delta: f64, r_len: usize, s_len: usize) -> f64 {
    match metric {
        RelatednessMetric::Similarity => delta * (r_len + s_len) as f64 / (1.0 + delta),
        RelatednessMetric::Containment => delta * r_len as f64,
    }
}

/// Fully verifies one pair: matching score → relatedness → threshold.
/// Returns the relatedness score when the pair is related at `cfg.delta`.
///
/// This is verification with no pass behind it — the brute-force baseline,
/// a replay: every cell is a fresh [`Phi::eval`] and the matching is always
/// solved. A search pass verifies through its
/// [`Searcher`](crate::Searcher), which takes the cells from the pass's φ
/// table and solves only the pairs that can still reach the threshold in
/// force; both are `matching_score_over` followed by `related_at`.
pub fn verify_pair(
    r: &SetRecord,
    s: &SetRecord,
    cfg: &EngineConfig,
    phi: &Phi,
    cost: &mut VerifyCost,
) -> Option<f64> {
    let m = matching_score(r, s, phi, cfg.reduction_applicable(), cost);
    related_at(cfg.metric, cfg.delta, m, r.len(), s.len())
}

/// The relatedness a matching score `m` amounts to, when it reaches
/// `threshold`.
pub(crate) fn related_at(
    metric: RelatednessMetric,
    threshold: f64,
    m: f64,
    r_len: usize,
    s_len: usize,
) -> Option<f64> {
    let rel = relatedness(metric, m, r_len, s_len);
    (rel >= threshold - VERIFY_EPS).then_some(rel)
}

/// The candidate-time size check (footnote 6, plus the containment
/// necessary condition): true when `|S| = s_len` could possibly be related
/// to an `|R| = r_len` reference.
///
/// * `Similarity`: `δ·max ≤ min`, i.e. `δ|R| ≤ |S| ≤ |R|/δ` — because the
///   matching score is at most `min(|R|, |S|)`.
/// * `Containment`: `|S| ≥ δ|R|` — because the score is at most `|S|`.
pub fn size_check(metric: RelatednessMetric, delta: f64, r_len: usize, s_len: usize) -> bool {
    const EPS: f64 = 1e-9;
    let (r_len, s_len) = (r_len as f64, s_len as f64);
    match metric {
        RelatednessMetric::Similarity => delta * r_len.max(s_len) <= r_len.min(s_len) + EPS,
        RelatednessMetric::Containment => s_len + EPS >= delta * r_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignatureScheme;
    use silkmoth_collection::paper_example::table2;
    use silkmoth_text::SimilarityFunction;

    fn cfg(metric: RelatednessMetric, delta: f64, alpha: f64) -> EngineConfig {
        EngineConfig {
            metric,
            similarity: SimilarityFunction::Jaccard,
            delta,
            alpha,
            scheme: SignatureScheme::Dichotomy,
            filter: crate::config::FilterKind::CheckAndNearestNeighbor,
            reduction: true,
        }
    }

    #[test]
    fn example2_containment_s4() {
        // |R ∩̃ S4| = 0.8 + 1 + 3/7 ≈ 2.229; contain = 2.229/3 ≈ 0.743.
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = VerifyCost::default();
        let m = matching_score(&r, c.set(3), &phi, false, &mut cost);
        assert!((m - (0.8 + 1.0 + 3.0 / 7.0)).abs() < 1e-9);
        let rel = relatedness(RelatednessMetric::Containment, m, 3, 3);
        assert!((rel - m / 3.0).abs() < 1e-12);
        assert!(rel > 0.7);
        // And S1..S3 fall below δ = 0.7.
        for sid in 0..3 {
            let m = matching_score(&r, c.set(sid), &phi, false, &mut cost);
            assert!(relatedness(RelatednessMetric::Containment, m, 3, c.set(sid).len()) < 0.7);
        }
    }

    #[test]
    fn reduction_agrees_with_plain() {
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        for sid in 0..4 {
            let mut c1 = VerifyCost::default();
            let mut c2 = VerifyCost::default();
            let plain = matching_score(&r, c.set(sid), &phi, false, &mut c1);
            let reduced = matching_score(&r, c.set(sid), &phi, true, &mut c2);
            assert!((plain - reduced).abs() < 1e-9, "S{}", sid + 1);
        }
    }

    #[test]
    fn reduction_counts_identicals() {
        // R's r2 = "t4 t5 t7 t9 t10" is identical (as a token set) to s42.
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = VerifyCost::default();
        let _ = matching_score(&r, c.set(3), &phi, true, &mut cost);
        assert_eq!(cost.reduced_pairs, 1);
        // The reduced matrix is 2×2 instead of 3×3.
        assert_eq!(cost.sim_evals, 4);
    }

    #[test]
    fn verify_pair_respects_delta() {
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = VerifyCost::default();
        let conf = cfg(RelatednessMetric::Containment, 0.7, 0.0);
        assert!(verify_pair(&r, c.set(3), &conf, &phi, &mut cost).is_some());
        assert!(verify_pair(&r, c.set(0), &conf, &phi, &mut cost).is_none());
        let strict = cfg(RelatednessMetric::Containment, 0.75, 0.0);
        assert!(verify_pair(&r, c.set(3), &strict, &phi, &mut cost).is_none());
    }

    #[test]
    fn similarity_metric_formula() {
        // Example 2 note: similar(R, S4) = M / (3 + 3 − M).
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = VerifyCost::default();
        let m = matching_score(&r, c.set(3), &phi, false, &mut cost);
        let rel = relatedness(RelatednessMetric::Similarity, m, 3, 3);
        assert!((rel - m / (6.0 - m)).abs() < 1e-12);
    }

    #[test]
    fn empty_set_edge_cases() {
        assert_eq!(relatedness(RelatednessMetric::Similarity, 0.0, 0, 0), 1.0);
        assert_eq!(relatedness(RelatednessMetric::Similarity, 0.0, 0, 3), 0.0);
        assert_eq!(relatedness(RelatednessMetric::Containment, 0.0, 0, 3), 0.0);
    }

    #[test]
    fn need_is_relatedness_solved_for_the_matching_score() {
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for delta in [f64::MIN_POSITIVE, 0.05, 0.3, 0.7, 1.0] {
                for (r_len, s_len) in [(1, 1), (3, 7), (10, 4), (12, 12)] {
                    let m = need(metric, delta, r_len, s_len);
                    let rel = relatedness(metric, m, r_len, s_len);
                    assert!((rel - delta).abs() < 1e-12, "{metric:?} δ={delta}");
                    // Never below the signature's θ once the size check
                    // has passed.
                    if size_check(metric, delta, r_len, s_len) {
                        assert!(m >= delta * r_len as f64 - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn size_check_similarity_window() {
        // δ = 0.7, |R| = 10: |S| must lie in [7, ⌈10/0.7⌉≈14.28].
        assert!(!size_check(RelatednessMetric::Similarity, 0.7, 10, 6));
        assert!(size_check(RelatednessMetric::Similarity, 0.7, 10, 7));
        assert!(size_check(RelatednessMetric::Similarity, 0.7, 10, 14));
        assert!(!size_check(RelatednessMetric::Similarity, 0.7, 10, 15));
    }

    #[test]
    fn size_check_containment_one_sided() {
        assert!(!size_check(RelatednessMetric::Containment, 0.7, 10, 6));
        assert!(size_check(RelatednessMetric::Containment, 0.7, 10, 7));
        assert!(size_check(RelatednessMetric::Containment, 0.7, 10, 1000));
    }

    #[test]
    fn size_check_never_excludes_related_pairs() {
        // Whenever the pair is actually related, the size check passes.
        let (c, r) = table2();
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        let mut cost = VerifyCost::default();
        for metric in [
            RelatednessMetric::Similarity,
            RelatednessMetric::Containment,
        ] {
            for sid in 0..4 {
                let s = c.set(sid);
                let m = matching_score(&r, s, &phi, false, &mut cost);
                let rel = relatedness(metric, m, r.len(), s.len());
                if rel >= 0.7 {
                    assert!(size_check(metric, 0.7, r.len(), s.len()));
                }
            }
        }
    }
}
