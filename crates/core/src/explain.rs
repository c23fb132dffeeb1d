//! Pair-level diagnostics: *why* is (or isn't) a candidate related?
//!
//! [`explain_pair`] re-derives, for one `(R, S)` pair, everything the
//! search pass would compute — the signature, which elements share
//! signature tokens, the check-filter verdicts, the nearest-neighbor
//! estimate, and the final matching score — as an inspectable structure.
//! Useful for debugging threshold choices and for understanding why a
//! near-miss pair fell below δ.
//!
//! The implementation intentionally mirrors (but does not share scratch
//! state with) the production pass in `filter.rs`; a test asserts the two
//! always agree on the final verdict. The thresholds are shared, not
//! mirrored: the signature's θ and the matching score the pair needs
//! come from the same functions the pass calls.

use crate::config::{EngineConfig, FILTER_EPS, VERIFY_EPS};
use crate::phi::Phi;
use crate::signature::{generate, SigKind, SigParams};
use crate::verify::{matching_score, need, relatedness, size_check, VerifyCost};
use silkmoth_collection::{InvertedIndex, SetRecord};
use silkmoth_text::sim::sorted_overlaps;

/// Per-reference-element diagnostics.
#[derive(Debug, Clone)]
pub struct ElementExplanation {
    /// The element's signature tokens (`l_i`), as dictionary ids.
    pub signature_tokens: Vec<u32>,
    /// Whether the element is saturated (sim-thresh covered).
    pub saturated: bool,
    /// The weighted-scheme similarity bound for non-sharing elements.
    pub raw_bound: f64,
    /// Whether some element of `S` shares a signature token of this
    /// element.
    pub matched: bool,
    /// Best `φ_α` over the sharing elements of `S` (None when unmatched).
    pub best_shared_sim: Option<f64>,
    /// Exact nearest-neighbor `φ_α` over all of `S`.
    pub nearest_neighbor_sim: f64,
}

/// Full diagnostics for one pair.
#[derive(Debug, Clone)]
pub struct PairExplanation {
    /// θ = δ|R|, the signature's threshold (generated before any `S` is
    /// known).
    pub theta: f64,
    /// The smallest matching score with which this pair reaches δ —
    /// `δ(|R|+|S|)/(1+δ)` under SET-SIMILARITY, θ under SET-CONTAINMENT —
    /// and what the nearest-neighbor filter compares its bound with.
    pub need: f64,
    /// Whether the signature was degenerate (all sets candidates).
    pub degenerate_signature: bool,
    /// Whether `S` passes the metric size check.
    pub size_check_ok: bool,
    /// Whether `S` would be an initial candidate (shares a signature
    /// token, or the signature is degenerate).
    pub is_candidate: bool,
    /// Whether `S` would survive the check filter.
    pub passes_check_filter: bool,
    /// The nearest-neighbor filter's (exact) upper bound Σ max φα.
    pub nn_upper_bound: f64,
    /// Whether the NN bound clears [`need`](Self::need).
    pub passes_nn_filter: bool,
    /// The maximum matching score `|R ∩̃_φα S|`.
    pub matching_score: f64,
    /// The relatedness score under the configured metric.
    pub relatedness: f64,
    /// The final verdict: relatedness ≥ δ.
    pub related: bool,
    /// Per-element details.
    pub elements: Vec<ElementExplanation>,
}

/// Explains the full pipeline for one `(R, S)` pair under `cfg`.
pub fn explain_pair(
    r: &SetRecord,
    s: &SetRecord,
    cfg: &EngineConfig,
    index: &InvertedIndex,
) -> PairExplanation {
    let phi = Phi::new(cfg.similarity, cfg.alpha);
    let theta = cfg.delta * r.len() as f64;
    let signature = generate(
        r,
        cfg.scheme,
        SigParams {
            theta,
            alpha: cfg.alpha,
            kind: SigKind::of(cfg.similarity),
        },
        index,
    );

    let mut elements = Vec::with_capacity(r.len());
    let mut nn_upper = 0.0f64;
    let mut any_check_pass = false;
    let mut any_match = false;
    for (re, se) in r.elements.iter().zip(&signature.elems) {
        // Which S elements share a signature token of this element?
        let mut best: Option<f64> = None;
        for selem in s.elements.iter() {
            if sorted_overlaps(&se.tokens, &selem.tokens) {
                let sim = phi.eval(re, selem);
                best = Some(best.map_or(sim, |b: f64| b.max(sim)));
            }
        }
        // Exact nearest neighbor over all of S.
        let nn = s
            .elements
            .iter()
            .map(|selem| phi.eval(re, selem))
            .fold(0.0f64, f64::max);
        let check_thr = if cfg.alpha > 0.0 {
            cfg.alpha.min(se.raw_bound)
        } else {
            se.raw_bound
        };
        if let Some(b) = best {
            any_match = true;
            if b >= check_thr - 1e-12 {
                any_check_pass = true;
            }
        }
        nn_upper += nn;
        elements.push(ElementExplanation {
            signature_tokens: se.tokens.clone(),
            saturated: se.saturated,
            raw_bound: se.raw_bound,
            matched: best.is_some(),
            best_shared_sim: best,
            nearest_neighbor_sim: nn,
        });
    }

    let size_ok = size_check(cfg.metric, cfg.delta, r.len(), s.len());
    let is_candidate = size_ok && (signature.degenerate || any_match);
    let passes_check =
        is_candidate && (signature.degenerate || !signature.check_prunable || any_check_pass);
    let need = need(cfg.metric, cfg.delta, r.len(), s.len());
    let passes_nn = passes_check && nn_upper >= need - FILTER_EPS;

    let mut cost = VerifyCost::default();
    let m = matching_score(r, s, &phi, cfg.reduction_applicable(), &mut cost);
    let rel = relatedness(cfg.metric, m, r.len(), s.len());

    PairExplanation {
        theta,
        need,
        degenerate_signature: signature.degenerate,
        size_check_ok: size_ok,
        is_candidate,
        passes_check_filter: passes_check,
        nn_upper_bound: nn_upper,
        passes_nn_filter: passes_nn,
        matching_score: m,
        relatedness: rel,
        related: rel >= cfg.delta - VERIFY_EPS,
        elements,
    }
}

impl std::fmt::Display for PairExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "θ = {:.4}, need = {:.4}", self.theta, self.need)?;
        writeln!(
            f,
            "candidate: {} (size check {}, degenerate {})",
            self.is_candidate, self.size_check_ok, self.degenerate_signature
        )?;
        writeln!(f, "check filter: {}", self.passes_check_filter)?;
        writeln!(
            f,
            "NN filter: {} (bound {:.4} vs need {:.4})",
            self.passes_nn_filter, self.nn_upper_bound, self.need
        )?;
        writeln!(
            f,
            "matching score {:.4} → relatedness {:.4} → related: {}",
            self.matching_score, self.relatedness, self.related
        )?;
        for (i, e) in self.elements.iter().enumerate() {
            writeln!(
                f,
                "  r{}: sig {:?} sat={} bound={:.3} matched={} best={:?} nn={:.3}",
                i + 1,
                e.signature_tokens,
                e.saturated,
                e.raw_bound,
                e.matched,
                e.best_shared_sim,
                e.nearest_neighbor_sim
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterKind, RelatednessMetric, SignatureScheme};
    use crate::{brute, Engine, QuerySpec};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_text::SimilarityFunction;

    fn cfg(delta: f64, alpha: f64) -> EngineConfig {
        EngineConfig {
            metric: RelatednessMetric::Containment,
            similarity: SimilarityFunction::Jaccard,
            delta,
            alpha,
            scheme: SignatureScheme::Weighted,
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: false,
        }
    }

    #[test]
    fn explains_the_paper_walkthrough() {
        // Examples 8 & 9: S2 fails the check filter, S3 fails the NN
        // filter, S4 is verified related.
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let conf = cfg(0.7, 0.0);

        let s2 = explain_pair(&r, c.set(1), &conf, &index);
        assert!(s2.is_candidate);
        assert!(!s2.passes_check_filter, "{s2}");

        let s3 = explain_pair(&r, c.set(2), &conf, &index);
        assert!(s3.passes_check_filter);
        assert!(!s3.passes_nn_filter, "{s3}");
        // Example 9's NN estimate: 5/6 + 0.125 + (bounded r3) < θ.
        assert!(s3.nn_upper_bound < s3.theta);

        let s4 = explain_pair(&r, c.set(3), &conf, &index);
        assert!(s4.passes_nn_filter);
        assert!(s4.related);
        assert!((s4.matching_score - (0.8 + 1.0 + 3.0 / 7.0)).abs() < 1e-9);
    }

    #[test]
    fn explanation_agrees_with_engine_verdicts() {
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        for delta in [0.3, 0.5, 0.7, 0.9] {
            for alpha in [0.0, 0.4, 0.7] {
                let conf = cfg(delta, alpha);
                let engine = Engine::new(c.clone(), conf).unwrap();
                let spec = QuerySpec::new(r.elements.iter().map(|e| e.text.to_string()).collect());
                let engine_hits: Vec<u32> =
                    engine.execute(&spec).hits.iter().map(|x| x.0).collect();
                let brute_hits: Vec<u32> =
                    brute::search(&r, &c, &conf).iter().map(|x| x.0).collect();
                for sid in 0..c.len() as u32 {
                    let ex = explain_pair(&r, c.set(sid), &conf, &index);
                    assert_eq!(
                        ex.related,
                        brute_hits.contains(&sid),
                        "δ={delta} α={alpha} S{}",
                        sid + 1
                    );
                    // The filter stages in the explanation can never reject
                    // a pair the engine reports as related.
                    if engine_hits.contains(&sid) {
                        assert!(ex.is_candidate && ex.passes_check_filter && ex.passes_nn_filter);
                    }
                }
            }
        }
    }

    #[test]
    fn display_renders() {
        let (c, r) = table2();
        let index = silkmoth_collection::InvertedIndex::build(&c);
        let text = explain_pair(&r, c.set(3), &cfg(0.7, 0.0), &index).to_string();
        assert!(text.contains("related: true"));
        assert!(text.contains("NN filter"));
    }
}
