//! Pair-level diagnostics: *why* is (or isn't) a stored set related to a
//! reference?
//!
//! An explanation is what one run of the search pass records. A pass that
//! explains is restricted to the set ids it explains and fills in a
//! [`PairExplanation`] for each as it admits, filters, bounds and verifies
//! it (see [`Searcher`](crate::Searcher)). Nothing here decides a stage:
//! every bound and verdict is the one the pass acted on, and a stage the
//! pass did not take the pair to stays `None`.

use crate::engine::Engine;
use crate::filter::{Restriction, Searcher};
use crate::query::QueryIter;
use crate::signature::Signature;
use silkmoth_collection::{InvertedIndex, SetIdx, SetRecord};

/// How far the pass took a pair: the stage that dropped it, or what
/// verification found. The variants are in the order the pass runs, so a
/// pair passed a stage exactly when its verdict is above that stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Candidate selection never admitted it: no posting of a signature
    /// token names it, or it is removed.
    #[default]
    NotCandidate,
    /// A posting named it, and the size check dropped it.
    SizeCheck,
    /// The check filter dropped it (Algorithm 1).
    CheckFilter,
    /// Its cheap bound is below `need`: counted, never queued.
    CheapBound,
    /// The nearest-neighbor filter dropped it (Algorithm 2).
    NnFilter,
    /// The column bound refuted it before any matching was solved.
    ColumnBound,
    /// Solved, and below the threshold.
    Unrelated,
    /// Solved, and related.
    Related,
}

/// What the pass recorded of one reference element `rᵢ`.
#[derive(Debug, Clone, Default)]
pub struct ElementExplanation {
    /// rᵢ's signature tokens (`lᵢ`), as dictionary ids.
    pub signature_tokens: Vec<u32>,
    /// The signature tokens some element of `S` holds: what admitted the
    /// pair.
    pub shared_tokens: Vec<u32>,
    /// `ubᵢ`: the pass's bound on φα(rᵢ, s) for an `s` that holds none
    /// of rᵢ's signature tokens (0 for a saturated or α-clamped element).
    pub bound: f64,
    /// `bᵢ`, the check filter's input: the largest φα the posting walk
    /// took over the elements of `S` that hold a signature token of rᵢ (0
    /// where it took none above 0, or there was no walk).
    pub best_shared_sim: f64,
    /// The estimate the nearest-neighbor filter put in place of rᵢ's
    /// bound, where it searched.
    pub nearest_neighbor_sim: Option<f64>,
}

/// What one pass recorded of one `(R, S)` pair.
#[derive(Debug, Clone, Default)]
pub struct PairExplanation {
    /// θ = δ|R|, the signature's threshold.
    pub theta: f64,
    /// Whether the signature was degenerate (every set a candidate).
    pub degenerate_signature: bool,
    /// How far the pass took the pair.
    pub verdict: Verdict,
    /// The smallest matching score with which the pair reaches δ, where
    /// the pass compared a bound with it.
    pub need: Option<f64>,
    /// Σᵢ max(bᵢ, ubᵢ), the bound the check survivors are queued by.
    pub cheap_bound: Option<f64>,
    /// The nearest-neighbor filter's bound where it ran: the estimate at
    /// the element where it gave up, or after the last.
    pub nn_upper_bound: Option<f64>,
    /// The column bound at the column that refuted the pair.
    pub column_bound: Option<f64>,
    /// The maximum matching score, where the pair was solved.
    pub matching_score: Option<f64>,
    /// The relatedness that score amounts to.
    pub relatedness: Option<f64>,
    /// Per reference element.
    pub elements: Vec<ElementExplanation>,
}

impl std::fmt::Display for PairExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (verdict, theta, degenerate) = (self.verdict, self.theta, self.degenerate_signature);
        writeln!(
            f,
            "verdict: {verdict:?}, θ = {theta:.4}, degenerate signature: {degenerate}"
        )?;
        let values = [
            ("need", self.need),
            ("cheap bound", self.cheap_bound),
            ("NN bound", self.nn_upper_bound),
            ("column bound", self.column_bound),
            ("matching score", self.matching_score),
            ("relatedness", self.relatedness),
        ];
        for (name, value) in values.into_iter().filter_map(|(name, v)| Some((name, v?))) {
            writeln!(f, "{name}: {value:.4}")?;
        }
        for (i, e) in self.elements.iter().enumerate() {
            let (sig, shared, bound) = (&e.signature_tokens, &e.shared_tokens, e.bound);
            write!(
                f,
                "  r{}: signature {sig:?}, shared {shared:?}, bound {bound:.3}",
                i + 1
            )?;
            write!(f, ", best shared {:.3}", e.best_shared_sim)?;
            match e.nearest_neighbor_sim {
                Some(nn) => writeln!(f, ", nearest neighbor {nn:.3}")?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
}

/// The explanations a pass fills in, one per set id it explains, in
/// ascending id order.
pub(crate) type Record = Vec<(SetIdx, PairExplanation)>;

/// The records of `ids` (ascending) before the pass has met any of them:
/// the signature's part, the per-element bounds `ub`, and which signature
/// tokens each set holds.
pub(crate) fn new_record(
    ids: &[SetIdx],
    signature: &Signature,
    ub: &[f64],
    theta: f64,
    index: &InvertedIndex,
) -> Record {
    let pair = |sid| PairExplanation {
        theta,
        degenerate_signature: signature.degenerate,
        elements: (signature.elems.iter().zip(ub))
            .map(|(se, &bound)| ElementExplanation {
                signature_tokens: se.tokens.clone(),
                shared_tokens: (se.tokens.iter().copied())
                    .filter(|&t| !index.postings_in_set(t, sid).is_empty())
                    .collect(),
                bound,
                ..ElementExplanation::default()
            })
            .collect(),
        ..PairExplanation::default()
    };
    ids.iter().map(|&sid| (sid, pair(sid))).collect()
}

/// The record of `sid`, when a pass records and explains it.
#[inline]
pub(crate) fn recorded(record: &mut Option<Record>, sid: SetIdx) -> Option<&mut PairExplanation> {
    let pairs = record.as_mut()?;
    let at = pairs.binary_search_by_key(&sid, |&(id, _)| id).ok()?;
    Some(&mut pairs[at].1)
}

/// Explains one pair: a pass of `engine`'s configuration over the encoded
/// reference `r`, restricted to the stored set `sid`, and what it
/// recorded.
pub fn explain_pair(engine: &Engine, r: &SetRecord, sid: SetIdx) -> PairExplanation {
    let mut searcher = Searcher::new(engine.collection(), engine.index(), *engine.config());
    let explain = Some(&[sid][..]);
    let pass = QueryIter::stage(&mut searcher, r, Restriction::default(), explain, None);
    let (record, _) = pass.into_record();
    record
        .and_then(|mut pairs| pairs.pop())
        .expect("a record per explained id")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, FilterKind, RelatednessMetric, SignatureScheme};
    use silkmoth_collection::paper_example::{table2, tid};
    use silkmoth_text::SimilarityFunction;

    fn engine() -> (Engine, SetRecord) {
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
        (Engine::new(c, cfg).unwrap(), r)
    }

    #[test]
    fn explains_the_paper_walkthrough_as_the_pass_runs_it() {
        // Examples 3, 8 and 9 at δ = 0.7: the weighted signature is t8
        // for r1 (bound 4/5), t9 t10 for r2 and t11 t12 for r3 (3/5 each).
        let (engine, r) = engine();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;

        let s1 = explain_pair(&engine, &r, 0);
        assert_eq!(s1.verdict, Verdict::NotCandidate, "{s1:?}");
        assert!(s1.elements.iter().all(|e| e.shared_tokens.is_empty()));
        assert_eq!(s1.need, None);

        // Example 8: Jac(r1, s21) = 0.6 < 0.8 and Jac(r2, s23) = 0.25 < 0.6.
        let s2 = explain_pair(&engine, &r, 1);
        assert_eq!(s2.verdict, Verdict::CheckFilter, "{s2:?}");
        assert_eq!(s2.elements[0].shared_tokens, [tid(8)]);
        assert_eq!(s2.elements[1].shared_tokens, [tid(9)]);
        assert!(close(s2.elements[0].best_shared_sim, 0.6));
        assert!(close(s2.elements[1].best_shared_sim, 0.25));
        assert_eq!(s2.cheap_bound, None);

        // S3 passes the check (5/6 ≥ 0.8) but its cheap bound
        // 5/6 + 0.6 + max(2/7, 0.6) is below need 2.1: it is never
        // queued, so no nearest-neighbor search runs for it.
        let s3 = explain_pair(&engine, &r, 2);
        assert_eq!(s3.verdict, Verdict::CheapBound, "{s3:?}");
        assert!(close(s3.need.unwrap(), 2.1));
        assert!(close(s3.cheap_bound.unwrap(), 5.0 / 6.0 + 0.6 + 0.6));
        assert_eq!(s3.nn_upper_bound, None);
        assert!(s3.elements.iter().all(|e| e.nearest_neighbor_sim.is_none()));

        // S4: r1 and r2 are exact from the walk (0.8, 1); the filter
        // searches r3 only, and refines its 0.6 to Jac(r3, s43) = 3/7.
        let s4 = explain_pair(&engine, &r, 3);
        assert_eq!(s4.verdict, Verdict::Related, "{s4:?}");
        assert!(close(s4.cheap_bound.unwrap(), 0.8 + 1.0 + 0.6));
        let nn: Vec<Option<f64>> = s4.elements.iter().map(|e| e.nearest_neighbor_sim).collect();
        assert_eq!(nn, [None, None, Some(3.0 / 7.0)]);
        assert!(close(s4.nn_upper_bound.unwrap(), 0.8 + 1.0 + 3.0 / 7.0));
        assert_eq!(s4.column_bound, None);
        assert!(close(s4.matching_score.unwrap(), 0.8 + 1.0 + 3.0 / 7.0));
        let hit = engine.execute(&crate::QuerySpec::new(
            r.elements.iter().map(|e| e.text.to_string()).collect(),
        ));
        assert_eq!(hit.hits.len(), 1);
        assert_eq!(s4.relatedness.unwrap().to_bits(), hit.hits[0].1.to_bits());
    }

    #[test]
    fn display_renders() {
        let (engine, r) = engine();
        let text = explain_pair(&engine, &r, 3).to_string();
        assert!(text.contains("verdict: Related"), "{text}");
        assert!(text.contains("NN bound"), "{text}");
        assert!(text.contains("nearest neighbor 0.429"), "{text}");
        let text = explain_pair(&engine, &r, 2).to_string();
        assert!(text.contains("verdict: CheapBound"), "{text}");
        assert!(!text.contains("NN bound"), "{text}");
    }
}
