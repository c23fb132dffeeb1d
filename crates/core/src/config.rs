//! Engine configuration: metrics, signature schemes, filters.

use silkmoth_collection::Tokenization;
use silkmoth_text::SimilarityFunction;

/// Which relatedness metric decides whether two sets are related (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelatednessMetric {
    /// `similar(R,S) = M / (|R| + |S| − M)` — Definition 1.
    Similarity,
    /// `contain(R,S) = M / |R|` — Definition 2 (R is the contained side).
    Containment,
}

/// Signature scheme used for candidate selection (§4, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureScheme {
    /// The state-of-the-art baseline (§4.2): remove the `⌈θ⌉ − 1`
    /// most-frequent token occurrences, keep the rest.
    Unweighted,
    /// The weighted scheme with the cost/value greedy of §4.3. Ignores α.
    Weighted,
    /// Unweighted + sim-thresh cap — simulates FastJoin's scheme (§6.2,
    /// evaluated as COMBUNWEIGHTED in §8.2).
    CombinedUnweighted,
    /// Skyline scheme (§6.3): weighted greedy, then per-element trim to
    /// the sim-thresh cap.
    Skyline,
    /// Dichotomy scheme (§6.4): cost/value greedy where elements saturate
    /// at the sim-thresh cap and stop contributing to the validity sum.
    Dichotomy,
}

/// Which refinement filters run between candidate selection and
/// verification (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FilterKind {
    /// No refinement: NOFILTER in §8.3.
    None,
    /// Check filter only (Algorithm 1): CHECK in §8.3.
    Check,
    /// Check + nearest-neighbor filter (Algorithm 2): NEARESTNEIGHBOR in
    /// §8.3. (The NN filter subsumes the check filter — footnote 13 — so
    /// it is never offered alone.)
    CheckAndNearestNeighbor,
}

/// Full configuration of a SilkMoth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Relatedness metric.
    pub metric: RelatednessMetric,
    /// Element similarity function φ.
    pub similarity: SimilarityFunction,
    /// Relatedness threshold δ ∈ (0, 1].
    pub delta: f64,
    /// Similarity threshold α ∈ [0, 1): element similarities below α count
    /// as 0 (§2.1, §6).
    pub alpha: f64,
    /// Signature scheme.
    pub scheme: SignatureScheme,
    /// Refinement filters.
    pub filter: FilterKind,
    /// Apply the triangle-inequality reduction before maximum matching
    /// (§5.3). Silently skipped when α > 0, where it is invalid (§6.5).
    pub reduction: bool,
}

impl EngineConfig {
    /// A sensible default: full SilkMoth (dichotomy + both filters +
    /// reduction) under SET-SIMILARITY with Jaccard.
    pub fn full(
        metric: RelatednessMetric,
        similarity: SimilarityFunction,
        delta: f64,
        alpha: f64,
    ) -> Self {
        Self {
            metric,
            similarity,
            delta,
            alpha,
            scheme: SignatureScheme::Dichotomy,
            filter: FilterKind::CheckAndNearestNeighbor,
            reduction: true,
        }
    }

    /// The unoptimized configuration used as NOOPT in Figure 4:
    /// unweighted signatures, no filters, no reduction.
    pub fn noopt(
        metric: RelatednessMetric,
        similarity: SimilarityFunction,
        delta: f64,
        alpha: f64,
    ) -> Self {
        Self {
            metric,
            similarity,
            delta,
            alpha,
            scheme: SignatureScheme::Unweighted,
            filter: FilterKind::None,
            reduction: false,
        }
    }

    /// True when the reduction optimization may actually run: it requires
    /// the dual distance to be a metric, which fails for `φ_α` with α > 0
    /// (§6.5) and for `NEds` (§2.1 notes only `Eds` has the triangle
    /// inequality among the edit similarities).
    pub fn reduction_applicable(&self) -> bool {
        // Only Jaccard distance and 1 − Eds are metrics; 1 − Dice,
        // 1 − cosine, and 1 − NEds all violate the triangle inequality.
        self.reduction
            && self.alpha == 0.0
            && matches!(
                self.similarity,
                SimilarityFunction::Jaccard | SimilarityFunction::Eds { .. }
            )
    }

    /// The tokenization a collection must have been built with for this
    /// configuration.
    pub fn tokenization(&self) -> Tokenization {
        match self.similarity {
            SimilarityFunction::Jaccard | SimilarityFunction::Dice | SimilarityFunction::Cosine => {
                Tokenization::Whitespace
            }
            SimilarityFunction::Eds { q } | SimilarityFunction::NEds { q } => {
                Tokenization::QGram { q }
            }
        }
    }

    /// Validates parameter ranges and cross-parameter constraints.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.delta > 0.0 && self.delta <= 1.0) {
            return Err(ConfigError::DeltaOutOfRange(self.delta));
        }
        if !(0.0..1.0).contains(&self.alpha) {
            return Err(ConfigError::AlphaOutOfRange(self.alpha));
        }
        if let Some(q) = self.similarity.q() {
            if q == 0 {
                return Err(ConfigError::ZeroQ);
            }
            // Footnote 11's correctness constraint for the unweighted/
            // FastJoin-style scheme, whose validity argument needs
            // "φ_α > 0 ⟹ shares a q-gram", i.e. α > q/(q+1).
            if matches!(
                self.scheme,
                SignatureScheme::Unweighted | SignatureScheme::CombinedUnweighted
            ) && self.alpha <= q as f64 / (q + 1) as f64
            {
                return Err(ConfigError::UnweightedEditNeedsAlpha {
                    q,
                    alpha: self.alpha,
                });
            }
        }
        Ok(())
    }
}

/// Configuration errors surfaced by [`EngineConfig::validate`] and engine
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// δ must lie in (0, 1]; δ = 0 makes every pair related (footnote 2).
    DeltaOutOfRange(f64),
    /// α must lie in [0, 1).
    AlphaOutOfRange(f64),
    /// q-gram length must be ≥ 1.
    ZeroQ,
    /// A per-query floor (see
    /// [`QuerySpec::with_floor`](crate::QuerySpec::with_floor)) must lie
    /// in [0, 1]; it is never silently clamped.
    FloorOutOfRange(f64),
    /// The unweighted scheme with edit similarity requires
    /// `α > q/(q+1)` for its validity argument (§7.2, footnote 11).
    UnweightedEditNeedsAlpha {
        /// Configured q.
        q: usize,
        /// Configured α.
        alpha: f64,
    },
    /// The collection was built with a different tokenization than the
    /// similarity function requires.
    TokenizationMismatch {
        /// What the collection has.
        have: Tokenization,
        /// What the configuration needs.
        need: Tokenization,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeltaOutOfRange(d) => write!(f, "relatedness threshold δ={d} outside (0, 1]"),
            Self::AlphaOutOfRange(a) => write!(f, "similarity threshold α={a} outside [0, 1)"),
            Self::ZeroQ => write!(f, "q-gram length must be at least 1"),
            Self::FloorOutOfRange(v) => write!(f, "query floor {v} outside [0, 1]"),
            Self::UnweightedEditNeedsAlpha { q, alpha } => write!(
                f,
                "unweighted signature scheme with edit similarity requires α > q/(q+1) \
                 (q={q} needs α > {:.3}, got {alpha})",
                *q as f64 / (*q as f64 + 1.0)
            ),
            Self::TokenizationMismatch { have, need } => {
                write!(
                    f,
                    "collection tokenization {have:?} does not match config {need:?}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Absolute slack applied when filters compare upper-bound estimates to θ;
/// pruning only happens when the estimate is below `θ − FILTER_EPS`, so
/// float noise can only admit extra candidates, never drop true results.
pub const FILTER_EPS: f64 = 1e-5;

/// Relative slack on the final relatedness comparison against δ.
pub const VERIFY_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_silkmoth() {
        let cfg = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        assert_eq!(cfg.metric, RelatednessMetric::Similarity);
        assert_eq!(cfg.scheme, SignatureScheme::Dichotomy);
        assert_eq!(cfg.filter, FilterKind::CheckAndNearestNeighbor);
        assert!(cfg.reduction);
        let tiny =
            silkmoth_collection::Collection::build(&[vec!["a b", "c d"]], Tokenization::Whitespace);
        assert!(crate::Engine::new(tiny, cfg).is_ok());
    }

    #[test]
    fn validate_ranges() {
        let mut c = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        assert!(c.validate().is_ok());
        c.delta = 0.0;
        assert!(matches!(c.validate(), Err(ConfigError::DeltaOutOfRange(_))));
        c.delta = 0.7;
        c.alpha = 1.0;
        assert!(matches!(c.validate(), Err(ConfigError::AlphaOutOfRange(_))));
    }

    #[test]
    fn unweighted_edit_needs_alpha() {
        let mut c = EngineConfig::noopt(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 3 },
            0.7,
            0.0,
        );
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnweightedEditNeedsAlpha { .. })
        ));
        c.alpha = 0.8; // > 3/4
        assert!(c.validate().is_ok());
        // Weighted scheme has no such constraint.
        c.alpha = 0.0;
        c.scheme = SignatureScheme::Weighted;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn reduction_applicability() {
        let mut c = EngineConfig::full(
            RelatednessMetric::Containment,
            SimilarityFunction::Jaccard,
            0.7,
            0.0,
        );
        assert!(c.reduction_applicable());
        c.alpha = 0.5;
        assert!(!c.reduction_applicable());
        c.alpha = 0.0;
        c.similarity = SimilarityFunction::NEds { q: 2 };
        assert!(!c.reduction_applicable());
        c.similarity = SimilarityFunction::Eds { q: 2 };
        assert!(c.reduction_applicable());
        c.reduction = false;
        assert!(!c.reduction_applicable());
    }

    #[test]
    fn tokenization_mapping() {
        let c = EngineConfig::full(
            RelatednessMetric::Similarity,
            SimilarityFunction::Eds { q: 4 },
            0.8,
            0.8,
        );
        assert_eq!(c.tokenization(), Tokenization::QGram { q: 4 });
    }

    #[test]
    fn error_display() {
        let e = ConfigError::UnweightedEditNeedsAlpha { q: 3, alpha: 0.5 };
        assert!(e.to_string().contains("α > 0.750"));
    }
}
