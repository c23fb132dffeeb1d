//! Fluent construction of [`Engine`]s.

use std::sync::Arc;

use crate::config::{ConfigError, EngineConfig, FilterKind, RelatednessMetric, SignatureScheme};
use crate::engine::Engine;
use silkmoth_collection::Collection;
use silkmoth_text::SimilarityFunction;

/// Fluent builder for [`Engine`], started with [`Engine::builder`].
///
/// Starts from the full-SilkMoth defaults (SET-SIMILARITY, Jaccard,
/// δ = 0.7, α = 0, dichotomy signatures, both filters, reduction on) and
/// validates everything — parameter ranges, cross-parameter constraints,
/// and the collection's tokenization — once, in [`build`](Self::build).
///
/// ```
/// use silkmoth_core::{Engine, RelatednessMetric, SignatureScheme};
/// use silkmoth_collection::{Collection, Tokenization};
/// use silkmoth_text::SimilarityFunction;
///
/// let raw = vec![vec!["a b c", "d e"], vec!["a b c", "d e f"]];
/// let collection = Collection::build(&raw, Tokenization::Whitespace);
/// let engine = Engine::builder(collection)
///     .metric(RelatednessMetric::Similarity)
///     .phi(SimilarityFunction::Jaccard)
///     .delta(0.6)
///     .alpha(0.0)
///     .scheme(SignatureScheme::Dichotomy)
///     .build()
///     .unwrap();
/// assert_eq!(engine.discover_self_parallel(1).pairs.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    collection: Arc<Collection>,
    cfg: EngineConfig,
}

impl EngineBuilder {
    pub(crate) fn new(collection: Arc<Collection>) -> Self {
        Self {
            collection,
            cfg: EngineConfig::full(
                RelatednessMetric::Similarity,
                SimilarityFunction::Jaccard,
                0.7,
                0.0,
            ),
        }
    }

    /// Sets the relatedness metric (§2.1).
    pub fn metric(mut self, metric: RelatednessMetric) -> Self {
        self.cfg.metric = metric;
        self
    }

    /// Sets the element similarity function φ.
    pub fn phi(mut self, similarity: SimilarityFunction) -> Self {
        self.cfg.similarity = similarity;
        self
    }

    /// Sets the relatedness threshold δ ∈ (0, 1].
    pub fn delta(mut self, delta: f64) -> Self {
        self.cfg.delta = delta;
        self
    }

    /// Sets the similarity threshold α ∈ [0, 1) (§2.1, §6).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.cfg.alpha = alpha;
        self
    }

    /// Sets the signature scheme (§4, §6).
    pub fn scheme(mut self, scheme: SignatureScheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the refinement filters (§5).
    pub fn filter(mut self, filter: FilterKind) -> Self {
        self.cfg.filter = filter;
        self
    }

    /// Enables or disables reduction-based verification (§5.3).
    pub fn reduction(mut self, on: bool) -> Self {
        self.cfg.reduction = on;
        self
    }

    /// Replaces the whole configuration at once (escape hatch for callers
    /// that already hold an [`EngineConfig`]).
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The configuration as currently accumulated (not yet validated).
    pub fn peek_config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Validates the configuration and builds the engine (including its
    /// inverted index).
    pub fn build(self) -> Result<Engine, ConfigError> {
        Engine::new(self.collection, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_collection::Tokenization;

    fn tiny() -> Collection {
        Collection::build(&[vec!["a b", "c d"]], Tokenization::Whitespace)
    }

    #[test]
    fn defaults_are_full_silkmoth() {
        let b = Engine::builder(tiny());
        let cfg = *b.peek_config();
        assert_eq!(cfg.metric, RelatednessMetric::Similarity);
        assert_eq!(cfg.scheme, SignatureScheme::Dichotomy);
        assert_eq!(cfg.filter, FilterKind::CheckAndNearestNeighbor);
        assert!(cfg.reduction);
        assert!(b.build().is_ok());
    }

    #[test]
    fn build_rejects_bad_delta() {
        for delta in [0.0, -0.5, 1.5, f64::NAN] {
            let err = Engine::builder(tiny()).delta(delta).build().unwrap_err();
            assert!(matches!(err, ConfigError::DeltaOutOfRange(_)), "δ={delta}");
        }
    }

    #[test]
    fn build_rejects_bad_alpha() {
        for alpha in [-0.1, 1.0, 2.0] {
            let err = Engine::builder(tiny()).alpha(alpha).build().unwrap_err();
            assert!(matches!(err, ConfigError::AlphaOutOfRange(_)), "α={alpha}");
        }
    }

    #[test]
    fn build_rejects_tokenization_mismatch() {
        // Whitespace collection + edit similarity (needs q-grams).
        let err = Engine::builder(tiny())
            .phi(SimilarityFunction::Eds { q: 2 })
            .alpha(0.7)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::TokenizationMismatch { .. }));
    }

    #[test]
    fn builder_accepts_shared_collection() {
        let shared = Arc::new(tiny());
        let engine = Engine::builder(shared.clone()).build().unwrap();
        assert!(Arc::ptr_eq(engine.collection_arc(), &shared));
    }

    #[test]
    fn config_escape_hatch_replaces_everything() {
        let cfg = EngineConfig::noopt(
            RelatednessMetric::Containment,
            SimilarityFunction::Jaccard,
            0.4,
            0.0,
        );
        let engine = Engine::builder(tiny())
            .delta(0.9)
            .config(cfg)
            .build()
            .unwrap();
        assert_eq!(*engine.config(), cfg);
    }
}
