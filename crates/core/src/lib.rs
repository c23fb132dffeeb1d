//! # silkmoth-core
//!
//! The SilkMoth engine (Deng, Kim, Madden, Stonebraker — VLDB 2017):
//! exact discovery and search of *related sets* under maximum-matching
//! relatedness metrics.
//!
//! ## What it does
//!
//! Two sets of string elements are related when the score of the maximum
//! weighted bipartite matching between their elements — each edge weighted
//! by an element similarity φ (Jaccard or edit similarity), optionally
//! clamped below a threshold α — clears a relatedness threshold δ under
//! either [`RelatednessMetric::Similarity`] or
//! [`RelatednessMetric::Containment`].
//!
//! Verifying one pair costs `O(n³)`; comparing all pairs is hopeless.
//! SilkMoth prunes with:
//!
//! 1. **Valid signatures** (§4): a token subset of the reference such that
//!    any related set must share a token with it. The full space of valid
//!    signatures is the weighted scheme (Theorem 1), optimal selection is
//!    NP-complete (Theorem 2), and the engine offers five heuristic
//!    schemes ([`SignatureScheme`]).
//! 2. **Check filter** (§5.1): verifies that matched elements actually
//!    beat their signature-derived similarity bounds.
//! 3. **Nearest-neighbor filter** (§5.2): upper-bounds the matching score
//!    by each reference element's nearest neighbor, with computation reuse
//!    and early termination.
//! 4. **Reduction-based verification** (§5.3): identical elements are
//!    matched up front (valid whenever `1 − φ` obeys the triangle
//!    inequality, i.e. α = 0), shrinking the Hungarian instance.
//!
//! The output is **exactly** the brute-force result — no false negatives,
//! ever. The [`brute`] module provides the reference implementation the
//! test suite holds the engine to.
//!
//! ## Quick start
//!
//! [`Engine::new`] builds an engine from a collection and one
//! [`EngineConfig`] — the paper's tuple of metric, φ, δ, α, signature
//! scheme, filters and reduction — and is where that tuple is validated.
//! The engine owns its collection behind an `Arc` — no lifetimes, and it
//! is `Send + Sync`, so it slots directly into server state. A search is
//! a [`QuerySpec`] handed to [`Engine::execute`]; the self-join is
//! [`Engine::discover_self_parallel`]:
//!
//! ```
//! use silkmoth_core::{Engine, EngineConfig, QuerySpec, RelatednessMetric};
//! use silkmoth_collection::{Collection, Tokenization};
//! use silkmoth_text::SimilarityFunction;
//!
//! // A tiny corpus: each set is a list of string elements.
//! let corpus = vec![
//!     vec!["77 Mass Ave Boston MA", "5th St 02115 Seattle WA"],
//!     vec!["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle WA 02115"],
//! ];
//! let collection = Collection::build(&corpus, Tokenization::Whitespace);
//! // Full SilkMoth (dichotomy signatures, both filters, reduction):
//! let cfg = EngineConfig::full(
//!     RelatednessMetric::Similarity,
//!     SimilarityFunction::Jaccard,
//!     0.25, // relatedness threshold δ
//!     0.0,  // similarity threshold α
//! );
//! let engine = Engine::new(collection, cfg).unwrap();
//! let related = engine.discover_self_parallel(1);
//! assert_eq!(related.pairs.len(), 1);
//!
//! // Per-query knobs — a floor replacing δ, top-k ranking, a deadline:
//! let spec = QuerySpec::new(corpus[0].iter().map(|e| e.to_string()).collect())
//!     .with_floor(0.2)
//!     .unwrap()
//!     .with_top_k(1);
//! let top = engine.execute(&spec);
//! assert_eq!(top.hits.len(), 1);
//! ```

pub mod brute;
mod config;
mod engine;
mod explain;
mod filter;
mod optimal;
mod phi;
mod policy;
mod query;
pub mod rank;
pub mod signature;
mod spec;
mod verify;
pub mod wire;

pub use config::{
    ConfigError, EngineConfig, FilterKind, RelatednessMetric, SignatureScheme, FILTER_EPS,
    VERIFY_EPS,
};
pub use engine::{DiscoveryOutput, Engine, RelatedPair, Update, UpdateOutcome};
pub use explain::{explain_pair, ElementExplanation, PairExplanation, Verdict};
pub use filter::{PassStats, Restriction, Searcher};
pub use optimal::optimal_signature;
pub use phi::{IdentityKey, Phi};
pub use policy::CompactionPolicy;
pub use signature::{generate as generate_signature, SigElem, SigKind, SigParams, Signature};
pub use silkmoth_collection::UpdateError;
pub use spec::{PhaseTiming, QueryOutput, QuerySpec};
pub use verify::{matching_score, relatedness, size_check, verify_pair, VerifyCost};
