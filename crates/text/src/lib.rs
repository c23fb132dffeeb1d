//! # silkmoth-text
//!
//! Element-level similarity functions for the SilkMoth related-set
//! discovery system (Deng, Kim, Madden, Stonebraker — VLDB 2017).
//!
//! SilkMoth models a *set* as a collection of *elements* (short strings) and
//! each element as a bag of *tokens*. Two tokenizations are supported,
//! matching the paper's §3 (the collection builder implements both, as
//! `silkmoth_collection::Tokenization`):
//!
//! * **whitespace words** — used with [Jaccard similarity](sim::jaccard_str);
//! * **q-grams** — every `q`-length substring of the element (padded with
//!   `q-1` sentinel characters at the end), used with
//!   [edit similarity](sim::eds). Signatures for edit similarity are built
//!   from the non-overlapping **q-chunks** (§7.1), which — thanks to the
//!   padding — are always a subset of the q-grams.
//!
//! The similarity functions (§2.1) all return a score in `[0, 1]`:
//!
//! * [`sim::jaccard_sorted`] — `|x ∩ y| / |x ∪ y|` over token-id slices;
//! * [`sim::eds`] — `1 − 2·LD/(|x|+|y|+LD)` (Li & Liu normalized metric);
//! * [`sim::neds`] — `1 − LD/max(|x|,|y|)`;
//!
//! plus the α-clamped variant `φ_α` ([`sim::clamp_alpha`]) which zeroes
//! scores below a similarity threshold α (§2.1).

pub mod lev;
pub mod sim;

pub use sim::{clamp_alpha, eds, jaccard_sorted, jaccard_str, neds, SimilarityFunction};

/// Identifier of an interned token. Ids are assigned by the collection
/// builder in decreasing order of global frequency (the paper's Table 2
/// convention: `t1` is the most frequent token).
pub type TokenId = u32;
