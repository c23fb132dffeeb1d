//! α-clamped element similarity evaluation — the engine's `φ_α(r, s)`.

use silkmoth_collection::{Element, ElementView};
use silkmoth_text::sim::{cosine_sorted, dice_sorted, edit_sim_alpha};
use silkmoth_text::{clamp_alpha, jaccard_sorted, SimilarityFunction};

/// Evaluates `φ_α` between elements, dispatching on the configured
/// similarity function. All filter and verification logic goes through
/// this one evaluator, so the engine and the brute-force baseline agree
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Phi {
    func: SimilarityFunction,
    alpha: f64,
}

impl Phi {
    /// New evaluator for a run's φ and α.
    pub fn new(func: SimilarityFunction, alpha: f64) -> Self {
        Self { func, alpha }
    }

    /// The similarity function in use.
    pub fn func(&self) -> SimilarityFunction {
        self.func
    }

    /// The similarity threshold α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `φ_α(r, s)` — similarity clamped to 0 below α.
    ///
    /// Two empty elements are identical (similarity 1) under every φ.
    pub fn eval(&self, r: &Element, s: &Element) -> f64 {
        self.eval_views(r.view(), s.view())
    }

    /// `φ_α` over two elements' encodings, wherever they were read: the
    /// one kernel behind [`eval`](Self::eval) and the pass's by-id reads
    /// ([`Collection::element_view`](silkmoth_collection::Collection::element_view)),
    /// so both give the same bits.
    #[inline]
    pub(crate) fn eval_views(&self, r: ElementView<'_>, s: ElementView<'_>) -> f64 {
        match self.func {
            SimilarityFunction::Jaccard => {
                clamp_alpha(jaccard_sorted(r.tokens(), s.tokens()), self.alpha)
            }
            SimilarityFunction::Dice => {
                clamp_alpha(dice_sorted(r.tokens(), s.tokens()), self.alpha)
            }
            SimilarityFunction::Cosine => {
                clamp_alpha(cosine_sorted(r.tokens(), s.tokens()), self.alpha)
            }
            SimilarityFunction::Eds { .. } | SimilarityFunction::NEds { .. } => {
                edit_sim_alpha(self.func, r.chars(), s.chars(), self.alpha)
            }
        }
    }

    /// Key used by the §5.3 reduction to decide element identity: equal
    /// token vectors for Jaccard, equal text for edit similarity.
    ///
    /// For Jaccard, equal *distinct token sets* imply Jaccard similarity 1
    /// (the identity the reduction proof needs); raw texts may differ in
    /// word order or duplicates, which Jaccard cannot see.
    pub fn identity_key<'a>(&self, e: &'a Element) -> IdentityKey<'a> {
        match self.func {
            SimilarityFunction::Jaccard | SimilarityFunction::Dice | SimilarityFunction::Cosine => {
                IdentityKey::Tokens(e.tokens())
            }
            _ => IdentityKey::Text(&e.text),
        }
    }

    /// For edit similarity: upper bound on `φ(r, s)` over elements `s`
    /// sharing **no q-gram** with `r` — every q-chunk of `r` then
    /// mismatches, so `LD ≥ ⌈|r|/q⌉` and
    /// `Eds ≤ |r| / (|r| + ⌈|r|/q⌉)` (§7.1's bound with x = 0; `NEds ≤
    /// Eds`). For Jaccard the bound is 0 (no shared token ⟹ similarity 0,
    /// except the empty-vs-empty case handled separately).
    pub fn no_shared_token_bound(&self, r: &Element) -> f64 {
        match self.func {
            SimilarityFunction::Jaccard | SimilarityFunction::Dice | SimilarityFunction::Cosine => {
                0.0
            }
            SimilarityFunction::Eds { q } | SimilarityFunction::NEds { q } => {
                let len = r.char_len as usize;
                if len == 0 {
                    return 0.0;
                }
                let chunks = len.div_ceil(q);
                clamp_alpha(len as f64 / (len + chunks) as f64, self.alpha)
            }
        }
    }
}

/// Ordered identity key for the reduction (see [`Phi::identity_key`]).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IdentityKey<'a> {
    /// Sorted distinct token ids (Jaccard).
    Tokens(&'a [u32]),
    /// Raw element text (edit similarity).
    Text(&'a str),
}

#[cfg(test)]
mod tests {
    use super::*;
    use silkmoth_collection::{Collection, Tokenization};

    fn elements(texts: &[&str], t: Tokenization) -> Vec<std::sync::Arc<Element>> {
        let raw = vec![texts.to_vec()];
        let c = Collection::build(&raw, t);
        c.set(0).elements.to_vec()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        // φ read by id from the slabs is φ over the elements, bit for
        // bit, stored against stored and reference against stored.
        #[test]
        fn phi_by_id_is_eval_bit_for_bit(
            func in 0usize..3,
            alpha in 0u8..5,
            corpus in proptest::collection::vec(
                proptest::collection::vec("[a-d]{0,4}( [a-d]{1,3}){0,3}", 1..5), 1..8),
            reference in proptest::collection::vec("[a-e]{0,4}( [a-e]{1,3}){0,2}", 1..5),
        ) {
            let func = [
                SimilarityFunction::Jaccard,
                SimilarityFunction::Eds { q: 2 },
                SimilarityFunction::Eds { q: 3 },
            ][func];
            let tokenization = match func.q() {
                Some(q) => Tokenization::QGram { q },
                None => Tokenization::Whitespace,
            };
            let phi = Phi::new(func, f64::from(alpha) / 5.0);
            let mut c = Collection::build(&corpus, tokenization);
            let r = c.encode_set(&reference);
            // The reference stored too: its new texts are a second slab.
            c.append_sets(&[reference]);
            let stored: Vec<&Element> =
                c.sets().iter().flat_map(|s| s.elements.iter().map(|e| &**e)).collect();
            for s in &stored {
                let id = s.id().unwrap();
                for e in r.elements.iter().map(|e| &**e).chain(stored.iter().copied()) {
                    let by_id = phi.eval_views(e.view(), c.element_view(id));
                    proptest::prop_assert_eq!(by_id.to_bits(), phi.eval(e, s).to_bits());
                }
            }
        }
    }

    #[test]
    fn jaccard_eval_with_alpha() {
        let es = elements(&["a b c", "a b d", "x y z"], Tokenization::Whitespace);
        let phi0 = Phi::new(SimilarityFunction::Jaccard, 0.0);
        assert!((phi0.eval(&es[0], &es[1]) - 0.5).abs() < 1e-12);
        let phi_hi = Phi::new(SimilarityFunction::Jaccard, 0.6);
        assert_eq!(phi_hi.eval(&es[0], &es[1]), 0.0);
        assert_eq!(phi0.eval(&es[0], &es[2]), 0.0);
        assert_eq!(phi0.eval(&es[0], &es[0]), 1.0);
    }

    #[test]
    fn eds_eval_matches_direct() {
        let es = elements(&["kitten", "sitting"], Tokenization::QGram { q: 2 });
        let phi = Phi::new(SimilarityFunction::Eds { q: 2 }, 0.0);
        let want = silkmoth_text::eds("kitten", "sitting");
        assert!((phi.eval(&es[0], &es[1]) - want).abs() < 1e-12);
    }

    #[test]
    fn empty_elements_identical() {
        let es = elements(&["", "a"], Tokenization::Whitespace);
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.9);
        assert_eq!(phi.eval(&es[0], &es[0]), 1.0);
        assert_eq!(phi.eval(&es[0], &es[1]), 0.0);
    }

    #[test]
    fn identity_keys() {
        let es = elements(&["b a", "a b", "a a b"], Tokenization::Whitespace);
        let phi = Phi::new(SimilarityFunction::Jaccard, 0.0);
        // Same token set → same key, even though texts differ.
        assert_eq!(phi.identity_key(&es[0]), phi.identity_key(&es[1]));
        assert_eq!(phi.identity_key(&es[0]), phi.identity_key(&es[2]));
        let esq = elements(&["b a", "a b"], Tokenization::QGram { q: 2 });
        let phiq = Phi::new(SimilarityFunction::Eds { q: 2 }, 0.0);
        assert_ne!(phiq.identity_key(&esq[0]), phiq.identity_key(&esq[1]));
    }

    #[test]
    fn no_shared_token_bound_values() {
        let es = elements(&["abcdef"], Tokenization::QGram { q: 3 });
        let phi = Phi::new(SimilarityFunction::Eds { q: 3 }, 0.0);
        // |r| = 6, ⌈6/3⌉ = 2 → 6/8 = 0.75.
        assert!((phi.no_shared_token_bound(&es[0]) - 0.75).abs() < 1e-12);
        // With α above the bound it clamps to 0 (the q < α/(1−α) regime).
        let phi_hi = Phi::new(SimilarityFunction::Eds { q: 3 }, 0.8);
        assert_eq!(phi_hi.no_shared_token_bound(&es[0]), 0.0);
        // Jaccard: always 0.
        let ews = elements(&["a b"], Tokenization::Whitespace);
        let phij = Phi::new(SimilarityFunction::Jaccard, 0.0);
        assert_eq!(phij.no_shared_token_bound(&ews[0]), 0.0);
    }

    #[test]
    fn bound_actually_bounds_no_share_pairs() {
        // Strings sharing no 3-gram still have nonzero Eds; the bound must
        // dominate it.
        let es = elements(&["abcdef", "abXdeY"], Tokenization::QGram { q: 3 });
        let phi = Phi::new(SimilarityFunction::Eds { q: 3 }, 0.0);
        let shared = es[0]
            .tokens()
            .iter()
            .any(|t| es[1].tokens().binary_search(t).is_ok());
        assert!(!shared, "fixture must share no 3-gram");
        let sim = phi.eval(&es[0], &es[1]);
        assert!(sim > 0.0, "no-share pairs can still be similar: {sim}");
        assert!(sim <= phi.no_shared_token_bound(&es[0]) + 1e-12);
    }
}
