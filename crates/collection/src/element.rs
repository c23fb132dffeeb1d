//! Elements, set records, and the entries of the element dictionary that
//! stores each distinct element once.

use silkmoth_text::TokenId;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Dense id of one distinct element text in a
/// [`Collection`](crate::Collection)'s element dictionary, assigned from
/// 0 in first-occurrence order.
pub type ElemId = u32;

/// The id of an element that is in no dictionary.
pub(crate) const NO_ID: ElemId = ElemId::MAX;

/// One element of a set: its raw text plus the interned token view used by
/// the index, signatures, and similarity evaluation.
///
/// A collection encodes each distinct text once and its sets share the
/// result (`Arc<Element>`); [`id`](Self::id) names it there. Equality
/// compares what the element *is* — text and encoding — and ignores the
/// id, so an externally encoded element equals its stored twin.
#[derive(Debug, Clone)]
pub struct Element {
    /// Original element text (used by edit-similarity verification).
    pub text: Box<str>,
    /// Distinct token ids, sorted ascending. For whitespace tokenization
    /// these are the words; for q-gram tokenization, the q-grams of the
    /// padded text.
    pub tokens: Box<[TokenId]>,
    /// Q-chunk token ids in positional order (may contain repeats); empty
    /// under whitespace tokenization. Signatures for edit similarity select
    /// from these (§7.1).
    pub chunks: Box<[TokenId]>,
    /// Characters of `text`, materialized once for the Levenshtein kernel.
    /// Empty under whitespace tokenization.
    pub chars: Box<[char]>,
    /// Character length of `text` (the `|r|` of §7's formulas).
    pub char_len: u32,
    /// Dictionary id, [`NO_ID`] for an element encoded outside it.
    pub(crate) id: ElemId,
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
            && self.tokens == other.tokens
            && self.chunks == other.chunks
            && self.chars == other.chars
            && self.char_len == other.char_len
    }
}

impl Eq for Element {}

impl Element {
    /// The element's id in its collection's dictionary; `None` for an
    /// element of an externally encoded set
    /// ([`Collection::encode_set`](crate::Collection::encode_set)), which
    /// is in no dictionary.
    #[inline]
    pub fn id(&self) -> Option<ElemId> {
        (self.id != NO_ID).then_some(self.id)
    }

    /// The element "size" `|r|` used in signature-scheme formulas:
    /// distinct-token count for Jaccard (§4.2), character length for edit
    /// similarity (§7.1).
    #[inline]
    pub fn size(&self, edit: bool) -> usize {
        if edit {
            self.char_len as usize
        } else {
            self.tokens.len()
        }
    }

    /// Number of signature-selectable units: distinct tokens for Jaccard,
    /// q-chunk occurrences for edit similarity.
    #[inline]
    pub fn signature_pool_len(&self, edit: bool) -> usize {
        if edit {
            self.chunks.len()
        } else {
            self.tokens.len()
        }
    }

    /// True if this element contains token `t` (binary search over the
    /// sorted distinct tokens).
    #[inline]
    pub fn contains_token(&self, t: TokenId) -> bool {
        self.tokens.binary_search(&t).is_ok()
    }
}

/// A set: an ordered list of elements. Order is preserved from input so
/// results can be reported against the original data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetRecord {
    /// The elements of the set, one handle per occurrence; equal texts
    /// in one collection share one [`Element`].
    pub elements: Box<[Arc<Element>]>,
}

impl SetRecord {
    /// Number of elements `|R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The distinct tokens of the whole set, `R^T = ∪ r` (Definition 3's
    /// universe), sorted ascending.
    pub fn all_tokens(&self) -> Vec<TokenId> {
        let mut v: Vec<TokenId> = self
            .elements
            .iter()
            .flat_map(|e| e.tokens.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// An entry of a collection's element dictionary, a
/// `HashSet<ByText>`: a stored element hashed and compared by its text
/// alone, so that a `&str` finds it and the element's own text is the
/// only copy kept. An entry's id is its insertion rank.
#[derive(Debug, Clone)]
pub(crate) struct ByText(pub(crate) Arc<Element>);

impl Borrow<str> for ByText {
    fn borrow(&self) -> &str {
        &self.0.text
    }
}

impl Hash for ByText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.text.hash(state);
    }
}

impl PartialEq for ByText {
    fn eq(&self, other: &Self) -> bool {
        self.0.text == other.0.text
    }
}

impl Eq for ByText {}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(tokens: &[TokenId]) -> Element {
        Element {
            text: "".into(),
            tokens: tokens.into(),
            chunks: Box::new([]),
            chars: Box::new([]),
            char_len: 0,
            id: NO_ID,
        }
    }

    #[test]
    fn size_switches_on_tokenization() {
        let mut e = elem(&[1, 2, 3]);
        e.char_len = 10;
        assert_eq!(e.size(false), 3);
        assert_eq!(e.size(true), 10);
    }

    #[test]
    fn equality_ignores_the_dictionary_id() {
        let external = elem(&[1, 2]);
        let stored = Element {
            id: 7,
            ..external.clone()
        };
        assert_eq!((external.id(), stored.id()), (None, Some(7)));
        assert_eq!(external, stored);
        assert_ne!(external, elem(&[1, 3]));
    }

    #[test]
    fn dictionary_finds_an_element_by_its_text_alone() {
        let dict: std::collections::HashSet<ByText> = ["a b", "", "a  b"]
            .into_iter()
            .enumerate()
            .map(|(id, text)| {
                ByText(Arc::new(Element {
                    text: text.into(),
                    id: id as ElemId,
                    ..elem(&[])
                }))
            })
            .collect();
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.get("").unwrap().0.id(), Some(1));
        // Identity is the exact text: nothing is normalised.
        assert_eq!(dict.get("a  b").unwrap().0.id(), Some(2));
        assert!(!dict.contains("b a"));
    }

    #[test]
    fn contains_token_binary_search() {
        let e = elem(&[2, 5, 9]);
        assert!(e.contains_token(5));
        assert!(!e.contains_token(4));
        assert!(!e.contains_token(10));
    }

    #[test]
    fn all_tokens_dedupes_across_elements() {
        let r = SetRecord {
            elements: [elem(&[1, 3]), elem(&[2, 3]), elem(&[1, 4])]
                .map(Arc::new)
                .into(),
        };
        assert_eq!(r.all_tokens(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_set() {
        let r = SetRecord {
            elements: Box::new([]),
        };
        assert!(r.is_empty());
        assert!(r.all_tokens().is_empty());
    }
}
