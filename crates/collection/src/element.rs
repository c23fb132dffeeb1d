//! Elements, set records, and the entries of the element dictionary that
//! stores each distinct element once.

use crate::Tokenization;
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
///
/// ## Layout
///
/// An element owns its text but not its encoding: the token ids, q-chunks
/// and chars of every element one encoding step produced (a build, one
/// [`append_sets`](crate::Collection::append_sets) call, one
/// [`encode_set`](crate::Collection::encode_set)) lie end to end in one
/// shared *slab*, and the element holds a handle to that slab and its
/// position in it. [`tokens`](Self::tokens), [`chunks`](Self::chunks) and
/// [`chars`](Self::chars) are slices of the slab, so an element allocates
/// nothing of its own for them, and the elements of one build sit in the
/// slab in id order — which is what lets
/// [`Collection::element_view`](crate::Collection::element_view) read a
/// stored element's encoding by id without touching the element.
#[derive(Clone)]
pub struct Element {
    /// Original element text (used by edit-similarity verification).
    pub text: Box<str>,
    /// Character length of `text` (the `|r|` of §7's formulas).
    pub char_len: u32,
    /// Dictionary id, [`NO_ID`] for an element encoded outside it.
    pub(crate) id: ElemId,
    /// The element's position in `slab`.
    slot: u32,
    slab: Arc<Slab>,
}

impl PartialEq for Element {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
            && self.tokens() == other.tokens()
            && self.chunks() == other.chunks()
            && self.chars() == other.chars()
            && self.char_len == other.char_len
    }
}

impl Eq for Element {}

impl std::fmt::Debug for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Element")
            .field("text", &self.text)
            .field("tokens", &self.tokens())
            .field("chunks", &self.chunks())
            .field("chars", &self.chars())
            .field("char_len", &self.char_len)
            .field("id", &self.id())
            .finish()
    }
}

impl Element {
    /// Element `slot` of `slab`, whose text is `text`, under dictionary
    /// id `id`.
    pub(crate) fn new(text: &str, id: ElemId, slab: &Arc<Slab>, slot: u32) -> Self {
        Self {
            text: text.into(),
            char_len: text.chars().count() as u32,
            id,
            slot,
            slab: Arc::clone(slab),
        }
    }

    /// The element's id in its collection's dictionary; `None` for an
    /// element of an externally encoded set
    /// ([`Collection::encode_set`](crate::Collection::encode_set)), which
    /// is in no dictionary.
    #[inline]
    pub fn id(&self) -> Option<ElemId> {
        (self.id != NO_ID).then_some(self.id)
    }

    /// The element's encoding, as slices of its slab.
    #[inline]
    pub fn view(&self) -> ElementView<'_> {
        self.slab.view(self.slot)
    }

    /// Distinct token ids, sorted ascending. For whitespace tokenization
    /// these are the words; for q-gram tokenization, the q-grams of the
    /// padded text.
    #[inline]
    pub fn tokens(&self) -> &[TokenId] {
        self.view().tokens()
    }

    /// Q-chunk token ids in positional order (may contain repeats); empty
    /// under whitespace tokenization. Signatures for edit similarity
    /// select from these (§7.1).
    #[inline]
    pub fn chunks(&self) -> &[TokenId] {
        self.view().chunks()
    }

    /// Characters of `text`, materialized once for the Levenshtein
    /// kernel. Empty under whitespace tokenization.
    #[inline]
    pub fn chars(&self) -> &[char] {
        self.view().chars()
    }

    /// The element "size" `|r|` used in signature-scheme formulas:
    /// distinct-token count for Jaccard (§4.2), character length for edit
    /// similarity (§7.1).
    #[inline]
    pub fn size(&self, edit: bool) -> usize {
        if edit {
            self.char_len as usize
        } else {
            self.tokens().len()
        }
    }

    /// Number of signature-selectable units: distinct tokens for Jaccard,
    /// q-chunk occurrences for edit similarity.
    #[inline]
    pub fn signature_pool_len(&self, edit: bool) -> usize {
        if edit {
            self.chunks().len()
        } else {
            self.tokens().len()
        }
    }

    /// True if this element contains token `t` (binary search over the
    /// sorted distinct tokens).
    #[inline]
    pub fn contains_token(&self, t: TokenId) -> bool {
        self.tokens().binary_search(&t).is_ok()
    }
}

/// One element's encoding — its [`tokens`](Self::tokens),
/// [`chunks`](Self::chunks) and [`chars`](Self::chars) — read in place
/// from the slab that holds it ([`Element::view`],
/// [`Collection::element_view`](crate::Collection::element_view)).
#[derive(Clone, Copy)]
pub struct ElementView<'a> {
    slab: &'a Slab,
    slot: usize,
}

impl<'a> ElementView<'a> {
    /// See [`Element::tokens`].
    #[inline]
    pub fn tokens(self) -> &'a [TokenId] {
        self.slab.tokens.get(self.slot)
    }

    /// See [`Element::chunks`].
    #[inline]
    pub fn chunks(self) -> &'a [TokenId] {
        self.slab.chunks.get(self.slot)
    }

    /// See [`Element::chars`].
    #[inline]
    pub fn chars(self) -> &'a [char] {
        self.slab.chars.get(self.slot)
    }
}

/// The encodings of a run of elements, laid end to end in the order they
/// were written: slot `k` is the `k`-th element [`SlabWriter::push`] was
/// given. Under whitespace tokenization no chunks or chars are written,
/// and every slot's are empty.
#[derive(Debug, Default)]
pub(crate) struct Slab {
    tokens: Runs<TokenId>,
    chunks: Runs<TokenId>,
    chars: Runs<char>,
}

impl Slab {
    /// Number of elements in the slab.
    pub(crate) fn len(&self) -> usize {
        self.tokens.ends.len().saturating_sub(1)
    }

    #[inline]
    pub(crate) fn view(&self, slot: u32) -> ElementView<'_> {
        ElementView {
            slab: self,
            slot: slot as usize,
        }
    }
}

/// Runs of `T` laid end to end: run `k` is `items[ends[k]..ends[k + 1]]`.
/// With no `ends` at all, every run is empty.
#[derive(Debug, Default)]
struct Runs<T> {
    items: Vec<T>,
    ends: Vec<u32>,
}

impl<T> Runs<T> {
    #[inline]
    fn get(&self, k: usize) -> &[T] {
        if self.ends.is_empty() {
            return &[];
        }
        &self.items[self.ends[k] as usize..self.ends[k + 1] as usize]
    }

    fn push(&mut self, run: impl IntoIterator<Item = T>) {
        if self.ends.is_empty() {
            self.ends.push(0);
        }
        self.items.extend(run);
        let end = u32::try_from(self.items.len()).expect("a slab holds under 2^32 items");
        self.ends.push(end);
    }

    fn reserve(&mut self, runs: usize, items: usize) {
        self.ends.reserve(runs + 1);
        self.items.reserve(items);
    }

    fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// Writes the encodings of elements into one [`Slab`], an element at a
/// time.
pub(crate) struct SlabWriter {
    slab: Slab,
    /// The q of q-gram tokenization; `None` under whitespace.
    q: Option<usize>,
    /// One element's sorted, deduplicated tokens, reused.
    sorted: Vec<TokenId>,
}

impl SlabWriter {
    /// A writer for about `elements` elements under `tokenization`, with
    /// about `tokens` token occurrences in all.
    pub(crate) fn new(tokenization: Tokenization, elements: usize, tokens: usize) -> Self {
        let q = match tokenization {
            Tokenization::Whitespace => None,
            Tokenization::QGram { q } => Some(q),
        };
        let mut slab = Slab::default();
        slab.tokens.reserve(elements, tokens);
        if let Some(q) = q {
            // One char per q-gram; the chunks are every q-th of them.
            slab.chunks.reserve(elements, tokens / q + elements);
            slab.chars.reserve(elements, tokens);
        }
        Self {
            slab,
            q,
            sorted: Vec::new(),
        }
    }

    /// Writes the encoding of one element of text `text` from the ids of
    /// its tokens in positional order, and returns its slot.
    pub(crate) fn push(&mut self, text: &str, ids: &[TokenId]) -> u32 {
        let slot = self.slab.len() as u32;
        self.sorted.clear();
        self.sorted.extend_from_slice(ids);
        self.sorted.sort_unstable();
        self.sorted.dedup();
        self.slab.tokens.push(self.sorted.iter().copied());
        if let Some(q) = self.q {
            self.slab.chunks.push(ids.iter().step_by(q).copied());
            self.slab.chars.push(text.chars());
        }
        slot
    }

    /// The slab, its buffers cut to what was written.
    pub(crate) fn finish(mut self) -> Arc<Slab> {
        self.slab.tokens.shrink_to_fit();
        self.slab.chunks.shrink_to_fit();
        self.slab.chars.shrink_to_fit();
        Arc::new(self.slab)
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
            .flat_map(|e| e.tokens().iter().copied())
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
        let mut slab = SlabWriter::new(Tokenization::Whitespace, 1, tokens.len());
        let slot = slab.push("", tokens);
        Element::new("", NO_ID, &slab.finish(), slot)
    }

    #[test]
    fn an_element_holds_no_encoding_of_its_own() {
        // Text, length, id, slot and the slab handle.
        assert!(std::mem::size_of::<Element>() <= 48);
        let mut slab = SlabWriter::new(Tokenization::QGram { q: 2 }, 0, 0);
        let texts = ["abc", "", "ab"];
        let ids: [&[TokenId]; 3] = [&[4, 1, 1], &[], &[1, 5]];
        for (text, ids) in texts.iter().zip(ids) {
            slab.push(text, ids);
        }
        let slab = slab.finish();
        let e: Vec<Element> = (0..3)
            .map(|k| Element::new(texts[k], NO_ID, &slab, k as u32))
            .collect();
        assert_eq!(
            (e[0].tokens(), e[0].chunks(), e[0].chars()),
            (&[1, 4][..], &[4, 1][..], &['a', 'b', 'c'][..])
        );
        assert_eq!(
            (e[1].tokens(), e[1].chunks(), e[1].chars()),
            (&[][..], &[][..], &[][..])
        );
        assert_eq!(
            (e[2].tokens(), e[2].chunks(), e[2].chars()),
            (&[1, 5][..], &[1][..], &['a', 'b'][..])
        );
        assert_eq!(e[0].char_len, 3);
        // Under whitespace tokenization only tokens are written.
        let words = elem(&[3, 1, 3]);
        assert_eq!(
            (words.tokens(), words.chunks(), words.chars()),
            (&[1, 3][..], &[][..], &[][..])
        );
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
