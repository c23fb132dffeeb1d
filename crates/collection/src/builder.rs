//! Collection construction — interning, then one walk over the distinct
//! elements' tokens — incremental append, and external-set encoding. All
//! three read an element's tokens in the same walk, [`for_each_token`],
//! hash each token once, and write the element's encoding from the ids
//! into the slab the step shares ([`SlabWriter`]).

use crate::element::{ByText, SlabWriter, NO_ID};
use crate::{Collection, ElemId, Element, SetRecord, TokenDict};
use silkmoth_text::TokenId;
use std::collections::HashMap;
use std::sync::Arc;

/// How element strings are turned into tokens (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tokenization {
    /// Whitespace-delimited words (Unicode `White_Space`, runs
    /// collapsed) — used with Jaccard similarity.
    Whitespace,
    /// Padded q-grams — used with edit similarity. Also records q-chunks.
    QGram {
        /// Gram length `q ≥ 1`.
        q: usize,
    },
}

impl Tokenization {
    /// True for q-gram tokenization.
    pub fn is_edit(&self) -> bool {
        matches!(self, Self::QGram { .. })
    }
}

/// Sentinel padding the end of an element for q-gram extraction. `\u{1}`
/// sorts below every printable character.
const PAD: char = '\u{1}';

/// Calls `token` on each token of `text`, in positional order: its words,
/// or its q-grams.
///
/// The q-grams are those of `text` padded at the end with `q − 1`
/// [`PAD`]s (§3, footnote 3), as slices of `padded`, which is overwritten
/// with that padded text. An element of `L` characters thus has exactly
/// `L` q-grams, one starting at each character, and its `⌈L/q⌉` q-chunks
/// (§7.1) are the grams starting at `0, q, 2q, …`: every q-chunk is also
/// a q-gram, which is what lets signature q-chunks be probed against a
/// q-gram inverted index.
fn for_each_token<'a>(
    text: &'a str,
    tokenization: Tokenization,
    padded: &'a mut String,
    mut token: impl FnMut(&'a str),
) {
    match tokenization {
        Tokenization::Whitespace => text.split_whitespace().for_each(token),
        Tokenization::QGram { q } => {
            assert!(q >= 1, "q-gram length must be at least 1");
            padded.clear();
            padded.push_str(text);
            padded.extend(std::iter::repeat_n(PAD, q - 1));
            let padded: &'a str = padded;
            let starts = padded.char_indices().map(|(at, _)| at);
            let ends = starts.clone().chain([padded.len()]).skip(q);
            for (start, end) in starts.zip(ends) {
                token(&padded[start..end]);
            }
        }
    }
}

pub(crate) fn build_collection<S: AsRef<str>>(
    raw: &[Vec<S>],
    tokenization: Tokenization,
) -> Collection {
    // Intern: a distinct text takes the next element id at its first
    // occurrence, and only distinct texts are tokenised below.
    let mut ids: HashMap<&str, ElemId> = HashMap::new();
    let mut distinct: Vec<&str> = Vec::new();
    let sets: Vec<Vec<ElemId>> = raw
        .iter()
        .map(|set| {
            set.iter()
                .map(|text| {
                    let text = text.as_ref();
                    *ids.entry(text).or_insert_with(|| {
                        distinct.push(text);
                        (distinct.len() - 1) as ElemId
                    })
                })
                .collect()
        })
        .collect();
    drop(ids);
    build_interned(&distinct, &sets, tokenization)
}

/// The build over interned input (see [`Collection::build_interned`]).
pub(crate) fn build_interned<S: AsRef<str>, V: AsRef<[ElemId]>>(
    texts: &[S],
    sets: &[V],
    tokenization: Tokenization,
) -> Collection {
    let mut occurrences = vec![0u32; texts.len()];
    for &id in sets.iter().flat_map(AsRef::as_ref) {
        occurrences[id as usize] += 1;
    }

    // One walk over the distinct texts: each token is hashed once, into
    // the dictionary under a provisional id, and element `e`'s ids are
    // `ids[bounds[e]..bounds[e + 1]]`, in positional order. Every
    // occurrence of an element is one posting of each of its distinct
    // tokens; `counted[t]` is the last element that counted token `t`.
    let mut dict = TokenDict::default();
    let mut ids: Vec<TokenId> = Vec::new();
    let mut bounds = Vec::with_capacity(texts.len() + 1);
    bounds.push(0);
    let mut counted: Vec<ElemId> = Vec::new();
    let mut padded = String::new();
    for (e, (text, &n)) in texts.iter().zip(&occurrences).enumerate() {
        let start = ids.len();
        for_each_token(text.as_ref(), tokenization, &mut padded, |t| {
            ids.push(dict.id(t).unwrap_or_else(|| dict.push(t)));
        });
        counted.resize(dict.len(), NO_ID);
        for &t in &ids[start..] {
            if std::mem::replace(&mut counted[t as usize], e as ElemId) != e as ElemId {
                dict.add_postings(t, n);
            }
        }
        bounds.push(ids.len());
    }
    // Ids in decreasing frequency order; every element is encoded from
    // its remapped ids, into one slab, in id order.
    let new = dict.rank();
    for t in &mut ids {
        *t = new[*t as usize];
    }
    let mut slab = SlabWriter::new(tokenization, texts.len(), ids.len());
    for (text, span) in texts.iter().zip(bounds.windows(2)) {
        slab.push(text.as_ref(), &ids[span[0]..span[1]]);
    }
    // Freed before the elements, the sets and the element dictionary
    // are allocated.
    drop(ids);
    let slab = slab.finish();
    let elems: Vec<Arc<Element>> = texts
        .iter()
        .enumerate()
        .map(|(e, text)| Arc::new(Element::new(text.as_ref(), e as ElemId, &slab, e as u32)))
        .collect();

    let sets: Vec<SetRecord> = sets
        .iter()
        .map(|set| SetRecord {
            elements: set
                .as_ref()
                .iter()
                .map(|&id| Arc::clone(&elems[id as usize]))
                .collect(),
        })
        .collect();

    Collection::from_parts(sets, dict, slab, elems, tokenization)
}

/// Incremental append (see [`Collection::append_sets`]): an element
/// whose text the dictionary holds is shared; an unseen text is walked
/// once, its tokens the dictionary lacks are entered under fresh trailing
/// ids ([`intern_tokens`]), and it is encoded under the next element id,
/// into the one slab this call writes. Either way each of the element's
/// distinct tokens counts one more posting.
pub(crate) fn append_sets<S: AsRef<str>>(
    collection: &mut Collection,
    raw: &[Vec<S>],
) -> std::ops::Range<crate::SetIdx> {
    let tokenization = collection.tokenization;
    let start = collection.sets.len() as crate::SetIdx;
    let first = collection.by_id.len() as ElemId;
    // The texts this call encodes, in id order, and by text; a text has
    // no more tokens than bytes.
    let (elements, bytes) = text_sizes(raw.iter().flatten());
    let mut fresh: Vec<&str> = Vec::with_capacity(elements);
    let mut unseen: HashMap<&str, ElemId> = HashMap::with_capacity(elements);
    let mut slab = SlabWriter::new(tokenization, elements, bytes);
    let (mut padded, mut ids) = (String::new(), Vec::new());
    let sets: Vec<Vec<ElemId>> = raw
        .iter()
        .map(|set| {
            set.iter()
                .map(|elem| {
                    let text = elem.as_ref();
                    if let Some(ByText(known)) = collection.elems.get(text) {
                        return known.id;
                    }
                    *unseen.entry(text).or_insert_with(|| {
                        let dict = &mut collection.dict;
                        intern_tokens(dict, text, tokenization, &mut padded, &mut ids);
                        fresh.push(text);
                        first + slab.push(text, &ids)
                    })
                })
                .collect()
        })
        .collect();
    if !fresh.is_empty() {
        let slab = slab.finish();
        let elems = fresh
            .iter()
            .zip(0..)
            .map(|(text, slot)| Arc::new(Element::new(text, first + slot, &slab, slot)));
        collection.store(first, &slab, elems);
    }
    for set in sets {
        let elements: Box<[Arc<Element>]> = set
            .into_iter()
            .map(|id| Arc::clone(&collection.by_id[id as usize]))
            .collect();
        for element in elements.iter() {
            for &t in element.tokens() {
                collection.dict.add_postings(t, 1);
            }
        }
        collection.max_set_len = collection.max_set_len.max(elements.len());
        collection.sets.push(SetRecord { elements });
        collection.live.push(true);
    }
    collection.live_count += raw.len();
    start..collection.sets.len() as crate::SetIdx
}

/// How many texts, and how many bytes they hold.
fn text_sizes<S: AsRef<str>>(texts: impl IntoIterator<Item = S>) -> (usize, usize) {
    texts
        .into_iter()
        .fold((0, 0), |(n, bytes), t| (n + 1, bytes + t.as_ref().len()))
}

/// Fills `ids` with the ids of `text`'s tokens in positional order. The
/// tokens `dict` lacks are entered first, under the next free ids in
/// lexicographic order of their strings.
fn intern_tokens(
    dict: &mut TokenDict,
    text: &str,
    tokenization: Tokenization,
    padded: &mut String,
    ids: &mut Vec<TokenId>,
) {
    ids.clear();
    // `(position, token)` of every token the dictionary lacks.
    let mut unseen: Vec<(usize, &str)> = Vec::new();
    for_each_token(text, tokenization, padded, |t| {
        let id = dict.id(t).unwrap_or_else(|| {
            unseen.push((ids.len(), t));
            TokenId::MAX // replaced below
        });
        ids.push(id);
    });
    if unseen.is_empty() {
        return;
    }
    let mut fresh: Vec<&str> = unseen.iter().map(|&(_, t)| t).collect();
    fresh.sort_unstable();
    fresh.dedup();
    let base = dict.len() as TokenId;
    for t in &fresh {
        dict.push(t);
    }
    for (at, t) in unseen {
        ids[at] = base + fresh.binary_search(&t).expect("entered above") as TokenId;
    }
}

pub(crate) fn encode_external_set<S: AsRef<str>>(
    collection: &Collection,
    elements: &[S],
) -> SetRecord {
    // Unknown tokens get fresh ids beyond the dictionary, in the order
    // they first occur and consistent within this one reference set, so
    // repeated unknown tokens still match each other in Jaccard
    // evaluation.
    let mut fresh: HashMap<Box<str>, TokenId> = HashMap::new();
    let base = collection.dict.len() as TokenId;
    let tokenization = collection.tokenization;
    let (mut padded, mut ids) = (String::new(), Vec::new());
    let (n, bytes) = text_sizes(elements);
    let mut slab = SlabWriter::new(tokenization, n, bytes);
    for e in elements {
        ids.clear();
        for_each_token(e.as_ref(), tokenization, &mut padded, |t| {
            let known = collection.dict.id(t).or_else(|| fresh.get(t).copied());
            ids.push(known.unwrap_or_else(|| {
                let next = base + fresh.len() as TokenId;
                fresh.insert(t.into(), next);
                next
            }));
        });
        slab.push(e.as_ref(), &ids);
    }
    let slab = slab.finish();
    SetRecord {
        elements: elements
            .iter()
            .enumerate()
            .map(|(slot, e)| Arc::new(Element::new(e.as_ref(), NO_ID, &slab, slot as u32)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens [`for_each_token`] walks.
    fn tokens(text: &str, tokenization: Tokenization) -> Vec<String> {
        let mut out = Vec::new();
        for_each_token(text, tokenization, &mut String::new(), |t| {
            out.push(t.to_owned())
        });
        out
    }

    fn grams(text: &str, q: usize) -> Vec<String> {
        tokens(text, Tokenization::QGram { q })
    }

    #[test]
    fn words_split_on_unicode_whitespace_runs() {
        let words = |text| tokens(text, Tokenization::Whitespace);
        assert_eq!(words("50 Vassar St MA"), ["50", "Vassar", "St", "MA"]);
        assert_eq!(words("  a \t b\n"), ["a", "b"]);
        assert_eq!(words("a\u{a0}b\u{3000}\u{3000}c"), ["a", "b", "c"]);
        assert!(words("").is_empty());
        assert!(words("   \t\n ").is_empty());
    }

    #[test]
    fn qgrams_are_padded_and_one_per_char() {
        // §3: the 4-grams of "50 Vassar St MA" are "50 V", "0 Va", …
        let g = grams("50 Vassar St MA", 4);
        assert_eq!(
            (&g[..2], g.len()),
            (&["50 V".into(), "0 Va".into()][..], 15)
        );
        assert_eq!(grams("abcd", 3), ["abc", "bcd", "cd\u{1}", "d\u{1}\u{1}"]);
        assert_eq!(grams("héllo", 2)[..2], ["hé", "él"]);
        for q in 1..=6 {
            let g = grams("silkmoth", q);
            assert_eq!(g.len(), 8);
            assert!(g.iter().all(|g| g.chars().count() == q), "q={q}");
        }
        assert_eq!(grams("moth", 1), ["m", "o", "t", "h"]);
        assert!(grams("", 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_q_panics() {
        grams("abc", 0);
    }

    #[test]
    fn whitespace_build_frequency_order() {
        let raw = vec![vec!["a b", "a c"], vec!["a", "b d"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        // Posting counts: a=3 elements, b=2, c=1, d=1.
        let d = c.dict();
        assert_eq!(d.id("a"), Some(0));
        assert_eq!(d.id("b"), Some(1));
        assert_eq!(d.id("c"), Some(2)); // tie with d, lexicographic
        assert_eq!(d.id("d"), Some(3));
    }

    #[test]
    fn element_tokens_sorted_dedup() {
        let raw = vec![vec!["x y x z y"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let e = &c.set(0).elements[0];
        assert_eq!(e.tokens().len(), 3);
        assert!(e.tokens().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn qgram_build_has_chunks() {
        let raw = vec![vec!["abcdef", "abcd"]];
        let c = Collection::build(&raw, Tokenization::QGram { q: 3 });
        let e0 = &c.set(0).elements[0];
        assert_eq!(e0.char_len, 6);
        assert_eq!(e0.chunks().len(), 2); // ⌈6/3⌉
        let e1 = &c.set(0).elements[1];
        assert_eq!(e1.chunks().len(), 2); // ⌈4/3⌉
                                          // Chunk ids must be among the element's tokens.
        for &ch in e0.chunks().iter() {
            assert!(e0.tokens().binary_search(&ch).is_ok());
        }
        // chars materialized for edit similarity.
        assert_eq!(e0.chars().len(), 6);
    }

    #[test]
    fn external_encoding_known_tokens_match() {
        let raw = vec![vec!["alpha beta"], vec!["beta gamma"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let r = c.encode_set(&["beta alpha"]);
        let want: Vec<_> = {
            let mut v = vec![c.dict().id("alpha").unwrap(), c.dict().id("beta").unwrap()];
            v.sort_unstable();
            v
        };
        assert_eq!(r.elements[0].tokens(), want.as_slice());
    }

    #[test]
    fn external_encoding_unknown_tokens_fresh_and_consistent() {
        let raw = vec![vec!["alpha"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let r = c.encode_set(&["zzz yyy", "zzz alpha"]);
        let base = c.dict().len() as u32;
        let e0 = &r.elements[0];
        let e1 = &r.elements[1];
        // Unknown ids are ≥ base.
        assert!(e0.tokens().iter().all(|&t| t >= base));
        // "zzz" maps to the same fresh id in both elements.
        let zzz0 = e0.tokens().iter().find(|&&t| e1.tokens().contains(&t));
        assert!(zzz0.is_some());
        // Known token resolves to the dictionary id.
        assert!(e1.tokens().contains(&c.dict().id("alpha").unwrap()));
    }

    #[test]
    fn append_grows_dictionary_without_moving_ids() {
        let raw = vec![vec!["a b", "a c"], vec!["a", "b d"]];
        let mut c = Collection::build(&raw, Tokenization::Whitespace);
        let before: Vec<(String, u32)> = ["a", "b", "c", "d"]
            .iter()
            .map(|t| (t.to_string(), c.dict().id(t).unwrap()))
            .collect();
        let ids = c.append_sets(&[vec!["a z"], vec!["z y"]]);
        assert_eq!(ids, 2..4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.live_len(), 4);
        // Established ids never move; new tokens get trailing ids.
        for (t, id) in &before {
            assert_eq!(c.dict().id(t), Some(*id), "{t}");
        }
        assert!(c.dict().id("z").unwrap() >= 4);
        assert!(c.dict().id("y").unwrap() >= 4);
        // Frequencies track postings: "a" gained one element, "z" two.
        assert_eq!(c.dict().frequency(c.dict().id("a").unwrap()), 4);
        assert_eq!(c.dict().frequency(c.dict().id("z").unwrap()), 2);
        // Appended elements encode exactly like a fresh build's would
        // (same token equality classes).
        let fresh = Collection::build(
            &[raw[0].clone(), raw[1].clone(), vec!["a z"], vec!["z y"]],
            Tokenization::Whitespace,
        );
        assert_eq!(
            c.set(2).elements[0].tokens().len(),
            fresh.set(2).elements[0].tokens().len()
        );
    }

    #[test]
    fn append_shares_stored_elements_and_counts_their_postings() {
        let mut c = Collection::build(&[vec!["a b", "c"], vec!["a b"]], Tokenization::Whitespace);
        assert_eq!(c.elems.len(), 2);
        assert!(Arc::ptr_eq(&c.set(0).elements[0], &c.set(1).elements[0]));
        c.remove_sets(&[1]).unwrap();
        c.append_sets(&[vec!["c", "a b", "a b", "d"]]);
        // One new text; the known ones are the stored elements, also
        // the one a removed set holds.
        assert_eq!(c.elems.len(), 3);
        let appended = c.set(2);
        assert!(Arc::ptr_eq(&appended.elements[0], &c.set(0).elements[1]));
        assert!(Arc::ptr_eq(&appended.elements[1], &c.set(1).elements[0]));
        assert!(Arc::ptr_eq(&appended.elements[1], &appended.elements[2]));
        assert_eq!(appended.elements[3].id(), Some(2));
        // Frequencies count occurrences, shared or not: they are the
        // lengths of the posting lists.
        let index = crate::InvertedIndex::build(&c);
        for (token, postings) in [("a", 4), ("b", 4), ("c", 2), ("d", 1)] {
            let id = c.dict().id(token).unwrap();
            assert_eq!(c.dict().frequency(id), postings, "{token}");
            assert_eq!(index.cost(id), postings as usize, "{token}");
        }
        // An external encoding touches neither dictionary.
        let r = c.encode_set(&["a b", "zz"]);
        assert_eq!(r.elements[0], c.set(0).elements[0]);
        assert_eq!((r.elements[0].id(), r.elements[1].id()), (None, None));
        assert_eq!((c.elems.len(), c.dict().len()), (3, 4));
    }

    #[test]
    fn remove_tombstones_and_compact_rebuilds() {
        let raw = vec![vec!["a b"], vec!["c d"], vec!["e f"], vec!["a f"]];
        let mut c = Collection::build(&raw, Tokenization::Whitespace);
        assert_eq!(c.remove_sets(&[1, 3, 3]).unwrap(), 2, "idempotent per id");
        assert_eq!(c.live_len(), 2);
        assert!(c.is_live(0) && !c.is_live(1) && c.is_live(2) && !c.is_live(3));
        assert_eq!(c.live_ids().collect::<Vec<_>>(), vec![0, 2]);
        // Unknown ids are an error and mutate nothing.
        assert_eq!(
            c.remove_sets(&[0, 9]),
            Err(crate::UpdateError::NoSuchSet(9))
        );
        assert!(c.is_live(0));

        // The removed sets' elements stay in the dictionary until then.
        assert_eq!(c.elems.len(), 4);
        let remap = c.compact();
        assert_eq!(remap, vec![Some(0), None, Some(1), None]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.live_len(), 2);
        assert_eq!(c.elems.len(), 2);
        assert_eq!(c.set(1).elements[0].id(), Some(1));
        // Compaction is exactly a fresh build over the live raw texts.
        let fresh = Collection::build(&[vec!["a b"], vec!["e f"]], Tokenization::Whitespace);
        assert_eq!(c.dict().len(), fresh.dict().len());
        for (a, b) in c.sets().iter().zip(fresh.sets()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn max_set_len_follows_build_append_compact_and_decode() {
        let mut c = Collection::build(&[vec!["a", "b"], vec!["c"]], Tokenization::Whitespace);
        assert_eq!(c.max_set_len(), 2);
        c.append_sets(&[vec!["d"], vec!["e", "f", "g", "h"]]);
        assert_eq!(c.max_set_len(), 4);
        // A tombstoned slot still exists, so it still bounds the scratch.
        c.remove_sets(&[3]).unwrap();
        assert_eq!(c.max_set_len(), 4);
        let decoded = crate::codec::decode(&crate::codec::encode(&c)).unwrap();
        assert_eq!(decoded.max_set_len(), 2);
        c.compact();
        assert_eq!(c.max_set_len(), 2);
        let empty = Collection::build(&Vec::<Vec<&str>>::new(), Tokenization::Whitespace);
        assert_eq!(empty.max_set_len(), 0);
    }

    /// Every stored element, read by id from its slab, is what the
    /// element itself gives.
    fn assert_views_are_the_elements(c: &Collection) {
        assert_eq!(
            c.slabs.iter().map(|(_, slab)| slab.len()).sum::<usize>(),
            c.by_id.len()
        );
        for id in 0..c.by_id.len() as ElemId {
            let (view, element) = (c.element_view(id), c.element(id));
            assert_eq!(view.tokens(), element.tokens(), "tokens of {id}");
            assert_eq!(view.chunks(), element.chunks(), "chunks of {id}");
            assert_eq!(view.chars(), element.chars(), "chars of {id}");
        }
    }

    #[test]
    fn element_views_follow_build_append_and_compact() {
        for tokenization in [
            Tokenization::Whitespace,
            Tokenization::QGram { q: 2 },
            Tokenization::QGram { q: 3 },
        ] {
            let mut c = Collection::build(&[vec!["a b", "c", "a b"], vec!["d e"]], tokenization);
            assert_eq!(c.slabs.len(), 1);
            assert_views_are_the_elements(&c);
            // New texts with new tokens, one of them twice, beside a
            // stored one: one more slab, of the two new texts.
            c.append_sets(&[vec!["c", "x y"], vec!["x y", "zz"]]);
            assert_eq!((c.slabs.len(), c.slabs[1].0), (2, 3));
            assert_views_are_the_elements(&c);
            // Stored texts only: no slab.
            c.append_sets(&[vec!["zz", "a b"]]);
            assert_eq!(c.slabs.len(), 2);
            c.append_sets(&[vec![""], vec!["c d"]]);
            assert_eq!(c.slabs.len(), 3);
            assert_views_are_the_elements(&c);
            c.remove_sets(&[0, 2]).unwrap();
            c.compact();
            assert_eq!(c.slabs.len(), 1);
            assert_views_are_the_elements(&c);
            let empty = Collection::build(&Vec::<Vec<&str>>::new(), tokenization);
            assert!(empty.slabs.is_empty());
        }
    }

    #[test]
    fn qgram_append_records_chunks() {
        let mut c = Collection::build(&[vec!["abcdef"]], Tokenization::QGram { q: 3 });
        c.append_sets(&[vec!["abcd"]]);
        let e = &c.set(1).elements[0];
        assert_eq!(e.chunks().len(), 2); // ⌈4/3⌉
        for &ch in e.chunks().iter() {
            assert!(e.tokens().binary_search(&ch).is_ok());
        }
        assert_eq!(e.chars().len(), 4);
    }

    #[test]
    fn empty_collection() {
        let c = Collection::build(&Vec::<Vec<&str>>::new(), Tokenization::Whitespace);
        assert!(c.is_empty());
        assert_eq!(c.dict().len(), 0);
    }

    #[test]
    fn empty_element_string() {
        let raw = vec![vec![""]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        assert!(c.set(0).elements[0].tokens().is_empty());
        let cq = Collection::build(&raw, Tokenization::QGram { q: 2 });
        assert!(cq.set(0).elements[0].tokens().is_empty());
        assert!(cq.set(0).elements[0].chunks().is_empty());
    }
}
