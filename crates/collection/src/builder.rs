//! Collection construction — interning, then the two token passes over
//! the distinct elements — incremental append, and external-set encoding.

use crate::element::{ByText, NO_ID};
use crate::{Collection, ElemId, Element, SetRecord, TokenDict};
use silkmoth_text::{qchunk_positions, qgrams, whitespace_tokens, TokenId};
use std::collections::HashMap;
use std::sync::Arc;

/// How element strings are turned into tokens (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tokenization {
    /// Whitespace-delimited words — used with Jaccard similarity.
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

    /// Raw token strings of one element under this tokenization.
    pub fn raw_tokens(&self, text: &str) -> Vec<String> {
        match self {
            Self::Whitespace => whitespace_tokens(text)
                .into_iter()
                .map(str::to_owned)
                .collect(),
            Self::QGram { q } => qgrams(text, *q),
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

    // Pass 1: posting counts. Every occurrence of an element is one
    // posting of each of its distinct tokens.
    let mut counts: HashMap<Box<str>, u32> = HashMap::new();
    let mut scratch: Vec<String> = Vec::new();
    for (text, &occurrences) in texts.iter().zip(&occurrences) {
        distinct_raw_tokens(text.as_ref(), tokenization, &mut scratch);
        for t in &scratch {
            if let Some(c) = counts.get_mut(t.as_str()) {
                *c += occurrences;
            } else {
                counts.insert(t.clone().into_boxed_str(), occurrences);
            }
        }
    }
    let dict = TokenDict::from_counts(counts);

    // Pass 2: encode every distinct element against the dictionary.
    let elems: Vec<Arc<Element>> = texts
        .iter()
        .enumerate()
        .map(|(id, text)| {
            Arc::new(encode_element(
                text.as_ref(),
                tokenization,
                id as ElemId,
                |t| dict.id(t).expect("token seen in pass 1"),
            ))
        })
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

    Collection::from_parts(sets, dict, elems, tokenization)
}

/// Fills `out` with the distinct raw tokens of one element, sorted.
fn distinct_raw_tokens(text: &str, tokenization: Tokenization, out: &mut Vec<String>) {
    out.clear();
    out.extend(tokenization.raw_tokens(text));
    out.sort_unstable();
    out.dedup();
}

/// Incremental append (see [`Collection::append_sets`]): an element
/// whose text the dictionary holds is shared, counting one more posting
/// for each of its tokens; an unseen text has its distinct tokens
/// interned into the token dictionary (bumping posting counts, assigning
/// fresh trailing ids to unseen tokens) and is then encoded exactly as
/// the two-pass build would, under the next element id.
pub(crate) fn append_sets<S: AsRef<str>>(
    collection: &mut Collection,
    raw: &[Vec<S>],
) -> std::ops::Range<crate::SetIdx> {
    let tokenization = collection.tokenization;
    let start = collection.sets.len() as crate::SetIdx;
    let mut distinct: Vec<String> = Vec::new();
    for set in raw {
        let mut elements = Vec::with_capacity(set.len());
        for elem in set {
            let text = elem.as_ref();
            if let Some(ByText(known)) = collection.elems.get(text) {
                for &t in known.tokens.iter() {
                    collection.dict.count_posting(t);
                }
                elements.push(Arc::clone(known));
                continue;
            }
            distinct_raw_tokens(text, tokenization, &mut distinct);
            for t in &distinct {
                collection.dict.intern_posting(t);
            }
            let dict = &collection.dict;
            let id = collection.by_id.len() as ElemId;
            let encoded = Arc::new(encode_element(text, tokenization, id, |t| {
                dict.id(t).expect("token interned above")
            }));
            collection.store(Arc::clone(&encoded));
            elements.push(encoded);
        }
        collection.max_set_len = collection.max_set_len.max(elements.len());
        collection.sets.push(SetRecord {
            elements: elements.into(),
        });
        collection.live.push(true);
    }
    collection.live_count += raw.len();
    start..collection.sets.len() as crate::SetIdx
}

/// Encodes one element under dictionary id `id`, resolving token strings
/// to ids via `resolve`.
fn encode_element(
    text: &str,
    tokenization: Tokenization,
    id: ElemId,
    mut resolve: impl FnMut(&str) -> TokenId,
) -> Element {
    match tokenization {
        Tokenization::Whitespace => {
            let mut tokens: Vec<TokenId> = whitespace_tokens(text)
                .into_iter()
                .map(&mut resolve)
                .collect();
            tokens.sort_unstable();
            tokens.dedup();
            Element {
                text: text.into(),
                tokens: tokens.into(),
                chunks: Box::new([]),
                chars: Box::new([]),
                char_len: text.chars().count() as u32,
                id,
            }
        }
        Tokenization::QGram { q } => {
            let grams = qgrams(text, q);
            let ids: Vec<TokenId> = grams.iter().map(|g| resolve(g)).collect();
            let char_len = text.chars().count();
            let chunks: Vec<TokenId> = qchunk_positions(char_len, q)
                .into_iter()
                .map(|p| ids[p])
                .collect();
            let mut tokens = ids;
            tokens.sort_unstable();
            tokens.dedup();
            Element {
                text: text.into(),
                tokens: tokens.into(),
                chunks: chunks.into(),
                chars: text.chars().collect(),
                char_len: char_len as u32,
                id,
            }
        }
    }
}

pub(crate) fn encode_external_set<S: AsRef<str>>(
    collection: &Collection,
    elements: &[S],
) -> SetRecord {
    // Unknown tokens get fresh ids beyond the dictionary, consistent within
    // this one reference set so repeated unknown tokens still match each
    // other in Jaccard evaluation.
    let mut fresh: HashMap<String, TokenId> = HashMap::new();
    let base = collection.dict().len() as TokenId;
    let tokenization = collection.tokenization();
    SetRecord {
        elements: elements
            .iter()
            .map(|e| {
                Arc::new(encode_element(e.as_ref(), tokenization, NO_ID, |t| {
                    if let Some(id) = collection.dict().id(t) {
                        id
                    } else {
                        let next = base + fresh.len() as TokenId;
                        *fresh.entry(t.to_owned()).or_insert(next)
                    }
                }))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(e.tokens.len(), 3);
        assert!(e.tokens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn qgram_build_has_chunks() {
        let raw = vec![vec!["abcdef", "abcd"]];
        let c = Collection::build(&raw, Tokenization::QGram { q: 3 });
        let e0 = &c.set(0).elements[0];
        assert_eq!(e0.char_len, 6);
        assert_eq!(e0.chunks.len(), 2); // ⌈6/3⌉
        let e1 = &c.set(0).elements[1];
        assert_eq!(e1.chunks.len(), 2); // ⌈4/3⌉
                                        // Chunk ids must be among the element's tokens.
        for &ch in e0.chunks.iter() {
            assert!(e0.tokens.binary_search(&ch).is_ok());
        }
        // chars materialized for edit similarity.
        assert_eq!(e0.chars.len(), 6);
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
        assert_eq!(r.elements[0].tokens.as_ref(), want.as_slice());
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
        assert!(e0.tokens.iter().all(|&t| t >= base));
        // "zzz" maps to the same fresh id in both elements.
        let zzz0 = e0.tokens.iter().find(|&&t| e1.tokens.contains(&t));
        assert!(zzz0.is_some());
        // Known token resolves to the dictionary id.
        assert!(e1.tokens.contains(&c.dict().id("alpha").unwrap()));
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
            c.set(2).elements[0].tokens.len(),
            fresh.set(2).elements[0].tokens.len()
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

    #[test]
    fn qgram_append_records_chunks() {
        let mut c = Collection::build(&[vec!["abcdef"]], Tokenization::QGram { q: 3 });
        c.append_sets(&[vec!["abcd"]]);
        let e = &c.set(1).elements[0];
        assert_eq!(e.chunks.len(), 2); // ⌈4/3⌉
        for &ch in e.chunks.iter() {
            assert!(e.tokens.binary_search(&ch).is_ok());
        }
        assert_eq!(e.chars.len(), 4);
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
        assert!(c.set(0).elements[0].tokens.is_empty());
        let cq = Collection::build(&raw, Tokenization::QGram { q: 2 });
        assert!(cq.set(0).elements[0].tokens.is_empty());
        assert!(cq.set(0).elements[0].chunks.is_empty());
    }
}
