//! Compact binary serialization of corpora, dictionary-coded: each
//! distinct element text once, each set as indices into those texts —
//! the shape of a collection's own element dictionary. [`intern`] codes
//! the live sets of one or more collections, [`encode_interned`] /
//! [`decode_interned`] write and read the result (the payload of a
//! `silkmoth-storage` snapshot), and [`encode`] / [`decode`] wrap a
//! [`Collection`]. Decoding replays the deterministic
//! [`Collection::build_interned`], so a round-trip reproduces the same
//! element ids, token ids, encodings and inverted index.
//!
//! Format (all integers little-endian; version 1, `"SMC1"`, wrote one
//! text per occurrence and is rejected by name):
//!
//! ```text
//! magic    "SMC2" ("SMC" + format version)  4 bytes
//! tok      0 = whitespace, 1 = q-gram       1 byte
//! q        u32 (0 when whitespace)          4 bytes
//! n_texts  u64, then per text: len u32 + UTF-8 bytes
//! n_sets   u64, then per set: n_elems u32 + n_elems × u32 text index
//! ```

use crate::{Collection, SetIdx, Tokenization};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;

const VERSION: u8 = b'2';

/// Largest q-gram length a corpus may declare. Decoding replays the
/// collection build, whose q-gram padding allocates `O(q)` per element —
/// an unchecked corrupt header could demand gigabytes (or `q = 0`, which
/// the tokenizer rejects by panic), so the header is validated instead.
/// Real corpora use single-digit q (the paper's experiments use 2–4).
pub const MAX_Q: usize = 64;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the `SMC` magic.
    BadMagic,
    /// An `SMC` corpus of a format version this build does not read.
    UnknownVersion(char),
    /// The buffer ended before the declared content.
    Truncated,
    /// An element's bytes are not valid UTF-8.
    BadUtf8,
    /// Unknown tokenization tag.
    BadTokenization(u8),
    /// Declared q-gram length outside `1..=MAX_Q`.
    BadQ(usize),
    /// A set names a text index past the declared text count.
    BadIndex(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a SilkMoth corpus (bad magic)"),
            Self::UnknownVersion(v) => write!(f, "unknown corpus format version {v}"),
            Self::Truncated => write!(f, "corpus truncated"),
            Self::BadUtf8 => write!(f, "corpus contains invalid UTF-8"),
            Self::BadTokenization(t) => write!(f, "unknown tokenization tag {t}"),
            Self::BadQ(q) => write!(f, "q-gram length {q} outside 1..={MAX_Q}"),
            Self::BadIndex(i) => write!(f, "text index {i} past the declared texts"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Dictionary-codes sets of one or more collections, each named as
/// `(index into parts, slot)`: every distinct text they hold, once, in
/// first-occurrence order over `slots`, and each set as indices into
/// those texts. Texts are found by element id, so only an element's
/// first occurrence per collection does any work, and equal texts of
/// different collections (an engine's shards) are merged by text: the
/// result does not depend on how the sets are split across `parts`.
pub fn intern<'a>(
    parts: &[&'a Collection],
    slots: impl IntoIterator<Item = (usize, SetIdx)>,
) -> (Vec<&'a str>, Vec<Vec<u32>>) {
    const UNSEEN: u32 = u32::MAX;
    let mut index: Vec<Vec<u32>> = parts.iter().map(|c| vec![UNSEEN; c.by_id.len()]).collect();
    let mut by_text: HashMap<&str, u32> = HashMap::new();
    let mut texts: Vec<&'a str> = Vec::new();
    let sets = slots
        .into_iter()
        .map(|(part, slot)| {
            let elements = parts[part].set(slot).elements.iter();
            elements
                .map(|e| {
                    let known = &mut index[part][e.id as usize];
                    if *known == UNSEEN {
                        let next = texts.len() as u32;
                        *known = match parts.len() {
                            1 => next,
                            _ => *by_text.entry(&e.text).or_insert(next),
                        };
                        if *known == next {
                            texts.push(&e.text);
                        }
                    }
                    *known
                })
                .collect()
        })
        .collect();
    (texts, sets)
}

/// Serializes dictionary-coded sets (what [`intern`] gives) under a
/// tokenization.
pub fn encode_interned<S: AsRef<str>, V: AsRef<[u32]>>(
    texts: &[S],
    sets: &[V],
    tokenization: Tokenization,
) -> Bytes {
    let text_bytes: usize = texts.iter().map(|t| 4 + t.as_ref().len()).sum();
    let index_bytes: usize = sets.iter().map(|s| 4 + 4 * s.as_ref().len()).sum();
    let mut buf = BytesMut::with_capacity(25 + text_bytes + index_bytes);
    let (tag, q) = match tokenization {
        Tokenization::Whitespace => (0, 0),
        Tokenization::QGram { q } => (1, q as u32),
    };
    buf.put_slice(&[b'S', b'M', b'C', VERSION, tag]);
    buf.put_u32_le(q);
    buf.put_u64_le(texts.len() as u64);
    for text in texts {
        buf.put_u32_le(text.as_ref().len() as u32);
        buf.put_slice(text.as_ref().as_bytes());
    }
    buf.put_u64_le(sets.len() as u64);
    for set in sets {
        buf.put_u32_le(set.as_ref().len() as u32);
        for &i in set.as_ref() {
            buf.put_u32_le(i);
        }
    }
    buf.freeze()
}

/// Serializes a collection's **live** sets (tombstoned slots are
/// skipped, so an encode → decode round-trip of a mutated collection
/// yields its [`compact`](Collection::compact)ed form, ids renumbered
/// densely).
pub fn encode(collection: &Collection) -> Bytes {
    let (texts, sets) = intern(&[collection], collection.live_ids().map(|id| (0, id)));
    encode_interned(&texts, &sets, collection.tokenization())
}

/// The first `n` bytes of `buf`, which then starts after them.
fn take<'b>(buf: &mut &'b [u8], n: usize) -> Result<&'b [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

/// A declared item count, refused unless the rest of the buffer could
/// hold that many items of at least 4 bytes each.
fn count(buf: &mut &[u8]) -> Result<usize, CodecError> {
    let n = u64::from_le_bytes(take(buf, 8)?.try_into().expect("8 bytes"));
    match usize::try_from(n) {
        Ok(n) if n <= buf.len() / 4 => Ok(n),
        _ => Err(CodecError::Truncated),
    }
}

/// Deserializes what [`encode_interned`] wrote: the texts, the sets as
/// indices into them, and the tokenization. Every declared count and
/// length is checked against the bytes left before anything is
/// allocated for it, and every index against the text count.
#[allow(clippy::type_complexity)]
pub fn decode_interned(
    mut buf: &[u8],
) -> Result<(Vec<String>, Vec<Vec<u32>>, Tokenization), CodecError> {
    match buf {
        [b'S', b'M', b'C', VERSION, ..] => {}
        [b'S', b'M', b'C', v, ..] if v.is_ascii_digit() => {
            return Err(CodecError::UnknownVersion(*v as char))
        }
        _ => return Err(CodecError::BadMagic),
    }
    let header = take(&mut buf, 9)?;
    let q = u32_le(&header[5..]) as usize;
    let tokenization = match header[4] {
        0 => Tokenization::Whitespace,
        1 if (1..=MAX_Q).contains(&q) => Tokenization::QGram { q },
        1 => return Err(CodecError::BadQ(q)),
        t => return Err(CodecError::BadTokenization(t)),
    };
    let n_texts = count(&mut buf)?;
    let mut texts = Vec::with_capacity(n_texts);
    for _ in 0..n_texts {
        let len = u32_le(take(&mut buf, 4)?) as usize;
        let text = std::str::from_utf8(take(&mut buf, len)?).map_err(|_| CodecError::BadUtf8)?;
        texts.push(text.to_owned());
    }
    let n_sets = count(&mut buf)?;
    let mut sets = Vec::with_capacity(n_sets);
    for _ in 0..n_sets {
        let n = u32_le(take(&mut buf, 4)?) as usize;
        let set: Vec<u32> = take(&mut buf, 4 * n)?.chunks_exact(4).map(u32_le).collect();
        if let Some(&bad) = set.iter().find(|&&i| i as usize >= n_texts) {
            return Err(CodecError::BadIndex(bad));
        }
        sets.push(set);
    }
    Ok((texts, sets, tokenization))
}

/// Deserializes a collection by replaying the deterministic build over
/// the decoded texts.
pub fn decode(buf: &[u8]) -> Result<Collection, CodecError> {
    let (texts, sets, tokenization) = decode_interned(buf)?;
    Ok(Collection::build_interned(&texts, &sets, tokenization))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::table2;
    use crate::InvertedIndex;

    #[test]
    fn roundtrip_whitespace() {
        let (c, _) = table2();
        let bytes = encode(&c);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.dict().len(), c.dict().len());
        for (a, b) in c.sets().iter().zip(back.sets()) {
            assert_eq!(a, b);
        }
        // Derived structures match too.
        let ia = InvertedIndex::build(&c);
        let ib = InvertedIndex::build(&back);
        assert_eq!(ia.total_postings(), ib.total_postings());
    }

    #[test]
    fn roundtrip_qgram() {
        let raw = vec![vec!["abcdef", "héllo wörld"], vec!["xyz"]];
        let c = Collection::build(&raw, Tokenization::QGram { q: 3 });
        let back = decode(&encode(&c)).unwrap();
        assert_eq!(back.tokenization(), Tokenization::QGram { q: 3 });
        for (a, b) in c.sets().iter().zip(back.sets()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_empty() {
        let c = Collection::build(&Vec::<Vec<&str>>::new(), Tokenization::Whitespace);
        let back = decode(&encode(&c)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE").unwrap_err(), CodecError::BadMagic);
        assert_eq!(decode(b"").unwrap_err(), CodecError::BadMagic);
        assert_eq!(decode(b"SMCx").unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn version_one_rejected_by_name() {
        let mut b = encode(&table2().0).to_vec();
        b[3] = b'1';
        let err = decode(&b).unwrap_err();
        assert_eq!(err, CodecError::UnknownVersion('1'));
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let (c, _) = table2();
        let bytes = encode(&c);
        for cut in [5, 9, 17, bytes.len() - 1] {
            let got = decode(&bytes[..cut]);
            assert!(got.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn interned_roundtrip_preserves_empty_sets_and_repeats() {
        // Zero-element sets and a text repeated within one set come back
        // verbatim: the storage layer relies on both.
        let texts = ["a b", "c", ""];
        let sets: Vec<Vec<u32>> = vec![vec![0, 1, 0], vec![], vec![2]];
        let bytes = encode_interned(&texts, &sets, Tokenization::Whitespace);
        let (back_texts, back_sets, tok) = decode_interned(&bytes).unwrap();
        assert_eq!(back_texts, texts);
        assert_eq!(back_sets, sets);
        assert_eq!(tok, Tokenization::Whitespace);
    }

    #[test]
    fn an_index_past_the_texts_is_rejected() {
        let bytes = encode_interned(&["a"], &[vec![0u32, 1]], Tokenization::Whitespace);
        assert_eq!(decode(&bytes).unwrap_err(), CodecError::BadIndex(1));
    }

    #[test]
    fn intern_numbers_texts_by_first_occurrence_and_skips_orphans() {
        let mut c = Collection::build(
            &[vec!["x", "y"], vec!["z"], vec!["y", "w", "x"]],
            Tokenization::Whitespace,
        );
        c.remove_sets(&[0]).unwrap();
        let (texts, sets) = intern(&[&c], c.live_ids().map(|id| (0, id)));
        assert_eq!(texts, ["z", "y", "w", "x"]);
        assert_eq!(sets, [vec![0], vec![1, 2, 3]]);
        // Split across two collections, equal texts merge by text.
        let a = Collection::build(&[vec!["z"], vec!["y", "w", "x"]], Tokenization::Whitespace);
        let b = Collection::build(&[vec!["x", "v"]], Tokenization::Whitespace);
        let (texts, sets) = intern(&[&a, &b], [(0, 0), (1, 0), (0, 1)]);
        assert_eq!(texts, ["z", "x", "v", "y", "w"]);
        assert_eq!(sets, [vec![0], vec![1, 2], vec![3, 4, 1]]);
    }

    #[test]
    fn bad_tokenization_tag() {
        let mut b = encode(&table2().0).to_vec();
        b[4] = 9;
        assert_eq!(decode(&b).unwrap_err(), CodecError::BadTokenization(9));
    }
}
