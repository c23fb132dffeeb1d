//! Frequency-ordered token dictionary.

use silkmoth_text::TokenId;
use std::collections::HashMap;

/// Interns token strings to dense [`TokenId`]s. A build assigns them in
/// **decreasing global frequency** (ties broken by lexicographic order),
/// so `id 0` is the corpus's most frequent token — the paper's `t1`.
///
/// Frequency here means the number of `(set, element)` postings a token
/// would occupy in the inverted index, i.e. each element counts a token at
/// most once.
#[derive(Debug, Clone, Default)]
pub struct TokenDict {
    by_token: HashMap<Box<str>, TokenId>,
    tokens: Vec<Box<str>>,
    freq: Vec<u32>,
}

impl TokenDict {
    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Looks up a token string.
    pub fn id(&self, token: &str) -> Option<TokenId> {
        self.by_token.get(token).copied()
    }

    /// The string for a token id (panics if out of range).
    pub fn token(&self, id: TokenId) -> &str {
        &self.tokens[id as usize]
    }

    /// Global posting count of a token id; 0 for out-of-dictionary ids
    /// (external reference tokens).
    pub fn frequency(&self, id: TokenId) -> u32 {
        self.freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Enters `token`, which the dictionary does not hold, under the
    /// next free id, with no postings yet.
    pub(crate) fn push(&mut self, token: &str) -> TokenId {
        let id = self.tokens.len() as TokenId;
        let boxed: Box<str> = token.into();
        let held = self.by_token.insert(boxed.clone(), id);
        debug_assert!(held.is_none(), "{token:?} entered twice");
        self.tokens.push(boxed);
        self.freq.push(0);
        id
    }

    /// Counts `n` more postings of token `id`.
    pub(crate) fn add_postings(&mut self, id: TokenId, n: u32) {
        self.freq[id as usize] += n;
    }

    /// Renumbers every token in decreasing frequency, ties broken
    /// lexicographically, and returns the new id of each old one
    /// (`new[old]`). The map keeps its entries; only their ids change.
    ///
    /// Appends assign ids past the end and do **not** re-rank — that
    /// order is a signature-cost heuristic, never a correctness
    /// requirement, and [`Collection::compact`](crate::Collection::compact)
    /// restores it.
    pub(crate) fn rank(&mut self) -> Vec<TokenId> {
        let mut order: Vec<TokenId> = (0..self.tokens.len() as TokenId).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.freq[b]
                .cmp(&self.freq[a])
                .then_with(|| self.tokens[a].cmp(&self.tokens[b]))
        });
        let mut new = vec![0; order.len()];
        for (rank, &old) in order.iter().enumerate() {
            new[old as usize] = rank as TokenId;
        }
        for id in self.by_token.values_mut() {
            *id = new[*id as usize];
        }
        let mut tokens = std::mem::take(&mut self.tokens);
        self.tokens = order
            .iter()
            .map(|&old| std::mem::take(&mut tokens[old as usize]))
            .collect();
        self.freq = order.iter().map(|&old| self.freq[old as usize]).collect();
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ranked dictionary of `(token, postings)`, entered in that order.
    fn ranked(counts: &[(&str, u32)]) -> TokenDict {
        let mut d = TokenDict::default();
        for &(token, n) in counts {
            let id = d.push(token);
            d.add_postings(id, n);
        }
        d.rank();
        d
    }

    fn dict() -> TokenDict {
        ranked(&[("rare", 1), ("common", 9), ("mid", 4)])
    }

    #[test]
    fn ids_follow_decreasing_frequency() {
        let d = dict();
        assert_eq!(d.id("common"), Some(0));
        assert_eq!(d.id("mid"), Some(1));
        assert_eq!(d.id("rare"), Some(2));
    }

    #[test]
    fn roundtrip() {
        let d = dict();
        for t in ["common", "mid", "rare"] {
            assert_eq!(d.token(d.id(t).unwrap()), t);
        }
        assert_eq!(d.id("missing"), None);
    }

    #[test]
    fn frequency_lookup() {
        let d = dict();
        assert_eq!(d.frequency(0), 9);
        assert_eq!(d.frequency(2), 1);
        assert_eq!(d.frequency(99), 0); // out-of-dictionary
    }

    #[test]
    fn lexicographic_tie_break() {
        let d = ranked(&[("b", 5), ("a", 5), ("c", 5)]);
        assert_eq!(d.id("a"), Some(0));
        assert_eq!(d.id("b"), Some(1));
        assert_eq!(d.id("c"), Some(2));
    }

    #[test]
    fn rank_returns_the_new_id_of_each_old_one() {
        let mut d = TokenDict::default();
        for (token, n) in [("x", 1), ("y", 3), ("z", 2)] {
            let id = d.push(token);
            d.add_postings(id, n);
        }
        assert_eq!(d.rank(), [2, 0, 1]);
        assert_eq!(
            (0..3)
                .map(|t| (d.token(t), d.frequency(t)))
                .collect::<Vec<_>>(),
            [("y", 3), ("z", 2), ("x", 1)]
        );
        // Pushed after ranking: the next id, whatever its count.
        assert_eq!(d.push("w"), 3);
    }

    #[test]
    fn empty_dict() {
        let d = ranked(&[]);
        assert!(d.is_empty());
        assert_eq!(d.id("x"), None);
    }
}
