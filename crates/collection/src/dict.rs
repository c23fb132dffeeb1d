//! Frequency-ordered token dictionary.

use silkmoth_text::TokenId;
use std::collections::HashMap;

/// Interns token strings to dense [`TokenId`]s assigned in **decreasing
/// global frequency** (ties broken by lexicographic order), so `id 0` is
/// the corpus's most frequent token — the paper's `t1`.
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
    /// Builds the dictionary from `(token, posting_count)` pairs.
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = (Box<str>, u32)>,
    {
        let mut pairs: Vec<(Box<str>, u32)> = counts.into_iter().collect();
        // Decreasing frequency, lexicographic tie-break (deterministic).
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut by_token = HashMap::with_capacity(pairs.len());
        let mut tokens = Vec::with_capacity(pairs.len());
        let mut freq = Vec::with_capacity(pairs.len());
        for (i, (tok, f)) in pairs.into_iter().enumerate() {
            by_token.insert(tok.clone(), i as TokenId);
            tokens.push(tok);
            freq.push(f);
        }
        Self {
            by_token,
            tokens,
            freq,
        }
    }

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

    /// Counts one more posting of a token already in the dictionary (an
    /// appended occurrence of a stored element).
    pub(crate) fn count_posting(&mut self, id: TokenId) {
        self.freq[id as usize] += 1;
    }

    /// Interns `token` for an incremental append, counting one more
    /// posting: an existing token keeps its id (frequency bumped), a new
    /// token is appended with the next free id.
    ///
    /// Appended ids are **not** re-sorted into the decreasing-frequency
    /// order `from_counts` establishes — that order is a signature-cost
    /// heuristic, never a correctness requirement, and
    /// [`Collection::compact`](crate::Collection::compact) restores it.
    pub(crate) fn intern_posting(&mut self, token: &str) -> TokenId {
        if let Some(&id) = self.by_token.get(token) {
            self.freq[id as usize] += 1;
            return id;
        }
        let id = self.tokens.len() as TokenId;
        let boxed: Box<str> = token.into();
        self.by_token.insert(boxed.clone(), id);
        self.tokens.push(boxed);
        self.freq.push(1);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> TokenDict {
        TokenDict::from_counts(vec![
            ("rare".into(), 1u32),
            ("common".into(), 9),
            ("mid".into(), 4),
        ])
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
        let d = TokenDict::from_counts(vec![("b".into(), 5u32), ("a".into(), 5), ("c".into(), 5)]);
        assert_eq!(d.id("a"), Some(0));
        assert_eq!(d.id("b"), Some(1));
        assert_eq!(d.id("c"), Some(2));
    }

    #[test]
    fn empty_dict() {
        let d = TokenDict::from_counts(Vec::<(Box<str>, u32)>::new());
        assert!(d.is_empty());
        assert_eq!(d.id("x"), None);
    }
}
