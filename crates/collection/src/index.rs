//! The inverted index `I` (§3).

use crate::{Collection, ElemId, SetIdx};
use silkmoth_text::TokenId;

/// One entry of an inverted list: "this token occurs in an element of set
/// `set`, and that element is dictionary entry `id`". There is one
/// posting per element *position*: a set that holds the same text twice
/// posts it twice, next to each other, so `|I[t]|` still counts
/// occurrences. Lists are sorted by `(set, id)`, and an element lists a
/// token once even if the token appears in it repeatedly (footnote 4).
///
/// The id is resolved by [`Collection::element`]; what a reader computed
/// for one posting of an id holds for every other posting of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Containing set.
    pub set: SetIdx,
    /// The element, by its id in the collection's element dictionary.
    pub id: ElemId,
}

/// Inverted index over a [`Collection`]: for each token `t`, `I[t]` is the
/// sorted list of `(set, element id)` postings containing `t`.
///
/// The index supports **append-only incremental maintenance**
/// ([`append_sets`](Self::append_sets)): new sets always carry ids past
/// every indexed set, so their postings extend each list's sorted tail
/// in place. Tombstoned sets keep their postings — the search layer
/// filters candidates by liveness — and a
/// [`Collection::compact`](crate::Collection::compact), which renumbers
/// sets and elements, is paired with a full rebuild.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: Vec<Vec<Posting>>,
    total_postings: usize,
}

impl InvertedIndex {
    /// Builds the index in one pass over the collection.
    ///
    /// Sets are visited in id order and the elements of a set in element
    /// id order, so each list comes out sorted without a final sort.
    pub fn build(collection: &Collection) -> Self {
        let mut index = Self {
            lists: vec![Vec::new(); collection.dict().len()],
            total_postings: 0,
        };
        index.append_sets(collection, 0);
        index
    }

    /// Appends the postings of sets `from..collection.len()` — the sets
    /// a [`Collection::append_sets`](crate::Collection::append_sets)
    /// just added. `from` must be the collection's slot count *before*
    /// that append (so every already-indexed posting has `set < from`),
    /// which keeps each list sorted without re-sorting.
    pub fn append_sets(&mut self, collection: &Collection, from: SetIdx) {
        // The appended sets may have grown the dictionary.
        self.lists.resize(collection.dict().len(), Vec::new());
        // One set's elements as (id, tokens), read off the elements in
        // one straight pass before the sort compares any.
        let mut by_id: Vec<(ElemId, &[TokenId])> = Vec::new();
        for (sid, set) in collection.sets().iter().enumerate().skip(from as usize) {
            by_id.clear();
            by_id.extend(set.elements.iter().map(|e| (e.id, e.tokens())));
            by_id.sort_unstable_by_key(|&(id, _)| id);
            let set = sid as SetIdx;
            for &(id, tokens) in &by_id {
                for &t in tokens {
                    self.lists[t as usize].push(Posting { set, id });
                }
                self.total_postings += tokens.len();
            }
        }
    }

    /// The inverted list `I[t]`. Out-of-dictionary ids (external reference
    /// tokens) yield an empty list.
    #[inline]
    pub fn list(&self, t: TokenId) -> &[Posting] {
        self.lists.get(t as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `|I[t]|` — the signature-selection cost of token `t` (§4.3).
    #[inline]
    pub fn cost(&self, t: TokenId) -> usize {
        self.list(t).len()
    }

    /// The contiguous postings of set `s` inside `I[t]`, located by
    /// interpolation, then gallop, in element id order: the position is
    /// guessed from where `s` lies between the list's first and last set,
    /// and steps of doubling length from the guess bracket it for a
    /// bisection, so the worst case stays `O(log n)`. Used by `NNSearch`
    /// to enumerate the elements of one candidate set containing `t`.
    pub fn postings_in_set(&self, t: TokenId, s: SetIdx) -> &[Posting] {
        let list = self.list(t);
        let lo = run_start(list, s);
        // A set's run is as short as the set: walk it.
        let run = list[lo..].iter().take_while(|p| p.set == s).count();
        &list[lo..lo + run]
    }

    /// Number of token lists: the dictionary size when the index was
    /// built or last appended to (appends that bring new tokens add
    /// lists).
    pub fn num_tokens(&self) -> usize {
        self.lists.len()
    }

    /// Total postings across all lists.
    pub fn total_postings(&self) -> usize {
        self.total_postings
    }
}

/// The first position in `list` whose set is not below `s` — what
/// `list.partition_point(|p| p.set < s)` gives.
///
/// Set ids are dense and a list's postings spread over them, so the
/// position is first guessed from where `s` lies between the list's first
/// and last set; from the guess, steps of doubling length (a gallop) find
/// a bracket around the answer, and bisection finishes inside it. A good
/// guess costs a couple of probes near it instead of `log₂ n` across the
/// list; a bad one costs at most about twice the bisection, so the worst
/// case stays `O(log n)`.
fn run_start(list: &[Posting], s: SetIdx) -> usize {
    let n = list.len();
    let (Some(first), Some(last)) = (list.first(), list.last()) else {
        return 0;
    };
    let (first, last) = (first.set, last.set);
    if s <= first {
        return 0;
    }
    if s > last {
        return n;
    }
    // first < s ≤ last: the answer is in 1..n, and so is the guess.
    let guess = (u64::from(s - first) * (n - 1) as u64 / u64::from(last - first)) as usize;
    // Gallop to a bracket `lo..hi` with every set before `lo` below `s`
    // and none from `hi` on.
    let (lo, hi) = if list[guess].set < s {
        let (mut lo, mut step) = (guess + 1, 1);
        while lo + step < n && list[lo + step - 1].set < s {
            lo += step;
            step *= 2;
        }
        (lo, (lo + step).min(n))
    } else {
        let (mut hi, mut step) = (guess, 1);
        while hi > step && list[hi - step].set >= s {
            hi -= step;
            step *= 2;
        }
        (hi.saturating_sub(step), hi)
    };
    lo + list[lo..hi].partition_point(|p| p.set < s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tokenization;

    fn index() -> (Collection, InvertedIndex) {
        let raw = vec![vec!["a b", "b c"], vec!["a", "c d"], vec!["b d"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let i = InvertedIndex::build(&c);
        (c, i)
    }

    #[test]
    fn lists_sorted_and_complete() {
        let (c, i) = index();
        // b appears in 3 elements, the texts interned first, second and
        // fifth: (0,0), (0,1), (2,4).
        let b = c.dict().id("b").unwrap();
        let list = i.list(b);
        assert_eq!(list.len(), 3);
        assert!(list.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(list[0], Posting { set: 0, id: 0 });
        assert_eq!(list[2], Posting { set: 2, id: 4 });
        assert_eq!(&*c.element(4).text, "b d");
    }

    #[test]
    fn cost_matches_dict_frequency() {
        let (c, i) = index();
        for tok in ["a", "b", "c", "d"] {
            let id = c.dict().id(tok).unwrap();
            assert_eq!(i.cost(id), c.dict().frequency(id) as usize, "{tok}");
        }
    }

    #[test]
    fn postings_in_set_binary_search() {
        let (c, i) = index();
        let b = c.dict().id("b").unwrap();
        let in0 = i.postings_in_set(b, 0);
        assert_eq!(in0.len(), 2);
        assert!(in0.iter().all(|p| p.set == 0));
        let in1 = i.postings_in_set(b, 1);
        assert!(in1.is_empty());
        let in2 = i.postings_in_set(b, 2);
        assert_eq!(in2, &[Posting { set: 2, id: 4 }]);
    }

    #[test]
    fn postings_in_set_finds_a_run_at_the_end_of_a_long_list() {
        // "x" is in every element: one long list whose last run belongs
        // to the last set.
        let mut raw: Vec<Vec<String>> = (0..500).map(|i| vec![format!("x u{i}")]).collect();
        raw.push(vec!["x a".into(), "x b".into(), "c".into(), "x d".into()]);
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let i = InvertedIndex::build(&c);
        let x = c.dict().id("x").unwrap();
        assert_eq!(i.cost(x), 503);
        let last = i.postings_in_set(x, 500);
        let ids: Vec<ElemId> = last.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![500, 501, 503]);
        assert!(last.iter().all(|p| p.set == 500));
        assert_eq!(i.postings_in_set(x, 499), &[Posting { set: 499, id: 499 }]);
        assert_eq!(i.postings_in_set(x, 0), &[Posting { set: 0, id: 0 }]);
        assert!(i.postings_in_set(x, 501).is_empty());
    }

    #[test]
    fn out_of_dictionary_token_is_empty() {
        let (_, i) = index();
        assert!(i.list(999).is_empty());
        assert_eq!(i.cost(999), 0);
        assert!(i.postings_in_set(999, 0).is_empty());
    }

    #[test]
    fn duplicate_tokens_in_element_posted_once() {
        let raw = vec![vec!["x x x"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let i = InvertedIndex::build(&c);
        assert_eq!(i.cost(c.dict().id("x").unwrap()), 1);
    }

    #[test]
    fn a_repeated_text_keeps_one_posting_per_position_in_id_order() {
        // Set 1 holds "b a" twice around a text interned before it.
        let raw = vec![vec!["a"], vec!["b a", "a", "b a"]];
        let c = Collection::build(&raw, Tokenization::Whitespace);
        let i = InvertedIndex::build(&c);
        let a = c.dict().id("a").unwrap();
        let ids: Vec<(SetIdx, ElemId)> = i.list(a).iter().map(|p| (p.set, p.id)).collect();
        assert_eq!(ids, vec![(0, 0), (1, 0), (1, 1), (1, 1)]);
        assert_eq!(i.cost(a), c.dict().frequency(a) as usize);
        assert_eq!(i.postings_in_set(a, 1).len(), 3);
    }

    #[test]
    fn total_postings_counts_all() {
        let (_, i) = index();
        // Elements: {a,b},{b,c},{a},{c,d},{b,d} → 2+2+1+2+2 = 9.
        assert_eq!(i.total_postings(), 9);
    }

    #[test]
    fn incremental_append_equals_full_rebuild() {
        let raw = vec![vec!["a b", "b c"], vec!["a", "c d"]];
        let mut c = Collection::build(&raw, Tokenization::Whitespace);
        let mut i = InvertedIndex::build(&c);
        let from = c.len() as SetIdx;
        c.append_sets(&[vec!["b z"], vec!["z d"]]);
        i.append_sets(&c, from);

        let rebuilt = InvertedIndex::build(&c);
        assert_eq!(i.num_tokens(), rebuilt.num_tokens());
        assert_eq!(i.total_postings(), rebuilt.total_postings());
        for t in 0..i.num_tokens() as u32 {
            assert_eq!(i.list(t), rebuilt.list(t), "token {t}");
            assert!(i.list(t).windows(2).all(|w| w[0] < w[1]), "sorted {t}");
        }
        // The new token's list exists and points at the appended sets.
        let z = c.dict().id("z").unwrap();
        assert_eq!(i.cost(z), 2);
        assert!(i.list(z).iter().all(|p| p.set >= from));
    }

    /// Every probe worth asking of `list` — before its first set, at and
    /// around each of its sets, past its last — answered by
    /// [`run_start`] as by `partition_point`.
    fn run_start_is_partition_point(list: &[Posting]) {
        let sets = list.iter().map(|p| p.set);
        let probes = sets.flat_map(|s| [s.saturating_sub(1), s, s.saturating_add(1)]);
        for s in probes.chain([0, 1, SetIdx::MAX]) {
            let want = list.partition_point(|p| p.set < s);
            assert_eq!(
                run_start(list, s),
                want,
                "set {s} in {} postings",
                list.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn interpolated_run_start_equals_partition_point(
            shape in 0u8..4,
            len in 0usize..128,
            base in 0u32..1_000,
            small in proptest::collection::vec(0u32..4, 128),
            large in proptest::collection::vec(0u32..1_000_000, 128),
        ) {
            // Gaps between neighbouring postings' sets, 0 inside a run.
            let gap = |k: usize| match shape {
                // Uniform: dense ids, short runs.
                0 => small[k],
                // Clustered: long runs of near sets, far apart.
                1 => if k.is_multiple_of(16) { large[k] } else { small[k] / 2 },
                // All one set.
                2 => 0,
                // Large gaps, an occasional run.
                _ => if small[k] == 0 { 0 } else { large[k] },
            };
            let mut set = base;
            let list: Vec<Posting> = (0..len)
                .map(|k| {
                    set += gap(k);
                    Posting { set, id: k as ElemId }
                })
                .collect();
            run_start_is_partition_point(&list);
        }
    }

    #[test]
    fn qgram_index_postings() {
        let raw = vec![vec!["abc"], vec!["abc", "xbc"]];
        let c = Collection::build(&raw, Tokenization::QGram { q: 2 });
        let i = InvertedIndex::build(&c);
        // "bc" occurs in all three elements.
        let bc = c.dict().id("bc").unwrap();
        assert_eq!(i.cost(bc), 3);
    }
}
