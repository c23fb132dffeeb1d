//! Corpus summary statistics (the columns of the paper's Table 3).

use crate::Collection;

/// Aggregate shape of a collection, as reported in Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Number of sets.
    pub num_sets: usize,
    /// Total number of elements across all sets (occurrences).
    pub num_elements: usize,
    /// Distinct element texts among them: `num_elements` over this is how
    /// often the corpus repeats an element, which is what the element
    /// dictionary and the per-pass φ memo save.
    pub distinct_elements: usize,
    /// Mean elements per set ("Elems/Set").
    pub avg_elems_per_set: f64,
    /// Mean distinct tokens per element ("Tokens/Elem").
    pub avg_tokens_per_elem: f64,
    /// Distinct tokens in the dictionary.
    pub distinct_tokens: usize,
    /// Total `(set, element)` postings the inverted index will hold.
    pub total_postings: usize,
}

impl std::fmt::Display for CollectionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sets, {:.1} elems/set, {:.1} tokens/elem, {} distinct tokens, {} postings, \
             {} elements ({} distinct)",
            self.num_sets,
            self.avg_elems_per_set,
            self.avg_tokens_per_elem,
            self.distinct_tokens,
            self.total_postings,
            self.num_elements,
            self.distinct_elements
        )
    }
}

pub(crate) fn compute(c: &Collection) -> CollectionStats {
    // Tombstoned sets are excluded: stats describe the live corpus.
    // (`distinct_tokens` is the dictionary size, which until a compact
    // may retain tokens appearing only in removed sets;
    // `distinct_elements` counts what the live sets hold, not the
    // element dictionary, which may retain orphans likewise.)
    let num_sets = c.live_len();
    let mut num_elements = 0usize;
    let mut distinct_elements = 0usize;
    let mut total_postings = 0usize;
    let mut seen = vec![false; c.elems.len()];
    for sid in c.live_ids() {
        let set = c.set(sid);
        num_elements += set.len();
        for e in set.elements.iter() {
            total_postings += e.tokens().len();
            let id = e.id().expect("stored elements are in the dictionary");
            if !std::mem::replace(&mut seen[id as usize], true) {
                distinct_elements += 1;
            }
        }
    }
    CollectionStats {
        num_sets,
        num_elements,
        distinct_elements,
        avg_elems_per_set: ratio(num_elements, num_sets),
        avg_tokens_per_elem: ratio(total_postings, num_elements),
        distinct_tokens: c.dict().len(),
        total_postings,
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tokenization;

    #[test]
    fn stats_small_corpus() {
        let raw = vec![vec!["a b", "c"], vec!["a b c d"]];
        let s = Collection::build(&raw, Tokenization::Whitespace).stats();
        assert_eq!(s.num_sets, 2);
        assert_eq!(s.num_elements, 3);
        assert_eq!(s.distinct_elements, 3);
        assert!((s.avg_elems_per_set - 1.5).abs() < 1e-12);
        assert_eq!(s.total_postings, 7);
        assert!((s.avg_tokens_per_elem - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.distinct_tokens, 4);
    }

    #[test]
    fn distinct_elements_counts_live_texts_once() {
        let raw = vec![vec!["a b", "a b", "c"], vec!["c", "d"], vec!["d", "e"]];
        let mut c = Collection::build(&raw, Tokenization::Whitespace);
        let s = c.stats();
        assert_eq!((s.num_elements, s.distinct_elements), (7, 4));
        // "e" lives only in the removed set: the dictionary keeps it,
        // the live corpus does not have it.
        c.remove_sets(&[2]).unwrap();
        let s = c.stats();
        assert_eq!((s.num_elements, s.distinct_elements), (5, 3));
        assert_eq!(c.elems.len(), 4);
        c.append_sets(&[vec!["e", "f"]]);
        assert_eq!(c.stats().distinct_elements, 5);
        assert_eq!(c.elems.len(), 5);
    }

    #[test]
    fn stats_empty() {
        let s = Collection::build(&Vec::<Vec<&str>>::new(), Tokenization::Whitespace).stats();
        assert_eq!(s.num_sets, 0);
        assert_eq!(s.avg_elems_per_set, 0.0);
    }

    #[test]
    fn display_is_humane() {
        let raw = vec![vec!["a"]];
        let s = Collection::build(&raw, Tokenization::Whitespace).stats();
        let text = s.to_string();
        assert!(text.contains("1 sets"));
    }
}
