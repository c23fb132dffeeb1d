//! The paper's running example (Table 2), used as a shared fixture.
//!
//! Reference set `R` (the *Location* column) and collection
//! `S = {S1, S2, S3, S4}`. Token `tᵢ` is rendered as the literal string
//! `"tᵢ"`; because the corpus frequencies of `t1..t12` are strictly
//! compatible with the paper's subscript order (9, 8, 7, 6, 6, 6, 5, 3, 3,
//! 1, 1, 1 with lexicographic tie-breaks), the dictionary assigns
//! `tᵢ ↦ id i−1`, so tests can reason in paper coordinates.

use crate::{Collection, SetRecord, Tokenization};
use silkmoth_text::TokenId;

/// Builds `(S, R)` exactly as in Table 2.
pub fn table2() -> (Collection, SetRecord) {
    let s: Vec<Vec<&str>> = vec![
        // S1
        vec!["t2 t3 t5 t6 t7", "t1 t2 t4 t5 t6", "t1 t2 t3 t4 t7"],
        // S2
        vec!["t1 t6 t8", "t1 t4 t5 t6 t7", "t1 t2 t3 t7 t9"],
        // S3
        vec!["t1 t2 t3 t4 t6 t8", "t2 t3 t11 t12", "t1 t2 t3 t5"],
        // S4
        vec!["t1 t2 t3 t8", "t4 t5 t7 t9 t10", "t1 t4 t5 t6 t9"],
    ];
    let collection = Collection::build(&s, Tokenization::Whitespace);
    let r = collection.encode_set(&["t1 t2 t3 t6 t8", "t4 t5 t7 t9 t10", "t1 t4 t5 t11 t12"]);
    (collection, r)
}

/// Paper token subscript (1-based) → dictionary id.
///
/// Valid because the Table 2 frequencies sort `t1..t12` into exactly the
/// subscript order (verified by a test below).
pub fn tid(subscript: usize) -> TokenId {
    assert!((1..=12).contains(&subscript));
    (subscript - 1) as TokenId
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvertedIndex;

    #[test]
    fn dictionary_matches_paper_subscripts() {
        let (c, _) = table2();
        for i in 1..=12 {
            assert_eq!(
                c.dict().id(&format!("t{i}")),
                Some(tid(i)),
                "t{i} should have id {}",
                i - 1
            );
        }
    }

    #[test]
    fn inverted_list_costs_match_example7() {
        // Example 7: costs for t1..t12 are 9, 8, 7, 6, 6, 6, 5, 3, 3, 1, 1, 1.
        let (c, _) = table2();
        let idx = InvertedIndex::build(&c);
        let want = [9, 8, 7, 6, 6, 6, 5, 3, 3, 1, 1, 1];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(idx.cost(tid(i + 1)), w, "cost of t{}", i + 1);
        }
    }

    #[test]
    fn r_has_three_elements_of_five_tokens() {
        let (_, r) = table2();
        assert_eq!(r.len(), 3);
        for e in r.elements.iter() {
            assert_eq!(e.tokens().len(), 5);
        }
    }

    #[test]
    fn rt_is_t1_through_t12() {
        // Example 4: R^T = {t1, …, t12}.
        let (_, r) = table2();
        let all = r.all_tokens();
        assert_eq!(all, (0u32..12).collect::<Vec<_>>());
    }

    #[test]
    fn t8_appears_in_s21_s31_s41() {
        // §3's worked example: t8 appears in s²₁, s³₁, s⁴₁.
        let (c, _) = table2();
        let idx = InvertedIndex::build(&c);
        let list = idx.list(tid(8));
        let sets: Vec<u32> = list.iter().map(|p| p.set).collect();
        assert_eq!(sets, vec![1, 2, 3]);
        for p in list {
            assert_eq!(c.element(p.id), &*c.set(p.set).elements[0]);
        }
    }
}
