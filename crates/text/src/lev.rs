//! Levenshtein distance with a banded, threshold-bounded variant.
//!
//! The verification step of SilkMoth computes `O(n·m)` element similarities
//! per candidate pair, so the edit-distance kernel matters. Two entry points
//! are provided:
//!
//! * [`levenshtein`] — the classic two-row dynamic program, `O(|a|·|b|)`;
//! * [`levenshtein_bounded`] — a banded dynamic program that gives up (and
//!   returns `None`) as soon as the distance provably exceeds `max`,
//!   running in `O(max · min(|a|,|b|))`.
//!
//! Both operate on Unicode scalar values (`char`s), consistent with the
//! paper's definition of string length.

/// Classic Levenshtein distance between `a` and `b` over chars.
///
/// Insertions, deletions, and substitutions all cost 1 (§2.1, reference \[21]).
///
/// ```
/// use silkmoth_text::lev::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

/// Levenshtein distance over pre-collected char slices.
///
/// Useful when the caller has already materialized the char buffers (the
/// verification loop does this once per element).
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    // Ensure `b` is the shorter side so the DP rows are minimal.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Banded Levenshtein: returns `Some(d)` if `d = LD(a,b) ≤ max`, otherwise
/// `None`.
///
/// The band has half-width `max`; cells outside it can only correspond to
/// alignments with more than `max` indels, so they are skipped. A cheap
/// length check (`||a|−|b|| > max`) short-circuits first, because the edit
/// distance is at least the length difference.
///
/// ```
/// use silkmoth_text::lev::levenshtein_bounded;
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
/// assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
/// ```
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a, &b, max)
}

/// Banded Levenshtein over pre-collected char slices. See
/// [`levenshtein_bounded`].
///
/// The two DP rows are as long as the shorter string; up to
/// 64 chars (`STACK_ROW`) they live on the stack, so the common case (a
/// title, a cell, a name) allocates nothing per evaluation.
pub fn levenshtein_bounded_chars(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let (n, m) = (a.len(), b.len());
    if n - m > max {
        return None;
    }
    if m == 0 {
        return Some(n);
    }
    if m <= STACK_ROW {
        let (mut prev, mut cur) = ([BIG; STACK_ROW + 1], [BIG; STACK_ROW + 1]);
        banded_rows(a, b, max, &mut prev[..=m], &mut cur[..=m])
    } else {
        let (mut prev, mut cur) = (vec![BIG; m + 1], vec![BIG; m + 1]);
        banded_rows(a, b, max, &mut prev, &mut cur)
    }
}

/// Longest shorter-side string whose DP rows fit the stack buffers.
const STACK_ROW: usize = 64;

/// "Outside the band": larger than any distance, small enough to add 1 to.
const BIG: usize = usize::MAX / 2;

/// The banded DP of [`levenshtein_bounded_chars`] over caller-provided
/// rows of `|b| + 1` cells, all [`BIG`]; `a` is the longer side.
fn banded_rows<'a>(
    a: &[char],
    b: &[char],
    max: usize,
    mut prev: &'a mut [usize],
    mut cur: &'a mut [usize],
) -> Option<usize> {
    let m = b.len();
    // Row i covers columns j in [lo, hi] with |i - j| bounded by the band.
    for (j, cell) in prev.iter_mut().enumerate().take(max.min(m) + 1) {
        *cell = j;
    }
    for (i, &ca) in a.iter().enumerate() {
        let row = i + 1;
        let lo = row.saturating_sub(max);
        let hi = (row + max).min(m);
        if lo > hi {
            return None;
        }
        if lo == 0 {
            cur[0] = row;
        } else {
            cur[lo - 1] = BIG;
        }
        let mut row_min = BIG;
        let start = lo.max(1);
        for j in start..=hi {
            let cb = b[j - 1];
            let sub = prev[j - 1] + usize::from(ca != cb);
            let del = if prev[j] >= BIG { BIG } else { prev[j] + 1 };
            let ins = if cur[j - 1] >= BIG {
                BIG
            } else {
                cur[j - 1] + 1
            };
            let v = sub.min(del).min(ins);
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if lo == 0 {
            row_min = row_min.min(cur[0]);
        }
        if row_min > max {
            return None;
        }
        // Invalidate the cell just beyond the band so the next row's
        // neighbour reads see BIG, not a stale value.
        if hi < m {
            cur[hi + 1] = BIG;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[m];
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("", "a"), 1);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", "axc"), 1);
    }

    #[test]
    fn paper_example_distance() {
        // §2.1: LD("50 Vassar St MA", "50 Vassar Street MA") = 4
        assert_eq!(levenshtein("50 Vassar St MA", "50 Vassar Street MA"), 4);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            levenshtein("database", "databases"),
            levenshtein("databases", "database")
        );
    }

    #[test]
    fn unicode_chars_count_once() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_agrees_when_within() {
        let pairs = [
            ("kitten", "sitting"),
            ("abcdef", "abcdef"),
            ("", "xyz"),
            ("similar", "dissimilar"),
        ];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            for max in d..d + 3 {
                assert_eq!(levenshtein_bounded(a, b, max), Some(d), "{a:?} {b:?} {max}");
            }
            if d > 0 {
                assert_eq!(levenshtein_bounded(a, b, d - 1), None);
            }
        }
    }

    #[test]
    fn bounded_zero_max() {
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
        assert_eq!(levenshtein_bounded("same", "sane", 0), None);
    }

    #[test]
    fn bounded_length_gap_short_circuit() {
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 3), None);
    }

    #[test]
    fn bounded_agrees_across_the_stack_row_limit() {
        // Shorter side just below, at, and above STACK_ROW chars: the
        // stack rows and the heap rows must give the classic distance.
        for m in [STACK_ROW - 1, STACK_ROW, STACK_ROW + 1, 2 * STACK_ROW] {
            let b: String = (0..m).map(|i| char::from(b'a' + (i % 7) as u8)).collect();
            let mut a = b.replace('c', "x");
            a.push_str("tail");
            let d = levenshtein(&a, &b);
            assert_eq!(levenshtein_bounded(&a, &b, d), Some(d), "m={m}");
            assert_eq!(levenshtein_bounded(&b, &a, d + 5), Some(d), "m={m}");
            assert_eq!(levenshtein_bounded(&a, &b, d - 1), None, "m={m}");
        }
    }

    #[test]
    fn distance_at_least_length_difference() {
        assert_eq!(levenshtein("aaaa", "aaaaaaa"), 3);
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_symmetry_and_identity(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            prop_assert_eq!(levenshtein(&a, &a), 0);
            if a != b {
                prop_assert!(levenshtein(&a, &b) >= 1);
            }
        }

        #[test]
        fn prop_bounded_matches_classic(a in "[a-c]{0,12}", b in "[a-c]{0,12}", max in 0usize..6) {
            let d = levenshtein(&a, &b);
            let got = levenshtein_bounded(&a, &b, max);
            if d <= max {
                prop_assert_eq!(got, Some(d));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn prop_bounded_by_max_len(a in "[a-e]{0,10}", b in "[a-e]{0,10}") {
            let d = levenshtein(&a, &b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            prop_assert!(d <= la.max(lb));
            prop_assert!(d >= la.abs_diff(lb));
        }
    }
}
