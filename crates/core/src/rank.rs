//! Deterministic result ranking and merging, shared by the engine's
//! top-k pass ([`QuerySpec::with_top_k`](crate::QuerySpec::with_top_k))
//! and scatter-gather layers (e.g. a sharded engine) that must reproduce
//! single-engine output exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use silkmoth_collection::SetIdx;

/// The documented top-k order as a comparator: `Less` ranks earlier.
fn rank_order(a: &(SetIdx, f64), b: &(SetIdx, f64)) -> Ordering {
    b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
}

/// Ranks `(set id, score)` results in the documented top-k order —
/// **score descending, ties broken by ascending set id** — and truncates
/// to the `k` best.
///
/// Scores produced by verification are never NaN, so the ordering is
/// total and the result deterministic.
pub fn rank_top_k(results: &mut Vec<(SetIdx, f64)>, k: usize) {
    results.sort_by(rank_order);
    results.truncate(k);
}

/// The `k` best results seen so far under [`rank_top_k`]'s order, kept
/// in a heap whose top is the entry ranked last — what the ordered pass
/// of [`Engine::execute`](crate::Engine::execute) fills while it
/// verifies, and whose `k`-th score it prunes against.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

#[derive(Debug, PartialEq)]
struct Ranked((SetIdx, f64));

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0, &other.0)
    }
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            // A caller may ask for usize::MAX; the heap grows as it fills.
            heap: BinaryHeap::new(),
        }
    }

    /// Offers one result; it stays only while it ranks among the `k`
    /// best.
    pub(crate) fn push(&mut self, sid: SetIdx, score: f64) {
        self.heap.push(Ranked((sid, score)));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// The `k`-th best score once `k` results are held: a later result
    /// scoring strictly below it can no longer rank (one that equals it
    /// still can, on a lower id). `None` while there is room, and for
    /// `k = 0`, which holds nothing.
    pub(crate) fn kth_score(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|&Ranked((_, score))| score)
    }

    /// The held results in rank order.
    pub(crate) fn into_ranked(self) -> Vec<(SetIdx, f64)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|Ranked(hit)| hit)
            .collect()
    }
}

/// Merges per-partition result lists into one list with single-engine
/// ordering: with `k`, the global top-k under [`rank_top_k`]'s order;
/// without, all results in ascending set-id order (the order of
/// [`Engine::execute`](crate::Engine::execute) without `top_k`).
///
/// Ids must already be in one global id space and each id must appear in
/// at most one partition. Because ranking is a total order over the
/// *union* of the inputs, the merge is provably identical to running an
/// unpartitioned engine: any per-partition truncation to `k` is lossless
/// for the global top-k (an item outside its own partition's top-k is
/// outranked by `k` items globally too).
pub fn merge_partitioned(parts: Vec<Vec<(SetIdx, f64)>>, k: Option<usize>) -> Vec<(SetIdx, f64)> {
    let mut all: Vec<(SetIdx, f64)> = parts.into_iter().flatten().collect();
    match k {
        Some(k) => rank_top_k(&mut all, k),
        None => all.sort_unstable_by_key(|&(sid, _)| sid),
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_score_desc_then_id_asc() {
        let mut v = vec![(3, 0.5), (1, 0.9), (2, 0.5), (0, 0.1)];
        rank_top_k(&mut v, 3);
        assert_eq!(v, vec![(1, 0.9), (2, 0.5), (3, 0.5)]);
    }

    #[test]
    fn rank_truncates_and_handles_small_k() {
        let mut v = vec![(0, 0.2), (1, 0.8)];
        rank_top_k(&mut v, 0);
        assert!(v.is_empty());
        let mut v = vec![(0, 0.2)];
        rank_top_k(&mut v, 10);
        assert_eq!(v, vec![(0, 0.2)]);
    }

    #[test]
    fn top_k_heap_equals_sort_and_truncate_with_ties() {
        let all = vec![
            (7, 0.5),
            (1, 0.9),
            (4, 0.5),
            (0, 0.1),
            (2, 0.5),
            (9, 0.9),
            (3, 0.0),
        ];
        for k in [0, 1, 2, 3, 4, 7, 50, usize::MAX] {
            let mut want = all.clone();
            rank_top_k(&mut want, k);
            let mut top = TopK::new(k);
            for (i, &(sid, score)) in all.iter().enumerate() {
                top.push(sid, score);
                // The threshold appears exactly when k results are held.
                assert_eq!(top.kth_score().is_some(), k > 0 && i + 1 >= k, "k={k}");
            }
            if (1..=all.len()).contains(&k) {
                assert_eq!(top.kth_score(), Some(want[k - 1].1), "k={k}");
            }
            assert_eq!(top.into_ranked(), want, "k={k}");
        }
    }

    #[test]
    fn merge_without_k_is_id_sorted() {
        let parts = vec![vec![(4, 0.3), (9, 0.7)], vec![(1, 0.5)], vec![]];
        assert_eq!(
            merge_partitioned(parts, None),
            vec![(1, 0.5), (4, 0.3), (9, 0.7)]
        );
    }

    #[test]
    fn merge_with_k_matches_global_ranking() {
        // Per-partition truncation to k composed with the global merge
        // equals ranking the full union.
        let full = vec![(0, 0.9), (1, 0.4), (2, 0.9), (3, 0.6), (4, 0.4)];
        let mut want = full.clone();
        rank_top_k(&mut want, 2);
        let mut p0 = vec![full[0], full[3]]; // partition {0, 3}
        let mut p1 = vec![full[1], full[2], full[4]]; // partition {1, 2, 4}
        rank_top_k(&mut p0, 2);
        rank_top_k(&mut p1, 2);
        assert_eq!(merge_partitioned(vec![p0, p1], Some(2)), want);
    }
}
