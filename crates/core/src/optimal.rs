//! Exact optimal signature selection — a test oracle for Problem 3.
//!
//! Optimal valid-signature selection is NP-complete (Theorem 2), so the
//! engine uses greedy heuristics; this module solves small instances
//! exactly by branch-and-bound over subsets of `R^T`, letting tests
//! measure the heuristics' quality and verify that greedy signatures are
//! never *invalid*.
//!
//! Only the α = 0 weighted scheme (Jaccard) is covered — exactly the
//! setting of Problem 3.

use silkmoth_collection::{InvertedIndex, SetRecord};
use silkmoth_text::TokenId;

/// Exact minimum `Σ|I[t]|` over valid signatures of `r` (weighted scheme,
/// Definition 5), with one witness signature. Returns `None` when no valid
/// signature exists (only possible with pathological empty elements).
///
/// Exponential in `|R^T|` — intended for `|R^T| ≤ ~20`.
pub fn optimal_signature(
    r: &SetRecord,
    theta: f64,
    index: &InvertedIndex,
) -> Option<(usize, Vec<TokenId>)> {
    let tokens = r.all_tokens();
    assert!(
        tokens.len() <= 24,
        "optimal_signature is an exponential oracle; got {} tokens",
        tokens.len()
    );
    // Membership matrix: for each element, which token indices it contains.
    let elem_masks: Vec<u64> = r
        .elements
        .iter()
        .map(|e| {
            let mut m = 0u64;
            for (bit, t) in tokens.iter().enumerate() {
                if e.tokens().binary_search(t).is_ok() {
                    m |= 1 << bit;
                }
            }
            m
        })
        .collect();
    let sizes: Vec<usize> = r.elements.iter().map(|e| e.tokens().len()).collect();
    let costs: Vec<usize> = tokens.iter().map(|&t| index.cost(t)).collect();

    let validity_sum = |mask: u64| -> f64 {
        elem_masks
            .iter()
            .zip(&sizes)
            .map(|(&em, &sz)| {
                if sz == 0 {
                    1.0
                } else {
                    let k = (em & mask).count_ones() as usize;
                    (sz - k) as f64 / sz as f64
                }
            })
            .sum()
    };

    let mut best: Option<(usize, u64)> = None;
    // Order tokens by cost ascending so cheap prefixes are explored first.
    let mut order: Vec<usize> = (0..tokens.len()).collect();
    order.sort_unstable_by_key(|&i| costs[i]);

    #[allow(clippy::too_many_arguments)]
    fn rec(
        pos: usize,
        mask: u64,
        cost: usize,
        order: &[usize],
        costs: &[usize],
        validity_sum: &dyn Fn(u64) -> f64,
        theta: f64,
        best: &mut Option<(usize, u64)>,
    ) {
        if let Some((bc, _)) = best {
            if cost >= *bc {
                return; // bound: can only get more expensive
            }
        }
        if validity_sum(mask) < theta {
            *best = Some((cost, mask));
            return; // adding more tokens only raises cost
        }
        if pos == order.len() {
            return;
        }
        let i = order[pos];
        rec(
            pos + 1,
            mask | (1 << i),
            cost + costs[i],
            order,
            costs,
            validity_sum,
            theta,
            best,
        );
        rec(pos + 1, mask, cost, order, costs, validity_sum, theta, best);
    }
    rec(0, 0, 0, &order, &costs, &validity_sum, theta, &mut best);

    best.map(|(cost, mask)| {
        let chosen: Vec<TokenId> = tokens
            .iter()
            .enumerate()
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &t)| t)
            .collect();
        (cost, chosen)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignatureScheme;
    use crate::signature::{generate, SigKind, SigParams};
    use silkmoth_collection::paper_example::table2;
    use silkmoth_collection::InvertedIndex;

    #[test]
    fn table2_optimum_is_the_example7_signature() {
        // Example 7's greedy signature {t8..t12} costs 3+3+1+1+1 = 9;
        // the oracle confirms 9 is optimal for θ = 2.1.
        let (c, r) = table2();
        let index = InvertedIndex::build(&c);
        let (cost, _sig) = optimal_signature(&r, 2.1, &index).unwrap();
        assert_eq!(cost, 9);
    }

    #[test]
    fn greedy_is_within_optimal_bound_and_valid() {
        let (c, r) = table2();
        let index = InvertedIndex::build(&c);
        for delta in [0.4, 0.55, 0.7, 0.85] {
            let theta = delta * r.len() as f64;
            let (opt_cost, _) = optimal_signature(&r, theta, &index).unwrap();
            let sig = generate(
                &r,
                SignatureScheme::Weighted,
                SigParams {
                    theta,
                    alpha: 0.0,
                    kind: SigKind::Jaccard,
                },
                &index,
            );
            assert!(!sig.degenerate);
            let greedy_cost = sig.cost(&index);
            assert!(greedy_cost >= opt_cost, "greedy can't beat the oracle");
            // Loose quality bound: greedy stays within 4× on this fixture.
            assert!(
                greedy_cost <= opt_cost * 4,
                "δ={delta}: greedy={greedy_cost} optimal={opt_cost}"
            );
            // Validity of the greedy signature (Definition 5).
            assert!(sig.sum_bound < theta);
        }
    }

    #[test]
    fn optimum_monotone_in_theta() {
        let (c, r) = table2();
        let index = InvertedIndex::build(&c);
        let mut last = 0usize;
        for delta in [0.9, 0.7, 0.5, 0.3] {
            // θ shrinks as δ shrinks, demanding a larger (costlier) signature.
            let (cost, _) = optimal_signature(&r, delta * 3.0, &index).unwrap();
            assert!(cost >= last, "lower θ needs a bigger signature");
            last = cost;
        }
    }
}
