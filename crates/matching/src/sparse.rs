//! Sparse maximum-weight matching.
//!
//! With a similarity threshold α > 0, most entries of the verification
//! weight matrix are exactly zero (clamped). Since all weights are
//! non-negative, zero-weight edges never help: the maximum-weight matching
//! restricted to the *positive* edges has the same score. This module
//! exploits that by projecting the bipartite graph onto the rows and
//! columns incident to positive edges and running the dense Hungarian
//! solver on the (much smaller) projection.
//!
//! The benchmark suite's `matching.*` rows (`matching.assign_us`,
//! `matching.calls`, `matching.mean_dim` on `topk-verify`, the α > 0
//! workload) are where the win shows; tests verify score equality against
//! the dense solver on random instances.

use crate::hungarian::{max_weight_assignment, WeightMatrix};

/// A positive-weight edge in the bipartite graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Row (element of `R`).
    pub row: usize,
    /// Column (element of `S`).
    pub col: usize,
    /// Weight `φ_α > 0`.
    pub weight: f64,
}

/// Maximum-weight matching over an edge list; rows/columns absent from
/// every edge are implicitly unmatched (they can only contribute 0).
///
/// ```
/// use silkmoth_matching::sparse::{sparse_max_matching, Edge};
/// let edges = [
///     Edge { row: 0, col: 2, weight: 0.9 },
///     Edge { row: 5, col: 2, weight: 0.8 },
///     Edge { row: 5, col: 7, weight: 0.7 },
/// ];
/// // Row 0 takes col 2; row 5 falls back to col 7.
/// let score = sparse_max_matching(&edges);
/// assert!((score - 1.6).abs() < 1e-9);
/// ```
pub fn sparse_max_matching(edges: &[Edge]) -> f64 {
    if edges.is_empty() {
        return 0.0;
    }
    // Compact the incident rows and columns.
    let mut rows: Vec<usize> = edges.iter().map(|e| e.row).collect();
    let mut cols: Vec<usize> = edges.iter().map(|e| e.col).collect();
    rows.sort_unstable();
    rows.dedup();
    cols.sort_unstable();
    cols.dedup();
    let rpos = |r: usize| rows.binary_search(&r).expect("row present");
    let cpos = |c: usize| cols.binary_search(&c).expect("col present");
    let mut w = WeightMatrix::zeros(rows.len(), cols.len());
    for e in edges {
        debug_assert!(e.weight >= 0.0 && e.weight.is_finite());
        let (i, j) = (rpos(e.row), cpos(e.col));
        // Duplicate edges keep the maximum weight.
        if e.weight > w.get(i, j) {
            w.set(i, j, e.weight);
        }
    }
    max_weight_assignment(&w).score
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Extracts the positive edges of a dense matrix and solves sparsely.
    fn sparse_from_dense(w: &WeightMatrix) -> f64 {
        let mut edges = Vec::new();
        for i in 0..w.rows() {
            for j in 0..w.cols() {
                let v = w.get(i, j);
                if v > 0.0 {
                    edges.push(Edge {
                        row: i,
                        col: j,
                        weight: v,
                    });
                }
            }
        }
        sparse_max_matching(&edges)
    }

    #[test]
    fn empty_edges() {
        assert_eq!(sparse_max_matching(&[]), 0.0);
    }

    #[test]
    fn single_edge() {
        let score = sparse_max_matching(&[Edge {
            row: 42,
            col: 17,
            weight: 0.5,
        }]);
        assert_eq!(score, 0.5);
    }

    #[test]
    fn duplicate_edges_keep_max() {
        let score = sparse_max_matching(&[
            Edge {
                row: 0,
                col: 0,
                weight: 0.3,
            },
            Edge {
                row: 0,
                col: 0,
                weight: 0.8,
            },
        ]);
        assert_eq!(score, 0.8);
    }

    #[test]
    fn conflict_resolution() {
        // Two rows want the same column; the solver must split them.
        let score = sparse_max_matching(&[
            Edge {
                row: 0,
                col: 0,
                weight: 1.0,
            },
            Edge {
                row: 1,
                col: 0,
                weight: 0.9,
            },
            Edge {
                row: 1,
                col: 1,
                weight: 0.5,
            },
        ]);
        assert!((score - 1.5).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_sparse_equals_dense(
            rows in 1usize..7,
            cols in 1usize..7,
            seed in proptest::collection::vec(0u32..100, 49),
            zero_cut in 20u32..80,
        ) {
            // Random matrix with a configurable zero fraction.
            let w = WeightMatrix::from_fn(rows, cols, |i, j| {
                let v = seed[i * 7 + j];
                if v < zero_cut { 0.0 } else { v as f64 / 100.0 }
            });
            let dense = max_weight_assignment(&w).score;
            let sparse = sparse_from_dense(&w);
            prop_assert!((dense - sparse).abs() < 1e-9, "dense={} sparse={}", dense, sparse);
        }

        // The solver sees the projected matrix, not the list: the same
        // positive edges listed column by column (how verification fills
        // them) or row by row give the same score, bit for bit.
        #[test]
        fn prop_edge_order_does_not_change_a_bit(
            rows in 1usize..7,
            cols in 1usize..7,
            seed in proptest::collection::vec(0u32..100, 49),
            zero_cut in 20u32..95,
        ) {
            let weight = |i: usize, j: usize| {
                let v = seed[i * 7 + j];
                if v < zero_cut { 0.0 } else { v as f64 / 100.0 }
            };
            let edge = |(row, col): (usize, usize)| Edge { row, col, weight: weight(row, col) };
            let row_major: Vec<Edge> = (0..rows)
                .flat_map(|i| (0..cols).map(move |j| (i, j)))
                .map(edge)
                .filter(|e| e.weight > 0.0)
                .collect();
            let col_major: Vec<Edge> = (0..cols)
                .flat_map(|j| (0..rows).map(move |i| (i, j)))
                .map(edge)
                .filter(|e| e.weight > 0.0)
                .collect();
            prop_assert_eq!(row_major.len(), col_major.len());
            prop_assert_eq!(
                sparse_max_matching(&row_major).to_bits(),
                sparse_max_matching(&col_major).to_bits()
            );
        }
    }
}
