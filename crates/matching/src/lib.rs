//! # silkmoth-matching
//!
//! Maximum-weight bipartite matching — the verification kernel of SilkMoth
//! (§2.1, §5.3 of the paper).
//!
//! The relatedness metrics are built on the *maximum matching score*
//! `|R ∩̃_φ S|`: model `R` and `S` as the two sides of a bipartite graph,
//! weight each edge `(r, s)` by `φ(r, s) ∈ [0, 1]`, and take the weight of
//! the maximum matching. Because all weights are non-negative, this equals
//! the optimum of the classic assignment problem on the smaller side.
//!
//! This crate provides:
//!
//! * [`max_weight_assignment`] — Kuhn–Munkres / Jonker–Volgenant with
//!   potentials and slack arrays, `O(n²·m)` for an `n×m` matrix (`n ≤ m`
//!   internally; inputs are transposed as needed);
//! * [`sparse_max_matching`] — the same score from the positive edges
//!   alone, solved on the rows and columns they touch (what
//!   verification calls when α > 0 zeroes most of the matrix);
//! * [`exhaustive_max_matching`] — a brute-force oracle for testing
//!   (exponential; only for tiny graphs);
//! * [`reduce_identical`] — the triangle-inequality reduction of §5.3:
//!   identical elements must appear in some maximum matching, so they can
//!   be paired off (contributing weight 1 each) before running the `O(n³)`
//!   algorithm on the remainder.

mod hungarian;
mod reduction;
pub mod sparse;

pub use hungarian::{exhaustive_max_matching, max_weight_assignment, Assignment, WeightMatrix};
pub use reduction::{reduce_identical, Reduction};
pub use sparse::{sparse_max_matching, Edge};
