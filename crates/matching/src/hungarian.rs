//! Kuhn–Munkres maximum-weight assignment with potentials and slacks.

/// A dense, row-major weight matrix. Entries are similarities in `[0, 1]`
/// (any non-negative finite weights work).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl WeightMatrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, w: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = w;
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }
}

/// Result of [`max_weight_assignment`].
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Total weight of the matching — the paper's `|R ∩̃_φ S|`.
    pub score: f64,
    /// For each row of the *input* matrix, the matched column (every row of
    /// the smaller side is matched; when rows > cols some rows are `None`).
    pub row_to_col: Vec<Option<usize>>,
}

/// Maximum-weight bipartite matching over a dense weight matrix.
///
/// All weights must be finite and non-negative; under that precondition a
/// maximum-weight *matching* saturating the smaller side is optimal, so
/// the problem reduces to the assignment problem, solved here by the
/// shortest-augmenting-path Kuhn–Munkres algorithm in `O(n²·m)` time
/// (`n = min(rows, cols)`, `m = max(rows, cols)`).
///
/// ```
/// use silkmoth_matching::{max_weight_assignment, WeightMatrix};
/// let mut w = WeightMatrix::zeros(2, 2);
/// w.set(0, 0, 0.9);
/// w.set(0, 1, 0.8);
/// w.set(1, 0, 0.85);
/// w.set(1, 1, 0.1);
/// let a = max_weight_assignment(&w);
/// // 0.8 + 0.85 beats 0.9 + 0.1: the greedy choice is not optimal.
/// assert!((a.score - 1.65).abs() < 1e-9);
/// assert_eq!(a.row_to_col, vec![Some(1), Some(0)]);
/// ```
pub fn max_weight_assignment(w: &WeightMatrix) -> Assignment {
    if w.rows() == 0 || w.cols() == 0 {
        return Assignment {
            score: 0.0,
            row_to_col: vec![None; w.rows()],
        };
    }
    if w.rows() > w.cols() {
        // Solve the transpose and invert the mapping.
        let t = w.transposed();
        let a = max_weight_assignment(&t);
        let mut row_to_col = vec![None; w.rows()];
        for (trow, tcol) in a.row_to_col.iter().enumerate() {
            if let Some(c) = tcol {
                row_to_col[*c] = Some(trow);
            }
        }
        return Assignment {
            score: a.score,
            row_to_col,
        };
    }

    let n = w.rows();
    let m = w.cols();
    // Minimize cost = -weight. 1-indexed arrays per the classic
    // formulation; p[j] is the row matched to column j (0 = unmatched).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];
    let mut minv = vec![0.0f64; m + 1];
    let mut used = vec![false; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.iter_mut().for_each(|x| *x = f64::INFINITY);
        used.iter_mut().for_each(|x| *x = false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = -w.get(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            debug_assert!(delta.is_finite(), "weights must be finite");
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path recorded in `way`.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut row_to_col = vec![None; n];
    let mut score = 0.0;
    for j in 1..=m {
        if p[j] != 0 {
            row_to_col[p[j] - 1] = Some(j - 1);
            score += w.get(p[j] - 1, j - 1);
        }
    }
    Assignment { score, row_to_col }
}

/// Exhaustive maximum matching by recursion over rows — the test oracle.
///
/// Exponential in `min(rows, cols)`; intended for graphs with at most ~9
/// elements on the smaller side.
pub fn exhaustive_max_matching(w: &WeightMatrix) -> f64 {
    let w = if w.rows() > w.cols() {
        w.transposed()
    } else {
        w.clone()
    };
    let mut used = vec![false; w.cols()];
    fn rec(w: &WeightMatrix, row: usize, used: &mut [bool]) -> f64 {
        if row == w.rows() {
            return 0.0;
        }
        // Either leave this row unmatched…
        let mut best = rec(w, row + 1, used);
        // …or match it to any free column.
        for j in 0..w.cols() {
            if !used[j] {
                used[j] = true;
                let v = w.get(row, j) + rec(w, row + 1, used);
                used[j] = false;
                best = best.max(v);
            }
        }
        best
    }
    rec(&w, 0, &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_matrices() {
        let a = max_weight_assignment(&WeightMatrix::zeros(0, 5));
        assert_eq!(a.score, 0.0);
        assert!(a.row_to_col.is_empty());
        let b = max_weight_assignment(&WeightMatrix::zeros(3, 0));
        assert_eq!(b.score, 0.0);
        assert_eq!(b.row_to_col, vec![None, None, None]);
    }

    #[test]
    fn single_cell() {
        let mut w = WeightMatrix::zeros(1, 1);
        w.set(0, 0, 0.7);
        let a = max_weight_assignment(&w);
        assert_eq!(a.score, 0.7);
        assert_eq!(a.row_to_col, vec![Some(0)]);
    }

    #[test]
    fn rectangular_wide() {
        let w = WeightMatrix::from_fn(2, 4, |i, j| if j == i + 2 { 1.0 } else { 0.1 });
        let a = max_weight_assignment(&w);
        assert!((a.score - 2.0).abs() < 1e-9);
        assert_eq!(a.row_to_col, vec![Some(2), Some(3)]);
    }

    #[test]
    fn rectangular_tall_transposes() {
        let w = WeightMatrix::from_fn(4, 2, |i, j| if i == j + 2 { 1.0 } else { 0.1 });
        let a = max_weight_assignment(&w);
        assert!((a.score - 2.0).abs() < 1e-9);
        assert_eq!(a.row_to_col[2], Some(0));
        assert_eq!(a.row_to_col[3], Some(1));
        // Exactly two rows matched.
        assert_eq!(a.row_to_col.iter().flatten().count(), 2);
    }

    #[test]
    fn anti_greedy_instance() {
        // Row 0 wants col 0 greedily, but the optimum pairs 0→1, 1→0.
        let mut w = WeightMatrix::zeros(2, 2);
        w.set(0, 0, 1.0);
        w.set(0, 1, 0.9);
        w.set(1, 0, 0.9);
        w.set(1, 1, 0.0);
        let a = max_weight_assignment(&w);
        assert!((a.score - 1.8).abs() < 1e-9);
    }

    #[test]
    fn paper_example2_scores() {
        // Example 2: R vs S4 under Jaccard aligns r1→s41 (0.8), r2→s42 (1.0),
        // r3→s43 (3/7), total ≈ 2.229.
        let mut w = WeightMatrix::zeros(3, 3);
        // Full pairwise Jaccard weights between R = Table 2 rows and S4.
        let r: [&[u32]; 3] = [&[1, 2, 3, 6, 8], &[4, 5, 7, 9, 10], &[1, 4, 5, 11, 12]];
        let s: [&[u32]; 3] = [&[1, 2, 3, 8], &[4, 5, 7, 9, 10], &[1, 4, 5, 6, 9]];
        for (i, ri) in r.iter().enumerate() {
            for (j, sj) in s.iter().enumerate() {
                w.set(i, j, silkmoth_text::jaccard_sorted(ri, sj));
            }
        }
        let a = max_weight_assignment(&w);
        let expect = 0.8 + 1.0 + 3.0 / 7.0;
        assert!((a.score - expect).abs() < 1e-9, "{}", a.score);
        assert_eq!(a.row_to_col, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn zero_matrix_scores_zero() {
        let w = WeightMatrix::zeros(3, 5);
        assert_eq!(max_weight_assignment(&w).score, 0.0);
    }

    #[test]
    fn matches_exhaustive_on_fixed_instances() {
        let instances: Vec<WeightMatrix> = vec![
            WeightMatrix::from_fn(3, 3, |i, j| ((i * 7 + j * 3) % 10) as f64 / 10.0),
            WeightMatrix::from_fn(4, 6, |i, j| ((i * 5 + j * 11) % 13) as f64 / 13.0),
            WeightMatrix::from_fn(5, 2, |i, j| ((i + j * j) % 7) as f64 / 7.0),
        ];
        for w in instances {
            let fast = max_weight_assignment(&w).score;
            let slow = exhaustive_max_matching(&w);
            assert!((fast - slow).abs() < 1e-9, "fast={fast} slow={slow}");
        }
    }

    #[test]
    fn assignment_is_a_valid_matching() {
        let w = WeightMatrix::from_fn(4, 4, |i, j| ((i * j + 1) % 5) as f64 / 5.0);
        let a = max_weight_assignment(&w);
        let cols: Vec<usize> = a.row_to_col.iter().flatten().copied().collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cols.len(), "columns must be distinct");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_hungarian_equals_exhaustive(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in proptest::collection::vec(0u32..100, 25),
        ) {
            let w = WeightMatrix::from_fn(rows, cols, |i, j| seed[i * 5 + j] as f64 / 100.0);
            let fast = max_weight_assignment(&w).score;
            let slow = exhaustive_max_matching(&w);
            prop_assert!((fast - slow).abs() < 1e-9, "fast={} slow={}", fast, slow);
        }

        #[test]
        fn prop_score_bounds(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in proptest::collection::vec(0u32..1000, 36),
        ) {
            let w = WeightMatrix::from_fn(rows, cols, |i, j| seed[i * 6 + j] as f64 / 1000.0);
            let a = max_weight_assignment(&w);
            // Score at most min(rows,cols).
            prop_assert!(a.score <= rows.min(cols) as f64 + 1e-9);
            // Score equals the sum along the reported assignment.
            let sum: f64 = a.row_to_col.iter().enumerate()
                .filter_map(|(i, c)| c.map(|j| w.get(i, j)))
                .sum();
            prop_assert!((sum - a.score).abs() < 1e-9);
        }

        // An element is matched at most once, on either side: the row
        // maxima and the column maxima each sum to an upper bound on the
        // matching — what the nearest-neighbor filter and verification's
        // early exit prune by. Rectangular and zero-heavy, like an
        // α-clamped weight matrix.
        #[test]
        fn prop_row_and_column_maxima_bound_the_matching(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in proptest::collection::vec(0u32..1000, 36),
            zero_cut in 0u32..950,
        ) {
            let w = WeightMatrix::from_fn(rows, cols, |i, j| {
                let v = seed[i * 6 + j];
                if v < zero_cut { 0.0 } else { v as f64 / 1000.0 }
            });
            let by_rows: f64 = (0..rows)
                .map(|i| (0..cols).map(|j| w.get(i, j)).fold(0.0, f64::max))
                .sum();
            let by_cols: f64 = (0..cols)
                .map(|j| (0..rows).map(|i| w.get(i, j)).fold(0.0, f64::max))
                .sum();
            let score = max_weight_assignment(&w).score;
            let exact = exhaustive_max_matching(&w);
            // Sums of the same weights in another order: float noise, far
            // inside the slack the engine prunes with.
            for bound in [by_rows, by_cols] {
                prop_assert!(bound >= score - 1e-12, "bound={} score={}", bound, score);
                prop_assert!(bound >= exact - 1e-12, "bound={} exact={}", bound, exact);
            }
        }

        #[test]
        fn prop_transpose_invariant(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in proptest::collection::vec(0u32..1000, 36),
        ) {
            let w = WeightMatrix::from_fn(rows, cols, |i, j| seed[i * 6 + j] as f64 / 1000.0);
            let s1 = max_weight_assignment(&w).score;
            let s2 = max_weight_assignment(&w.transposed()).score;
            prop_assert!((s1 - s2).abs() < 1e-9);
        }
    }
}
