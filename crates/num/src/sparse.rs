//! Sparse linear algebra for repeated solves on a fixed pattern,
//! generic over the scalar (real by default, complex for AC analysis).
//!
//! MNA matrices have a sparsity pattern fixed by the netlist topology:
//! every Newton iteration, sweep point and transient step restamps the
//! *same* entries with new values. This module exploits that structure
//! the way production SPICE solvers (sparse1.3, KLU) do:
//!
//! * [`SparseMatrix`] — compressed-sparse-row storage over an immutable
//!   pattern. Values are restamped in place ([`SparseMatrix::add_at`],
//!   [`SparseMatrix::zero_values`]) without touching the index arrays,
//!   so the assembly loop allocates nothing.
//! * [`SparseLu::factor`] — the one-time *symbolic + numeric* analysis:
//!   LU elimination in natural column order with threshold partial
//!   pivoting (row pivoting only) and a Markowitz-style minimum-fill
//!   tie-break, recording the pivot order and the L/U fill-in pattern.
//! * [`SparseLu::refactor`] — the fast path: a numeric-only
//!   re-elimination that reuses the recorded pivot order and fill
//!   pattern, allocation-free. When a reused pivot collapses it reports
//!   [`SolveError::Singular`]; callers fall back to a full
//!   [`SparseLu::factor`] to re-pivot.
//!
//! Because columns are never permuted, the `step` of a
//! [`SolveError::Singular`] is a variable index — exactly the contract
//! of the dense [`crate::lu::LuFactor`] — and [`SparseLu::permutation`],
//! [`SparseLu::det`] and [`SparseLu::pivot_ratio`] mirror the dense API
//! so diagnostics built on it (e.g. the near-singular lint) work
//! unchanged on either path.

use crate::lu::{parity, SolveError, PIVOT_EPS};
use crate::matrix::Matrix;
use crate::scalar::{Field, Scalar};

/// Relative threshold for pivot admissibility: a candidate row is
/// acceptable when its column-`k` magnitude is at least this fraction of
/// the column maximum. Within the admissible set the row with the
/// fewest active nonzeros wins (Markowitz-style, with the natural
/// column order fixed), which bounds element growth while keeping
/// fill-in low. Complex factorizations compare squared magnitudes
/// against its square ([`Field::pivot_tol`]).
pub(crate) const PIVOT_TOL: f64 = 1e-3;

/// A sparse matrix in compressed-sparse-row form over a fixed pattern.
///
/// The pattern (row pointers + column indices) is built once from the
/// set of structurally-possible entries; values are then restamped in
/// place as often as needed. Entries may hold explicit zeros — e.g. a
/// capacitor slot stamped only in transient mode — which keeps one
/// pattern valid for every analysis of a netlist.
///
/// # Example
///
/// ```
/// use ulp_num::sparse::{SparseMatrix, SparseLu};
///
/// # fn main() -> Result<(), ulp_num::lu::SolveError> {
/// let mut a = SparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// a.add_at(0, 0, 2.0);
/// a.add_at(1, 1, 4.0);
/// let mut lu = SparseLu::factor(&a)?;
/// let mut x = Vec::new();
/// lu.solve_into(&[2.0, 8.0], &mut x)?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// // Restamp new values on the same pattern: numeric-only refactor.
/// a.zero_values();
/// a.add_at(0, 0, 4.0);
/// a.add_at(1, 1, 8.0);
/// lu.refactor(&a)?;
/// lu.solve_into(&[4.0, 16.0], &mut x)?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix<T = f64> {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> SparseMatrix<T> {
    /// Builds an `n × n` matrix of zeros over the pattern given as
    /// `(row, col)` coordinates (duplicates allowed, any order).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is outside the matrix.
    pub fn from_pattern(n: usize, entries: &[(u32, u32)]) -> Self {
        let mut coords: Vec<(u32, u32)> = entries.to_vec();
        for &(r, c) in &coords {
            assert!(
                (r as usize) < n && (c as usize) < n,
                "pattern entry ({r}, {c}) outside {n}x{n}"
            );
        }
        coords.sort_unstable();
        coords.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(coords.len());
        for &(r, c) in &coords {
            row_ptr[r as usize + 1] += 1;
            cols.push(c);
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let vals = vec![T::ZERO; cols.len()];
        SparseMatrix { n, row_ptr, cols, vals }
    }

    /// Builds a sparse copy of a dense square matrix, taking its nonzero
    /// entries as the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn from_dense(a: &Matrix<T>) -> Self {
        assert!(a.is_square(), "from_dense needs a square matrix");
        let n = a.rows();
        let mut entries = Vec::new();
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != T::ZERO {
                    entries.push((i as u32, j as u32));
                }
            }
        }
        let mut m = SparseMatrix::from_pattern(n, &entries);
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != T::ZERO {
                    m.add_at(i, j, v);
                }
            }
        }
        m
    }

    /// Dimension of the (square) matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (structural) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resets every stored value to zero; the pattern is untouched.
    pub fn zero_values(&mut self) {
        self.vals.fill(T::ZERO);
    }

    /// The storage index of entry `(row, col)`, if it is in the pattern.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        self.cols[lo..hi]
            .binary_search(&(col as u32))
            .ok()
            .map(|k| lo + k)
    }

    /// Adds `v` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not in the pattern — restamping must
    /// never discover entries the pattern pass missed.
    pub fn add_at(&mut self, row: usize, col: usize, v: T) {
        let k = self
            .slot(row, col)
            .unwrap_or_else(|| panic!("entry ({row}, {col}) not in sparse pattern"));
        self.vals[k] = self.vals[k] + v;
    }

    /// The stored values, pattern order.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable access to the stored values (for slot-direct restamping).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Column indices and values of one row.
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// `y = A·x` into a caller-owned buffer (resized to fit).
    pub fn mul_vec_into(&self, x: &[T], y: &mut Vec<T>) {
        assert_eq!(x.len(), self.n, "mul_vec dimension mismatch");
        y.clear();
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            let mut s = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                s = s + v * x[c as usize];
            }
            y.push(s);
        }
    }

    /// Expands to a dense matrix (test/diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics for an empty (0-dimensional) matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                m.add_at(i, c as usize, v);
            }
        }
        m
    }
}

/// LU factorization of a [`SparseMatrix`] with a reusable pivot order
/// and fill-in pattern.
///
/// [`SparseLu::factor`] performs the full analysis (pivot selection +
/// fill discovery + numeric elimination); [`SparseLu::refactor`] redoes
/// only the numerics for new values on the same pattern, and
/// [`SparseLu::solve_into`] back-substitutes without allocating. The
/// `permutation`/`det`/`pivot_ratio` accessors mirror
/// [`crate::lu::LuFactor`].
#[derive(Debug, Clone)]
pub struct SparseLu<T = f64> {
    n: usize,
    /// `perm[s]` = original row of `A` that became row `s` of `P·A = L·U`.
    perm: Vec<usize>,
    /// Strictly-lower factor rows (columns ascending), permuted order.
    l_ptr: Vec<usize>,
    l_cols: Vec<u32>,
    l_vals: Vec<T>,
    /// Upper factor rows including the diagonal (diagonal first).
    u_ptr: Vec<usize>,
    u_cols: Vec<u32>,
    u_vals: Vec<T>,
    /// Dense scatter workspace for [`SparseLu::refactor`].
    scratch: Vec<T>,
}

impl<T: Field> SparseLu<T> {
    /// Full factorization of `a` as `P·A = L·U`: elimination in natural
    /// column order with threshold partial pivoting (a candidate must
    /// reach `1e-3` of the column maximum) and a minimum-row-count
    /// tie-break, recording pivot order and fill-in for later
    /// [`SparseLu::refactor`] calls.
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] when a column has no admissible pivot;
    /// `step` is the column — i.e. variable — index, exactly as for the
    /// dense solver.
    pub fn factor(a: &SparseMatrix<T>) -> Result<Self, SolveError> {
        let n = a.dim();
        // One elimination row per matrix row: sorted `(col, value)`
        // pairs, merged in place as fill arrives.
        let mut rows: Vec<Vec<(u32, T)>> = (0..n)
            .map(|i| {
                let (cols, vals) = a.row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        // Count of already-eliminated (L-factor) entries per row, so the
        // Markowitz tie-break sees only the active region.
        let mut lower = vec![0usize; n];
        let mut assigned = vec![false; n];
        let mut perm = Vec::with_capacity(n);

        for k in 0..n {
            let kk = k as u32;
            // Admissibility threshold: the column maximum over active rows.
            let mut col_max = 0.0f64;
            for i in (0..n).filter(|&i| !assigned[i]) {
                if let Ok(p) = rows[i].binary_search_by_key(&kk, |e| e.0) {
                    col_max = col_max.max(rows[i][p].1.pivot_size());
                }
            }
            if col_max < PIVOT_EPS || !col_max.is_finite() {
                return Err(SolveError::Singular { step: k });
            }
            // Pick the sparsest admissible row (smallest index on ties).
            let mut pivot_row = None;
            let mut best_active = usize::MAX;
            for i in (0..n).filter(|&i| !assigned[i]) {
                if let Ok(p) = rows[i].binary_search_by_key(&kk, |e| e.0) {
                    let active = rows[i].len() - lower[i];
                    let admissible = rows[i][p].1.pivot_size() >= T::pivot_tol() * col_max;
                    if admissible && active < best_active {
                        best_active = active;
                        pivot_row = Some(i);
                    }
                }
            }
            let p = pivot_row.expect("col_max admits at least one candidate");
            assigned[p] = true;
            perm.push(p);
            let pivot_val = rows[p]
                .binary_search_by_key(&kk, |e| e.0)
                .map(|q| rows[p][q].1)
                .expect("pivot entry present");
            // Split borrow: the frozen pivot row drives elimination of
            // every remaining row holding column k.
            let (pivot_slice, others_lo, others_hi) = {
                let (lo, rest) = rows.split_at_mut(p);
                let (piv, hi) = rest.split_first_mut().expect("pivot row exists");
                (piv, lo, hi)
            };
            for (off, row) in others_lo
                .iter_mut()
                .enumerate()
                .chain(others_hi.iter_mut().enumerate().map(|(i, r)| (p + 1 + i, r)))
            {
                if assigned[off] {
                    continue;
                }
                if let Ok(q) = row.binary_search_by_key(&kk, |e| e.0) {
                    let f = row[q].1 / pivot_val;
                    row[q].1 = f; // becomes the L factor for column k
                    lower[off] += 1;
                    // Subtract f × the pivot row's trailing part,
                    // inserting fill-in to keep the row sorted.
                    for &(c, uv) in pivot_slice.iter().filter(|&&(c, _)| c > kk) {
                        match row.binary_search_by_key(&c, |e| e.0) {
                            Ok(pos) => row[pos].1 -= f * uv,
                            Err(pos) => row.insert(pos, (c, -(f * uv))),
                        }
                    }
                }
            }
        }

        // Assemble CSR factors in permuted row order: for the row chosen
        // at step s, entries below column s are L factors, the rest is
        // the U row (diagonal first by construction).
        let mut lu = SparseLu {
            n,
            perm,
            l_ptr: Vec::with_capacity(n + 1),
            l_cols: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: Vec::with_capacity(n + 1),
            u_cols: Vec::new(),
            u_vals: Vec::new(),
            scratch: vec![T::ZERO; n],
        };
        lu.l_ptr.push(0);
        lu.u_ptr.push(0);
        for s in 0..n {
            let r = lu.perm[s];
            for &(c, v) in &rows[r] {
                if (c as usize) < s {
                    lu.l_cols.push(c);
                    lu.l_vals.push(v);
                } else {
                    lu.u_cols.push(c);
                    lu.u_vals.push(v);
                }
            }
            lu.l_ptr.push(lu.l_cols.len());
            lu.u_ptr.push(lu.u_cols.len());
            debug_assert_eq!(lu.u_cols[lu.u_ptr[s]] as usize, s, "U diagonal first");
        }
        Ok(lu)
    }

    /// Numeric-only refactorization: re-eliminates `a`'s current values
    /// using the pivot order and fill pattern recorded by
    /// [`SparseLu::factor`]. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `a` has a different
    /// dimension; [`SolveError::Singular`] when a reused pivot has
    /// collapsed — the caller should then re-run [`SparseLu::factor`]
    /// to choose fresh pivots (or report the system genuinely singular).
    pub fn refactor(&mut self, a: &SparseMatrix<T>) -> Result<(), SolveError> {
        if a.dim() != self.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.n,
                actual: a.dim(),
            });
        }
        for s in 0..self.n {
            let r = self.perm[s];
            // Scatter: clear the union pattern of this row, load A's row.
            for &c in &self.l_cols[self.l_ptr[s]..self.l_ptr[s + 1]] {
                self.scratch[c as usize] = T::ZERO;
            }
            for &c in &self.u_cols[self.u_ptr[s]..self.u_ptr[s + 1]] {
                self.scratch[c as usize] = T::ZERO;
            }
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                self.scratch[c as usize] += v;
            }
            // Eliminate with the recorded column order.
            for li in self.l_ptr[s]..self.l_ptr[s + 1] {
                let j = self.l_cols[li] as usize;
                let f = self.scratch[j] / self.u_vals[self.u_ptr[j]];
                self.l_vals[li] = f;
                for ui in self.u_ptr[j] + 1..self.u_ptr[j + 1] {
                    self.scratch[self.u_cols[ui] as usize] -= f * self.u_vals[ui];
                }
            }
            for ui in self.u_ptr[s]..self.u_ptr[s + 1] {
                self.u_vals[ui] = self.scratch[self.u_cols[ui] as usize];
            }
            let d = self.u_vals[self.u_ptr[s]];
            if d.pivot_size() < PIVOT_EPS || !d.is_finite() {
                return Err(SolveError::Singular { step: s });
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation: `permutation()[i]` is the original row of
    /// `A` that ended up as row `i` of `P·A = L·U` (columns are never
    /// permuted — same contract as [`crate::lu::LuFactor`]).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A·x = b` into a caller-owned buffer (allocation-free once
    /// the buffer has capacity).
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), SolveError> {
        if b.len() != self.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for s in 0..self.n {
            let mut acc = x[s];
            for li in self.l_ptr[s]..self.l_ptr[s + 1] {
                acc -= self.l_vals[li] * x[self.l_cols[li] as usize];
            }
            x[s] = acc;
        }
        for s in (0..self.n).rev() {
            let mut acc = x[s];
            for ui in self.u_ptr[s] + 1..self.u_ptr[s + 1] {
                acc -= self.u_vals[ui] * x[self.u_cols[ui] as usize];
            }
            x[s] = acc / self.u_vals[self.u_ptr[s]];
        }
        Ok(())
    }

    /// Solves `A·x = b`, allocating the result (dense-API parity).
    ///
    /// # Errors
    ///
    /// As for [`SparseLu::solve_into`].
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SolveError> {
        let mut x = Vec::with_capacity(self.n);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

impl SparseLu {
    /// Determinant of the original matrix (product of pivots × the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        (0..self.n).fold(parity(&self.perm), |acc, s| acc * self.u_vals[self.u_ptr[s]])
    }

    /// Ratio of the largest to the smallest pivot magnitude — the same
    /// cheap near-singularity measure as
    /// [`crate::lu::LuFactor::pivot_ratio`]. Returns 1.0 when empty.
    pub fn pivot_ratio(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for s in 0..self.n {
            let p = self.u_vals[self.u_ptr[s]].abs();
            max = max.max(p);
            min = min.min(p);
        }
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::lu::LuFactor;

    fn dense_3x3() -> Matrix {
        Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]])
    }

    #[test]
    fn matches_dense_solver_on_full_matrix() {
        let d = dense_3x3();
        let s = SparseMatrix::from_dense(&d);
        let b = [1.0, -2.0, 0.0];
        let xd = crate::lu::solve(&d, &b).unwrap();
        let xs = SparseLu::factor(&s).unwrap().solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12, "{xd:?} vs {xs:?}");
        }
    }

    #[test]
    fn pattern_dedup_and_accumulation() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (0, 0), (1, 1), (0, 1)]);
        assert_eq!(m.nnz(), 3);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 0.5);
        assert_eq!(m.values()[m.slot(0, 0).unwrap()], 2.0);
        assert_eq!(m.slot(1, 0), None);
        m.zero_values();
        assert!(m.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in sparse pattern")]
    fn add_outside_pattern_panics() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0)]);
        m.add_at(1, 1, 1.0);
    }

    #[test]
    fn zero_diagonal_needs_pivoting() {
        // MNA-like: a voltage-source branch row has a structural zero on
        // the diagonal.
        let d = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let lu = SparseLu::factor(&s).unwrap();
        let x = lu.solve(&[4.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // Row 1 was promoted to position 0.
        assert_eq!(lu.permutation(), &[1, 0]);
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        let mut m = SparseMatrix::from_pattern(
            3,
            &[(0, 0), (0, 2), (1, 1), (1, 0), (2, 2), (2, 1), (2, 0)],
        );
        let stamp = |m: &mut SparseMatrix, scale: f64| {
            m.zero_values();
            m.add_at(0, 0, 4.0 * scale);
            m.add_at(0, 2, 1.0);
            m.add_at(1, 0, -scale);
            m.add_at(1, 1, 3.0);
            m.add_at(2, 0, 2.0);
            m.add_at(2, 1, -scale);
            m.add_at(2, 2, 5.0);
        };
        stamp(&mut m, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        let b = [1.0, 2.0, 3.0];
        for scale in [10.0, 0.25, -3.0] {
            stamp(&mut m, scale);
            lu.refactor(&m).unwrap();
            let x = lu.solve(&b).unwrap();
            let fresh = SparseLu::factor(&m).unwrap().solve(&b).unwrap();
            let dense = crate::lu::solve(&m.to_dense(), &b).unwrap();
            for i in 0..3 {
                assert!((x[i] - fresh[i]).abs() < 1e-12);
                assert!((x[i] - dense[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn explicit_zero_slots_survive_refactor() {
        // A pattern slot that is zero at first factorization (a
        // capacitor slot at DC) and nonzero later (transient restamp).
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 1, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        m.zero_values();
        m.add_at(0, 0, 2.0);
        m.add_at(0, 1, -1.0);
        m.add_at(1, 0, -1.0);
        m.add_at(1, 1, 2.0);
        lu.refactor(&m).unwrap();
        let x = lu.solve(&[1.0, 1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_column_reports_variable_index() {
        // Column 1 is structurally empty.
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (1, 0)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 0, 2.0);
        match SparseLu::factor(&m) {
            Err(SolveError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular, got {other:?}"),
        }
        // Numerically dependent rows die at column 1 too, like dense.
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match SparseLu::factor(&SparseMatrix::from_dense(&d)) {
            Err(SolveError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn refactor_on_collapsed_values_reports_singular() {
        let mut m = SparseMatrix::from_pattern(2, &[(0, 0), (1, 1)]);
        m.add_at(0, 0, 1.0);
        m.add_at(1, 1, 1.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        m.zero_values();
        m.add_at(0, 0, 1.0); // (1,1) left at exactly zero
        assert!(matches!(
            lu.refactor(&m),
            Err(SolveError::Singular { step: 1 })
        ));
    }

    #[test]
    fn det_and_pivot_ratio_match_dense() {
        let d = dense_3x3();
        let lu_d = LuFactor::new(&d).unwrap();
        let lu_s = SparseLu::factor(&SparseMatrix::from_dense(&d)).unwrap();
        assert!(
            (lu_d.det() - lu_s.det()).abs() < 1e-12 * lu_d.det().abs(),
            "dense det {} sparse det {}",
            lu_d.det(),
            lu_s.det()
        );
        // Pivot choices may differ, so ratios agree only in magnitude
        // class; both must flag the same healthy system as healthy.
        assert!(lu_d.pivot_ratio() < 1e3 && lu_s.pivot_ratio() < 1e3);
        let near = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-13]]);
        let lu_near = SparseLu::factor(&SparseMatrix::from_dense(&near)).unwrap();
        assert!(lu_near.pivot_ratio() > 1e12);
    }

    #[test]
    fn fill_in_is_discovered_and_reused() {
        // Arrow matrix: elimination of the dense first column fills the
        // last row/column block.
        let n = 6;
        let mut entries = vec![(0u32, 0u32)];
        for i in 1..n as u32 {
            entries.push((i, 0));
            entries.push((0, i));
            entries.push((i, i));
        }
        let mut m = SparseMatrix::from_pattern(n, &entries);
        let stamp = |m: &mut SparseMatrix, d: f64| {
            m.zero_values();
            m.add_at(0, 0, 10.0);
            for i in 1..n {
                m.add_at(i, 0, 1.0);
                m.add_at(0, i, 1.0);
                m.add_at(i, i, d);
            }
        };
        stamp(&mut m, 4.0);
        let mut lu = SparseLu::factor(&m).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        stamp(&mut m, 7.0);
        lu.refactor(&m).unwrap();
        let x = lu.solve(&b).unwrap();
        let dense = crate::lu::solve(&m.to_dense(), &b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-12, "{x:?} vs {dense:?}");
        }
    }

    #[test]
    fn solve_into_reuses_buffer_and_checks_length() {
        let m = SparseMatrix::from_dense(&dense_3x3());
        let lu = SparseLu::factor(&m).unwrap();
        let mut x = Vec::with_capacity(3);
        lu.solve_into(&[1.0, -2.0, 0.0], &mut x).unwrap();
        let ptr = x.as_ptr();
        lu.solve_into(&[0.5, 1.0, 2.0], &mut x).unwrap();
        assert_eq!(ptr, x.as_ptr(), "buffer must be reused");
        assert_eq!(
            lu.solve_into(&[1.0], &mut x).unwrap_err(),
            SolveError::DimensionMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn empty_system_is_trivial() {
        let m = SparseMatrix::from_pattern(0, &[]);
        let lu = SparseLu::factor(&m).unwrap();
        assert_eq!(lu.dim(), 0);
        assert_eq!(lu.solve(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(lu.det(), 1.0);
        assert_eq!(lu.pivot_ratio(), 1.0);
    }

    #[test]
    fn mul_vec_into_matches_dense() {
        let d = dense_3x3();
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0];
        let mut y = Vec::new();
        s.mul_vec_into(&x, &mut y);
        assert_eq!(y, d.mul_vec(&x));
    }

    #[test]
    fn complex_matches_dense_complex() {
        let mut d = Matrix::<Complex>::zeros(2, 2);
        d[(0, 0)] = Complex::new(1.0, 1.0);
        d[(0, 1)] = Complex::new(0.0, -2.0);
        d[(1, 0)] = Complex::new(3.0, 0.0);
        d[(1, 1)] = Complex::new(-1.0, 0.5);
        let s = SparseMatrix::from_dense(&d);
        let b = [Complex::ONE, Complex::new(0.0, 1.0)];
        let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
        let lu = SparseLu::factor(&s).unwrap();
        let mut xs = Vec::new();
        lu.solve_into(&b, &mut xs).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_refactor_tracks_new_values() {
        // An RC admittance pattern swept over frequency: refactor per
        // frequency must match a fresh factorization.
        let mut m = SparseMatrix::<Complex>::from_pattern(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let stamp = |m: &mut SparseMatrix<Complex>, w: f64| {
            m.zero_values();
            let g = Complex::from_re(1e-3);
            let jwc = Complex::new(0.0, w * 1e-9);
            m.add_at(0, 0, g);
            m.add_at(0, 1, -g);
            m.add_at(1, 0, -g);
            m.add_at(1, 1, g + jwc);
        };
        stamp(&mut m, 1e3);
        let mut lu = SparseLu::factor(&m).unwrap();
        let b = [Complex::ONE, Complex::ZERO];
        for w in [1e4, 1e6, 1e9] {
            stamp(&mut m, w);
            lu.refactor(&m).unwrap();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            let fresh = SparseLu::factor(&m).unwrap();
            let mut y = Vec::new();
            fresh.solve_into(&b, &mut y).unwrap();
            for (a, b) in x.iter().zip(&y) {
                assert!((*a - *b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn complex_singular_rejected() {
        let m = SparseMatrix::<Complex>::from_pattern(2, &[(0, 0), (1, 1)]);
        assert!(matches!(
            SparseLu::factor(&m),
            Err(SolveError::Singular { step: 0 })
        ));
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let d = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = SparseLu::factor(&SparseMatrix::from_dense(&d)).unwrap();
        assert!((lu.det() - -1.0).abs() < 1e-12);
    }
}
