//! Dense row-major matrices, generic over the entry type.
//!
//! `Matrix` (real by default) backs the dense fallback path of the
//! modified-nodal-analysis (MNA) system matrices in
//! [`ulp-spice`](../../spice) and serves as the reference implementation
//! in equivalence tests; `Matrix<Complex>` holds the small-signal system
//! of AC and noise analysis, and `Matrix<Interval>` the certifier's
//! interval Jacobian. The hot analysis loops restamp a fixed sparsity
//! pattern thousands of times, so production solves go through
//! [`crate::sparse`], which reuses a symbolic factorization across
//! restamps; the dense representation remains the simplest-possible
//! oracle and the right choice for tiny one-shot systems.

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `T` (`f64` unless stated otherwise).
///
/// # Example
///
/// ```
/// use ulp_num::matrix::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.mul_vec(&[3.0, 4.0]), vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA "stamp"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_at(&mut self, row: usize, col: usize, value: T) {
        self[(row, col)] = self[(row, col)] + value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                let row = self.row(i).iter().zip(x);
                row.fold(T::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub(crate) fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl Matrix {
    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Maximum absolute entry (∞-norm building block); 0 for the zero
    /// matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert!(!z.is_square());
        let id = Matrix::identity(3);
        assert!(id.is_square());
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(id.mul_vec(&x), x);
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
    }

    #[test]
    fn clear_keeps_shape() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.clear();
        assert_eq!(m.max_abs(), 0.0);
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn mul_vec_general() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn complex_matrix_mul() {
        let mut m = Matrix::<Complex>::zeros(2, 2);
        m[(0, 0)] = Complex::ONE;
        m[(0, 1)] = Complex::I;
        m[(1, 1)] = Complex::new(2.0, 0.0);
        let y = m.mul_vec(&[Complex::ONE, Complex::ONE]);
        assert_eq!(y[0], Complex::new(1.0, 1.0));
        assert_eq!(y[1], Complex::new(2.0, 0.0));
    }

    #[test]
    fn complex_clear_and_stamp() {
        let mut m = Matrix::<Complex>::zeros(1, 1);
        m.add_at(0, 0, Complex::I);
        m.add_at(0, 0, Complex::I);
        assert_eq!(m[(0, 0)], Complex::new(0.0, 2.0));
        m.clear();
        assert_eq!(m[(0, 0)], Complex::ZERO);
    }

    #[test]
    fn max_abs_reports_peak() {
        let m = Matrix::from_rows(&[&[1.0, -7.0], &[3.0, 4.0]]);
        assert_eq!(m.max_abs(), 7.0);
    }
}
