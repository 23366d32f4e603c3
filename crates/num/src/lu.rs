//! Dense LU factorisation with partial pivoting, generic over a
//! [`Field`] (real or complex).
//!
//! This is the dense linear-solver core of the circuit simulator: the
//! dense MNA backend factors the (small) Jacobian once per Newton
//! iteration or timestep and back-substitutes, and AC/noise analysis do
//! the same with the complex small-signal matrix.

use crate::matrix::Matrix;
use crate::scalar::Field;
use std::error::Error;
use std::fmt;

/// Error returned when a linear system cannot be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot smaller than the singularity threshold was encountered at
    /// the contained elimination step — the matrix is singular (for MNA
    /// this usually means a floating node or a loop of voltage sources).
    ///
    /// Because elimination uses *row* pivoting only, column `step` is
    /// exactly the variable (unknown) whose equation set became linearly
    /// dependent: callers that know their variable ordering (e.g. the
    /// MNA assembler, where unknowns are non-ground node voltages
    /// followed by branch currents) can map `step` straight back to a
    /// named node or branch. [`LuFactor::permutation`] exposes the row
    /// side of the mapping for completed factorisations.
    Singular {
        /// Elimination step — equivalently, the column/variable index —
        /// at which the zero pivot appeared.
        step: usize,
    },
    /// Right-hand-side length does not match the factored dimension.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotSquare => write!(f, "matrix is not square"),
            SolveError::Singular { step } => {
                write!(f, "matrix is singular (zero pivot at elimination step {step})")
            }
            SolveError::DimensionMismatch { expected, actual } => write!(
                f,
                "right-hand side has length {actual}, expected {expected}"
            ),
        }
    }
}

impl Error for SolveError {}

/// Pivot magnitudes (in [`Field::pivot_size`] units) below this are
/// treated as singular.
pub(crate) const PIVOT_EPS: f64 = 1e-300;

/// Permutation parity: `+1.0` for an even permutation, `-1.0` for odd.
pub(crate) fn parity(perm: &[usize]) -> f64 {
    let mut seen = vec![false; perm.len()];
    let mut sign = 1.0;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut i = start;
        while !seen[i] {
            seen[i] = true;
            i = perm[i];
            len += 1;
        }
        if len.is_multiple_of(2) {
            sign = -sign;
        }
    }
    sign
}

/// LU factorisation of a square real (the default) or complex matrix
/// with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use ulp_num::matrix::Matrix;
/// use ulp_num::lu::LuFactor;
///
/// # fn main() -> Result<(), ulp_num::lu::SolveError> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]); // needs pivoting
/// let lu = LuFactor::new(&a)?;
/// assert_eq!(lu.solve(&[2.0, 3.0])?, vec![3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor<T = f64> {
    lu: Matrix<T>,
    perm: Vec<usize>,
}

impl<T: Field> LuFactor<T> {
    /// Factors `a` as `P·A = L·U`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] for non-square input and
    /// [`SolveError::Singular`] if a zero pivot is encountered.
    pub fn new(a: &Matrix<T>) -> Result<Self, SolveError> {
        if !a.is_square() {
            return Err(SolveError::NotSquare);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Find the pivot row.
            let mut p = k;
            let mut max = lu[(k, k)].pivot_size();
            for i in (k + 1)..n {
                let v = lu[(i, k)].pivot_size();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < PIVOT_EPS || !max.is_finite() {
                return Err(SolveError::Singular { step: k });
            }
            if p != k {
                lu.swap_rows(p, k);
                perm.swap(p, k);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(LuFactor { lu, perm })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// The row permutation applied during factorisation:
    /// `permutation()[i]` is the original row of `A` that ended up as
    /// row `i` of `P·A = L·U`.
    ///
    /// Together with the column-index semantics of
    /// [`SolveError::Singular`] this is the full pivot→variable mapping:
    /// columns are never permuted, so column `k` is always variable `k`
    /// of the caller's ordering.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SolveError> {
        let mut x = Vec::with_capacity(b.len());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-owned buffer, avoiding the
    /// per-solve allocation of [`LuFactor::solve`] (which calls this).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), SolveError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation, then forward/backward substitution.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(())
    }
}

impl LuFactor {
    /// Determinant of the original matrix (product of pivots × the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        let n = self.dim();
        (0..n).fold(parity(&self.perm), |acc, i| acc * self.lu[(i, i)])
    }

    /// Ratio of the largest to the smallest pivot magnitude,
    /// `max|U_kk| / min|U_kk|`.
    ///
    /// This is a cheap *lower bound* on the 2-norm condition number that
    /// falls out of a completed factorisation for free — no extra
    /// triangular solves. With partial pivoting it tracks genuine
    /// near-singularity well for the diagonally-structured MNA systems
    /// this crate factors: a healthy circuit matrix stays within a few
    /// orders of magnitude, while a nearly-floating node or an
    /// almost-dependent source constraint drives one pivot toward zero
    /// and the ratio toward `1/ε`. Returns 1.0 for an empty system.
    pub fn pivot_ratio(&self) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 1.0;
        }
        let mut max = 0.0_f64;
        let mut min = f64::INFINITY;
        for i in 0..n {
            let p = self.lu[(i, i)].abs();
            max = max.max(p);
            min = min.min(p);
        }
        max / min
    }
}

/// Convenience: factor-and-solve `A·x = b` in one call.
///
/// # Errors
///
/// Propagates any [`SolveError`] from factorisation or substitution.
///
/// ```
/// use ulp_num::matrix::Matrix;
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let x = ulp_num::lu::solve(&a, &[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), ulp_num::lu::SolveError>(())
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let x = solve(&a, &[1.0, -2.0, 0.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - -2.0).abs() < 1e-12);
        assert!((x[2] - -2.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 0.0]]);
        let x = solve(&a, &[4.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pivot_ratio_flags_near_singular() {
        let good = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        assert!(LuFactor::new(&good).unwrap().pivot_ratio() < 10.0);
        // Rows nearly dependent: one pivot collapses toward zero.
        let bad = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-13]]);
        assert!(LuFactor::new(&bad).unwrap().pivot_ratio() > 1e12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match LuFactor::new(&a) {
            Err(SolveError::Singular { step }) => assert_eq!(step, 1),
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert_eq!(LuFactor::new(&a).unwrap_err(), SolveError::NotSquare);
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let lu = LuFactor::new(&a).unwrap();
        assert_eq!(
            lu.solve(&[1.0]).unwrap_err(),
            SolveError::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.det() - -1.0).abs() < 1e-12);
        let id = Matrix::identity(4);
        assert!((LuFactor::new(&id).unwrap().det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_factorisation_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let lu = LuFactor::new(&a).unwrap();
        assert_eq!(lu.solve(&[2.0, 4.0]).unwrap(), vec![1.0, 1.0]);
        assert_eq!(lu.solve(&[4.0, 8.0]).unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn solve_into_is_bitwise_equal_to_solve() {
        let a = Matrix::from_rows(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let lu = LuFactor::new(&a).unwrap();
        let b = [1.0, -2.0, 0.25];
        let alloc = lu.solve(&b).unwrap();
        let mut reused = Vec::new();
        lu.solve_into(&b, &mut reused).unwrap();
        assert_eq!(alloc, reused, "solve_into must reproduce solve exactly");
        let ptr = reused.as_ptr();
        lu.solve_into(&[0.0, 1.0, 0.0], &mut reused).unwrap();
        assert_eq!(ptr, reused.as_ptr(), "buffer must be reused");
        assert_eq!(
            lu.solve_into(&[1.0], &mut reused).unwrap_err(),
            SolveError::DimensionMismatch {
                expected: 3,
                actual: 1
            }
        );
    }

    #[test]
    fn residual_is_small_for_conditioned_system() {
        // A diagonally dominant 6x6 system solved to near machine
        // precision.
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j { 10.0 } else { 1.0 / (1.0 + (i + j) as f64) };
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let x = solve(&a, &b).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_solver_matches_real_on_real_input() {
        let ar = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let mut ac = Matrix::<Complex>::zeros(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                ac[(i, j)] = Complex::from_re(ar[(i, j)]);
            }
        }
        let xr = solve(&ar, &[1.0, 1.0]).unwrap();
        let xc = LuFactor::new(&ac)
            .unwrap()
            .solve(&[Complex::ONE, Complex::ONE])
            .unwrap();
        for (r, c) in xr.iter().zip(&xc) {
            assert!((r - c.re).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn complex_rc_divider() {
        // Impedance divider: series R with shunt C driven by 1V.
        // V_out = Zc / (R + Zc) with Zc = 1/(jωC).
        let r = 1_000.0;
        let c = 1e-6;
        let omega = 2.0 * std::f64::consts::PI * 159.154_943; // ≈ 1/(2πRC)·τ scaling
        let zc = Complex::new(0.0, -1.0 / (omega * c));
        // Nodal: (1/R + jωC)·V = 1/R
        let mut a = Matrix::<Complex>::zeros(1, 1);
        a[(0, 0)] = Complex::from_re(1.0 / r) + Complex::new(0.0, omega * c);
        let v = LuFactor::new(&a)
            .unwrap()
            .solve(&[Complex::from_re(1.0 / r)])
            .unwrap();
        let expect = zc / (Complex::from_re(r) + zc);
        assert!((v[0] - expect).abs() < 1e-9);
    }

    #[test]
    fn complex_singular_rejected() {
        let a = Matrix::<Complex>::zeros(2, 2);
        assert!(matches!(
            LuFactor::new(&a),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(SolveError::NotSquare.to_string(), "matrix is not square");
        assert!(SolveError::Singular { step: 3 }.to_string().contains("step 3"));
        assert!(SolveError::DimensionMismatch {
            expected: 2,
            actual: 1
        }
        .to_string()
        .contains("expected 2"));
    }
}
