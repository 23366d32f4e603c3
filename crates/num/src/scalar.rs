//! The scalar types the linear-algebra core is generic over.
//!
//! Storage, stamping and products ([`crate::matrix::Matrix`],
//! [`crate::sparse::SparseMatrix`]) need only a [`Scalar`]: a zero, `+`
//! and `*`, which `f64`, [`Complex`] and [`Interval`] all provide.
//! Elimination ([`crate::lu::LuFactor`], [`crate::sparse::SparseLu`])
//! needs a [`Field`], implemented for `f64` and [`Complex`]; its three
//! methods carry everything the real and complex factorizations compare
//! differently. Interval elimination keeps its own algorithm in
//! [`crate::interval::IntervalLu`].

use crate::complex::Complex;
use crate::interval::Interval;
use crate::sparse::PIVOT_TOL;
use std::ops::{Add, AddAssign, Div, Mul, Neg, SubAssign};

/// A matrix entry: a copyable value with a zero, `+` and `*`.
pub trait Scalar: Copy + PartialEq + Add<Output = Self> + Mul<Output = Self> {
    /// The additive identity.
    const ZERO: Self;
}

/// A [`Scalar`] that LU factorizations can pivot on and divide by.
pub trait Field: Scalar + Div<Output = Self> + Neg<Output = Self> + AddAssign + SubAssign {
    /// The magnitude partial pivoting compares: `|x|` for reals, `|z|²`
    /// (no square root) for complex numbers.
    fn pivot_size(self) -> f64;

    /// The sparse threshold-pivoting ratio (`1e-3` of the column
    /// maximum) in [`Field::pivot_size`] units: itself for reals, its
    /// square for complex numbers.
    fn pivot_tol() -> f64;

    /// True when every component is finite.
    fn is_finite(self) -> bool;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
}

impl Field for f64 {
    fn pivot_size(self) -> f64 {
        self.abs()
    }

    fn pivot_tol() -> f64 {
        PIVOT_TOL
    }

    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
}

impl Field for Complex {
    fn pivot_size(self) -> f64 {
        self.norm_sqr()
    }

    fn pivot_tol() -> f64 {
        PIVOT_TOL * PIVOT_TOL
    }

    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
}

impl Scalar for Interval {
    const ZERO: Interval = Interval::ZERO;
}
