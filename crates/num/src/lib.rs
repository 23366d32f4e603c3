//! Self-contained numerics substrate for the ULP-SCL platform.
//!
//! The analog circuit simulator, the ADC metrology and the Monte-Carlo
//! mismatch experiments in the workspace all need a small amount of
//! numerical machinery: dense and sparse linear algebra with LU
//! factorisation, generic over the scalar ([`scalar`]: real and complex
//! for modified nodal analysis and AC/noise — the sparse path reuses a
//! symbolic factorization across restamps of a fixed pattern), interval
//! arithmetic and interval LU for the sound certifier, a radix-2 FFT
//! (for SNDR/ENOB sine tests), descriptive statistics and histogramming
//! (for INL/DNL and Monte-Carlo summaries), the adaptive-transient step
//! controller, and sweep-grid helpers. None of the approved offline
//! dependencies provide these, so this crate implements them from
//! scratch with no dependencies of its own.
//!
//! # Example
//!
//! Solve a 2×2 system with the LU solver used by the MNA engine:
//!
//! ```
//! use ulp_num::matrix::Matrix;
//! use ulp_num::lu::LuFactor;
//!
//! # fn main() -> Result<(), ulp_num::lu::SolveError> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[5.0, 10.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod control;
pub mod fft;
pub mod interp;
pub mod interval;
pub mod lu;
pub mod matrix;
pub mod poly;
pub mod scalar;
pub mod sparse;
pub mod stats;

pub use complex::Complex;
pub use control::{weighted_error_norm, StepController};
pub use interval::{Interval, IntervalLu};
pub use lu::{LuFactor, SolveError};
pub use matrix::Matrix;
pub use scalar::{Field, Scalar};
pub use sparse::{SparseLu, SparseMatrix};
