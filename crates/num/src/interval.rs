//! Directed-rounding-safe interval arithmetic and interval linear
//! algebra for the sound netlist certifier.
//!
//! An [`Interval`] `[lo, hi]` encloses every real number a quantity can
//! take over a parameter box (PVT corner spread, Pelgrom mismatch,
//! node-voltage uncertainty). Every operation here is *outward rounded*:
//! each bound is computed in the default round-to-nearest mode and then
//! stepped outward with [`f64::next_down`] / [`f64::next_up`] by at
//! least one ulp (two for the transcendental envelopes, whose `std`
//! implementations are faithful but not correctly rounded). The result
//! is a machine-checkable containment guarantee: if `x ∈ X` and `y ∈ Y`
//! then `x ⊕ y ∈ X ⊕ Y` for every supported `⊕`, regardless of the
//! rounding of the underlying hardware operation.
//!
//! Monotone transcendental envelopes (`exp`, `tanh`, `ln`, `sqrt`, and
//! the generic [`Interval::monotone`] used by the EKV interval twins in
//! `ulp-device`) are tight to a couple of ulps because a monotone
//! function attains its extrema at the interval endpoints.
//!
//! The linear-algebra layer stores interval matrices in the generic
//! dense [`Matrix`] (`Matrix<Interval>`), so the MNA assembler stamps a
//! point matrix or an interval matrix through the same `zeros` /
//! `add_at` / `(i, j)` surface:
//!
//! * [`Matrix::from_matrix`] / [`Matrix::mid`] — lifting a point matrix
//!   and taking the midpoint matrix;
//! * [`gershgorin_nonsingular`] — strict diagonal dominance over the
//!   whole box, the cheap sufficient regularity test;
//! * [`prove_regular`] — the midpoint-preconditioned regularity test
//!   (`‖I − R·[A]‖∞ < 1` with `R ≈ mid([A])⁻¹`), much stronger than raw
//!   dominance for MNA matrices with voltage-source branch rows;
//! * [`IntervalLu`] — interval Gaussian elimination with mignitude
//!   pivoting. If it completes, **every** point matrix inside the
//!   interval matrix is nonsingular, and [`IntervalLu::solve`] returns
//!   a guaranteed enclosure of the united solution set.

use crate::lu::{LuFactor, SolveError};
use crate::matrix::Matrix;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Ulps of outward slack applied to arithmetic results.
const ARITH_ULPS: u32 = 1;
/// Ulps of outward slack applied to transcendental envelopes, whose
/// `std` implementations are faithful (≤ 1 ulp error) but not exact.
const TRANS_ULPS: u32 = 2;

fn step_down(mut x: f64, ulps: u32) -> f64 {
    for _ in 0..ulps {
        x = x.next_down();
    }
    x
}

fn step_up(mut x: f64, ulps: u32) -> f64 {
    for _ in 0..ulps {
        x = x.next_up();
    }
    x
}

/// A closed interval `[lo, hi]` of finite or infinite `f64` bounds.
///
/// Invariant: `lo <= hi` and neither bound is NaN. Constructed results
/// of arithmetic are outward rounded, so the invariant composes: the
/// true real-valued result of an operation on members is always inside
/// the returned interval.
#[derive(Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo <= hi,
            "interval bounds out of order or NaN: [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate (point) interval `[x, x]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// The hull of two point values given in either order.
    pub fn across(a: f64, b: f64) -> Self {
        Interval::new(a.min(b), a.max(b))
    }

    /// Lower bound.
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Midpoint (clamped to finite arithmetic; exact for point intervals).
    pub fn mid(self) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            let m = 0.5 * self.lo + 0.5 * self.hi;
            if m.is_finite() {
                m
            } else {
                0.0
            }
        }
    }

    /// Width `hi - lo` (rounded up).
    pub fn width(self) -> f64 {
        step_up(self.hi - self.lo, ARITH_ULPS).max(0.0)
    }

    /// Magnitude: `max(|x|)` over members.
    pub fn mag(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Mignitude: `min(|x|)` over members (0 when the interval
    /// contains zero).
    pub fn mig(self) -> f64 {
        if self.contains(0.0) {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// True when `x` is a member.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True when every member of `other` is a member of `self`.
    pub fn encloses(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Convex hull with `other`.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when disjoint.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Widens both bounds outward by an absolute slack (plus one ulp).
    pub fn inflate(self, slack: f64) -> Interval {
        assert!(slack >= 0.0, "negative inflation slack");
        Interval {
            lo: step_down(self.lo - slack, ARITH_ULPS),
            hi: step_up(self.hi + slack, ARITH_ULPS),
        }
    }

    /// Member-wise absolute value.
    pub fn abs(self) -> Interval {
        Interval {
            lo: self.mig(),
            hi: self.mag(),
        }
    }

    /// Member-wise `max` with a scalar (used for the CLM term
    /// `1 + λ·max(vds, 0)`).
    pub fn max_with(self, floor: f64) -> Interval {
        Interval {
            lo: self.lo.max(floor),
            hi: self.hi.max(floor),
        }
    }

    /// Member-wise `min` with a scalar (used for the diode exponent
    /// clamp `min(v/vt, 40)`).
    pub fn min_with(self, cap: f64) -> Interval {
        Interval {
            lo: self.lo.min(cap),
            hi: self.hi.min(cap),
        }
    }

    /// Multiplies by a point scalar with outward rounding.
    pub fn scale(self, k: f64) -> Interval {
        self * Interval::point(k)
    }

    /// Reciprocal. Returns `None` when the interval contains zero (the
    /// reciprocal set is then unbounded / disconnected).
    pub fn recip(self) -> Option<Interval> {
        if self.contains(0.0) {
            return None;
        }
        Some(Interval::new(
            step_down(1.0 / self.hi, ARITH_ULPS),
            step_up(1.0 / self.lo, ARITH_ULPS),
        ))
    }

    /// Interval division. Returns `None` when the divisor contains zero.
    pub fn checked_div(self, rhs: Interval) -> Option<Interval> {
        Some(self * rhs.recip()?)
    }

    /// Envelope of a **non-decreasing** function applied member-wise.
    ///
    /// Because a monotone function attains its extrema at the interval
    /// endpoints, `[f(lo), f(hi)]` stepped outward by `TRANS_ULPS` is a
    /// sound envelope whenever `f`'s implementation is accurate to
    /// under `TRANS_ULPS` ulps (true for `std` transcendentals and the
    /// EKV interpolators built from them).
    pub fn monotone(self, f: impl Fn(f64) -> f64) -> Interval {
        let lo = f(self.lo);
        let hi = f(self.hi);
        debug_assert!(lo <= hi, "monotone envelope called on a decreasing map");
        Interval::new(step_down(lo, TRANS_ULPS), step_up(hi, TRANS_ULPS))
    }

    /// Envelope of a **non-increasing** function applied member-wise.
    pub fn antitone(self, f: impl Fn(f64) -> f64) -> Interval {
        let lo = f(self.hi);
        let hi = f(self.lo);
        debug_assert!(lo <= hi, "antitone envelope called on an increasing map");
        Interval::new(step_down(lo, TRANS_ULPS), step_up(hi, TRANS_ULPS))
    }

    /// `exp` envelope (monotone).
    pub fn exp(self) -> Interval {
        self.monotone(f64::exp).max_with(0.0)
    }

    /// `tanh` envelope (monotone), clamped to the codomain `[-1, 1]`.
    pub fn tanh(self) -> Interval {
        let e = self.monotone(f64::tanh);
        Interval {
            lo: e.lo.max(-1.0),
            hi: e.hi.min(1.0),
        }
    }

    /// `ln` envelope (monotone).
    ///
    /// # Panics
    ///
    /// Panics unless `lo > 0`.
    pub fn ln(self) -> Interval {
        assert!(self.lo > 0.0, "ln of an interval reaching {} <= 0", self.lo);
        self.monotone(f64::ln)
    }

    /// `sqrt` envelope (monotone).
    ///
    /// # Panics
    ///
    /// Panics unless `lo >= 0`.
    pub fn sqrt(self) -> Interval {
        assert!(self.lo >= 0.0, "sqrt of an interval reaching {}", self.lo);
        self.monotone(f64::sqrt).max_with(0.0)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6e}, {:.6e}]", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval::new(
            step_down(self.lo + rhs.lo, ARITH_ULPS),
            step_up(self.hi + rhs.hi, ARITH_ULPS),
        )
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        Interval::new(
            step_down(self.lo - rhs.hi, ARITH_ULPS),
            step_up(self.hi - rhs.lo, ARITH_ULPS),
        )
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        // All four endpoint products; 0 * inf is treated as 0 (sound
        // here because the zero endpoint means the member set includes
        // numbers of arbitrarily small magnitude, whose products tend
        // to zero, and the other endpoint products cover the rest).
        let p = |a: f64, b: f64| {
            let v = a * b;
            if v.is_nan() {
                0.0
            } else {
                v
            }
        };
        let c = [
            p(self.lo, rhs.lo),
            p(self.lo, rhs.hi),
            p(self.hi, rhs.lo),
            p(self.hi, rhs.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::new(step_down(lo, ARITH_ULPS), step_up(hi, ARITH_ULPS))
    }
}

impl Matrix<Interval> {
    /// Lifts a point matrix.
    pub fn from_matrix(a: &Matrix) -> Self {
        let mut m = Matrix::zeros(a.rows(), a.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                m[(i, j)] = Interval::point(a[(i, j)]);
            }
        }
        m
    }

    /// The midpoint matrix.
    pub fn mid(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                m[(i, j)] = self[(i, j)].mid();
            }
        }
        m
    }
}

/// Strict diagonal dominance over the whole box: for every row, the
/// smallest possible |diagonal| strictly exceeds the largest possible
/// sum of off-diagonal magnitudes. By Gershgorin's circle theorem this
/// proves every member matrix nonsingular. Cheap (O(n²)) but weak for
/// MNA systems whose voltage-source branch rows have zero diagonals —
/// use [`prove_regular`] for those.
pub fn gershgorin_nonsingular(a: &Matrix<Interval>) -> bool {
    if !a.is_square() {
        return false;
    }
    for i in 0..a.rows() {
        let mut off = 0.0f64;
        for j in 0..a.cols() {
            if j != i {
                off += a[(i, j)].mag();
            }
        }
        if a[(i, i)].mig() <= off {
            return false;
        }
    }
    true
}

/// Midpoint-preconditioned regularity proof.
///
/// Computes `R ≈ mid([A])⁻¹` in point arithmetic, then bounds
/// `‖I − R·[A]‖∞` with interval arithmetic. If the bound is `< 1`,
/// then for every member `A ∈ [A]` the product `R·A` is within
/// distance < 1 of the identity, hence nonsingular, hence `A` is
/// nonsingular. Returns `false` (meaning *unproven*, not singular)
/// when the midpoint matrix itself fails to factor or the residual
/// bound reaches 1.
pub fn prove_regular(a: &Matrix<Interval>) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.rows();
    let mid = a.mid();
    let Ok(lu) = LuFactor::new(&mid) else {
        return false;
    };
    // Columns of R = mid⁻¹, one triangular solve per unit vector.
    let mut r = Matrix::zeros(n, n);
    let mut e = vec![0.0f64; n];
    for j in 0..n {
        e[j] = 1.0;
        let Ok(col) = lu.solve(&e) else {
            return false;
        };
        e[j] = 0.0;
        for i in 0..n {
            r[(i, j)] = col[i];
        }
    }
    // ‖I − R·[A]‖∞ via interval row sums.
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut row_sum = 0.0f64;
        for j in 0..n {
            let mut acc = Interval::ZERO;
            for k in 0..n {
                acc = acc + Interval::point(r[(i, k)]) * a[(k, j)];
            }
            if i == j {
                acc = acc - Interval::point(1.0);
            }
            row_sum += acc.mag();
            if !row_sum.is_finite() {
                return false;
            }
        }
        worst = worst.max(row_sum);
    }
    worst < 1.0
}

/// Interval LU factorisation with mignitude partial pivoting.
///
/// Interval Gaussian elimination runs the textbook algorithm with
/// every scalar replaced by an interval. At each step the pivot row is
/// chosen to maximise the pivot *mignitude* (the smallest magnitude any
/// member can take); if the best available pivot still contains zero,
/// some member matrix may be singular and factorisation fails with
/// [`SolveError::Singular`] at that elimination step — mirroring
/// [`LuFactor::new`]. If factorisation completes, every member matrix
/// is provably nonsingular, and [`IntervalLu::solve`] encloses the
/// united solution set `{A⁻¹b : A ∈ [A], b ∈ [b]}`.
#[derive(Debug, Clone)]
pub struct IntervalLu {
    dim: usize,
    /// Combined L (below diagonal, unit diagonal implied) and U factors.
    lu: Matrix<Interval>,
    perm: Vec<usize>,
    /// Column permutation: `cperm[k]` is the original column eliminated
    /// at step `k`.
    cperm: Vec<usize>,
}

impl IntervalLu {
    /// Factors an interval matrix. See the type docs for semantics.
    pub fn new(a: &Matrix<Interval>) -> Result<Self, SolveError> {
        if !a.is_square() {
            return Err(SolveError::NotSquare);
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut cperm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Complete mignitude pivoting: the entry of the remaining
            // submatrix farthest from zero in the worst case. Row and
            // column permutations are exact, so soundness is
            // unaffected, and on saddle-structured systems (e.g. MNA
            // voltage-source rows) the exact off-diagonal ±1 entries
            // are consumed before fill-in can widen them.
            let (mut best_r, mut best_c) = (k, k);
            let mut best_mig = lu[(k, k)].mig();
            for i in k..n {
                for j in k..n {
                    let m = lu[(i, j)].mig();
                    if m > best_mig {
                        best_r = i;
                        best_c = j;
                        best_mig = m;
                    }
                }
            }
            if best_mig == 0.0 {
                return Err(SolveError::Singular { step: k });
            }
            if best_r != k {
                lu.swap_rows(k, best_r);
                perm.swap(k, best_r);
            }
            if best_c != k {
                for i in 0..n {
                    let t = lu[(i, k)];
                    lu[(i, k)] = lu[(i, best_c)];
                    lu[(i, best_c)] = t;
                }
                cperm.swap(k, best_c);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let Some(m) = lu[(i, k)].checked_div(pivot) else {
                    return Err(SolveError::Singular { step: k });
                };
                lu[(i, k)] = m;
                for j in (k + 1)..n {
                    let e = lu[(i, j)] - m * lu[(k, j)];
                    lu[(i, j)] = e;
                }
            }
        }
        Ok(IntervalLu {
            dim: n,
            lu,
            perm,
            cperm,
        })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row permutation applied during pivoting (mirrors
    /// [`LuFactor::permutation`]).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Guaranteed enclosure of the united solution set for `[A]x = [b]`.
    pub fn solve(&self, b: &[Interval]) -> Result<Vec<Interval>, SolveError> {
        if b.len() != self.dim {
            return Err(SolveError::DimensionMismatch {
                expected: self.dim,
                actual: b.len(),
            });
        }
        let n = self.dim;
        // Forward substitution on the permuted RHS.
        let mut y = vec![Interval::ZERO; n];
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, &yj) in y.iter().enumerate().take(i) {
                acc = acc - self.lu[(i, j)] * yj;
            }
            y[i] = acc;
        }
        // Back substitution in the permuted column order.
        let mut z = vec![Interval::ZERO; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, &zj) in z.iter().enumerate().take(n).skip(i + 1) {
                acc = acc - self.lu[(i, j)] * zj;
            }
            z[i] = acc
                .checked_div(self.lu[(i, i)])
                .ok_or(SolveError::Singular { step: i })?;
        }
        // Undo the column permutation: step `i` eliminated original
        // unknown `cperm[i]`.
        let mut x = vec![Interval::ZERO; n];
        for i in 0..n {
            x[self.cperm[i]] = z[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 so the containment tests need no
    /// external RNG crate (ulp-num is dependency-free).
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
        fn in_interval(&mut self, iv: Interval) -> f64 {
            iv.lo() + self.next_f64() * (iv.hi() - iv.lo())
        }
    }

    #[test]
    fn arithmetic_is_outward_rounded_and_containing() {
        let mut rng = Rng(1);
        for _ in 0..2000 {
            let a = Interval::across(rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0);
            let b = Interval::across(rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0);
            let x = rng.in_interval(a);
            let y = rng.in_interval(b);
            assert!((a + b).contains(x + y), "{a:?}+{b:?} vs {x}+{y}");
            assert!((a - b).contains(x - y));
            assert!((a * b).contains(x * y));
            assert!((-a).contains(-x));
            assert!(a.abs().contains(x.abs()));
            if !b.contains(0.0) {
                assert!(a.checked_div(b).unwrap().contains(x / y));
            }
            assert!(a.exp().contains(x.exp()));
            assert!(a.tanh().contains(x.tanh()));
        }
    }

    #[test]
    fn outward_rounding_strictly_widens_sums() {
        let a = Interval::point(0.1);
        let b = Interval::point(0.2);
        let s = a + b;
        // The true real 0.3 is inside even though 0.1 + 0.2 != 0.3 in
        // binary floating point.
        assert!(s.lo() < 0.1 + 0.2 && 0.1 + 0.2 < s.hi());
        assert!(s.contains(0.3));
    }

    #[test]
    fn set_operations() {
        let a = Interval::new(-1.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.hull(b), Interval::new(-1.0, 3.0));
        assert!(a.hull(b).encloses(a));
        assert!(Interval::new(4.0, 5.0).intersect(a).is_none());
        assert_eq!(a.mag(), 2.0);
        assert_eq!(a.mig(), 0.0);
        assert_eq!(b.mig(), 1.0);
        assert!(a.inflate(0.5).encloses(a));
        assert!(a.max_with(0.0).lo() == 0.0);
        assert!(a.min_with(1.5).hi() == 1.5);
    }

    #[test]
    fn monotone_envelopes_cover_members() {
        let mut rng = Rng(7);
        for _ in 0..500 {
            let a = Interval::across(rng.next_f64() * 3.0 + 0.01, rng.next_f64() * 3.0 + 0.01);
            let x = rng.in_interval(a);
            assert!(a.ln().contains(x.ln()));
            assert!(a.sqrt().contains(x.sqrt()));
            assert!(a.monotone(|v| v * v * v).contains(x * x * x));
            assert!(a.antitone(|v| 1.0 / v).contains(1.0 / x));
        }
    }

    #[test]
    fn interval_lu_encloses_point_solutions() {
        let mut rng = Rng(42);
        for _ in 0..200 {
            // A diagonally-weighted random 4x4 with entry uncertainty.
            let n = 4;
            let mut mid = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    mid[(i, j)] = rng.next_f64() - 0.5;
                }
                mid[(i, i)] += 3.0;
            }
            let mut a = Matrix::from_matrix(&mid);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = a[(i, j)].inflate(0.01);
                }
            }
            let b: Vec<Interval> = (0..n)
                .map(|_| Interval::point(rng.next_f64() * 2.0 - 1.0).inflate(0.01))
                .collect();
            let ilu = IntervalLu::new(&a).expect("dominant system factors");
            let x_box = ilu.solve(&b).expect("enclosure solve");

            // Sample a member system and compare against the point LU.
            let mut pa = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    pa[(i, j)] = rng.in_interval(a[(i, j)]);
                }
            }
            let pb: Vec<f64> = b.iter().map(|iv| rng.in_interval(*iv)).collect();
            let x = LuFactor::new(&pa).unwrap().solve(&pb).unwrap();
            for i in 0..n {
                assert!(
                    x_box[i].contains(x[i]),
                    "component {i}: {:?} not in {:?}",
                    x[i],
                    x_box[i]
                );
            }
        }
    }

    #[test]
    fn interval_lu_mirrors_point_lu_on_degenerate_intervals() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let ia = Matrix::from_matrix(&a);
        let ilu = IntervalLu::new(&ia).unwrap();
        let x = ilu
            .solve(&[Interval::point(5.0), Interval::point(10.0)])
            .unwrap();
        assert!(x[0].contains(1.0) && x[0].width() < 1e-12);
        assert!(x[1].contains(3.0) && x[1].width() < 1e-12);
        assert_eq!(ilu.dim(), 2);
        assert_eq!(ilu.permutation().len(), 2);
    }

    #[test]
    fn interval_lu_rejects_possibly_singular_boxes() {
        // [0.9, 1.1] on the diagonal of a row otherwise equal to the
        // next: the box contains a rank-deficient member.
        let mut a = Matrix::<Interval>::zeros(2, 2);
        a[(0, 0)] = Interval::new(0.9, 1.1);
        a[(0, 1)] = Interval::point(1.0);
        a[(1, 0)] = Interval::point(1.0);
        a[(1, 1)] = Interval::point(1.0);
        // Elimination: pivot 1.0 (row swap), then u22 = 1 - [0.9,1.1]
        // straddles zero → Singular.
        let err = IntervalLu::new(&a).unwrap_err();
        assert!(matches!(err, SolveError::Singular { step: 1 }));
        assert!(matches!(
            IntervalLu::new(&Matrix::<Interval>::zeros(2, 3)).unwrap_err(),
            SolveError::NotSquare
        ));
    }

    #[test]
    fn gershgorin_and_preconditioned_regularity() {
        let mut a = Matrix::<Interval>::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = Interval::new(4.0, 5.0);
            for j in 0..3 {
                if i != j {
                    a[(i, j)] = Interval::new(-1.0, 1.0);
                }
            }
        }
        assert!(gershgorin_nonsingular(&a));
        assert!(prove_regular(&a));

        // A branch-row style matrix: zero diagonal defeats Gershgorin
        // but the preconditioned test still proves regularity.
        let mut b = Matrix::<Interval>::zeros(2, 2);
        b[(0, 0)] = Interval::new(0.9, 1.1);
        b[(0, 1)] = Interval::point(1.0);
        b[(1, 0)] = Interval::point(1.0);
        b[(1, 1)] = Interval::ZERO;
        assert!(!gershgorin_nonsingular(&b));
        assert!(prove_regular(&b));

        // Wide enough to contain a singular member: both must refuse.
        let mut c = Matrix::<Interval>::zeros(2, 2);
        c[(0, 0)] = Interval::new(-1.0, 1.0);
        c[(0, 1)] = Interval::point(0.0);
        c[(1, 0)] = Interval::point(0.0);
        c[(1, 1)] = Interval::point(1.0);
        assert!(!gershgorin_nonsingular(&c));
        assert!(!prove_regular(&c));
    }

    #[test]
    fn matrix_surface_mirrors_dense_api() {
        let mut m = Matrix::<Interval>::zeros(2, 2);
        assert!(m.is_square());
        m.add_at(0, 0, Interval::point(1.0));
        m.add_at(0, 0, Interval::point(2.0));
        assert!(m[(0, 0)].contains(3.0));
        let v = m.mul_vec(&[Interval::point(2.0), Interval::point(0.0)]);
        assert!(v[0].contains(6.0));
        let mid = m.mid();
        assert!((mid[(0, 0)] - 3.0).abs() < 1e-12);
        m.clear();
        assert_eq!(m[(0, 0)], Interval::ZERO);
    }
}
