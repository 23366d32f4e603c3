//! Property-based tests of the numerics substrate.

use proptest::prelude::*;
use ulp_num::fft::{fft_in_place, ifft_in_place, power_spectrum};
use ulp_num::interp::{lerp_at, linspace, logspace};
use ulp_num::lu::{solve, LuFactor};
use ulp_num::poly::Poly;
use ulp_num::stats::{max_abs, mean, median, min_max, quantile, std_dev};
use ulp_num::sparse::{SparseLu, SparseMatrix};
use ulp_num::{Complex, Matrix};

/// A diagonally dominant complex matrix: real parts from `seed` as in
/// [`diag_dominant`], imaginary parts from the same seed vector one
/// draw later.
fn diag_dominant_complex(n: usize, seed: &[f64]) -> Matrix<Complex> {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = Complex::new(seed[k % seed.len()] % 1.0, seed[(k + 1) % seed.len()] % 1.0);
                m[(i, j)] = v;
                row_sum += v.abs();
                k += 1;
            }
        }
        let d = row_sum + 1.0 + seed[k % seed.len()].abs() % 1.0;
        m[(i, i)] = Complex::new(d, seed[(k + 1) % seed.len()] % 1.0);
        k += 1;
    }
    m
}

/// A complex right-hand side: real parts from `b`, imaginary parts from
/// `b` rotated by one.
fn complex_rhs(b: &[f64]) -> Vec<Complex> {
    (0..b.len())
        .map(|i| Complex::new(b[i], b[(i + 1) % b.len()]))
        .collect()
}

fn diag_dominant(n: usize, seed: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = seed[k % seed.len()] % 1.0;
                m[(i, j)] = v;
                row_sum += v.abs();
                k += 1;
            }
        }
        m[(i, i)] = row_sum + 1.0 + seed[k % seed.len()].abs() % 1.0;
        k += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        seed in prop::collection::vec(-1.0f64..1.0, 40),
        b in prop::collection::vec(-10.0f64..10.0, 5)
    ) {
        let a = diag_dominant(5, &seed);
        let x = solve(&a, &b).expect("diag-dominant is nonsingular");
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_determinant_of_product_rule_diag(
        d in prop::collection::vec(0.1f64..10.0, 4)
    ) {
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = d[i];
        }
        let det = LuFactor::new(&a).expect("diagonal").det();
        let expect: f64 = d.iter().product();
        prop_assert!((det / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_lu_matches_dense_lu(
        seed in prop::collection::vec(-1.0f64..1.0, 40),
        b in prop::collection::vec(-10.0f64..10.0, 5)
    ) {
        let a = diag_dominant(5, &seed);
        let sa = SparseMatrix::from_dense(&a);
        let dense_x = solve(&a, &b).expect("diag-dominant is nonsingular");
        let slu = SparseLu::factor(&sa).expect("diag-dominant is nonsingular");
        let mut sparse_x = Vec::new();
        slu.solve_into(&b, &mut sparse_x).expect("solve");
        for (d, s) in dense_x.iter().zip(&sparse_x) {
            prop_assert!((d - s).abs() < 1e-9);
        }
        // Determinants agree too (the near-singular lint reads them).
        let det_d = LuFactor::new(&a).expect("nonsingular").det();
        let det_s = slu.det();
        prop_assert!((det_d / det_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_refactor_reproduces_fresh_factorization(
        seed in prop::collection::vec(-1.0f64..1.0, 40),
        scale in 0.5f64..2.0,
        b in prop::collection::vec(-10.0f64..10.0, 5)
    ) {
        // Factor once to record the pivot order, perturb all values
        // (same pattern, diagonal dominance preserved), then refactor —
        // the answer must match a from-scratch factorization of the
        // perturbed matrix.
        let a0 = diag_dominant(5, &seed);
        let sa = SparseMatrix::from_dense(&a0);
        let mut lu = SparseLu::factor(&sa).expect("nonsingular");

        let mut a1 = SparseMatrix::from_dense(&a0);
        for v in a1.values_mut() {
            *v *= scale;
        }
        lu.refactor(&a1).expect("same pattern, still dominant");
        let mut x_re = Vec::new();
        lu.solve_into(&b, &mut x_re).expect("solve");

        let fresh = SparseLu::factor(&a1).expect("nonsingular");
        let mut x_fresh = Vec::new();
        fresh.solve_into(&b, &mut x_fresh).expect("solve");
        for (r, f) in x_re.iter().zip(&x_fresh) {
            prop_assert!((r - f).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_sparse_lu_matches_dense_lu(
        seed in prop::collection::vec(-1.0f64..1.0, 40),
        b in prop::collection::vec(-10.0f64..10.0, 5)
    ) {
        let a = diag_dominant_complex(5, &seed);
        let b = complex_rhs(&b);
        let sa = SparseMatrix::from_dense(&a);
        let dense_lu = LuFactor::new(&a).expect("diag-dominant is nonsingular");
        let dense_x = dense_lu.solve(&b).expect("solve");
        let slu = SparseLu::factor(&sa).expect("diag-dominant is nonsingular");
        let mut sparse_x = Vec::new();
        slu.solve_into(&b, &mut sparse_x).expect("solve");
        for (d, s) in dense_x.iter().zip(&sparse_x) {
            prop_assert!((*d - *s).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_sparse_refactor_reproduces_fresh_factorization(
        seed in prop::collection::vec(-1.0f64..1.0, 40),
        scale in 0.5f64..2.0,
        b in prop::collection::vec(-10.0f64..10.0, 5)
    ) {
        // As the real property, on the complex instantiation that AC
        // analysis refactors across frequencies.
        let a0 = diag_dominant_complex(5, &seed);
        let b = complex_rhs(&b);
        let sa = SparseMatrix::from_dense(&a0);
        let mut lu = SparseLu::factor(&sa).expect("nonsingular");

        let mut a1 = SparseMatrix::from_dense(&a0);
        for v in a1.values_mut() {
            *v = *v * scale;
        }
        lu.refactor(&a1).expect("same pattern, still dominant");
        let mut x_re = Vec::new();
        lu.solve_into(&b, &mut x_re).expect("solve");

        let fresh = SparseLu::factor(&a1).expect("nonsingular");
        let mut x_fresh = Vec::new();
        fresh.solve_into(&b, &mut x_fresh).expect("solve");
        for (r, f) in x_re.iter().zip(&x_fresh) {
            prop_assert!((*r - *f).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_roundtrip_arbitrary_signal(
        xs in prop::collection::vec(-100.0f64..100.0, 64)
    ) {
        let mut data: Vec<Complex> = xs.iter().map(|&x| Complex::from_re(x)).collect();
        fft_in_place(&mut data).expect("power of two");
        ifft_in_place(&mut data).expect("power of two");
        for (z, x) in data.iter().zip(&xs) {
            prop_assert!((z.re - x).abs() < 1e-9);
            prop_assert!(z.im.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_for_arbitrary_signal(
        xs in prop::collection::vec(-10.0f64..10.0, 128)
    ) {
        let time: f64 = xs.iter().map(|x| x * x).sum::<f64>() / 128.0;
        let freq: f64 = power_spectrum(&xs).expect("power of two").iter().sum();
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }

    #[test]
    fn quantiles_bounded_and_ordered(
        xs in prop::collection::vec(-1e6f64..1e6, 2..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let (lo, hi) = min_max(&xs).expect("non-empty");
        let v1 = quantile(&xs, q1).expect("valid q");
        let v2 = quantile(&xs, q2).expect("valid q");
        prop_assert!(v1 >= lo && v1 <= hi);
        if q1 <= q2 {
            prop_assert!(v1 <= v2 + 1e-12);
        }
        let m = median(&xs).expect("non-empty");
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn stats_shift_invariance(
        xs in prop::collection::vec(-100.0f64..100.0, 2..40),
        shift in -1e3f64..1e3
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let m0 = mean(&xs).expect("non-empty");
        let m1 = mean(&shifted).expect("non-empty");
        prop_assert!((m1 - m0 - shift).abs() < 1e-9);
        let s0 = std_dev(&xs).expect("non-empty");
        let s1 = std_dev(&shifted).expect("non-empty");
        prop_assert!((s0 - s1).abs() < 1e-9);
        prop_assert!(max_abs(&xs).expect("non-empty") >= 0.0);
    }

    #[test]
    fn lerp_stays_within_segment_bounds(
        ys in prop::collection::vec(-50.0f64..50.0, 2..20),
        t in 0.0f64..1.0
    ) {
        let xs = linspace(0.0, 1.0, ys.len());
        let v = lerp_at(&xs, &ys, t).expect("monotone grid");
        let (lo, hi) = min_max(&ys).expect("non-empty");
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn logspace_monotone_and_bounded(
        a_exp in -12.0f64..0.0,
        span in 0.5f64..6.0,
        n in 2usize..50
    ) {
        let a = 10f64.powf(a_exp);
        let b = a * 10f64.powf(span);
        let g = logspace(a, b, n);
        prop_assert_eq!(g.len(), n);
        prop_assert!(g.windows(2).all(|w| w[1] > w[0]));
        prop_assert!((g[0] / a - 1.0).abs() < 1e-9);
        prop_assert!((g[n - 1] / b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poly_mul_degree_and_eval(
        a in prop::collection::vec(-5.0f64..5.0, 1..6),
        b in prop::collection::vec(-5.0f64..5.0, 1..6),
        x in -3.0f64..3.0
    ) {
        let pa = Poly::new(a);
        let pb = Poly::new(b);
        let prod = pa.mul(&pb);
        // Evaluation is a ring homomorphism.
        let lhs = prod.eval(x);
        let rhs = pa.eval(x) * pb.eval(x);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs.abs()));
    }

    #[test]
    fn complex_field_axioms(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in -10.0f64..10.0, bi in -10.0f64..10.0
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity and |ab| = |a||b|.
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((ab.abs() - a.abs() * b.abs()).abs() < 1e-9);
        // Conjugate homomorphism.
        let c1 = (a * b).conj();
        let c2 = a.conj() * b.conj();
        prop_assert!((c1 - c2).abs() < 1e-9);
    }
}
