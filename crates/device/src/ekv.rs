//! EKV-style all-region MOS channel-current model.
//!
//! The EKV formulation expresses the drain current as the difference of a
//! *forward* and a *reverse* component, each given by the same
//! interpolation function of the normalised pinch-off-to-terminal
//! voltage:
//!
//! ```text
//! ID = IS · ( F((VP−VS)/UT) − F((VP−VD)/UT) ),   VP = (VG − VT0)/n
//! F(v) = ln²(1 + e^{v/2}),                       IS = 2·n·µCox·(W/L)·UT²
//! ```
//!
//! `F` interpolates smoothly between the weak-inversion exponential
//! (`F(v) → e^v` as `v → −∞`) — the regime every transistor in this paper
//! operates in — and the strong-inversion square law (`F(v) → v²/4`).
//! Its derivative has the closed form `F'(v) = L·(1−e^{−L})` with
//! `L = ln(1+e^{v/2}) = √F`, so Newton iteration in the circuit simulator
//! gets exact analytic conductances.

/// The EKV interpolation function `F(v) = ln²(1 + e^{v/2})`.
///
/// Numerically safe over the full `f64` range: for large `v` it avoids
/// `exp` overflow, for very negative `v` it underflows gracefully to the
/// subthreshold exponential.
///
/// # Example
///
/// ```
/// use ulp_device::ekv::interp;
///
/// // Weak inversion: F(v) ≈ e^v.
/// assert!((interp(-20.0) / (-20.0f64).exp() - 1.0).abs() < 1e-4);
/// // Strong inversion: F(v) ≈ v²/4.
/// assert!((interp(40.0) / 400.0 - 1.0).abs() < 0.2);
/// ```
pub fn interp(v: f64) -> f64 {
    let l = softplus_half(v);
    l * l
}

/// Derivative `F'(v) = √F · (1 − e^{−√F})`.
pub fn interp_deriv(v: f64) -> f64 {
    deriv_of_root(softplus_half(v))
}

/// `F'` from `l = √F = softplus_half(v)`: `l · (1 − e^{−l})`.
fn deriv_of_root(l: f64) -> f64 {
    if l == 0.0 {
        return 0.0;
    }
    l * (-(-l).exp_m1())
}

/// `ln(1 + e^{v/2})` without overflow.
fn softplus_half(v: f64) -> f64 {
    let x = 0.5 * v;
    if x > 40.0 {
        x
    } else if x < -700.0 {
        0.0
    } else {
        x.exp().ln_1p()
    }
}

/// Inverse of [`interp`]: the normalised voltage at which `F(v) = i`.
///
/// Used to find the gate drive required for a target inversion level,
/// e.g. when sizing replica-bias transistors.
///
/// # Panics
///
/// Panics if `i` is not strictly positive.
pub fn interp_inverse(i: f64) -> f64 {
    assert!(i > 0.0, "inversion coefficient must be positive");
    // F(v) = ln²(1+e^{v/2}) = i ⇒ ln(1+e^{v/2}) = √i ⇒ v = 2·ln(e^{√i} − 1)
    let l = i.sqrt();
    if l > 35.0 {
        2.0 * l
    } else {
        2.0 * (l.exp() - 1.0).ln()
    }
}

/// Channel current and its terminal derivatives at one bias point,
/// normalised to the specific current `IS` and thermal voltage `UT`.
///
/// Produced by [`channel`]; consumed by the MNA stamping code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelEval {
    /// Normalised drain current `ID/IS = i_f − i_r` (before channel-length
    /// modulation).
    pub i_norm: f64,
    /// Forward inversion coefficient `i_f = F((VP−VS)/UT)`.
    pub i_f: f64,
    /// Reverse inversion coefficient `i_r = F((VP−VD)/UT)`.
    pub i_r: f64,
    /// `∂(ID/IS)/∂(VG/UT)` — gate transconductance, normalised.
    pub di_dvg: f64,
    /// `∂(ID/IS)/∂(VS/UT)` — source conductance, normalised.
    pub di_dvs: f64,
    /// `∂(ID/IS)/∂(VD/UT)` — drain conductance, normalised.
    pub di_dvd: f64,
}

/// Evaluates the normalised EKV channel equations at terminal voltages
/// `vg`, `vs`, `vd` (volts, referred to the bulk) for slope factor `n`,
/// threshold `vt0` and thermal voltage `ut`.
///
/// All outputs are normalised: multiply `i_norm` by `IS` and the
/// derivatives by `IS/UT` to recover ampere/siemens quantities.
///
/// Each terminal costs one `ln(1 + e^{x/2})`: `F` and `F'` both derive
/// from `l = √F`, bit for bit as [`interp`] and [`interp_deriv`] give
/// them.
pub fn channel(vg: f64, vs: f64, vd: f64, vt0: f64, n: f64, ut: f64) -> ChannelEval {
    let vp = (vg - vt0) / n;
    let lf = softplus_half((vp - vs) / ut);
    let lr = softplus_half((vp - vd) / ut);
    let (i_f, df) = (lf * lf, deriv_of_root(lf));
    let (i_r, dr) = (lr * lr, deriv_of_root(lr));
    ChannelEval {
        i_norm: i_f - i_r,
        i_f,
        i_r,
        // x_f depends on VG through VP/n and on VS directly.
        di_dvg: (df - dr) / n,
        di_dvs: -df,
        di_dvd: dr,
    }
}

/// Saturation test: the device is in (weak- or strong-inversion)
/// saturation when the reverse component is negligible,
/// `i_r < sat_ratio · i_f`.
pub fn is_saturated(eval: &ChannelEval, sat_ratio: f64) -> bool {
    eval.i_r < sat_ratio * eval.i_f
}

/// Weak-inversion slope: drain-current decades per volt of gate drive,
/// `1/(n·UT·ln10)` — the familiar "60–90 mV/decade" figure inverted.
pub fn subthreshold_swing(n: f64, ut: f64) -> f64 {
    n * ut * std::f64::consts::LN_10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_limits() {
        // Deep weak inversion: F(v) → e^v.
        for v in [-30.0, -20.0, -10.0] {
            assert!((interp(v) / v.exp() - 1.0).abs() < 1e-2, "v={v}");
        }
        // Strong inversion: F(v) → (v/2)².
        assert!((interp(100.0) / 2500.0 - 1.0).abs() < 0.05);
        // Monotone increasing.
        let grid: Vec<f64> = (-100..100).map(|k| k as f64 * 0.5).collect();
        for w in grid.windows(2) {
            assert!(interp(w[1]) > interp(w[0]));
        }
    }

    #[test]
    fn interp_no_overflow() {
        assert!(interp(1e4).is_finite());
        assert!(interp(-1e4) >= 0.0);
        assert!(interp_deriv(1e4).is_finite());
        assert_eq!(interp_deriv(-5000.0), 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for v in [-15.0, -5.0, 0.0, 2.0, 10.0, 50.0] {
            let h = 1e-6;
            let fd = (interp(v + h) - interp(v - h)) / (2.0 * h);
            let an = interp_deriv(v);
            assert!(
                (fd - an).abs() <= 1e-6 * fd.abs().max(1e-12),
                "v={v}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for i in [1e-9, 1e-4, 0.1, 1.0, 10.0, 1e4] {
            let v = interp_inverse(i);
            assert!((interp(v) / i - 1.0).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn inverse_rejects_nonpositive() {
        let _ = interp_inverse(0.0);
    }

    #[test]
    fn channel_weak_inversion_exponential() {
        // In weak inversion the current follows
        // I ∝ e^{(VG−VT)/(n·UT)}·(1 − e^{−VDS/UT}).
        let (vt0, n, ut) = (0.45, 1.35, 0.02585);
        let e1 = channel(0.10, 0.0, 0.3, vt0, n, ut);
        let e2 = channel(0.10 + n * ut, 0.0, 0.3, vt0, n, ut);
        assert!((e2.i_norm / e1.i_norm - std::f64::consts::E).abs() < 0.05);
    }

    #[test]
    fn channel_saturates_after_few_ut() {
        let (vt0, n, ut) = (0.45, 1.35, 0.02585);
        let lo = channel(0.25, 0.0, 2.0 * ut, vt0, n, ut);
        let hi = channel(0.25, 0.0, 8.0 * ut, vt0, n, ut);
        // Beyond ~4–5 UT of VDS the current is flat within a percent.
        assert!(!is_saturated(&lo, 0.01));
        assert!(is_saturated(&hi, 0.01));
        assert!((hi.i_norm - lo.i_norm) / hi.i_norm < 0.15);
    }

    #[test]
    fn channel_symmetry_reverses_sign() {
        // Swapping source and drain negates the current (source-drain
        // symmetry of the EKV charge formulation).
        let (vt0, n, ut) = (0.45, 1.35, 0.02585);
        let fwd = channel(0.5, 0.1, 0.4, vt0, n, ut);
        let rev = channel(0.5, 0.4, 0.1, vt0, n, ut);
        assert!((fwd.i_norm + rev.i_norm).abs() < 1e-12 * fwd.i_norm.abs().max(1e-30));
    }

    #[test]
    fn channel_zero_vds_zero_current() {
        let e = channel(0.5, 0.2, 0.2, 0.45, 1.35, 0.02585);
        assert_eq!(e.i_norm, 0.0);
        assert!(e.di_dvd > 0.0, "channel conductance must remain positive");
    }

    #[test]
    fn channel_derivatives_match_finite_difference() {
        let (vt0, n, ut) = (0.45, 1.35, 0.02585);
        let (vg, vs, vd) = (0.42, 0.05, 0.31);
        let h = 1e-7;
        let base = channel(vg, vs, vd, vt0, n, ut);
        let dg = (channel(vg + h, vs, vd, vt0, n, ut).i_norm
            - channel(vg - h, vs, vd, vt0, n, ut).i_norm)
            / (2.0 * h);
        let ds = (channel(vg, vs + h, vd, vt0, n, ut).i_norm
            - channel(vg, vs - h, vd, vt0, n, ut).i_norm)
            / (2.0 * h);
        let dd = (channel(vg, vs, vd + h, vt0, n, ut).i_norm
            - channel(vg, vs, vd - h, vt0, n, ut).i_norm)
            / (2.0 * h);
        // The analytic values are per normalised voltage; convert.
        assert!((dg - base.di_dvg / ut).abs() / dg.abs() < 1e-5);
        assert!((ds - base.di_dvs / ut).abs() / ds.abs() < 1e-5);
        assert!((dd - base.di_dvd / ut).abs() / dd.abs() < 1e-5);
    }

    #[test]
    fn channel_shares_each_softplus_bit_for_bit() {
        // `channel` derives F and F' from one softplus per terminal; the
        // results must be exactly `interp`/`interp_deriv`, which the
        // certifier's envelopes call. The grid crosses both clamps of
        // `softplus_half` (x/2 > 40 and x/2 < −700).
        let (vg, vt0, n, ut) = (0.42, 0.45, 1.35, 0.02585);
        let vp = (vg - vt0) / n;
        let volts: Vec<f64> = (-60..=800).map(|k| k as f64 * 0.05).collect();
        let (mut above, mut below) = (false, false);
        for &vs in &volts {
            for &vd in volts.iter().step_by(7) {
                let e = channel(vg, vs, vd, vt0, n, ut);
                let (xf, xr) = ((vp - vs) / ut, (vp - vd) / ut);
                above |= 0.5 * xf > 40.0;
                below |= 0.5 * xf < -700.0;
                let (df, dr) = (interp_deriv(xf), interp_deriv(xr));
                let ctx = format!("vs {vs} vd {vd}");
                assert_eq!(e.i_f.to_bits(), interp(xf).to_bits(), "{ctx}: i_f");
                assert_eq!(e.i_r.to_bits(), interp(xr).to_bits(), "{ctx}: i_r");
                assert_eq!(e.di_dvs.to_bits(), (-df).to_bits(), "{ctx}: di_dvs");
                assert_eq!(e.di_dvd.to_bits(), dr.to_bits(), "{ctx}: di_dvd");
                assert_eq!(
                    e.di_dvg.to_bits(),
                    ((df - dr) / n).to_bits(),
                    "{ctx}: di_dvg"
                );
            }
        }
        assert!(above && below, "grid must cross both softplus clamps");
    }

    #[test]
    fn swing_is_60_to_90_mv_per_decade() {
        let s = subthreshold_swing(1.35, 0.02585);
        assert!(s > 0.060 && s < 0.090, "swing = {s}");
    }
}
