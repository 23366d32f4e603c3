//! Interval twins of the device analytics, evaluated over a PVT +
//! mismatch box instead of at a nominal point.
//!
//! The static lints of `ulp-spice` call the point analytics
//! ([`Mosfet::inversion_coefficient`], [`Mosfet::min_supply`],
//! [`PmosLoad::conductance`], …) at one technology card — a single die
//! at a single temperature. The sound certifier needs the *range* each
//! analytic can take over an entire qualification box: a temperature
//! interval, a per-corner technology card, and a Pelgrom mismatch
//! spread of `±k·σ` around the instance's drawn deltas. This module
//! provides those envelopes as `*_iv` methods returning
//! [`ulp_num::Interval`].
//!
//! Every envelope here exploits monotonicity: the EKV interpolator
//! `F(v) = ln²(1+e^{v/2})` and its derivative and inverse are strictly
//! increasing, `vt_at` is decreasing in temperature, the specific
//! current `2·n·kp(T)·UT(T)² ∝ T^{1/2}` is increasing, and the STSCL
//! load's `tanh` I–V is odd and monotone. Endpoint evaluation plus
//! outward rounding (see [`ulp_num::interval`]) therefore yields tight,
//! sound bounds. On top of the interval library's per-operation ulp
//! slack, each envelope is inflated by a relative [`ENV_SLACK`] so
//! that multi-operation `std` math (`exp` + `ln_1p` + squaring) can
//! never round a true member outside the reported box.
//!
//! Soundness contract (pinned by the `certify_soundness` integration
//! suite): for every temperature in the box, every mismatch draw within
//! `±k·σ` of the drawn deltas, the point analytic's value lies inside
//! the corresponding `*_iv` envelope.
//!
//! The MOS channel over terminal-voltage boxes goes through a
//! [`MosEnvelope`], built once per device, corner card and box by
//! [`Mosfet::envelope`]. It holds the voltage-independent intervals —
//! the reciprocal thermal voltage, the threshold and specific-current
//! boxes with their mismatch spread, the slope factor, the CLM
//! coefficient and the polarity — so evaluating the channel at a
//! terminal box derives none of them again; the certifier evaluates
//! tens of thousands of terminal boxes per box. Its two entry points
//! share one channel kernel: [`MosEnvelope::drain_current`] computes
//! the current alone (all an interval KCL sum reads), and
//! [`MosEnvelope::operating_point`] adds the conductances refined by a
//! drain-current bound, the forward-injection box and the
//! diode-connected conductance floor.

use crate::ekv;
use crate::load::PmosLoad;
use crate::mismatch::MismatchRng;
use crate::mosfet::{Mosfet, Polarity};
use crate::tech::{Technology, K_OVER_Q};
use ulp_num::Interval;

/// Relative outward slack applied on top of the interval library's
/// ulp-level rounding, absorbing the (bounded, but > 1 ulp) error of
/// composed `std` transcendentals inside the point analytics.
const ENV_SLACK: f64 = 1e-12;

fn slacked(iv: Interval) -> Interval {
    iv.inflate(iv.mag() * ENV_SLACK)
}

/// The parameter box a certificate quantifies over, *within* one
/// process corner: a temperature interval and a mismatch spread.
///
/// Corners stay discrete — the certifier evaluates each
/// [`crate::pvt::Corner`] card separately and hulls the verdicts —
/// because [`Technology::at_corner`] applies fixed shifts rather than a
/// continuum. Temperature and mismatch are genuine intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvtBox {
    /// Lowest junction temperature, K.
    pub t_lo: f64,
    /// Highest junction temperature, K.
    pub t_hi: f64,
    /// Mismatch spread multiplier: each device's threshold and beta
    /// deltas range over `drawn ± k_sigma·σ_Pelgrom`. Zero means "the
    /// drawn die only".
    pub k_sigma: f64,
}

impl PvtBox {
    /// The qualification-grid box: −40 °C … +85 °C, ±6σ mismatch —
    /// matching the sweep grid of
    /// [`crate::pvt::OperatingCondition::qualification_grid`] and
    /// covering practically every Monte-Carlo draw.
    pub fn qualification() -> Self {
        PvtBox {
            t_lo: 233.15,
            t_hi: 358.15,
            k_sigma: 6.0,
        }
    }

    /// A degenerate box at one temperature with no mismatch spread:
    /// interval analytics collapse to (outward-rounded) point values.
    pub fn at_temperature(t: f64) -> Self {
        assert!(t > 0.0, "absolute temperature must be positive");
        PvtBox {
            t_lo: t,
            t_hi: t,
            k_sigma: 0.0,
        }
    }

    /// The temperature interval.
    pub fn temperature_iv(&self) -> Interval {
        Interval::new(self.t_lo, self.t_hi)
    }

    /// Thermal voltage `UT = kT/q` over the box, V.
    pub fn thermal_voltage_iv(&self) -> Interval {
        slacked(self.temperature_iv().scale(K_OVER_Q))
    }
}

/// Interval envelope of the EKV interpolator `F` (strictly increasing).
pub fn interp_iv(x: Interval) -> Interval {
    slacked(x.monotone(ekv::interp)).max_with(0.0)
}

/// Interval envelope of `F'` (strictly increasing, non-negative).
pub fn interp_deriv_iv(x: Interval) -> Interval {
    slacked(x.monotone(ekv::interp_deriv)).max_with(0.0)
}

/// Interval envelope of `F⁻¹` (strictly increasing; requires a
/// strictly positive argument box).
pub fn interp_inverse_iv(i: Interval) -> Interval {
    assert!(i.lo() > 0.0, "inversion coefficient box must be positive");
    slacked(i.monotone(ekv::interp_inverse))
}

/// Interval envelope of the slope-to-value ratio `F'(x)/F(x)` of the
/// EKV interpolator, with values in `(0, 1]`.
///
/// With `l = ln(1 + e^{x/2})` the ratio is `(1 − e^{−l})/l`, which is
/// strictly decreasing in `l` (hence in `x`): it approaches 1 deep in
/// weak inversion and `2/√F` in strong inversion. This is the bridge
/// between a transconductance and its own current —
/// `F'(x) = ratio(x)·F(x)` — that lets the certifier bound `g_ms`
/// by a KCL-pinned current instead of a box-evaluated exponential.
///
/// Below `x = −50` the direct quotient underflows (`1 − e^{−l}`
/// rounds to 0 while `F > 0`), so the analytic bracket
/// `1 − l/2 ≤ ratio ≤ 1` with `l ≤ e^{x/2}` takes over.
pub fn interp_ratio_iv(x: Interval) -> Interval {
    let unit = Interval::new(0.0, 1.0);
    let at = |v: f64| -> Interval {
        if v <= -50.0 {
            Interval::new(1.0 - (0.5 * v).exp(), 1.0)
        } else {
            let p = Interval::point(v);
            interp_deriv_iv(p)
                .checked_div(interp_iv(p))
                .and_then(|r| r.intersect(unit))
                .unwrap_or(unit)
        }
    };
    // Decreasing in x: the envelope over a box runs from the value at
    // the upper endpoint to the value at the lower one.
    let hi_end = at(x.hi());
    let lo_end = at(x.lo());
    Interval::new(
        hi_end.lo().min(lo_end.lo()),
        lo_end.hi().max(hi_end.hi()),
    )
    .intersect(unit)
    .unwrap_or(unit)
}

/// Sound envelope of `F'(F⁻¹(i))` over a forward/reverse component
/// box: the slope of the interpolator at whatever (unknown) argument
/// produced a component value inside `i`. Monotone composition of two
/// increasing maps; a non-positive component pins the slope at 0.
fn deriv_from_component(i: Interval) -> Interval {
    let at = |v: f64| {
        if v > 0.0 {
            interp_deriv_iv(interp_inverse_iv(Interval::point(v)))
        } else {
            Interval::ZERO
        }
    };
    let hi = at(i.hi()).hi();
    let lo = at(i.lo()).lo().min(hi);
    Interval::new(lo, hi)
}

/// Interval operating point of a MOS channel: the ranges of
/// [`crate::MosOperatingPoint`]'s current and conductances over
/// terminal-voltage boxes and the PVT/mismatch box, plus the two
/// correlated quantities the certifier's Jacobian reads beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOpIv {
    /// Drain current (positive into the drain for NMOS, out for PMOS —
    /// same sign convention as the point model), A.
    pub id: Interval,
    /// Gate transconductance `∂ID/∂VG`, S.
    pub gm: Interval,
    /// Source transconductance `∂ID/∂VS` (negative for NMOS), S.
    pub gms: Interval,
    /// Drain conductance `∂ID/∂VD`, S.
    pub gds: Interval,
    /// Forward-injection argument box `x_f = (V_P − V_S)/U_T` (with
    /// polarity reflection), the quantity [`interp_ratio_iv`] is
    /// evaluated at when bounding a transconductance by its current.
    pub xf: Interval,
    /// Non-negative lower bound on the total conductance `∂I_D/∂V` of
    /// the channel with its drain tied to its gate (both riding the
    /// gate box `vg`; the drain box plays no part), S. Meaningful only
    /// for a diode-connected device.
    ///
    /// With the gate tied, `∂I_D/∂V = gm + gds =
    /// (I_S·clm/U_T)·(F'(x_f)/n + F'(x_r)·(n−1)/n) + CLM-extra`, and
    /// every term is non-negative (`n > 1`, `F' ≥ 0`), so the lower
    /// product of the factor envelopes is a sound floor over the whole
    /// box — even though the independently box-evaluated `gm` can dip
    /// negative once the gate/drain correlation is lost. The reverse
    /// slope is evaluated on the *correlated* argument
    /// `x_r = (v·(1−n) − V_T)/(n·U_T)`; the decorrelated rectangle
    /// (pinch-off from one copy of `v`, the drain from another) cannot
    /// see that cancellation.
    pub diode_floor: f64,
}

impl Mosfet {
    /// Threshold voltage range over the box, V (NMOS-prototype sign),
    /// including the drawn `delta_vt` widened by `±k·σ(ΔVT)`.
    pub fn threshold_iv(&self, tech: &Technology, pvt: &PvtBox) -> Interval {
        let m = self.model(tech);
        // vt_at falls with temperature (vt_tc > 0).
        let vt_t = slacked(pvt.temperature_iv().antitone(|t| m.vt_at(t)));
        let spread = pvt.k_sigma * MismatchRng::sigma_delta_vt(m, self.w, self.l);
        vt_t + Interval::point(self.delta_vt).inflate(spread)
    }

    /// Specific current range `IS = 2·n·kp(T)·UT(T)²·W/L·(1+Δβ)` over
    /// the box, A. Always strictly positive.
    ///
    /// # Panics
    ///
    /// Panics when the mismatch box reaches a non-positive beta factor
    /// (see [`Mosfet::envelope`] for the checked form).
    pub fn specific_current_iv(&self, tech: &Technology, pvt: &PvtBox) -> Interval {
        self.specific_current_box(tech, pvt)
            .expect("mismatch box reaches a non-positive beta factor")
    }

    /// [`Self::specific_current_iv`], or `None` when the mismatch box
    /// reaches a non-positive beta factor.
    fn specific_current_box(&self, tech: &Technology, pvt: &PvtBox) -> Option<Interval> {
        let m = self.model(tech);
        // ∝ T^{1/2}: increasing in temperature.
        let is_t = slacked(pvt.temperature_iv().monotone(|t| m.specific_current(t)));
        let spread = pvt.k_sigma * MismatchRng::sigma_delta_beta(m, self.w, self.l);
        let beta = Interval::point(1.0 + self.delta_beta).inflate(spread);
        (beta.lo() > 0.0).then(|| is_t.scale(self.w / self.l) * beta)
    }

    /// The voltage-independent envelope of this device at the corner
    /// card `tech` over `pvt`, for evaluating the channel at any
    /// number of terminal boxes.
    ///
    /// `None` when the box admits a non-positive thermal voltage or
    /// the mismatch box reaches a non-positive beta factor: no channel
    /// envelope exists there.
    ///
    /// # Panics
    ///
    /// Panics when the temperature bounds are out of order or NaN, or
    /// `k_sigma` is negative or NaN.
    pub fn envelope(&self, tech: &Technology, pvt: &PvtBox) -> Option<MosEnvelope> {
        let m = self.model(tech);
        Some(MosEnvelope {
            polarity: self.polarity,
            ut_inv: pvt.thermal_voltage_iv().recip()?,
            vt: self.threshold_iv(tech, pvt),
            is: self.specific_current_box(tech, pvt)?,
            n: m.n,
            inv_n: 1.0 / m.n,
            lambda: self.lambda(tech),
        })
    }

    /// Interval twin of [`Mosfet::inversion_coefficient`]: the range of
    /// `IC = ID/IS` at drain current `id` over the box.
    pub fn inversion_coefficient_iv(&self, tech: &Technology, pvt: &PvtBox, id: f64) -> Interval {
        Interval::point(id)
            .checked_div(self.specific_current_iv(tech, pvt))
            .expect("specific current box is strictly positive")
    }

    /// Interval twin of [`Mosfet::vds_sat_weak`]: `4·UT` over the box, V.
    pub fn vds_sat_weak_iv(&self, _tech: &Technology, pvt: &PvtBox) -> Interval {
        pvt.thermal_voltage_iv().scale(4.0)
    }

    /// Interval twin of [`Mosfet::vgs_for_current`]: the gate-source
    /// voltage range producing drain current `id` over the box, V
    /// (negative for PMOS).
    ///
    /// # Panics
    ///
    /// Panics unless `id > 0`.
    pub fn vgs_for_current_iv(&self, tech: &Technology, pvt: &PvtBox, id: f64) -> Interval {
        assert!(id > 0.0, "target current must be positive");
        let m = self.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let i_f = Interval::point(id)
            .checked_div(self.specific_current_iv(tech, pvt))
            .expect("specific current box is strictly positive");
        let x = interp_inverse_iv(i_f);
        let vgs = (x * ut).scale(m.n) + self.threshold_iv(tech, pvt);
        match self.polarity {
            Polarity::Nmos => vgs,
            Polarity::Pmos => -vgs,
        }
    }

    /// Interval twin of [`Mosfet::min_supply`]:
    /// `VDD_min = VSW + |VGS(ISS)| + 4·UT` over the box, V.
    ///
    /// `proved-infeasible` reasoning reads both ends: a supply below
    /// `lo()` fails on *every* die in the box; one above `hi()` has
    /// proved headroom on every die.
    pub fn min_supply_iv(&self, tech: &Technology, pvt: &PvtBox, iss: f64, vsw: f64) -> Interval {
        Interval::point(vsw)
            + self.vgs_for_current_iv(tech, pvt, iss).abs()
            + self.vds_sat_weak_iv(tech, pvt)
    }
}

/// The voltage-independent envelope of one MOS device at one corner
/// card over one PVT/mismatch box, built by [`Mosfet::envelope`].
///
/// It holds what every channel evaluation over that box shares — the
/// reciprocal thermal voltage, the threshold and specific-current
/// boxes with the mismatch spread folded in, the slope factor, the CLM
/// coefficient and the polarity — so a terminal-box evaluation derives
/// none of them again. Dividing by `U_T` is multiplying by the stored
/// reciprocal, which is exactly how [`Interval::checked_div`] divides,
/// so the hoisting changes no bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEnvelope {
    polarity: Polarity,
    /// `1/U_T` over the box, 1/V.
    ut_inv: Interval,
    /// Threshold box (NMOS-prototype sign) with the mismatch spread, V.
    vt: Interval,
    /// Specific-current box with the mismatch spread, A.
    is: Interval,
    /// Subthreshold slope factor `n`.
    n: f64,
    /// `1/n`.
    inv_n: f64,
    /// Channel-length-modulation coefficient, 1/V.
    lambda: f64,
}

/// The channel quantities [`MosEnvelope::drain_current`] computes and
/// [`MosEnvelope::operating_point`] builds on.
struct Channel {
    xf: Interval,
    xr: Interval,
    i_f: Interval,
    i_r: Interval,
    i_norm: Interval,
    vds_n: Interval,
    clm: Interval,
}

impl MosEnvelope {
    /// Reflects a PMOS terminal box onto the NMOS prototype.
    fn reflect(&self, v: Interval) -> Interval {
        match self.polarity {
            Polarity::Nmos => v,
            Polarity::Pmos => -v,
        }
    }

    /// The current-only kernel: pinch-off voltage, forward/reverse EKV
    /// components and their normalised difference, and the CLM factor.
    fn channel(&self, vg: Interval, vs: Interval, vd: Interval) -> Channel {
        let (vg_n, vs_n, vd_n) = (self.reflect(vg), self.reflect(vs), self.reflect(vd));
        let vp = (vg_n - self.vt).scale(self.inv_n);
        let xf = (vp - vs_n) * self.ut_inv;
        let xr = (vp - vd_n) * self.ut_inv;
        let i_f = interp_iv(xf);
        let i_r = interp_iv(xr);
        let vds_n = vd_n - vs_n;
        // Direct difference of the two EKV components — and its
        // mean-value correlation: for every die,
        // `F(xf) − F(xr) = F'(ξ)·(xf − xr)` with `ξ ∈ hull(xf, xr)`
        // and `xf − xr = VDS/UT` *exactly* — the pinch-off voltage
        // (and with it the threshold and its mismatch spread) cancels
        // in the difference. The direct form wins when one component
        // dominates; the correlated form tames the dependency blow-up
        // when both are deep in injection. Both enclose every die's
        // value, so their intersection is a sound (and tighter)
        // envelope.
        let i_direct = i_f - i_r;
        let slope = interp_deriv_iv(xf.hull(xr));
        let dx = vds_n * self.ut_inv;
        let i_norm = i_direct.intersect(slope * dx).unwrap_or(i_direct);
        let clm = Interval::point(1.0) + vds_n.max_with(0.0).scale(self.lambda);
        Channel {
            xf,
            xr,
            i_f,
            i_r,
            i_norm,
            vds_n,
            clm,
        }
    }

    /// Drain-current envelope over terminal-voltage boxes (physical
    /// node voltages referred to the bulk, exactly like
    /// [`Mosfet::operating_point`]), A, with the sign convention of
    /// [`MosOpIv::id`].
    ///
    /// The envelope follows the point model term by term: PMOS
    /// reflection, pinch-off voltage, forward/reverse EKV components,
    /// and channel-length modulation on the forward direction. It
    /// evaluates no conductance, so a KCL sum that reads only the
    /// current pays for the current alone.
    pub fn drain_current(&self, vg: Interval, vs: Interval, vd: Interval) -> Interval {
        let ch = self.channel(vg, vs, vd);
        self.is * ch.i_norm * ch.clm
    }

    /// Interval operating point over terminal-voltage boxes, refined by
    /// a sound bound on the drain current (same sign convention as
    /// [`MosOpIv::id`]) valid for every die at the point being
    /// certified — typically derived from interval KCL at the device's
    /// drain or source node. The whole real line is a vacuous bound.
    ///
    /// The bound breaks the exponential dependency blow-up: per die,
    /// `I_D = I_S·clm·(i_f − i_r)` ties the forward component to the
    /// current, and `F' = ratio·F` ([`interp_ratio_iv`]) then ties the
    /// transconductances to the current too:
    /// `I_S·clm·F'(x_f)/U_T ∈ ratio(x_f)·(I_D + I_S·clm·i_r)/U_T`.
    /// Each refined quantity is intersected with its box-evaluated
    /// envelope, so the result is never wider than the unrefined one.
    pub fn operating_point(
        &self,
        vg: Interval,
        vs: Interval,
        vd: Interval,
        id_bound: Interval,
    ) -> MosOpIv {
        let Channel {
            xf,
            xr,
            mut i_f,
            mut i_r,
            mut i_norm,
            vds_n,
            clm,
        } = self.channel(vg, vs, vd);
        let mut df = interp_deriv_iv(xf);
        let mut dr = interp_deriv_iv(xr);
        let is = self.is;
        let g_scale = is * self.ut_inv;
        // [`MosOpIv::diode_floor`], from the unrefined forward slope and
        // the reverse slope at the gate-correlated argument.
        let diode_floor = {
            let (vg_n, vs_n) = (self.reflect(vg), self.reflect(vs));
            let xr = (vg_n.scale(1.0 - self.n) - self.vt).scale(self.inv_n) * self.ut_inv;
            let dr = interp_deriv_iv(xr);
            let clm = Interval::point(1.0) + (vg_n - vs_n).max_with(0.0).scale(self.lambda);
            let total = g_scale * clm * (df.scale(self.inv_n) + dr.scale((self.n - 1.0) / self.n));
            total.lo().max(0.0)
        };

        // Per die, `I_D = I_S·clm·i_norm` with `I_S·clm > 0`, so a
        // current bound is an `i_norm` bound; `i_f = i_norm + i_r` then
        // propagates it into the components and, through `F'(F⁻¹(·))`,
        // into the slopes. Every step intersects, so a vacuous bound
        // keeps the plain envelope.
        if let Some(r) = id_bound.checked_div(is * clm) {
            i_norm = i_norm.intersect(r).unwrap_or(i_norm);
        }
        i_f = i_f.intersect(i_norm + i_r).unwrap_or(i_f);
        i_r = i_r.intersect(i_f - i_norm).unwrap_or(i_r);
        df = df.intersect(deriv_from_component(i_f)).unwrap_or(df);
        dr = dr.intersect(deriv_from_component(i_r)).unwrap_or(dr);

        let di_dvg = (df - dr).scale(self.inv_n);
        let di_dvs = -df;
        let di_dvd = dr;
        let id = is * i_norm * clm;
        let gm = g_scale * di_dvg * clm;
        let gms = g_scale * di_dvs * clm;
        // The CLM contribution to gds exists only where vds_n > 0; when
        // the box straddles zero, hull with the zero contribution.
        let clm_extra = is * i_norm.scale(self.lambda);
        let extra = if vds_n.hi() <= 0.0 {
            Interval::ZERO
        } else if vds_n.lo() > 0.0 {
            clm_extra
        } else {
            clm_extra.hull(Interval::ZERO)
        };
        let gds = g_scale * di_dvd * clm + extra;

        // Ratio-form transconductances: per die
        // `I_S·clm·F'(x_f)/U_T = ratio(x_f)·I_S·clm·F(x_f)/U_T` and
        // `I_S·clm·F(x_f) = I_D + I_S·clm·i_r` *exactly*, so the `g`
        // envelopes inherit the current bound with the specific current
        // still correlated to the current — the product `g_scale·df`
        // loses that correlation.
        let rf = interp_ratio_iv(xf);
        let rr = interp_ratio_iv(xr);
        let isr = is * clm * i_r;
        let a = (rf * (id_bound + isr)) * self.ut_inv;
        let b = (rr * isr) * self.ut_inv;
        MosOpIv {
            id,
            gm: gm.intersect((a - b).scale(self.inv_n)).unwrap_or(gm),
            gms: gms.intersect(-a).unwrap_or(gms),
            gds: gds.intersect(b + extra).unwrap_or(gds),
            xf,
            diode_floor,
        }
    }
}

impl PmosLoad {
    /// Interval twin of [`PmosLoad::current`] over a voltage-drop box,
    /// A. Monotone in `v` for a positive calibration current.
    pub fn current_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        slacked(v.monotone(|x| self.current(x, iss)))
    }

    /// Interval twin of [`PmosLoad::conductance`] over a voltage-drop
    /// box, S. The `sech²` shape is even and falls with `|v|`, so the
    /// envelope is `[g(max|v|), g(min|v|)]`.
    pub fn conductance_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        slacked(v.abs().antitone(|a| self.conductance(a, iss))).max_with(0.0)
    }

    /// Chord (secant-through-origin) conductance envelope
    /// `I(v)/v` over a voltage-drop box, S.
    ///
    /// For any drop `v` in the box the load current satisfies
    /// `I(v) = g_chord(v)·v` with `g_chord(v)` inside this envelope —
    /// the decomposition the certifier's abstract MNA stamping uses to
    /// keep the load *linear* in the unknown vector. Like the
    /// small-signal conductance, the chord is even in `v`, maximal at
    /// the origin (where it equals `conductance(0)`), and falls with
    /// `|v|`.
    pub fn chord_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        let chord = |a: f64| {
            // tanh(x)/x → 1 as x → 0; switch to the small-signal value
            // below the square-root-of-epsilon knee where the ratio is
            // 1 to double precision.
            if a < 1e-8 * self.vsw {
                self.conductance(0.0, iss)
            } else {
                self.current(a, iss) / a
            }
        };
        slacked(v.abs().antitone(chord)).max_with(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::MismatchRng;

    fn tech() -> Technology {
        Technology::default()
    }

    /// Deterministic sampler over the box for containment checks.
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
        fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next_f64() * (hi - lo)
        }
    }

    /// The bound that constrains nothing.
    fn vacuous() -> Interval {
        Interval::new(f64::NEG_INFINITY, f64::INFINITY)
    }

    #[test]
    fn point_analytics_lie_inside_their_envelopes() {
        let tech = tech();
        let pvt = PvtBox::qualification();
        let base = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let m = base.model(&tech);
        let sv = MismatchRng::sigma_delta_vt(m, base.w, base.l);
        let sb = MismatchRng::sigma_delta_beta(m, base.w, base.l);
        let mut rng = Rng(3);
        let iss = 1e-9;
        for _ in 0..300 {
            let t = rng.in_range(pvt.t_lo, pvt.t_hi);
            let dv = rng.in_range(-pvt.k_sigma * sv, pvt.k_sigma * sv);
            let db = rng.in_range(-pvt.k_sigma * sb, pvt.k_sigma * sb);
            let die = Mosfet::with_mismatch(base.polarity, base.w, base.l, dv, db);
            let at_t = tech.at_temperature(t);

            assert!(die
                .specific_current_iv(&tech, &pvt)
                .contains(die.specific_current(&at_t)));
            assert!(die
                .inversion_coefficient_iv(&tech, &pvt, iss)
                .contains(die.inversion_coefficient(&at_t, iss)));
            assert!(die
                .vds_sat_weak_iv(&tech, &pvt)
                .contains(die.vds_sat_weak(&at_t)));
            assert!(die
                .vgs_for_current_iv(&tech, &pvt, iss)
                .contains(die.vgs_for_current(&at_t, iss)));
            assert!(die
                .min_supply_iv(&tech, &pvt, iss, 0.2)
                .contains(die.min_supply(&at_t, iss, 0.2)));
        }
    }

    #[test]
    fn operating_point_envelope_contains_point_evaluations() {
        let tech = tech();
        let pvt = PvtBox::qualification();
        let base = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let m = base.model(&tech);
        let sv = MismatchRng::sigma_delta_vt(m, base.w, base.l);
        let sb = MismatchRng::sigma_delta_beta(m, base.w, base.l);
        let vg = Interval::new(0.4, 0.7);
        let vs = Interval::new(0.0, 0.3);
        let vd = Interval::new(0.2, 1.0);
        let env = base.envelope(&tech, &pvt).unwrap();
        let id = env.drain_current(vg, vs, vd);
        let iv = env.operating_point(vg, vs, vd, vacuous());
        let mut rng = Rng(11);
        for _ in 0..500 {
            let t = rng.in_range(pvt.t_lo, pvt.t_hi);
            let die = Mosfet::with_mismatch(
                base.polarity,
                base.w,
                base.l,
                rng.in_range(-pvt.k_sigma * sv, pvt.k_sigma * sv),
                rng.in_range(-pvt.k_sigma * sb, pvt.k_sigma * sb),
            );
            let at_t = tech.at_temperature(t);
            let op = die.operating_point(
                &at_t,
                rng.in_range(vg.lo(), vg.hi()),
                rng.in_range(vs.lo(), vs.hi()),
                rng.in_range(vd.lo(), vd.hi()),
            );
            assert!(id.contains(op.id), "{:?} vs {:?}", op.id, id);
            assert!(iv.id.contains(op.id), "{:?} vs {:?}", op.id, iv.id);
            assert!(iv.gm.contains(op.gm));
            assert!(iv.gms.contains(op.gms));
            assert!(iv.gds.contains(op.gds), "{:?} vs {:?}", op.gds, iv.gds);
        }
    }

    #[test]
    fn pmos_reflection_matches_point_model() {
        let tech = tech();
        let pvt = PvtBox::at_temperature(300.0);
        let p = Mosfet::new(Polarity::Pmos, 2e-6, 0.5e-6);
        // A PMOS load-style bias: source at VDD = 1 V.
        let op = p.operating_point(&tech, 0.4, 1.0, 0.8);
        let env = p.envelope(&tech, &pvt).unwrap();
        let (vg, vs, vd) = (
            Interval::point(0.4),
            Interval::point(1.0),
            Interval::point(0.8),
        );
        let iv = env.operating_point(vg, vs, vd, vacuous());
        assert!(env.drain_current(vg, vs, vd).contains(op.id));
        assert!(iv.id.contains(op.id));
        assert!(iv.gm.contains(op.gm));
        assert!(iv.gms.contains(op.gms));
        assert!(iv.gds.contains(op.gds));
        assert!(p
            .vgs_for_current_iv(&tech, &pvt, 1e-9)
            .contains(p.vgs_for_current(&tech, 1e-9)));
    }

    #[test]
    fn degenerate_box_collapses_to_point_values() {
        let tech = tech();
        let pvt = PvtBox::at_temperature(tech.temperature);
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let ic = m.inversion_coefficient_iv(&tech, &pvt, 1e-9);
        let point = m.inversion_coefficient(&tech, 1e-9);
        assert!(ic.contains(point));
        assert!(ic.width() < point * 1e-9, "near-point width: {ic:?}");
    }

    #[test]
    fn load_envelopes_contain_point_curves() {
        let load = PmosLoad::new(0.2);
        let iss = 1e-9;
        let v = Interval::new(-0.25, 0.25);
        let mut rng = Rng(23);
        for _ in 0..500 {
            let x = rng.in_range(v.lo(), v.hi());
            assert!(load.current_iv(v, iss).contains(load.current(x, iss)));
            assert!(load
                .conductance_iv(v, iss)
                .contains(load.conductance(x, iss)));
            let chord = if x.abs() < 1e-15 {
                load.conductance(0.0, iss)
            } else {
                load.current(x, iss) / x
            };
            assert!(load.chord_iv(v, iss).contains(chord));
        }
        // Chord at the origin equals the small-signal conductance.
        let origin = load.chord_iv(Interval::ZERO, iss);
        assert!(origin.contains(load.conductance(0.0, iss)));
    }

    #[test]
    fn qualification_box_brackets_corner_cards() {
        // The envelope over the qualification box must enclose the
        // point analytics at every discrete corner card temperature.
        let tech = tech();
        let pvt = PvtBox::qualification();
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        for t in [233.15, 300.15, 358.15] {
            let at_t = tech.at_temperature(t);
            assert!(m
                .min_supply_iv(&tech, &pvt, 1e-9, 0.2)
                .contains(m.min_supply(&at_t, 1e-9, 0.2)));
        }
    }

    /// Reference channel evaluation with nothing hoisted: every
    /// voltage-independent interval (`U_T`, `V_T`, `I_S`) derived from
    /// the card and the box on each call. Returns `[id, gm, gms, gds]`;
    /// `None` skips the current-bound refinement.
    fn op_iv_impl(
        dev: &Mosfet,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
        vd: Interval,
        id_bound: Option<Interval>,
    ) -> [Interval; 4] {
        let m = dev.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = dev.threshold_iv(tech, pvt);
        let (vg_n, vs_n, vd_n) = match dev.polarity {
            Polarity::Nmos => (vg, vs, vd),
            Polarity::Pmos => (-vg, -vs, -vd),
        };
        let vp = (vg_n - vt).scale(1.0 / m.n);
        let xf = (vp - vs_n).checked_div(ut).unwrap();
        let xr = (vp - vd_n).checked_div(ut).unwrap();
        let mut i_f = interp_iv(xf);
        let mut i_r = interp_iv(xr);
        let mut df = interp_deriv_iv(xf);
        let mut dr = interp_deriv_iv(xr);
        let vds_n = vd_n - vs_n;
        let i_direct = i_f - i_r;
        let slope = interp_deriv_iv(xf.hull(xr));
        let dx = vds_n.checked_div(ut).unwrap();
        let mut i_norm = i_direct.intersect(slope * dx).unwrap_or(i_direct);

        let is = dev.specific_current_iv(tech, pvt);
        let lam = dev.lambda(tech);
        let clm = Interval::point(1.0) + vds_n.max_with(0.0).scale(lam);

        if let Some(idb) = id_bound {
            if let Some(r) = idb.checked_div(is * clm) {
                i_norm = i_norm.intersect(r).unwrap_or(i_norm);
            }
            i_f = i_f.intersect(i_norm + i_r).unwrap_or(i_f);
            i_r = i_r.intersect(i_f - i_norm).unwrap_or(i_r);
            df = df.intersect(deriv_from_component(i_f)).unwrap_or(df);
            dr = dr.intersect(deriv_from_component(i_r)).unwrap_or(dr);
        }

        let di_dvg = (df - dr).scale(1.0 / m.n);
        let di_dvs = -df;
        let di_dvd = dr;
        let id = is * i_norm * clm;
        let g_scale = is.checked_div(ut).unwrap();
        let mut gm = g_scale * di_dvg * clm;
        let mut gms = g_scale * di_dvs * clm;
        let clm_extra = is * i_norm.scale(lam);
        let extra = if vds_n.hi() <= 0.0 {
            Interval::ZERO
        } else if vds_n.lo() > 0.0 {
            clm_extra
        } else {
            clm_extra.hull(Interval::ZERO)
        };
        let mut gds = g_scale * di_dvd * clm + extra;

        if let Some(idb) = id_bound {
            let rf = interp_ratio_iv(xf);
            let rr = interp_ratio_iv(xr);
            let isr = is * clm * i_r;
            let a = (rf * (idb + isr)).checked_div(ut).unwrap();
            let b = (rr * isr).checked_div(ut).unwrap();
            gms = gms.intersect(-a).unwrap_or(gms);
            gds = gds.intersect(b + extra).unwrap_or(gds);
            gm = gm.intersect((a - b).scale(1.0 / m.n)).unwrap_or(gm);
        }
        [id, gm, gms, gds]
    }

    /// Reference forward-injection argument `(V_P − V_S)/U_T`, per call.
    fn forward_injection_iv(
        dev: &Mosfet,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
    ) -> Interval {
        let m = dev.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = dev.threshold_iv(tech, pvt);
        let (vg_n, vs_n) = match dev.polarity {
            Polarity::Nmos => (vg, vs),
            Polarity::Pmos => (-vg, -vs),
        };
        ((vg_n - vt).scale(1.0 / m.n) - vs_n)
            .checked_div(ut)
            .unwrap()
    }

    /// Reference diode-connected conductance floor, per call.
    fn diode_conductance_floor(
        dev: &Mosfet,
        tech: &Technology,
        pvt: &PvtBox,
        v: Interval,
        vs: Interval,
    ) -> f64 {
        let m = dev.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = dev.threshold_iv(tech, pvt);
        let (v_n, vs_n) = match dev.polarity {
            Polarity::Nmos => (v, vs),
            Polarity::Pmos => (-v, -vs),
        };
        let vp = (v_n - vt).scale(1.0 / m.n);
        let xf = (vp - vs_n).checked_div(ut).unwrap();
        let xr = (v_n.scale(1.0 - m.n) - vt)
            .scale(1.0 / m.n)
            .checked_div(ut)
            .unwrap();
        let df = interp_deriv_iv(xf);
        let dr = interp_deriv_iv(xr);
        let clm = Interval::point(1.0) + (v_n - vs_n).max_with(0.0).scale(dev.lambda(tech));
        let g_scale = dev.specific_current_iv(tech, pvt).checked_div(ut).unwrap();
        let total = g_scale * clm * (df.scale(1.0 / m.n) + dr.scale((m.n - 1.0) / m.n));
        total.lo().max(0.0)
    }

    fn iv_bits(ivs: &[Interval]) -> Vec<(u64, u64)> {
        ivs.iter()
            .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
            .collect()
    }

    #[test]
    fn hoisted_envelope_evaluates_bit_for_bit() {
        let devices = [
            Mosfet::with_mismatch(Polarity::Nmos, 1e-6, 0.5e-6, 0.004, -0.012),
            Mosfet::with_mismatch(Polarity::Pmos, 2e-6, 0.5e-6, -0.006, 0.015),
        ];
        // The full qualification box, a degenerate one, and the fourth
        // of eight temperature slices of the qualification box (the
        // certifier's temperature case split).
        let q = PvtBox::qualification();
        let width = (q.t_hi - q.t_lo) / 8.0;
        let slice_lo = q.t_lo + width * 3.0;
        let slice = PvtBox {
            t_lo: slice_lo,
            t_hi: (slice_lo + width).min(q.t_hi),
            ..q
        };
        let boxes = [q, PvtBox::at_temperature(300.0), slice];
        // Terminal boxes: a point, a narrow box, a drain box
        // straddling the source box (VDS of both signs) and ±3 V.
        let mut rng = Rng(41);
        let mut terminals = Vec::new();
        for _ in 0..12 {
            let c = [0; 3].map(|_| rng.in_range(-1.2, 1.2));
            terminals.push(c.map(Interval::point));
            terminals.push(c.map(|v| Interval::new(v - 5e-3, v + 5e-3)));
            let vs = Interval::new(c[1] - 0.05, c[1] + 0.05);
            let vd = Interval::new(c[1] - 0.1, c[1] + 0.1);
            terminals.push([Interval::new(c[0] - 0.02, c[0] + 0.02), vs, vd]);
        }
        terminals.push([Interval::new(-3.0, 3.0); 3]);
        for tech in [tech(), tech().at_corner(crate::pvt::Corner::SlowFast)] {
            for pvt in &boxes {
                for dev in &devices {
                    let env = dev.envelope(&tech, pvt).unwrap();
                    for &[vg, vs, vd] in &terminals {
                        let ctx = format!("{:?} {pvt:?} at ({vg:?}, {vs:?}, {vd:?})", dev.polarity);
                        let id = env.drain_current(vg, vs, vd);
                        let unbounded = op_iv_impl(dev, &tech, pvt, vg, vs, vd, None);
                        assert_eq!(iv_bits(&[id]), iv_bits(&unbounded[..1]), "{ctx}");
                        let mid = id.mid();
                        let tight = Interval::new(mid - 0.05 * id.width(), mid + 0.05 * id.width());
                        for bound in [vacuous(), tight] {
                            let op = env.operating_point(vg, vs, vd, bound);
                            let reference = op_iv_impl(dev, &tech, pvt, vg, vs, vd, Some(bound));
                            assert_eq!(
                                iv_bits(&[op.id, op.gm, op.gms, op.gds]),
                                iv_bits(&reference),
                                "{ctx} bound {bound:?}"
                            );
                            assert_eq!(
                                iv_bits(&[op.xf]),
                                iv_bits(&[forward_injection_iv(dev, &tech, pvt, vg, vs)]),
                                "{ctx}"
                            );
                            assert_eq!(
                                op.diode_floor.to_bits(),
                                diode_conductance_floor(dev, &tech, pvt, vg, vs).to_bits(),
                                "{ctx}"
                            );
                        }
                    }
                }
            }
        }
    }
}
