//! Sized MOS device instances.
//!
//! A [`Mosfet`] binds polarity, geometry and per-instance mismatch to the
//! EKV channel model of [`crate::ekv`], and evaluates ampere-level
//! currents and siemens-level conductances at arbitrary terminal
//! voltages. The PMOS case is handled by the usual sign reflection: a
//! PMOS at `(vg, vs, vd)` referred to its n-well behaves as the NMOS
//! model at the negated voltages, with the current flowing source→drain.

use crate::ekv;
use crate::tech::{MosModel, Technology};
use std::fmt;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device (bulk at the most negative rail).
    Nmos,
    /// P-channel device (n-well bulk, typically at the most positive
    /// rail — or shorted to drain in the STSCL load).
    Pmos,
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Nmos => write!(f, "nmos"),
            Polarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// One of the four MOS terminals, in netlist argument order
/// (`d, g, s, b`).
///
/// Static-analysis tooling (the electrical rule checker in `ulp-spice`)
/// uses this metadata to name terminals in diagnostics (`M1.g`) and to
/// reason about which terminals can carry DC current: only the channel
/// (drain–source) conducts; gate and bulk are sense terminals in this
/// model, which is why a net driven only by gates has no defined DC
/// voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosTerminal {
    /// Drain (channel terminal).
    Drain,
    /// Gate (sense terminal: carries no DC current).
    Gate,
    /// Source (channel terminal).
    Source,
    /// Bulk/well (sense terminal in this model: junction leakage is not
    /// modelled).
    Bulk,
}

impl MosTerminal {
    /// All four terminals in netlist argument order.
    pub const ALL: [MosTerminal; 4] = [
        MosTerminal::Drain,
        MosTerminal::Gate,
        MosTerminal::Source,
        MosTerminal::Bulk,
    ];

    /// Conventional one-letter SPICE suffix (`d`, `g`, `s`, `b`).
    pub fn suffix(self) -> &'static str {
        match self {
            MosTerminal::Drain => "d",
            MosTerminal::Gate => "g",
            MosTerminal::Source => "s",
            MosTerminal::Bulk => "b",
        }
    }

    /// Full English name, for prose diagnostics ("drain of `M1`").
    pub fn word(self) -> &'static str {
        match self {
            MosTerminal::Drain => "drain",
            MosTerminal::Gate => "gate",
            MosTerminal::Source => "source",
            MosTerminal::Bulk => "bulk",
        }
    }

    /// True when DC current can flow through this terminal (the channel
    /// terminals; gate and bulk only sense voltage in this model).
    pub fn conducts(self) -> bool {
        matches!(self, MosTerminal::Drain | MosTerminal::Source)
    }
}

impl fmt::Display for MosTerminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A sized MOS transistor instance.
///
/// Terminal voltage convention throughout: **volts referred to the
/// device's own bulk terminal**, with drain current defined positive
/// flowing *into* the drain for NMOS and *out of* the drain for PMOS
/// ([`Mosfet::ids`] always returns a positive number for normal forward
/// operation of either polarity).
///
/// # Example
///
/// ```
/// use ulp_device::{Mosfet, Polarity, Technology};
///
/// let tech = Technology::default();
/// // A 1 µm / 1 µm NMOS biased ~150 mV below threshold conducts nA-class
/// // current — the STSCL operating regime.
/// let m = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
/// let id = m.ids(&tech, 0.30, 0.0, 0.5);
/// assert!(id > 1e-10 && id < 1e-7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Device polarity.
    pub polarity: Polarity,
    /// Drawn channel width, m.
    pub w: f64,
    /// Drawn channel length, m.
    pub l: f64,
    /// Per-instance threshold shift from mismatch, V (0 for a nominal
    /// device).
    pub delta_vt: f64,
    /// Per-instance relative current-factor error from mismatch
    /// (0 for a nominal device).
    pub delta_beta: f64,
}

/// Full DC operating point of a device: current plus the three terminal
/// conductances needed to stamp the linearised device into an MNA
/// matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOperatingPoint {
    /// Drain current magnitude, A (positive in normal forward
    /// operation).
    pub id: f64,
    /// Gate transconductance `∂ID/∂VG`, S (sign follows the NMOS
    /// convention after polarity reflection).
    pub gm: f64,
    /// Source transconductance `∂ID/∂VS`, S.
    pub gms: f64,
    /// Drain (output) conductance `∂ID/∂VD`, S.
    pub gds: f64,
    /// Forward inversion coefficient (≪1 means weak inversion).
    pub inversion: f64,
    /// True when the channel is saturated (reverse component < 1 % of
    /// forward).
    pub saturated: bool,
}

/// The bias-independent constants of one device at one technology
/// card: everything [`Mosfet::operating_point`] derives before it looks
/// at the terminal voltages. A simulator builds one per device when it
/// plans a netlist ([`Mosfet::params`]) and evaluates it at every
/// iterate with [`MosParams::operating_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    polarity: Polarity,
    /// Threshold voltage magnitude including mismatch, V.
    vt: f64,
    /// Subthreshold slope factor.
    n: f64,
    /// Thermal voltage `UT`, V.
    ut: f64,
    /// Specific current `IS`, A.
    is: f64,
    /// Channel-length-modulation coefficient, 1/V.
    lambda: f64,
    /// `IS/UT`, S: scales the normalised derivatives to siemens.
    g_scale: f64,
}

impl MosParams {
    /// Device polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// Full operating point at terminal voltages (V, referred to the
    /// device's bulk); see [`Mosfet::operating_point`].
    pub fn operating_point(&self, vg: f64, vs: f64, vd: f64) -> MosOperatingPoint {
        // Reflect PMOS onto the NMOS prototype.
        let (vg_n, vs_n, vd_n) = match self.polarity {
            Polarity::Nmos => (vg, vs, vd),
            Polarity::Pmos => (-vg, -vs, -vd),
        };
        let eval = ekv::channel(vg_n, vs_n, vd_n, self.vt, self.n, self.ut);
        // Channel-length modulation applied in saturation only, on the
        // forward magnitude.
        let vds_n = vd_n - vs_n;
        let clm = 1.0 + self.lambda * vds_n.max(0.0);
        let id = self.is * eval.i_norm * clm;
        let gm = self.g_scale * eval.di_dvg * clm;
        let gms = self.g_scale * eval.di_dvs * clm;
        // gds picks up the CLM term as well.
        let gds = self.g_scale * eval.di_dvd * clm
            + if vds_n > 0.0 {
                self.is * eval.i_norm * self.lambda
            } else {
                0.0
            };
        MosOperatingPoint {
            id,
            gm,
            gms,
            gds,
            inversion: eval.i_f,
            saturated: ekv::is_saturated(&eval, 0.01),
        }
    }
}

impl Mosfet {
    /// Creates a nominal (mismatch-free) device.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are strictly positive.
    pub fn new(polarity: Polarity, w: f64, l: f64) -> Self {
        assert!(w > 0.0 && l > 0.0, "device dimensions must be positive");
        Mosfet {
            polarity,
            w,
            l,
            delta_vt: 0.0,
            delta_beta: 0.0,
        }
    }

    /// Creates a device with explicit mismatch deviations (see
    /// [`crate::mismatch`] for Pelgrom-distributed draws).
    pub fn with_mismatch(polarity: Polarity, w: f64, l: f64, delta_vt: f64, delta_beta: f64) -> Self {
        let mut m = Mosfet::new(polarity, w, l);
        m.delta_vt = delta_vt;
        m.delta_beta = delta_beta;
        m
    }

    /// The model card of this device's polarity in `tech`.
    pub fn model<'a>(&self, tech: &'a Technology) -> &'a MosModel {
        match self.polarity {
            Polarity::Nmos => &tech.nmos,
            Polarity::Pmos => &tech.pmos,
        }
    }

    /// Specific current `IS = 2·n·µCox·(W/L)·UT²` of this instance, A.
    pub fn specific_current(&self, tech: &Technology) -> f64 {
        let m = self.model(tech);
        m.specific_current(tech.temperature) * (self.w / self.l) * (1.0 + self.delta_beta)
    }

    /// Effective channel-length-modulation coefficient, 1/V.
    pub fn lambda(&self, tech: &Technology) -> f64 {
        self.model(tech).lambda_per_um * 1e-6 / self.l
    }

    /// Gate capacitance `Cox·W·L`, F.
    pub fn cgg(&self, tech: &Technology) -> f64 {
        self.model(tech).cox * self.w * self.l
    }

    /// Drain junction capacitance estimate (`cj · W · 2L_min` diffusion
    /// area), F.
    pub fn cdb(&self, tech: &Technology) -> f64 {
        self.model(tech).cj * self.w * 2.0 * tech.l_min
    }

    /// The bias-independent constants of this device at `tech`.
    pub fn params(&self, tech: &Technology) -> MosParams {
        let m = self.model(tech);
        let ut = tech.thermal_voltage();
        let is = self.specific_current(tech);
        MosParams {
            polarity: self.polarity,
            vt: m.vt_at(tech.temperature) + self.delta_vt,
            n: m.n,
            ut,
            is,
            lambda: self.lambda(tech),
            g_scale: is / ut,
        }
    }

    /// Full operating point at terminal voltages (V, referred to this
    /// device's bulk).
    ///
    /// For PMOS the arguments are still the physical node voltages
    /// referred to the n-well; the reflection to the NMOS prototype is
    /// internal.
    pub fn operating_point(&self, tech: &Technology, vg: f64, vs: f64, vd: f64) -> MosOperatingPoint {
        self.params(tech).operating_point(vg, vs, vd)
    }

    /// Drain current magnitude at the given terminal voltages, A.
    ///
    /// Positive for normal forward operation of either polarity (NMOS:
    /// `vd ≥ vs`; PMOS: `vd ≤ vs`).
    pub fn ids(&self, tech: &Technology, vg: f64, vs: f64, vd: f64) -> f64 {
        self.operating_point(tech, vg, vs, vd).id
    }

    /// The gate-source voltage that makes the *saturated* device carry
    /// `id` amperes (source at `vs`, drain far in saturation), found by
    /// inverting the EKV interpolation function. For PMOS the returned
    /// value is negative (gate below source).
    ///
    /// This is the replica-bias calculation: given a target tail current,
    /// what gate bias must the current mirror deliver?
    ///
    /// # Panics
    ///
    /// Panics unless `id` is strictly positive.
    pub fn vgs_for_current(&self, tech: &Technology, id: f64) -> f64 {
        assert!(id > 0.0, "target current must be positive");
        let m = self.model(tech);
        let ut = tech.thermal_voltage();
        let vt = m.vt_at(tech.temperature) + self.delta_vt;
        let i_f = id / self.specific_current(tech);
        let x = ekv::interp_inverse(i_f); // (VP − VS)/UT with VS = source
        let vgs = m.n * (x * ut) + vt;
        match self.polarity {
            Polarity::Nmos => vgs,
            Polarity::Pmos => -vgs,
        }
    }

    /// Weak-inversion transconductance estimate `gm = ID/(n·UT)`, S.
    pub fn gm_weak_inversion(&self, tech: &Technology, id: f64) -> f64 {
        id / (self.model(tech).n * tech.thermal_voltage())
    }

    /// Inversion coefficient `IC = ID/IS` at drain current `id` — the
    /// EKV region-of-operation figure of merit. `IC ≪ 1` is weak
    /// inversion (the STSCL regime), `IC ≈ 1` moderate, `IC ≫ 1` strong.
    ///
    /// This is the *bias-driven* form used by static lints: it asks what
    /// region a device would sit in if forced to carry `id`, without
    /// needing solved terminal voltages. For the voltage-driven form see
    /// [`MosOperatingPoint::inversion`].
    pub fn inversion_coefficient(&self, tech: &Technology, id: f64) -> f64 {
        id / self.specific_current(tech)
    }

    /// Saturation drain–source voltage in weak inversion, `≈ 4·UT`
    /// (the channel's reverse component decays as `exp(−VDS/UT)`; at
    /// 4 UT it is below 2 % of the forward component).
    pub fn vds_sat_weak(&self, tech: &Technology) -> f64 {
        4.0 * tech.thermal_voltage()
    }

    /// Minimum STSCL supply able to keep this switching-pair device and
    /// an ideal tail in saturation while the load develops a swing of
    /// `vsw` at tail current `iss`:
    ///
    /// `VDD_min = VSW + VGS(ISS) + VDS,sat(weak)`
    ///
    /// Worst case is the input driven low (previous stage's output at
    /// `VDD − VSW`): the common-source node then sits at
    /// `VDD − VSW − VGS(ISS)` and must still leave `≈ 4·UT` across the
    /// tail current source. The paper's VDD = 1.0 V operating point
    /// satisfies this with ~200 mV margin at nominal conditions.
    pub fn min_supply(&self, tech: &Technology, iss: f64, vsw: f64) -> f64 {
        vsw + self.vgs_for_current(tech, iss).abs() + self.vds_sat_weak(tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::default()
    }

    #[test]
    fn nmos_forward_current_positive() {
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let id = m.ids(&tech(), 0.3, 0.0, 0.5);
        assert!(id > 0.0);
    }

    #[test]
    fn pmos_mirror_of_nmos() {
        // A PMOS with source at VDD and gate pulled below it conducts like
        // the reflected NMOS.
        let t = tech();
        let p = Mosfet::new(Polarity::Pmos, 1e-6, 1e-6);
        let id = p.ids(&t, -0.30, 0.0, -0.5); // vg 0.3 below source (=well)
        assert!(id > 0.0, "PMOS forward current should be positive: {id}");
    }

    #[test]
    fn subthreshold_exponential_slope() {
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let swing = crate::ekv::subthreshold_swing(t.nmos.n, t.thermal_voltage());
        let id1 = m.ids(&t, 0.12, 0.0, 0.4);
        let id2 = m.ids(&t, 0.12 + swing, 0.0, 0.4);
        assert!((id2 / id1 - 10.0).abs() < 0.2, "one swing = one decade: {}", id2 / id1);
    }

    #[test]
    fn current_scales_with_geometry() {
        let t = tech();
        let narrow = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let wide = Mosfet::new(Polarity::Nmos, 4e-6, 1e-6);
        let r = wide.ids(&t, 0.3, 0.0, 0.5) / narrow.ids(&t, 0.3, 0.0, 0.5);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mismatch_shifts_current() {
        let t = tech();
        let nom = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let slow = Mosfet::with_mismatch(Polarity::Nmos, 1e-6, 1e-6, 0.010, 0.0);
        assert!(slow.ids(&t, 0.3, 0.0, 0.5) < nom.ids(&t, 0.3, 0.0, 0.5));
        let strong = Mosfet::with_mismatch(Polarity::Nmos, 1e-6, 1e-6, 0.0, 0.05);
        let r = strong.ids(&t, 0.3, 0.0, 0.5) / nom.ids(&t, 0.3, 0.0, 0.5);
        assert!((r - 1.05).abs() < 1e-9);
    }

    #[test]
    fn vgs_for_current_roundtrip() {
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 2e-6, 1e-6);
        for target in [1e-12, 1e-10, 1e-9, 1e-8, 1e-6] {
            let vgs = m.vgs_for_current(&t, target);
            let id = m.ids(&t, vgs, 0.0, 0.8);
            // CLM adds a few percent; the inversion itself is exact.
            assert!((id / target - 1.0).abs() < 0.1, "target {target}: got {id}");
        }
    }

    #[test]
    fn pmos_vgs_is_negative() {
        let t = tech();
        let p = Mosfet::new(Polarity::Pmos, 2e-6, 1e-6);
        assert!(p.vgs_for_current(&t, 1e-9) < 0.0);
    }

    #[test]
    fn operating_point_conductances_positive_in_saturation() {
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let op = m.operating_point(&t, 0.35, 0.0, 0.6);
        assert!(op.gm > 0.0);
        assert!(op.gds > 0.0);
        assert!(op.gms < 0.0, "raising VS lowers ID");
        assert!(op.saturated);
        assert!(op.inversion < 1.0, "weak inversion expected");
    }

    #[test]
    fn gm_over_id_in_weak_inversion() {
        // gm/ID = 1/(n·UT) in weak inversion — the paper's scaling law
        // for analog bandwidth ∝ bias current.
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 10e-6, 1e-6);
        let op = m.operating_point(&t, 0.25, 0.0, 0.5);
        let gm_over_id = op.gm / op.id;
        let ideal = 1.0 / (t.nmos.n * t.thermal_voltage());
        assert!((gm_over_id / ideal - 1.0).abs() < 0.05, "gm/ID = {gm_over_id}, ideal {ideal}");
    }

    #[test]
    fn weak_inversion_gm_estimate_close_to_model() {
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 10e-6, 1e-6);
        let op = m.operating_point(&t, 0.25, 0.0, 0.5);
        let est = m.gm_weak_inversion(&t, op.id);
        assert!((est / op.gm - 1.0).abs() < 0.05);
    }

    #[test]
    fn capacitances_scale_with_area() {
        let t = tech();
        let m1 = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
        let m4 = Mosfet::new(Polarity::Nmos, 2e-6, 2e-6);
        assert!((m4.cgg(&t) / m1.cgg(&t) - 4.0).abs() < 1e-12);
        assert!(m4.cdb(&t) > m1.cdb(&t));
    }

    #[test]
    fn inversion_coefficient_tracks_bias() {
        let t = tech();
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let is = m.specific_current(&t);
        assert!((m.inversion_coefficient(&t, is) - 1.0).abs() < 1e-12);
        // nA-class STSCL bias sits deep in weak inversion.
        assert!(m.inversion_coefficient(&t, 1e-9) < 0.1);
    }

    #[test]
    fn min_supply_covers_the_paper_operating_point() {
        let t = tech();
        let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        // The paper's design point: 200 mV swing at nA tail currents
        // fits under VDD = 1.0 V with margin.
        let vdd_min = pair.min_supply(&t, 1e-9, 0.2);
        assert!(vdd_min < 1.0, "vdd_min = {vdd_min}");
        // More tail current needs more gate drive, so more supply.
        assert!(vdd_min > pair.min_supply(&t, 1e-10, 0.2));
        // And the floor always covers the swing itself.
        assert!(vdd_min > 0.2 + 4.0 * t.thermal_voltage());
    }

    /// Reference evaluation with nothing hoisted: every
    /// bias-independent term derived from the card on each call, and
    /// `F`, `F'` from the scalar EKV functions.
    fn per_call_operating_point(
        m: &Mosfet,
        tech: &Technology,
        vg: f64,
        vs: f64,
        vd: f64,
    ) -> MosOperatingPoint {
        let card = m.model(tech);
        let ut = tech.thermal_voltage();
        let vt = card.vt_at(tech.temperature) + m.delta_vt;
        let (vg_n, vs_n, vd_n) = match m.polarity {
            Polarity::Nmos => (vg, vs, vd),
            Polarity::Pmos => (-vg, -vs, -vd),
        };
        let vp = (vg_n - vt) / card.n;
        let (xf, xr) = ((vp - vs_n) / ut, (vp - vd_n) / ut);
        let (i_f, i_r) = (ekv::interp(xf), ekv::interp(xr));
        let (df, dr) = (ekv::interp_deriv(xf), ekv::interp_deriv(xr));
        let i_norm = i_f - i_r;
        let is = m.specific_current(tech);
        let vds_n = vd_n - vs_n;
        let lam = m.lambda(tech);
        let clm = 1.0 + lam * vds_n.max(0.0);
        let g_scale = is / ut;
        MosOperatingPoint {
            id: is * i_norm * clm,
            gm: g_scale * ((df - dr) / card.n) * clm,
            gms: g_scale * -df * clm,
            gds: g_scale * dr * clm + if vds_n > 0.0 { is * i_norm * lam } else { 0.0 },
            inversion: i_f,
            saturated: i_r < 0.01 * i_f,
        }
    }

    fn bits(op: &MosOperatingPoint) -> ([u64; 5], bool) {
        let f = [op.id, op.gm, op.gms, op.gds, op.inversion];
        (f.map(f64::to_bits), op.saturated)
    }

    #[test]
    fn hoisted_constants_evaluate_bit_for_bit() {
        let devices = [
            Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6),
            Mosfet::with_mismatch(Polarity::Nmos, 2e-6, 1e-6, 0.012, -0.03),
            Mosfet::with_mismatch(Polarity::Pmos, 1.5e-6, 0.5e-6, -0.008, 0.02),
        ];
        let volts = [-0.9, -0.45, -0.2, -0.05, 0.0, 0.05, 0.2, 0.45, 0.9];
        for t in [300.0, 400.0] {
            let card = tech().at_temperature(t);
            for m in &devices {
                let params = m.params(&card);
                for vg in volts {
                    for vs in volts {
                        for vd in volts {
                            let hoisted = bits(&params.operating_point(vg, vs, vd));
                            let ctx = format!("{:?} at {t} K, ({vg}, {vs}, {vd})", m.polarity);
                            assert_eq!(
                                hoisted,
                                bits(&m.operating_point(&card, vg, vs, vd)),
                                "{ctx}"
                            );
                            let per_call = per_call_operating_point(m, &card, vg, vs, vd);
                            assert_eq!(hoisted, bits(&per_call), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = Mosfet::new(Polarity::Nmos, 0.0, 1e-6);
    }

    #[test]
    fn display_polarity() {
        assert_eq!(Polarity::Nmos.to_string(), "nmos");
        assert_eq!(Polarity::Pmos.to_string(), "pmos");
    }
}
