//! The bulk-drain-shorted PMOS load device of STSCL gates.
//!
//! Paper Fig. 2 (and ref \[9\]): at pA–nA tail currents an STSCL gate needs
//! load resistances of 10⁸–10¹¹ Ω to develop a few hundred millivolts of
//! swing — impossible with passive resistors. The paper's solution is a
//! minimum-size PMOS with its bulk (n-well) shorted to its drain, biased
//! by a replica-bias generator so that the full tail current `ISS`
//! develops exactly the target swing `VSW` across it.
//!
//! The replica loop makes the *large-signal* endpoints exact by
//! construction: `I(0) = 0` and `I(VSW) = ISS` regardless of process and
//! temperature — this is precisely why the paper calls the topology
//! PVT-insensitive. Between the endpoints the device I–V is a smooth
//! compressive curve which we model with a normalised `tanh` (the
//! measured curves of ref \[9\] show the same soft saturation). The
//! small-signal resistance at the origin is then
//! `R₀ = VSW/ISS · tanh(α)/α`.

use crate::tech::Technology;
use crate::Mosfet;

/// Shape parameter of the normalised load I–V; fitted to the soft
/// compression of the bulk-drain-shorted PMOS in ref \[9\].
const ALPHA: f64 = 1.2;

/// `tanh(ALPHA)`, the normaliser that puts `I(VSW) = ISS`, as a literal
/// so no evaluation calls `tanh` on a constant (pinned bit for bit to
/// `ALPHA.tanh()` by a unit test).
const TANH_ALPHA: f64 = 0.833_654_607_012_155_2;

/// A replica-biased bulk-drain-shorted PMOS load.
///
/// # Example
///
/// ```
/// use ulp_device::load::PmosLoad;
///
/// let load = PmosLoad::new(0.2); // 200 mV target swing
/// let iss = 1e-9;
/// // The replica bias guarantees the endpoint: full tail current at full
/// // swing.
/// assert!((load.current(0.2, iss) - iss).abs() < 1e-18);
/// // Effective resistance is in the hundred-MΩ class at 1 nA.
/// let r = load.resistance(iss);
/// assert!(r > 1e8 && r < 3e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmosLoad {
    /// Target output voltage swing `VSW`, V.
    pub vsw: f64,
}

impl PmosLoad {
    /// Terminal names in netlist argument order: supply side then output
    /// side. Used by static-analysis diagnostics (`RL.a`); both
    /// terminals conduct DC current (the load is a two-terminal
    /// resistance).
    pub const TERMINALS: [&'static str; 2] = ["a", "b"];

    /// Creates a load calibrated for swing `vsw` (V).
    ///
    /// # Panics
    ///
    /// Panics unless `vsw` is strictly positive.
    pub fn new(vsw: f64) -> Self {
        assert!(vsw > 0.0, "swing must be positive");
        PmosLoad { vsw }
    }

    /// Load current at voltage drop `v` across the device when the
    /// replica loop is calibrated for tail current `iss`, A.
    ///
    /// Odd-symmetric and monotone in `v`; equals `iss` exactly at
    /// `v = vsw`.
    pub fn current(&self, v: f64, iss: f64) -> f64 {
        iss * (ALPHA * v / self.vsw).tanh() / TANH_ALPHA
    }

    /// Small-signal conductance `dI/dV` at drop `v`, S.
    pub fn conductance(&self, v: f64, iss: f64) -> f64 {
        let x = ALPHA * v / self.vsw;
        let sech2 = 1.0 - x.tanh() * x.tanh();
        iss * ALPHA / (self.vsw * TANH_ALPHA) * sech2
    }

    /// Fused [`Self::current`] + [`Self::conductance`], sharing one
    /// `tanh` evaluation instead of three.
    ///
    /// Returns `(i, g)` bit-identical to the two scalar entry points —
    /// the per-iteration restamping path of the MNA workspace calls
    /// this in its hot loop; the scalar forms remain the reference
    /// definitions.
    pub fn eval(&self, v: f64, iss: f64) -> (f64, f64) {
        let x = ALPHA * v / self.vsw;
        let t = x.tanh();
        let i = iss * t / TANH_ALPHA;
        let g = iss * ALPHA / (self.vsw * TANH_ALPHA) * (1.0 - t * t);
        (i, g)
    }

    /// Small-signal resistance at the origin, Ω — the `R_L ≈ VSW/ISS`
    /// design value (up to the tanh shape factor).
    pub fn resistance(&self, iss: f64) -> f64 {
        1.0 / self.conductance(0.0, iss)
    }

    /// The replica-bias gate voltage (below VDD) that makes a PMOS load
    /// device `device` carry `iss` at a source-drain drop of `vsw`, V.
    ///
    /// This is what the replica-bias generator of Fig. 2 computes with a
    /// feedback amplifier; here we invert the EKV model directly.
    ///
    /// # Panics
    ///
    /// Panics unless `iss` is strictly positive.
    pub fn replica_gate_bias(&self, tech: &Technology, device: &Mosfet, iss: f64, vdd: f64) -> f64 {
        assert!(iss > 0.0, "tail current must be positive");
        // Source of the load PMOS sits at VDD; we want ID = iss with the
        // drain at VDD − VSW. vgs_for_current returns the (negative)
        // gate-source voltage for a saturated PMOS.
        vdd + device.vgs_for_current(tech, iss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polarity;

    #[test]
    fn fused_eval_is_bitwise_identical() {
        let load = PmosLoad::new(0.2);
        for &iss in &[1e-12, 1e-9, 1e-6] {
            for &v in &[-0.35, -0.05, 0.0, 0.013, 0.2, 0.41] {
                let (i, g) = load.eval(v, iss);
                assert_eq!(i.to_bits(), load.current(v, iss).to_bits());
                assert_eq!(g.to_bits(), load.conductance(v, iss).to_bits());
            }
        }
    }

    #[test]
    fn tanh_alpha_literal_is_bit_exact() {
        assert_eq!(TANH_ALPHA.to_bits(), ALPHA.tanh().to_bits());
    }

    #[test]
    fn endpoint_calibration_exact() {
        let load = PmosLoad::new(0.2);
        for iss in [1e-12, 1e-9, 1e-6] {
            assert!((load.current(0.2, iss) - iss).abs() < 1e-15 * iss.max(1e-12));
            assert_eq!(load.current(0.0, iss), 0.0);
        }
    }

    #[test]
    fn odd_symmetry() {
        let load = PmosLoad::new(0.15);
        let i = load.current(0.07, 1e-9);
        assert!((load.current(-0.07, 1e-9) + i).abs() < 1e-24);
    }

    #[test]
    fn resistance_scales_inversely_with_current() {
        let load = PmosLoad::new(0.2);
        let r1 = load.resistance(1e-12);
        let r2 = load.resistance(1e-9);
        assert!((r1 / r2 - 1000.0).abs() < 1e-6);
        // pA-class currents demand 100 GΩ-class loads — the paper's
        // motivation for the PMOS load.
        assert!(r1 > 1e10);
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let load = PmosLoad::new(0.2);
        let iss = 1e-9;
        for v in [-0.15, 0.0, 0.05, 0.18] {
            let h = 1e-7;
            let fd = (load.current(v + h, iss) - load.current(v - h, iss)) / (2.0 * h);
            let an = load.conductance(v, iss);
            assert!((fd - an).abs() / an.abs() < 1e-6, "v={v}");
        }
    }

    #[test]
    fn compressive_beyond_swing() {
        let load = PmosLoad::new(0.2);
        let iss = 1e-9;
        assert!(load.conductance(0.3, iss) < load.conductance(0.0, iss));
        assert!(load.current(0.4, iss) < 1.5 * iss);
    }

    #[test]
    fn replica_bias_tracks_current_logarithmically() {
        let tech = Technology::default();
        let dev = Mosfet::new(Polarity::Pmos, 0.5e-6, 2e-6);
        let load = PmosLoad::new(0.2);
        let v1 = load.replica_gate_bias(&tech, &dev, 1e-9, 1.0);
        let v10 = load.replica_gate_bias(&tech, &dev, 1e-8, 1.0);
        // One decade of current costs ~n·UT·ln10 ≈ 80 mV of gate drive.
        let dv = v1 - v10;
        assert!(dv > 0.05 && dv < 0.12, "dv = {dv}");
        assert!(v1 < 1.0, "gate must sit below VDD");
    }

    #[test]
    #[should_panic(expected = "swing must be positive")]
    fn zero_swing_rejected() {
        let _ = PmosLoad::new(0.0);
    }
}
