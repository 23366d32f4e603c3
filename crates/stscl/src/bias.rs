//! Replica-bias generation and distribution.
//!
//! All STSCL tail currents in a block are copies of one reference,
//! produced by a replica-bias generator (paper Fig. 2 and §II-A): a
//! feedback loop sizes the PMOS load gate voltage so that a replica cell
//! develops exactly `VSW` at `ISS`, and NMOS current mirrors fan the
//! tail current out to every cell. Two practical effects are modelled:
//!
//! * **Mirror mismatch** — Pelgrom threshold scatter in the mirror
//!   devices spreads the per-gate tail currents (and hence delays);
//!   exponential in weak inversion: `ΔI/I = ΔVT/(n·UT)`.
//! * **Headroom check** — the mirror compliance plus the replica loop
//!   set the minimum usable supply ([`crate::gate::SclParams::min_vdd`]).

use crate::gate::SclParams;
use ulp_device::mismatch::MismatchRng;
use ulp_device::Technology;

/// A replica-bias distribution network for one STSCL block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaBias {
    /// Reference tail current, A.
    pub iss_ref: f64,
    /// Mirror device width, m.
    pub mirror_w: f64,
    /// Mirror device length, m.
    pub mirror_l: f64,
}

impl ReplicaBias {
    /// Creates a distribution with the given reference current and
    /// mirror geometry. The paper recommends "large enough transistor
    /// sizes" for the mirrors; defaults in the ADC use 2 µm × 2 µm.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are strictly positive.
    pub fn new(iss_ref: f64, mirror_w: f64, mirror_l: f64) -> Self {
        assert!(
            iss_ref > 0.0 && mirror_w > 0.0 && mirror_l > 0.0,
            "replica bias parameters must be positive"
        );
        ReplicaBias {
            iss_ref,
            mirror_w,
            mirror_l,
        }
    }

    /// Relative 1-σ spread of the mirrored tail currents from threshold
    /// mismatch: `σ(ΔI)/I = σ(ΔVT)/(n·UT)` (weak inversion).
    pub fn current_spread_sigma(&self, tech: &Technology) -> f64 {
        let sigma_vt = MismatchRng::sigma_delta_vt(&tech.nmos, self.mirror_w, self.mirror_l);
        sigma_vt / (tech.nmos.n * tech.thermal_voltage())
    }

    /// Draws one mirrored tail current, A.
    ///
    /// The relevant mismatch is the *pair* deviation between the replica
    /// reference device and this mirror device, so the full Pelgrom pair
    /// σ applies.
    pub fn draw_tail_current(&self, tech: &Technology, rng: &mut MismatchRng) -> f64 {
        let dvt = rng.draw_pair_offset(&tech.nmos, self.mirror_w, self.mirror_l);
        // Weak-inversion mirror: I = Iref·exp(−ΔVT/(n·UT)).
        self.iss_ref * (-dvt / (tech.nmos.n * tech.thermal_voltage())).exp()
    }

    /// Draws `n` mirrored tail currents.
    pub fn draw_tail_currents(
        &self,
        tech: &Technology,
        rng: &mut MismatchRng,
        n: usize,
    ) -> Vec<f64> {
        (0..n).map(|_| self.draw_tail_current(tech, rng)).collect()
    }

    /// Worst-case (k-σ) slow-corner delay of one cell, s.
    pub fn worst_case_delay(&self, tech: &Technology, params: &SclParams, k_sigma: f64) -> f64 {
        let slow_current = self.iss_ref * (1.0 - k_sigma * self.current_spread_sigma(tech)).max(0.1);
        params.delay(slow_current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_shrinks_with_device_area() {
        let tech = Technology::default();
        let small = ReplicaBias::new(1e-9, 0.5e-6, 0.5e-6);
        let large = ReplicaBias::new(1e-9, 4e-6, 4e-6);
        assert!(small.current_spread_sigma(&tech) > 4.0 * large.current_spread_sigma(&tech));
    }

    #[test]
    fn drawn_currents_center_on_reference() {
        let tech = Technology::default();
        let rb = ReplicaBias::new(1e-9, 2e-6, 2e-6);
        let mut rng = MismatchRng::seed_from(42);
        let currents = rb.draw_tail_currents(&tech, &mut rng, 5000);
        let mean = currents.iter().sum::<f64>() / currents.len() as f64;
        assert!((mean / 1e-9 - 1.0).abs() < 0.02, "mean = {mean:e}");
        // Relative spread matches the analytic sigma within sampling
        // error.
        let sigma = rb.current_spread_sigma(&tech);
        let sd = {
            let var = currents
                .iter()
                .map(|c| (c / 1e-9 - mean / 1e-9).powi(2))
                .sum::<f64>()
                / (currents.len() - 1) as f64;
            var.sqrt()
        };
        assert!((sd / sigma - 1.0).abs() < 0.15, "sd {sd} vs sigma {sigma}");
    }

    #[test]
    fn paper_recommendation_large_mirrors_tighten_delay() {
        let tech = Technology::default();
        let params = SclParams::default();
        let small = ReplicaBias::new(1e-9, 0.5e-6, 0.5e-6);
        let large = ReplicaBias::new(1e-9, 4e-6, 4e-6);
        let nominal = params.delay(1e-9);
        let wc_small = small.worst_case_delay(&tech, &params, 3.0);
        let wc_large = large.worst_case_delay(&tech, &params, 3.0);
        assert!(wc_small > wc_large);
        assert!(wc_large < 1.2 * nominal, "large mirrors stay near nominal");
    }

    #[test]
    fn spread_is_bias_independent() {
        // Weak-inversion mirrors: relative spread does not depend on the
        // current level — the platform scales without re-verification.
        let tech = Technology::default();
        let lo = ReplicaBias::new(10e-12, 2e-6, 2e-6);
        let hi = ReplicaBias::new(1e-6, 2e-6, 2e-6);
        assert!((lo.current_spread_sigma(&tech) - hi.current_spread_sigma(&tech)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_parameters_rejected() {
        let _ = ReplicaBias::new(0.0, 1e-6, 1e-6);
    }
}
