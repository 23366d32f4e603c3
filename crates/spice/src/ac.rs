//! AC small-signal analysis.
//!
//! Linearises every nonlinear element about a previously solved DC
//! operating point and solves the complex MNA system at each requested
//! frequency. Stimulus comes from the `ac` magnitudes of independent
//! sources ([`Netlist::vsource_ac`] / [`Netlist::isource_ac`]).
//!
//! This drives experiment E2 (paper Fig. 6d): the pre-amplifier's
//! frequency response with and without the well-capacitance decoupling
//! resistor.

use crate::dcop::DcOperatingPoint;
use crate::error::SimError;
use crate::mna::{
    add_quad, matrix_coords, mos_quads, require_unknowns, static_stamps, voltage_of, Backend,
    SolverKind, StaticKind,
};
use crate::netlist::{Element, Netlist, Node};
use crate::telemetry::{self, Event, Tracer};
use std::time::Instant;
use ulp_device::Technology;
use ulp_num::{Complex, SparseMatrix};

/// Result of an AC sweep: one complex solution vector per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Runs an AC analysis over `freqs` (Hz) about the operating point
    /// `op`.
    ///
    /// Runs the electrical rule check ([`crate::erc::gate`]) once up
    /// front.
    ///
    /// # Errors
    ///
    /// [`SimError::Erc`] when the netlist fails the rule check;
    /// [`SimError::Singular`]/[`SimError::LinearSolve`] if the
    /// small-signal system is singular at some frequency.
    pub fn run(
        nl: &Netlist,
        tech: &Technology,
        op: &DcOperatingPoint,
        freqs: &[f64],
    ) -> Result<Self, SimError> {
        telemetry::with_tracer(|tracer| Self::run_traced(nl, tech, op, freqs, tracer))
    }

    /// [`AcResult::run`] recording telemetry on the given tracer: one
    /// [`Event::AcPoint`] per analysis frequency.
    ///
    /// # Errors
    ///
    /// As for [`AcResult::run`].
    pub fn run_traced(
        nl: &Netlist,
        tech: &Technology,
        op: &DcOperatingPoint,
        freqs: &[f64],
        tracer: &mut dyn Tracer,
    ) -> Result<Self, SimError> {
        crate::erc::gate(nl)?;
        require_unknowns(nl)?;
        let dim = nl.unknown_count();
        let x = op.solution();
        let mut matrix = SparseMatrix::from_pattern(dim, &matrix_coords(nl));
        let mut rhs = vec![Complex::ZERO; dim];
        // Sparse from dimension 4 up: only the jωC entries move between
        // frequencies at a fixed operating point, so the pivot order
        // chosen at the first frequency is reused numerically for every
        // later one, with a full re-pivot if a pivot collapses.
        let mut backend = Backend::new(SolverKind::Auto, dim);
        let mut solutions = Vec::with_capacity(freqs.len());
        for (index, &freq) in freqs.iter().enumerate() {
            let started = Instant::now();
            let omega = 2.0 * std::f64::consts::PI * freq;
            matrix.zero_values();
            rhs.fill(Complex::ZERO);
            stamp_ac(nl, tech, x, omega, &mut matrix, &mut rhs);
            let full = backend
                .factor(&matrix, false)
                .map_err(|e| SimError::from_solve(nl, e))?;
            let mut sol = Vec::with_capacity(dim);
            backend
                .solve_into(&rhs, &mut sol)
                .map_err(|e| SimError::from_solve(nl, e))?;
            solutions.push(sol);
            if tracer.enabled() {
                tracer.record(&Event::AcPoint {
                    index,
                    freq,
                    lu_symbolic: usize::from(full),
                    lu_refactor: usize::from(!full),
                    seconds: started.elapsed().as_secs_f64(),
                });
            }
        }
        Ok(AcResult {
            freqs: freqs.to_vec(),
            solutions,
        })
    }

    /// The analysis frequencies, Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Phasor of `node` at frequency index `i`.
    pub fn phasor(&self, node: Node, i: usize) -> Complex {
        if node.is_ground() {
            Complex::ZERO
        } else {
            self.solutions[i][node.index() - 1]
        }
    }

    /// Complex response of one node across the sweep.
    pub fn transfer(&self, node: Node) -> Vec<Complex> {
        (0..self.freqs.len()).map(|i| self.phasor(node, i)).collect()
    }

    /// Magnitude response of one node in dB across the sweep.
    pub fn magnitude_db(&self, node: Node) -> Vec<f64> {
        self.transfer(node).iter().map(|z| z.abs_db()).collect()
    }

    /// −3 dB bandwidth of the response at `node` relative to its
    /// magnitude at the first sweep point; `None` if it never drops
    /// 3 dB within the sweep.
    pub fn bandwidth_3db(&self, node: Node) -> Option<f64> {
        let mags: Vec<f64> = self.transfer(node).iter().map(|z| z.abs()).collect();
        let reference = mags.first()?;
        let target = reference / std::f64::consts::SQRT_2;
        for i in 1..mags.len() {
            if mags[i - 1] >= target && mags[i] < target {
                // Log-linear interpolation between the two frequencies.
                let (f0, f1) = (self.freqs[i - 1], self.freqs[i]);
                let (m0, m1) = (mags[i - 1], mags[i]);
                let t = (m0 - target) / (m0 - m1);
                return Some(f0 * (f1 / f0).powf(t));
            }
        }
        None
    }
}

/// The AC system's gmin: 1 fS from every node to ground, which keeps a
/// truly floating small-signal node solvable.
const AC_SHUNT: f64 = 1e-15;

/// Stamps the full small-signal system at `omega` about DC solution `x`
/// into matrix `m` (over the [`matrix_coords`] pattern) and source
/// vector `rhs` — the one small-signal stamper, shared by AC and noise
/// analysis (which ignores `rhs`). The linear elements replay
/// [`static_stamps`], capacitors as `jω·C`; the nonlinear ones stamp
/// their conductances at `x` through [`add_quad`].
pub(crate) fn stamp_ac(
    nl: &Netlist,
    tech: &Technology,
    x: &[f64],
    omega: f64,
    m: &mut SparseMatrix<Complex>,
    rhs: &mut [Complex],
) {
    static_stamps(nl, |r, c, kind, v| {
        let y = match kind {
            StaticKind::Const => Complex::from_re(v),
            StaticKind::Gmin => Complex::from_re(AC_SHUNT),
            StaticKind::Cap => Complex::new(0.0, omega * v),
        };
        m.add_at(r, c, y);
    });
    let mut add = |r, c, g: f64| m.add_at(r, c, Complex::from_re(g));
    let mut branch = nl.node_count() - 1;
    for e in nl.elements() {
        match e {
            Element::Vsource { ac, .. } => rhs[branch] = Complex::from_re(*ac),
            Element::Isource { p, n, ac, .. } => {
                if !p.is_ground() {
                    rhs[p.index() - 1] -= Complex::from_re(*ac);
                }
                if !n.is_ground() {
                    rhs[n.index() - 1] += Complex::from_re(*ac);
                }
            }
            Element::Diode {
                p, n, is_sat, n_id, ..
            } => {
                let v = voltage_of(x, *p) - voltage_of(x, *n);
                let vt = n_id * tech.thermal_voltage();
                let g = is_sat / vt * (v / vt).min(40.0).exp();
                add_quad([*p, *n, *p, *n], g.max(1e-18), &mut add);
            }
            Element::Mos { d, g, s, b, dev, .. } => {
                let vb = voltage_of(x, *b);
                let vg = voltage_of(x, *g) - vb;
                let vs = voltage_of(x, *s) - vb;
                let vd = voltage_of(x, *d) - vb;
                let op = dev.operating_point(tech, vg, vs, vd);
                let quads = mos_quads(*d, *g, *s, *b);
                for (q, g) in quads.into_iter().zip([op.gm, op.gms, op.gds]) {
                    add_quad(q, g, &mut add);
                }
            }
            Element::SclLoad { a, b, load, iss, .. } => {
                let v = voltage_of(x, *a) - voltage_of(x, *b);
                let g = load.conductance(v, *iss).max(1e-18);
                add_quad([*a, *b, *a, *b], g, &mut add);
            }
            _ => {}
        }
        branch += usize::from(e.has_branch());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_num::interp;

    fn tech() -> Technology {
        Technology::default()
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 159.15 nF → f−3dB ≈ 1 kHz.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_ac("V1", inp, Netlist::GROUND, 0.0, 1.0);
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 159.15e-9);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let freqs = interp::decade_sweep(1.0, 1e6, 40);
        let ac = AcResult::run(&nl, &tech(), &op, &freqs).unwrap();
        let bw = ac.bandwidth_3db(out).unwrap();
        assert!((bw - 1e3).abs() / 1e3 < 0.02, "bw = {bw}");
        // Low-frequency gain 0 dB; one decade past the pole ≈ −20 dB.
        let mags = ac.magnitude_db(out);
        assert!(mags[0].abs() < 0.01);
        // Nearest grid point to 10 kHz: one decade past the pole ≈ −20 dB.
        let idx_10k = freqs
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let da = (a.1.log10() - 4.0).abs();
                let db = (b.1.log10() - 4.0).abs();
                da.partial_cmp(&db).expect("finite freqs")
            })
            .map(|(i, _)| i)
            .expect("non-empty sweep");
        assert!((mags[idx_10k] + 20.0).abs() < 0.5, "mag = {}", mags[idx_10k]);
    }

    #[test]
    fn phase_of_lowpass_at_pole_is_45_degrees() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_ac("V1", inp, Netlist::GROUND, 0.0, 1.0);
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 159.15e-9);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let ac = AcResult::run(&nl, &tech(), &op, &[1e3]).unwrap();
        let ph = ac.phasor(out, 0).arg_deg();
        assert!((ph + 45.0).abs() < 1.0, "phase = {ph}");
        assert_eq!(ac.phasor(Netlist::GROUND, 0), Complex::ZERO);
    }

    #[test]
    fn mos_common_source_gain() {
        // Subthreshold common-source stage: |A| = gm·(RD ∥ rds); verify
        // the AC result against the operating-point small-signal values.
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.2);
        nl.vsource_ac("VG", g, Netlist::GROUND, 0.35, 1.0);
        nl.resistor("RD", vdd, d, 10e6);
        let dev = ulp_device::Mosfet::new(ulp_device::Polarity::Nmos, 2e-6, 1e-6);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, dev);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let vd = op.voltage(d);
        let mos_op = dev.operating_point(&t, 0.35, 0.0, vd);
        let expect = mos_op.gm * 1.0 / (1.0 / 10e6 + mos_op.gds);
        let ac = AcResult::run(&nl, &t, &op, &[1.0]).unwrap();
        let gain = ac.phasor(d, 0).abs();
        assert!((gain / expect - 1.0).abs() < 0.01, "gain {gain} vs {expect}");
        // Inverting stage: phase ≈ 180°.
        assert!((ac.phasor(d, 0).arg_deg().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn traced_ac_records_every_frequency() {
        use crate::telemetry::{Event, MetricsCollector, TraceMode};
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_ac("V1", inp, Netlist::GROUND, 0.0, 1.0);
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-9);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let freqs = [1e2, 1e3, 1e4];
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let ac = AcResult::run_traced(&nl, &tech(), &op, &freqs, &mut mc).unwrap();
        assert_eq!(ac.freqs().len(), 3);
        assert_eq!(mc.metrics().ac_points, 3);
        let seen: Vec<f64> = mc
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                Event::AcPoint { freq, .. } => Some(*freq),
                _ => None,
            })
            .collect();
        assert_eq!(seen, freqs);
    }

    #[test]
    fn current_source_drive() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource_ac("I1", Netlist::GROUND, a, 0.0, 1e-6);
        nl.resistor("R1", a, Netlist::GROUND, 1e6);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let ac = AcResult::run(&nl, &tech(), &op, &[100.0]).unwrap();
        assert!((ac.phasor(a, 0).abs() - 1.0).abs() < 1e-9);
    }
}
