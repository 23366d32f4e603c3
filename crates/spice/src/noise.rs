//! Small-signal noise analysis (the `.NOISE` of a classical SPICE).
//!
//! At a solved operating point, every dissipative element injects a
//! stationary noise current:
//!
//! * resistor: thermal, `S_i = 4kT/R` (A²/Hz);
//! * STSCL load: thermal at its small-signal conductance, `4kT·g`;
//! * diode: shot, `S_i = 2q·I_D`;
//! * MOS in weak inversion: shot-limited channel noise, `S_i = 2q·I_D`
//!   (the subthreshold limit of the channel thermal noise — correct for
//!   every device in this workspace's circuits).
//!
//! For each analysis frequency the complex MNA matrix is factored once
//! and back-substituted per source with a unit current injection, giving
//! each element's transfer to the designated output node; the summed
//! PSD is integrated (trapezoidal) over the sweep for the total RMS.
//! Independent sources are quiet (their AC magnitudes are ignored
//! here).

use crate::ac::stamp_ac;
use crate::dcop::DcOperatingPoint;
use crate::error::SimError;
use crate::mna::{require_unknowns, voltage_of};
use crate::netlist::{Element, Netlist, Node};
use crate::telemetry::{self, Event, Tracer};
use std::time::Instant;
use ulp_device::Technology;
use ulp_num::lu::ComplexLuFactor;
use ulp_num::{Complex, ComplexMatrix};

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;
/// Elementary charge, C.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// One element's noise contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseContribution {
    /// Element instance name.
    pub name: String,
    /// Integrated output-referred noise power over the sweep, V².
    pub output_power: f64,
}

/// Result of a noise analysis.
#[derive(Debug, Clone)]
pub struct NoiseReport {
    /// Analysis frequencies, Hz.
    pub freqs: Vec<f64>,
    /// Output noise voltage PSD per frequency, V²/Hz.
    pub output_psd: Vec<f64>,
    /// Per-element integrated contributions, netlist order.
    pub contributions: Vec<NoiseContribution>,
    /// Total output-referred RMS noise over the sweep band, V.
    pub output_rms: f64,
}

impl NoiseReport {
    /// The dominant noise contributor.
    pub fn worst_offender(&self) -> Option<&NoiseContribution> {
        self.contributions
            .iter()
            .max_by(|a, b| {
                a.output_power
                    .partial_cmp(&b.output_power)
                    .expect("finite powers")
            })
    }
}

/// A noise source description: injection nodes + current PSD.
struct Source {
    name: String,
    p: Node,
    n: Node,
    psd: f64, // A²/Hz
}

fn noise_sources(nl: &Netlist, tech: &Technology, op: &DcOperatingPoint) -> Vec<Source> {
    let x = op.solution();
    let kt4 = 4.0 * BOLTZMANN * tech.temperature;
    let mut out = Vec::new();
    for e in nl.elements() {
        match e {
            Element::Resistor { name, a, b, ohms } => out.push(Source {
                name: name.clone(),
                p: *a,
                n: *b,
                psd: kt4 / ohms,
            }),
            Element::SclLoad { name, a, b, load, iss } => {
                let v = voltage_of(x, *a) - voltage_of(x, *b);
                out.push(Source {
                    name: name.clone(),
                    p: *a,
                    n: *b,
                    psd: kt4 * load.conductance(v, *iss),
                });
            }
            Element::Diode { name, p, n, is_sat, n_id } => {
                let v = voltage_of(x, *p) - voltage_of(x, *n);
                let vt = n_id * tech.thermal_voltage();
                let i = (is_sat * ((v / vt).min(40.0).exp() - 1.0)).abs();
                out.push(Source {
                    name: name.clone(),
                    p: *p,
                    n: *n,
                    psd: 2.0 * ELEMENTARY_CHARGE * (i + is_sat),
                });
            }
            Element::Mos { name, d, g, s, b, dev } => {
                let vb = voltage_of(x, *b);
                let mos = dev.operating_point(
                    tech,
                    voltage_of(x, *g) - vb,
                    voltage_of(x, *s) - vb,
                    voltage_of(x, *d) - vb,
                );
                out.push(Source {
                    name: name.clone(),
                    p: *d,
                    n: *s,
                    psd: 2.0 * ELEMENTARY_CHARGE * mos.id.abs(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Runs the noise analysis: output-referred noise at `output` over the
/// frequency sweep `freqs` (must be ascending for the integration).
///
/// # Errors
///
/// [`SimError::LinearSolve`] if the small-signal system is singular;
/// [`SimError::BadParameter`] for an unusable sweep.
pub fn noise_analysis(
    nl: &Netlist,
    tech: &Technology,
    op: &DcOperatingPoint,
    output: Node,
    freqs: &[f64],
) -> Result<NoiseReport, SimError> {
    telemetry::with_tracer(|tracer| noise_analysis_traced(nl, tech, op, output, freqs, tracer))
}

/// [`noise_analysis`] recording telemetry on the given tracer: one
/// [`Event::NoisePoint`] per analysis frequency (with the number of
/// noise sources back-substituted at that point).
///
/// # Errors
///
/// As for [`noise_analysis`].
pub fn noise_analysis_traced(
    nl: &Netlist,
    tech: &Technology,
    op: &DcOperatingPoint,
    output: Node,
    freqs: &[f64],
    tracer: &mut dyn Tracer,
) -> Result<NoiseReport, SimError> {
    if freqs.len() < 2 || freqs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(SimError::BadParameter(
            "noise sweep needs at least two ascending frequencies".to_string(),
        ));
    }
    if output.is_ground() {
        return Err(SimError::BadParameter(
            "output node must not be ground".to_string(),
        ));
    }
    require_unknowns(nl)?;
    let sources = noise_sources(nl, tech, op);
    let dim = nl.unknown_count();
    let out_idx = output.index() - 1;
    // The small-signal matrix and the (ignored) AC source vector of the
    // shared stamper, reused across frequencies.
    let mut m = ComplexMatrix::zeros(dim, dim);
    let mut ac_rhs = vec![Complex::ZERO; dim];
    let mut output_psd = Vec::with_capacity(freqs.len());
    // Per-source PSD at each frequency for the contribution integrals.
    let mut per_source: Vec<Vec<f64>> = vec![Vec::with_capacity(freqs.len()); sources.len()];
    let enabled = tracer.enabled();
    for (fi, &f) in freqs.iter().enumerate() {
        let t0 = enabled.then(Instant::now);
        m.clear();
        stamp_ac(nl, tech, op.solution(), 2.0 * std::f64::consts::PI * f, &mut m, &mut ac_rhs);
        let lu = ComplexLuFactor::new(&m)?;
        let mut total = 0.0;
        for (k, src) in sources.iter().enumerate() {
            let mut rhs = vec![Complex::ZERO; dim];
            // Unit noise current drawn from p, injected into n.
            if !src.p.is_ground() {
                rhs[src.p.index() - 1] -= Complex::ONE;
            }
            if !src.n.is_ground() {
                rhs[src.n.index() - 1] += Complex::ONE;
            }
            let x = lu.solve(&rhs)?;
            let transfer = x[out_idx].norm_sqr(); // |Z|² (V/A)²
            let psd = transfer * src.psd;
            per_source[k].push(psd);
            total += psd;
        }
        output_psd.push(total);
        if let Some(t0) = t0 {
            tracer.record(&Event::NoisePoint {
                index: fi,
                freq: f,
                sources: sources.len(),
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
    }
    // Trapezoidal integration over the sweep.
    let integrate = |ys: &[f64]| -> f64 {
        freqs
            .windows(2)
            .zip(ys.windows(2))
            .map(|(fw, yw)| 0.5 * (yw[0] + yw[1]) * (fw[1] - fw[0]))
            .sum()
    };
    let contributions: Vec<NoiseContribution> = sources
        .iter()
        .zip(&per_source)
        .map(|(s, psd)| NoiseContribution {
            name: s.name.clone(),
            output_power: integrate(psd),
        })
        .collect();
    let total_power = integrate(&output_psd);
    Ok(NoiseReport {
        freqs: freqs.to_vec(),
        output_psd,
        contributions,
        output_rms: total_power.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcop::DcOperatingPoint;
    use ulp_num::interp::decade_sweep;

    fn tech() -> Technology {
        Technology::default()
    }

    #[test]
    fn rc_integrated_noise_is_kt_over_c() {
        // The textbook exact result: total output noise of an RC
        // low-pass is kT/C, independent of R.
        let c = 1e-12;
        for r in [1e3, 1e6] {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.resistor("R1", a, Netlist::GROUND, r);
            nl.capacitor("C1", a, Netlist::GROUND, c);
            // Need one source for a well-posed OP (quiet in noise runs).
            nl.isource("I0", Netlist::GROUND, a, 0.0);
            let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
            // Sweep far past the pole so the integral converges.
            let f_pole = 1.0 / (2.0 * std::f64::consts::PI * r * c);
            let freqs = decade_sweep(f_pole * 1e-4, f_pole * 1e4, 60);
            let rep = noise_analysis(&nl, &tech(), &op, a, &freqs).unwrap();
            let expect = (BOLTZMANN * 300.0 / c).sqrt();
            assert!(
                (rep.output_rms / expect - 1.0).abs() < 0.02,
                "R={r}: rms {:.3e} vs kT/C {:.3e}",
                rep.output_rms,
                expect
            );
        }
    }

    #[test]
    fn resistor_psd_is_4ktr_at_low_frequency() {
        let r = 1e5;
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, r);
        nl.capacitor("C1", a, Netlist::GROUND, 1e-15);
        nl.isource("I0", Netlist::GROUND, a, 0.0);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let rep = noise_analysis(&nl, &tech(), &op, a, &[1.0, 2.0]).unwrap();
        // S_v = 4kTR well below the pole.
        let expect = 4.0 * BOLTZMANN * 300.0 * r;
        assert!((rep.output_psd[0] / expect - 1.0).abs() < 1e-3);
    }

    #[test]
    fn series_resistors_sum_like_one() {
        let build = |split: bool| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            if split {
                let m = nl.node("m");
                nl.resistor("R1", a, m, 5e4);
                nl.resistor("R2", m, Netlist::GROUND, 5e4);
            } else {
                nl.resistor("R1", a, Netlist::GROUND, 1e5);
            }
            nl.capacitor("C1", a, Netlist::GROUND, 1e-12);
            nl.isource("I0", Netlist::GROUND, a, 0.0);
            let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
            let freqs = decade_sweep(1.0, 1e10, 40);
            noise_analysis(&nl, &tech(), &op, a, &freqs)
                .unwrap()
                .output_rms
        };
        let one = build(false);
        let two = build(true);
        assert!((one / two - 1.0).abs() < 0.02, "{one:e} vs {two:e}");
    }

    #[test]
    fn mos_shot_noise_at_amplifier_output() {
        // Common-source stage: output PSD at low f ≈ 2qI·R_out² +
        // 4kT/R·R_out² with R_out = RD ∥ rds.
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.2);
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.resistor("RD", vdd, d, 10e6);
        let dev = ulp_device::Mosfet::new(ulp_device::Polarity::Nmos, 2e-6, 1e-6);
        nl.mosfet("M1", d, g, Netlist::GROUND, Netlist::GROUND, dev);
        nl.capacitor("CL", d, Netlist::GROUND, 1e-13);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let mos = dev.operating_point(&t, 0.35, 0.0, op.voltage(d));
        let r_out = 1.0 / (1.0 / 10e6 + mos.gds);
        let expect = (2.0 * ELEMENTARY_CHARGE * mos.id + 4.0 * BOLTZMANN * 300.0 / 10e6)
            * r_out
            * r_out;
        let rep = noise_analysis(&nl, &t, &op, d, &[1.0, 2.0]).unwrap();
        assert!(
            (rep.output_psd[0] / expect - 1.0).abs() < 0.05,
            "psd {:.3e} vs {:.3e}",
            rep.output_psd[0],
            expect
        );
        // The named contributions identify the offender.
        let worst = rep.worst_offender().unwrap();
        assert!(worst.name == "M1" || worst.name == "RD");
    }

    #[test]
    fn traced_noise_records_sources_per_point() {
        use crate::telemetry::{Event, MetricsCollector, TraceMode};
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1e5);
        nl.capacitor("C1", a, Netlist::GROUND, 1e-12);
        nl.isource("I0", Netlist::GROUND, a, 0.0);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let rep =
            noise_analysis_traced(&nl, &tech(), &op, a, &[1.0, 10.0, 100.0], &mut mc).unwrap();
        assert_eq!(rep.freqs.len(), 3);
        assert_eq!(mc.metrics().noise_points, 3);
        for e in mc.events() {
            if let Event::NoisePoint { sources, .. } = &e.event {
                assert_eq!(*sources, 1); // only R1 makes noise
            }
        }
    }

    #[test]
    fn bad_sweeps_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.isource("I0", Netlist::GROUND, a, 0.0);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        assert!(matches!(
            noise_analysis(&nl, &tech(), &op, a, &[1.0]),
            Err(SimError::BadParameter(_))
        ));
        assert!(matches!(
            noise_analysis(&nl, &tech(), &op, a, &[2.0, 1.0]),
            Err(SimError::BadParameter(_))
        ));
        assert!(matches!(
            noise_analysis(&nl, &tech(), &op, Netlist::GROUND, &[1.0, 2.0]),
            Err(SimError::BadParameter(_))
        ));
    }
}
