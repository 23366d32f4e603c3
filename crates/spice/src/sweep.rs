//! DC transfer sweeps with solution continuation.
//!
//! Sweeps re-solve the operating point at each stimulus value, seeding
//! Newton with the previous solution so the solver tracks the circuit's
//! operating branch — essential for the STSCL gate VTC (experiment E10)
//! whose differential stages otherwise offer two symmetric solutions.

use crate::dcop::{newton_solve_gmin_stepping_into, NewtonOptions};
use crate::error::SimError;
use crate::mna::{require_unknowns, voltage_of, AssembleMode, MnaWorkspace};
use crate::netlist::{Element, Netlist, Node, Waveform};
use crate::telemetry::{self, Event, Tracer};
use std::time::Instant;
use ulp_device::Technology;

/// Result of a DC sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    values: Vec<f64>,
    solutions: Vec<Vec<f64>>,
}

impl SweepResult {
    /// The swept stimulus values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Voltage of `node` at every sweep point.
    pub fn voltage_trace(&self, node: Node) -> Vec<f64> {
        self.solutions.iter().map(|x| voltage_of(x, node)).collect()
    }

    /// Voltage of `node` at sweep point `i`.
    pub fn voltage_at(&self, node: Node, i: usize) -> f64 {
        voltage_of(&self.solutions[i], node)
    }

    /// Full solution vector at sweep point `i` — node voltages then
    /// branch currents, in MNA unknown order.
    pub fn solution(&self, i: usize) -> &[f64] {
        &self.solutions[i]
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Netlist {
    /// Sets the DC value of the named independent V or I source.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if there is no such source.
    pub fn set_source(&mut self, name: &str, value: f64) -> Result<(), SimError> {
        for e in self.elements_mut() {
            match e {
                Element::Vsource { name: n, wave, .. } if n == name => {
                    *wave = Waveform::Dc(value);
                    return Ok(());
                }
                Element::Isource { name: n, wave, .. } if n == name => {
                    *wave = Waveform::Dc(value);
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(SimError::NotFound(name.to_string()))
    }
}

/// Sweeps the named independent source over `values`, returning the full
/// solution at each point.
///
/// Runs the electrical rule check ([`crate::erc::gate`]) once on the
/// netlist before the first point. The clean verdict is memoised per
/// netlist revision, so driver code that calls several analyses on one
/// unchanged netlist pays for the structural traversal exactly once
/// across all of them.
///
/// # Errors
///
/// [`SimError::Erc`] when the netlist fails the rule check;
/// [`SimError::NotFound`] for an unknown source; otherwise any Newton
/// failure at a sweep point.
pub fn dc_sweep(
    nl: &Netlist,
    tech: &Technology,
    source: &str,
    values: &[f64],
) -> Result<SweepResult, SimError> {
    dc_sweep_with(nl, tech, source, values, &NewtonOptions::default())
}

/// [`dc_sweep`] with explicit Newton options.
///
/// # Errors
///
/// As for [`dc_sweep`].
pub fn dc_sweep_with(
    nl: &Netlist,
    tech: &Technology,
    source: &str,
    values: &[f64],
    opts: &NewtonOptions,
) -> Result<SweepResult, SimError> {
    telemetry::with_tracer(|tracer| dc_sweep_traced(nl, tech, source, values, opts, tracer))
}

/// [`dc_sweep_with`] recording telemetry on the given tracer: one
/// [`Event::NewtonAttempt`] per solve (tagged `"sweep"`) and one
/// [`Event::SweepPoint`] per stimulus value.
///
/// # Errors
///
/// As for [`dc_sweep_with`].
pub fn dc_sweep_traced(
    nl: &Netlist,
    tech: &Technology,
    source: &str,
    values: &[f64],
    opts: &NewtonOptions,
    tracer: &mut dyn Tracer,
) -> Result<SweepResult, SimError> {
    crate::erc::gate(nl)?;
    require_unknowns(nl)?;
    let mut work = nl.clone();
    // Validate the source exists up front.
    work.set_source(source, values.first().copied().unwrap_or(0.0))?;
    let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(values.len());
    let mut guess = vec![0.0; work.unknown_count()];
    // One workspace across all points: `set_source` only bumps the
    // netlist revision, so the matrix pattern and its symbolic
    // factorization survive the whole sweep.
    let mut ws = MnaWorkspace::new(&work, opts.solver);
    let mut x = Vec::with_capacity(work.unknown_count());
    let mut x_new = Vec::with_capacity(work.unknown_count());
    let enabled = tracer.enabled();
    for (i, &v) in values.iter().enumerate() {
        let t0 = enabled.then(Instant::now);
        work.set_source(source, v)?;
        let r = newton_solve_gmin_stepping_into(
            &work,
            tech,
            AssembleMode::Dc,
            &guess,
            opts,
            "sweep",
            tracer,
            &mut ws,
            &mut x,
            &mut x_new,
        )?;
        if let Some(t0) = t0 {
            tracer.record(&Event::SweepPoint {
                index: i,
                value: v,
                newton_iterations: r.iterations,
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
        // Secant warm-start for the next point: extrapolate each unknown
        // along the previous two solutions. Falls back to the plain
        // previous-solution guess for the first point and for repeated
        // stimulus values (zero denominator).
        guess.copy_from_slice(&x);
        if let (Some(prev), Some(&v_next)) = (solutions.last(), values.get(i + 1)) {
            let v_prev = values[i - 1];
            if v != v_prev {
                let scale = (v_next - v) / (v - v_prev);
                for (g, (&xi, &pi)) in guess.iter_mut().zip(x.iter().zip(prev.iter())) {
                    *g = xi + (xi - pi) * scale;
                }
            }
        }
        solutions.push(x.clone());
    }
    Ok(SweepResult {
        values: values.to_vec(),
        solutions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_num::interp;

    #[test]
    fn sweep_linear_divider() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GROUND, 0.0);
        nl.resistor("R1", a, m, 1e3);
        nl.resistor("R2", m, Netlist::GROUND, 3e3);
        let vals = interp::linspace(0.0, 2.0, 5);
        let s = dc_sweep(&nl, &Technology::default(), "V1", &vals).unwrap();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let trace = s.voltage_trace(m);
        // gmin (1e-12 S to ground) perturbs the divider at the ppb level.
        for (vin, vm) in vals.iter().zip(&trace) {
            assert!((vm - 0.75 * vin).abs() < 1e-7);
        }
        assert!((s.voltage_at(m, 4) - 1.5).abs() < 1e-7);
    }

    #[test]
    fn unknown_source_errors() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        assert!(matches!(
            dc_sweep(&nl, &Technology::default(), "VX", &[0.0]),
            Err(SimError::NotFound(_))
        ));
    }

    #[test]
    fn set_source_value_on_isource() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        nl.set_source("I1", 2e-6).unwrap();
        let op = crate::dcop::DcOperatingPoint::solve(&nl, &Technology::default()).unwrap();
        assert!((op.voltage(a) - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn traced_sweep_records_every_point() {
        use crate::telemetry::{Event, MetricsCollector, TraceMode};
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 0.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let vals = interp::linspace(0.0, 1.0, 4);
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let s = dc_sweep_traced(
            &nl,
            &Technology::default(),
            "V1",
            &vals,
            &NewtonOptions::default(),
            &mut mc,
        )
        .unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(mc.metrics().sweep_points, 4);
        let points: Vec<(usize, f64)> = mc
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                Event::SweepPoint { index, value, .. } => Some((*index, *value)),
                _ => None,
            })
            .collect();
        let expect: Vec<(usize, f64)> = vals.iter().copied().enumerate().collect();
        assert_eq!(points, expect);
    }

    #[test]
    fn secant_warm_start_matches_independent_solves() {
        // Nonlinear sweep: the secant-extrapolated guess must change the
        // iteration path only, never the converged answers.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GROUND, 0.0);
        nl.resistor("R1", a, m, 10e3);
        nl.diode("D1", m, Netlist::GROUND, 1e-14, 1.0);
        let vals = interp::linspace(0.0, 1.5, 16);
        let s = dc_sweep(&nl, &Technology::default(), "V1", &vals).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            nl.set_source("V1", v).unwrap();
            let op = crate::dcop::DcOperatingPoint::solve(&nl, &Technology::default()).unwrap();
            assert!(
                (s.voltage_at(m, i) - op.voltage(m)).abs() < 1e-6,
                "point {i} (V1={v}): sweep {} vs cold {}",
                s.voltage_at(m, i),
                op.voltage(m)
            );
        }
    }

    #[test]
    fn warm_start_handles_repeated_stimulus_values() {
        // A zero secant denominator (equal consecutive values) must fall
        // back to the previous solution, not extrapolate to NaN.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.vsource("V1", a, Netlist::GROUND, 0.0);
        nl.resistor("R1", a, m, 10e3);
        nl.diode("D1", m, Netlist::GROUND, 1e-14, 1.0);
        let vals = [0.5, 0.5, 0.5, 1.0, 1.0];
        let s = dc_sweep(&nl, &Technology::default(), "V1", &vals).unwrap();
        assert!((s.voltage_at(m, 0) - s.voltage_at(m, 2)).abs() < 1e-9);
        assert!((s.voltage_at(m, 3) - s.voltage_at(m, 4)).abs() < 1e-9);
        assert!(s.voltage_trace(m).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_sweep_ok() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        let s = dc_sweep(&nl, &Technology::default(), "V1", &[]).unwrap();
        assert!(s.is_empty());
    }
}
