//! Cross-crate telemetry integration: the traced analysis entry points
//! of `ulp-spice` feeding one `MetricsCollector` across a realistic
//! mixed workload, and the failure path carrying diagnosable context.
//!
//! These tests use caller-supplied tracers (not the `ULP_TRACE` global,
//! whose install is process-wide and once-only) so they stay
//! independent of test ordering and of the environment.

use ulp_device::Technology;
use ulp_spice::ac::AcResult;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::sweep::dc_sweep_traced;
use ulp_spice::telemetry::{Event, MetricsCollector, TraceMode};
use ulp_spice::tran::{Transient, TranOptions};
use ulp_spice::{Netlist, SimError};

fn tech() -> Technology {
    Technology::default()
}

/// A diode-loaded current branch: nonlinear enough that Newton takes
/// several iterations, well-posed enough that it never needs the ladder.
fn diode_netlist() -> (Netlist, ulp_spice::Node) {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.isource("I1", Netlist::GROUND, a, 1e-6);
    nl.diode("D1", a, Netlist::GROUND, 1e-15, 1.0);
    (nl, a)
}

#[test]
fn one_collector_aggregates_across_analyses() {
    let t = tech();
    let mut mc = MetricsCollector::new(TraceMode::Events);
    let opts = NewtonOptions::default();

    // DC operating point.
    let (nl, a) = diode_netlist();
    let op = DcOperatingPoint::solve_traced(&nl, &t, &opts, &mut mc).unwrap();

    // AC about it.
    let mut ac_nl = Netlist::new();
    let inp = ac_nl.node("in");
    let out = ac_nl.node("out");
    ac_nl.vsource_ac("V1", inp, Netlist::GROUND, 0.0, 1.0);
    ac_nl.resistor("R1", inp, out, 1e3);
    ac_nl.capacitor("C1", out, Netlist::GROUND, 1e-9);
    let ac_op = DcOperatingPoint::solve_traced(&ac_nl, &t, &opts, &mut mc).unwrap();
    AcResult::run_traced(&ac_nl, &t, &ac_op, &[1e2, 1e3], &mut mc).unwrap();

    // A short transient on the same RC.
    Transient::run_traced(&ac_nl, &t, &TranOptions::new(1e-5, 1e-6), &mut mc).unwrap();

    // A sweep on the diode branch.
    dc_sweep_traced(&nl, &t, "I1", &[1e-7, 1e-6, 1e-5], &opts, &mut mc).unwrap();

    let m = mc.metrics();
    assert!(op.voltage(a) > 0.4);
    assert_eq!(m.ac_points, 2);
    assert_eq!(m.tran_steps, 10);
    assert_eq!(m.sweep_points, 3);
    // OP + AC-OP + 10 tran steps + tran initial OP + 3 sweep points, one
    // converged attempt each (none of these circuits needs the ladder).
    assert_eq!(m.attempts, 16);
    assert_eq!(m.solves, 16);
    assert_eq!(m.failures, 0);
    assert_eq!(m.gmin_fallbacks, 0);
    assert!(m.newton_iterations >= m.attempts);
    assert!(m.p95_iterations() >= m.p50_iterations());
    assert!(m.max_iterations() >= m.p95_iterations());
    assert!(m.solve_seconds > 0.0);

    // The event log is consistent with the aggregates and renders as
    // one well-formed JSON object per line.
    let newton_events = mc
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::NewtonAttempt { .. }))
        .count();
    assert_eq!(newton_events, m.attempts);
    let jsonl = mc.render_jsonl();
    assert_eq!(jsonl.lines().count(), mc.events().len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"event\":\"") && line.ends_with('}'), "{line}");
    }

    // The summary footer renders every headline number.
    let s = m.summary();
    assert!(s.contains("total solves      : 16"));
    assert!(s.contains("analysis points   : tran 10, ac 2, sweep 3, noise 0"));
}

#[test]
fn no_convergence_error_is_diagnosable() {
    // Current forced into a node whose only outlet is a reverse-biased
    // diode: unsolvable at any realistic gmin under damping, so the
    // ladder engages and the final error must say where it died.
    let t = tech();
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.isource("I1", Netlist::GROUND, a, 1e-6);
    nl.diode("D1", Netlist::GROUND, a, 1e-15, 1.0);
    let opts = NewtonOptions::default();
    let mut mc = MetricsCollector::new(TraceMode::Summary);
    let err = DcOperatingPoint::solve_traced(&nl, &t, &opts, &mut mc).unwrap_err();
    match &err {
        SimError::NoConvergence {
            iterations,
            residual,
            max_delta,
            gmin,
        } => {
            assert_eq!(*iterations, opts.max_iter);
            assert!(residual.is_finite() && *residual > 0.0);
            assert!(max_delta.is_finite() && *max_delta > 0.0);
            assert!(*gmin > 0.0);
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
    // Rendered message carries the full trace context and a hint.
    let msg = err.to_string();
    assert!(msg.contains("A"), "{msg}");
    assert!(msg.contains("gmin"), "{msg}");
    assert!(msg.contains("hint:"), "{msg}");
    // The collector saw the ladder engage before the failure.
    assert_eq!(mc.metrics().gmin_fallbacks, 1);
    assert!(mc.metrics().failures >= 1);
}
