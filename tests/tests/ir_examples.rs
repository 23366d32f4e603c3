//! End-to-end pipeline tests over the shipped `examples/*.ulp`
//! designs: parse → serialize round-trip → flatten → ERC → certify →
//! DC solve, plus deterministic sweep expansion on the `ulp-exec`
//! engine with byte-identical ledgers at 1 and 4 workers.

use std::path::PathBuf;
use ulp_device::Technology;
use ulp_exec::Ensemble;
use ulp_ir::{flatten, parse, SweepPlan};
use ulp_spice::absint::{self, CertifyOptions};
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples")
}

fn example_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(examples_dir())
        .expect("examples dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            (path.extension().is_some_and(|x| x == "ulp")).then(|| {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).expect("read example");
                (name, text)
            })
        })
        .collect();
    out.sort();
    assert!(
        out.iter().any(|(n, _)| n == "scl_buffer"),
        "examples/scl_buffer.ulp must ship"
    );
    assert!(
        out.iter().any(|(n, _)| n == "comp_doubletail"),
        "examples/comp_doubletail.ulp must ship"
    );
    out
}

/// The conservative damping the replica-class drivers use for nA-level
/// subthreshold bias points.
fn damped() -> NewtonOptions {
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        ..NewtonOptions::default()
    }
}

#[test]
fn every_example_round_trips_through_the_serializer() {
    for (name, text) in example_sources() {
        let design = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let canon = design.to_text();
        let reparsed = parse(&canon).unwrap_or_else(|e| panic!("{name} (canonical): {e}"));
        assert_eq!(design, reparsed, "{name}: round-trip mismatch");
        // The canonical form is a fixed point: serializing again is
        // byte-identical.
        assert_eq!(canon, reparsed.to_text(), "{name}: serializer not stable");
    }
}

#[test]
fn every_example_flattens_ercs_certifies_and_solves() {
    let tech = Technology::nominal();
    for (name, text) in example_sources() {
        let design = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let nl = flatten(&design).unwrap_or_else(|e| panic!("{name}: {e}"));
        ulp_spice::erc::gate(&nl).unwrap_or_else(|e| panic!("{name}: ERC: {e}"));
        let cert = absint::certify(&nl, &tech, &CertifyOptions::default())
            .unwrap_or_else(|e| panic!("{name}: certify: {e}"));
        // The buffer is a pure source-coupled stage and must admit the
        // structural proof. The comparator's cross-coupled latch breaks
        // the Z-pattern every proof method needs, so its honest verdict
        // is Unproven — which the certifier itself documents as "not a
        // defect". Pin both so a regression in either direction trips.
        if name == "comp_doubletail" {
            assert!(
                !cert.proved_nonsingular(),
                "{name}: cross-coupled latch unexpectedly proved — update this gate"
            );
        } else {
            assert!(
                cert.proved_nonsingular(),
                "{name}: certifier could not prove nonsingularity"
            );
        }
        assert!(!cert.proved_infeasible(), "{name}: proved infeasible");
        let op = DcOperatingPoint::solve_with(&nl, &tech, &damped())
            .unwrap_or_else(|e| panic!("{name}: dcop: {e}"));
        // Every unknown (node voltage and branch current) must be finite.
        for (i, v) in op.solution().iter().enumerate() {
            assert!(v.is_finite(), "{name}: unknown {i} is non-finite");
        }
    }
}

#[test]
fn comparator_reset_phase_pins_the_expected_levels() {
    let tech = Technology::nominal();
    let text = std::fs::read_to_string(examples_dir().join("comp_doubletail.ulp")).unwrap();
    let nl = flatten(&parse(&text).unwrap()).unwrap();
    let op = DcOperatingPoint::solve_with(&nl, &tech, &damped()).unwrap();
    let v = |name: &str| op.voltage(nl.find_node(name).expect(name));
    let vdd = v("vdd");
    // Reset phase: precharge PMOS on, so the stage-1 mids sit near VDD;
    // the coupling NMOS are then on, holding both outputs near ground.
    assert!(v("X1.midp") > 0.8 * vdd, "midp = {}", v("X1.midp"));
    assert!(v("X1.midn") > 0.8 * vdd, "midn = {}", v("X1.midn"));
    assert!(v("outp") < 0.2 * vdd, "outp = {}", v("outp"));
    assert!(v("outn") < 0.2 * vdd, "outn = {}", v("outn"));
}

#[test]
fn sweeps_run_identically_at_one_and_four_workers() {
    for (name, text) in example_sources() {
        let design = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let plan = SweepPlan::build(&design).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(plan.len() > 1, "{name}: sweep should expand to a grid");

        let run = |jobs: usize| {
            let plan = plan.clone();
            let (results, report) = Ensemble::new(plan.len())
                .seed(20260808)
                .jobs(jobs)
                .label(&format!("ir-sweep-{name}"))
                .run_with_report(move |ctx: &mut ulp_exec::TrialCtx| {
                    let point = plan.point(ctx.index());
                    let tech = point.tech.technology();
                    let op = DcOperatingPoint::solve_with(&point.netlist, &tech, &damped())
                        .expect("sweep point must solve");
                    // A deterministic per-point fingerprint: the label
                    // plus every unknown's bit pattern.
                    let mut fp = point.label();
                    for v in op.solution() {
                        fp.push_str(&format!(",{:016x}", v.to_bits()));
                    }
                    fp
                });
            let values: Vec<String> = results.into_iter().map(|r| r.unwrap()).collect();
            (values, report.counters_json())
        };

        let (serial, ledger1) = run(1);
        let (parallel, ledger4) = run(4);
        assert_eq!(serial, parallel, "{name}: sweep results depend on jobs");
        assert_eq!(ledger1, ledger4, "{name}: ledger bytes depend on jobs");
    }
}

#[test]
fn empty_deck_is_a_typed_error_in_every_analysis() {
    use ulp_spice::tran::{AdaptiveOptions, TranOptions, Transient};
    use ulp_spice::{Netlist, SimError};
    // An empty deck parses and flattens to a netlist with no unknowns;
    // every analysis must refuse it with a typed error, not a panic.
    let design = parse("* empty\n.end\n").expect("empty deck parses");
    let nl = flatten(&design).expect("empty deck flattens");
    assert_eq!(nl.unknown_count(), 0);
    let tech = Technology::default();
    for nl in [nl, Netlist::new()] {
        let dc = DcOperatingPoint::solve(&nl, &tech).map(|_| ());
        let fixed = Transient::run(&nl, &tech, &TranOptions::new(1e-6, 1e-8)).map(|_| ());
        let adaptive =
            Transient::run_adaptive(&nl, &tech, &AdaptiveOptions::new(1e-6, 1e-7)).map(|_| ());
        let cert = absint::certify(&nl, &tech, &CertifyOptions::default()).map(|_| ());
        for (analysis, r) in [
            ("dcop", dc),
            ("tran", fixed),
            ("adaptive tran", adaptive),
            ("certify", cert),
        ] {
            match r {
                Err(e @ SimError::EmptyNetlist) => assert!(e.to_string().contains("hint:")),
                other => panic!("{analysis}: expected EmptyNetlist, got {other:?}"),
            }
        }
    }
}
