//! A malformed `ULP_LINT` must surface as an error from every checked
//! analysis, never as a panic. The variable is process-wide, so this
//! binary holds exactly one test.

use ulp_device::Technology;
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::{Netlist, SimError};

#[test]
fn malformed_ulp_lint_is_an_error_not_a_panic() {
    std::env::set_var("ULP_LINT", "tpology=deny");
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.vsource("V1", a, Netlist::GROUND, 1.0);
    nl.resistor("R1", a, Netlist::GROUND, 1e3);
    let err = DcOperatingPoint::solve(&nl, &Technology::default())
        .expect_err("a malformed ULP_LINT must fail the analysis gate");
    let SimError::BadParameter(msg) = &err else {
        panic!("expected BadParameter, got {err:?}");
    };
    assert!(msg.contains("ULP_LINT"), "{msg}");
    assert!(msg.contains("`tpology`"), "{msg}");
}
