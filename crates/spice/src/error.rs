//! Simulator error type.
//!
//! Every variant's `Display` ends with a one-line fix hint, and the
//! variants that arise from circuit structure carry the names of the
//! nodes/elements involved: [`SimError::Erc`] holds the full static
//! analysis report, and [`SimError::Singular`] names the MNA unknown
//! whose equation collapsed (mapped from the raw elimination step via
//! [`crate::mna::unknown_name`]).

use crate::diag::ErcReport;
use std::error::Error;
use std::fmt;
use ulp_num::lu::SolveError;

/// Errors produced by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The netlist failed the pre-solve electrical rule check. The
    /// report names every offending node and element; see
    /// [`crate::erc`].
    Erc(ErcReport),
    /// The MNA matrix went singular during factorisation, and the
    /// offending unknown could be mapped back to the circuit.
    Singular {
        /// Elimination step (= MNA unknown index) of the zero pivot.
        step: usize,
        /// What the unknown is: `voltage of node \`out\`` or
        /// `branch current of \`V1\``.
        unknown: String,
        /// True when the unknown is a branch current (voltage-source
        /// loop territory) rather than a node voltage (floating-node
        /// territory).
        is_branch: bool,
    },
    /// The MNA system could not be solved and no netlist context was
    /// available to name the unknown (dimension mismatches, or singular
    /// systems reported by the raw linear-algebra layer).
    LinearSolve(SolveError),
    /// Newton iteration failed to converge within the iteration budget,
    /// even after gmin stepping. Carries the trace context of the
    /// failing attempt so the failure is diagnosable.
    NoConvergence {
        /// Iterations used in the failing attempt.
        iterations: usize,
        /// ∞-norm KCL residual at the last iterate, A (see
        /// [`crate::mna::MnaWorkspace::residual_inf`]).
        residual: f64,
        /// Last damped maximum voltage update, V.
        max_delta: f64,
        /// The gmin the failing attempt ran at, S — the target gmin for
        /// a direct attempt, or the ladder rung that gave up.
        gmin: f64,
    },
    /// The netlist has no unknowns — no non-ground node and no
    /// voltage-defined element — so there is no system to solve. An
    /// empty `.ulp` deck (`.end` alone) flattens to exactly this.
    EmptyNetlist,
    /// An analysis parameter was invalid (message explains which).
    BadParameter(String),
    /// A named element or node was not found in the netlist.
    NotFound(String),
}

impl SimError {
    /// Upgrades a raw linear-solve failure with netlist context:
    /// singular pivots become [`SimError::Singular`] with the offending
    /// node or branch named; other failures pass through as
    /// [`SimError::LinearSolve`].
    pub fn from_solve(nl: &crate::netlist::Netlist, e: SolveError) -> Self {
        if let SolveError::Singular { step } = e {
            if let Some((unknown, is_branch)) = crate::mna::unknown_name(nl, step) {
                return SimError::Singular {
                    step,
                    unknown,
                    is_branch,
                };
            }
        }
        SimError::LinearSolve(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Erc(report) => {
                writeln!(
                    f,
                    "electrical rule check failed with {} error(s):",
                    report.count(crate::diag::Severity::Error)
                )?;
                writeln!(f, "{report}")?;
                write!(
                    f,
                    "hint: fix the diagnostics above, or call \
                     dcop::newton_solve_gmin_stepping directly to solve a \
                     deliberately degenerate netlist without the ERC gate"
                )
            }
            SimError::Singular {
                step,
                unknown,
                is_branch,
            } => {
                let hint = if *is_branch {
                    "a loop of voltage-defined elements leaves this current \
                     undetermined; break the loop or add series resistance"
                } else {
                    "nothing fixes this voltage at DC; add a conductive path to \
                     ground or check device connectivity"
                };
                write!(
                    f,
                    "singular MNA matrix at elimination step {step} ({unknown}); hint: {hint}"
                )
            }
            SimError::LinearSolve(e) => write!(
                f,
                "linear solve failed: {e}; hint: run ulp_spice::erc::check (or the \
                 full ulp_spice::lint::run) on the netlist to locate the \
                 structural cause"
            ),
            SimError::NoConvergence {
                iterations,
                residual,
                max_delta,
                gmin,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations at \
                 gmin {gmin:.1e} S (KCL residual {residual:.3e} A, last update \
                 {max_delta:.3e} V); hint: raise NewtonOptions::max_iter, lower \
                 max_step, or loosen vtol"
            ),
            SimError::EmptyNetlist => write!(
                f,
                "netlist has no unknowns (no non-ground node and no voltage-defined \
                 element); hint: nothing to analyse — check that the deck's element \
                 cards were read"
            ),
            SimError::BadParameter(msg) => write!(
                f,
                "bad analysis parameter: {msg}; hint: see the analysis options type \
                 for the valid range"
            ),
            SimError::NotFound(what) => write!(
                f,
                "not found in netlist: {what}; hint: names are case-sensitive and \
                 branch currents exist only for voltage-defined elements"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::LinearSolve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for SimError {
    fn from(e: SolveError) -> Self {
        SimError::LinearSolve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    #[test]
    fn display_variants_include_hints() {
        let e = SimError::from(SolveError::NotSquare);
        assert!(e.to_string().contains("linear solve"));
        assert!(e.to_string().contains("hint:"));
        assert!(e.source().is_some());
        let n = SimError::NoConvergence {
            iterations: 100,
            residual: 1e-3,
            max_delta: 2e-4,
            gmin: 1e-9,
        };
        assert!(n.to_string().contains("100"));
        assert!(n.to_string().contains("1.000e-3 A"), "{n}");
        assert!(n.to_string().contains("2.000e-4 V"), "{n}");
        assert!(n.to_string().contains("1.0e-9 S"), "{n}");
        assert!(n.to_string().contains("hint:"));
        assert!(SimError::BadParameter("dt".into()).to_string().contains("dt"));
        assert!(SimError::NotFound("V1".into()).to_string().contains("V1"));
    }

    #[test]
    fn from_solve_names_the_failed_node() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let out = nl.node("out");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, out, 1e3);
        // Unknown ordering: v(a)=0, v(out)=1, i(V1)=2.
        let e = SimError::from_solve(&nl, SolveError::Singular { step: 1 });
        match &e {
            SimError::Singular {
                step,
                unknown,
                is_branch,
            } => {
                assert_eq!(*step, 1);
                assert!(unknown.contains("`out`"), "{unknown}");
                assert!(!is_branch);
            }
            other => panic!("expected Singular, got {other:?}"),
        }
        assert!(e.to_string().contains("`out`"));
    }

    #[test]
    fn from_solve_names_the_failed_branch() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let e = SimError::from_solve(&nl, SolveError::Singular { step: 1 });
        match &e {
            SimError::Singular {
                unknown, is_branch, ..
            } => {
                assert!(unknown.contains("`V1`"), "{unknown}");
                assert!(is_branch);
            }
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn from_solve_passes_through_without_context() {
        let nl = Netlist::new();
        // Step out of range for an empty netlist → raw error preserved.
        let e = SimError::from_solve(&nl, SolveError::Singular { step: 7 });
        assert!(matches!(e, SimError::LinearSolve(_)));
        let d = SimError::from_solve(
            &nl,
            SolveError::DimensionMismatch {
                expected: 2,
                actual: 3,
            },
        );
        assert!(matches!(d, SimError::LinearSolve(_)));
    }

    #[test]
    fn erc_error_renders_report() {
        let mut nl = Netlist::new();
        let g = nl.node("gate");
        nl.resistor("R1", g, Netlist::GROUND, 1e3);
        let f = nl.node("float");
        nl.capacitor("C1", f, Netlist::GROUND, 1e-12);
        let report = crate::erc::check(&nl);
        let e = SimError::Erc(report);
        let msg = e.to_string();
        assert!(msg.contains("electrical rule check failed"));
        assert!(msg.contains("`float`"));
        assert!(msg.contains("hint:"));
    }
}
