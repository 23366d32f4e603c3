//! Soundness of the interval circuit certifier, checked against the
//! concrete solvers it makes claims about:
//!
//! * the certified solution box must contain the concrete DC solution
//!   (dense *and* sparse path) for every builder netlist and for
//!   arbitrary random resistor ladders;
//! * `proved-nonsingular` must mean what it says: no die drawn from
//!   the certified PVT/mismatch box may ever produce
//!   [`SimError::Singular`], and every such die's solution must land
//!   inside the box;
//! * seeded-infeasible designs must be caught, feasible ones must not;
//! * the interval box variants of the electrical lints may only ever
//!   be *more* conservative than their point counterparts;
//! * every point, box and infeasibility finding keeps its bytes
//!   (severity, rule, message, hint, nodes and elements).

use proptest::prelude::*;
use rand::rngs::SplitMix64;
use ulp_device::load::PmosLoad;
use ulp_device::mismatch::MismatchRng;
use ulp_device::pvt::Corner;
use ulp_device::{Mosfet, Polarity, Technology};
use ulp_exec::Ensemble;
use ulp_spice::absint::{certify, Certified, CertifyOptions};
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::lint::{self, rule, LintConfig, LintContext};
use ulp_spice::mna::SolverKind;

use ulp_spice::{Netlist, SimError};

/// The damped Newton settings the lint driver uses for nA-class
/// replica loops — slow but robust, which is what a soundness sweep
/// wants.
fn damped(solver: SolverKind) -> NewtonOptions {
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        solver,
        ..NewtonOptions::default()
    }
}

fn assert_contained(name: &str, cert: &Certified, x: &[f64]) {
    let sol = cert.solution_box();
    assert_eq!(sol.len(), x.len(), "{name}: dimension mismatch");
    for (i, (&v, iv)) in x.iter().zip(sol).enumerate() {
        assert!(
            iv.contains(v),
            "{name}: unknown {i}: concrete {v} outside certified [{}, {}]",
            iv.lo(),
            iv.hi()
        );
    }
}

/// The STSCL buffer at the paper's design point (same fixture as the
/// crate-internal certifier tests).
fn stscl_cell(iss: f64, vsw: f64, vdd: f64) -> Netlist {
    let mut nl = Netlist::new();
    let vddn = nl.node("vdd");
    let inp = nl.node("inp");
    let inn = nl.node("inn");
    let outp = nl.node("outp");
    let outn = nl.node("outn");
    let cs = nl.node("cs");
    nl.vsource("VDD", vddn, Netlist::GROUND, vdd);
    nl.vsource("VINP", inp, Netlist::GROUND, 0.6);
    nl.vsource("VINN", inn, Netlist::GROUND, 0.6);
    let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
    nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, pair);
    nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, pair);
    nl.scl_load("RLP", vddn, outp, PmosLoad::new(vsw), iss);
    nl.scl_load("RLN", vddn, outn, PmosLoad::new(vsw), iss);
    nl.isource("ITAIL", cs, Netlist::GROUND, iss);
    nl
}

/// One die drawn from inside the certifier's qualification box: every
/// MOS gets Pelgrom-σ threshold/β shifts clamped to ±`k_sigma`σ, so
/// the drawn device provably lies inside the mismatch envelope the
/// certificate covers.
fn die_from_box(nl: &Netlist, tech: &Technology, k_sigma: f64, rng: &mut SplitMix64) -> Netlist {
    let mut out = nl.clone();
    let mut draws = MismatchRng::seed_from(rand::RngCore::next_u64(rng));
    out.map_mosfets(|dev| {
        let model = match dev.polarity {
            Polarity::Nmos => &tech.nmos,
            Polarity::Pmos => &tech.pmos,
        };
        let s_vt = MismatchRng::sigma_delta_vt(model, dev.w, dev.l);
        let s_beta = MismatchRng::sigma_delta_beta(model, dev.w, dev.l);
        let dvt = draws.standard_normal().clamp(-k_sigma, k_sigma) * s_vt;
        let dbeta = draws.standard_normal().clamp(-k_sigma, k_sigma) * s_beta;
        Mosfet {
            delta_vt: dev.delta_vt + dvt,
            delta_beta: dev.delta_beta + dbeta,
            ..*dev
        }
    });
    out
}

#[test]
fn builder_netlists_box_contains_dense_and_sparse_solutions() {
    let tech = Technology::default();
    for (name, nl) in ulp_bench::netlists::builder_netlists(&tech) {
        let cert = certify(&nl, &tech, &CertifyOptions::default()).unwrap();
        assert!(
            cert.proved_nonsingular(),
            "{name}: expected a proof, got {:?}",
            cert.verdict()
        );
        let dense = DcOperatingPoint::solve_with(&nl, &tech, &damped(SolverKind::Dense)).unwrap();
        assert_contained(&name, &cert, dense.solution());
        let sparse = DcOperatingPoint::solve_with(&nl, &tech, &damped(SolverKind::Sparse)).unwrap();
        assert_contained(&name, &cert, sparse.solution());
    }
}

#[test]
fn proved_nonsingular_means_no_die_is_singular() {
    // Randomized PVT/mismatch sweep on the exec engine: each trial
    // draws a corner, a junction temperature and a full set of
    // clamped mismatch shifts from inside the certified box, then
    // runs the concrete Newton/LU path. `proved-nonsingular` promises
    // that path never reports a singular matrix — and the certified
    // solution box must contain whatever solution it finds.
    let tech = Technology::default();
    let opts = CertifyOptions::default();
    for (name, nl) in ulp_bench::netlists::builder_netlists(&tech) {
        let cert = certify(&nl, &tech, &opts).unwrap();
        assert!(cert.proved_nonsingular(), "{name}: {:?}", cert.verdict());
        let results = Ensemble::new(48).seed(0x5EED).run(|ctx: &mut ulp_exec::TrialCtx| {
            let rng = ctx.rng();
            let corner = Corner::all()[(rand::RngCore::next_u64(rng) % 5) as usize];
            let span = opts.pvt.t_hi - opts.pvt.t_lo;
            let t = opts.pvt.t_lo + rand::Rng::gen::<f64>(rng) * span;
            let die_tech = tech.at_corner(corner).at_temperature(t);
            let die = die_from_box(&nl, &die_tech, opts.pvt.k_sigma, rng);
            match DcOperatingPoint::solve_with(&die, &die_tech, &damped(SolverKind::Dense)) {
                Ok(op) => Some(op.solution().to_vec()),
                Err(SimError::Singular { step, unknown, .. }) => {
                    panic!("certified netlist went singular at step {step} ({unknown})")
                }
                // Convergence is not part of the nonsingularity claim.
                Err(_) => None,
            }
        });
        for sol in results.into_iter().filter_map(|r| r.unwrap()) {
            assert_contained(&name, &cert, &sol);
        }
    }
}

#[test]
fn seeded_infeasible_designs_are_caught() {
    let tech = Technology::default();
    // Supply far below the proven minimum over the whole box.
    let starved = stscl_cell(1e-9, 0.2, 0.25);
    let cert = certify(&starved, &tech, &CertifyOptions::default()).unwrap();
    assert!(cert.proved_infeasible(), "starved supply must be caught");

    // 50 mV of swing into a next-stage gate: below the steering
    // requirement at every temperature in the box.
    let mut cascade = stscl_cell(1e-9, 0.05, 1.0);
    let outp = cascade.node("outp");
    let out2 = cascade.node("out2");
    let cs2 = cascade.node("cs2");
    let vddn = cascade.node("vdd");
    let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
    cascade.mosfet("M3", out2, outp, cs2, Netlist::GROUND, pair);
    cascade.scl_load("RL2", vddn, out2, PmosLoad::new(0.05), 1e-9);
    cascade.isource("ITAIL2", cs2, Netlist::GROUND, 1e-9);
    let cert = certify(&cascade, &tech, &CertifyOptions::default()).unwrap();
    assert!(cert.proved_infeasible(), "starved swing must be caught");

    // The paper's design point is feasible and must never be flagged.
    let good = stscl_cell(1e-9, 0.2, 1.0);
    let cert = certify(&good, &tech, &CertifyOptions::default()).unwrap();
    assert!(!cert.proved_infeasible(), "feasible design falsely flagged");
}

#[test]
fn box_lints_never_less_conservative_than_point_lints() {
    // The five (point rule → box rule) pairs: whenever the point lint
    // fires on the nominal die, the interval variant must fire too —
    // the point always lies inside the box.
    const PAIRS: [(&str, &str); 5] = [
        (rule::WEAK_INVERSION, rule::WEAK_INVERSION_BOX),
        (rule::SWING_COMPATIBILITY, rule::SWING_COMPATIBILITY_BOX),
        (rule::VDD_HEADROOM, rule::VDD_HEADROOM_BOX),
        (rule::MISMATCH_BUDGET, rule::MISMATCH_BUDGET_BOX),
        (rule::RC_TIME_STEP, rule::RC_TIME_STEP_BOX),
    ];
    let tech = Technology::default();
    let config = LintConfig::default();
    // Stressed variants of the buffer, each tripping different rules:
    // strong inversion (huge ISS), starved headroom, incompatible
    // swing, and a transient step far above the fastest RC.
    let mut cells = vec![
        ("strong", stscl_cell(1e-4, 0.2, 1.0)),
        ("starved", stscl_cell(1e-9, 0.2, 0.4)),
        ("narrow-swing", stscl_cell(1e-9, 0.02, 1.0)),
        ("nominal", stscl_cell(1e-9, 0.2, 1.0)),
    ];
    for (_, nl) in cells.iter_mut() {
        let outp = nl.node("outp");
        nl.capacitor("CL", outp, Netlist::GROUND, 1e-12);
    }
    let dt = 1e-3;
    for (label, nl) in &cells {
        let cx = LintContext::with_tech(nl, &tech).with_dt(dt);
        let point = lint::run_ctx(&cx, &config);
        let opts = CertifyOptions {
            dt: Some(dt),
            ..CertifyOptions::default()
        };
        let cert = certify(nl, &tech, &opts).unwrap();
        for (point_rule, box_rule) in PAIRS {
            let point_fired = point.diagnostics().iter().any(|d| d.rule == point_rule);
            let box_fired = cert.diagnostics().iter().any(|d| d.rule == box_rule);
            assert!(
                !point_fired || box_fired,
                "{label}: point rule `{point_rule}` fired but box rule \
                 `{box_rule}` did not — box variant less conservative"
            );
        }
    }
}

/// Adds a second stage of `polarity` whose gates hang on the first
/// stage's outputs: pair `M3`/`M4` (1 µm / 0.5 µm, shared source
/// `cs2`), loads `RL2P`/`RL2N` swinging `vsw2` at `iss2`, tail `ITAIL2`.
fn second_stage(nl: &mut Netlist, polarity: Polarity, vsw2: f64, iss2: f64) {
    let vddn = nl.node("vdd");
    let outp = nl.node("outp");
    let outn = nl.node("outn");
    let o2p = nl.node("o2p");
    let o2n = nl.node("o2n");
    let cs2 = nl.node("cs2");
    let pair = Mosfet::new(polarity, 1e-6, 0.5e-6);
    nl.mosfet("M3", o2n, outp, cs2, Netlist::GROUND, pair);
    nl.mosfet("M4", o2p, outn, cs2, Netlist::GROUND, pair);
    nl.scl_load("RL2P", vddn, o2p, PmosLoad::new(vsw2), iss2);
    nl.scl_load("RL2N", vddn, o2n, PmosLoad::new(vsw2), iss2);
    nl.isource("ITAIL2", cs2, Netlist::GROUND, iss2);
}

/// The stressed cells of [`electrical_findings_are_byte_stable`]: each
/// trips a different subset of the electrical rules. The second member
/// is the planned transient step handed to both the point lint and the
/// certifier.
fn golden_cells() -> Vec<(&'static str, Netlist, Option<f64>)> {
    // Over-biased pair: IC far above the weak-inversion bound.
    let iss_100u = stscl_cell(100e-6, 0.2, 1.0);
    // Supply below the stack's need at every corner and on every die.
    let vdd_250m = stscl_cell(1e-9, 0.2, 0.25);
    // 50 mV of swing into a next-stage gate.
    let mut cascade_50m = stscl_cell(1e-9, 0.05, 1.0);
    let outp = cascade_50m.node("outp");
    let out2 = cascade_50m.node("out2");
    let cs2 = cascade_50m.node("cs2");
    let vddn = cascade_50m.node("vdd");
    let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
    cascade_50m.mosfet("M3", out2, outp, cs2, Netlist::GROUND, pair);
    cascade_50m.scl_load("RL2", vddn, out2, PmosLoad::new(0.05), 1e-9);
    cascade_50m.isource("ITAIL2", cs2, Netlist::GROUND, 1e-9);
    // A 0.1 µm × 0.1 µm pair: Pelgrom sigma of 50 mV.
    let mut tiny_pair = Netlist::new();
    let vddn = tiny_pair.node("vdd");
    let inp = tiny_pair.node("inp");
    let inn = tiny_pair.node("inn");
    let outp = tiny_pair.node("outp");
    let outn = tiny_pair.node("outn");
    let cs = tiny_pair.node("cs");
    tiny_pair.vsource("VDD", vddn, Netlist::GROUND, 1.0);
    tiny_pair.vsource("VINP", inp, Netlist::GROUND, 0.6);
    tiny_pair.vsource("VINN", inn, Netlist::GROUND, 0.6);
    let tiny = Mosfet::new(Polarity::Nmos, 0.1e-6, 0.1e-6);
    tiny_pair.mosfet("M1", outn, inp, cs, Netlist::GROUND, tiny);
    tiny_pair.mosfet("M2", outp, inn, cs, Netlist::GROUND, tiny);
    tiny_pair.scl_load("RLP", vddn, outp, PmosLoad::new(0.2), 1e-9);
    tiny_pair.scl_load("RLN", vddn, outn, PmosLoad::new(0.2), 1e-9);
    tiny_pair.isource("ITAIL", cs, Netlist::GROUND, 1e-9);
    // The nominal cell with a 1 pF load, stepped at 1 ms.
    let mut rc_1p = stscl_cell(1e-9, 0.2, 1.0);
    let outp = rc_1p.node("outp");
    rc_1p.capacitor("CL", outp, Netlist::GROUND, 1e-12);
    // A diode-connected mirror whose bias comes from a 50 µA reference.
    let mut mirror = Netlist::new();
    let vddn = mirror.node("vdd");
    let vbn = mirror.node("vbn");
    mirror.vsource("VDD", vddn, Netlist::GROUND, 1.0);
    mirror.isource("IREF", vddn, vbn, 50e-6);
    let diode = Mosfet::new(Polarity::Nmos, 2e-6, 2e-6);
    mirror.mosfet("MREF", vbn, vbn, Netlist::GROUND, Netlist::GROUND, diode);
    // A PMOS-gated second stage: 142 mV steers the NMOS pair (4·n·UT
    // with n = 1.35) but not the PMOS one (n = 1.40), and the 75 mV
    // second-stage swing clears the NMOS 10σ budget but not the PMOS
    // one, so both rules must read the PMOS card.
    let mut pmos_stage = stscl_cell(1e-9, 0.142, 1.0);
    second_stage(&mut pmos_stage, Polarity::Pmos, 0.075, 1e-6);
    vec![
        ("iss-100u", iss_100u, None),
        ("vdd-250m", vdd_250m, None),
        ("cascade-50m", cascade_50m, None),
        ("pair-0.1u", tiny_pair, None),
        ("rc-1p-1ms", rc_1p, Some(1e-3)),
        ("mirror-50u", mirror, None),
        ("pmos-stage", pmos_stage, None),
    ]
}

/// One line per finding: the stable `severity[rule]: message; hint: …`
/// rendering, then the node and element lists.
fn golden_lines(out: &mut String, report: &ulp_spice::ErcReport) {
    for d in report.diagnostics() {
        out.push_str(&format!("{d} | nodes {:?} | elements {:?}\n", d.nodes, d.elements));
    }
}

#[test]
fn electrical_findings_are_byte_stable() {
    let tech = Technology::default();
    let config = LintConfig::new();
    let mut got = String::new();
    let mut reports = Vec::new();
    for (label, nl, dt) in golden_cells() {
        let mut cx = LintContext::with_tech(&nl, &tech);
        if let Some(dt) = dt {
            cx = cx.with_dt(dt);
        }
        let point = lint::run_ctx(&cx, &config);
        let opts = CertifyOptions {
            dt,
            ..CertifyOptions::default()
        };
        let boxed = certify(&nl, &tech, &opts).unwrap().report(&config);
        got.push_str(&format!("# {label}: lint\n"));
        golden_lines(&mut got, &point);
        got.push_str(&format!("# {label}: certify\n"));
        golden_lines(&mut got, &boxed);
        reports.push(point);
        reports.push(boxed);
    }
    assert_eq!(got, GOLDEN);

    // Every emitted rule is registered, and the cells cover all twelve
    // point / box / infeasibility kinds (the two infeasibility proofs,
    // supply and swing, are told apart by their subject).
    let mut kinds: Vec<String> = Vec::new();
    for d in reports.iter().flat_map(|r| r.diagnostics()) {
        assert!(lint::rule_info(d.rule).is_some(), "unregistered rule {}", d.rule);
        let kind = match d.rule {
            rule::PROVED_INFEASIBLE if d.message.starts_with("supply") => "proved-infeasible/supply",
            rule::PROVED_INFEASIBLE => "proved-infeasible/swing",
            code => code,
        };
        if !kinds.iter().any(|k| k == kind) {
            kinds.push(kind.to_string());
        }
    }
    for kind in [
        rule::WEAK_INVERSION,
        rule::SWING_COMPATIBILITY,
        rule::VDD_HEADROOM,
        rule::MISMATCH_BUDGET,
        rule::RC_TIME_STEP,
        rule::WEAK_INVERSION_BOX,
        rule::SWING_COMPATIBILITY_BOX,
        rule::VDD_HEADROOM_BOX,
        rule::MISMATCH_BUDGET_BOX,
        rule::RC_TIME_STEP_BOX,
        "proved-infeasible/supply",
        "proved-infeasible/swing",
    ] {
        assert!(kinds.iter().any(|k| k == kind), "no cell fires {kind}: {kinds:?}");
    }
}

/// The findings of [`golden_cells`], byte for byte: the point lint then
/// the certifier report of each cell.
const GOLDEN: &str = r#"# iss-100u: lint
warning[vdd-headroom]: supply `VDD` = 1.00 V is below the 1.50 V the STSCL stack under `RLN` needs at the SS corner; hint: VDD must cover swing + pair VGS + tail saturation across corners; raise VDD or cut ISS/VSW | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[vdd-headroom]: supply `VDD` = 1.00 V is below the 1.50 V the STSCL stack under `RLP` needs at the SS corner; hint: VDD must cover swing + pair VGS + tail saturation across corners; raise VDD or cut ISS/VSW | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
warning[weak-inversion]: `M1` would run at inversion coefficient 92.363 at its inferred bias of 1.000e-4 A — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias current; the STSCL delay and swing laws assume IC ≪ 1 | nodes [] | elements ["M1"]
warning[weak-inversion]: `M2` would run at inversion coefficient 92.363 at its inferred bias of 1.000e-4 A — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias current; the STSCL delay and swing laws assume IC ≪ 1 | nodes [] | elements ["M2"]
# iss-100u: certify
warning[proved-infeasible]: supply `VDD` = 1.00 V is below the proven minimum [1.05, 1.86] V the STSCL stack under `RLN` needs over 5 corners × [233, 358] K × ±6σ mismatch — infeasible on every die; hint: a DSE may prune this point without simulation; raise VDD or cut ISS/VSW to re-enter the feasible region | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[proved-infeasible]: supply `VDD` = 1.00 V is below the proven minimum [1.05, 1.86] V the STSCL stack under `RLP` needs over 5 corners × [233, 358] K × ±6σ mismatch — infeasible on every die; hint: a DSE may prune this point without simulation; raise VDD or cut ISS/VSW to re-enter the feasible region | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.86 V the STSCL stack under `RLN` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.86 V the STSCL stack under `RLP` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
warning[weak-inversion-box]: `M1` may reach inversion coefficient 127.206 at its inferred bias of 1.000e-4 A somewhere in 5 corners × [233, 358] K × ±6σ mismatch — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias so the whole box stays in weak inversion | nodes [] | elements ["M1"]
warning[weak-inversion-box]: `M2` may reach inversion coefficient 127.206 at its inferred bias of 1.000e-4 A somewhere in 5 corners × [233, 358] K × ±6σ mismatch — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias so the whole box stays in weak inversion | nodes [] | elements ["M2"]
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via structural M-matrix: no die in the box can produce a singular system | nodes [] | elements []
# vdd-250m: lint
warning[vdd-headroom]: supply `VDD` = 0.25 V is below the 0.55 V the STSCL stack under `RLN` needs at the SS corner; hint: VDD must cover swing + pair VGS + tail saturation across corners; raise VDD or cut ISS/VSW | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[vdd-headroom]: supply `VDD` = 0.25 V is below the 0.55 V the STSCL stack under `RLP` needs at the SS corner; hint: VDD must cover swing + pair VGS + tail saturation across corners; raise VDD or cut ISS/VSW | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
# vdd-250m: certify
warning[proved-infeasible]: supply `VDD` = 0.25 V is below the proven minimum [0.29, 0.74] V the STSCL stack under `RLN` needs over 5 corners × [233, 358] K × ±6σ mismatch — infeasible on every die; hint: a DSE may prune this point without simulation; raise VDD or cut ISS/VSW to re-enter the feasible region | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[proved-infeasible]: supply `VDD` = 0.25 V is below the proven minimum [0.29, 0.74] V the STSCL stack under `RLP` needs over 5 corners × [233, 358] K × ±6σ mismatch — infeasible on every die; hint: a DSE may prune this point without simulation; raise VDD or cut ISS/VSW to re-enter the feasible region | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 0.25 V may fall below the 0.74 V the STSCL stack under `RLN` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 0.25 V may fall below the 0.74 V the STSCL stack under `RLP` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via structural M-matrix: no die in the box can produce a singular system | nodes [] | elements []
# cascade-50m: lint
warning[mismatch-budget]: pair `M1`/`M2` has a Pelgrom offset sigma of 7.1 mV against a 50 mV swing (margin below 10·σ); hint: grow W·L of the pair (σ ∝ 1/√(WL)) or raise the swing; offsets this large eat the noise margin the paper budgets | nodes [] | elements ["M1", "M2"]
warning[swing-compatibility]: load `RLP` swings 50 mV on node `outp` but the driven pair device `M3` needs 140 mV (4·n·UT) to steer; hint: raise RL·ISS (the paper designs for 150–200 mV) or the next stage will never switch completely | nodes ["outp"] | elements ["RLP", "M3"]
# cascade-50m: certify
warning[mismatch-budget-box]: pair `M1`/`M2` carries a Pelgrom offset sigma of 7.1 mV against a 50 mV swing — the ±6σ box eats the noise margin; hint: grow W·L of the pair or raise the swing | nodes [] | elements ["M1", "M2"]
warning[proved-infeasible]: load `RLP` swings 50 mV on node `outp` but the driven pair device `M3` needs at least 108 mV at every temperature in 5 corners × [233, 358] K × ±6σ mismatch — infeasible on every die; hint: a DSE may prune this point without simulation; raise RL·ISS to restore complete steering | nodes ["outp"] | elements ["RLP", "M3"]
warning[swing-compatibility-box]: load `RLP` swings 50 mV on node `outp` but the driven pair device `M3` may need up to 167 mV to steer somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise RL·ISS to cover the hot end of the box | nodes ["outp"] | elements ["RLP", "M3"]
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via interval LU: no die in the box can produce a singular system | nodes [] | elements []
# pair-0.1u: lint
warning[mismatch-budget]: pair `M1`/`M2` has a Pelgrom offset sigma of 50.0 mV against a 200 mV swing (margin below 10·σ); hint: grow W·L of the pair (σ ∝ 1/√(WL)) or raise the swing; offsets this large eat the noise margin the paper budgets | nodes [] | elements ["M1", "M2"]
# pair-0.1u: certify
warning[mismatch-budget-box]: pair `M1`/`M2` carries a Pelgrom offset sigma of 50.0 mV against a 200 mV swing — the ±6σ box eats the noise margin; hint: grow W·L of the pair or raise the swing | nodes [] | elements ["M1", "M2"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.04 V the STSCL stack under `RLN` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLN", "M1", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.04 V the STSCL stack under `RLP` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RLP", "M2", "VDD"]
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via structural M-matrix: no die in the box can produce a singular system | nodes [] | elements []
# rc-1p-1ms: lint
warning[rc-time-step]: transient step 1.000e-3 s resolves the fastest RC time constant (1.389e-4 s) with fewer than 4 points; hint: shrink dt (see tran::suggest_dt) or the integrator will smear the edge; backward Euler overdamps, trapezoidal rings | nodes [] | elements []
# rc-1p-1ms: certify
warning[rc-time-step-box]: transient step 1.000e-3 s may resolve the fastest RC time constant (as low as 1.389e-4 s over the box) with fewer than 4 points; hint: shrink dt to cover the fast end of the box | nodes [] | elements []
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via structural M-matrix: no die in the box can produce a singular system | nodes [] | elements []
# mirror-50u: lint
warning[weak-inversion]: `MREF` would run at inversion coefficient 92.363 at its inferred bias of 5.000e-5 A — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias current; the STSCL delay and swing laws assume IC ≪ 1 | nodes [] | elements ["MREF"]
# mirror-50u: certify
warning[weak-inversion-box]: `MREF` may reach inversion coefficient 120.012 at its inferred bias of 5.000e-5 A somewhere in 5 corners × [233, 358] K × ±6σ mismatch — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias so the whole box stays in weak inversion | nodes [] | elements ["MREF"]
info[proved-nonsingular]: MNA Jacobian proved nonsingular over 5 corners × [233, 358] K × ±6σ mismatch via structural M-matrix: no die in the box can produce a singular system | nodes [] | elements []
# pmos-stage: lint
warning[mismatch-budget]: pair `M3`/`M4` has a Pelgrom offset sigma of 7.8 mV against a 75 mV swing (margin below 10·σ); hint: grow W·L of the pair (σ ∝ 1/√(WL)) or raise the swing; offsets this large eat the noise margin the paper budgets | nodes [] | elements ["M3", "M4"]
warning[swing-compatibility]: load `RLN` swings 142 mV on node `outn` but the driven pair device `M4` needs 145 mV (4·n·UT) to steer; hint: raise RL·ISS (the paper designs for 150–200 mV) or the next stage will never switch completely | nodes ["outn"] | elements ["RLN", "M4"]
warning[swing-compatibility]: load `RLP` swings 142 mV on node `outp` but the driven pair device `M3` needs 145 mV (4·n·UT) to steer; hint: raise RL·ISS (the paper designs for 150–200 mV) or the next stage will never switch completely | nodes ["outp"] | elements ["RLP", "M3"]
warning[weak-inversion]: `M3` would run at inversion coefficient 3.817 at its inferred bias of 1.000e-6 A — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias current; the STSCL delay and swing laws assume IC ≪ 1 | nodes [] | elements ["M3"]
warning[weak-inversion]: `M4` would run at inversion coefficient 3.817 at its inferred bias of 1.000e-6 A — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias current; the STSCL delay and swing laws assume IC ≪ 1 | nodes [] | elements ["M4"]
# pmos-stage: certify
warning[mismatch-budget-box]: pair `M3`/`M4` carries a Pelgrom offset sigma of 7.8 mV against a 75 mV swing — the ±6σ box eats the noise margin; hint: grow W·L of the pair or raise the swing | nodes [] | elements ["M3", "M4"]
warning[swing-compatibility-box]: load `RLN` swings 142 mV on node `outn` but the driven pair device `M4` may need up to 173 mV to steer somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise RL·ISS to cover the hot end of the box | nodes ["outn"] | elements ["RLN", "M4"]
warning[swing-compatibility-box]: load `RLP` swings 142 mV on node `outp` but the driven pair device `M3` may need up to 173 mV to steer somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise RL·ISS to cover the hot end of the box | nodes ["outp"] | elements ["RLP", "M3"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.01 V the STSCL stack under `RL2N` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RL2N", "M3", "VDD"]
warning[vdd-headroom-box]: supply `VDD` = 1.00 V may fall below the 1.01 V the STSCL stack under `RL2P` needs somewhere in 5 corners × [233, 358] K × ±6σ mismatch; hint: raise VDD or cut ISS/VSW to cover the whole box | nodes ["vdd"] | elements ["RL2P", "M4", "VDD"]
warning[weak-inversion-box]: `M3` may reach inversion coefficient 5.356 at its inferred bias of 1.000e-6 A somewhere in 5 corners × [233, 358] K × ±6σ mismatch — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias so the whole box stays in weak inversion | nodes [] | elements ["M3"]
warning[weak-inversion-box]: `M4` may reach inversion coefficient 5.356 at its inferred bias of 1.000e-6 A somewhere in 5 corners × [233, 358] K × ±6σ mismatch — outside weak inversion (bound 0.1); hint: widen W/L or reduce the bias so the whole box stays in weak inversion | nodes [] | elements ["M4"]
info[unproven]: nonsingularity unproven over 5 corners × [233, 358] K × ±6σ mismatch: every proof method failed at the TT corner (box too wide); hint: not a defect — shrink the temperature/mismatch box or tighten the netlist's operating range to let a proof go through | nodes [] | elements []
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole soundness property on arbitrary linear circuits:
    /// for any random resistor ladder (random stage count, random
    /// values, random extra shunts), the certified box contains the
    /// concrete solution from both linear-algebra paths.
    #[test]
    fn certified_box_contains_concrete_solution(
        seed in 0u64..5_000,
        stages in 2usize..12,
        vdd_mv in 100u32..1_800,
    ) {
        let tech = Technology::default();
        let mut rng = <SplitMix64 as rand::SeedableRng>::seed_from_u64(seed);
        fn draw(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
            lo + rand::Rng::gen::<f64>(rng) * (hi - lo)
        }
        let mut nl = Netlist::new();
        let top = nl.node("top");
        nl.vsource("V1", top, Netlist::GROUND, f64::from(vdd_mv) * 1e-3);
        let mut prev = top;
        for i in 0..stages {
            let n = nl.node(&format!("n{i}"));
            let r = draw(&mut rng, 10.0, 1e6);
            nl.resistor(&format!("R{i}"), prev, n, r);
            // Random shunts keep the topology from being a pure chain.
            if rand::Rng::gen::<bool>(&mut rng) {
                let rs = draw(&mut rng, 10.0, 1e6);
                nl.resistor(&format!("RS{i}"), n, Netlist::GROUND, rs);
            }
            prev = n;
        }
        let rt = draw(&mut rng, 10.0, 1e6);
        nl.resistor("RT", prev, Netlist::GROUND, rt);
        let cert = certify(&nl, &tech, &CertifyOptions::default()).unwrap();
        prop_assert!(cert.proved_nonsingular(), "{:?}", cert.verdict());
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let op = DcOperatingPoint::solve_with(&nl, &tech, &damped(solver)).unwrap();
            let sol = cert.solution_box();
            prop_assert_eq!(sol.len(), op.solution().len());
            for (i, (&v, iv)) in op.solution().iter().zip(sol).enumerate() {
                prop_assert!(
                    iv.contains(v),
                    "seed {}: unknown {}: {} outside [{}, {}]",
                    seed, i, v, iv.lo(), iv.hi()
                );
            }
        }
    }
}
