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
//!   (severity, rule, message, hint, nodes and elements);
//! * on a fixed corpus, every verdict, solution-box bit and rendered
//!   certificate report stays as it is.

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
warning[rc-time-step]: transient step 1.000e-3 s resolves the fastest RC time constant (1.389e-4 s) with fewer than 4 points; hint: shrink dt to at most τ/4 = 3.474e-5 s or the integrator will smear the edge; backward Euler overdamps, trapezoidal rings | nodes [] | elements []
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

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A resistor ladder drawn from `seed`: 2–11 series stages, each with a
/// shunt to ground on a coin flip, values in 10 Ω … 1 MΩ.
fn seeded_ladder(seed: u64) -> Netlist {
    let mut rng = <SplitMix64 as rand::SeedableRng>::seed_from_u64(seed);
    let mut draw = |lo: f64, hi: f64| lo + rand::Rng::gen::<f64>(&mut rng) * (hi - lo);
    let mut nl = Netlist::new();
    let top = nl.node("top");
    nl.vsource("V1", top, Netlist::GROUND, draw(0.1, 1.8));
    let stages = 2 + (draw(0.0, 10.0) as usize);
    let mut prev = top;
    for i in 0..stages {
        let n = nl.node(&format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, n, draw(10.0, 1e6));
        if draw(0.0, 1.0) < 0.5 {
            nl.resistor(&format!("RS{i}"), n, Netlist::GROUND, draw(10.0, 1e6));
        }
        prev = n;
    }
    nl.resistor("RT", prev, Netlist::GROUND, draw(10.0, 1e6));
    nl
}

/// `stages` `scl_buf` cells (the cell of `examples/scl_buffer.ulp`) at
/// tail current `iss`, in cascade, written as `.ulp` text and
/// flattened: each stage's gates hang on the previous stage's outputs,
/// and the first pair is driven by the example's testbench: `vd` volts
/// split around a 0.6 V common mode by a pair of ±0.5 gain VCVS.
fn scl_chain(stages: usize, vd: f64, iss: &str) -> Netlist {
    let mut text = format!(
        ".default nmos w=1u l=0.5u\n\
         .subckt scl_buf vdd:in inp:in inn:in outp:out outn:out vsw=0.2 iss=1n cl=10f\n\
         M1 outn inp cs 0 nmos\n\
         M2 outp inn cs 0 nmos\n\
         ITAIL cs 0 dc iss\n\
         LP vdd outp vsw=vsw iss=iss\n\
         LN vdd outn vsw=vsw iss=iss\n\
         CLP outp 0 cl\n\
         CLN outn 0 cl\n\
         .ends\n\
         VDD vdd 0 dc 1.0\n\
         VCTL ctl 0 dc {vd}\n\
         VCM vcm 0 dc 0.6\n\
         EP o0p vcm ctl 0 0.5\n\
         EN o0n vcm ctl 0 -0.5\n"
    );
    for k in 1..=stages {
        let j = k - 1;
        let card = format!("X{k} vdd o{j}p o{j}n o{k}p o{k}n scl_buf iss={iss}\n");
        text.push_str(&card);
    }
    text.push_str(".end\n");
    ulp_ir::flatten(&ulp_ir::parse(&text).unwrap()).unwrap()
}

/// The certifier corpus of [`certifier_corpus_is_bit_stable`], each
/// netlist with the planned transient step it is certified under.
fn certifier_corpus() -> Vec<(String, Netlist, Option<f64>)> {
    let tech = Technology::default();
    let mut out = Vec::new();
    let mut rng = <SplitMix64 as rand::SeedableRng>::seed_from_u64(0xC0_12FE);
    for (name, nl) in ulp_bench::netlists::builder_netlists(&tech) {
        let die = die_from_box(&nl, &tech, 6.0, &mut rng);
        out.push((format!("{name}/die"), die, None));
        out.push((name, nl, None));
    }
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    for name in ["comp_doubletail", "scl_buffer"] {
        let text = std::fs::read_to_string(examples.join(format!("{name}.ulp"))).unwrap();
        let nl = ulp_ir::flatten(&ulp_ir::parse(&text).unwrap()).unwrap();
        out.push((format!("{name}.ulp"), nl, None));
    }
    for (label, nl, dt) in golden_cells() {
        out.push((label.to_string(), nl, dt));
    }
    for stages in 1..=4 {
        for vd in [0.0, 0.05, -0.05] {
            let chain = scl_chain(stages, vd, "1n");
            out.push((format!("chain-{stages}/{vd:+}"), chain, None));
        }
    }
    // At 10 nA the two-stage chain needs the temperature case split.
    out.push(("chain-2/10n".to_string(), scl_chain(2, 0.0, "10n"), None));
    for seed in 0..12 {
        out.push((format!("ladder-{seed}"), seeded_ladder(seed), None));
    }
    out
}

/// The certifier keeps its answers bit for bit across refactors: per
/// corpus netlist, the verdict, a digest of every solution-box bound's
/// bits, and a digest of the rendered certificate report (each finding
/// with its nodes and elements).
///
/// The box digests read exact interval endpoints, which go through the
/// platform libm's `exp` and `ln`; a host with a different libm may
/// legitimately disagree in the last bit.
#[test]
fn certifier_corpus_is_bit_stable() {
    let tech = Technology::default();
    let config = LintConfig::new();
    let mut got = String::new();
    for (name, nl, dt) in certifier_corpus() {
        let opts = CertifyOptions {
            dt,
            ..CertifyOptions::default()
        };
        let cert = certify(&nl, &tech, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        let bounds = cert.solution_box().iter().flat_map(|iv| [iv.lo(), iv.hi()]);
        let box_digest = fnv1a(bounds.flat_map(|v| v.to_bits().to_le_bytes()));
        let mut report = String::new();
        golden_lines(&mut report, &cert.report(&config));
        got.push_str(&format!(
            "{name}: {:?} box {box_digest:016x} report {:016x}\n",
            cert.verdict(),
            fnv1a(report.bytes())
        ));
    }
    assert_eq!(got, CORPUS_GOLDEN);
}

/// The answers of [`certifier_corpus`], one line per netlist.
const CORPUS_GOLDEN: &str = r#"scl-buffer-100p/die: ProvedNonsingular { method: "structural M-matrix" } box 2ea5e0ff6fd6bc9d report ada1db80192e295f
scl-buffer-100p: ProvedNonsingular { method: "structural M-matrix" } box e80bd625b141c015 report ada1db80192e295f
scl-buffer-1n/die: ProvedNonsingular { method: "structural M-matrix" } box 450ffead8ce9ff13 report ada1db80192e295f
scl-buffer-1n: ProvedNonsingular { method: "structural M-matrix" } box a0a7099f22d56122 report ada1db80192e295f
scl-buffer-10n/die: ProvedNonsingular { method: "structural M-matrix" } box 6bbacfeb2754bbe0 report ada1db80192e295f
scl-buffer-10n: ProvedNonsingular { method: "structural M-matrix" } box 5ce4dbf11653ef9c report ada1db80192e295f
replica-buffer-1n/die: ProvedNonsingular { method: "structural M-matrix" } box cfb5c6fd8f8b0347 report ada1db80192e295f
replica-buffer-1n: ProvedNonsingular { method: "structural M-matrix" } box c75729f20c4b7357 report ada1db80192e295f
preamp-coupled-1n/die: ProvedNonsingular { method: "structural M-matrix" } box 55c7811cfd3a1a19 report ada1db80192e295f
preamp-coupled-1n: ProvedNonsingular { method: "structural M-matrix" } box 44a73a888077b46a report ada1db80192e295f
preamp-decoupled-1n/die: ProvedNonsingular { method: "structural M-matrix" } box 6b6b509cc9b1bb56 report ada1db80192e295f
preamp-decoupled-1n: ProvedNonsingular { method: "structural M-matrix" } box a149d05907048ab5 report ada1db80192e295f
comp_doubletail.ulp: Unproven { corner: Typical } box 40eedcaaf61d5c23 report 966dea7278d60b3e
scl_buffer.ulp: ProvedNonsingular { method: "structural M-matrix" } box a0a7099f22d56122 report ada1db80192e295f
iss-100u: ProvedNonsingular { method: "structural M-matrix" } box 0d258b252943054c report 9e293666cb6c92dd
vdd-250m: ProvedNonsingular { method: "structural M-matrix" } box 937a20f00ad1f64c report 9b8acfdf579ca8bb
cascade-50m: ProvedNonsingular { method: "interval LU" } box 085433e6dc8d469d report f7a5071335e2a94b
pair-0.1u: ProvedNonsingular { method: "structural M-matrix" } box e9877c5ece4c3e22 report 13a54b266c7960af
rc-1p-1ms: ProvedNonsingular { method: "structural M-matrix" } box dc44861e786fc077 report 72aaf956f679c2e4
mirror-50u: ProvedNonsingular { method: "structural M-matrix" } box b4e468389509fd93 report cb993d08ee276f32
pmos-stage: Unproven { corner: Typical } box 4d6e0166d6a8bd0e report 878d7c9d5342a22e
chain-1/+0: ProvedNonsingular { method: "structural M-matrix" } box 11b3a89b0031240b report ada1db80192e295f
chain-1/+0.05: ProvedNonsingular { method: "structural M-matrix" } box a0a7099f22d56122 report ada1db80192e295f
chain-1/-0.05: ProvedNonsingular { method: "structural M-matrix" } box 77eeb503f006bbac report ada1db80192e295f
chain-2/+0: Unproven { corner: Typical } box c8d39523bc94156d report 966dea7278d60b3e
chain-2/+0.05: Unproven { corner: Typical } box a14bd964adf99e1c report 966dea7278d60b3e
chain-2/-0.05: Unproven { corner: Typical } box 8aa262b3d2ac7e1c report 966dea7278d60b3e
chain-3/+0: Unproven { corner: Typical } box 50a86c2df4be82c7 report 966dea7278d60b3e
chain-3/+0.05: Unproven { corner: Typical } box 45ce409c801271c6 report 966dea7278d60b3e
chain-3/-0.05: Unproven { corner: Typical } box 52d6675775095cf9 report 966dea7278d60b3e
chain-4/+0: Unproven { corner: Typical } box 35437ffefb9d7137 report 966dea7278d60b3e
chain-4/+0.05: Unproven { corner: Typical } box ff4589eae72f3564 report 966dea7278d60b3e
chain-4/-0.05: Unproven { corner: Typical } box 3aab26debea21534 report 966dea7278d60b3e
chain-2/10n: ProvedNonsingular { method: "temperature-sliced interval LU" } box 9b3c4f72a566d2d0 report 1427c3e062efba98
ladder-0: ProvedNonsingular { method: "structural M-matrix" } box 7cbfdd494a41694e report ada1db80192e295f
ladder-1: ProvedNonsingular { method: "structural M-matrix" } box 9d972fc4cbc225bc report ada1db80192e295f
ladder-2: ProvedNonsingular { method: "structural M-matrix" } box e574a246cbfeeb24 report ada1db80192e295f
ladder-3: ProvedNonsingular { method: "structural M-matrix" } box c3bc6789f8365783 report ada1db80192e295f
ladder-4: ProvedNonsingular { method: "structural M-matrix" } box e302d7cf57d7690d report ada1db80192e295f
ladder-5: ProvedNonsingular { method: "structural M-matrix" } box 1027bb31b9001271 report ada1db80192e295f
ladder-6: ProvedNonsingular { method: "structural M-matrix" } box 0e6de005104085de report ada1db80192e295f
ladder-7: ProvedNonsingular { method: "structural M-matrix" } box 813b5fb6c94388b3 report ada1db80192e295f
ladder-8: ProvedNonsingular { method: "structural M-matrix" } box 2e04b45a2cbbbc04 report ada1db80192e295f
ladder-9: ProvedNonsingular { method: "structural M-matrix" } box fa2dfdea80f687da report ada1db80192e295f
ladder-10: ProvedNonsingular { method: "structural M-matrix" } box 78574180bcbb2eed report ada1db80192e295f
ladder-11: ProvedNonsingular { method: "structural M-matrix" } box 9d3265a91fe92deb report ada1db80192e295f
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
