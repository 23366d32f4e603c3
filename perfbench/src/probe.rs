//! The layer probe of the traced run. It times single public calls of
//! the layers a workload's ops call only from inside `dcop` or `tran`
//! (`MnaWorkspace`, device models) on the workload's own netlist at its
//! DC operating point, and [`attribute`] splits a transient's time
//! across those calls using the transient's exact call counts.
//!
//! The traced run must print every per-layer metric for every
//! workload, also for layers a workload never calls. Those values are
//! stand-ins, measured by [`stand_ins`] on the `scl_buffer.ulp` cell
//! that all three workloads share. They describe the probe, not the
//! workload, and are predicted not to move with it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ulp_device::Technology;
use ulp_exec::Ensemble;
use ulp_spice::absint::{self, CertifyOptions};
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::lint::{self, LintConfig, LintContext};
use ulp_spice::mna::{voltage_of, AssembleMode, Integrator, MnaWorkspace, SolverKind};
use ulp_spice::netlist::Element;
use ulp_spice::sweep::dc_sweep_with;
use ulp_spice::telemetry::{MetricsCollector, SimMetrics, TraceMode};
use ulp_spice::tran::{AdaptiveOptions, Transient};
use ulp_spice::Netlist;

use crate::campaign::ctl_values;
use crate::chain::newton;
use crate::design::SCL_BUFFER_ULP;
use crate::stats::median;

/// What the probe measures on.
pub struct Target<'a> {
    pub tech: Technology,
    /// An adaptive transient on the workload's netlist: the chain's own
    /// op, or the step-driven cell transient of `tran_dev_mv`. The MNA
    /// and device costs are measured on its netlist.
    pub tran: (&'a Netlist, AdaptiveOptions),
    /// Whether that transient is the workload's op. If not, its `tran.*`
    /// numbers are stand-ins.
    pub tran_is_op: bool,
    /// The same circuit with its cards in written order, when the
    /// workload permutes them.
    pub written: Option<&'a Netlist>,
}

/// Median over five batches of the per-call time of `f`, s. Each batch
/// repeats `f` until a fifth of `budget` has passed (at least once).
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let slice = budget / 5;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u32;
            while n == 0 || t.elapsed() < slice {
                f();
                n += 1;
            }
            t.elapsed().as_secs_f64() / f64::from(n)
        })
        .collect();
    median(&samples)
}

const BUDGET: Duration = Duration::from_millis(60);

/// Per-call costs of the MNA and device layers on one netlist, µs
/// (device evaluations in ns).
#[derive(Debug, Clone, Copy)]
pub struct MnaCosts {
    pub prep_us: f64,
    pub assemble_us: f64,
    pub assemble_latent_us: f64,
    pub replan_us: f64,
    pub factor_us: f64,
    pub solve_us: f64,
    pub mos_eval_ns: f64,
    pub load_eval_ns: f64,
}

/// Each cost's minimum over several [`mna_pass`]es: a pass lasts well
/// under a second, so the quietest of passes spread over a few seconds
/// is the one least disturbed by the host's contention phases.
fn min_costs(passes: &[MnaCosts]) -> MnaCosts {
    let min = |f: fn(&MnaCosts) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    MnaCosts {
        prep_us: min(|c| c.prep_us),
        assemble_us: min(|c| c.assemble_us),
        assemble_latent_us: min(|c| c.assemble_latent_us),
        replan_us: min(|c| c.replan_us),
        factor_us: min(|c| c.factor_us),
        solve_us: min(|c| c.solve_us),
        mos_eval_ns: min(|c| c.mos_eval_ns),
        load_eval_ns: min(|c| c.load_eval_ns),
    }
}

/// Per-call durations of a Newton-like call sequence, s.
#[derive(Default)]
struct Sequence {
    replan: Vec<f64>,
    assemble: Vec<f64>,
    factor: Vec<f64>,
    solve: Vec<f64>,
}

/// Runs `assemble, factor, solve_into` iterations on `ws` for twice
/// [`BUDGET`], timing every call on its own so each cost carries the
/// cache state of a real iteration rather than of a tight loop of one
/// call. The step size changes every third iteration, as in a transient
/// taking about three Newton iterations per step; those assemblies
/// re-plan the static stamps and are recorded as `replan`.
fn sequence(
    ws: &mut MnaWorkspace,
    nl: &Netlist,
    tech: &Technology,
    x: &[f64],
    caps: &[f64],
) -> Sequence {
    let gmin = newton().gmin;
    let mut seq = Sequence::default();
    let mut sol = Vec::with_capacity(x.len());
    let start = Instant::now();
    let mut k = 0u32;
    while start.elapsed() < 2 * BUDGET {
        let mode = AssembleMode::Transient {
            time: 1e-6,
            dt: 1e-9 * (1.0 + 1e-3 * f64::from((k / 3) % 64)),
            prev: x,
            cap_currents: caps,
            method: Integrator::Trapezoidal,
        };
        let t = Instant::now();
        ws.assemble(nl, tech, x, mode, gmin);
        let assemble = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = black_box(ws.factor());
        let factor = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = black_box(ws.solve_into(&mut sol));
        seq.solve.push(t.elapsed().as_secs_f64());
        seq.factor.push(factor);
        if k.is_multiple_of(3) {
            seq.replan.push(assemble);
        } else {
            seq.assemble.push(assemble);
        }
        k += 1;
    }
    seq
}

/// Times `MnaWorkspace::{new, assemble, factor, solve_into}`, latent
/// (bypassed) assembly, re-planning assembly and the device models on
/// `nl` at its operating point `x`.
fn mna_pass(nl: &Netlist, tech: &Technology, x: &[f64]) -> MnaCosts {
    let gmin = newton().gmin;
    let n_caps = nl
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Capacitor { .. }))
        .count();
    let caps = vec![0.0; n_caps];
    let prep_us = 1e6
        * per_call(BUDGET, || {
            let mut ws = MnaWorkspace::new(nl, SolverKind::Sparse);
            ws.assemble(nl, tech, x, AssembleMode::Dc, gmin);
            black_box(ws.factor().is_ok());
        });
    let full = sequence(
        &mut MnaWorkspace::new(nl, SolverKind::Sparse),
        nl,
        tech,
        x,
        &caps,
    );
    // With bypass on and the operating point committed, every device
    // is latent: assembly re-applies cached stamps.
    let mut latent_ws = MnaWorkspace::new(nl, SolverKind::Sparse);
    latent_ws.set_bypass_tol(AdaptiveOptions::new(1.0, 1.0).bypass_tol);
    latent_ws.assemble(nl, tech, x, AssembleMode::Dc, gmin);
    latent_ws.commit_bypass();
    let latent = sequence(&mut latent_ws, nl, tech, x, &caps);
    let us = |v: &[f64]| 1e6 * median(v);
    let (assemble_us, replan_us, factor_us, solve_us) = (
        us(&full.assemble),
        us(&full.replan),
        us(&full.factor),
        us(&full.solve),
    );
    let assemble_latent_us = us(&latent.assemble);

    let mut mos = Vec::new();
    let mut loads = Vec::new();
    for e in nl.elements() {
        match e {
            Element::Mos { d, g, s, dev, .. } => {
                mos.push((
                    *dev,
                    voltage_of(x, *g),
                    voltage_of(x, *s),
                    voltage_of(x, *d),
                ));
            }
            Element::SclLoad {
                a, b, load, iss, ..
            } => {
                loads.push((*load, voltage_of(x, *a) - voltage_of(x, *b), *iss));
            }
            _ => {}
        }
    }
    let mos_eval_ns = if mos.is_empty() {
        0.0
    } else {
        1e9 * per_call(BUDGET, || {
            for (dev, vg, vs, vd) in &mos {
                black_box(dev.operating_point(tech, black_box(*vg), *vs, *vd));
            }
        }) / mos.len() as f64
    };
    let load_eval_ns = if loads.is_empty() {
        0.0
    } else {
        1e9 * per_call(BUDGET, || {
            for (load, v, iss) in &loads {
                black_box(load.eval(black_box(*v), *iss));
            }
        }) / loads.len() as f64
    };
    MnaCosts {
        prep_us,
        assemble_us,
        assemble_latent_us,
        replan_us,
        factor_us,
        solve_us,
        mos_eval_ns,
        load_eval_ns,
    }
}

/// A transient's time split across the MNA calls it made, ms per op,
/// using its exact call counts: one assembly, factorization and solve
/// per Newton iteration, device evaluations not bypassed, and one
/// re-plan of the static stamps per attempted step (the prepared-stamp
/// key includes `dt`). What is left is the transient loop's own time.
pub fn attribute(
    op_ms: f64,
    m: &SimMetrics,
    nonlinear: usize,
    c: &MnaCosts,
) -> Vec<(&'static str, f64)> {
    let iters = m.newton_iterations as f64;
    let evaluated = (iters * nonlinear as f64 - m.devices_bypassed as f64).max(0.0);
    let per_device_us = if nonlinear == 0 {
        0.0
    } else {
        (c.assemble_us - c.assemble_latent_us).max(0.0) / nonlinear as f64
    };
    let assemble = 1e-3 * (iters * c.assemble_latent_us + evaluated * per_device_us);
    let replan =
        1e-3 * (m.tran_steps + m.tran_rejected) as f64 * (c.replan_us - c.assemble_us).max(0.0);
    let factor =
        1e-3 * (m.symbolic_factorizations + m.numeric_refactorizations) as f64 * c.factor_us;
    let solve = 1e-3 * iters * c.solve_us;
    vec![
        ("mna.assemble", assemble),
        ("mna.replan", replan),
        ("mna.factor", factor),
        ("mna.solve", solve),
        ("tran.self", op_ms - assemble - replan - factor - solve),
    ]
}

/// Everything the probe measured on one workload.
pub struct Probe {
    /// Measured on the workload's own netlist.
    pub values: BTreeMap<&'static str, f64>,
    /// Measured on the `scl_buffer.ulp` cell, for layers the workload
    /// may never call.
    pub stand_ins: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

/// Per-call costs of the IR sweep-point, lint, audit, certify, sweep
/// and exec layers on the `scl_buffer.ulp` cell; the exec numbers come
/// from a 32-trial campaign of its DC solves.
fn stand_ins(tech: &Technology) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v = BTreeMap::new();
    let design = ulp_ir::parse(SCL_BUFFER_ULP).map_err(|e| format!("probe parse: {e}"))?;
    let cell = ulp_ir::flatten(&design).map_err(|e| format!("probe flatten: {e}"))?;
    let plan = ulp_ir::SweepPlan::build(&design).map_err(|e| format!("probe sweep plan: {e}"))?;
    let mut k = 0usize;
    v.insert(
        "ir.sweep_point_us",
        1e6 * per_call(BUDGET, || {
            k += 1;
            black_box(plan.point(k % plan.len()));
        }),
    );
    let config = LintConfig::default();
    let cx = LintContext::with_tech(&cell, tech);
    v.insert(
        "lint.run_ms",
        1e3 * per_call(BUDGET, || drop(black_box(lint::run_ctx(&cx, &config)))),
    );
    let op = DcOperatingPoint::solve_with(&cell, tech, &newton())
        .map_err(|e| format!("probe DC: {e}"))?;
    v.insert(
        "lint.audit_ms",
        1e3 * per_call(BUDGET, || {
            drop(black_box(lint::audit(&cell, tech, &op, &config)))
        }),
    );
    v.insert(
        "certify_ms",
        1e3 * per_call(BUDGET, || {
            black_box(absint::certify(&cell, tech, &CertifyOptions::default()).is_ok());
        }),
    );
    v.insert(
        "sweep_us",
        1e6 * per_call(BUDGET, || {
            black_box(dc_sweep_with(&cell, tech, "VCTL", &ctl_values(), &newton()).is_ok());
        }),
    );
    let opts = newton();
    let (_, report) = Ensemble::new(32)
        .seed(1)
        .jobs(crate::JOBS)
        .label("probe")
        .run_with_report(|_: &mut ulp_exec::TrialCtx| {
            black_box(DcOperatingPoint::solve_with(&cell, tech, &opts).is_ok())
        });
    v.extend(crate::exec_layer(&report));
    Ok(v)
}

/// Runs the probe.
pub fn run(t: &Target<'_>) -> Result<Probe, String> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut lines = Vec::new();
    let tech = &t.tech;

    // The MNA/device costs and the transient they are attributed to,
    // measured in three interleaved rounds so both see the same host.
    let (tnl, topts) = t.tran;
    let x = DcOperatingPoint::solve_with(tnl, tech, &newton())
        .map_err(|e| format!("probe DC: {e}"))?
        .solution()
        .to_vec();
    let nonlinear = crate::nonlinear_count(tnl);
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let costs = mna_pass(tnl, tech, &x);
        let mut mc = MetricsCollector::new(TraceMode::Summary);
        let t0 = Instant::now();
        Transient::run_adaptive_traced(tnl, tech, &topts, &mut mc)
            .map_err(|e| format!("probe transient: {e}"))?;
        let op_ms = t0.elapsed().as_secs_f64() * 1e3;
        let parts = attribute(op_ms, mc.metrics(), nonlinear, &costs);
        rounds.push((costs, op_ms, parts, mc));
    }
    rounds.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (costs, op_ms, parts, mc) = rounds.swap_remove(1);
    let mut stand_ins = stand_ins(tech)?;
    let tran = if t.tran_is_op { &mut v } else { &mut stand_ins };
    for (k, x) in crate::counter_layer(&mc.metrics().counters(), nonlinear) {
        if k.starts_with("tran.") {
            tran.insert(k, x);
        }
    }
    tran.insert("tran.self_ms", parts.last().map_or(0.0, |p| p.1));
    lines.push(format!(
        "transient {op_ms:.3} ms (median of 3): {}",
        render_parts(&parts)
    ));
    if let Some(written) = t.written {
        let op_w = DcOperatingPoint::solve_with(written, tech, &newton())
            .map_err(|e| format!("probe DC: {e}"))?;
        // Written and permuted passes alternate, so a contention phase
        // cannot fall on one order only.
        let (mut w, mut p) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            w.push(mna_pass(written, tech, op_w.solution()));
            p.push(mna_pass(tnl, tech, &x));
        }
        let (w, p) = (min_costs(&w), min_costs(&p));
        lines.push(format!(
            "card order: factor {:.2} us written / {:.2} us permuted ({:.2}x), solve {:.2} / {:.2} us ({:.2}x)",
            w.factor_us,
            p.factor_us,
            p.factor_us / w.factor_us,
            w.solve_us,
            p.solve_us,
            p.solve_us / w.solve_us
        ));
    }
    for (k, x) in [
        ("mna.prep_us", costs.prep_us),
        ("mna.assemble_us", costs.assemble_us),
        ("mna.assemble_latent_us", costs.assemble_latent_us),
        ("mna.replan_us", costs.replan_us),
        ("mna.factor_us", costs.factor_us),
        ("mna.solve_us", costs.solve_us),
        ("device.mos_eval_ns", costs.mos_eval_ns),
        ("device.load_eval_ns", costs.load_eval_ns),
    ] {
        v.insert(k, x);
    }
    Ok(Probe {
        values: v,
        stand_ins,
        lines,
    })
}

/// `name ms (share)` for each part of an attribution.
pub fn render_parts(parts: &[(&'static str, f64)]) -> String {
    let total: f64 = parts.iter().map(|p| p.1).sum();
    parts
        .iter()
        .map(|(k, ms)| format!("{k} {ms:.3} ms ({:.0}%)", 100.0 * ms / total))
        .collect::<Vec<_>>()
        .join(", ")
}
