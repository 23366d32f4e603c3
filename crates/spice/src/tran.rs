//! Transient analysis: a fixed-step oracle and an adaptive engine.
//!
//! Each timestep replaces capacitors by their companion models
//! ([`Integrator`]) and runs a full Newton solve seeded from the
//! previous timepoint. Two step-size policies exist:
//!
//! * **Fixed** ([`Transient::run`]): the caller chooses `dt` and the
//!   engine marches it uniformly. Simple, predictable, and the accuracy
//!   *oracle* for the adaptive engine — a tight-tolerance fixed run is
//!   what the adaptive equivalence suite pins against.
//! * **Adaptive** ([`Transient::run_adaptive`]): the local truncation
//!   error of every candidate step is estimated from a
//!   predictor/corrector pair (explicit linear extrapolation vs the
//!   BE/TRAP corrector), steps are accepted or rejected against
//!   `reltol`/`abstol`, and a PI controller
//!   ([`ulp_num::control::StepController`]) sizes the next step within
//!   `[dt_min, dt_max]`. Source breakpoints (pulse corners, PWL knots,
//!   sine onsets) are honored exactly — the engine lands a step on each
//!   discontinuity and restarts with backward Euler. Newton is
//!   warm-started from the extrapolated predictor, and latent nonlinear
//!   devices whose terminal voltages moved less than `bypass_tol` since
//!   the last accepted step are not re-evaluated (their cached stamps
//!   are re-applied — see [`MnaWorkspace::set_bypass_tol`]).
//!
//! [`suggest_dt`] proposes the adaptive engine's `dt_max` hint from the
//! fastest explicit RC in the netlist.

use crate::dcop::{newton_solve_gmin_stepping_into, NewtonOptions};
use crate::error::SimError;
use crate::mna::{
    capacitor_currents_into, require_unknowns, voltage_of, AssembleMode, Integrator, MnaWorkspace,
};
use crate::netlist::{Element, Netlist, Node, Waveform};
use crate::telemetry::{self, Event, Tracer};
use std::time::Instant;
use ulp_device::Technology;
use ulp_num::control::{weighted_error_norm, StepController};

/// Stable label for a companion-model integrator, used in telemetry.
fn method_name(method: Integrator) -> &'static str {
    match method {
        Integrator::BackwardEuler => "backward-euler",
        Integrator::Trapezoidal => "trapezoidal",
    }
}

/// Transient analysis controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// Simulation end time, s.
    pub t_stop: f64,
    /// Fixed step size, s.
    pub dt: f64,
    /// Companion-model integrator.
    pub method: Integrator,
    /// Newton controls for each step.
    pub newton: NewtonOptions,
}

impl TranOptions {
    /// Creates options for a `t_stop` run at step `dt`, backward Euler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= t_stop`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        assert!(dt > 0.0 && dt <= t_stop, "invalid transient step/stop");
        TranOptions {
            t_stop,
            dt,
            method: Integrator::BackwardEuler,
            newton: NewtonOptions::default(),
        }
    }

    /// Switches to trapezoidal integration.
    pub fn trapezoidal(mut self) -> Self {
        self.method = Integrator::Trapezoidal;
        self
    }
}

/// Adaptive transient controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Simulation end time, s.
    pub t_stop: f64,
    /// Relative tolerance of the weighted LTE norm.
    pub reltol: f64,
    /// Absolute tolerance floor of the weighted LTE norm, V.
    pub abstol: f64,
    /// Hard lower bound on the step size, s. A step at `dt_min` is
    /// accepted even when its LTE estimate exceeds tolerance (there is
    /// nothing smaller to retry with).
    pub dt_min: f64,
    /// Hard upper bound on the step size, s.
    pub dt_max: f64,
    /// First step size at `t = 0` and after every source breakpoint, s.
    pub dt_init: f64,
    /// Device-latency bypass window, V: nonlinear devices whose
    /// terminal voltages all moved less than this since the last
    /// accepted step are not re-evaluated (cached stamps re-applied).
    /// 0 disables bypass entirely.
    pub bypass_tol: f64,
    /// Newton controls for each step.
    pub newton: NewtonOptions,
}

impl AdaptiveOptions {
    /// Default-tolerance options for a `t_stop` run with steps bounded
    /// by `dt_max`: `reltol` 1e-3, `abstol` 1 µV, `dt_min` 10⁻⁶·dt_max,
    /// `dt_init` 10⁻³·dt_max, bypass window 1 µV.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt_max <= t_stop`.
    pub fn new(t_stop: f64, dt_max: f64) -> Self {
        assert!(
            dt_max > 0.0 && dt_max <= t_stop,
            "invalid adaptive step bound/stop"
        );
        AdaptiveOptions {
            t_stop,
            reltol: 1e-3,
            abstol: 1e-6,
            dt_min: dt_max * 1e-6,
            dt_max,
            dt_init: dt_max * 1e-3,
            bypass_tol: 1e-6,
            newton: NewtonOptions::default(),
        }
    }

    /// Overrides both tolerances.
    ///
    /// # Panics
    ///
    /// Panics unless both are strictly positive and finite.
    pub fn tolerances(mut self, reltol: f64, abstol: f64) -> Self {
        assert!(
            reltol > 0.0 && reltol.is_finite() && abstol > 0.0 && abstol.is_finite(),
            "tolerances must be positive"
        );
        self.reltol = reltol;
        self.abstol = abstol;
        self
    }
}

/// Times at which a source waveform is non-smooth: the adaptive engine
/// lands a step on each of them exactly and restarts its error history
/// there. The returned list is sorted, deduplicated, restricted to
/// `(0, t_stop)`, and always ends with `t_stop` itself.
fn source_breakpoints(nl: &Netlist, t_stop: f64) -> Vec<f64> {
    let mut bp: Vec<f64> = Vec::new();
    for e in nl.elements() {
        let wave = match e {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => wave,
            _ => continue,
        };
        match wave {
            Waveform::Dc(_) => {}
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let corners = [0.0, *rise, rise + width, rise + width + fall];
                if *period > 0.0 {
                    // Bounded period count so a degenerate tiny period
                    // cannot explode the list; beyond the cap the grid
                    // is denser than any sane step anyway.
                    let kmax = (((t_stop - delay) / period).ceil().max(0.0) as usize).min(100_000);
                    for k in 0..=kmax {
                        let base = delay + k as f64 * period;
                        for c in corners {
                            bp.push(base + c);
                        }
                    }
                } else {
                    for c in corners {
                        bp.push(delay + c);
                    }
                }
            }
            Waveform::Sine { delay, .. } => bp.push(*delay),
            Waveform::Pwl(points) => bp.extend(points.iter().map(|(t, _)| *t)),
        }
    }
    bp.retain(|t| *t > 0.0 && *t < t_stop);
    bp.push(t_stop);
    bp.sort_by(f64::total_cmp);
    // Merge breakpoints closer than a relative epsilon — stepping onto
    // two distinct but adjacent corners would force a denormal step.
    let eps = t_stop * 1e-12;
    let mut merged: Vec<f64> = Vec::with_capacity(bp.len());
    for t in bp {
        match merged.last() {
            Some(&last) if t - last <= eps => {}
            _ => merged.push(t),
        }
    }
    // The final landing target is t_stop exactly, even if a breakpoint
    // within eps of it was kept instead.
    *merged.last_mut().expect("t_stop always present") = t_stop;
    merged
}

/// The fastest continuous source timescale: a quarter period of the
/// fastest `Sine` source, or infinity when no sine drives the netlist.
///
/// The LTE estimate comes from a two-point linear predictor, so a step
/// spanning a large fraction of a sine period samples the wave at
/// near-aliasing phases and the estimate collapses — the controller
/// would then happily grow `dt` straight through entire periods.
/// Capping the step at a quarter period keeps the predictor inside the
/// regime where its error actually tracks the truncation error. Pulse
/// and Pwl corners need no such cap: they are breakpoints, and the
/// waveforms are linear between them.
fn source_rate_cap(nl: &Netlist) -> f64 {
    let mut cap = f64::INFINITY;
    for e in nl.elements() {
        let wave = match e {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => wave,
            _ => continue,
        };
        if let Waveform::Sine { freq, .. } = wave {
            if *freq > 0.0 {
                cap = cap.min(0.25 / freq);
            }
        }
    }
    cap
}

/// A recorded transient waveform set.
///
/// Solutions are stored as one flat row-major buffer (`dim` unknowns
/// per timepoint) so the step loop appends without a per-step heap
/// allocation and waveform extraction walks contiguous memory.
#[derive(Debug, Clone)]
pub struct Transient {
    time: Vec<f64>,
    dim: usize,
    solutions: Vec<f64>,
}

impl Transient {
    /// Runs a transient analysis. The initial condition is the DC
    /// operating point with all sources at their `t = 0` values.
    ///
    /// Runs the electrical rule check ([`crate::erc::gate`]) once up
    /// front (memoised across repeated runs of an unchanged netlist). To
    /// vet the chosen `dt` against the fastest RC in the netlist before
    /// committing to a long run, see [`crate::lint::rule::RC_TIME_STEP`]
    /// and [`suggest_dt`].
    ///
    /// # Errors
    ///
    /// [`SimError::Erc`] when the netlist fails the rule check;
    /// otherwise propagates Newton/solver failures from any timestep
    /// (the error is tagged with the iteration budget, not the time —
    /// inspect [`Transient::run`] inputs when this happens).
    pub fn run(nl: &Netlist, tech: &Technology, opts: &TranOptions) -> Result<Self, SimError> {
        telemetry::with_tracer(|tracer| Self::run_traced(nl, tech, opts, tracer))
    }

    /// [`Transient::run`] recording telemetry on the given tracer: one
    /// [`Event::NewtonAttempt`] per solve (tagged `"tran"`) and one
    /// [`Event::TranStep`] per accepted timestep.
    ///
    /// # Errors
    ///
    /// As for [`Transient::run`].
    pub fn run_traced(
        nl: &Netlist,
        tech: &Technology,
        opts: &TranOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<Self, SimError> {
        crate::erc::gate(nl)?;
        if opts.dt <= 0.0 || opts.t_stop < opts.dt {
            return Err(SimError::BadParameter(format!(
                "dt {} / t_stop {}",
                opts.dt, opts.t_stop
            )));
        }
        require_unknowns(nl)?;
        // One workspace serves the whole run: the initial operating
        // point and every timestep share the matrix pattern, so the
        // symbolic factorization is paid once, not per step — and the
        // solution/scratch vectors are reused so the sparse-path step
        // loop performs no steady-state heap allocation at all.
        let mut ws = MnaWorkspace::new(nl, opts.newton.solver);
        let mut x = Vec::with_capacity(nl.unknown_count());
        let mut x_new = Vec::with_capacity(nl.unknown_count());
        let x0 = vec![0.0; nl.unknown_count()];
        newton_solve_gmin_stepping_into(
            nl,
            tech,
            AssembleMode::Dc,
            &x0,
            &opts.newton,
            "tran",
            tracer,
            &mut ws,
            &mut x,
            &mut x_new,
        )?;
        let n_caps = nl
            .elements()
            .iter()
            .filter(|e| matches!(e, crate::netlist::Element::Capacitor { .. }))
            .count();
        // Buffers hoisted out of the step loop: the previous solution,
        // and double-buffered capacitor currents. Recorded waveforms
        // append into one preallocated flat buffer.
        let mut cap_i = vec![0.0; n_caps];
        let mut cap_i_next = Vec::with_capacity(n_caps);
        let mut prev = vec![0.0; x.len()];
        let steps = (opts.t_stop / opts.dt).round() as usize;
        let dim = x.len();
        let mut time = Vec::with_capacity(steps + 1);
        let mut solutions = Vec::with_capacity((steps + 1) * dim);
        time.push(0.0);
        solutions.extend_from_slice(&x);
        let enabled = tracer.enabled();
        let method = method_name(opts.method);
        for k in 1..=steps {
            let t0 = enabled.then(Instant::now);
            let t = k as f64 * opts.dt;
            prev.copy_from_slice(&x);
            let mode = AssembleMode::Transient {
                time: t,
                dt: opts.dt,
                prev: &prev,
                cap_currents: &cap_i,
                method: opts.method,
            };
            let r = newton_solve_gmin_stepping_into(
                nl,
                tech,
                mode,
                &prev,
                &opts.newton,
                "tran",
                tracer,
                &mut ws,
                &mut x,
                &mut x_new,
            )?;
            capacitor_currents_into(nl, &x, &prev, &cap_i, opts.dt, opts.method, &mut cap_i_next);
            std::mem::swap(&mut cap_i, &mut cap_i_next);
            if let Some(t0) = t0 {
                tracer.record(&Event::TranStep {
                    step: k,
                    time: t,
                    newton_iterations: r.iterations,
                    method,
                    devices_bypassed: 0,
                    seconds: t0.elapsed().as_secs_f64(),
                });
            }
            time.push(t);
            solutions.extend_from_slice(&x);
        }
        Ok(Transient {
            time,
            dim,
            solutions,
        })
    }

    /// Runs an adaptive transient analysis: LTE-controlled time
    /// stepping with predictor warm-starts, exact source-breakpoint
    /// landing and device-latency bypass (see the module docs).
    ///
    /// The recorded time grid is non-uniform; every accessor
    /// ([`Transient::voltage`], [`Transient::crossing_time`], …) works
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`SimError::Erc`] when the netlist fails the rule check;
    /// [`SimError::BadParameter`] for inconsistent options; otherwise a
    /// Newton/solver failure that persisted at `dt_min`.
    pub fn run_adaptive(
        nl: &Netlist,
        tech: &Technology,
        opts: &AdaptiveOptions,
    ) -> Result<Self, SimError> {
        telemetry::with_tracer(|tracer| Self::run_adaptive_traced(nl, tech, opts, tracer))
    }

    /// [`Transient::run_adaptive`] recording telemetry on the given
    /// tracer: one [`Event::NewtonAttempt`] per solve (tagged
    /// `"tran"`), one [`Event::TranStep`] per *accepted* step (carrying
    /// the step's device-bypass count), one [`Event::TranReject`] per
    /// rejected step, and a closing [`Event::Phase`] named
    /// `tran::adaptive`.
    ///
    /// # Errors
    ///
    /// As for [`Transient::run_adaptive`].
    pub fn run_adaptive_traced(
        nl: &Netlist,
        tech: &Technology,
        opts: &AdaptiveOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<Self, SimError> {
        crate::erc::gate(nl)?;
        let sane = opts.dt_min > 0.0
            && opts.dt_min <= opts.dt_max
            && opts.dt_max <= opts.t_stop
            && opts.dt_init > 0.0
            && opts.reltol > 0.0
            && opts.reltol.is_finite()
            && opts.abstol > 0.0
            && opts.abstol.is_finite()
            && opts.bypass_tol >= 0.0
            && opts.bypass_tol.is_finite();
        if !sane {
            return Err(SimError::BadParameter(format!(
                "adaptive transient: dt_min {} / dt_max {} / dt_init {} / t_stop {} / reltol {} / abstol {} / bypass_tol {}",
                opts.dt_min, opts.dt_max, opts.dt_init, opts.t_stop, opts.reltol, opts.abstol, opts.bypass_tol
            )));
        }
        require_unknowns(nl)?;
        let run_t0 = Instant::now();
        let mut ws = MnaWorkspace::new(nl, opts.newton.solver);
        ws.set_bypass_tol(opts.bypass_tol);
        let mut x = Vec::with_capacity(nl.unknown_count());
        let mut x_new = Vec::with_capacity(nl.unknown_count());
        let x0 = vec![0.0; nl.unknown_count()];
        newton_solve_gmin_stepping_into(
            nl,
            tech,
            AssembleMode::Dc,
            &x0,
            &opts.newton,
            "tran",
            tracer,
            &mut ws,
            &mut x,
            &mut x_new,
        )?;
        // The DC point is the accepted state at t = 0: commit it as the
        // bypass reference so latent devices can skip from step 1.
        ws.commit_bypass();
        let n_caps = nl
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        let mut cap_i = vec![0.0; n_caps];
        let mut cap_i_next = Vec::with_capacity(n_caps);
        let dim = x.len();
        let mut time = vec![0.0];
        let mut solutions = Vec::with_capacity(dim * 64);
        solutions.extend_from_slice(&x);
        let breakpoints = source_breakpoints(nl, opts.t_stop);
        let mut bpi = 0usize;
        // Bound the step by the fastest sine period so the predictor
        // cannot alias a continuous source (see `source_rate_cap`).
        let dt_cap = source_rate_cap(nl).clamp(opts.dt_min, opts.dt_max);
        let mut controller = StepController::new(opts.dt_min, dt_cap);
        let mut dt = controller.clamp(opts.dt_init);
        let mut t = 0.0f64;
        // Predictor history: the previous accepted solution and the
        // step that produced the current one. `None` right after t = 0
        // and after every breakpoint (the trajectory restarts there).
        let mut x_prev: Option<(Vec<f64>, f64)> = None;
        let mut steps_since_reset = 0usize;
        let mut accepted = 0usize;
        let mut bypassed_mark = ws.devices_bypassed();
        // Scratch buffers reused across the whole run.
        let mut prev = vec![0.0; dim];
        let mut x_pred = vec![0.0; dim];
        let mut x_sol = Vec::with_capacity(dim);
        let enabled = tracer.enabled();
        while bpi < breakpoints.len() {
            let target = breakpoints[bpi];
            let remaining = target - t;
            // A history-less restart step has no predictor to estimate
            // LTE against and is accepted unconditionally, so it must
            // not span a scale the controller never vetted: take it at
            // a tenth of the proposal (the 2.5x growth on accept wins
            // the tenth back within two steps).
            let dt_prop = if x_prev.is_none() {
                controller.clamp(dt / 10.0)
            } else {
                dt
            };
            // Land exactly on the breakpoint when the proposed step
            // reaches it (or would leave an un-steppable sliver).
            let (dt_step, landing) = if dt_prop >= remaining - opts.dt_min {
                (remaining, true)
            } else {
                (dt_prop, false)
            };
            // BE until two accepted steps seed the error history, then
            // TRAP away from discontinuities (A-stable order 2).
            let method = if steps_since_reset < 2 {
                Integrator::BackwardEuler
            } else {
                Integrator::Trapezoidal
            };
            let order = match method {
                Integrator::BackwardEuler => 1,
                Integrator::Trapezoidal => 2,
            };
            // Explicit predictor: linear extrapolation through the two
            // most recent accepted points (constant when history is
            // empty). Doubles as the Newton warm start.
            match &x_prev {
                Some((xp, h_prev)) => {
                    let a = dt_step / h_prev;
                    for i in 0..dim {
                        x_pred[i] = x[i] + (x[i] - xp[i]) * a;
                    }
                }
                None => x_pred.copy_from_slice(&x),
            }
            prev.copy_from_slice(&x);
            let t_end = t + dt_step;
            let mode = AssembleMode::Transient {
                time: t_end,
                dt: dt_step,
                prev: &prev,
                cap_currents: &cap_i,
                method,
            };
            let t0 = enabled.then(Instant::now);
            // At the floor there is nothing smaller to retry with: a
            // landing step keeps `dt_step = remaining` however far the
            // controller shrinks, so the controller's own proposal is
            // what decides the floor there.
            let floor = opts.dt_min * (1.0 + 1e-9);
            let at_floor = dt_step <= floor || dt <= floor;
            let r = newton_solve_gmin_stepping_into(
                nl,
                tech,
                mode,
                &x_pred,
                &opts.newton,
                "tran",
                tracer,
                &mut ws,
                &mut x_sol,
                &mut x_new,
            );
            let info = match r {
                Ok(info) => info,
                Err(e) => {
                    // Newton refused the step: retry smaller, unless
                    // the floor has been reached.
                    if at_floor {
                        return Err(e);
                    }
                    if let Some(t0) = t0 {
                        tracer.record(&Event::TranReject {
                            step: accepted + 1,
                            time: t,
                            dt: dt_step,
                            error: 0.0,
                            newton_failed: true,
                            seconds: t0.elapsed().as_secs_f64(),
                        });
                    }
                    dt = controller.reject(0.0, order, dt_step);
                    continue;
                }
            };
            // Weighted LTE estimate from the predictor/corrector pair.
            // The first step after a reset has no predictor history; it
            // is accepted unconditionally (dt_init bounds its size).
            let err = match &x_prev {
                Some(_) => weighted_error_norm(&x_sol, &x_pred, &x, opts.reltol, opts.abstol),
                None => 0.0,
            };
            let forced = x_prev.is_none();
            if !forced && err > 1.0 && !at_floor {
                if let Some(t0) = t0 {
                    tracer.record(&Event::TranReject {
                        step: accepted + 1,
                        time: t,
                        dt: dt_step,
                        error: err,
                        newton_failed: false,
                        seconds: t0.elapsed().as_secs_f64(),
                    });
                }
                dt = controller.reject(err, order, dt_step);
                continue;
            }
            // Accepted: advance state, commit the bypass reference,
            // refresh capacitor currents for the next companion model.
            capacitor_currents_into(nl, &x_sol, &prev, &cap_i, dt_step, method, &mut cap_i_next);
            std::mem::swap(&mut cap_i, &mut cap_i_next);
            ws.commit_bypass();
            accepted += 1;
            t = if landing { target } else { t_end };
            // Recycle the old previous-solution buffer to store the
            // outgoing current solution without reallocating.
            let recycled = match x_prev.take() {
                Some((mut buf, _)) => {
                    buf.copy_from_slice(&x);
                    buf
                }
                None => x.clone(),
            };
            x_prev = Some((recycled, dt_step));
            std::mem::swap(&mut x, &mut x_sol);
            time.push(t);
            solutions.extend_from_slice(&x);
            if let Some(t0) = t0 {
                let total = ws.devices_bypassed();
                tracer.record(&Event::TranStep {
                    step: accepted,
                    time: t,
                    newton_iterations: info.iterations,
                    method: method_name(method),
                    devices_bypassed: (total - bypassed_mark) as usize,
                    seconds: t0.elapsed().as_secs_f64(),
                });
                bypassed_mark = total;
            }
            steps_since_reset += 1;
            if !forced {
                dt = controller.accept(err, order, dt_step);
            }
            if landing {
                bpi += 1;
                // The trajectory restarts at a discontinuity: drop the
                // error history, fall back to BE and the initial step.
                x_prev = None;
                steps_since_reset = 0;
                controller.reset();
                dt = controller.clamp(opts.dt_init);
            }
        }
        if enabled {
            tracer.record(&Event::Phase {
                name: "tran::adaptive".to_string(),
                seconds: run_t0.elapsed().as_secs_f64(),
            });
        }
        Ok(Transient {
            time,
            dim,
            solutions,
        })
    }

    /// The timepoints, s.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of recorded timepoints (including `t = 0`).
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True when nothing was recorded (never the case for a completed
    /// run, which always records the initial condition).
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Full solution vector at timepoint `i` — node voltages then
    /// branch currents, in MNA unknown order.
    pub fn solution(&self, i: usize) -> &[f64] {
        &self.solutions[i * self.dim..(i + 1) * self.dim]
    }

    /// Waveform of one node, V.
    pub fn voltage(&self, node: Node) -> Vec<f64> {
        self.solutions
            .chunks_exact(self.dim)
            .map(|x| voltage_of(x, node))
            .collect()
    }

    /// Node voltage at the final timepoint, V.
    pub fn final_voltage(&self, node: Node) -> f64 {
        let last = self.solutions.len() - self.dim;
        voltage_of(&self.solutions[last..], node)
    }

    /// First time at which `node` crosses `level` in the given direction
    /// (linear interpolation between timepoints), ignoring everything
    /// before `after`.
    pub fn crossing_time(&self, node: Node, level: f64, rising: bool, after: f64) -> Option<f64> {
        let v = self.voltage(node);
        for i in 1..v.len() {
            if self.time[i] <= after {
                continue;
            }
            let (v0, v1) = (v[i - 1], v[i]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let frac = (level - v0) / (v1 - v0);
                return Some(self.time[i - 1] + frac * (self.time[i] - self.time[i - 1]));
            }
        }
        None
    }
}

/// Suggests the adaptive engine's `dt_max` / initial-step hint: the
/// fastest explicit R·C time constant in the netlist (capped at
/// `t_stop/10`), the natural upper bound on a step that still resolves
/// the circuit's dynamics. Falls back to `t_stop/50` when the netlist
/// has no R–C pair. Pass the result as [`AdaptiveOptions::new`]'s
/// `dt_max`; the LTE controller takes care of the rest.
///
/// The `points_per_tau` parameter is **deprecated and ignored**: the
/// fixed `τ/points_per_tau` march it used to size is obsolete now that
/// [`Transient::run_adaptive`] controls local truncation error
/// directly. Fixed-step oracle runs that still want a uniform grid
/// should divide the returned hint themselves.
pub fn suggest_dt(nl: &Netlist, t_stop: f64, _points_per_tau: usize) -> f64 {
    let mut r_min = f64::INFINITY;
    let mut c_min = f64::INFINITY;
    for e in nl.elements() {
        match e {
            Element::Resistor { ohms, .. } => r_min = r_min.min(*ohms),
            Element::Capacitor { farads, .. } => c_min = c_min.min(*farads),
            _ => {}
        }
    }
    if r_min.is_finite() && c_min.is_finite() {
        (r_min * c_min).min(t_stop / 10.0)
    } else {
        t_stop / 50.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    fn tech() -> Technology {
        Technology::default()
    }

    #[test]
    fn rc_step_response_backward_euler() {
        // 1 kΩ · 1 µF = 1 ms time constant driven by a step.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-6,
                fall: 1e-6,
                width: 1.0,
                period: 0.0,
            },
        );
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
        let tr = Transient::run(&nl, &tech(), &TranOptions::new(5e-3, 5e-6)).unwrap();
        // After 1 τ: 63.2 %; after 5 τ: ~99.3 %.
        let v_tau = tr.voltage(out)[(1e-3 / 5e-6) as usize];
        assert!((v_tau - 0.632).abs() < 0.01, "v(τ) = {v_tau}");
        assert!((tr.final_voltage(out) - 1.0).abs() < 0.01);
    }

    #[test]
    fn rc_trapezoidal_is_more_accurate() {
        let build = || {
            let mut nl = Netlist::new();
            let inp = nl.node("in");
            let out = nl.node("out");
            nl.vsource_wave(
                "V1",
                inp,
                Netlist::GROUND,
                Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
            );
            nl.resistor("R1", inp, out, 1e3);
            nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
            (nl, out)
        };
        // Deliberately coarse step: τ/10.
        let (nl, out) = build();
        let be = Transient::run(&nl, &tech(), &TranOptions::new(2e-3, 1e-4)).unwrap();
        let tr = Transient::run(&nl, &tech(), &TranOptions::new(2e-3, 1e-4).trapezoidal()).unwrap();
        let exact = 1.0 - (-2.0f64).exp();
        let err_be = (be.final_voltage(out) - exact).abs();
        let err_tr = (tr.final_voltage(out) - exact).abs();
        assert!(err_tr < err_be, "trap {err_tr} vs BE {err_be}");
    }

    #[test]
    fn crossing_time_interpolates() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
        );
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
        let tr = Transient::run(&nl, &tech(), &TranOptions::new(5e-3, 1e-5)).unwrap();
        // v(t) = 1 − e^{−t/τ} crosses 0.5 at τ·ln2 ≈ 0.693 ms.
        let t50 = tr.crossing_time(out, 0.5, true, 0.0).unwrap();
        assert!((t50 - 0.693e-3).abs() < 0.02e-3, "t50 = {t50}");
        assert!(tr.crossing_time(out, 0.5, false, 0.0).is_none());
        assert!(tr.crossing_time(out, 2.0, true, 0.0).is_none());
    }

    #[test]
    fn sine_source_propagates() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amp: 1.0,
                freq: 1e3,
                delay: 0.0,
            },
        );
        nl.resistor("R1", inp, Netlist::GROUND, 1e3);
        let tr = Transient::run(&nl, &tech(), &TranOptions::new(1e-3, 1e-6)).unwrap();
        let v = tr.voltage(inp);
        // Quarter period = 0.25 ms → peak.
        assert!((v[250] - 1.0).abs() < 1e-3);
        // Full period → back near zero.
        assert!(v[1000].abs() < 1e-2);
    }

    #[test]
    fn invalid_options_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        let bad = TranOptions {
            t_stop: 1.0,
            dt: -1.0,
            method: Integrator::BackwardEuler,
            newton: NewtonOptions::default(),
        };
        assert!(matches!(
            Transient::run(&nl, &tech(), &bad),
            Err(SimError::BadParameter(_))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid transient")]
    fn options_constructor_validates() {
        let _ = TranOptions::new(1.0, 2.0);
    }

    #[test]
    fn delayed_sine_holds_offset_then_oscillates() {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.5,
                amp: 0.3,
                freq: 1e3,
                delay: 2e-3,
            },
        );
        nl.resistor("R1", inp, Netlist::GROUND, 1e3);
        let tr = Transient::run(&nl, &tech(), &TranOptions::new(3e-3, 1e-6)).unwrap();
        let v = tr.voltage(inp);
        // Before the delay: pinned at the offset.
        assert!((v[1000] - 0.5).abs() < 1e-9);
        // Quarter period after the delay: at the positive peak.
        assert!((v[2250] - 0.8).abs() < 1e-3);
    }

    #[test]
    fn stscl_gate_transient_through_real_devices() {
        // An STSCL load + tail current step: the output settles with the
        // VSW·CL/ISS time constant — the gate-model time base observed
        // in a raw spice netlist (not through the vtc helper).
        use ulp_device::load::PmosLoad;
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.scl_load("RL", vdd, out, PmosLoad::new(0.2), 1e-9);
        nl.capacitor("CL", out, Netlist::GROUND, 10e-15);
        // Tail current switches on after 1 µs.
        nl.isource_wave(
            "IT",
            out,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1e-9,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 1.0,
                period: 0.0,
            },
        );
        let tr = Transient::run(&nl, &t, &TranOptions::new(2e-5, 2e-8)).unwrap();
        // Starts at VDD (no drop), ends near VDD − VSW.
        let v = tr.voltage(out);
        assert!((v[0] - 1.0).abs() < 1e-3);
        assert!((tr.final_voltage(out) - 0.8).abs() < 0.01);
        // 50 % crossing ≈ delay + ln2·(VSW/ISS)·CL — the STSCL gate
        // delay law. The tanh load's compression toward full swing
        // stretches the tail a little beyond the linearised value.
        let t50 = tr.crossing_time(out, 0.9, false, 0.0).unwrap();
        let expect = 1e-6 + std::f64::consts::LN_2 * (0.2 / 1e-9) * 10e-15;
        assert!(
            (t50 - expect).abs() / expect < 0.25,
            "t50 {t50:e} vs {expect:e}"
        );
    }

    #[test]
    fn traced_run_records_one_event_per_step() {
        use crate::telemetry::{Event, MetricsCollector, TraceMode};
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", inp, Netlist::GROUND, 1.0);
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let tr =
            Transient::run_traced(&nl, &tech(), &TranOptions::new(1e-3, 1e-4), &mut mc).unwrap();
        assert_eq!(tr.time().len(), 11);
        let m = mc.metrics();
        assert_eq!(m.tran_steps, 10);
        // One Newton attempt for the initial OP plus one per step (the
        // linear RC never needs the gmin ladder).
        assert_eq!(m.attempts, 11);
        let steps: Vec<usize> = mc
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                Event::TranStep { step, method, .. } => {
                    assert_eq!(*method, "backward-euler");
                    Some(*step)
                }
                _ => None,
            })
            .collect();
        assert_eq!(steps, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn suggest_dt_returns_the_adaptive_step_hint() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.resistor("R1", a, b, 1e3);
        nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
        // The hint is the fastest time constant itself, not a march
        // through it — and the deprecated points-per-tau is ignored.
        let dt = suggest_dt(&nl, 1.0, 50);
        assert!((dt - 1e-6).abs() < 1e-18, "{dt}");
        assert_eq!(dt, suggest_dt(&nl, 1.0, 7));
        // Slow circuits are capped by the run length.
        let mut slow = Netlist::new();
        let s = slow.node("s");
        slow.resistor("R1", s, Netlist::GROUND, 1e9);
        slow.capacitor("C1", s, Netlist::GROUND, 1.0);
        assert!((suggest_dt(&slow, 1.0, 50) - 0.1).abs() < 1e-12);
        // No R–C pair: a conservative fraction of the run.
        let mut empty = Netlist::new();
        let c = empty.node("c");
        empty.resistor("R1", c, Netlist::GROUND, 1.0);
        assert!((suggest_dt(&empty, 1.0, 50) - 0.02).abs() < 1e-12);
    }

    /// The RC step netlist used by the adaptive tests: 1 kΩ · 1 µF
    /// driven by a pulse with a 1 µs rise starting at t = 0.
    fn rc_pulse() -> (Netlist, Node) {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-6,
                fall: 1e-6,
                width: 1.0,
                period: 0.0,
            },
        );
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
        (nl, out)
    }

    /// Linear interpolation of `tr`'s voltage at `node` onto time `t`.
    fn sample(tr: &Transient, node: Node, t: f64) -> f64 {
        let times = tr.time();
        let v = tr.voltage(node);
        let i = times.partition_point(|&x| x < t).clamp(1, times.len() - 1);
        let (t0, t1) = (times[i - 1], times[i]);
        let frac = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        v[i - 1] + (v[i] - v[i - 1]) * frac.clamp(0.0, 1.0)
    }

    #[test]
    fn adaptive_rc_matches_the_fixed_oracle_with_fewer_steps() {
        let (nl, out) = rc_pulse();
        let t = tech();
        // Tight-tolerance fixed-step TRAP reference.
        let oracle =
            Transient::run(&nl, &t, &TranOptions::new(5e-3, 5e-3 / 2000.0).trapezoidal()).unwrap();
        let opts = AdaptiveOptions::new(5e-3, suggest_dt(&nl, 5e-3, 0));
        let adaptive = Transient::run_adaptive(&nl, &t, &opts).unwrap();
        let mut worst = 0.0f64;
        for (i, &ti) in oracle.time().iter().enumerate() {
            let vo = oracle.voltage(out)[i];
            let va = sample(&adaptive, out, ti);
            worst = worst.max((va - vo).abs());
        }
        assert!(worst < 2e-3, "adaptive vs oracle worst error {worst}");
        assert!(
            adaptive.len() < oracle.len() / 4,
            "adaptive took {} points vs oracle {}",
            adaptive.len(),
            oracle.len()
        );
    }

    #[test]
    fn adaptive_lands_exactly_on_source_breakpoints() {
        let (nl, _) = rc_pulse();
        let opts = AdaptiveOptions::new(5e-3, 5e-4);
        let adaptive = Transient::run_adaptive(&nl, &tech(), &opts).unwrap();
        // Pulse corners at rise (1 µs) and the end time must appear as
        // exact timepoints, not merely be straddled.
        for bp in [1e-6, 5e-3] {
            assert!(
                adaptive.time().contains(&bp),
                "missing exact breakpoint {bp:e} in {:?}",
                &adaptive.time()[..8.min(adaptive.len())]
            );
        }
        assert_eq!(*adaptive.time().last().unwrap(), 5e-3);
    }

    #[test]
    fn adaptive_records_rejections_and_bypasses() {
        use crate::telemetry::{MetricsCollector, TraceMode};
        // A sine-driven RC with a deliberately huge initial/maximum
        // step: the controller must reject its way down to something
        // the tolerance allows.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Sine {
                offset: 0.5,
                amp: 0.4,
                freq: 2.3e3,
                delay: 0.0,
            },
        );
        nl.resistor("R1", inp, out, 1e3);
        nl.capacitor("C1", out, Netlist::GROUND, 1e-7);
        let mut opts = AdaptiveOptions::new(2e-3, 1e-3);
        opts.dt_init = 1e-3;
        let mut mc = MetricsCollector::new(TraceMode::Events);
        Transient::run_adaptive_traced(&nl, &tech(), &opts, &mut mc).unwrap();
        let m = mc.metrics();
        assert!(m.tran_rejected > 0, "no rejections recorded");
        assert!(m.lte_exceeded > 0, "no LTE overruns recorded");
        assert!(m.tran_steps > 0);
        // The closing phase event names the adaptive engine.
        assert!(m
            .phases()
            .iter()
            .any(|(name, _)| name == "tran::adaptive"));
    }

    #[test]
    fn adaptive_bypasses_latent_devices() {
        use crate::telemetry::{MetricsCollector, TraceMode};
        use ulp_device::load::PmosLoad;
        // The STSCL load sits latent while the tail current is off:
        // its terminal voltages freeze and the bypass cache engages.
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.scl_load("RL", vdd, out, PmosLoad::new(0.2), 1e-9);
        nl.capacitor("CL", out, Netlist::GROUND, 10e-15);
        nl.isource_wave(
            "IT",
            out,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1e-9,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 1.0,
                period: 0.0,
            },
        );
        // The bypass cache lives in the sparse workspace; Auto would
        // pick the dense backend for a netlist this small.
        let mut opts = AdaptiveOptions::new(2e-5, 2e-6);
        opts.newton.solver = crate::mna::SolverKind::Sparse;
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let tr = Transient::run_adaptive_traced(&nl, &t, &opts, &mut mc).unwrap();
        assert!(
            mc.metrics().devices_bypassed > 0,
            "latent STSCL load never bypassed"
        );
        // And the waveform still settles where the fixed path puts it.
        assert!((tr.final_voltage(out) - 0.8).abs() < 0.01);
    }

    #[test]
    fn adaptive_with_the_suggested_hint_meets_the_bound_on_an_rc_ladder() {
        // Three-section RC ladder: distinct time constants per node.
        let t = tech();
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let n1 = nl.node("n1");
        let n2 = nl.node("n2");
        let n3 = nl.node("n3");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1.0)]),
        );
        nl.resistor("R1", inp, n1, 1e3);
        nl.capacitor("C1", n1, Netlist::GROUND, 1e-7);
        nl.resistor("R2", n1, n2, 2e3);
        nl.capacitor("C2", n2, Netlist::GROUND, 2e-7);
        nl.resistor("R3", n2, n3, 5e3);
        nl.capacitor("C3", n3, Netlist::GROUND, 1e-7);
        let t_stop = 5e-3;
        let hint = suggest_dt(&nl, t_stop, 0);
        let opts = AdaptiveOptions::new(t_stop, hint).tolerances(1e-4, 1e-7);
        let adaptive = Transient::run_adaptive(&nl, &t, &opts).unwrap();
        // The oracle grid must resolve the Pwl knot at 1e-6 (t_stop/5000
        // makes it the first grid point) — a fixed march that straddles
        // the corner carries an O(dt) error of its own there, larger than
        // the bound this test pins on the adaptive run.
        let oracle =
            Transient::run(&nl, &t, &TranOptions::new(t_stop, t_stop / 5000.0).trapezoidal())
                .unwrap();
        for node in [n1, n2, n3] {
            let mut worst = 0.0f64;
            let mut worst_t = 0.0f64;
            for (i, &ti) in oracle.time().iter().enumerate() {
                let e = (sample(&adaptive, node, ti) - oracle.voltage(node)[i]).abs();
                if e > worst {
                    worst = e;
                    worst_t = ti;
                }
            }
            assert!(worst < 2e-3, "node {node} worst error {worst} at t {worst_t:e}");
        }
    }

    #[test]
    fn adaptive_rejects_inconsistent_options() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        let mut bad = AdaptiveOptions::new(1.0, 0.1);
        bad.dt_min = 0.2; // dt_min > dt_max
        assert!(matches!(
            Transient::run_adaptive(&nl, &tech(), &bad),
            Err(SimError::BadParameter(_))
        ));
        let mut neg = AdaptiveOptions::new(1.0, 0.1);
        neg.bypass_tol = -1.0;
        assert!(matches!(
            Transient::run_adaptive(&nl, &tech(), &neg),
            Err(SimError::BadParameter(_))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid adaptive step bound/stop")]
    fn adaptive_options_constructor_validates() {
        let _ = AdaptiveOptions::new(1.0, 2.0);
    }
}
