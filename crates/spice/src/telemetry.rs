//! Solver telemetry: convergence tracing, aggregate metrics and a
//! structured event log.
//!
//! Every analysis driver in this crate ([`crate::dcop`], [`crate::sweep`],
//! [`crate::tran`], [`crate::ac`], [`crate::noise`]) emits structured
//! [`Event`]s describing what the solver actually did — Newton attempts
//! with iteration counts and true KCL residuals, gmin-ladder rungs,
//! transient steps, per-frequency and per-sweep-point records, LU stats
//! and wall-clock timing. Two consumers exist:
//!
//! * a caller-supplied [`Tracer`] passed to the `*_traced` form of each
//!   analysis entry point (`X` itself is `X_traced` run on the
//!   collector below) — typically a [`MetricsCollector`];
//! * a process-global collector installed from the `ULP_TRACE`
//!   environment variable (`summary` aggregates only, `events`
//!   additionally keeps the full event log for JSONL export), which the
//!   *default* entry points consult automatically so existing callers
//!   gain telemetry without code changes.
//!
//! Parallel ensemble campaigns (`ulp-exec`) interpose a third layer: a
//! thread-local *worker* collector ([`worker_capture_on`]) absorbs the
//! default-API events of one worker thread without touching the global
//! `Mutex`, and [`fold_worker`] merges ([`SimMetrics::merge`]) each
//! worker's aggregate into the global collector once, at campaign end,
//! in deterministic worker order.
//!
//! Tracing is zero-cost when disabled: the [`NullTracer`] reports
//! `enabled() == false` and the drivers skip event construction and
//! clock reads entirely.
//!
//! # Aggregates
//!
//! [`SimMetrics`] accumulates the deterministic [`SolverCounters`] —
//! declared once, in the `solver_counters!` table below — plus a few
//! timing and pivoting figures and an exact per-attempt iteration
//! sample set, so [`SimMetrics::p50_iterations`] /
//! [`SimMetrics::p95_iterations`] are true nearest-rank percentiles,
//! not estimates. [`SimMetrics::summary`] renders the stable
//! `-- solver metrics --` footer used by the bench binaries;
//! [`MetricsCollector::render_jsonl`] renders the event log one JSON
//! object per line.
//!
//! # Example
//!
//! ```
//! use ulp_spice::netlist::Netlist;
//! use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
//! use ulp_spice::telemetry::{MetricsCollector, TraceMode};
//! use ulp_device::Technology;
//!
//! # fn main() -> Result<(), ulp_spice::SimError> {
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! nl.isource("I1", Netlist::GROUND, a, 1e-6);
//! nl.diode("D1", a, Netlist::GROUND, 1e-15, 1.0);
//! let mut mc = MetricsCollector::new(TraceMode::Events);
//! let op = DcOperatingPoint::solve_traced(
//!     &nl,
//!     &Technology::default(),
//!     &NewtonOptions::default(),
//!     &mut mc,
//! )?;
//! assert!(op.voltage(a) > 0.4);
//! let m = mc.metrics();
//! assert_eq!(m.solves, 1);
//! assert!(m.newton_iterations > 1); // the diode is nonlinear
//! assert!(!mc.events().is_empty());
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json;
use crate::registry::Registry;

/// How much the global collector keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Aggregate counters/histograms only.
    Summary,
    /// Aggregates plus the full structured event log.
    Events,
    /// Everything [`TraceMode::Events`] keeps, plus hierarchical wall-
    /// clock spans (campaign → trial → analysis phase → newton attempt)
    /// for Chrome trace-event export ([`render_chrome_trace`]).
    Spans,
}

impl TraceMode {
    /// Parses the `ULP_TRACE` environment variable: unset or empty →
    /// `None` (tracing off), `events` → [`TraceMode::Events`], `spans` →
    /// [`TraceMode::Spans`], any other non-empty value (canonically
    /// `summary`) → [`TraceMode::Summary`].
    pub fn from_env() -> Option<TraceMode> {
        match std::env::var("ULP_TRACE") {
            Ok(v) if v.is_empty() => None,
            Ok(v) if v.eq_ignore_ascii_case("events") => Some(TraceMode::Events),
            Ok(v) if v.eq_ignore_ascii_case("spans") => Some(TraceMode::Spans),
            Ok(_) => Some(TraceMode::Summary),
            Err(_) => None,
        }
    }

    /// Whether this mode retains the structured event log (Events and
    /// the strictly-richer Spans mode both do).
    pub fn keeps_events(self) -> bool {
        matches!(self, TraceMode::Events | TraceMode::Spans)
    }

    /// Whether this mode additionally records wall-clock spans.
    pub fn keeps_spans(self) -> bool {
        matches!(self, TraceMode::Spans)
    }
}

/// One structured solver event.
///
/// The set mirrors what the analysis drivers actually do; every variant
/// has a stable JSONL rendering via [`Event::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One damped-Newton attempt at a fixed gmin (a direct solve or one
    /// gmin-ladder rung).
    NewtonAttempt {
        /// Which analysis ran the attempt (`dcop`, `sweep`, `tran`...).
        analysis: &'static str,
        /// The gmin the attempt ran at, S.
        gmin: f64,
        /// `None` for the direct attempt at the target gmin; `Some(i)`
        /// for the i-th gmin-ladder rung (0 = heaviest).
        rung: Option<usize>,
        /// Iterations used (≥ 1 unless the budget was zero).
        iterations: usize,
        /// Whether the attempt converged.
        converged: bool,
        /// ∞-norm KCL residual at the last iterate, A.
        residual: f64,
        /// Last damped maximum voltage update, V.
        max_delta: f64,
        /// Iterations on which the `max_step` damping clamp engaged.
        clamps: usize,
        /// Dimension of the factored MNA system.
        lu_dim: usize,
        /// Rows displaced by partial pivoting, summed over the
        /// attempt's factorisations.
        lu_swaps: usize,
        /// Full symbolic (re-pivoting) factorizations in this attempt.
        /// On the dense path every iteration is one; on the sparse path
        /// only the first solve of a pattern (or a pivot-collapse
        /// escalation) is.
        lu_symbolic: usize,
        /// Numeric refactorizations that reused a cached pivot order and
        /// fill-in pattern (sparse path only).
        lu_refactor: usize,
        /// Wall-clock time of the attempt, s (0 when timing is off).
        seconds: f64,
    },
    /// One accepted transient timestep.
    TranStep {
        /// Step index (1-based; step 0 is the DC initial condition).
        step: usize,
        /// End time of the step, s.
        time: f64,
        /// Newton iterations of the accepted attempt.
        newton_iterations: usize,
        /// Companion-model integrator (`backward-euler`/`trapezoidal`).
        method: &'static str,
        /// Nonlinear devices whose evaluation was bypassed (cached
        /// stamps re-applied) during this step's Newton iterations.
        /// Always 0 on the fixed-step path.
        devices_bypassed: usize,
        /// Wall-clock time of the step, s.
        seconds: f64,
    },
    /// One rejected adaptive transient step (the step was retried at a
    /// smaller size; rejected steps do not advance time).
    TranReject {
        /// Index the step would have had if accepted (1-based).
        step: usize,
        /// Start time of the attempted step, s.
        time: f64,
        /// The step size that was rejected, s.
        dt: f64,
        /// Weighted local-truncation-error norm of the attempt (> 1 for
        /// an LTE rejection; 0 when Newton failed before an estimate
        /// existed).
        error: f64,
        /// Whether the rejection was a Newton convergence failure
        /// rather than an LTE overrun.
        newton_failed: bool,
        /// Wall-clock time of the rejected attempt, s.
        seconds: f64,
    },
    /// One AC analysis frequency point.
    AcPoint {
        /// Index within the sweep.
        index: usize,
        /// Analysis frequency, Hz.
        freq: f64,
        /// Full symbolic factorizations at this point (1 for the first
        /// frequency of a sparse run and for every dense point).
        lu_symbolic: usize,
        /// Pattern-reusing numeric refactorizations at this point.
        lu_refactor: usize,
        /// Wall-clock time, s.
        seconds: f64,
    },
    /// One DC sweep point.
    SweepPoint {
        /// Index within the sweep.
        index: usize,
        /// Stimulus value at this point.
        value: f64,
        /// Newton iterations of the accepted attempt.
        newton_iterations: usize,
        /// Wall-clock time, s.
        seconds: f64,
    },
    /// One noise analysis frequency point.
    NoisePoint {
        /// Index within the sweep.
        index: usize,
        /// Analysis frequency, Hz.
        freq: f64,
        /// Number of noise sources back-substituted.
        sources: usize,
        /// Wall-clock time, s.
        seconds: f64,
    },
    /// A named higher-level phase (e.g. `stscl::vtc::sweep`) with its
    /// wall-clock duration.
    Phase {
        /// Phase label, `crate::scope` style.
        name: String,
        /// Wall-clock time, s.
        seconds: f64,
    },
}

impl Event {
    /// Stable machine-readable tag of the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::NewtonAttempt { .. } => "newton_attempt",
            Event::TranStep { .. } => "tran_step",
            Event::TranReject { .. } => "tran_reject",
            Event::AcPoint { .. } => "ac_point",
            Event::SweepPoint { .. } => "sweep_point",
            Event::NoisePoint { .. } => "noise_point",
            Event::Phase { .. } => "phase",
        }
    }

    /// Renders the event as one JSON object (stable key order, no
    /// trailing newline) — the unit of the JSONL export.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(s, "{{\"event\":\"{}\"", self.kind());
        match self {
            Event::NewtonAttempt {
                analysis,
                gmin,
                rung,
                iterations,
                converged,
                residual,
                max_delta,
                clamps,
                lu_dim,
                lu_swaps,
                lu_symbolic,
                lu_refactor,
                seconds,
            } => {
                let _ = write!(s, ",\"analysis\":\"{analysis}\"");
                let _ = write!(s, ",\"gmin\":{}", json::num(*gmin));
                match rung {
                    Some(r) => {
                        let _ = write!(s, ",\"rung\":{r}");
                    }
                    None => s.push_str(",\"rung\":null"),
                }
                let _ = write!(s, ",\"iterations\":{iterations}");
                let _ = write!(s, ",\"converged\":{converged}");
                let _ = write!(s, ",\"residual\":{}", json::num(*residual));
                let _ = write!(s, ",\"max_delta\":{}", json::num(*max_delta));
                let _ = write!(s, ",\"clamps\":{clamps}");
                let _ = write!(s, ",\"lu_dim\":{lu_dim}");
                let _ = write!(s, ",\"lu_swaps\":{lu_swaps}");
                let _ = write!(s, ",\"lu_symbolic\":{lu_symbolic}");
                let _ = write!(s, ",\"lu_refactor\":{lu_refactor}");
                let _ = write!(s, ",\"seconds\":{}", json::num(*seconds));
            }
            Event::TranStep {
                step,
                time,
                newton_iterations,
                method,
                devices_bypassed,
                seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"time\":{},\"newton_iterations\":{newton_iterations},\"method\":\"{method}\",\"devices_bypassed\":{devices_bypassed},\"seconds\":{}",
                    json::num(*time),
                    json::num(*seconds)
                );
            }
            Event::TranReject {
                step,
                time,
                dt,
                error,
                newton_failed,
                seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"time\":{},\"dt\":{},\"error\":{},\"newton_failed\":{newton_failed},\"seconds\":{}",
                    json::num(*time),
                    json::num(*dt),
                    json::num(*error),
                    json::num(*seconds)
                );
            }
            Event::AcPoint {
                index,
                freq,
                lu_symbolic,
                lu_refactor,
                seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"index\":{index},\"freq\":{},\"lu_symbolic\":{lu_symbolic},\"lu_refactor\":{lu_refactor},\"seconds\":{}",
                    json::num(*freq),
                    json::num(*seconds)
                );
            }
            Event::SweepPoint {
                index,
                value,
                newton_iterations,
                seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"index\":{index},\"value\":{},\"newton_iterations\":{newton_iterations},\"seconds\":{}",
                    json::num(*value),
                    json::num(*seconds)
                );
            }
            Event::NoisePoint {
                index,
                freq,
                sources,
                seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"index\":{index},\"freq\":{},\"sources\":{sources},\"seconds\":{}",
                    json::num(*freq),
                    json::num(*seconds)
                );
            }
            Event::Phase { name, seconds } => {
                let _ = write!(
                    s,
                    ",\"name\":\"{}\",\"seconds\":{}",
                    json::escape(name),
                    json::num(*seconds)
                );
            }
        }
        s.push('}');
        s
    }
}

/// An [`Event`] tagged with the campaign label and trial index that
/// produced it (when it was recorded inside
/// [`with_trial_context`] — i.e. inside an `ulp-exec` trial).
///
/// The JSONL rendering keeps the underlying event's stable key order
/// and appends `"campaign"`/`"trial"` keys before the closing brace, so
/// untagged consumers (and the `^{"event":"…"}` CI grep) keep working.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedEvent {
    /// The solver event itself.
    pub event: Event,
    /// Campaign label (`Ensemble::label`) active at record time.
    pub campaign: Option<Arc<str>>,
    /// Trial index within the campaign active at record time.
    pub trial: Option<usize>,
}

impl TaggedEvent {
    /// Renders the tagged event as one JSON object: the underlying
    /// event's rendering with `campaign`/`trial` keys spliced in when
    /// present.
    pub fn to_json(&self) -> String {
        let mut s = self.event.to_json();
        if self.campaign.is_none() && self.trial.is_none() {
            return s;
        }
        s.pop(); // strip the closing brace, re-append after the tags
        if let Some(c) = &self.campaign {
            let _ = write!(s, ",\"campaign\":\"{}\"", json::escape(c));
        }
        if let Some(t) = self.trial {
            let _ = write!(s, ",\"trial\":{t}");
        }
        s.push('}');
        s
    }
}

/// One completed wall-clock span on the process-monotonic timeline:
/// the unit of the Chrome trace-event export.
///
/// Spans form the campaign → trial → analysis phase → newton attempt
/// hierarchy implicitly, by time-nesting on each worker's timeline —
/// Perfetto reconstructs the stack from containment, so no explicit
/// parent pointers are needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span category (`campaign`, `trial`, `phase`, `newton`).
    pub cat: &'static str,
    /// Human-readable span name (campaign label, analysis name, …).
    pub name: String,
    /// Trial index, when the span ran inside a trial.
    pub trial: Option<usize>,
    /// Worker index whose timeline the span belongs to (rendered as the
    /// Chrome trace `tid`).
    pub worker: usize,
    /// Start offset from the process trace epoch, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

impl SpanEvent {
    /// Renders the span as one Chrome trace-event object (`"ph":"X"`
    /// complete event; `ts`/`dur` in microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            json::escape(&self.name),
            self.cat,
            json::num(self.start_us),
            json::num(self.dur_us),
            self.worker
        );
        if let Some(t) = self.trial {
            let _ = write!(s, ",\"args\":{{\"trial\":{t}}}");
        }
        s.push('}');
        s
    }
}

/// The process-wide monotonic epoch all span timestamps are measured
/// from (fixed on first touch — installing the global collector touches
/// it so campaign timelines start near zero).
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds from the trace epoch to `t` (0 for instants predating
/// the epoch, which cannot happen for spans recorded after any
/// telemetry call).
fn epoch_us(t: Instant) -> f64 {
    t.saturating_duration_since(epoch()).as_secs_f64() * 1e6
}

/// Renders spans as a Chrome trace-event JSON document (the
/// `{"traceEvents":[…]}` object form), loadable in Perfetto or
/// `chrome://tracing`.
pub fn render_chrome_trace(spans: &[SpanEvent]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 128);
    s.push_str("{\"traceEvents\":[");
    for (k, span) in spans.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(&span.to_chrome_json());
    }
    s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    s
}

/// Validates a Chrome trace-event JSON document with the crate's own
/// JSON reader: the top level must hold a `traceEvents` array whose
/// every element is a complete (`"ph":"X"`) event with a name, a
/// category, numeric non-negative `ts`/`dur` and integer `pid`/`tid`.
/// Returns the number of trace events.
///
/// # Errors
///
/// A description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    use crate::json::JsonValue;
    let doc = json::parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("no traceEvents array at top level")?;
    for (k, ev) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{k}]");
        for key in ["name", "cat", "ph"] {
            if ev.get(key).and_then(JsonValue::as_str).is_none() {
                return Err(format!("{ctx}: missing string {key:?}"));
            }
        }
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            return Err(format!("{ctx}: only \"X\" complete events are emitted"));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            let Some(v) = ev.get(key).and_then(JsonValue::as_num) else {
                return Err(format!("{ctx}: missing numeric {key:?}"));
            };
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{ctx}: {key} = {v} out of range"));
            }
        }
    }
    Ok(events.len())
}

thread_local! {
    /// The campaign label and trial index of the `ulp-exec` trial
    /// currently executing on this thread, if any — consulted when
    /// retaining events/spans so telemetry is attributable to the trial
    /// that produced it.
    static TRIAL_CTX: std::cell::RefCell<Option<(Arc<str>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this thread's trial context set to `(campaign, trial)`;
/// events and spans recorded inside are tagged with it. The previous
/// context is restored on exit (also on unwind).
pub fn with_trial_context<R>(campaign: Arc<str>, trial: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<(Arc<str>, usize)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            TRIAL_CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = TRIAL_CTX.with(|c| c.borrow_mut().replace((campaign, trial)));
    let _restore = Restore(prev);
    f()
}

/// The active trial context, if any.
fn current_trial_context() -> (Option<Arc<str>>, Option<usize>) {
    TRIAL_CTX.with(|c| match &*c.borrow() {
        Some((label, trial)) => (Some(label.clone()), Some(*trial)),
        None => (None, None),
    })
}

/// Declares the deterministic solver counters, one row each: the doc
/// comment, the name (a [`SolverCounters`] field and ledger column) and
/// the Prometheus name of the counters [`MetricsCollector`] mirrors into
/// its registry shard. Every per-counter list is generated here: the
/// struct, [`SolverCounters::delta_since`], [`SolverCounters::add`], the
/// ledger columns of [`SolverCounters::fields`] and the registry mirror.
///
/// Adding a counter takes the row, the [`SimMetrics::absorb`] line that
/// counts it, and a [`SimMetrics::summary`] footer line if it should
/// print (footer lines group several counters, so they are written by
/// hand).
macro_rules! solver_counters {
    ($( $(#[$doc:meta])* $name:ident : $prometheus:expr ),* $(,)?) => {
        /// A point-in-time snapshot of the deterministic solver counters —
        /// the per-trial cost ledger diffs two of these around each trial.
        ///
        /// Every field counts discrete solver work (no wall-clock), so a
        /// ledger built from these is byte-identical at any `ULP_JOBS`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolverCounters {
            $( $(#[$doc])* pub $name: usize, )*
        }

        impl SolverCounters {
            /// Number of counters (ledger columns).
            pub const COUNT: usize = [$(stringify!($name)),*].len();

            /// Prometheus name per counter, ledger order (`None`: not
            /// mirrored into the registry).
            const PROMETHEUS: [Option<&'static str>; Self::COUNT] = [$($prometheus),*];

            /// The counters accrued since `earlier` (a snapshot taken on
            /// the same collector before the work being measured).
            pub fn delta_since(self, earlier: SolverCounters) -> SolverCounters {
                SolverCounters {
                    $( $name: self.$name.saturating_sub(earlier.$name), )*
                }
            }

            /// Adds `other`, counter by counter.
            pub fn add(&mut self, other: &SolverCounters) {
                $( self.$name += other.$name; )*
            }

            /// `(name, value)` of every counter, in ledger column order.
            pub fn fields(&self) -> [(&'static str, usize); Self::COUNT] {
                [$( (stringify!($name), self.$name) ),*]
            }

            /// `(Prometheus name, value)` of every counter that has one.
            fn mirrored(&self) -> impl Iterator<Item = (&'static str, usize)> {
                Self::PROMETHEUS
                    .into_iter()
                    .zip(self.fields())
                    .filter_map(|(prometheus, (_, value))| Some((prometheus?, value)))
            }
        }
    };
}

solver_counters! {
    /// Newton attempts (direct solves and ladder rungs).
    attempts: None,
    /// Attempts that converged.
    solves: None,
    /// Attempts that did not converge.
    failures: None,
    /// Total Newton iterations across all attempts.
    newton_iterations: None,
    /// Solves that fell back to the gmin ladder (first-rung events).
    gmin_fallbacks: None,
    /// Full symbolic (pivot-choosing) factorizations; the dense fallback
    /// performs one per linear solve, the sparse path one per pattern.
    symbolic_factorizations: None,
    /// Numeric refactorizations that reused a cached symbolic pattern.
    numeric_refactorizations: None,
    /// Transient steps accepted.
    tran_steps: Some("ulp_tran_steps_accepted_total"),
    /// Adaptive transient steps rejected (LTE overruns plus Newton
    /// failures; always 0 on the fixed-step path).
    tran_rejected: Some("ulp_tran_steps_rejected_total"),
    /// Rejections caused by the LTE estimate exceeding tolerance (a
    /// subset of `tran_rejected`).
    lte_exceeded: Some("ulp_tran_lte_exceeded_total"),
    /// Nonlinear device evaluations bypassed via the latency cache.
    devices_bypassed: Some("ulp_tran_devices_bypassed_total"),
    /// AC frequency points solved.
    ac_points: None,
    /// DC sweep points solved.
    sweep_points: None,
    /// Noise frequency points solved.
    noise_points: None,
}

/// A sink for solver events.
///
/// Implementations must be cheap to call; the drivers consult
/// [`Tracer::enabled`] before building events so a disabled tracer costs
/// nothing in the hot loops.
pub trait Tracer {
    /// Records one structured event.
    fn record(&mut self, event: &Event);

    /// Whether callers should bother constructing events (and reading
    /// the clock). Defaults to `true`; [`NullTracer`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The no-op tracer: discards everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&mut self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Aggregate solver counters and exact iteration statistics.
///
/// The deterministic counters are one embedded [`SolverCounters`]
/// ([`SimMetrics::counters`]); the plain fields are the figures the cost
/// ledger leaves out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    counters: SolverCounters,
    /// Iterations on which the voltage-damping clamp engaged.
    pub damping_clamps: usize,
    /// Rows displaced by partial pivoting, summed over factorisations.
    pub lu_swaps: usize,
    /// Largest MNA system dimension factored.
    pub max_dimension: usize,
    /// Wall-clock time summed over Newton attempts, s.
    pub solve_seconds: f64,
    /// Per-attempt iteration counts, recording order (for percentiles).
    iter_samples: Vec<usize>,
    /// Named phase durations, recording order.
    phases: Vec<(String, f64)>,
}

/// Counter reads as fields (`m.newton_iterations`) on a [`SimMetrics`].
/// The benchmark in `perfbench/` reads them that way; new code reads
/// [`SimMetrics::counters`].
impl std::ops::Deref for SimMetrics {
    type Target = SolverCounters;

    fn deref(&self) -> &SolverCounters {
        &self.counters
    }
}

/// Nearest-rank percentile of an unsorted sample set: the smallest value
/// with at least `q`% of samples at or below it. Returns 0 when empty.
fn percentile(samples: &[usize], q: f64) -> usize {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl SimMetrics {
    /// Folds one event into the aggregates.
    pub fn absorb(&mut self, event: &Event) {
        let c = &mut self.counters;
        match event {
            Event::NewtonAttempt {
                rung,
                iterations,
                converged,
                clamps,
                lu_dim,
                lu_swaps,
                lu_symbolic,
                lu_refactor,
                seconds,
                ..
            } => {
                c.attempts += 1;
                if *converged {
                    c.solves += 1;
                } else {
                    c.failures += 1;
                }
                c.newton_iterations += iterations;
                self.iter_samples.push(*iterations);
                if *rung == Some(0) {
                    c.gmin_fallbacks += 1;
                }
                self.damping_clamps += clamps;
                self.lu_swaps += lu_swaps;
                c.symbolic_factorizations += lu_symbolic;
                c.numeric_refactorizations += lu_refactor;
                self.max_dimension = self.max_dimension.max(*lu_dim);
                self.solve_seconds += seconds;
            }
            Event::TranStep {
                devices_bypassed, ..
            } => {
                c.tran_steps += 1;
                c.devices_bypassed += devices_bypassed;
            }
            Event::TranReject { newton_failed, .. } => {
                c.tran_rejected += 1;
                if !newton_failed {
                    c.lte_exceeded += 1;
                }
            }
            Event::AcPoint {
                lu_symbolic,
                lu_refactor,
                ..
            } => {
                c.ac_points += 1;
                c.symbolic_factorizations += lu_symbolic;
                c.numeric_refactorizations += lu_refactor;
            }
            Event::SweepPoint { .. } => c.sweep_points += 1,
            Event::NoisePoint { .. } => c.noise_points += 1,
            Event::Phase { name, seconds } => self.phases.push((name.clone(), *seconds)),
        }
    }

    /// Median per-attempt Newton iteration count (nearest-rank).
    pub fn p50_iterations(&self) -> usize {
        percentile(&self.iter_samples, 50.0)
    }

    /// 95th-percentile per-attempt Newton iteration count.
    pub fn p95_iterations(&self) -> usize {
        percentile(&self.iter_samples, 95.0)
    }

    /// Worst per-attempt Newton iteration count.
    pub fn max_iterations(&self) -> usize {
        self.iter_samples.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of factorizations that reused a cached symbolic pattern
    /// instead of re-pivoting from scratch (0 when nothing was factored).
    /// The dense fallback path never reuses, so this is also a quick
    /// check of which backend a campaign actually ran on.
    pub fn pattern_reuse_rate(&self) -> f64 {
        let c = &self.counters;
        let total = c.symbolic_factorizations + c.numeric_refactorizations;
        if total == 0 {
            0.0
        } else {
            c.numeric_refactorizations as f64 / total as f64
        }
    }

    /// Recorded phase durations, recording order.
    pub fn phases(&self) -> &[(String, f64)] {
        &self.phases
    }

    /// The deterministic counter subset as a cheap [`SolverCounters`]
    /// snapshot — what the per-trial cost ledger diffs around each
    /// trial.
    pub fn counters(&self) -> SolverCounters {
        self.counters
    }

    /// Folds another aggregate into this one: counters add, the maximum
    /// dimension takes the max, and the exact iteration sample set is
    /// concatenated — so percentiles of the merged aggregate equal the
    /// percentiles of one collector that saw every event. This is how a
    /// parallel campaign's per-worker collectors combine at campaign
    /// end without the workers ever sharing a lock mid-run.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.counters.add(&other.counters);
        self.damping_clamps += other.damping_clamps;
        self.lu_swaps += other.lu_swaps;
        self.max_dimension = self.max_dimension.max(other.max_dimension);
        self.solve_seconds += other.solve_seconds;
        self.iter_samples.extend_from_slice(&other.iter_samples);
        self.phases.extend(other.phases.iter().cloned());
    }

    /// The stable multi-line `-- solver metrics --` footer. Each
    /// Newton iteration factors once, so the `lu factorisations` line
    /// prints the iteration total.
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut s = String::new();
        let _ = writeln!(s, "-- solver metrics --");
        let _ = writeln!(
            s,
            "total solves      : {} ({} attempts, {} failed)",
            c.solves, c.attempts, c.failures
        );
        let _ = writeln!(
            s,
            "newton iterations : {} total, p50 {}, p95 {}, max {}",
            c.newton_iterations,
            self.p50_iterations(),
            self.p95_iterations(),
            self.max_iterations()
        );
        let _ = writeln!(s, "gmin fallbacks    : {}", c.gmin_fallbacks);
        let _ = writeln!(s, "damping clamps    : {}", self.damping_clamps);
        let _ = writeln!(
            s,
            "lu factorisations : {} (max dim {}, {} pivot swaps)",
            c.newton_iterations, self.max_dimension, self.lu_swaps
        );
        let _ = writeln!(
            s,
            "lu pattern reuse  : {} symbolic, {} refactor ({:.1}% reuse)",
            c.symbolic_factorizations,
            c.numeric_refactorizations,
            100.0 * self.pattern_reuse_rate()
        );
        let _ = writeln!(
            s,
            "analysis points   : tran {}, ac {}, sweep {}, noise {}",
            c.tran_steps, c.ac_points, c.sweep_points, c.noise_points
        );
        let _ = writeln!(
            s,
            "adaptive stepping : {} rejected ({} lte), {} device bypasses",
            c.tran_rejected, c.lte_exceeded, c.devices_bypassed
        );
        let _ = write!(s, "solve wall time   : {:.3e} s", self.solve_seconds);
        for (name, secs) in &self.phases {
            let _ = write!(s, "\nphase             : {name} {secs:.3e} s");
        }
        s
    }
}

/// A [`Tracer`] that aggregates [`SimMetrics`], retains the full event
/// log in [`TraceMode::Events`] and additionally records wall-clock
/// spans and registry metrics in [`TraceMode::Spans`].
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    mode: TraceMode,
    metrics: SimMetrics,
    events: Vec<TaggedEvent>,
    spans: Vec<SpanEvent>,
    registry: Registry,
    /// Worker index this collector shards for (0 for the global
    /// collector and for serial campaigns); stamps recorded spans.
    worker: usize,
}

impl MetricsCollector {
    /// Creates a collector in the given mode (worker index 0).
    pub fn new(mode: TraceMode) -> Self {
        MetricsCollector::for_worker(mode, 0)
    }

    /// Creates a collector sharding for the given worker index; spans it
    /// records carry that index as their Chrome-trace `tid`.
    pub fn for_worker(mode: TraceMode, worker: usize) -> Self {
        MetricsCollector {
            mode,
            metrics: SimMetrics::default(),
            events: Vec::new(),
            spans: Vec::new(),
            registry: Registry::new(),
            worker,
        }
    }

    /// The aggregates so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The retained events (empty in [`TraceMode::Summary`]).
    pub fn events(&self) -> &[TaggedEvent] {
        &self.events
    }

    /// The recorded spans (empty outside [`TraceMode::Spans`]).
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// This collector's metrics-registry shard.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the registry shard.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Takes the retained events, leaving the log empty.
    pub fn take_events(&mut self) -> Vec<TaggedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Takes the recorded spans, leaving the span log empty.
    pub fn take_spans(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.spans)
    }

    /// Records one completed span (no-op outside [`TraceMode::Spans`]).
    pub fn record_span(&mut self, cat: &'static str, name: &str, trial: Option<usize>, start_us: f64, dur_us: f64) {
        if self.mode.keeps_spans() {
            self.spans.push(SpanEvent {
                cat,
                name: name.to_string(),
                trial,
                worker: self.worker,
                start_us,
                dur_us,
            });
        }
    }

    /// Renders the retained events as JSONL (one object per line,
    /// trailing newline when non-empty).
    pub fn render_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_json());
            s.push('\n');
        }
        s
    }

    /// Clears aggregates, events, spans and the registry shard.
    pub fn reset(&mut self) {
        self.metrics = SimMetrics::default();
        self.events.clear();
        self.spans.clear();
        self.registry = Registry::new();
    }

    /// Folds another collector into this one: aggregates merge via
    /// [`SimMetrics::merge`], registry shards via [`Registry::merge`];
    /// retained events/spans are appended when *this* collector keeps
    /// them. Folding workers in worker-index order keeps the merged
    /// logs deterministic.
    pub fn merge(&mut self, other: &MetricsCollector) {
        self.metrics.merge(&other.metrics);
        self.registry.merge(&other.registry);
        if self.mode.keeps_events() {
            self.events.extend(other.events.iter().cloned());
        }
        if self.mode.keeps_spans() {
            self.spans.extend(other.spans.iter().cloned());
        }
    }

    /// Synthesises a span from an already-timed solver event (Newton
    /// attempts and phases carry their own duration, so the span's start
    /// is reconstructed as `now − duration` on this worker's timeline).
    fn synth_span(&mut self, event: &Event, trial: Option<usize>) {
        let (cat, name, seconds): (&'static str, String, f64) = match event {
            Event::NewtonAttempt {
                analysis, seconds, ..
            } => ("newton", (*analysis).to_string(), *seconds),
            Event::Phase { name, seconds } => ("phase", name.clone(), *seconds),
            _ => return,
        };
        let end_us = epoch_us(Instant::now());
        let dur_us = (seconds * 1e6).max(0.0);
        self.spans.push(SpanEvent {
            cat,
            name,
            trial,
            worker: self.worker,
            start_us: (end_us - dur_us).max(0.0),
            dur_us,
        });
    }
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector::new(TraceMode::Summary)
    }
}

impl Tracer for MetricsCollector {
    fn record(&mut self, event: &Event) {
        // Counters with a Prometheus name mirror into the registry shard
        // so campaign exports carry them without a second aggregation
        // pass: each adds this event's nonzero delta.
        let before = self.metrics.counters;
        self.metrics.absorb(event);
        let delta = self.metrics.counters.delta_since(before);
        for (name, d) in delta.mirrored() {
            if d > 0 {
                self.registry.counter_add(name, d as u64);
            }
        }
        if self.mode.keeps_events() {
            let (campaign, trial) = current_trial_context();
            if self.mode.keeps_spans() {
                self.synth_span(event, trial);
            }
            self.events.push(TaggedEvent {
                event: event.clone(),
                campaign,
                trial,
            });
        }
    }
}

/// The decided global tracing state: the mode outside the `Mutex` so
/// hot-path mode checks never contend with a collector holding the
/// lock.
struct Global {
    mode: TraceMode,
    collector: Mutex<MetricsCollector>,
}

impl Global {
    fn new(mode: TraceMode) -> Global {
        let _ = epoch(); // pin the span timeline origin at install time
        Global {
            mode,
            collector: Mutex::new(MetricsCollector::new(mode)),
        }
    }
}

/// The process-global collector, decided once: either installed
/// programmatically via [`install_global`] or from `ULP_TRACE` on first
/// touch.
static GLOBAL: OnceLock<Option<Global>> = OnceLock::new();

fn global_cell() -> &'static Option<Global> {
    GLOBAL.get_or_init(|| TraceMode::from_env().map(Global::new))
}

fn lock(m: &Mutex<MetricsCollector>) -> std::sync::MutexGuard<'_, MetricsCollector> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs the global collector programmatically (instead of via the
/// environment). Returns `false` if the decision was already made —
/// by a prior call or by any earlier default-API analysis (which reads
/// `ULP_TRACE` on first touch).
pub fn install_global(mode: TraceMode) -> bool {
    GLOBAL.set(Some(Global::new(mode))).is_ok()
}

/// Whether a global collector is active.
pub fn global_enabled() -> bool {
    global_cell().is_some()
}

/// The global collector's mode, if one is active (lock-free after the
/// first touch).
pub fn global_mode() -> Option<TraceMode> {
    global_cell().as_ref().map(|g| g.mode)
}

thread_local! {
    /// Per-worker collector: when installed (inside [`worker_capture_on`]),
    /// this thread's default-API events land here instead of in the
    /// global `Mutex`, so parallel ensemble workers never contend on the
    /// global lock mid-campaign.
    static WORKER: std::cell::RefCell<Option<MetricsCollector>> =
        const { std::cell::RefCell::new(None) };
}

/// Clears the worker slot even if the captured closure unwinds, so a
/// panicking worker cannot leave a stale collector installed on a
/// pooled thread.
struct WorkerSlotGuard;

impl Drop for WorkerSlotGuard {
    fn drop(&mut self) {
        WORKER.with(|w| w.borrow_mut().take());
    }
}

/// Runs `f` with a fresh thread-local collector (mirroring the global
/// collector's mode) capturing every default-API event this thread
/// records, and returns it alongside `f`'s result. When tracing is off
/// this is a plain call returning `None` — zero cost.
///
/// The caller is responsible for folding the returned collector back
/// into the global one via [`fold_worker`]; doing so *after* joining
/// all workers, in a deterministic worker order, keeps the global event
/// log's ordering independent of thread scheduling.
///
/// The captured collector shards for worker `worker`, stamping its
/// index on recorded spans so each pool worker renders as its own
/// Chrome-trace timeline.
pub fn worker_capture_on<R>(
    worker: usize,
    f: impl FnOnce() -> R,
) -> (R, Option<MetricsCollector>) {
    let Some(mode) = global_mode() else {
        return (f(), None);
    };
    WORKER.with(|w| *w.borrow_mut() = Some(MetricsCollector::for_worker(mode, worker)));
    let guard = WorkerSlotGuard;
    let r = f();
    let mc = WORKER.with(|w| w.borrow_mut().take());
    drop(guard);
    (r, mc)
}

/// Folds a worker collector (from [`worker_capture_on`]) into the global
/// collector. A no-op when tracing is off.
pub fn fold_worker(mc: &MetricsCollector) {
    if let Some(g) = global_cell() {
        lock(&g.collector).merge(mc);
    }
}

/// Runs `f` against the active *collector*: this thread's worker
/// collector when installed, else the global one. Returns `None` (and
/// does not run `f`) when tracing is off.
fn with_collector<R>(f: impl FnOnce(&mut MetricsCollector) -> R) -> Option<R> {
    let worker_active = WORKER.with(|w| w.borrow().is_some());
    if worker_active {
        return Some(WORKER.with(|w| {
            f(w.borrow_mut().as_mut().expect("worker collector installed"))
        }));
    }
    global_cell().as_ref().map(|g| f(&mut lock(&g.collector)))
}

/// A snapshot of the deterministic solver counters accumulated *on this
/// thread's worker collector* (`None` when no worker collector is
/// installed — i.e. outside a traced campaign). The cost ledger diffs
/// two of these around each trial; reading only the thread-local shard
/// keeps it lock-free.
pub fn local_counters() -> Option<SolverCounters> {
    WORKER.with(|w| w.borrow().as_ref().map(|mc| mc.metrics.counters()))
}

/// Adds `delta` to the named registry counter on the active collector.
/// A no-op when tracing is off.
pub fn counter_add(name: &str, delta: u64) {
    with_collector(|mc| mc.registry.counter_add(name, delta));
}

/// Records one wall-clock observation into the named registry histogram
/// on the active collector. A no-op when tracing is off.
pub fn observe_seconds(name: &str, seconds: f64) {
    with_collector(|mc| mc.registry.observe_seconds(name, seconds));
}

/// Whether span recording is active (global mode is
/// [`TraceMode::Spans`]).
pub fn spans_enabled() -> bool {
    global_mode().is_some_and(TraceMode::keeps_spans)
}

/// Times `f` and records a completed span with the given category/name
/// on the active collector. A plain call when span recording is off.
pub fn span<R>(cat: &'static str, name: &str, trial: Option<usize>, f: impl FnOnce() -> R) -> R {
    if !spans_enabled() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let start_us = epoch_us(t0);
    let dur_us = t0.elapsed().as_secs_f64() * 1e6;
    with_collector(|mc| mc.record_span(cat, name, trial, start_us, dur_us));
    r
}

/// Runs `f` with the active tracer: this thread's worker collector when
/// one is installed ([`worker_capture_on`]), else the global collector
/// when one is active, else the [`NullTracer`]. This is what every
/// default analysis entry point routes through.
///
/// `f` must not recursively call a *default* analysis entry point while
/// holding the tracer (the drivers use only `*_traced` internals, so
/// this cannot happen through this crate's own APIs).
pub fn with_tracer<R>(f: impl FnOnce(&mut dyn Tracer) -> R) -> R {
    let worker_active = WORKER.with(|w| w.borrow().is_some());
    if worker_active {
        return WORKER.with(|w| {
            f(w.borrow_mut().as_mut().expect("worker collector installed"))
        });
    }
    match global_cell() {
        Some(g) => f(&mut *lock(&g.collector)),
        None => f(&mut NullTracer),
    }
}

/// A snapshot of the global aggregates (`None` when tracing is off).
pub fn snapshot() -> Option<SimMetrics> {
    global_cell()
        .as_ref()
        .map(|g| lock(&g.collector).metrics().clone())
}

/// A snapshot of the global metrics registry (`None` when tracing is
/// off; empty until worker shards fold in or global-path metrics are
/// recorded).
pub fn registry_snapshot() -> Option<Registry> {
    global_cell()
        .as_ref()
        .map(|g| lock(&g.collector).registry().clone())
}

/// Takes the globally retained events (empty unless the global
/// collector keeps events — [`TraceMode::Events`] or
/// [`TraceMode::Spans`]).
pub fn take_events() -> Vec<TaggedEvent> {
    global_cell()
        .as_ref()
        .map(|g| lock(&g.collector).take_events())
        .unwrap_or_default()
}

/// Clones the globally recorded spans without draining them (empty
/// outside [`TraceMode::Spans`]). Use this for mid-run validation;
/// the end-of-run exporter uses the draining [`take_spans`].
pub fn spans_snapshot() -> Vec<SpanEvent> {
    global_cell()
        .as_ref()
        .map(|g| lock(&g.collector).spans().to_vec())
        .unwrap_or_default()
}

/// Takes the globally recorded spans (empty outside
/// [`TraceMode::Spans`]).
pub fn take_spans() -> Vec<SpanEvent> {
    global_cell()
        .as_ref()
        .map(|g| lock(&g.collector).take_spans())
        .unwrap_or_default()
}

/// Times `f` and records a [`Event::Phase`] with the given name on the
/// global collector. A no-op wrapper when tracing is off. The global
/// lock is taken only *after* `f` returns, so `f` may freely run
/// (default or traced) analyses.
pub fn phase<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !global_enabled() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let seconds = t0.elapsed().as_secs_f64();
    with_tracer(|t| {
        t.record(&Event::Phase {
            name: name.to_string(),
            seconds,
        })
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(iterations: usize, converged: bool, rung: Option<usize>) -> Event {
        Event::NewtonAttempt {
            analysis: "dcop",
            gmin: 1e-12,
            rung,
            iterations,
            converged,
            residual: 1e-9,
            max_delta: 1e-10,
            clamps: 1,
            lu_dim: 7,
            lu_swaps: 2,
            lu_symbolic: 1,
            lu_refactor: iterations.saturating_sub(1),
            seconds: 0.5e-3,
        }
    }

    #[test]
    fn aggregates_are_exact_on_a_scripted_sequence() {
        let mut mc = MetricsCollector::new(TraceMode::Events);
        // 20 attempts with iteration counts 1..=20; the 10th (iters 10)
        // is a failed direct attempt followed by a ladder engagement.
        for i in 1..=20usize {
            let rung = if i == 11 { Some(0) } else { None };
            mc.record(&attempt(i, i != 10, rung));
        }
        let m = mc.metrics();
        assert_eq!(m.attempts, 20);
        assert_eq!(m.solves, 19);
        assert_eq!(m.failures, 1);
        assert_eq!(m.newton_iterations, (1..=20).sum::<usize>());
        assert_eq!(m.gmin_fallbacks, 1);
        assert_eq!(m.damping_clamps, 20);
        assert_eq!(m.lu_swaps, 40);
        // One symbolic per attempt, iterations−1 pattern reuses each.
        assert_eq!(m.symbolic_factorizations, 20);
        assert_eq!(m.numeric_refactorizations, (1..=20).sum::<usize>() - 20);
        let rate = m.numeric_refactorizations as f64
            / (m.symbolic_factorizations + m.numeric_refactorizations) as f64;
        assert!((m.pattern_reuse_rate() - rate).abs() < 1e-12);
        assert_eq!(m.max_dimension, 7);
        // Nearest-rank percentiles on 1..=20: p50 = 10, p95 = 19.
        assert_eq!(m.p50_iterations(), 10);
        assert_eq!(m.p95_iterations(), 19);
        assert_eq!(m.max_iterations(), 20);
        assert!((m.solve_seconds - 20.0 * 0.5e-3).abs() < 1e-12);
        assert_eq!(mc.events().len(), 20);
    }

    #[test]
    fn point_events_count_into_their_buckets() {
        let mut mc = MetricsCollector::default();
        mc.record(&Event::TranStep {
            step: 1,
            time: 1e-9,
            newton_iterations: 3,
            method: "backward-euler",
            devices_bypassed: 4,
            seconds: 0.0,
        });
        mc.record(&Event::TranReject {
            step: 2,
            time: 1e-9,
            dt: 5e-10,
            error: 2.5,
            newton_failed: false,
            seconds: 0.0,
        });
        mc.record(&Event::TranReject {
            step: 2,
            time: 1e-9,
            dt: 2.5e-10,
            error: 0.0,
            newton_failed: true,
            seconds: 0.0,
        });
        mc.record(&Event::AcPoint {
            index: 0,
            freq: 1e3,
            lu_symbolic: 1,
            lu_refactor: 0,
            seconds: 0.0,
        });
        mc.record(&Event::SweepPoint {
            index: 4,
            value: 0.5,
            newton_iterations: 2,
            seconds: 0.0,
        });
        mc.record(&Event::NoisePoint {
            index: 0,
            freq: 10.0,
            sources: 3,
            seconds: 0.0,
        });
        mc.record(&Event::Phase {
            name: "stscl::vtc".into(),
            seconds: 1e-3,
        });
        let m = mc.metrics();
        assert_eq!(
            (m.tran_steps, m.ac_points, m.sweep_points, m.noise_points),
            (1, 1, 1, 1)
        );
        // Rejections split into LTE overruns vs Newton failures; bypass
        // counts accumulate from accepted steps only.
        assert_eq!(
            (m.tran_rejected, m.lte_exceeded, m.devices_bypassed),
            (2, 1, 4)
        );
        // The registry shard mirrors the same counters.
        use crate::registry::Metric;
        assert_eq!(
            mc.registry().get("ulp_tran_steps_accepted_total"),
            Some(&Metric::Counter(1))
        );
        assert_eq!(
            mc.registry().get("ulp_tran_steps_rejected_total"),
            Some(&Metric::Counter(2))
        );
        assert_eq!(
            mc.registry().get("ulp_tran_lte_exceeded_total"),
            Some(&Metric::Counter(1))
        );
        assert_eq!(
            mc.registry().get("ulp_tran_devices_bypassed_total"),
            Some(&Metric::Counter(4))
        );
        assert_eq!(m.phases(), &[("stscl::vtc".to_string(), 1e-3)]);
        // Summary mode retains no events.
        assert!(mc.events().is_empty());
        assert_eq!(mc.render_jsonl(), "");
    }

    #[test]
    fn jsonl_rendering_is_wellformed() {
        let mut mc = MetricsCollector::new(TraceMode::Events);
        mc.record(&attempt(5, true, Some(2)));
        mc.record(&Event::Phase {
            name: "a\"b\\c".into(),
            seconds: f64::INFINITY,
        });
        let jsonl = mc.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            assert!(line.contains("\"event\":\""), "{line}");
        }
        assert!(lines[0].contains("\"rung\":2"));
        assert!(lines[0].contains("\"converged\":true"));
        // Non-finite floats become null; quotes/backslashes are escaped.
        assert!(lines[1].contains("\"seconds\":null"));
        assert!(lines[1].contains("a\\\"b\\\\c"));
        // A direct attempt renders rung as JSON null.
        assert!(attempt(1, true, None).to_json().contains("\"rung\":null"));
        // Adaptive-step events keep their stable key order.
        let step = Event::TranStep {
            step: 3,
            time: 1e-8,
            newton_iterations: 2,
            method: "trapezoidal",
            devices_bypassed: 5,
            seconds: 0.0,
        }
        .to_json();
        assert!(step.contains("\"devices_bypassed\":5,\"seconds\":"), "{step}");
        let rej = Event::TranReject {
            step: 4,
            time: 2e-8,
            dt: 1e-9,
            error: 1.7,
            newton_failed: false,
            seconds: 0.0,
        }
        .to_json();
        assert!(rej.starts_with("{\"event\":\"tran_reject\""), "{rej}");
        assert!(rej.contains("\"dt\":1e-9"), "{rej}");
        assert!(rej.contains("\"newton_failed\":false"), "{rej}");
    }

    #[test]
    fn summary_footer_is_stable_and_parseable() {
        let mut mc = MetricsCollector::default();
        mc.record(&attempt(4, true, None));
        let s = mc.metrics().summary();
        assert!(s.starts_with("-- solver metrics --"));
        for key in [
            "total solves      :",
            "newton iterations :",
            "gmin fallbacks    :",
            "damping clamps    :",
            "lu factorisations :",
            "lu pattern reuse  :",
            "analysis points   :",
            "solve wall time   :",
        ] {
            assert!(s.contains(key), "missing `{key}` in:\n{s}");
        }
        assert!(s.contains("total solves      : 1 (1 attempts, 0 failed)"));
        assert!(s.contains("newton iterations : 4 total, p50 4, p95 4, max 4"));
    }

    fn tran_step(step: usize, devices_bypassed: usize) -> Event {
        Event::TranStep {
            step,
            time: step as f64 * 1e-9,
            newton_iterations: 2,
            method: "trapezoidal",
            devices_bypassed,
            seconds: 0.0,
        }
    }

    fn tran_reject(step: usize, newton_failed: bool) -> Event {
        Event::TranReject {
            step,
            time: step as f64 * 1e-9,
            dt: 5e-10,
            error: if newton_failed { 0.0 } else { 2.5 },
            newton_failed,
            seconds: 0.0,
        }
    }

    #[test]
    fn summary_footer_golden_bytes() {
        // Every event kind once or more, with dyadic wall times so the
        // summed seconds are exact.
        let dyadic = |iterations: usize, converged: bool, rung: Option<usize>, seconds: f64| {
            Event::NewtonAttempt {
                analysis: "dcop",
                gmin: 1e-12,
                rung,
                iterations,
                converged,
                residual: 1e-9,
                max_delta: 1e-10,
                clamps: iterations / 2,
                lu_dim: 5 + iterations,
                lu_swaps: 1,
                lu_symbolic: 1,
                lu_refactor: iterations - 1,
                seconds,
            }
        };
        let mut mc = MetricsCollector::default();
        for e in [
            dyadic(3, true, None, 0.125),
            dyadic(7, false, None, 0.25),
            dyadic(4, true, Some(0), 0.0625),
            dyadic(2, true, Some(1), 0.03125),
            tran_step(1, 5),
            tran_reject(2, false),
            tran_reject(2, true),
            tran_step(2, 0),
            Event::AcPoint {
                index: 0,
                freq: 1e3,
                lu_symbolic: 1,
                lu_refactor: 0,
                seconds: 0.0,
            },
            Event::SweepPoint {
                index: 0,
                value: 0.5,
                newton_iterations: 3,
                seconds: 0.0,
            },
            Event::NoisePoint {
                index: 0,
                freq: 10.0,
                sources: 3,
                seconds: 0.0,
            },
            Event::Phase {
                name: "stscl::vtc".into(),
                seconds: 0.5,
            },
        ] {
            mc.record(&e);
        }
        assert_eq!(
            mc.metrics().summary(),
            "-- solver metrics --\n\
             total solves      : 3 (4 attempts, 1 failed)\n\
             newton iterations : 16 total, p50 3, p95 7, max 7\n\
             gmin fallbacks    : 1\n\
             damping clamps    : 7\n\
             lu factorisations : 16 (max dim 12, 4 pivot swaps)\n\
             lu pattern reuse  : 5 symbolic, 12 refactor (70.6% reuse)\n\
             analysis points   : tran 2, ac 1, sweep 1, noise 1\n\
             adaptive stepping : 2 rejected (1 lte), 5 device bypasses\n\
             solve wall time   : 4.688e-1 s\n\
             phase             : stscl::vtc 5.000e-1 s"
        );
    }

    #[test]
    fn registry_mirror_golden_bytes() {
        // Without bypasses or an LTE overrun, neither of their series
        // exists; with them, each appears with its summed count.
        let mut mc = MetricsCollector::default();
        mc.record(&tran_step(1, 0));
        mc.record(&tran_reject(2, true));
        assert_eq!(
            mc.registry().render_prometheus(),
            "# TYPE ulp_tran_steps_accepted_total counter\n\
             ulp_tran_steps_accepted_total 1\n\
             # TYPE ulp_tran_steps_rejected_total counter\n\
             ulp_tran_steps_rejected_total 1\n"
        );
        mc.record(&tran_step(2, 3));
        mc.record(&tran_reject(3, false));
        mc.record(&tran_step(3, 4));
        assert_eq!(
            mc.registry().render_prometheus(),
            "# TYPE ulp_tran_devices_bypassed_total counter\n\
             ulp_tran_devices_bypassed_total 7\n\
             # TYPE ulp_tran_lte_exceeded_total counter\n\
             ulp_tran_lte_exceeded_total 1\n\
             # TYPE ulp_tran_steps_accepted_total counter\n\
             ulp_tran_steps_accepted_total 3\n\
             # TYPE ulp_tran_steps_rejected_total counter\n\
             ulp_tran_steps_rejected_total 2\n"
        );
        assert_eq!(
            mc.registry().render_jsonl(),
            "{\"metric\":\"ulp_tran_devices_bypassed_total\",\"type\":\"counter\",\
             \"value\":7}\n\
             {\"metric\":\"ulp_tran_lte_exceeded_total\",\"type\":\"counter\",\
             \"value\":1}\n\
             {\"metric\":\"ulp_tran_steps_accepted_total\",\"type\":\"counter\",\
             \"value\":3}\n\
             {\"metric\":\"ulp_tran_steps_rejected_total\",\"type\":\"counter\",\
             \"value\":2}\n"
        );
    }

    #[test]
    fn percentile_nearest_rank_edge_cases() {
        assert_eq!(percentile(&[], 95.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[4, 3, 2, 1], 100.0), 4);
    }

    #[test]
    fn null_tracer_is_disabled() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.record(&attempt(1, true, None));
        let mut mc = MetricsCollector::default();
        assert!(Tracer::enabled(&mc));
        mc.reset();
        assert_eq!(mc.metrics(), &SimMetrics::default());
    }

    #[test]
    fn merged_collectors_match_a_single_collector_exactly() {
        // Split the same scripted event sequence across three worker
        // collectors in an arbitrary interleaving; the merged aggregate
        // must equal (including exact percentiles) the aggregate of one
        // collector that saw everything.
        let events: Vec<Event> = (1..=20usize)
            .map(|i| attempt(i, i != 10, if i == 11 { Some(0) } else { None }))
            .chain(std::iter::once(Event::Phase {
                name: "stscl::vtc".into(),
                seconds: 1e-3,
            }))
            .chain(std::iter::once(Event::TranStep {
                step: 1,
                time: 1e-9,
                newton_iterations: 3,
                method: "backward-euler",
                devices_bypassed: 2,
                seconds: 0.0,
            }))
            .collect();
        let mut single = MetricsCollector::new(TraceMode::Events);
        for e in &events {
            single.record(e);
        }
        let mut workers = [
            MetricsCollector::new(TraceMode::Events),
            MetricsCollector::new(TraceMode::Events),
            MetricsCollector::new(TraceMode::Events),
        ];
        for (k, e) in events.iter().enumerate() {
            // An adversarial spread: bursts to one worker, dribbles to
            // the others.
            workers[(k * k + k / 3) % 3].record(e);
        }
        let mut merged = MetricsCollector::new(TraceMode::Events);
        for w in &workers {
            merged.merge(w);
        }
        let (m, s) = (merged.metrics(), single.metrics());
        assert_eq!(m.attempts, s.attempts);
        assert_eq!(m.solves, s.solves);
        assert_eq!(m.failures, s.failures);
        assert_eq!(m.newton_iterations, s.newton_iterations);
        assert_eq!(m.gmin_fallbacks, s.gmin_fallbacks);
        assert_eq!(m.damping_clamps, s.damping_clamps);
        assert_eq!(m.lu_swaps, s.lu_swaps);
        assert_eq!(m.max_dimension, s.max_dimension);
        assert_eq!(m.tran_steps, s.tran_steps);
        assert_eq!(m.p50_iterations(), s.p50_iterations());
        assert_eq!(m.p95_iterations(), s.p95_iterations());
        assert_eq!(m.max_iterations(), s.max_iterations());
        assert!((m.solve_seconds - s.solve_seconds).abs() < 1e-12);
        assert_eq!(merged.events().len(), single.events().len());
        // The rendered footer agrees on every line except wall time
        // (floating-point sum order may differ at the last bit).
        for (a, b) in m.summary().lines().zip(s.summary().lines()) {
            if !a.starts_with("solve wall time") {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn merge_into_summary_collector_drops_events_keeps_counts() {
        let mut worker = MetricsCollector::new(TraceMode::Events);
        worker.record(&attempt(3, true, None));
        let mut global = MetricsCollector::new(TraceMode::Summary);
        global.merge(&worker);
        assert_eq!(global.metrics().attempts, 1);
        assert!(global.events().is_empty());
    }

    #[test]
    fn worker_capture_without_global_is_transparent() {
        // In this test process the global collector may or may not have
        // been decided yet; worker_capture_on must never install a local
        // collector when tracing is off, and must always run the
        // closure exactly once.
        let mut ran = 0;
        let (r, mc) = worker_capture_on(0, || {
            ran += 1;
            7
        });
        assert_eq!((r, ran), (7, 1));
        if global_mode().is_none() {
            assert!(mc.is_none());
        }
        // Whatever happened, the slot is clear afterwards: default-API
        // recording falls through to the global/null path.
        WORKER.with(|w| assert!(w.borrow().is_none()));
    }

    #[test]
    fn collector_reset_and_take_events() {
        let mut mc = MetricsCollector::new(TraceMode::Events);
        mc.record(&attempt(2, true, None));
        let taken = mc.take_events();
        assert_eq!(taken.len(), 1);
        assert!(mc.events().is_empty());
        assert_eq!(mc.metrics().attempts, 1); // metrics survive the take
        mc.reset();
        assert_eq!(mc.metrics().attempts, 0);
    }

    #[test]
    fn trace_mode_lattice_and_env_spelling() {
        assert!(!TraceMode::Summary.keeps_events());
        assert!(TraceMode::Events.keeps_events());
        assert!(TraceMode::Spans.keeps_events());
        assert!(!TraceMode::Events.keeps_spans());
        assert!(TraceMode::Spans.keeps_spans());
    }

    #[test]
    fn events_are_tagged_with_the_active_trial_context() {
        let mut mc = MetricsCollector::new(TraceMode::Events);
        mc.record(&attempt(2, true, None));
        with_trial_context(Arc::from("yield"), 17, || {
            mc.record(&attempt(3, true, None));
        });
        mc.record(&attempt(4, true, None));
        let ev = mc.events();
        assert_eq!(ev.len(), 3);
        assert_eq!((ev[0].campaign.as_deref(), ev[0].trial), (None, None));
        assert_eq!((ev[1].campaign.as_deref(), ev[1].trial), (Some("yield"), Some(17)));
        assert_eq!((ev[2].campaign.as_deref(), ev[2].trial), (None, None));
        // Tagged JSONL keeps the leading "event" key (the CI grep
        // contract) and appends the tags before the closing brace.
        let line = ev[1].to_json();
        assert!(line.starts_with("{\"event\":\"newton_attempt\""), "{line}");
        assert!(line.ends_with(",\"campaign\":\"yield\",\"trial\":17}"), "{line}");
        // Untagged events render byte-identically to the bare event.
        assert_eq!(ev[0].to_json(), ev[0].event.to_json());
    }

    #[test]
    fn trial_context_restores_on_unwind() {
        let r = std::panic::catch_unwind(|| {
            with_trial_context(Arc::from("c"), 0, || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(current_trial_context(), (None, None));
    }

    #[test]
    fn spans_mode_synthesises_newton_and_phase_spans() {
        let mut mc = MetricsCollector::for_worker(TraceMode::Spans, 3);
        mc.record(&attempt(5, true, None));
        mc.record(&Event::Phase {
            name: "exec::yield".into(),
            seconds: 1e-3,
        });
        mc.record(&Event::TranStep {
            step: 1,
            time: 1e-9,
            newton_iterations: 2,
            method: "backward-euler",
            devices_bypassed: 0,
            seconds: 0.0,
        });
        mc.record(&Event::TranReject {
            step: 2,
            time: 2e-9,
            dt: 1e-10,
            error: 3.0,
            newton_failed: false,
            seconds: 0.0,
        });
        let spans = mc.spans();
        assert_eq!(spans.len(), 2, "tran steps/rejects synthesise no span");
        assert_eq!((spans[0].cat, spans[0].worker), ("newton", 3));
        assert_eq!((spans[1].cat, spans[1].name.as_str()), ("phase", "exec::yield"));
        assert!(spans[1].dur_us >= 999.0, "duration carried over: {}", spans[1].dur_us);
        assert!(spans.iter().all(|s| s.start_us >= 0.0 && s.dur_us >= 0.0));
        // Events are retained too: Spans is a superset of Events.
        assert_eq!(mc.events().len(), 4);
        // Summary/Events collectors record no spans.
        let mut plain = MetricsCollector::new(TraceMode::Events);
        plain.record(&attempt(2, true, None));
        plain.record_span("trial", "t", Some(0), 0.0, 1.0);
        assert!(plain.spans().is_empty());
    }

    #[test]
    fn chrome_trace_renders_and_validates() {
        let spans = vec![
            SpanEvent {
                cat: "campaign",
                name: "exec::yield".into(),
                trial: None,
                worker: 0,
                start_us: 0.0,
                dur_us: 1000.0,
            },
            SpanEvent {
                cat: "trial",
                name: "yield \"quoted\"".into(),
                trial: Some(4),
                worker: 1,
                start_us: 10.5,
                dur_us: 250.25,
            },
        ];
        let doc = render_chrome_trace(&spans);
        assert_eq!(validate_chrome_trace(&doc).unwrap(), 2);
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"args\":{\"trial\":4}"));
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}").unwrap(), 0);
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"cat\":\"c\",\"ph\":\"B\",\"ts\":0,\"dur\":0,\"pid\":1,\"tid\":0}]}"
            )
            .is_err(),
            "only complete events"
        );
    }

    #[test]
    fn chrome_trace_with_20k_spans_validates() {
        // The JSON reader is linear in the document: a trace far larger
        // than any campaign writes still validates quickly.
        let spans: Vec<SpanEvent> = (0..20_000)
            .map(|k| SpanEvent {
                cat: "trial",
                name: format!("trial µ{k}"),
                trial: Some(k),
                worker: k % 4,
                start_us: k as f64 * 2.5,
                dur_us: 2.0,
            })
            .collect();
        let doc = render_chrome_trace(&spans);
        assert_eq!(validate_chrome_trace(&doc).unwrap(), 20_000);
    }

    #[test]
    fn solver_counters_snapshot_and_delta() {
        let mut mc = MetricsCollector::new(TraceMode::Summary);
        mc.record(&attempt(4, true, None));
        let before = mc.metrics().counters();
        mc.record(&attempt(6, true, Some(0)));
        let after = mc.metrics().counters();
        let d = after.delta_since(before);
        assert_eq!(d.attempts, 1);
        assert_eq!(d.newton_iterations, 6);
        assert_eq!(d.gmin_fallbacks, 1);
        assert_eq!(d.solves, 1);
        assert_eq!(SolverCounters::default().delta_since(after), SolverCounters::default());
    }

    #[test]
    fn collector_merge_carries_spans_and_registry() {
        let mut w0 = MetricsCollector::for_worker(TraceMode::Spans, 0);
        w0.record_span("trial", "a", Some(0), 0.0, 5.0);
        w0.registry_mut().counter_add("ulp_trials_total", 2);
        let mut w1 = MetricsCollector::for_worker(TraceMode::Spans, 1);
        w1.record_span("trial", "b", Some(1), 1.0, 5.0);
        w1.registry_mut().counter_add("ulp_trials_total", 3);
        let mut global = MetricsCollector::new(TraceMode::Spans);
        global.merge(&w0);
        global.merge(&w1);
        assert_eq!(global.spans().len(), 2);
        assert_eq!(global.spans()[0].worker, 0);
        assert_eq!(global.spans()[1].worker, 1);
        assert_eq!(
            global.registry().get("ulp_trials_total"),
            Some(&crate::registry::Metric::Counter(5))
        );
        // A summary-mode sink still folds the registry (counters are
        // deterministic) but drops spans.
        let mut summary = MetricsCollector::new(TraceMode::Summary);
        summary.merge(&w0);
        assert!(summary.spans().is_empty());
        assert_eq!(
            summary.registry().get("ulp_trials_total"),
            Some(&crate::registry::Metric::Counter(2))
        );
    }
}
