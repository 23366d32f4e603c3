//! The bounded schedule explorer.
//!
//! Execution under the virtual scheduler is fully determined by the
//! sequence of scheduling decisions, so exploring interleavings is
//! exploring decision sequences. A decision point only *branches* when
//! more than one choice is on offer:
//!
//! * a **preemption** — the current thread is runnable but the engine
//!   may switch away — branches only while the schedule's preemption
//!   count is below the context bound (iterative context bounding, the
//!   CHESS insight: almost all concurrency bugs need very few
//!   preemptions);
//! * a **forced switch** — the current thread blocked or finished —
//!   always branches over every runnable thread and costs
//!   nothing against the bound.
//!
//! Exhaustive mode replays the campaign under depth-first search over
//! branch points: a replay script pins the first `k` branch decisions,
//! the default policy (keep running the current thread; else the
//! lowest-id runnable) extends the schedule deterministically past the
//! script, and the recorded [`BranchRecord`]s seed backtracking. Walk
//! mode replaces DFS with `n` independent runs whose branch choices
//! come from seed-derived [`SplitMix64`] streams — a cheap, fully
//! deterministic smoke mode for CI boxes that cannot afford the
//! exhaustive frontier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::SplitMix64;
use rand::SeedableRng;

use crate::report::{Finding, Report, MODEL_PANIC};
use crate::sched::{install_ctx, install_quiet_abort_hook, AbortPanic, SchedShared};

/// One branch point of a schedule: the runnable choices that were on
/// offer (default policy first) and which was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchRecord {
    pub(crate) options: Vec<usize>,
    pub(crate) chosen: usize,
}

enum EngineMode {
    /// Replay `script` decisions at branch points, then default policy.
    Dfs { script: Vec<usize>, cursor: usize },
    /// Every branch decision drawn from a deterministic stream.
    Walk { rng: SplitMix64 },
}

/// The per-run scheduling policy: replays a prefix, applies the default
/// policy beyond it, and records every branch point it passes.
pub(crate) struct DecisionEngine {
    mode: EngineMode,
    bound: usize,
    preemptions: usize,
    trace: Vec<BranchRecord>,
}

impl DecisionEngine {
    pub(crate) fn dfs(bound: usize, script: Vec<usize>) -> Self {
        DecisionEngine {
            mode: EngineMode::Dfs { script, cursor: 0 },
            bound,
            preemptions: 0,
            trace: Vec::new(),
        }
    }

    pub(crate) fn walk(bound: usize, rng: SplitMix64) -> Self {
        DecisionEngine {
            mode: EngineMode::Walk { rng },
            bound,
            preemptions: 0,
            trace: Vec::new(),
        }
    }

    /// Chooses the next thread to run. `current` is the thread asking
    /// (`None` at campaign start / thread exit); `runnable` is sorted
    /// ascending and non-empty.
    pub(crate) fn decide(&mut self, current: Option<usize>, runnable: &[usize]) -> usize {
        let current_runnable = current.is_some_and(|c| runnable.contains(&c));
        // Default-policy-first option list.
        let options: Vec<usize> = if current_runnable {
            let cur = current.expect("current_runnable implies current");
            if runnable.len() > 1 && self.preemptions < self.bound {
                std::iter::once(cur)
                    .chain(runnable.iter().copied().filter(|&t| t != cur))
                    .collect()
            } else {
                vec![cur] // continuing is free; switching would cost a preemption
            }
        } else {
            runnable.to_vec() // forced switch: every choice, no preemption cost
        };
        let chosen = if options.len() == 1 {
            options[0]
        } else {
            let idx = match &mut self.mode {
                EngineMode::Dfs { script, cursor } => {
                    if *cursor < script.len() {
                        let want = script[*cursor];
                        *cursor += 1;
                        options
                            .iter()
                            .position(|&t| t == want)
                            .expect("replay script names a thread not on offer — nondeterminism")
                    } else {
                        0
                    }
                }
                EngineMode::Walk { rng } => {
                    use rand::RngCore;
                    (rng.next_u64() % options.len() as u64) as usize
                }
            };
            let chosen = options[idx];
            self.trace.push(BranchRecord {
                options,
                chosen,
            });
            chosen
        };
        if current_runnable && Some(chosen) != current {
            self.preemptions += 1;
        }
        chosen
    }

    pub(crate) fn take_trace(&mut self) -> Vec<BranchRecord> {
        std::mem::take(&mut self.trace)
    }
}

// ---------------------------------------------------------------------------
// Scenario + configuration.
// ---------------------------------------------------------------------------

/// A concurrent program under test.
pub trait Scenario: Sync {
    /// Shared state built once per schedule (before threads start).
    type State: Send + Sync;

    /// Number of virtual threads.
    fn threads(&self) -> usize;

    /// Builds the shared state. Runs unscheduled and unaudited.
    fn setup(&self) -> Self::State;

    /// One virtual thread's body. Every `Virtual`-provider operation
    /// inside is a preemption point.
    fn worker(&self, tid: usize, state: &Self::State);

    /// Invariant check after all threads joined (skipped when the
    /// schedule aborted). Runs unscheduled and unaudited.
    fn check(&self, state: &Self::State) -> Vec<Finding>;

    /// Display name for thread `tid` in findings.
    fn thread_name(&self, tid: usize) -> String {
        format!("worker-{tid}")
    }
}

/// How hard to explore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Depth-first search over every schedule within the bound.
    Exhaustive,
    /// `walks` independent random-walk schedules from `seed` streams.
    Walk { seed: u64, walks: usize },
}

/// Exploration parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Preemption (context-switch) bound per schedule.
    pub bound: usize,
    /// Exhaustive DFS or seeded random walk.
    pub mode: Mode,
    /// DFS safety valve: stop (and mark the report truncated) after
    /// this many schedules.
    pub max_schedules: usize,
    /// Per-schedule step budget before declaring livelock.
    pub max_steps: usize,
}

impl Config {
    /// Exhaustive exploration at `bound` preemptions.
    pub fn exhaustive(bound: usize) -> Self {
        Config {
            bound,
            mode: Mode::Exhaustive,
            max_schedules: 50_000,
            max_steps: 100_000,
        }
    }

    /// `walks` seeded random-walk schedules at `bound` preemptions.
    pub fn walk(bound: usize, seed: u64, walks: usize) -> Self {
        Config {
            bound,
            mode: Mode::Walk { seed, walks },
            max_schedules: 50_000,
            max_steps: 100_000,
        }
    }
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

struct RunResult {
    findings: Vec<Finding>,
    trace: Vec<BranchRecord>,
}

/// Runs one schedule of `scenario` under `engine`.
fn run_schedule<S: Scenario>(cfg: &Config, scenario: &S, engine: DecisionEngine) -> RunResult {
    let names: Vec<String> = (0..scenario.threads())
        .map(|t| scenario.thread_name(t))
        .collect();
    let shared = Arc::new(SchedShared::new(names, engine, cfg.max_steps));
    // The coordinating thread gets a tid-less context: primitives
    // created in setup()/check() register against this scheduler but
    // execute physically.
    let _main_ctx = install_ctx(Arc::clone(&shared), None);
    let state = scenario.setup();
    std::thread::scope(|scope| {
        for tid in 0..scenario.threads() {
            let shared = Arc::clone(&shared);
            let state = &state;
            scope.spawn(move || {
                let _ctx = install_ctx(Arc::clone(&shared), Some(tid));
                // The whole body — start gate included — runs under
                // catch_unwind: an abort can unwind a thread while it
                // is still waiting its first turn.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    shared.wait_start(tid);
                    scenario.worker(tid, state)
                }));
                let panic_msg = match result {
                    Ok(()) => None,
                    Err(p) if p.is::<AbortPanic>() => None, // cooperative teardown
                    Err(p) => Some(crate::panic_message(&*p)),
                };
                shared.finish(tid, panic_msg);
            });
        }
        shared.begin();
    });
    let outcome = shared.take_outcome();
    let mut findings = outcome.findings;
    for (tid, msg) in &outcome.panics {
        findings.push(
            Finding::new(
                MODEL_PANIC,
                "scenario",
                format!("{} panicked under the model: {msg}", scenario.thread_name(*tid)),
            )
            .with_threads([scenario.thread_name(*tid)]),
        );
    }
    // An aborted schedule never reached a quiescent final state, so the
    // scenario's invariant check would report nonsense; the abort cause
    // itself is already a finding.
    if outcome.abort.is_none() {
        findings.extend(scenario.check(&state));
    }
    RunResult {
        findings,
        trace: outcome.trace,
    }
}

/// Explores `scenario` under `cfg`, returning the aggregate [`Report`].
///
/// Fully deterministic: the same scenario and config produce the same
/// report, schedule for schedule, byte for byte.
pub fn explore<S: Scenario>(cfg: &Config, scenario: &S) -> Report {
    install_quiet_abort_hook();
    let mut report = Report::new();
    match cfg.mode {
        Mode::Walk { seed, walks } => {
            let root = SplitMix64::seed_from_u64(seed);
            for i in 0..walks {
                let rng = root.derive_stream(i as u64);
                let run = run_schedule(cfg, scenario, DecisionEngine::walk(cfg.bound, rng));
                report.schedules += 1;
                report.absorb(run.findings);
            }
        }
        Mode::Exhaustive => {
            // DFS over branch points. Each stack frame is one branch the
            // current replay prefix commits to; `next` indexes into its
            // recorded options.
            struct Frame {
                options: Vec<usize>,
                next: usize,
            }
            let mut stack: Vec<Frame> = Vec::new();
            loop {
                let script: Vec<usize> = stack.iter().map(|f| f.options[f.next]).collect();
                let run = run_schedule(cfg, scenario, DecisionEngine::dfs(cfg.bound, script));
                report.schedules += 1;
                report.absorb(run.findings);
                // The replay prefix is reproduced exactly, so the trace
                // extends the stack; push the new branch points (their
                // default choice, index 0, was just taken).
                assert!(
                    run.trace.len() >= stack.len(),
                    "schedule replay diverged: {} branch points, expected at least {}",
                    run.trace.len(),
                    stack.len()
                );
                for (frame, rec) in stack.iter().zip(run.trace.iter()) {
                    debug_assert_eq!(
                        rec.chosen,
                        frame.options[frame.next],
                        "replay prefix diverged from the DFS stack"
                    );
                }
                for rec in run.trace.into_iter().skip(stack.len()) {
                    stack.push(Frame {
                        options: rec.options,
                        next: 0,
                    });
                }
                // Backtrack to the deepest branch with an untried option.
                loop {
                    match stack.last_mut() {
                        None => return report,
                        Some(f) => {
                            f.next += 1;
                            if f.next < f.options.len() {
                                break;
                            }
                            stack.pop();
                        }
                    }
                }
                if report.schedules >= cfg.max_schedules {
                    report.truncated = true;
                    return report;
                }
            }
        }
    }
    report
}

/// Closure-shaped [`explore`] for small inline scenarios (see the crate
/// docs for an example).
pub fn explore_fn<T, FS, FW, FC>(
    cfg: &Config,
    threads: usize,
    setup: FS,
    worker: FW,
    check: FC,
) -> Report
where
    T: Send + Sync,
    FS: Fn() -> T + Sync,
    FW: Fn(usize, &T) + Sync,
    FC: Fn(&T) -> Vec<Finding> + Sync,
{
    struct FnScenario<FS, FW, FC> {
        threads: usize,
        setup: FS,
        worker: FW,
        check: FC,
    }
    impl<T, FS, FW, FC> Scenario for FnScenario<FS, FW, FC>
    where
        T: Send + Sync,
        FS: Fn() -> T + Sync,
        FW: Fn(usize, &T) + Sync,
        FC: Fn(&T) -> Vec<Finding> + Sync,
    {
        type State = T;
        fn threads(&self) -> usize {
            self.threads
        }
        fn setup(&self) -> T {
            (self.setup)()
        }
        fn worker(&self, tid: usize, state: &T) {
            (self.worker)(tid, state)
        }
        fn check(&self, state: &T) -> Vec<Finding> {
            (self.check)(state)
        }
    }
    explore(
        cfg,
        &FnScenario {
            threads,
            setup,
            worker,
            check,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::RaceCell;
    use ulp_exec::sync::{SyncFlag, SyncMutex, SyncProvider};
    use ulp_spice::lint::rule;

    type VMutex<T> = <crate::Virtual as SyncProvider>::Mutex<T>;
    type VFlag = <crate::Virtual as SyncProvider>::AtomicBool;

    #[test]
    fn opposite_lock_order_deadlocks_on_some_schedule() {
        let report = explore_fn(
            &Config::exhaustive(2),
            2,
            || (VMutex::new(()), VMutex::new(())),
            |tid, (a, b)| {
                // Thread 0 takes a then b, thread 1 takes b then a: a
                // preemption between the two acquires deadlocks.
                let (first, second) = if tid == 0 { (a, b) } else { (b, a) };
                first.with(|_| second.with(|_| ()));
            },
            |_| vec![],
        );
        assert!(report.has_rule(rule::SCHEDULE_DEADLOCK), "{report:?}");
        // The deadlock needs one preemption; bound 0 never finds it.
        let bound0 = explore_fn(
            &Config::exhaustive(0),
            2,
            || (VMutex::new(()), VMutex::new(())),
            |tid, (a, b)| {
                let (first, second) = if tid == 0 { (a, b) } else { (b, a) };
                first.with(|_| second.with(|_| ()));
            },
            |_| vec![],
        );
        assert!(bound0.is_clean(), "{bound0:?}");
    }

    #[test]
    fn release_acquire_flag_publishes() {
        // Writer publishes a RaceCell value behind a release-stored
        // flag; the reader only touches the cell after an acquire load
        // observes the flag — ordered, clean on every schedule.
        let report = explore_fn(
            &Config::exhaustive(2),
            2,
            || (VFlag::new(false), RaceCell::new("payload", 0u64)),
            |tid, (flag, cell)| {
                if tid == 0 {
                    cell.with_write(|v| *v = 42);
                    flag.store_release(true);
                } else if flag.load_acquire() {
                    cell.with_read(|v| assert_eq!(*v, 42));
                }
            },
            |_| vec![],
        );
        assert!(report.is_clean(), "{report:?}");
        assert!(report.schedules > 1);

        // Remove the flag gate and the same cell races.
        let racy = explore_fn(
            &Config::exhaustive(1),
            2,
            || (VFlag::new(false), RaceCell::new("payload", 0u64)),
            |tid, (flag, cell)| {
                if tid == 0 {
                    cell.with_write(|v| *v = 42);
                    flag.store_release(true);
                } else {
                    let _ = flag.load_acquire(); // load but ignore: no ordering used
                    cell.with_read(|v| *v);
                }
            },
            |_| vec![],
        );
        assert!(racy.has_rule(rule::RACE), "{racy:?}");
    }

    #[test]
    fn worker_panic_surfaces_as_model_panic_finding() {
        let report = explore_fn(
            &Config::exhaustive(0),
            2,
            || (),
            |tid, ()| {
                assert_ne!(tid, 1, "injected failure");
            },
            |_| vec![],
        );
        assert!(report.has_rule(crate::MODEL_PANIC), "{report:?}");
    }

    #[test]
    fn exploration_is_deterministic() {
        let model = crate::PoolModel::healthy(2, 4, 99);
        let a = explore(&Config::exhaustive(1), &model);
        let b = explore(&Config::exhaustive(1), &model);
        assert_eq!(a, b);
        let w1 = explore(&Config::walk(2, 7, 16), &model);
        let w2 = explore(&Config::walk(2, 7, 16), &model);
        assert_eq!(w1, w2);
        assert_eq!(w1.schedules, 16);
    }

    #[test]
    fn widening_the_bound_widens_the_frontier() {
        let model = crate::PoolModel::healthy(2, 4, 5);
        let s0 = explore(&Config::exhaustive(0), &model).schedules;
        let s1 = explore(&Config::exhaustive(1), &model).schedules;
        let s2 = explore(&Config::exhaustive(2), &model).schedules;
        assert!(s0 < s1 && s1 < s2, "{s0} {s1} {s2}");
    }

    #[test]
    fn max_schedules_truncates_and_flags() {
        let model = crate::PoolModel::healthy(2, 4, 5);
        let mut cfg = Config::exhaustive(2);
        cfg.max_schedules = 10;
        let report = explore(&cfg, &model);
        assert!(report.truncated);
        assert_eq!(report.schedules, 10);
        assert!(report.summary().contains("TRUNCATED"));
    }
}
