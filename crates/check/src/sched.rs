//! The virtual scheduler: loom-style cooperative serialization of real
//! OS threads.
//!
//! Every virtual thread is a real `std::thread`, but at most one is
//! ever *running*: each synchronization operation of the `Virtual`
//! provider first reaches a **yield point**, where the
//! [`DecisionEngine`](crate::explore) either lets the current thread
//! continue or switches to another runnable thread. Because threads
//! only progress when chosen, the interleaving of visible operations is
//! exactly the decision sequence — deterministic, replayable, and
//! enumerable.
//!
//! The scheduler simultaneously maintains the happens-before relation
//! as vector clocks ([`crate::clock`]): mutex release/acquire, atomic
//! store/load (release/acquire) and RMW operations all contribute
//! edges; [`crate::RaceCell`] accesses contribute *none* and
//! are audited against the clocks (djit+), so any pair of unordered
//! conflicting accesses is reported as a `race` finding.
//!
//! Aborts (deadlock, step budget, a sibling's panic) unwind every
//! in-flight thread with a quiet [`AbortPanic`] payload so the
//! `std::thread::scope` join always completes.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

use crate::clock::VectorClock;
use crate::explore::DecisionEngine;
use crate::report::Finding;
use ulp_spice::lint::rule;

/// Panic payload used for cooperative teardown after an abort. Not a
/// bug signal: the panic hook suppresses its report and the thread
/// wrapper maps it to "no panic".
pub(crate) struct AbortPanic;

/// Unwinds the current virtual thread quietly.
fn abort_panic() -> ! {
    std::panic::panic_any(AbortPanic)
}

/// Installs (once per process) a forwarding panic hook that silences
/// [`AbortPanic`] payloads and leaves every other panic's report
/// untouched.
pub(crate) fn install_quiet_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortPanic>() {
                return;
            }
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Thread-local context: which scheduler, which virtual thread.
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) struct Ctx {
    pub shared: Arc<SchedShared>,
    /// `Some(tid)` inside a modelled worker; `None` on the coordinating
    /// thread during setup/check, where operations execute physically
    /// with no yields and no audit (execution is single-threaded there).
    pub tid: Option<usize>,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn current_tid() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.tid))
}

/// Installs a context for the current OS thread, restoring the previous
/// one on drop.
pub(crate) fn install_ctx(shared: Arc<SchedShared>, tid: Option<usize>) -> CtxGuard {
    let prev = CTX.with(|c| c.borrow_mut().replace(Ctx { shared, tid }));
    CtxGuard { prev }
}

pub(crate) struct CtxGuard {
    prev: Option<Ctx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

// ---------------------------------------------------------------------------
// Scheduler state.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting for the mutex object to be released.
    Blocked(usize),
    Finished,
}

/// What kind of synchronization object a registered id refers to.
pub(crate) enum ObjKind {
    Mutex { held: bool },
    /// Both atomics (bool and usize) model their value as a `u64`.
    Atomic { value: u64 },
    /// An audited, deliberately *unsynchronized* data location
    /// ([`crate::RaceCell`]): per-thread last-write and last-read
    /// epochs for djit+ race detection.
    Data {
        write_epochs: VectorClock,
        read_epochs: VectorClock,
    },
}

struct ObjState {
    kind: ObjKind,
    /// The object's release clock (meaningless for `Data`).
    clock: VectorClock,
    label: String,
}

struct Inner {
    status: Vec<Status>,
    /// The one virtual thread allowed to run (valid once `started`).
    active: usize,
    started: bool,
    engine: DecisionEngine,
    clocks: Vec<VectorClock>,
    objects: Vec<ObjState>,
    findings: Vec<Finding>,
    /// Set on deadlock / step-budget exhaustion / worker panic; every
    /// waiting thread unwinds when it observes this.
    abort: Option<String>,
    panics: Vec<(usize, String)>,
    steps: usize,
    max_steps: usize,
}

impl Inner {
    fn runnable(&self) -> Vec<usize> {
        (0..self.status.len())
            .filter(|&t| self.status[t] == Status::Runnable)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.status.iter().all(|&s| s == Status::Finished)
    }

    /// Picks the next active thread. `current` is `Some(tid)` when the
    /// decision is taken on behalf of a still-existing thread (it may or
    /// may not be runnable), `None` at campaign start and thread exit.
    /// Returns `Err` on deadlock (finding recorded, abort set).
    fn schedule_from(&mut self, current: Option<usize>, names: &[String]) -> Result<(), ()> {
        let runnable = self.runnable();
        if runnable.is_empty() {
            if self.all_finished() {
                return Ok(());
            }
            let stuck: Vec<String> = (0..self.status.len())
                .filter(|&t| self.status[t] != Status::Finished)
                .map(|t| names[t].clone())
                .collect();
            self.findings.push(
                Finding::new(
                    rule::SCHEDULE_DEADLOCK,
                    "scheduler",
                    format!(
                        "deadlock: no runnable thread, {} still waiting",
                        stuck.join(", ")
                    ),
                )
                .with_threads(stuck),
            );
            self.abort = Some("deadlock".to_string());
            return Err(());
        }
        self.active = self.engine.decide(current, &runnable);
        Ok(())
    }
}

/// The shared scheduler a whole run (one schedule) hangs off.
pub(crate) struct SchedShared {
    inner: Mutex<Inner>,
    cv: Condvar,
    names: Vec<String>,
}

impl SchedShared {
    pub(crate) fn new(names: Vec<String>, engine: DecisionEngine, max_steps: usize) -> Self {
        let n = names.len();
        SchedShared {
            inner: Mutex::new(Inner {
                status: vec![Status::Runnable; n],
                active: 0,
                started: false,
                engine,
                clocks: (0..n).map(|t| VectorClock::origin(n, t)).collect(),
                objects: Vec::new(),
                findings: Vec::new(),
                abort: None,
                panics: Vec::new(),
                steps: 0,
                max_steps,
            }),
            cv: Condvar::new(),
            names,
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn name(&self, tid: usize) -> &str {
        &self.names[tid]
    }

    /// Registers a synchronization object, returning its id.
    pub(crate) fn register(&self, kind: ObjKind, label: impl Into<String>) -> usize {
        let threads = self.names.len();
        let mut g = self.lock_inner();
        g.objects.push(ObjState {
            kind,
            clock: VectorClock::zero(threads),
            label: label.into(),
        });
        g.objects.len() - 1
    }

    pub(crate) fn data_object(&self, label: impl Into<String>) -> usize {
        let threads = self.names.len();
        self.register(
            ObjKind::Data {
                write_epochs: VectorClock::zero(threads),
                read_epochs: VectorClock::zero(threads),
            },
            label,
        )
    }

    // -- the scheduling protocol ------------------------------------------

    /// Waits (guard in hand) until this thread is active and runnable,
    /// unwinding on abort. Returns with the guard re-acquired.
    fn wait_active<'a>(&'a self, mut g: MutexGuard<'a, Inner>, tid: usize) -> MutexGuard<'a, Inner> {
        loop {
            if g.abort.is_some() {
                drop(g);
                abort_panic();
            }
            if g.active == tid && g.status[tid] == Status::Runnable {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The preemption point before every visible operation: the engine
    /// chooses who runs next; if not us, block until chosen again.
    fn yield_point(&self, tid: usize) {
        let mut g = self.lock_inner();
        if g.abort.is_some() {
            drop(g);
            abort_panic();
        }
        g.steps += 1;
        if g.steps > g.max_steps {
            let msg = format!(
                "no termination within {} scheduler steps (livelock?)",
                g.max_steps
            );
            g.findings
                .push(Finding::new(rule::SCHEDULE_DEADLOCK, "scheduler", msg.clone()));
            g.abort = Some(msg);
            self.cv.notify_all();
            drop(g);
            abort_panic();
        }
        let runnable = g.runnable();
        debug_assert!(runnable.contains(&tid), "a running thread must be runnable");
        let chosen = g.engine.decide(Some(tid), &runnable);
        if chosen != tid {
            g.active = chosen;
            self.cv.notify_all();
            drop(self.wait_active(g, tid));
        }
    }

    /// Gate where every worker waits for the initial decision.
    pub(crate) fn wait_start(&self, tid: usize) {
        let mut g = self.lock_inner();
        loop {
            if g.abort.is_some() {
                drop(g);
                abort_panic();
            }
            if g.started && g.active == tid && g.status[tid] == Status::Runnable {
                return;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Opens the campaign: the first thread choice is a (free) branch
    /// point, so the explorer also covers "who goes first".
    pub(crate) fn begin(&self) {
        let mut g = self.lock_inner();
        g.started = true;
        let _ = g.schedule_from(None, &self.names);
        self.cv.notify_all();
    }

    /// A worker's exit. `panic_msg` carries a real (non-abort) panic.
    pub(crate) fn finish(&self, tid: usize, panic_msg: Option<String>) {
        let mut g = self.lock_inner();
        g.status[tid] = Status::Finished;
        if let Some(msg) = panic_msg {
            g.panics.push((tid, msg.clone()));
            if g.abort.is_none() {
                g.abort = Some(format!("worker panicked: {msg}"));
            }
        }
        if g.abort.is_none() {
            let _ = g.schedule_from(None, &self.names);
        }
        self.cv.notify_all();
    }

    /// Drains the run's results. Call after the thread scope has joined.
    pub(crate) fn take_outcome(&self) -> RunOutcome {
        let mut g = self.lock_inner();
        RunOutcome {
            findings: std::mem::take(&mut g.findings),
            trace: g.engine.take_trace(),
            abort: g.abort.take(),
            panics: std::mem::take(&mut g.panics),
            steps: g.steps,
        }
    }

    // -- mutex ------------------------------------------------------------

    pub(crate) fn mutex_acquire(&self, obj: usize) {
        let Some(tid) = current_tid() else {
            // Setup/check phase: single-threaded, no contention possible.
            if let ObjKind::Mutex { held } = &mut self.lock_inner().objects[obj].kind {
                *held = true;
            }
            return;
        };
        self.yield_point(tid);
        let mut g = self.lock_inner();
        loop {
            if g.abort.is_some() {
                drop(g);
                abort_panic();
            }
            let free = matches!(g.objects[obj].kind, ObjKind::Mutex { held: false });
            if free {
                if let ObjKind::Mutex { held } = &mut g.objects[obj].kind {
                    *held = true;
                }
                let oc = g.objects[obj].clock.clone();
                g.clocks[tid].join(&oc);
                return;
            }
            g.status[tid] = Status::Blocked(obj);
            if g.schedule_from(Some(tid), &self.names).is_err() {
                self.cv.notify_all();
                drop(g);
                abort_panic();
            }
            self.cv.notify_all();
            g = self.wait_active(g, tid);
        }
    }

    pub(crate) fn mutex_release(&self, obj: usize) {
        let Some(tid) = current_tid() else {
            if let ObjKind::Mutex { held } = &mut self.lock_inner().objects[obj].kind {
                *held = false;
            }
            return;
        };
        {
            let mut g = self.lock_inner();
            g.clocks[tid].tick(tid);
            let tc = g.clocks[tid].clone();
            g.objects[obj].clock.join(&tc);
            if let ObjKind::Mutex { held } = &mut g.objects[obj].kind {
                *held = false;
            }
            for u in 0..g.status.len() {
                if g.status[u] == Status::Blocked(obj) {
                    g.status[u] = Status::Runnable;
                }
            }
        }
        // Post-release preemption point: a freshly woken waiter may run.
        self.yield_point(tid);
    }

    // -- atomics ----------------------------------------------------------

    pub(crate) fn atomic_load(&self, obj: usize) -> u64 {
        let Some(tid) = current_tid() else {
            return self.atomic_value(obj);
        };
        self.yield_point(tid);
        let mut g = self.lock_inner();
        let oc = g.objects[obj].clock.clone();
        g.clocks[tid].join(&oc); // acquire edge
        match g.objects[obj].kind {
            ObjKind::Atomic { value } => value,
            _ => unreachable!("atomic_load on a non-atomic object"),
        }
    }

    pub(crate) fn atomic_store(&self, obj: usize, v: u64) {
        let Some(tid) = current_tid() else {
            self.set_atomic_value(obj, v);
            return;
        };
        self.yield_point(tid);
        let mut g = self.lock_inner();
        g.clocks[tid].tick(tid);
        let tc = g.clocks[tid].clone();
        g.objects[obj].clock.join(&tc); // release edge
        if let ObjKind::Atomic { value } = &mut g.objects[obj].kind {
            *value = v;
        }
    }

    /// AcqRel read-modify-write; returns the previous value.
    pub(crate) fn atomic_rmw(&self, obj: usize, f: impl FnOnce(u64) -> u64) -> u64 {
        let Some(tid) = current_tid() else {
            let old = self.atomic_value(obj);
            self.set_atomic_value(obj, f(old));
            return old;
        };
        self.yield_point(tid);
        let mut g = self.lock_inner();
        let oc = g.objects[obj].clock.clone();
        g.clocks[tid].join(&oc); // acquire half
        g.clocks[tid].tick(tid);
        let tc = g.clocks[tid].clone();
        g.objects[obj].clock.join(&tc); // release half
        match &mut g.objects[obj].kind {
            ObjKind::Atomic { value } => {
                let old = *value;
                *value = f(old);
                old
            }
            _ => unreachable!("atomic_rmw on a non-atomic object"),
        }
    }

    fn atomic_value(&self, obj: usize) -> u64 {
        match self.lock_inner().objects[obj].kind {
            ObjKind::Atomic { value } => value,
            _ => unreachable!(),
        }
    }

    fn set_atomic_value(&self, obj: usize, v: u64) {
        if let ObjKind::Atomic { value } = &mut self.lock_inner().objects[obj].kind {
            *value = v;
        }
    }

    // -- audited raw data access ------------------------------------------

    /// A [`crate::RaceCell`] access: contributes *no* happens-before
    /// edge; checked against every other thread's prior epochs (djit+).
    pub(crate) fn data_access(&self, obj: usize, is_write: bool) {
        let Some(tid) = current_tid() else {
            return; // setup/check phase is single-threaded — not audited
        };
        self.yield_point(tid);
        let mut g = self.lock_inner();
        let threads = self.names.len();
        let inner = &mut *g;
        let me = &inner.clocks[tid];
        let label = inner.objects[obj].label.clone();
        if let ObjKind::Data {
            write_epochs,
            read_epochs,
        } = &mut inner.objects[obj].kind
        {
            let mut conflict: Option<(usize, &'static str)> = None;
            for u in (0..threads).filter(|&u| u != tid) {
                if !me.dominates_component(write_epochs, u) {
                    conflict = Some((u, "write"));
                    break;
                }
                if is_write && !me.dominates_component(read_epochs, u) {
                    conflict = Some((u, "read"));
                    break;
                }
            }
            if let Some((u, prior)) = conflict {
                let kind = if is_write { "write" } else { "read" };
                inner.findings.push(
                    Finding::new(
                        rule::RACE,
                        label.clone(),
                        format!(
                            "unsynchronized {kind} of `{label}` by {} races with a prior {prior} by {}",
                            self.name(tid),
                            self.name(u)
                        ),
                    )
                    .with_threads([self.name(tid).to_string(), self.name(u).to_string()]),
                );
            }
            let epoch = me.component(tid);
            if is_write {
                write_epochs.record(tid, epoch);
            } else {
                read_epochs.record(tid, epoch);
            }
        }
    }
}

/// Everything one schedule produced.
pub(crate) struct RunOutcome {
    pub findings: Vec<Finding>,
    pub trace: Vec<crate::explore::BranchRecord>,
    pub abort: Option<String>,
    pub panics: Vec<(usize, String)>,
    #[allow(dead_code)]
    pub steps: usize,
}
