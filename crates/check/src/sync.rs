//! The virtual synchronization provider: `ulp_exec::sync` primitives
//! routed through the model-checking scheduler.
//!
//! [`Virtual`] implements [`SyncProvider`], so the engine's generic
//! scheduling code ([`ulp_exec::pool::worker_loop`] and
//! [`ulp_exec::CancelToken`]) instantiates with it unchanged — the
//! model checker drives the shipped code, not a re-implementation.
//! Every operation is a preemption point; mutexes and release/acquire
//! atomics contribute happens-before edges to the vector clocks.
//!
//! [`RaceCell`] is the deliberate opposite: physically safe (a real
//! mutex underneath, though the scheduler serializes everything
//! anyway), but *logically* unsynchronized — it contributes no
//! happens-before edge and every access is audited against the clocks.
//! Wrap shared state in it to ask "would this be a data race without
//! the lock I removed?".
//!
//! Virtual primitives can only be constructed inside
//! [`explore`](crate::explore()) — they register with the scheduler of
//! the schedule currently running.

use std::sync::{Arc, Mutex as StdMutex, PoisonError};

use ulp_exec::sync::{SyncCounter, SyncFlag, SyncMutex, SyncProvider};

use crate::sched::{current, ObjKind, SchedShared};

fn scheduler() -> Arc<SchedShared> {
    current()
        .expect("Virtual sync primitives can only be created inside ulp_check::explore")
        .shared
}

/// The model-checking [`SyncProvider`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Virtual;

impl SyncProvider for Virtual {
    type Mutex<T: Send> = Mutex<T>;
    type AtomicBool = AtomicBool;
    type AtomicUsize = AtomicUsize;
}

/// A scheduler-instrumented mutex: acquire and release are preemption
/// points and happens-before edges; the protected value lives in a real
/// `std::sync::Mutex` (uncontended — the scheduler serializes).
pub struct Mutex<T> {
    shared: Arc<SchedShared>,
    obj: usize,
    data: StdMutex<T>,
}

impl<T: Send> SyncMutex<T> for Mutex<T> {
    fn new(value: T) -> Self {
        let shared = scheduler();
        let obj = shared.register(ObjKind::Mutex { held: false }, "mutex");
        Mutex {
            shared,
            obj,
            data: StdMutex::new(value),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.shared.mutex_acquire(self.obj);
        let r = {
            let mut guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut guard)
        };
        self.shared.mutex_release(self.obj);
        r
    }
}

/// A scheduler-instrumented boolean flag (release store / acquire
/// load).
pub struct AtomicBool {
    shared: Arc<SchedShared>,
    obj: usize,
}

impl SyncFlag for AtomicBool {
    fn new(value: bool) -> Self {
        let shared = scheduler();
        let obj = shared.register(ObjKind::Atomic { value: value as u64 }, "atomic-bool");
        AtomicBool { shared, obj }
    }

    fn load_acquire(&self) -> bool {
        self.shared.atomic_load(self.obj) != 0
    }

    fn store_release(&self, value: bool) {
        self.shared.atomic_store(self.obj, value as u64)
    }
}

/// A scheduler-instrumented counter (AcqRel fetch-add).
pub struct AtomicUsize {
    shared: Arc<SchedShared>,
    obj: usize,
}

impl SyncCounter for AtomicUsize {
    fn new(value: usize) -> Self {
        let shared = scheduler();
        let obj = shared.register(ObjKind::Atomic { value: value as u64 }, "atomic-usize");
        AtomicUsize { shared, obj }
    }

    fn fetch_add_acq_rel(&self, n: usize) -> usize {
        self.shared.atomic_rmw(self.obj, |v| v + n as u64) as usize
    }
}

/// Audited, logically-unsynchronized shared data.
///
/// Physically race-free (the scheduler serializes and a real mutex
/// guards the value, keeping the crate `forbid(unsafe_code)`), but the
/// happens-before auditor treats every access as a raw memory access:
/// two accesses from different threads, at least one a write, not
/// ordered by the clocks → a `race` finding.
pub struct RaceCell<T> {
    shared: Arc<SchedShared>,
    obj: usize,
    data: StdMutex<T>,
}

impl<T: Send> RaceCell<T> {
    /// Wraps `value`; `label` names the location in race findings.
    pub fn new(label: &str, value: T) -> Self {
        let shared = scheduler();
        let obj = shared.data_object(label);
        RaceCell {
            shared,
            obj,
            data: StdMutex::new(value),
        }
    }

    /// An audited read access.
    pub fn with_read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.shared.data_access(self.obj, false);
        let guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        f(&guard)
    }

    /// An audited write access.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.shared.data_access(self.obj, true);
        let mut guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}
