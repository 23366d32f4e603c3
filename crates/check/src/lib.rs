//! `ulp-check`: a std-only, loom-style concurrency model checker for
//! the `ulp-exec` engine.
//!
//! The engine's scheduling core is generic over
//! [`ulp_exec::sync::SyncProvider`]. Production builds use `StdSync`
//! (plain `std::sync`, zero overhead); this crate supplies [`Virtual`],
//! a provider that routes every acquire, release, load, store and
//! fetch-add through a deterministic virtual scheduler. On top of that
//! seam sit:
//!
//! * a **bounded schedule explorer** ([`explore`], [`Config`]) —
//!   depth-first enumeration of every interleaving within a preemption
//!   bound (iterative context bounding), plus a seed-derived
//!   random-walk mode for CI;
//! * a **vector-clock race auditor** — the scheduler maintains the
//!   happens-before relation of everything the program does, and
//!   [`RaceCell`] accesses (logically unsynchronized shared data) are
//!   checked against it, djit+-style;
//! * the **pool model** ([`PoolModel`]) — a scaled-down `ulp-exec`
//!   campaign run through the *shipped* `pool::worker_loop` claim loop
//!   on every explored schedule, asserting the determinism
//!   contract (every trial gathered once, bit-identical to the serial
//!   reference, cancellation never leaving a hole), with [`Fault`]
//!   variants that re-introduce real defects so tests can assert the
//!   toolkit catches them.
//!
//! Findings render through `ulp-spice`'s diagnostic machinery into the
//! same SARIF stream as the electrical lints ([`Report::to_sarif`]).
//!
//! # Example
//!
//! Two threads bump a shared counter. Without ordering, the auditor
//! flags the race on the very first schedule; put the accesses under a
//! virtual mutex and every schedule within the bound is clean:
//!
//! ```
//! use ulp_check::{explore_fn, Config, RaceCell};
//! use ulp_exec::sync::SyncMutex;
//!
//! // Unsynchronized: two writes, no happens-before edge between them.
//! let racy = explore_fn(
//!     &Config::exhaustive(1),
//!     2,
//!     || RaceCell::new("counter", 0u64),
//!     |_tid, c| {
//!         c.with_write(|v| *v += 1);
//!     },
//!     |_c| vec![],
//! );
//! assert!(!racy.is_clean());
//! assert_eq!(racy.findings().next().unwrap().rule, "race");
//!
//! // The same program with the accesses ordered by a mutex: the lock's
//! // release/acquire edges order the writes on every schedule.
//! let clean = explore_fn(
//!     &Config::exhaustive(2),
//!     2,
//!     || (ulp_check::sync::Mutex::new(()), RaceCell::new("counter", 0u64)),
//!     |_tid, (lock, c)| {
//!         lock.with(|_| c.with_write(|v| *v += 1));
//!     },
//!     |state| {
//!         let total = state.1.with_read(|v| *v);
//!         assert_eq!(total, 2);
//!         vec![]
//!     },
//! );
//! assert!(clean.is_clean());
//! assert!(clean.schedules > 1, "the explorer tried multiple interleavings");
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod explore;
pub mod harness;
pub mod report;
mod sched;
pub mod sync;

pub use explore::{explore, explore_fn, Config, Mode, Scenario};
pub use harness::{Fault, PoolModel, PoolState, Trial};
pub use report::{Finding, Report, MODEL_PANIC};
pub use sync::{RaceCell, Virtual};

/// Renders a caught panic payload into a message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
