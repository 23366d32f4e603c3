//! `ulp-exec`: deterministic parallel execution for Monte-Carlo
//! ensembles and parameter sweeps.
//!
//! Every quantitative experiment in this workspace is an embarrassingly
//! parallel campaign — mismatch dies for the Fig. 11 INL/DNL ensemble
//! and parametric yield, PVT corner grids for the replica-bias check,
//! fs/VDD/ISS sweeps for the chip-summary table. Each is a fixed list
//! of independent, indexed trials known before the first one starts.
//! This crate is the scheduling substrate they all share: a std-only
//! thread pool whose workers claim the next trial index from one shared
//! counter ([`pool::worker_loop`]), under a [`Job`]/[`Ensemble`] API
//! that runs a closure over `N` indexed trials and gathers the results
//! by trial index.
//!
//! # The determinism contract
//!
//! Parallel output is **byte-identical** to serial output:
//!
//! * each trial's randomness is a [`rand::rngs::SplitMix64`] stream
//!   derived from `hash(root_seed, trial_index)`
//!   ([`SplitMix64::derive_stream`](rand::rngs::SplitMix64::derive_stream)) —
//!   never from worker identity or completion order;
//! * results are gathered **by trial index** and reduced in index
//!   order ([`Ensemble::run_reduce`]), so a reduction never observes
//!   scheduling;
//! * worker count changes wall-clock time only: `ULP_JOBS=1` (the
//!   strictly serial in-thread path) and `ULP_JOBS=64` produce the same
//!   bytes.
//!
//! # Failure and control
//!
//! A panicking trial is caught at the trial boundary and surfaces as
//! [`TrialError::Panicked`] in its own result slot — sibling trials are
//! unaffected and the campaign completes. Cancellation is cooperative
//! via [`CancelToken`]; a cancelled campaign reports unstarted trials
//! as [`TrialError::Cancelled`]. Solver telemetry
//! (`ulp_spice::telemetry`) is wired through: each worker thread
//! captures its events in a thread-local collector (no global-lock
//! contention mid-campaign) that folds into the process-global
//! collector at campaign end in worker-index order, and the campaign
//! itself records an `exec::<label>` phase event.
//!
//! # Campaign observability
//!
//! Every run also assembles a per-trial cost ledger
//! ([`obs::CampaignReport`], via [`Ensemble::run_with_report`]): wall
//! time, worker, outcome and — when telemetry is active — the
//! deterministic solver counters (Newton iterations, solves, gmin
//! fallbacks, refactorizations) each trial accrued, folded in
//! trial-index order with nearest-rank cost percentiles and per-worker
//! utilization. The counter-only subset
//! ([`obs::CampaignReport::counters_json`]) is byte-identical at any
//! `ULP_JOBS`; wall-clock fields are observability-only. Under
//! `ULP_TRACE=spans` each trial additionally records a span on its
//! worker's Chrome-trace timeline (see `ulp_spice::telemetry`).
//!
//! # Example
//!
//! ```
//! use rand::Rng;
//! use ulp_exec::{Ensemble, TrialCtx};
//!
//! // A 32-trial Monte-Carlo estimate of E[x²], x ~ U(0,1), reduced in
//! // trial-index order. The result is bit-identical for any worker
//! // count.
//! let campaign = |ctx: &mut TrialCtx| {
//!     let x: f64 = ctx.rng().gen();
//!     x * x
//! };
//! let serial = Ensemble::new(32).seed(7).jobs(1).run_reduce(campaign, 0.0, |a, x| a + x);
//! let parallel = Ensemble::new(32).seed(7).jobs(4).run_reduce(campaign, 0.0, |a, x| a + x);
//! let estimate = serial.unwrap() / 32.0;
//! assert_eq!(estimate.to_bits(), (parallel.unwrap() / 32.0).to_bits());
//! assert!((estimate - 1.0 / 3.0).abs() < 0.1);
//! ```

//! # Verifying the contract, not just observing it
//!
//! Every synchronization primitive the engine touches goes through the
//! [`sync::SyncProvider`] seam: [`sync::StdSync`] (the default) *is*
//! `std::sync` after monomorphization, while the `ulp-check` crate
//! substitutes a virtual provider whose every acquire/release/load/
//! store/fetch-add is a preemption point of a bounded schedule explorer
//! with a vector-clock race auditor. The scheduling core ([`pool`]'s
//! claim loop and [`cancel`]'s flag) is therefore model-checked as
//! shipped — see DESIGN.md "Concurrency model" for the happens-before
//! contract and how to run the explorer locally.

#![forbid(unsafe_code)]

pub mod cancel;
pub mod ensemble;
pub mod error;
pub mod obs;
pub mod pool;
pub mod sync;

pub use cancel::CancelToken;
pub use ensemble::{default_jobs, jobs_from_env, jobs_from_str, Ensemble, Job, TrialCtx};
pub use error::{JobsError, TrialError};
pub use obs::{CampaignReport, TrialCost, TrialOutcome, WorkerUtilization};
