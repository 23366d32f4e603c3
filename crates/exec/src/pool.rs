//! The scheduling core: one shared trial counter.
//!
//! A campaign is a fixed list of `total` indexed trials known before
//! the first one starts, so scheduling needs no queues. Every worker
//! claims the next trial index with one `AcqRel` fetch-add on a shared
//! counter until the claim reaches `total`. Each index is handed out
//! exactly once, and a worker stops at its first claim past the end —
//! no condition variables, no spinning. Each worker's final, failed
//! claim still adds one, so the counter ends at `total` plus the worker
//! count; nothing reads it afterwards.
//!
//! [`worker_loop`] is generic over a [`SyncProvider`] and `pub`: this
//! module *is* the code the `ulp-check` model checker drives through a
//! virtual scheduler, so the schedule explorer exercises the shipped
//! claim loop, not a re-implementation. Production callers
//! ([`crate::Ensemble`]) instantiate it with
//! [`StdSync`](crate::sync::StdSync), which monomorphizes back to a
//! plain `std::sync::atomic::AtomicUsize`.

use crate::sync::{SyncCounter, SyncProvider};

/// One worker's claim loop: runs `run_one(trial, worker)` for every
/// trial index it claims from `next`, until a claim reaches `total`,
/// collecting `(trial, result)` pairs in claim order. The caller
/// reassembles results by trial index, so the order here carries no
/// meaning.
pub fn worker_loop<T, P: SyncProvider>(
    worker: usize,
    next: &P::AtomicUsize,
    total: usize,
    run_one: &(impl Fn(usize, usize) -> T + Sync),
) -> Vec<(usize, T)> {
    let mut out = Vec::new();
    loop {
        let trial = next.fetch_add_acq_rel(1);
        if trial >= total {
            return out;
        }
        out.push((trial, run_one(trial, worker)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::StdSync;

    #[test]
    fn lone_worker_drains_everything() {
        let next = <StdSync as SyncProvider>::AtomicUsize::new(0);
        let out = worker_loop::<_, StdSync>(0, &next, 7, &|t, w| {
            assert_eq!(w, 0);
            t * t
        });
        assert_eq!(out.len(), 7);
        for (t, v) in out {
            assert_eq!(v, t * t);
        }
    }

    #[test]
    fn concurrent_claims_gather_every_trial_once() {
        // Four threads race on one counter; every index must be claimed
        // by exactly one of them.
        let total = 10_000;
        let next = <StdSync as SyncProvider>::AtomicUsize::new(0);
        let run_one = |t: usize, _w: usize| t;
        let batches: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let (next, run_one) = (&next, &run_one);
                    s.spawn(move || worker_loop::<_, StdSync>(w, next, total, run_one))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker must not panic"))
                .collect()
        });
        let mut seen = vec![0u32; total];
        for (t, v) in batches.into_iter().flatten() {
            assert_eq!(t, v);
            seen[t] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1), "every trial gathered once");
    }
}
