//! Campaign observability: the per-trial cost ledger and the
//! [`CampaignReport`] every [`crate::Ensemble`] run assembles.
//!
//! The ledger is the input the ROADMAP's cost-aware dealing needs: one
//! [`TrialCost`] per trial, in **trial-index order** regardless of
//! which worker ran it or when it finished. Each entry splits into
//!
//! * a **deterministic** part — the [`SolverCounters`] diffed around
//!   the trial on its worker's thread-local collector (Newton
//!   iterations, solves, gmin fallbacks, refactorizations) plus the
//!   trial index and outcome — byte-identical at any `ULP_JOBS`
//!   ([`CampaignReport::counters_json`] renders exactly this subset and
//!   is compared byte-for-byte in CI); and
//! * a **best-effort** part — wall-clock seconds and the worker index
//!   — which lives only in observability outputs
//!   ([`CampaignReport::to_json`], the footer table) and is allowed to
//!   differ run to run.
//!
//! Reports from traced campaigns are also published to a process-wide
//! log ([`reports_snapshot`]/[`take_reports`]) so a bench harness can
//! render campaign summary tables after the fact without threading the
//! report through every return type.

use std::fmt::Write as _;
use std::sync::Mutex;

use ulp_spice::json;
use ulp_spice::telemetry::SolverCounters;

/// How a trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The job ran to completion.
    Ok,
    /// The job panicked (isolated to its slot).
    Panicked,
    /// The trial was skipped because the campaign was cancelled.
    Cancelled,
}

impl TrialOutcome {
    /// Stable machine-readable rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            TrialOutcome::Ok => "ok",
            TrialOutcome::Panicked => "panicked",
            TrialOutcome::Cancelled => "cancelled",
        }
    }
}

/// One trial's ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialCost {
    /// Trial index within the campaign.
    pub trial: usize,
    /// Worker that ran it (observability only).
    pub worker: usize,
    /// Wall-clock seconds the trial took (observability only).
    pub seconds: f64,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Deterministic solver-work counters accrued by the trial (all
    /// zero when telemetry is off or the job never touches the solver).
    pub counters: SolverCounters,
}

/// Per-worker share of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// Trials this worker ran.
    pub trials: usize,
    /// Wall-clock seconds spent inside trials.
    pub busy_seconds: f64,
    /// `busy_seconds` over the campaign's wall time (can slightly
    /// exceed 1 from clock granularity).
    pub utilization: f64,
}

/// The assembled cost ledger and summary statistics of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The campaign's label (`Ensemble::label`).
    pub label: String,
    /// Trials in the campaign.
    pub trials: usize,
    /// Workers the campaign ran on.
    pub jobs: usize,
    /// Root seed the per-trial streams derived from.
    pub root_seed: u64,
    /// Campaign wall-clock time, s (observability only).
    pub wall_seconds: f64,
    /// Whether per-trial counters were recorded (telemetry active); all
    /// counter fields are zero when false.
    pub counters_recorded: bool,
    /// One entry per trial, **in trial-index order**.
    pub costs: Vec<TrialCost>,
}

/// Nearest-rank percentile of a sample set (`0.0` when empty).
fn percentile_f64(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an integer sample set (`0` when empty).
fn percentile_usize(samples: &[usize], q: f64) -> usize {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl CampaignReport {
    /// Trials that completed.
    pub fn ok_trials(&self) -> usize {
        self.outcome_count(TrialOutcome::Ok)
    }

    /// Trials that panicked.
    pub fn panicked_trials(&self) -> usize {
        self.outcome_count(TrialOutcome::Panicked)
    }

    /// Trials skipped as cancelled.
    pub fn cancelled_trials(&self) -> usize {
        self.outcome_count(TrialOutcome::Cancelled)
    }

    fn outcome_count(&self, outcome: TrialOutcome) -> usize {
        self.costs.iter().filter(|c| c.outcome == outcome).count()
    }

    /// Campaign throughput, trials per wall-clock second (0 for an
    /// instantaneous or empty campaign).
    pub fn throughput_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.trials as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Wall-clock seconds summed over trials (busy time across all
    /// workers).
    pub fn total_trial_seconds(&self) -> f64 {
        self.costs.iter().map(|c| c.seconds).sum()
    }

    /// Nearest-rank percentile of per-trial wall-clock cost, s.
    pub fn percentile_seconds(&self, q: f64) -> f64 {
        let samples: Vec<f64> = self.costs.iter().map(|c| c.seconds).collect();
        percentile_f64(&samples, q)
    }

    /// Worst per-trial wall-clock cost, s.
    pub fn max_seconds(&self) -> f64 {
        self.costs.iter().map(|c| c.seconds).fold(0.0, f64::max)
    }

    /// Nearest-rank percentile of per-trial Newton iterations.
    pub fn percentile_iterations(&self, q: f64) -> usize {
        let samples: Vec<usize> = self
            .costs
            .iter()
            .map(|c| c.counters.newton_iterations)
            .collect();
        percentile_usize(&samples, q)
    }

    /// The ETA model: predicted wall-clock seconds for `remaining`
    /// further trials at this campaign's observed throughput
    /// (`f64::INFINITY` when the throughput is unknown).
    pub fn eta_seconds(&self, remaining: usize) -> f64 {
        if remaining == 0 {
            return 0.0;
        }
        let rate = self.throughput_per_sec();
        if rate > 0.0 {
            remaining as f64 / rate
        } else {
            f64::INFINITY
        }
    }

    /// Per-worker trial counts, busy time, and utilization, for all
    /// workers `0..jobs` (idle workers report zeros).
    pub fn worker_utilization(&self) -> Vec<WorkerUtilization> {
        let mut out: Vec<WorkerUtilization> = (0..self.jobs)
            .map(|worker| WorkerUtilization {
                worker,
                trials: 0,
                busy_seconds: 0.0,
                utilization: 0.0,
            })
            .collect();
        for c in &self.costs {
            if let Some(w) = out.get_mut(c.worker) {
                w.trials += 1;
                w.busy_seconds += c.seconds;
            }
        }
        if self.wall_seconds > 0.0 {
            for w in &mut out {
                w.utilization = w.busy_seconds / self.wall_seconds;
            }
        }
        out
    }

    /// Sum of the deterministic counters over all trials.
    pub fn counters_total(&self) -> SolverCounters {
        let mut total = SolverCounters::default();
        for c in &self.costs {
            total.add(&c.counters);
        }
        total
    }

    /// Renders one ledger entry's deterministic fields (no worker, no
    /// seconds) as a JSON object.
    fn counters_entry_json(cost: &TrialCost) -> String {
        let mut s = format!(
            "{{\"trial\":{},\"outcome\":\"{}\"",
            cost.trial,
            cost.outcome.as_str()
        );
        for (name, value) in cost.counters.fields() {
            let _ = write!(s, ",\"{name}\":{value}");
        }
        s.push('}');
        s
    }

    /// The **deterministic subset** of the ledger as JSON: label,
    /// trials, seed, and per-trial counters in trial-index order — no
    /// wall-clock, no worker identity, no job count. This rendering is
    /// byte-identical at any `ULP_JOBS` (asserted in tests and CI).
    pub fn counters_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.costs.len() * 160);
        let _ = write!(
            s,
            "{{\"label\":\"{}\",\"trials\":{},\"root_seed\":{},\"counters_recorded\":{},\"ledger\":[",
            json::escape(&self.label),
            self.trials,
            self.root_seed,
            self.counters_recorded
        );
        for (k, cost) in self.costs.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push('\n');
            s.push_str(&Self::counters_entry_json(cost));
        }
        s.push_str("\n]}\n");
        s
    }

    /// The full report (summary statistics, worker utilization, and the
    /// complete ledger including wall-clock fields) as JSON. Contains
    /// timings, so it is observability output — not byte-stable across
    /// runs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512 + self.costs.len() * 200);
        let _ = write!(
            s,
            "{{\"label\":\"{}\",\"trials\":{},\"jobs\":{},\"root_seed\":{},\"wall_seconds\":{},\"ok\":{},\"panicked\":{},\"cancelled\":{},\"throughput_per_sec\":{},\"p50_seconds\":{},\"p95_seconds\":{},\"max_seconds\":{},\"p50_newton_iterations\":{},\"p95_newton_iterations\":{},\"counters_recorded\":{}",
            json::escape(&self.label),
            self.trials,
            self.jobs,
            self.root_seed,
            json::num(self.wall_seconds),
            self.ok_trials(),
            self.panicked_trials(),
            self.cancelled_trials(),
            json::num(self.throughput_per_sec()),
            json::num(self.percentile_seconds(50.0)),
            json::num(self.percentile_seconds(95.0)),
            json::num(self.max_seconds()),
            self.percentile_iterations(50.0),
            self.percentile_iterations(95.0),
            self.counters_recorded
        );
        s.push_str(",\"workers\":[");
        for (k, w) in self.worker_utilization().iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"worker\":{},\"trials\":{},\"busy_seconds\":{},\"utilization\":{}}}",
                w.worker,
                w.trials,
                json::num(w.busy_seconds),
                json::num(w.utilization)
            );
        }
        s.push_str("],\"costs\":[");
        for (k, cost) in self.costs.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push('\n');
            let mut entry = Self::counters_entry_json(cost);
            entry.pop(); // splice the observability fields before '}'
            let _ = write!(
                entry,
                ",\"worker\":{},\"seconds\":{}}}",
                cost.worker,
                json::num(cost.seconds)
            );
            s.push_str(&entry);
        }
        s.push_str("\n]}\n");
        s
    }

    /// The stable multi-line `-- campaign --` footer table: throughput,
    /// ETA model, p50/p95 trial cost, worker utilization.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "-- campaign: {} --", self.label);
        let _ = writeln!(
            s,
            "trials            : {} total ({} ok, {} panicked, {} cancelled) on {} worker{}",
            self.trials,
            self.ok_trials(),
            self.panicked_trials(),
            self.cancelled_trials(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" }
        );
        let _ = writeln!(
            s,
            "throughput        : {:.3e} trials/s (wall {:.3e} s)",
            self.throughput_per_sec(),
            self.wall_seconds
        );
        let _ = writeln!(
            s,
            "trial cost        : p50 {:.3e} s, p95 {:.3e} s, max {:.3e} s",
            self.percentile_seconds(50.0),
            self.percentile_seconds(95.0),
            self.max_seconds()
        );
        let _ = writeln!(
            s,
            "newton per trial  : p50 {}, p95 {} (counters {})",
            self.percentile_iterations(50.0),
            self.percentile_iterations(95.0),
            if self.counters_recorded {
                "recorded"
            } else {
                "not recorded"
            }
        );
        let _ = writeln!(
            s,
            "eta model         : +{} trials \u{2248} {:.3e} s",
            self.trials,
            self.eta_seconds(self.trials)
        );
        let _ = write!(s, "worker utilization:");
        for w in self.worker_utilization() {
            let _ = write!(
                s,
                " w{} {:.0}% ({} trial{})",
                w.worker,
                100.0 * w.utilization,
                w.trials,
                if w.trials == 1 { "" } else { "s" }
            );
        }
        s
    }
}

/// The process-wide report log, fed by traced `Ensemble` runs.
static REPORTS: Mutex<Vec<CampaignReport>> = Mutex::new(Vec::new());

fn reports_lock() -> std::sync::MutexGuard<'static, Vec<CampaignReport>> {
    REPORTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Appends a report to the process-wide log (done by `Ensemble::run`
/// when telemetry is active).
pub(crate) fn publish(report: CampaignReport) {
    reports_lock().push(report);
}

/// A copy of the published reports, campaign-completion order.
pub fn reports_snapshot() -> Vec<CampaignReport> {
    reports_lock().clone()
}

/// Takes the published reports, leaving the log empty (what a bench
/// footer calls so campaigns are reported once).
pub fn take_reports() -> Vec<CampaignReport> {
    std::mem::take(&mut *reports_lock())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(trial: usize, worker: usize, seconds: f64, iters: usize) -> TrialCost {
        TrialCost {
            trial,
            worker,
            seconds,
            outcome: TrialOutcome::Ok,
            counters: SolverCounters {
                attempts: 1,
                solves: 1,
                newton_iterations: iters,
                ..SolverCounters::default()
            },
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            label: "test::campaign".into(),
            trials: 4,
            jobs: 2,
            root_seed: 7,
            wall_seconds: 2.0,
            counters_recorded: true,
            costs: vec![
                cost(0, 0, 1.0, 5),
                cost(1, 1, 0.5, 10),
                cost(2, 0, 0.25, 10),
                cost(3, 1, 0.25, 20),
            ],
        }
    }

    #[test]
    fn summary_statistics_are_nearest_rank() {
        let r = report();
        assert_eq!(r.ok_trials(), 4);
        assert!((r.throughput_per_sec() - 2.0).abs() < 1e-12);
        assert!((r.total_trial_seconds() - 2.0).abs() < 1e-12);
        assert_eq!(r.percentile_seconds(50.0), 0.25);
        assert_eq!(r.percentile_seconds(95.0), 1.0);
        assert_eq!(r.max_seconds(), 1.0);
        assert_eq!(r.percentile_iterations(50.0), 10);
        assert_eq!(r.percentile_iterations(95.0), 20);
        assert!((r.eta_seconds(4) - 2.0).abs() < 1e-12);
        assert_eq!(r.eta_seconds(0), 0.0);
        assert_eq!(r.counters_total().newton_iterations, 45);
    }

    #[test]
    fn worker_utilization_covers_all_workers() {
        let r = report();
        let u = r.worker_utilization();
        assert_eq!(u.len(), 2);
        assert_eq!((u[0].trials, u[1].trials), (2, 2));
        assert!((u[0].busy_seconds - 1.25).abs() < 1e-12);
        assert!((u[0].utilization - 0.625).abs() < 1e-12);
        // An idle worker still appears, with zeros.
        let mut wide = report();
        wide.jobs = 4;
        let u = wide.worker_utilization();
        assert_eq!(u.len(), 4);
        assert_eq!((u[3].trials, u[3].busy_seconds), (0, 0.0));
    }

    #[test]
    fn counters_json_excludes_every_timing_field() {
        let json = report().counters_json();
        assert!(json.contains("\"label\":\"test::campaign\""));
        assert!(json.contains("\"trial\":0"));
        assert!(json.contains("\"newton_iterations\":5"));
        assert!(!json.contains("seconds"), "no wall-clock in the subset");
        assert!(!json.contains("worker"), "no worker identity either");
        assert!(!json.contains("\"jobs\""), "job count may differ across runs");
    }

    #[test]
    fn counters_json_is_identical_for_different_schedules() {
        // The same trials timed differently on different workers with a
        // different job count must render the same deterministic subset.
        let a = report();
        let mut b = report();
        b.jobs = 4;
        b.wall_seconds = 17.0;
        for (k, c) in b.costs.iter_mut().enumerate() {
            c.worker = 3 - k;
            c.seconds *= 10.0;
        }
        assert_eq!(a.counters_json(), b.counters_json());
        assert_ne!(a.to_json(), b.to_json(), "the full report does differ");
    }

    #[test]
    fn ledger_json_golden_bytes() {
        let r = report();
        assert_eq!(
            r.counters_json(),
            "{\"label\":\"test::campaign\",\"trials\":4,\"root_seed\":7,\
             \"counters_recorded\":true,\"ledger\":[\n\
             {\"trial\":0,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":5,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0},\n\
             {\"trial\":1,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":10,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0},\n\
             {\"trial\":2,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":10,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0},\n\
             {\"trial\":3,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":20,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0}\n\
             ]}\n"
        );
        assert_eq!(
            r.to_json(),
            "{\"label\":\"test::campaign\",\"trials\":4,\"jobs\":2,\"root_seed\":7,\
             \"wall_seconds\":2e0,\"ok\":4,\"panicked\":0,\"cancelled\":0,\
             \"throughput_per_sec\":2e0,\"p50_seconds\":2.5e-1,\"p95_seconds\":1e0,\
             \"max_seconds\":1e0,\"p50_newton_iterations\":10,\"p95_newton_iterations\":20,\
             \"counters_recorded\":true,\"workers\":[{\"worker\":0,\"trials\":2,\
             \"busy_seconds\":1.25e0,\"utilization\":6.25e-1},{\"worker\":1,\
             \"trials\":2,\"busy_seconds\":7.5e-1,\"utilization\":3.75e-1}],\
             \"costs\":[\n\
             {\"trial\":0,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":5,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0,\"worker\":0,\
             \"seconds\":1e0},\n\
             {\"trial\":1,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":10,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0,\"worker\":1,\
             \"seconds\":5e-1},\n\
             {\"trial\":2,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":10,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0,\"worker\":0,\
             \"seconds\":2.5e-1},\n\
             {\"trial\":3,\"outcome\":\"ok\",\"attempts\":1,\"solves\":1,\
             \"failures\":0,\"newton_iterations\":20,\"gmin_fallbacks\":0,\
             \"symbolic_factorizations\":0,\"numeric_refactorizations\":0,\
             \"tran_steps\":0,\"tran_rejected\":0,\"lte_exceeded\":0,\"devices_bypassed\":0,\
             \"ac_points\":0,\"sweep_points\":0,\"noise_points\":0,\"worker\":1,\
             \"seconds\":2.5e-1}\n\
             ]}\n"
        );
    }

    #[test]
    fn counters_total_is_the_column_sum_of_the_ledger() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::SplitMix64::seed_from_u64(16);
        let mut r = report();
        for c in &mut r.costs {
            let mut col = || (rng.next_u64() % 1_000_000) as usize;
            c.counters = SolverCounters {
                attempts: col(),
                solves: col(),
                failures: col(),
                newton_iterations: col(),
                gmin_fallbacks: col(),
                symbolic_factorizations: col(),
                numeric_refactorizations: col(),
                tran_steps: col(),
                tran_rejected: col(),
                lte_exceeded: col(),
                devices_bypassed: col(),
                ac_points: col(),
                sweep_points: col(),
                noise_points: col(),
            };
        }
        for (k, (name, total)) in r.counters_total().fields().into_iter().enumerate() {
            let column: usize = r.costs.iter().map(|c| c.counters.fields()[k].1).sum();
            assert_eq!(total, column, "column {name}");
        }
    }

    #[test]
    fn labels_with_control_characters_are_escaped() {
        // `ulp_ir` names campaigns after `.ulp` file stems, so a label
        // can carry any character a file name can.
        let mut r = report();
        r.label = "say \"hi\"\\\tnow\n".into();
        for doc in [r.counters_json(), r.to_json()] {
            assert!(
                doc.starts_with(r#"{"label":"say \"hi\"\\\tnow\n","#),
                "{doc}"
            );
            let parsed = json::parse_json(&doc).expect("the ledger parses");
            assert_eq!(
                parsed.get("label").and_then(json::JsonValue::as_str),
                Some(r.label.as_str())
            );
        }
    }

    #[test]
    fn footer_table_has_the_advertised_rows() {
        let s = report().summary_table();
        for key in [
            "-- campaign: test::campaign --",
            "trials            :",
            "throughput        :",
            "trial cost        : p50",
            "newton per trial  : p50 10, p95 20 (counters recorded)",
            "eta model         :",
            "worker utilization: w0",
        ] {
            assert!(s.contains(key), "missing `{key}` in:\n{s}");
        }
    }

    #[test]
    fn report_log_snapshot_and_take() {
        // The log is process-global; keep this test self-contained by
        // draining first.
        let _ = take_reports();
        publish(report());
        publish(report());
        assert_eq!(reports_snapshot().len(), 2);
        assert_eq!(take_reports().len(), 2);
        assert!(reports_snapshot().is_empty());
    }

    #[test]
    fn percentiles_handle_empty_and_single() {
        assert_eq!(percentile_f64(&[], 50.0), 0.0);
        assert_eq!(percentile_f64(&[3.0], 95.0), 3.0);
        assert_eq!(percentile_usize(&[], 50.0), 0);
        assert_eq!(percentile_usize(&[9], 95.0), 9);
        let empty = CampaignReport {
            label: "empty".into(),
            trials: 0,
            jobs: 1,
            root_seed: 0,
            wall_seconds: 0.0,
            counters_recorded: false,
            costs: vec![],
        };
        assert_eq!(empty.throughput_per_sec(), 0.0);
        assert_eq!(empty.eta_seconds(5), f64::INFINITY);
        assert!(empty.counters_json().contains("\"ledger\":[\n]"));
    }
}
