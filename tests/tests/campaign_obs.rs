//! Campaign observability contract, end-to-end: the per-trial cost
//! ledger, the span profiler's Chrome trace export, and the metrics
//! registry's Prometheus exposition — all produced by real solver
//! campaigns through the public `ulp-exec` / `ulp_spice::telemetry`
//! API.
//!
//! The load-bearing assertion is the determinism split: the
//! counter-only ledger subset ([`CampaignReport::counters_json`]) must
//! be **byte-identical** at any worker count, while wall-clock and
//! worker-identity fields are observability-only and excluded from the
//! comparison. All tests in this binary share one process-global
//! collector installed at `Spans`; every structural assertion below is
//! made on campaign-local reports (built from worker-local collectors),
//! so concurrently running tests cannot interfere with them.

use ulp_device::Technology;
use ulp_exec::{Ensemble, TrialCtx, TrialOutcome};
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::telemetry::{self, TraceMode};
use ulp_spice::{registry, Waveform};
use ulp_stscl::vtc::SclBufferCircuit;
use ulp_stscl::SclParams;

/// Installs the span profiler process-wide (first-wins; every test in
/// this binary asks for the same mode).
fn spans_on() {
    telemetry::install_global(TraceMode::Spans);
}

/// A solver-backed campaign: per-trial STSCL-buffer DC operating
/// points across the paper's bias range. Returns the campaign report.
fn dcop_campaign(label: &str, trials: usize, jobs: usize) -> ulp_exec::CampaignReport {
    let tech = Technology::default();
    let params = SclParams::default();
    let (results, report) = Ensemble::new(trials)
        .label(label)
        .jobs(jobs)
        .run_with_report(|ctx: &mut TrialCtx| {
            let iss = 100e-12 * 10f64.powf(ctx.index() as f64 / trials as f64);
            let c = SclBufferCircuit::build(&tech, &params, iss, 0.6, Waveform::Dc(0.05));
            DcOperatingPoint::solve(&c.netlist, &tech)
                .expect("dcop solves")
                .solution()
                .iter()
                .map(|v| v.abs())
                .sum::<f64>()
        });
    for r in results {
        r.expect("trial ok");
    }
    report
}

#[test]
fn counter_ledger_is_byte_identical_across_worker_counts() {
    spans_on();
    let serial = dcop_campaign("obs-test::serial", 8, 1);
    let pooled = dcop_campaign("obs-test::pooled", 8, 4);
    // Same work, different schedule: the deterministic subset must not
    // see the schedule. Labels differ by construction, so compare the
    // ledgers with the label line normalized away.
    let strip = |s: String| {
        s.lines()
            .map(|l| l.replace("obs-test::serial", "L").replace("obs-test::pooled", "L"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(serial.counters_json()),
        strip(pooled.counters_json()),
        "counter-only ledger must be byte-identical at any ULP_JOBS"
    );
    // The ledger is complete, trial-index ordered, and records real
    // solver work for every trial.
    assert_eq!(serial.costs.len(), 8);
    for (k, cost) in serial.costs.iter().enumerate() {
        assert_eq!(cost.trial, k);
        assert_eq!(cost.outcome, TrialOutcome::Ok);
        assert!(cost.counters.newton_iterations > 0, "trial {k} solved nothing");
    }
    assert!(serial.counters_recorded);
    assert_eq!(serial.ok_trials(), 8);
    // Wall-clock fields are best-effort but must be sane.
    assert!(serial.wall_seconds >= 0.0);
    assert!(serial.percentile_seconds(95.0) >= serial.percentile_seconds(50.0));
    assert!(serial.max_seconds() >= serial.percentile_seconds(95.0));
    // Worker utilization covers exactly the configured pool, busy or
    // idle, and trial counts add up.
    let util = pooled.worker_utilization();
    assert_eq!(util.len(), 4);
    assert_eq!(util.iter().map(|w| w.trials).sum::<usize>(), 8);
    for w in &util {
        assert!((0.0..=1.0).contains(&w.utilization));
    }
}

#[test]
fn span_profile_exports_valid_chrome_trace() {
    spans_on();
    dcop_campaign("obs-test::trace", 4, 2);
    // The global span buffer now holds this campaign's spans (plus any
    // from concurrently running tests — validation is closed under
    // more spans). Campaign, trial and newton/phase levels must all be
    // present.
    let spans = telemetry::spans_snapshot();
    let trace = telemetry::render_chrome_trace(&spans);
    let n = telemetry::validate_chrome_trace(&trace).expect("valid Chrome trace JSON");
    assert_eq!(n, spans.len());
    assert!(spans.iter().any(|s| s.cat == "campaign"), "campaign span missing");
    assert!(spans.iter().any(|s| s.cat == "trial"), "trial spans missing");
    assert!(spans.iter().any(|s| s.cat == "newton"), "newton spans missing");
    // Trial spans carry their trial index for the Perfetto args pane.
    assert!(spans
        .iter()
        .filter(|s| s.cat == "trial")
        .all(|s| s.trial.is_some()));
}

#[test]
fn registry_metrics_export_valid_prometheus_exposition() {
    spans_on();
    dcop_campaign("obs-test::prom", 4, 1);
    let reg = telemetry::registry_snapshot().expect("tracing is on");
    assert!(!reg.is_empty());
    let text = reg.render_prometheus();
    let samples = registry::validate_prometheus(&text).expect("valid exposition");
    assert!(samples > 0);
    // The campaign instruments the standard trial metrics.
    assert!(text.contains("ulp_trials_total"));
    assert!(text.contains("ulp_trial_seconds_bucket"));
    // JSONL export renders one object per metric.
    assert_eq!(reg.render_jsonl().lines().count(), reg.len());
}

#[test]
fn telemetry_events_are_tagged_with_campaign_and_trial() {
    spans_on();
    dcop_campaign("obs-test::tags", 3, 1);
    // Worker-local events have been folded into the global collector in
    // worker order; this campaign's events must carry its label and a
    // valid trial index.
    let events = telemetry::take_events();
    let mine: Vec<_> = events
        .iter()
        .filter(|e| e.campaign.as_deref() == Some("obs-test::tags"))
        .collect();
    assert!(!mine.is_empty(), "campaign events must be tagged");
    for e in &mine {
        assert!(e.trial.is_some_and(|t| t < 3), "trial tag out of range");
        let json = e.to_json();
        assert!(json.contains("\"campaign\":\"obs-test::tags\""), "{json}");
        assert!(json.starts_with("{\"event\":\"") && json.ends_with('}'), "{json}");
    }
}
