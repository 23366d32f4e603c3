//! Model-checking the `ulp-exec` scheduling core end-to-end: the
//! bounded schedule explorer drives the shipped `pool::deal` /
//! `pool::worker_loop` / `WorkDeque` / `CancelToken` code through the
//! `Virtual` sync provider, asserting the determinism contract on every
//! schedule — and asserting that deliberately re-broken variants are
//! caught and rendered into SARIF.

use ulp_check::{explore, Config, Fault, PoolModel};
use ulp_spice::lint::rule;
use ulp_spice::{json, sarif};

/// The headline guarantee: every schedule of a 2-worker/4-trial
/// campaign with at most 2 preemptions gathers results bit-identical to
/// the serial reference.
#[test]
fn healthy_pool_is_clean_on_every_bound2_schedule() {
    let model = PoolModel::healthy(2, 4, 0xD15EA5E);
    let report = explore(&Config::exhaustive(2), &model);
    assert!(
        report.is_clean(),
        "determinism contract violated:\n{}",
        report.to_erc().render()
    );
    assert!(!report.truncated, "bound-2 frontier must be exhaustible");
    // The frontier is real: hundreds of distinct interleavings, not a
    // handful of near-identical replays.
    assert!(report.schedules > 100, "only {} schedules", report.schedules);
}

/// A lopsided deal (everything in one deque) forces stealing on every
/// schedule; stealing must not break the contract either.
#[test]
fn three_workers_with_forced_stealing_stay_clean() {
    let model = PoolModel::healthy(3, 5, 42);
    let report = explore(&Config::exhaustive(1), &model);
    assert!(report.is_clean(), "{}", report.to_erc().render());
}

/// Acceptance: the vector-clock auditor detects the seeded race in the
/// deliberately-broken (lockless-deque) pool variant, and the SARIF
/// rendering carries the `race` rule for `results/lint/`.
#[test]
fn racy_deque_variant_is_flagged_with_sarif_race_diagnostic() {
    let model = PoolModel::healthy(2, 4, 7).with_fault(Fault::RacyDeque);
    let report = explore(&Config::exhaustive(2), &model);
    assert!(report.has_rule(rule::RACE), "{report:?}");
    let sarif_log = report.to_sarif("exec/pool-model");
    assert!(
        sarif_log.contains("\"ruleId\": \"race\""),
        "SARIF must carry the race diagnostic"
    );
    // The log is machine-valid for the downstream lint pipeline.
    let parsed = json::parse_json(&sarif_log).expect("valid SARIF JSON");
    assert_eq!(
        parsed
            .get("runs")
            .and_then(|r| r.idx(0))
            .and_then(|r| r.get("tool"))
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("name"))
            .and_then(|n| n.as_str()),
        Some(sarif::TOOL_NAME)
    );
}

/// A fold that consumes completion order instead of index order leaks
/// the schedule into an output and is flagged.
#[test]
fn completion_order_fold_is_flagged() {
    let model = PoolModel::healthy(2, 4, 3).with_fault(Fault::CompletionOrderFold);
    let report = explore(&Config::exhaustive(1), &model);
    assert!(report.has_rule(rule::NON_DETERMINISTIC_FOLD), "{report:?}");
}

/// Cancellation contract under the explorer: wherever the schedule
/// places the cancel — mid-steal, mid-trial, before anything —
/// every slot holds either the bit-identical value or a clean Cancelled
/// marker. Never a hole, never a partial merge.
#[test]
fn cancellation_is_clean_at_every_explored_point() {
    let model = PoolModel::cancelling(2, 4, 0xFACE);
    let report = explore(&Config::exhaustive(1), &model);
    assert!(report.is_clean(), "{}", report.to_erc().render());
    assert!(report.schedules > 50, "cancel placement barely explored");
}

/// The dropped-record regression (check cancellation after computing,
/// drop the result) leaves holes in the gather on some schedule and is
/// flagged as lost-cancel.
#[test]
fn dropped_cancel_result_is_flagged_as_lost_cancel() {
    let model = PoolModel::healthy(2, 4, 0xFACE).with_fault(Fault::DroppedCancelResult);
    let report = explore(&Config::exhaustive(1), &model);
    assert!(report.has_rule(rule::LOST_CANCEL), "{report:?}");
}

/// The explorer itself is deterministic: identical config, identical
/// report — schedule counts, findings, hit counts, byte-identical
/// SARIF.
#[test]
fn reports_are_reproducible() {
    let model = PoolModel::healthy(2, 4, 11).with_fault(Fault::RacyDeque);
    let a = explore(&Config::exhaustive(1), &model);
    let b = explore(&Config::exhaustive(1), &model);
    assert_eq!(a, b);
    assert_eq!(a.to_sarif("exec/pool-model"), b.to_sarif("exec/pool-model"));
}

/// Random-walk mode (CI smoke at higher bounds) is seeded and
/// reproducible, and stays clean on the healthy pool.
#[test]
fn random_walk_mode_is_seeded_and_clean() {
    let model = PoolModel::healthy(3, 6, 2026);
    let cfg = Config::walk(3, 0xC0FFEE, 32);
    let a = explore(&cfg, &model);
    assert!(a.is_clean(), "{}", a.to_erc().render());
    assert_eq!(a.schedules, 32);
    assert_eq!(a, explore(&cfg, &model));
}

/// The concurrency rules are registered in the shared lint catalogue,
/// so SARIF readers see them in the tool's rule list too.
#[test]
fn concurrency_rules_live_in_the_lint_registry() {
    use ulp_spice::lint::{LintGroup, REGISTRY};
    for code in [
        rule::RACE,
        rule::NON_DETERMINISTIC_FOLD,
        rule::LOST_CANCEL,
        rule::SCHEDULE_DEADLOCK,
    ] {
        let entry = REGISTRY
            .iter()
            .find(|l| l.code == code)
            .unwrap_or_else(|| panic!("{code} missing from lint REGISTRY"));
        assert_eq!(entry.group, LintGroup::Concurrency);
    }
}
