//! A small metrics registry: named counters and fixed-bucket histograms
//! with Prometheus text exposition and JSONL export.
//!
//! The registry is the machine-readable face of campaign observability:
//! each `ulp-exec` worker records into its own shard (the thread-local
//! collector installed by [`crate::telemetry::worker_capture_on`]), and
//! the shards merge into the process-global registry **in worker-index
//! order** at campaign end — counters add, histogram buckets add.
//! Rendering iterates a `BTreeMap`, so the exposition is byte-stable
//! for equal contents.
//!
//! Determinism contract: counter *values* are as deterministic as what
//! they count (trial totals, Newton iterations). Histogram bucket
//! occupancy of wall-clock observations is best-effort by nature and
//! lives only in observability outputs, never in gathered results.
//!
//! # Example
//!
//! ```
//! use ulp_spice::registry::{Registry, validate_prometheus};
//!
//! let mut r = Registry::new();
//! r.counter_add("ulp_trials_total", 64);
//! r.observe_seconds("ulp_trial_seconds", 3.2e-3);
//! let text = r.render_prometheus();
//! assert!(text.contains("ulp_trials_total 64"));
//! assert!(validate_prometheus(&text).unwrap() > 3);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;

/// Histogram bucket upper bounds for wall-clock seconds: exponential
/// 1 µs … 100 s (an implicit `+Inf` overflow bucket is always
/// appended).
pub const SECONDS_BOUNDS: [f64; 9] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0];

/// A cumulative-exposition histogram of wall-clock seconds over the
/// fixed [`SECONDS_BOUNDS`] buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; one extra overflow bucket.
    buckets: [u64; SECONDS_BOUNDS.len() + 1],
    /// Sum of all observed values.
    sum: f64,
    /// Number of observations.
    count: u64,
}

impl Histogram {
    /// An empty wall-clock-seconds histogram.
    pub fn seconds() -> Self {
        Histogram {
            buckets: [0; SECONDS_BOUNDS.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = SECONDS_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(SECONDS_BOUNDS.len());
        self.buckets[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Folds another shard into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone counter.
    Counter(u64),
    /// A fixed-bucket histogram.
    Histogram(Histogram),
}

impl Metric {
    /// The Prometheus type keyword.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named metric set with deterministic (sorted) iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

/// Whether `name` is a legal Prometheus metric name.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of named metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Adds `delta` to the named counter (creating it at 0).
    ///
    /// # Panics
    ///
    /// If the name is not a legal Prometheus metric name, or the name is
    /// already registered as a different metric type.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        assert!(valid_name(name), "bad metric name {name:?}");
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Records one wall-clock observation into the named histogram,
    /// created over [`SECONDS_BOUNDS`] on first touch.
    ///
    /// # Panics
    ///
    /// On a bad name or a type clash (see [`Registry::counter_add`]).
    pub fn observe_seconds(&mut self, name: &str, seconds: f64) {
        assert!(valid_name(name), "bad metric name {name:?}");
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::seconds()))
        {
            Metric::Histogram(h) => h.observe(seconds),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Folds another shard into this one: counters add, histograms
    /// merge bucket-wise. Metrics present only in `other` are copied
    /// over.
    pub fn merge(&mut self, other: &Registry) {
        for (name, m) in &other.metrics {
            match (self.metrics.get_mut(name), m) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Histogram(a)), Metric::Histogram(b)) => a.merge(b),
                (Some(existing), incoming) => debug_assert!(
                    false,
                    "metric {name} changed type: {} vs {}",
                    existing.kind(),
                    incoming.kind()
                ),
                (None, m) => {
                    self.metrics.insert(name.clone(), m.clone());
                }
            }
        }
    }

    /// Renders the Prometheus text exposition format (`# TYPE` comment
    /// per metric, cumulative `_bucket{le="…"}` series plus `_sum` and
    /// `_count` for histograms). Byte-stable for equal contents.
    pub fn render_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(s, "# TYPE {name} {}", m.kind());
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(s, "{name} {v}");
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (k, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        let le = match SECONDS_BOUNDS.get(k) {
                            Some(b) => prom_num(*b),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(s, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(s, "{name}_sum {}", prom_num(h.sum));
                    let _ = writeln!(s, "{name}_count {}", h.count);
                }
            }
        }
        s
    }

    /// Renders the registry as JSONL: one metric object per line, name
    /// order, byte-stable for equal contents.
    pub fn render_jsonl(&self) -> String {
        let mut s = String::new();
        for (name, m) in &self.metrics {
            let _ = write!(s, "{{\"metric\":\"{name}\",\"type\":\"{}\"", m.kind());
            match m {
                Metric::Counter(v) => {
                    let _ = write!(s, ",\"value\":{v}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(s, ",\"count\":{},\"sum\":{}", h.count, json::num(h.sum));
                    s.push_str(",\"buckets\":[");
                    let mut cum = 0u64;
                    for (k, &c) in h.buckets.iter().enumerate() {
                        cum += c;
                        if k > 0 {
                            s.push(',');
                        }
                        match SECONDS_BOUNDS.get(k) {
                            Some(b) => {
                                let _ = write!(s, "{{\"le\":{},\"count\":{cum}}}", json::num(*b));
                            }
                            None => {
                                let _ = write!(s, "{{\"le\":null,\"count\":{cum}}}");
                            }
                        }
                    }
                    s.push(']');
                }
            }
            s.push_str("}\n");
        }
        s
    }
}

/// Formats an `f64` for Prometheus exposition (scientific, lossless for
/// the magnitudes we record).
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v:e}")
    }
}

/// A counter, `_bucket` or `_count` sample value: a finite,
/// non-negative integer.
fn count_value(v: f64, ln: usize, name: &str) -> Result<u64, String> {
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
        Ok(v as u64)
    } else {
        Err(format!("line {ln}: {name} value {v} is not a non-negative integer count"))
    }
}

/// Validates a Prometheus text exposition: every sample line must carry
/// a legal metric name and a parseable value, every sample's base name
/// must have a preceding `# TYPE`, counter samples and histogram
/// `_bucket`/`_count` samples must be finite non-negative integers, and
/// `_bucket` series must be cumulative (non-decreasing) ending in a
/// `+Inf` bucket that equals the metric's `_count`. Returns the number
/// of sample lines.
///
/// # Errors
///
/// A description of the first malformed line or inconsistent histogram.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut last_bucket: BTreeMap<String, u64> = BTreeMap::new();
    let mut inf_bucket: BTreeMap<String, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or(format!("line {ln}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("line {ln}: TYPE without kind"))?;
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {ln}: unknown metric type {kind:?}"));
                }
                typed.insert(name.to_string(), kind.to_string());
            }
            continue; // other comments (e.g. # HELP) are fine
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: no value on sample line"))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {ln}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (series, None),
        };
        if !valid_name(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        let v = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            other => other
                .parse::<f64>()
                .map_err(|_| format!("line {ln}: bad sample value {other:?}"))?,
        };
        // The base name (with _bucket/_sum/_count stripped for
        // histograms) must be declared.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|sfx| {
                name.strip_suffix(sfx)
                    .filter(|b| typed.get(*b).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        let Some(kind) = typed.get(base) else {
            return Err(format!("line {ln}: sample {name} has no # TYPE declaration"));
        };
        if kind == "counter" {
            count_value(v, ln, name)?;
        }
        if let Some(bucket_of) = name
            .strip_suffix("_bucket")
            .filter(|b| typed.get(*b).map(String::as_str) == Some("histogram"))
        {
            let le = labels
                .and_then(|l| l.strip_prefix("le=\""))
                .and_then(|l| l.strip_suffix('"'))
                .ok_or(format!("line {ln}: bucket without le label"))?;
            let cum = count_value(v, ln, name)?;
            if let Some(&prev) = last_bucket.get(bucket_of) {
                if cum < prev {
                    return Err(format!("line {ln}: bucket series for {bucket_of} decreases"));
                }
            }
            last_bucket.insert(bucket_of.to_string(), cum);
            if le == "+Inf" {
                inf_bucket.insert(bucket_of.to_string(), cum);
            }
        }
        if let Some(count_of) = name
            .strip_suffix("_count")
            .filter(|b| typed.get(*b).map(String::as_str) == Some("histogram"))
        {
            counts.insert(count_of.to_string(), count_value(v, ln, name)?);
        }
        samples += 1;
    }
    for (name, count) in &counts {
        match inf_bucket.get(name) {
            Some(inf) if inf == count => {}
            Some(inf) => {
                return Err(format!("{name}: +Inf bucket {inf} != _count {count}"));
            }
            None => return Err(format!("{name}: histogram without +Inf bucket")),
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_roundtrip() {
        let mut r = Registry::new();
        r.counter_add("trials_total", 3);
        r.counter_add("trials_total", 2);
        r.observe_seconds("trial_seconds", 5e-4);
        r.observe_seconds("trial_seconds", 2e-2);
        r.observe_seconds("trial_seconds", 1e9); // overflow bucket
        assert_eq!(r.get("trials_total"), Some(&Metric::Counter(5)));
        let Some(Metric::Histogram(h)) = r.get("trial_seconds") else {
            panic!("histogram missing");
        };
        assert_eq!(h.count(), 3);
        assert_eq!(*h.buckets().last().unwrap(), 1);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE trials_total counter"));
        assert!(text.contains("trials_total 5"));
        assert!(text.contains("trial_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("trial_seconds_count 3"));
        assert_eq!(validate_prometheus(&text).unwrap(), 1 + 10 + 2);
    }

    #[test]
    fn merge_adds_counters_sums_histograms() {
        let mut a = Registry::new();
        a.counter_add("n", 1);
        a.observe_seconds("h", 1e-3);
        let mut b = Registry::new();
        b.counter_add("n", 2);
        b.observe_seconds("h", 1e-3);
        b.counter_add("only_b", 9);
        a.merge(&b);
        assert_eq!(a.get("n"), Some(&Metric::Counter(3)));
        assert_eq!(a.get("only_b"), Some(&Metric::Counter(9)));
        let Some(Metric::Histogram(h)) = a.get("h") else {
            panic!()
        };
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 2e-3).abs() < 1e-15);
    }

    #[test]
    fn merge_order_of_shards_is_deterministic_for_counters() {
        // Counters commute.
        let mut shards = Vec::new();
        for k in 0..3u64 {
            let mut r = Registry::new();
            r.counter_add("n", k + 1);
            shards.push(r);
        }
        let mut fwd = Registry::new();
        let mut rev = Registry::new();
        for s in &shards {
            fwd.merge(s);
        }
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.get("n"), rev.get("n"));
    }

    #[test]
    fn bad_names_and_type_clashes_panic() {
        let mut r = Registry::new();
        r.counter_add("ok_name", 1);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.observe_seconds("ok_name", 1.0)
        }))
        .is_err());
        let mut r2 = Registry::new();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r2.counter_add("7bad", 1)
        }))
        .is_err());
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_prometheus("ulp_x 1").is_err(), "no TYPE");
        assert!(
            validate_prometheus("# TYPE ulp_x counter\nulp_x notanumber").is_err(),
            "bad value"
        );
        assert!(
            validate_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 0\nh_count 3").is_err(),
            "decreasing buckets"
        );
        assert!(
            validate_prometheus("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 3")
                .is_err(),
            "+Inf != count"
        );
        assert_eq!(validate_prometheus("").unwrap(), 0);
    }

    #[test]
    fn validator_rejects_fractional_bucket_counts() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2.7\nh_sum 1\nh_count 2";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn validator_rejects_negative_bucket_counts() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} -3\nh_sum 0\nh_count 0";
        let err = validate_prometheus(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn validator_rejects_non_finite_counter_samples() {
        let err = validate_prometheus("# TYPE c counter\nc NaN").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut r = Registry::new();
        r.counter_add("a_total", 1);
        r.observe_seconds("b_seconds", 0.5);
        let jsonl = r.render_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"metric\":\"") && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"le\":null"));
    }
}
