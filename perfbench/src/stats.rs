//! Order statistics over samples, and the filter that keeps the host's
//! contention phases from deciding a run's latency figures.

/// Nearest-rank percentile: the smallest sample with at least `q`% of
/// the samples at or below it (the rule the program's own ledgers use).
/// `0.0` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Samples strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&s| s > threshold).count()
}

/// Ops per block of the timed window.
pub const BLOCK: usize = 5;

/// The blocks of the quieter half of a run. On a shared host, op time
/// swings by up to 2x in phases lasting seconds to minutes while other
/// tenants contend for the core; a run's median then depends on how
/// much of it fell in such phases. The run's blocks (each a set-up and
/// [`BLOCK`] ops on it) are ranked by the median latency of their ops,
/// `block_medians`, and the indices of the faster half (rounded up) are
/// returned in run order. Every op of a kept block is kept, so slow ops
/// the program itself produces among fast ones stay in the tail; a
/// stretch of slow blocks is dropped, whatever its cause.
pub fn quiet_blocks(block_medians: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..block_medians.len()).collect();
    order.sort_by(|&a, &b| block_medians[a].total_cmp(&block_medians[b]));
    let mut kept = order[..block_medians.len().div_ceil(2)].to_vec();
    kept.sort_unstable();
    kept
}
