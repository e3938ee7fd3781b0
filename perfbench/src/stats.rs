//! Summary statistics with the reporting rules the benchmark relies on.

/// Samples that must lie beyond a reported percentile. A percentile with
/// fewer samples above it is the maximum of a handful of values, not an
/// estimate, so the benchmark refuses to report it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `q`-quantile of `sorted` by nearest rank, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it. The median (`q = 0.5`)
/// of any sample of 20 or more is always reportable.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(sorted.len(), q);
    (sorted.len() - 1 - i >= MIN_BEYOND).then(|| sorted[i])
}

/// Smallest sample count whose `q`-quantile is reportable.
#[must_use]
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| n - 1 - rank(n, q) >= MIN_BEYOND).expect("some count suffices")
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One completed (or failed) request of a timed phase, for backlog
/// detection: when it was due, and how long after that it finished.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Seconds from phase start to the request's due time.
    pub due_s: f64,
    /// Milliseconds from due time to completion.
    pub latency_ms: f64,
}

/// Why a phase was judged to have a growing backlog, if it was.
#[derive(Debug, Clone, PartialEq)]
pub enum Backlog {
    /// Latency drifted upward across the phase: the last quarter's
    /// median exceeds the first quarter's by more than the factor and
    /// the absolute floor together.
    LatencyDrift { first_ms: f64, last_ms: f64 },
    /// Queue depth rose across the phase: the last third's mean depth
    /// exceeds the first third's by more than the slack.
    QueueGrowth { first: f64, last: f64 },
}

/// Latency ratio (last quarter / first quarter median) that counts as drift.
pub const DRIFT_FACTOR: f64 = 2.0;
/// Minimum absolute drift, in ms, so sub-millisecond jitter never counts.
pub const DRIFT_FLOOR_MS: f64 = 2.0;
/// Mean queued jobs the last third may exceed the first third by.
pub const DEPTH_SLACK: f64 = 4.0;

/// Detect a growing backlog over a phase from two independent signals:
/// latency drift across the phase (completions ordered by due time) and
/// the trend of sampled queue depths `(seconds, depth)`. A phase that
/// ends before its queue visibly overflows still shows one of these, so
/// a rate is never credited just because the phase was short.
#[must_use]
pub fn detect_backlog(completions: &[Completion], depths: &[(f64, f64)]) -> Option<Backlog> {
    let mut by_due = completions.to_vec();
    by_due.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let q = by_due.len() / 4;
    if q >= 5 {
        let lat = |s: &[Completion]| median(&s.iter().map(|c| c.latency_ms).collect::<Vec<_>>());
        let first_ms = lat(&by_due[..q]);
        let last_ms = lat(&by_due[by_due.len() - q..]);
        if last_ms > first_ms * DRIFT_FACTOR && last_ms - first_ms > DRIFT_FLOOR_MS {
            return Some(Backlog::LatencyDrift { first_ms, last_ms });
        }
    }
    let t = depths.len() / 3;
    if t >= 2 {
        let mean = |s: &[(f64, f64)]| s.iter().map(|d| d.1).sum::<f64>() / s.len() as f64;
        let first = mean(&depths[..t]);
        let last = mean(&depths[depths.len() - t..]);
        if last > first + DEPTH_SLACK {
            return Some(Backlog::QueueGrowth { first, last });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        let beyond = |n: usize| ramp(n).iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond(1000), MIN_BEYOND);
    }

    #[test]
    fn median_percentile_needs_a_modest_sample() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        // Permutation-invariant, so row order never moves the metric.
        assert_eq!(geomean(&[2.0, 8.0, 0.5]), geomean(&[0.5, 2.0, 8.0]));
    }

    fn steady(n: usize, latency: impl Fn(usize) -> f64) -> Vec<Completion> {
        (0..n).map(|i| Completion { due_s: i as f64 * 0.001, latency_ms: latency(i) }).collect()
    }

    #[test]
    fn steady_phase_has_no_backlog() {
        let c = steady(400, |i| 3.0 + (i % 7) as f64 * 0.5);
        let d: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 * 0.01, (i % 3) as f64)).collect();
        assert_eq!(detect_backlog(&c, &d), None);
    }

    #[test]
    fn latency_drift_is_a_backlog() {
        // Each request waits behind all earlier excess work: latency grows
        // linearly with due time, as in an overloaded queue.
        let c = steady(400, |i| 1.0 + i as f64 * 0.05);
        assert!(matches!(detect_backlog(&c, &[]), Some(Backlog::LatencyDrift { .. })));
    }

    #[test]
    fn small_absolute_drift_is_jitter() {
        // Doubling from 0.2 ms to 0.6 ms is below the absolute floor.
        let c = steady(400, |i| if i < 200 { 0.2 } else { 0.6 });
        assert_eq!(detect_backlog(&c, &[]), None);
    }

    #[test]
    fn queue_growth_is_a_backlog() {
        let c = steady(400, |_| 3.0);
        let d: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 * 0.01, i as f64)).collect();
        assert!(matches!(detect_backlog(&c, &d), Some(Backlog::QueueGrowth { .. })));
    }
}
