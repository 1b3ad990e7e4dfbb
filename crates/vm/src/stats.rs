//! Shared distribution statistics: percentiles and fairness.
//!
//! The server simulation ([`crate::server`]) and the bench harness both
//! summarize latency/stall series into tail percentiles, and the
//! multi-tenant report needs a fairness number. The math lives here once,
//! and the bench harness calls it here, so every figure and report uses
//! the same deterministic definitions: nearest-rank percentiles on a
//! sorted copy (integer ranks, no interpolation) and Jain's fairness
//! index.

/// Nearest-rank quantile of a series. `q` is a fraction in `[0, 1]`:
/// `0.50` is the median, `0.999` the p999. Deterministic: the series is
/// sorted (unstable sort on `u64` is order-stable for equal keys by
/// value) and indexed at `ceil(q · n) - 1`, the classic nearest-rank
/// definition. An empty series yields 0.
pub fn percentile(series: &[u64], q: f64) -> u64 {
    if series.is_empty() {
        return 0;
    }
    let mut sorted = series.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Jain's fairness index over a set of non-negative values:
/// `(Σx)² / (n · Σx²)`. Equals 1.0 when all values are equal and
/// approaches `1/n` as one value dominates. An empty or all-zero set is
/// defined as perfectly fair (1.0).
pub fn fairness_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq_sum: f64 = values.iter().map(|v| v * v).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sq_sum)
}

/// A five-number summary of a cycle series (latencies, stalls): the tail
/// percentiles the server report and the bench figures print.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencyStats {
    /// Summarizes a series (empty series ⇒ all zeros).
    pub fn of(series: &[u64]) -> LatencyStats {
        if series.is_empty() {
            return LatencyStats::default();
        }
        LatencyStats {
            p50: percentile(series, 0.50),
            p99: percentile(series, 0.99),
            p999: percentile(series, 0.999),
            max: *series.iter().max().expect("non-empty"),
            mean: series.iter().sum::<u64>() as f64 / series.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let series: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&series, 0.50), 50);
        assert_eq!(percentile(&series, 0.99), 99);
        assert_eq!(percentile(&series, 0.999), 100);
        assert_eq!(percentile(&series, 1.0), 100);
        assert_eq!(percentile(&series, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = vec![5, 1, 9, 3, 7];
        let b = vec![9, 7, 5, 3, 1];
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(fairness_index(&[3.0, 3.0, 3.0]), 1.0);
        let skew = fairness_index(&[100.0, 1.0, 1.0, 1.0]);
        assert!(skew < 0.5, "one dominant value is unfair: {skew}");
        assert!(skew > 0.25, "index is bounded below by 1/n: {skew}");
        assert_eq!(fairness_index(&[]), 1.0);
        assert_eq!(fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn latency_summary() {
        let s = LatencyStats::of(&[10, 20, 30, 40]);
        assert_eq!(s.p50, 20);
        assert_eq!(s.max, 40);
        assert_eq!(s.mean, 25.0);
        assert_eq!(LatencyStats::of(&[]), LatencyStats::default());
    }
}
