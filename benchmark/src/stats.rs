//! Order statistics for timing samples.
//!
//! On a shared core noise only ever adds time, in bursts that last from
//! milliseconds to minutes, so the reported pass time is built from
//! **minima**, and at the finest grain the benchmark has: the time of each
//! program (the *unit* of a pass) is taken as its minimum over the timed
//! passes, and the pass time is the sum over the units. A whole pass has to
//! be quiet for 0.2–2 s to give a good whole-pass minimum; a program only
//! for 5–100 ms, so far more runs see every unit quiet at least once.
//! README.md has the measurements. Whole-pass minimum, quartiles, median and
//! MAD are printed beside it so a reader can see how noisy a run was.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least a share `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice — every caller has at least one pass.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one series of timing samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Nearest-rank first quartile.
    pub q1: f64,
    /// Nearest-rank median.
    pub median: f64,
    /// Nearest-rank third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = quantile(&sorted, 0.5);
        let mut dev: Vec<f64> = sorted.iter().map(|s| (s - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median,
            q3: quantile(&sorted, 0.75),
            mad: quantile(&dev, 0.5),
        }
    }

    /// Interquartile range as a share of the median — the "how noisy was
    /// this run" figure the noise guard prints.
    pub fn quartile_spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.5), 4.0);
        assert_eq!(quantile(&s, 0.75), 6.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 8.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn summary_of_unsorted_samples() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 100.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 9.0);
        // |x - 5| = 4, 4, 0, 2, 95 → sorted 0, 2, 4, 4, 95 → median 4.
        assert_eq!(s.mad, 4.0);
        assert!((s.quartile_spread() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn one_outlier_moves_neither_min_nor_median() {
        let quiet = Summary::of(&[10.0, 10.1, 10.2, 10.3, 10.4]);
        let noisy = Summary::of(&[10.0, 10.1, 10.2, 10.3, 50.0]);
        assert_eq!(quiet.min, noisy.min);
        assert_eq!(quiet.median, noisy.median);
    }
}
