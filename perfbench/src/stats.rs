//! Order statistics that refuse to report what the samples cannot support.
//!
//! A percentile is reported only when at least ten samples lie beyond it
//! (so a p99 needs 1,000 samples, a p50 twenty); otherwise it is missing.
//! A failed or refused operation enters the sample set as `+∞`, so it
//! misses every latency limit, and a percentile that lands on one is
//! missing too.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts `samples` (failures are `f64::INFINITY`).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Number of samples, failures included.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile, if at least [`MIN_BEYOND`] samples
    /// lie beyond it and it is not a failure.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n < rank + MIN_BEYOND {
            return None;
        }
        let v = self.sorted[rank - 1];
        v.is_finite().then_some(v)
    }

    /// The median, under the same rule.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The highest of p99.9 / p99 / p90 the samples support, as
    /// `(label, value)`.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
            .into_iter()
            .find_map(|(label, q)| self.quantile(q).map(|v| (label, v)))
    }
}

/// The plain median of a handful of repetitions (set-up times), where the
/// percentile rule above does not apply: the middle value, or the mean of
/// the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = Summary::new((1..=19).map(f64::from).collect());
        assert_eq!(s.p50(), None, "19 samples leave only 9 beyond the median");
        let s = Summary::new((1..=20).map(f64::from).collect());
        assert_eq!(s.p50(), Some(10.0));
        assert_eq!(s.tail(), None);
        let s = Summary::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.tail(), Some(("p99", 990.0)));
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.extend([f64::INFINITY; 15]);
        let s = Summary::new(samples);
        assert_eq!(s.quantile(0.9), None, "p90 lands on a failure");
        assert!(s.p50().is_some());
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
