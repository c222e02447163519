//! Summary statistics over experiment samples.
//!
//! The paper's cost metric is the **number of messages** exchanged while
//! processing a query (§5); the per-hop counts themselves live in the
//! transport's message ledger. [`Summary`] condenses a sample of such
//! counts (per-query messages, per-node loads, latencies) into mean,
//! spread and percentiles.

use serde::{Deserialize, Serialize};

/// Summary statistics over a sample of scalar observations (per-query
/// message counts, per-node loads, ...).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two observations).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile (tail latency's favourite quantile).
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`. Samples are ordered by
    /// [`f64::total_cmp`], so NaN observations sort after every finite
    /// value (they surface in `max`/`p99` rather than panicking) and
    /// `-0.0` orders before `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (n as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_observation() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let s = Summary::of(&[0.0, 10.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p95, 9.5);
        assert_eq!(s.p99, 9.9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }

    /// Regression: the sort used `partial_cmp().expect(...)`, which panics
    /// on NaN and gives `-0.0 == +0.0` an unstable order. `total_cmp`
    /// orders both totally.
    #[test]
    fn summary_totally_orders_nan_and_negative_zero() {
        let s = Summary::of(&[2.0, f64::NAN, 1.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0, "finite minimum survives a NaN sample");
        assert!(s.max.is_nan(), "NaN sorts after every finite value");
        let z = Summary::of(&[0.0, -0.0]);
        assert!(z.min.is_sign_negative(), "-0.0 orders before +0.0");
        assert!(z.max.is_sign_positive());
        assert_eq!(z.mean, 0.0);
    }
}
