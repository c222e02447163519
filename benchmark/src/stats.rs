//! Order statistics over `f64` samples: median, percentiles, quartiles, MAD.
//!
//! Every function sorts a private copy with `total_cmp`, so sample order
//! never matters and NaN cannot panic the benchmark.

/// Returns `samples` sorted ascending.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 100]` by linear interpolation between closest
/// ranks (the "inclusive" method, as Python's `statistics.quantiles(...,
/// method="inclusive")` and NumPy's default). 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_of_sorted(&sorted(samples), p)
}

fn percentile_of_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// The median (50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Five-number summary of one metric's per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub samples: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (all zeros when empty).
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        Summary {
            samples: v.len(),
            min: v.first().copied().unwrap_or(0.0),
            q1: percentile_of_sorted(&v, 25.0),
            median: percentile_of_sorted(&v, 50.0),
            q3: percentile_of_sorted(&v, 75.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }

    /// A summary of one exact value (deterministic metrics).
    pub fn exact(value: f64) -> Self {
        Summary { samples: 1, min: value, q1: value, median: value, q3: value, max: value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        // Between ranks: 10 samples, p90 sits at rank 8.1.
        let w: Vec<f64> = (0..10).map(f64::from).collect();
        assert!((percentile(&w, 90.0) - 8.1).abs() < 1e-12);
        // Order must not matter.
        let mut shuffled = w.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0), percentile(&w, 90.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Median 3, deviations {2, 1, 0, 1, 997} → MAD 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn summary_reports_quartiles() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (10.0, 20.0, 30.0, 40.0, 50.0));
        assert_eq!(s.samples, 5);
        let one = Summary::exact(4.0);
        assert_eq!((one.samples, one.min, one.q1, one.q3, one.max), (1, 4.0, 4.0, 4.0, 4.0));
        assert_eq!(Summary::of(&[]).median, 0.0);
    }
}
