//! The micro-measurement helper behind every layer probe.
//!
//! One *sample* is a batch of `iters` calls timed with a single pair of
//! `Instant::now()` reads; `iters` is calibrated once so a sample lasts
//! about [`Budget::sample_ns`]. A measurement is the median over
//! [`Budget::samples`] samples, with the median absolute deviation (MAD)
//! and the minimum beside it. A measurement whose MAD exceeds a tenth of
//! its median is marked *refused*: the probe table prints the refusal
//! instead of a number nobody should compare.

use crate::stats::{mad, Summary};
use std::time::Instant;

/// MAD/median above which a measurement is refused.
pub const MAX_DISPERSION: f64 = 0.1;

/// How long and how often to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Samples per measurement.
    pub samples: usize,
    /// Target duration of one sample, in nanoseconds.
    pub sample_ns: u64,
    /// Samples for probes that time one long call (builds, rebuilds).
    pub once_samples: usize,
}

impl Budget {
    /// The full-quality budget of `--probes`: ≥ 15 samples of ~20 ms.
    pub const FULL: Budget = Budget { samples: 15, sample_ns: 20_000_000, once_samples: 15 };
    /// The budget probes get inside a traced benchmark run, where the whole
    /// list has to fit next to the traced rounds.
    pub const TRACE: Budget = Budget { samples: 9, sample_ns: 4_000_000, once_samples: 5 };
    /// Smoke scale (`--quick`).
    pub const QUICK: Budget = Budget { samples: 5, sample_ns: 500_000, once_samples: 3 };
}

/// One measurement, in nanoseconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Min, quartiles, median and max over the samples.
    pub per_call_ns: Summary,
    /// Median absolute deviation over the samples.
    pub mad_ns: f64,
    /// Calls per sample.
    pub iters: u64,
}

impl Measurement {
    /// MAD as a share of the median.
    pub fn dispersion(&self) -> f64 {
        if self.per_call_ns.median > 0.0 {
            self.mad_ns / self.per_call_ns.median
        } else {
            0.0
        }
    }

    /// Whether the value is too unsteady to print.
    pub fn refused(&self) -> bool {
        self.dispersion() > MAX_DISPERSION
    }

    fn from_samples(per_call_ns: &[f64], iters: u64) -> Self {
        Measurement { per_call_ns: Summary::of(per_call_ns), mad_ns: mad(per_call_ns), iters }
    }
}

/// Times `iters` calls of `call` and returns the elapsed nanoseconds.
fn time_batch<F: FnMut(u64)>(call: &mut F, first: u64, iters: u64) -> u64 {
    let start = Instant::now();
    for i in first..first + iters {
        call(i);
    }
    start.elapsed().as_nanos() as u64
}

/// Measures `call`, which receives a running call index so it can walk a
/// pre-generated input table instead of repeating one input.
///
/// The first calibration batches double as warm-up. When a measurement
/// comes out refused it is retaken (up to twice) before being reported.
pub fn measure<F: FnMut(u64)>(budget: Budget, mut call: F) -> Measurement {
    let mut next = 0u64;
    let mut iters = 1u64;
    loop {
        let ns = time_batch(&mut call, next, iters);
        next += iters;
        if ns >= budget.sample_ns || iters >= 1 << 30 {
            break;
        }
        // Aim straight at the target once the batch is long enough to trust.
        iters = if ns < budget.sample_ns / 16 {
            iters * 4
        } else {
            (iters as f64 * budget.sample_ns as f64 / ns as f64).ceil() as u64
        };
    }
    let mut best: Option<Measurement> = None;
    for _ in 0..3 {
        let mut per_call = Vec::with_capacity(budget.samples);
        for _ in 0..budget.samples {
            let ns = time_batch(&mut call, next, iters);
            next += iters;
            per_call.push(ns as f64 / iters as f64);
        }
        let m = Measurement::from_samples(&per_call, iters);
        if best.is_none_or(|b| m.dispersion() < b.dispersion()) {
            best = Some(m);
        }
        if !m.refused() {
            break;
        }
    }
    best.expect("at least one attempt ran")
}

/// Measures one long call per sample (`setup` runs untimed before each).
pub fn measure_once<S, T, F: FnMut(S) -> T>(
    budget: Budget,
    mut setup: impl FnMut() -> S,
    mut call: F,
) -> Measurement {
    let mut per_call = Vec::with_capacity(budget.once_samples);
    for _ in 0..budget.once_samples {
        let state = setup();
        let start = Instant::now();
        let out = call(state);
        per_call.push(start.elapsed().as_nanos() as f64);
        // Dropping a large result is not part of the call being measured.
        drop(std::hint::black_box(out));
    }
    Measurement::from_samples(&per_call, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn calibration_reaches_the_sample_target() {
        let budget = Budget { samples: 5, sample_ns: 200_000, once_samples: 3 };
        let mut calls = 0u64;
        let m = measure(budget, |i| {
            calls += 1;
            black_box(i.wrapping_mul(0x9E37_79B9));
        });
        assert!(m.iters > 1, "a near-free call must be batched");
        let s = m.per_call_ns;
        assert!(s.samples == 5 && s.median > 0.0 && s.min <= s.median && s.median <= s.max);
        assert!(calls >= m.iters * 5);
    }

    #[test]
    fn refusal_follows_dispersion() {
        let steady = Measurement::from_samples(&[100.0, 101.0, 99.0, 100.0, 102.0], 1);
        assert!(!steady.refused());
        let wild = Measurement::from_samples(&[100.0, 180.0, 60.0, 140.0, 30.0], 1);
        assert!(wild.refused(), "dispersion {}", wild.dispersion());
    }

    #[test]
    fn measure_once_runs_setup_per_sample() {
        let mut setups = 0;
        let m = measure_once(
            Budget::QUICK,
            || {
                setups += 1;
                vec![1u64; 1000]
            },
            |v| v.iter().sum::<u64>(),
        );
        assert_eq!(setups, Budget::QUICK.once_samples);
        assert_eq!(m.per_call_ns.samples, Budget::QUICK.once_samples);
    }
}
