//! Statistics helpers used by the benchmark harnesses.

use std::fmt;

/// Running mean/deviation/min/max over a stream of samples (Welford's
/// algorithm).
///
/// # Examples
///
/// ```
/// use renofs_sim::stats::Running;
///
/// let mut r = Running::new();
/// for x in [1.0, 2.0, 3.0] {
///     r.add(x);
/// }
/// assert_eq!(r.mean(), 2.0);
/// assert_eq!(r.count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

impl fmt::Display for Running {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Exact quantile of an unsorted sample set, which it sorts in place:
/// the sample nearest rank `(len - 1) * q` (0.0 when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let idx = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    samples[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_and_dev() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.add(x);
        }
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_zeroes() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.stddev(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }
}
