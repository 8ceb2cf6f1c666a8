//! Statistics helpers used by the benchmark harnesses.

use std::fmt;

use crate::time::SimTime;

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

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

/// A fixed-bucket histogram over `f64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds; an
    /// implicit overflow bucket catches everything above the last bound.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count per bucket (last bucket is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile (returns the upper bound of the bucket that
    /// contains the q-th sample; `f64::INFINITY` for the overflow bucket).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

/// A time-stamped series of values, used to emit the paper's graph traces
/// (e.g. Graph 7's RTT/RTO trace for read RPCs).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Downsamples to at most `n` points by averaging fixed-size windows;
    /// used when printing long traces.
    pub fn downsample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let chunk = self.points.len().div_ceil(n);
        self.points
            .chunks(chunk)
            .map(|c| {
                let t = c[c.len() / 2].0;
                let v = c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64;
                (t, v)
            })
            .collect()
    }
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

    #[test]
    fn running_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(vec![1.0, 2.0, 5.0]);
        for x in [0.5, 0.9, 1.5, 3.0, 10.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.quantile(0.2), 1.0);
        assert_eq!(h.quantile(0.99), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn timeseries_downsample() {
        let mut ts = TimeSeries::new();
        for i in 0..100 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        let ds = ts.downsample(10);
        assert!(ds.len() <= 10);
        assert!((ts.mean() - 49.5).abs() < 1e-12);
        // Downsampled means should track the original ramp.
        assert!(ds[0].1 < ds[ds.len() - 1].1);
    }
}
