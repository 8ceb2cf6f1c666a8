//! The estimators: sum of minima for host time, the tail-percentile rule
//! for simulated latency, and the quartile spread `--verify` reports.

/// Sum over cells of each cell's fastest repeat.
///
/// A cell is deterministic work, so its repeats differ only by what the
/// machine added; the minimum is the repeat it disturbed least. Summing
/// minima of many short cells, with each cell's repeats spread over the
/// whole invocation, lets one slow phase of the host spoil at most one
/// repeat of each cell instead of the whole figure.
pub fn sigma_min(cells: &[Vec<f64>]) -> f64 {
    cells
        .iter()
        .map(|repeats| repeats.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile, reported only while at least ten samples lie
/// beyond it (a tail read off fewer samples is mostly luck).
pub fn p99(sorted: &[f64]) -> Option<f64> {
    let rank = (0.99 * sorted.len() as f64).ceil() as usize;
    (sorted.len() - rank.min(sorted.len()) >= 10).then(|| quantile(sorted, 0.99))
}

/// Median of a slice (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q3 - q1) / median` with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (its default, exclusive
/// method) — the spread the driver holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_repeat_per_cell_does_not_move_sigma_min() {
        let clean = vec![vec![10.0, 10.0, 10.0], vec![20.0, 20.0, 20.0]];
        let mut noisy = clean.clone();
        noisy[0][1] = 17.0;
        noisy[1][2] = 90.0;
        assert_eq!(sigma_min(&clean), 30.0);
        assert_eq!(sigma_min(&noisy), 30.0);
    }

    #[test]
    fn sigma_min_sums_per_cell_not_per_pass() {
        // Pass 1 is slow on cell A, pass 2 on cell B: the best whole
        // pass costs 35, the sum of minima 30.
        let cells = vec![vec![15.0, 10.0], vec![20.0, 25.0]];
        assert_eq!(sigma_min(&cells), 30.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(p99(&ramp(999)), None);
        assert_eq!(p99(&ramp(1000)), Some(990.0));
        assert_eq!(p99(&ramp(5000)), Some(4950.0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.51), 3.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
