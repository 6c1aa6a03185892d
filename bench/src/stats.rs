//! The harness's own arithmetic: percentiles, medians, means.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile (capped at 99) whose nearest-rank value
/// still has at least ten samples beyond it, or `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| {
        let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
        n >= 20 && n - rank.clamp(1, n) >= 10
    })
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle values for even counts (the
/// convention of Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Geometric mean; 0 when any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let h: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(percentile(&h, 95.0), 570.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 600 samples: p98 has rank 588, 12 beyond; p99 has 6 beyond.
        assert_eq!(highest_supported_percentile(600), Some(98));
        // 300 samples: p96 has rank 288, 12 beyond; p97 has 9 beyond.
        assert_eq!(highest_supported_percentile(300), Some(96));
        // 200 samples: p95 has exactly 10 beyond.
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        // A 10 % gain in any one of n values moves the mean equally.
        let a = geomean(&[1.1, 5.0, 9.0]);
        let b = geomean(&[1.0, 5.5, 9.0]);
        assert!((a - b).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
