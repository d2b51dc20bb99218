//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one iteration.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile by the nearest-rank rule.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * p as usize).div_ceil(100).max(1) - 1]
}

/// The time of an undisturbed iteration: the 10th percentile. The
/// benchmark host is shared; at times more than half of all iterations are
/// slowed by neighbours, by up to 1.7x, so the median moves with the
/// neighbours while the fast tenth stays where the program put it.
pub fn undisturbed(xs: &[f64]) -> f64 {
    percentile(xs, 10)
}

/// The highest of p75/p90/p95/p99 that still has at least ten samples
/// beyond it, as `(percentile, value)`. With fewer than 40 samples no
/// percentile qualifies and the median is returned as `(50, median)`, so
/// the caller never reports a tail it has no samples for.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    for p in [99u32, 95, 90, 75] {
        let rank = (n * p as usize).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, percentile(xs, p));
        }
    }
    (50, median(xs))
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the driver uses
/// for the spread of a metric over repeated runs. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=75).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10), 8.0);
        assert_eq!(percentile(&xs, 100), 75.0);
        assert_eq!(percentile(&[5.0], 10), 5.0);
        assert_eq!(undisturbed(&xs), 8.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 39 samples: p75 is rank 30, only 9 beyond.
        assert_eq!(tail(&xs(39)), (50, 20.0));
        // 40 samples: p75 is rank 30, exactly 10 beyond.
        assert_eq!(tail(&xs(40)), (75, 30.0));
        // 100 samples: p90 is rank 90 (10 beyond); p95 has only 5.
        assert_eq!(tail(&xs(100)), (90, 90.0));
        // 200 samples: p95 is rank 190.
        assert_eq!(tail(&xs(200)), (95, 190.0));
        // 1000 samples: p99 is rank 990.
        assert_eq!(tail(&xs(1000)), (99, 990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
