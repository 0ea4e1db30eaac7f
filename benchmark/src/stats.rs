//! Percentiles, quartiles and spreads.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = nearest_rank_index(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// The nearest-rank `p`-th percentile, but only when at least `beyond`
/// samples lie above its rank — so a tail percentile is never read off a
/// handful of samples (p90 needs n ≥ 100 for ten samples beyond it).
pub fn tail_percentile(samples: &[f64], p: f64, beyond: usize) -> Option<f64> {
    let rank = nearest_rank_index(samples.len(), p)?;
    if samples.len() - rank < beyond {
        return None;
    }
    nearest_rank(samples, p)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method); a single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// The distance between the first and third quartile as a share of the
/// median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(nearest_rank(&range(10), 50.0), Some(5.0));
        assert_eq!(nearest_rank(&range(11), 50.0), Some(6.0));
        assert_eq!(nearest_rank(&range(100), 90.0), Some(90.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 100.0), Some(3.0));
        assert_eq!(nearest_rank(&[7.0], 1.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&range(100), 90.0, 10), Some(90.0));
        assert_eq!(tail_percentile(&range(99), 90.0, 10), None);
        assert_eq!(tail_percentile(&range(200), 90.0, 10), Some(180.0));
        assert_eq!(tail_percentile(&range(10), 90.0, 10), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&range(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&range(2)), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&range(5)), Some((1.5, 3.0, 4.5)));
        assert!((spread(&range(10)) - 5.5 / 5.5).abs() < 1e-12);
    }
}
