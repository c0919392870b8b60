//! Order statistics for the reported timings.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `N` sorted samples is the sample at rank `⌈p·N/100⌉` (1-based). A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! strictly above its rank, so a p99 needs at least 1000 samples.

/// Samples that must lie beyond a tail percentile's rank before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank 1-based index of the `p`-th percentile among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `samples`. The median (`p = 50`) is always
/// available; any higher percentile requires [`MIN_BEYOND`] samples
/// beyond its rank and returns `None` otherwise.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(p, n);
    if p > 50.0 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Samples needed before the `p`-th percentile can be reported.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| n - nearest_rank(p, n) >= MIN_BEYOND).expect("finite for p < 100")
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of an empty sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(50.0, 1), 1);
        assert_eq!(nearest_rank(50.0, 4), 2);
        assert_eq!(nearest_rank(50.0, 5), 3);
        assert_eq!(nearest_rank(90.0, 100), 90);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(100.0, 7), 7);
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), None, "99 samples leave only 9 beyond p90");
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(89.0));
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(989.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
