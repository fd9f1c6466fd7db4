//! Order statistics for timing samples.

/// Tail percentiles a timing may be reported at, in per mille, highest first.
const TAIL_PER_MILLE: [u64; 4] = [999, 990, 950, 900];

/// Median of `values` (the mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly between
/// the closest ranks; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples ranked strictly above the `per_mille` percentile of `n` samples.
pub fn samples_beyond(n: usize, per_mille: u64) -> usize {
    let n = n as u64;
    (n - (n * per_mille).div_ceil(1000)) as usize
}

/// The highest reportable tail percentile (in per mille) of `n` samples: the
/// highest of p99.9, p99, p95 and p90 with at least `min_beyond` samples
/// beyond it, or `None` when even p90 has too few.
pub fn tail_per_mille(n: usize, min_beyond: usize) -> Option<u64> {
    TAIL_PER_MILLE.into_iter().find(|&p| samples_beyond(n, p) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 0.0), 0.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(samples_beyond(1000, 999), 1);
        assert_eq!(tail_per_mille(1000, 10), Some(990));
        // One sample fewer leaves only 9 beyond p99: fall back to p95.
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(tail_per_mille(999, 10), Some(950));
        assert_eq!(tail_per_mille(10_000, 10), Some(999));
        assert_eq!(tail_per_mille(200, 10), Some(950));
        assert_eq!(tail_per_mille(100, 10), Some(900));
        assert_eq!(tail_per_mille(99, 10), None);
        assert_eq!(tail_per_mille(0, 10), None);
    }

    #[test]
    fn tail_percentile_is_monotone_in_sample_count() {
        let mut last = 0;
        for n in 0..20_000 {
            let p = tail_per_mille(n, 10).unwrap_or(0);
            assert!(p >= last, "n={n}: p{p} after p{last}");
            last = p;
        }
    }
}
