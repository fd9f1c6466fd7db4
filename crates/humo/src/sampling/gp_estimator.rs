//! Gaussian-process match-count estimator over subset unions (Eq. 15–21).
//!
//! The estimator is built once per plan from the fitted GP, at the per-bound
//! confidence of the requirement; its bounds take a subset range only.

use super::estimator::MatchCountEstimator;
use er_core::workload::SubsetPartition;
use er_stats::{GaussianProcess, Normal};

/// Match-count estimator backed by a Gaussian-process regression of the
/// match-proportion function.
///
/// The GP is trained on `(mean similarity, sampled match proportion)` points of
/// the sampled subsets, then evaluated jointly at *every* subset's mean
/// similarity. For a union of subsets `D*` the estimated number of matches is
/// `n̄* = Σ nᵢ R̄ᵢ` (Eq. 19) with standard deviation
/// `σ* = sqrt(Σᵢⱼ nᵢ nⱼ cov(vᵢ, vⱼ))` (Eq. 20), and the confidence interval uses
/// the normal critical value `Z₁₋θ` (Eq. 21) of the per-bound confidence the
/// estimator is built with, computed once at construction.
///
/// Range queries are O(1) thanks to precomputed prefix sums of the weighted
/// means and a 2-D prefix table of the weighted posterior covariance.
/// Building the table costs O(u²·n/2 + m²) for `m` subsets with `u`
/// distinct GP inputs and `n` training points, and needs one `(m+1)²`
/// buffer: the posterior covariance is written straight into it and scanned
/// in place (see [`GpCountEstimator::with_noise_model`]).
#[derive(Debug, Clone)]
pub struct GpCountEstimator {
    /// Prefix sums of subset sizes.
    size_prefix: Vec<usize>,
    /// Prefix sums of `nᵢ · R̄ᵢ` (clamped means).
    mean_prefix: Vec<f64>,
    /// 2-D prefix table of `nᵢ nⱼ cov(vᵢ, vⱼ)`, dimension `(m+1)²`, row-major.
    cov_prefix: Vec<f64>,
    /// Number of subsets `m`.
    m: usize,
    /// Two-sided normal critical value of the per-bound confidence.
    z: f64,
}

impl GpCountEstimator {
    /// Builds the estimator from a fitted GP, per-subset GP inputs, the
    /// per-bound confidence of its intervals and a per-subset noise model.
    ///
    /// `query_inputs[i]` is the GP input coordinate of subset `i` (the partial
    /// sampling optimizer uses the subset's mean similarity, so distances and
    /// the GP length scale live in similarity space `[0, 1]`). A `confidence`
    /// of zero or below collapses both bounds onto the point estimate.
    /// `noise_for(i, p, var)` returns the independent per-subset
    /// deviation variance for subset `i` whose predicted match proportion is `p`
    /// and whose GP posterior variance is `var`; the partial-sampling optimizer
    /// uses the binomial-style model `c · p(1−p)` (with a small floor on `p`)
    /// plus a distance-dependent posterior inflation term derived from `var`.
    ///
    /// The posterior comes from [`GaussianProcess::predict_joint_into`]
    /// (O(u²·n/2) for `u` distinct inputs), written at offset `(1, 1)` of
    /// the `(m+1)²` prefix table, so no separate `m × m` covariance matrix is
    /// ever allocated. The noise is added on the diagonal (`noise_for` is
    /// called once per subset, in subset order), then the table is scanned in
    /// place. **Bit-identity:**
    /// every table cell, and hence every range query, equals bit for bit the
    /// dense construction — `predict_joint`, then the row-major loop
    /// `P[a][b] = ((P[a−1][b] + P[a][b−1]) − P[a−1][b−1]) + wₐ w_b cov` — that
    /// the unit tests keep as a reference.
    pub fn with_noise_model(
        partition: &SubsetPartition,
        gp: &GaussianProcess,
        query_inputs: &[f64],
        confidence: f64,
        noise_for: impl Fn(usize, f64, f64) -> f64,
    ) -> Self {
        let m = partition.len();
        assert_eq!(query_inputs.len(), m, "one GP input per subset is required");
        let sizes: Vec<usize> = partition.subsets().iter().map(|s| s.len()).collect();

        // The one (m+1)² buffer: the posterior covariance lands at offset
        // (1, 1), the noise is added on its diagonal, and the prefix scan
        // then runs in place. Row 0 and column 0 stay zero.
        let stride = m + 1;
        let mut cov_prefix = vec![0.0f64; stride * stride];
        let mut mean = vec![0.0f64; m];
        if m > 0 {
            gp.predict_joint_into(query_inputs, &mut mean, &mut cov_prefix[stride + 1..], stride);
        }

        let mut size_prefix = vec![0usize; m + 1];
        let mut mean_prefix = vec![0.0f64; m + 1];
        for i in 0..m {
            size_prefix[i + 1] = size_prefix[i] + sizes[i];
            let clamped_mean = mean[i].clamp(0.0, 1.0);
            mean_prefix[i + 1] = mean_prefix[i] + sizes[i] as f64 * clamped_mean;
        }
        for i in 0..m {
            let cell = &mut cov_prefix[(i + 1) * (stride + 1)];
            let variance = cell.max(0.0);
            *cell += noise_for(i, mean[i].clamp(0.0, 1.0), variance).max(0.0);
        }
        let weights: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
        prefix_scan_in_place(&mut cov_prefix, &weights);

        Self { size_prefix, mean_prefix, cov_prefix, m, z: critical_value(confidence) }
    }

    /// Number of subsets covered by the estimator.
    pub fn num_subsets(&self) -> usize {
        self.m
    }

    /// Standard deviation of the match-count estimate for a subset range (Eq. 20).
    pub fn std_dev(&self, range: std::ops::Range<usize>) -> f64 {
        let (lo, hi) = (range.start.min(self.m), range.end.min(self.m));
        if lo >= hi {
            return 0.0;
        }
        let stride = self.m + 1;
        let at = |a: usize, b: usize| self.cov_prefix[a * stride + b];
        let variance = at(hi, hi) - 2.0 * at(lo, hi) + at(lo, lo);
        variance.max(0.0).sqrt()
    }
}

/// The two-sided normal critical value `Z₁₋θ` of a confidence, `0` for a
/// confidence of zero or below.
fn critical_value(confidence: f64) -> f64 {
    if confidence <= 0.0 {
        0.0
    } else {
        Normal::two_sided_critical_value(confidence).unwrap_or(0.0)
    }
}

/// Rows of the prefix table one pass of [`prefix_scan_in_place`] advances
/// together.
const SCAN_BAND: usize = 8;

/// Turns the `(m+1)²` table of covariance cells `C[a][b]` (row 0 and column
/// 0 zero) into its weighted 2-D prefix sums in place:
/// `P[a][b] = ((P[a−1][b] + P[a][b−1]) − P[a−1][b−1]) + wₐ w_b C[a][b]`.
///
/// Each cell keeps exactly that order of operations. The scan walks bands of
/// [`SCAN_BAND`] rows along a skewed wavefront — row `a + 1` trails row `a`
/// by one column — so the band's rows are independent dependency chains that
/// overlap, instead of one chain of three dependent additions per cell.
fn prefix_scan_in_place(table: &mut [f64], weights: &[f64]) {
    let m = weights.len();
    for top in (1..=m).step_by(SCAN_BAND) {
        let rows = SCAN_BAND.min(m + 1 - top);
        // P[a][b−1] of each row in the band, carried in registers.
        let mut left = [0.0f64; SCAN_BAND];
        for front in 1..m + rows {
            if rows == SCAN_BAND && (SCAN_BAND..=m).contains(&front) {
                // Steady state: every row of the band has a cell on this front.
                for (r, left) in left.iter_mut().enumerate() {
                    *left = scan_cell(table, weights, top + r, front - r, *left);
                }
            } else {
                for (r, left) in left.iter_mut().enumerate().take(rows) {
                    if let Some(b) = front.checked_sub(r).filter(|b| (1..=m).contains(b)) {
                        *left = scan_cell(table, weights, top + r, b, *left);
                    }
                }
            }
        }
    }
}

/// Computes and stores `P[a][b]` of [`prefix_scan_in_place`] from the cell
/// `C[a][b]` it replaces and `left = P[a][b−1]`, and returns it.
#[inline(always)]
fn scan_cell(table: &mut [f64], weights: &[f64], a: usize, b: usize, left: f64) -> f64 {
    let stride = weights.len() + 1;
    let here = a * stride + b;
    let up = here - stride;
    let weighted = weights[a - 1] * weights[b - 1] * table[here];
    let value = table[up] + left - table[up - 1] + weighted;
    table[here] = value;
    value
}

impl MatchCountEstimator for GpCountEstimator {
    fn pair_count(&self, range: std::ops::Range<usize>) -> usize {
        let (lo, hi) = (range.start.min(self.m), range.end.min(self.m));
        if lo >= hi {
            0
        } else {
            self.size_prefix[hi] - self.size_prefix[lo]
        }
    }

    fn estimate(&self, range: std::ops::Range<usize>) -> f64 {
        let (lo, hi) = (range.start.min(self.m), range.end.min(self.m));
        if lo >= hi {
            0.0
        } else {
            self.mean_prefix[hi] - self.mean_prefix[lo]
        }
    }

    fn lower_bound(&self, range: std::ops::Range<usize>) -> f64 {
        (self.estimate(range.clone()) - self.z * self.std_dev(range)).max(0.0)
    }

    fn upper_bound(&self, range: std::ops::Range<usize>) -> f64 {
        let count = self.pair_count(range.clone()) as f64;
        (self.estimate(range.clone()) + self.z * self.std_dev(range)).min(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::workload::Workload;
    use er_stats::{GpConfig, SampleSummary};
    use std::collections::BTreeMap;

    /// Workload whose match proportion rises linearly with similarity.
    fn linear_workload(n: usize) -> Workload {
        Workload::from_scores((0..n).map(|i| {
            let sim = i as f64 / n as f64;
            // Deterministic "pseudo random" labelling with proportion ≈ sim.
            let is_match = (i * 7919 % 1000) as f64 / 1000.0 < sim;
            (sim, is_match)
        }))
        .unwrap()
    }

    fn sample_exact(
        w: &Workload,
        partition: &SubsetPartition,
        every: usize,
    ) -> BTreeMap<usize, SampleSummary> {
        let mut samples = BTreeMap::new();
        for (i, s) in partition.subsets().iter().enumerate() {
            if i % every == 0 || i + 1 == partition.len() {
                let positives = w.matches_in_range(s.range());
                samples.insert(i, SampleSummary::new(s.len(), positives).unwrap());
            }
        }
        samples
    }

    /// Fits a GP to the sampled subsets' proportions and builds the estimator
    /// with the GP's average noise on every subset. The length scale is
    /// pinned at twice the quarter-range heuristic: the grid scale with the
    /// highest log marginal likelihood on every data set below.
    fn fit(
        partition: &SubsetPartition,
        samples: &BTreeMap<usize, SampleSummary>,
        confidence: f64,
    ) -> er_stats::Result<GpCountEstimator> {
        let xs: Vec<f64> = samples.keys().map(|&i| partition.subset(i).mean_similarity()).collect();
        let ys: Vec<f64> = samples.values().map(|s| s.proportion()).collect();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let length_scale = ((max - min) / 4.0).max(1e-3) * 2.0;
        let config = GpConfig { length_scale: Some(length_scale), ..GpConfig::default() };
        let gp = GaussianProcess::fit(&xs, &ys, config)?;
        let noise = gp.noise_variance().max(0.0);
        let query: Vec<f64> = partition.subsets().iter().map(|s| s.mean_similarity()).collect();
        Ok(GpCountEstimator::with_noise_model(partition, &gp, &query, confidence, |_, _, _| noise))
    }

    #[test]
    fn estimates_track_the_true_match_counts() {
        let w = linear_workload(10_000);
        let partition = w.partition(200).unwrap();
        let samples = sample_exact(&w, &partition, 5);
        let est = fit(&partition, &samples, 0.9).unwrap();
        let m = partition.len();
        let truth = w.total_matches() as f64;
        let predicted = est.estimate(0..m);
        assert!(
            (predicted - truth).abs() / truth < 0.1,
            "GP estimate {predicted} too far from truth {truth}"
        );
        // Bounds bracket the estimate and respect physical limits.
        assert!(est.lower_bound(0..m) <= predicted);
        assert!(est.upper_bound(0..m) >= predicted);
        assert!(est.lower_bound(0..m) >= 0.0);
        assert!(est.upper_bound(0..m) <= w.len() as f64);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // degenerate ranges are part of the contract
    fn range_queries_are_additive_in_the_mean() {
        let w = linear_workload(6_000);
        let partition = w.partition(200).unwrap();
        let samples = sample_exact(&w, &partition, 4);
        let est = fit(&partition, &samples, 0.9).unwrap();
        let m = partition.len();
        let whole = est.estimate(0..m);
        let split = est.estimate(0..m / 2) + est.estimate(m / 2..m);
        assert!((whole - split).abs() < 1e-6);
        assert_eq!(est.pair_count(0..m), 6_000);
        assert_eq!(est.pair_count(3..3), 0);
        assert_eq!(est.estimate(5..2), 0.0);
    }

    #[test]
    fn wider_confidence_gives_wider_bounds() {
        let w = linear_workload(6_000);
        let partition = w.partition(200).unwrap();
        let samples = sample_exact(&w, &partition, 6);
        let width = |confidence: f64| {
            let est = fit(&partition, &samples, confidence).unwrap();
            let m = partition.len();
            est.upper_bound(0..m) - est.lower_bound(0..m)
        };
        let (narrow, wide) = (width(0.6), width(0.99));
        assert!(wide >= narrow);
    }

    #[test]
    fn zero_confidence_collapses_to_the_point_estimate() {
        let w = linear_workload(4_000);
        let partition = w.partition(200).unwrap();
        let samples = sample_exact(&w, &partition, 4);
        let est = fit(&partition, &samples, 0.0).unwrap();
        let m = partition.len();
        assert!((est.lower_bound(0..m) - est.estimate(0..m)).abs() < 1e-9);
        assert!((est.upper_bound(0..m) - est.estimate(0..m)).abs() < 1e-9);
    }

    #[test]
    fn needs_at_least_two_sampled_subsets() {
        let w = linear_workload(2_000);
        let partition = w.partition(200).unwrap();
        let mut samples = BTreeMap::new();
        samples.insert(0usize, SampleSummary::new(10, 1).unwrap());
        assert!(fit(&partition, &samples, 0.9).is_err());
    }

    /// The estimator as built before the one-buffer prefix table: a dense
    /// `predict_joint` posterior, then the row-major prefix loop over it.
    /// Kept as the reference the in-place scan must match bit for bit.
    fn with_noise_model_reference(
        partition: &SubsetPartition,
        gp: &GaussianProcess,
        query_inputs: &[f64],
        confidence: f64,
        noise_for: impl Fn(usize, f64, f64) -> f64,
    ) -> GpCountEstimator {
        let m = partition.len();
        let posterior = gp.predict_joint(query_inputs);
        let sizes: Vec<usize> = partition.subsets().iter().map(|s| s.len()).collect();

        let mut size_prefix = vec![0usize; m + 1];
        let mut mean_prefix = vec![0.0f64; m + 1];
        for i in 0..m {
            size_prefix[i + 1] = size_prefix[i] + sizes[i];
            let clamped_mean = posterior.mean[i].clamp(0.0, 1.0);
            mean_prefix[i + 1] = mean_prefix[i] + sizes[i] as f64 * clamped_mean;
        }

        let stride = m + 1;
        let mut cov_prefix = vec![0.0f64; stride * stride];
        for a in 1..=m {
            let wa = sizes[a - 1] as f64;
            for b in 1..=m {
                let wb = sizes[b - 1] as f64;
                let mut cell = posterior.covariance[(a - 1, b - 1)];
                if a == b {
                    let variance = cell.max(0.0);
                    cell +=
                        noise_for(a - 1, posterior.mean[a - 1].clamp(0.0, 1.0), variance).max(0.0);
                }
                let weighted = wa * wb * cell;
                cov_prefix[a * stride + b] = cov_prefix[(a - 1) * stride + b]
                    + cov_prefix[a * stride + (b - 1)]
                    - cov_prefix[(a - 1) * stride + (b - 1)]
                    + weighted;
            }
        }
        GpCountEstimator { size_prefix, mean_prefix, cov_prefix, m, z: critical_value(confidence) }
    }

    proptest::proptest! {
        // A case costs O(m²·n) twice in an unoptimized test build; 16 cases
        // keep the property at a few seconds.
        #![proptest_config(proptest::ProptestConfig {
            cases: 16,
            ..proptest::ProptestConfig::default()
        })]

        /// The one-buffer estimator is bit-identical to the reference: every
        /// prefix-table cell, and estimate, std_dev and both bounds of random
        /// ranges. Subsets have uneven sizes; GP inputs are unsorted with
        /// duplicates; kernels are random and the fit heteroscedastic.
        #[test]
        fn with_noise_model_is_bit_identical_to_the_reference(
            n in 2usize..65,
            m in 1usize..901,
            seed in 0u64..1_000_000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let unit = rng.gen_range(1usize..4);
            let pairs = m * unit + rng.gen_range(0..unit);
            let w = Workload::from_scores(
                (0..pairs).map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0..3) == 0)),
            )
            .unwrap();
            let partition = w.partition(unit).unwrap();
            proptest::prop_assert_eq!(partition.len(), m);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let ys: Vec<f64> = xs.iter().map(|x| x * x + rng.gen_range(-0.1..0.1)).collect();
            let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.02)).collect();
            let config = GpConfig {
                signal_variance: rng.gen_range(0.01..2.0),
                length_scale: Some(rng.gen_range(0.02..1.0)),
                ..GpConfig::default()
            };
            let Ok(gp) = GaussianProcess::fit_with_noise(&xs, &ys, &noise, config) else {
                proptest::prop_assume!(false);
                unreachable!()
            };
            // Repeat an earlier point with probability 0, 1/4, 1/2 or 3/4.
            let repeats = rng.gen_range(0..4);
            let mut query: Vec<f64> = Vec::with_capacity(m);
            for _ in 0..m {
                let x = match rng.gen_range(0..8) {
                    r if r < 2 * repeats && !query.is_empty() => query[rng.gen_range(0..query.len())],
                    7 => xs[rng.gen_range(0..n)],
                    _ => rng.gen_range(-0.2..1.2),
                };
                query.push(x);
            }
            let scale = rng.gen_range(0.0..0.5);
            let noise_for = |i: usize, p: f64, var: f64| {
                scale * p * (1.0 - p) + (i % 5) as f64 * 1e-3 + 0.3 * var - 1e-3
            };

            let theta = rng.gen_range(0.0..0.999);
            let fast = GpCountEstimator::with_noise_model(&partition, &gp, &query, theta, noise_for);
            let reference = with_noise_model_reference(&partition, &gp, &query, theta, noise_for);
            proptest::prop_assert_eq!(&fast.size_prefix, &reference.size_prefix);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            proptest::prop_assert!(bits(&fast.mean_prefix) == bits(&reference.mean_prefix));
            proptest::prop_assert!(bits(&fast.cov_prefix) == bits(&reference.cov_prefix));
            for _ in 0..64 {
                let (a, b) = (rng.gen_range(0..=m + 1), rng.gen_range(0..=m + 1));
                let range = a.min(b)..a.max(b);
                let queries = |e: &GpCountEstimator| {
                    [
                        e.estimate(range.clone()),
                        e.std_dev(range.clone()),
                        e.lower_bound(range.clone()),
                        e.upper_bound(range.clone()),
                    ]
                    .map(f64::to_bits)
                };
                proptest::prop_assert_eq!(queries(&fast), queries(&reference));
            }
        }
    }

    #[test]
    fn std_dev_is_zero_for_empty_ranges_and_nonnegative_otherwise() {
        let w = linear_workload(4_000);
        let partition = w.partition(200).unwrap();
        let samples = sample_exact(&w, &partition, 3);
        let est = fit(&partition, &samples, 0.9).unwrap();
        assert_eq!(est.std_dev(7..7), 0.0);
        for lo in 0..partition.len() {
            assert!(est.std_dev(lo..partition.len()) >= 0.0);
        }
    }
}
