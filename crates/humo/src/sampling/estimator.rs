//! Match-count estimators over subset unions, and the shared bound search.
//!
//! Each estimator takes its per-bound confidence when it is built, so the
//! search and HYBR's refinement ask for bounds by subset range only.

use crate::requirement::QualityRequirement;
use crate::solution::HumoSolution;
use er_core::workload::SubsetPartition;
use er_stats::{StratifiedEstimate, Stratum};

/// Estimates confidence bounds on the number of matching pairs inside a
/// contiguous union of workload subsets.
///
/// Subset indices refer to positions in the similarity-ordered
/// [`SubsetPartition`]; ranges are half-open. Every estimator is built at one
/// per-bound confidence (`√θ` for a requirement at confidence `θ`, see
/// [`QualityRequirement::split_confidence`]), and both bounds hold at it.
pub trait MatchCountEstimator {
    /// Total number of pairs in the subset range.
    fn pair_count(&self, range: std::ops::Range<usize>) -> usize;

    /// Point estimate of the number of matching pairs in the range.
    fn estimate(&self, range: std::ops::Range<usize>) -> f64;

    /// Lower confidence bound on the number of matching pairs in the range.
    fn lower_bound(&self, range: std::ops::Range<usize>) -> f64;

    /// Upper confidence bound on the number of matching pairs in the range.
    fn upper_bound(&self, range: std::ops::Range<usize>) -> f64;
}

/// Stratified-sampling estimator: every subset carries its own sample
/// (Section VI-A). Bounds come from Student-t intervals on the stratified
/// aggregate (Eq. 12) at the confidence given at construction.
#[derive(Debug, Clone)]
pub struct StratifiedCountEstimator {
    strata: Vec<Stratum>,
    confidence: f64,
}

impl StratifiedCountEstimator {
    /// Builds the estimator from the partition, one sample summary per subset
    /// and the per-bound confidence of its intervals.
    ///
    /// # Panics
    /// Panics if the number of summaries differs from the number of subsets.
    pub fn new(
        partition: &SubsetPartition,
        samples: &[er_stats::SampleSummary],
        confidence: f64,
    ) -> Self {
        assert_eq!(partition.len(), samples.len(), "one sample summary per subset is required");
        let strata = partition
            .subsets()
            .iter()
            .zip(samples)
            .map(|(subset, sample)| {
                Stratum::new(subset.len(), *sample)
                    .expect("sample size never exceeds the subset size")
            })
            .collect();
        Self { strata, confidence }
    }

    fn aggregate(&self, range: std::ops::Range<usize>) -> StratifiedEstimate {
        StratifiedEstimate::from_strata(self.strata[range].iter())
    }
}

impl MatchCountEstimator for StratifiedCountEstimator {
    fn pair_count(&self, range: std::ops::Range<usize>) -> usize {
        self.strata[range].iter().map(|s| s.population_size).sum()
    }

    fn estimate(&self, range: std::ops::Range<usize>) -> f64 {
        self.aggregate(range).estimated_positives
    }

    fn lower_bound(&self, range: std::ops::Range<usize>) -> f64 {
        self.aggregate(range).lower_bound(self.confidence).unwrap_or(0.0)
    }

    fn upper_bound(&self, range: std::ops::Range<usize>) -> f64 {
        let population: usize = self.pair_count(range.clone());
        self.aggregate(range).upper_bound(self.confidence).unwrap_or(population as f64)
    }
}

/// The shared bound search of Sections VI-A/VI-B.
///
/// Returns the subset-index range `(lo, hi)` of the human region `DH`
/// (half-open): the search first pushes the lower bound `lo` as far right as the
/// recall requirement allows (Eq. 13), then pulls the upper bound `hi` as far
/// left as the precision requirement allows (Eq. 14). The estimator must be
/// built at the per-bound confidence `√θ`
/// ([`QualityRequirement::split_confidence`]) so the conjunction of the two
/// bound estimates holds with confidence `θ`; the search reads only the
/// requirement's precision and recall.
///
/// Both sweeps lean on whatever calibration the estimator carries: with the
/// default [`super::CalibratedEstimator`] the `lo` sweep's upper bounds are
/// floored at the quiet-run detection limits (the recall fix) and the `hi`
/// sweep's lower bounds are capped at the saturated-run pooled lower limits —
/// without the cap, near-pure samples make `lower_bound(hi..m)` collapse onto
/// "every pair matches" and precision is certified a hair too early on
/// mid-steep curves.
pub fn search_subset_bounds(
    estimator: &dyn MatchCountEstimator,
    num_subsets: usize,
    requirement: &QualityRequirement,
) -> (usize, usize) {
    let beta = requirement.recall();
    let alpha = requirement.precision();

    // Recall: maximal lo such that the pairs at or above subset lo retain enough
    // matches. lo = 0 is trivially feasible (nothing is discarded).
    let recall_feasible = |lo: usize| -> bool {
        if lo == 0 {
            return true;
        }
        let missed_ub = estimator.upper_bound(0..lo);
        let kept_lb = estimator.lower_bound(lo..num_subsets);
        let denom = missed_ub + kept_lb;
        if denom <= 0.0 {
            return true;
        }
        kept_lb / denom >= beta
    };
    let mut lo = 0usize;
    while lo < num_subsets && recall_feasible(lo + 1) {
        lo += 1;
    }

    // Precision: minimal hi (>= lo) such that auto-labelling subsets [hi, m) as
    // match keeps precision above alpha. hi = m is trivially feasible (no pair is
    // auto-labelled match).
    let precision_feasible = |hi: usize| -> bool {
        let dh_lb = estimator.lower_bound(lo..hi);
        let plus_lb = estimator.lower_bound(hi..num_subsets);
        let plus_count = estimator.pair_count(hi..num_subsets) as f64;
        let denom = dh_lb + plus_count;
        if denom <= 0.0 {
            return true;
        }
        (dh_lb + plus_lb) / denom >= alpha
    };
    let mut hi = num_subsets;
    while hi > lo && precision_feasible(hi - 1) {
        hi -= 1;
    }

    (lo, hi)
}

/// Translates subset-index bounds `(lo, hi)` of the human region into a
/// workload-index [`HumoSolution`], clamping an empty or inverted region to
/// zero width at the lower boundary.
pub(crate) fn subset_solution(
    partition: &SubsetPartition,
    (lo, hi): (usize, usize),
    workload_len: usize,
) -> HumoSolution {
    let lower_index =
        if lo >= partition.len() { workload_len } else { partition.subset(lo).range().start };
    let upper_index = if hi == 0 { 0 } else { partition.subset(hi - 1).range().end };
    HumoSolution::new(lower_index, upper_index.max(lower_index), workload_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::workload::Workload;
    use er_stats::SampleSummary;

    /// A workload of `n` pairs where the top `match_fraction` of the similarity
    /// range is all matches and the rest all non-matches, fully sampled.
    fn fully_sampled(
        n: usize,
        unit: usize,
        match_fraction: f64,
    ) -> (SubsetPartition, Vec<SampleSummary>, Workload) {
        let cut = ((1.0 - match_fraction) * n as f64) as usize;
        let w = Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, i >= cut))).unwrap();
        let partition = w.partition(unit).unwrap();
        let samples: Vec<SampleSummary> = partition
            .subsets()
            .iter()
            .map(|s| {
                let positives = w.matches_in_range(s.range());
                SampleSummary::new(s.len(), positives).unwrap()
            })
            .collect();
        (partition, samples, w)
    }

    #[test]
    fn stratified_estimator_point_estimates_are_exact_when_fully_sampled() {
        let (partition, samples, w) = fully_sampled(2_000, 100, 0.3);
        let est = StratifiedCountEstimator::new(&partition, &samples, 0.95);
        let m = partition.len();
        assert_eq!(est.pair_count(0..m), 2_000);
        assert!((est.estimate(0..m) - w.total_matches() as f64).abs() < 1e-9);
        // Fully-sampled strata have zero variance, so the bounds collapse.
        assert!((est.lower_bound(0..m) - est.estimate(0..m)).abs() < 1e-9);
        assert!((est.upper_bound(0..m) - est.estimate(0..m)).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_estimates_for_partial_samples() {
        let (partition, _, w) = fully_sampled(2_000, 100, 0.3);
        // Only 10 of every 100 pairs sampled per subset, proportions preserved.
        let samples: Vec<SampleSummary> = partition
            .subsets()
            .iter()
            .map(|s| {
                let p = w.match_proportion(s.range());
                SampleSummary::new(10, (p * 10.0).round() as usize).unwrap()
            })
            .collect();
        let est = StratifiedCountEstimator::new(&partition, &samples, 0.9);
        let m = partition.len();
        let mid = est.estimate(0..m);
        assert!(est.lower_bound(0..m) <= mid);
        assert!(est.upper_bound(0..m) >= mid);
        // Mixed subsets exist only at the boundary; overall uncertainty is small but nonzero.
        assert!(est.upper_bound(0..m) - est.lower_bound(0..m) >= 0.0);
    }

    #[test]
    fn search_finds_a_narrow_dh_on_a_cleanly_separated_workload() {
        // 30% of pairs are matches and they are exactly the top of the range. With
        // exact per-subset counts the search should keep DH very small.
        let (partition, samples, _) = fully_sampled(4_000, 100, 0.3);
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let est =
            StratifiedCountEstimator::new(&partition, &samples, requirement.split_confidence());
        let (lo, hi) = search_subset_bounds(&est, partition.len(), &requirement);
        assert!(lo <= hi);
        // The boundary between non-matches and matches sits at subset 28 of 40.
        let dh_subsets = hi - lo;
        assert!(dh_subsets <= 4, "expected a narrow DH, got {dh_subsets} subsets");
        // Both bounds must land near the class boundary (subset 28); with exact
        // counts the human region may even collapse to nothing.
        assert!((27..=31).contains(&lo), "lower bound {lo} far from the class boundary");
        assert!((27..=31).contains(&hi), "upper bound {hi} far from the class boundary");
    }

    #[test]
    fn stricter_requirements_never_shrink_dh() {
        let (partition, _, w) = fully_sampled(4_000, 100, 0.3);
        // Noisy partial samples to make the bounds matter.
        let samples: Vec<SampleSummary> = partition
            .subsets()
            .iter()
            .map(|s| {
                let p = w.match_proportion(s.range());
                SampleSummary::new(20, (p * 20.0).round() as usize).unwrap()
            })
            .collect();
        let search = |requirement: QualityRequirement| {
            let confidence = requirement.split_confidence();
            let est = StratifiedCountEstimator::new(&partition, &samples, confidence);
            search_subset_bounds(&est, partition.len(), &requirement)
        };
        let (lo_loose, hi_loose) = search(QualityRequirement::symmetric(0.7).unwrap());
        let (lo_strict, hi_strict) = search(QualityRequirement::symmetric(0.97).unwrap());
        assert!(hi_loose - lo_loose <= hi_strict - lo_strict);
    }

    #[test]
    fn degenerate_requirements() {
        let (partition, samples, _) = fully_sampled(1_000, 100, 0.5);
        // Requiring nothing keeps DH empty.
        let trivial = QualityRequirement::new(0.0, 0.0, 0.9).unwrap();
        let est = StratifiedCountEstimator::new(&partition, &samples, trivial.split_confidence());
        let (lo, hi) = search_subset_bounds(&est, partition.len(), &trivial);
        assert_eq!(lo, hi);
    }
}
