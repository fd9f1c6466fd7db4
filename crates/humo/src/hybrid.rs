//! The hybrid optimizer — the paper's "HYBR" (Section VII).
//!
//! The baseline bounds (monotonicity) and the sampling bounds (GP posterior) each
//! have regimes where they are the tighter one: BASE wins when the match
//! proportion curve is flat near the boundaries (sampling margins stay wide),
//! SAMP wins when it is steep (the monotonicity bound is far too conservative).
//! HYBR therefore:
//!
//! 1. runs the SAMP estimation phase and takes its solution `S0 = [D_i, D_j]` as a
//!    fallback that is already certified at confidence θ;
//! 2. restarts the human region from the single median subset of `S0` and grows it
//!    outwards like BASE, but at every step certifies precision/recall using the
//!    **better** of the baseline estimate and the GP estimate;
//! 3. never grows beyond `S0`, so the result costs at most as much as SAMP's.

use crate::baseline::{BoundarySearch, Moves};
use crate::requirement::QualityRequirement;
use crate::sampling::{
    censored_proportion_lower, censored_proportion_upper, MatchCountEstimator,
    PartialSamplingConfig, SamplingPlan,
};
use crate::session::{verified_assignment, CoreOutput, Drive, LabelSlate, ReplayCache};
use crate::solution::HumoSolution;
use crate::{HumoError, Result};
use er_core::workload::{SubsetPartition, Workload};

/// Configuration of the HYBR optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Configuration of the embedded SAMP estimation phase.
    pub sampling: PartialSamplingConfig,
    /// Number of consecutive subsets averaged for the baseline-style boundary
    /// estimates (the paper recommends 3–10).
    pub estimation_units: usize,
}

impl HybridConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(requirement: QualityRequirement) -> Self {
        Self { sampling: PartialSamplingConfig::new(requirement), estimation_units: 5 }
    }

    /// Returns a copy with a different seed (used to average over runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sampling.seed = seed;
        self
    }

    /// The quality requirement being enforced.
    pub fn requirement(&self) -> &QualityRequirement {
        &self.sampling.requirement
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.estimation_units == 0 {
            return Err(HumoError::InvalidConfig(
                "estimation window must cover at least one subset".to_string(),
            ));
        }
        self.sampling.validate()
    }
}

/// The HYBR boundary search seen in pairs: its units are the subsets of the
/// SAMP plan's partition, and all pairs of the human region
/// `[lower_subset, upper_subset)` have been labeled.
struct Region<'a> {
    search: &'a BoundarySearch,
    partition: &'a SubsetPartition,
}

impl Region<'_> {
    fn pairs_in(&self, subsets: std::ops::Range<usize>) -> usize {
        if subsets.is_empty() {
            return 0;
        }
        self.partition.range_of(subsets.start, subsets.end - 1).len()
    }

    /// Labeled pair and match counts of the `window` DH subsets adjacent to
    /// `v⁺` — the census HYBR's monotonicity step extrapolates into `D⁺`.
    fn border_counts_upper(&self, window: usize) -> (usize, usize) {
        let range = self.search.border_upper(window);
        (self.pairs_in(range.clone()), self.search.matches(range))
    }

    /// Labeled pair and match counts of the `window` DH subsets adjacent to
    /// `v⁻` — the census HYBR's monotonicity step extrapolates into `D⁻`.
    fn border_counts_lower(&self, window: usize) -> (usize, usize) {
        let range = self.search.border_lower(window);
        (self.pairs_in(range.clone()), self.search.matches(range))
    }
}

impl HybridConfig {
    /// Lower bound on the number of matches in `D⁺`, taking the better (larger) of
    /// the monotonicity-based and GP-based estimates.
    ///
    /// The monotonicity estimate extrapolates the labeled DH border census into
    /// `D⁺`; when the census is *saturated* (all or almost all matches) its
    /// observed proportion cannot distinguish `p = 1` from `p = 1 − 3/k`, so
    /// under `calibrate_lower` it is capped at the census's one-sided
    /// Clopper–Pearson lower limit — the same detection-limit treatment the
    /// [`crate::sampling::CalibratedEstimator`] applies to the GP term.
    fn plus_matches_lower_bound(
        &self,
        state: &Region<'_>,
        estimator: &dyn MatchCountEstimator,
        num_subsets: usize,
        confidence: f64,
    ) -> f64 {
        let d_plus = state.pairs_in(state.search.upper()..num_subsets) as f64;
        if d_plus == 0.0 {
            return 0.0;
        }
        let (pairs, matches) = state.border_counts_upper(self.estimation_units);
        let tail = &self.sampling.tail_calibration;
        let proportion = if tail.enabled && tail.calibrate_lower {
            censored_proportion_lower(pairs, matches, tail.quiet_fraction, confidence)
        } else if pairs == 0 {
            0.0
        } else {
            matches as f64 / pairs as f64
        };
        let base = d_plus * proportion;
        let samp = estimator.lower_bound(state.search.upper()..num_subsets);
        base.max(samp).min(d_plus)
    }

    /// Upper bound on the number of matches in `D⁻`, taking the better (smaller) of
    /// the monotonicity-based and GP-based estimates.
    ///
    /// The recall-side mirror of [`Self::plus_matches_lower_bound`]: a *quiet*
    /// border census (all or almost all non-matches, the common case on flat
    /// curves) cannot certify `p = 0`, so its proportion is floored at the
    /// census's one-sided Clopper–Pearson upper limit before extrapolation —
    /// otherwise `base = 0` would `min()` away the calibrated estimator's
    /// quiet-run detection-limit floor and re-expose recall under-coverage
    /// through the monotonicity term.
    fn minus_matches_upper_bound(
        &self,
        state: &Region<'_>,
        estimator: &dyn MatchCountEstimator,
        confidence: f64,
    ) -> f64 {
        let d_minus = state.pairs_in(0..state.search.lower()) as f64;
        if d_minus == 0.0 {
            return 0.0;
        }
        let (pairs, matches) = state.border_counts_lower(self.estimation_units);
        let tail = &self.sampling.tail_calibration;
        let proportion = if tail.enabled {
            censored_proportion_upper(pairs, matches, tail.quiet_fraction, confidence)
        } else if pairs == 0 {
            1.0
        } else {
            matches as f64 / pairs as f64
        };
        let base = d_minus * proportion;
        let samp = estimator.upper_bound(0..state.search.lower());
        base.min(samp).max(0.0)
    }

    fn precision_satisfied(
        &self,
        state: &Region<'_>,
        estimator: &dyn MatchCountEstimator,
        num_subsets: usize,
        confidence: f64,
    ) -> bool {
        let alpha = self.requirement().precision();
        let d_plus = state.pairs_in(state.search.upper()..num_subsets) as f64;
        if d_plus == 0.0 {
            return true;
        }
        if state.search.dh_units() == 0 {
            return false;
        }
        let m_h = state.search.matches_in_dh() as f64;
        let lb_plus = self.plus_matches_lower_bound(state, estimator, num_subsets, confidence);
        (m_h + lb_plus) / (m_h + d_plus) >= alpha
    }

    fn recall_satisfied(
        &self,
        state: &Region<'_>,
        estimator: &dyn MatchCountEstimator,
        num_subsets: usize,
        confidence: f64,
    ) -> bool {
        let beta = self.requirement().recall();
        let d_minus = state.pairs_in(0..state.search.lower()) as f64;
        if d_minus == 0.0 {
            return true;
        }
        if state.search.dh_units() == 0 {
            return false;
        }
        let m_h = state.search.matches_in_dh() as f64;
        let lb_plus = self.plus_matches_lower_bound(state, estimator, num_subsets, confidence);
        let ub_minus = self.minus_matches_upper_bound(state, estimator, confidence);
        let found = m_h + lb_plus;
        if found + ub_minus == 0.0 {
            return true;
        }
        found / (found + ub_minus) >= beta
    }

    /// The suspendable HYBR run. Each refinement iteration joins its (up to
    /// two) subset extensions into a single label batch, so the number of
    /// label round-trips scales with the number of subsets the search visits —
    /// never with the raw pair count.
    pub(crate) fn session_core(
        &self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        cache: &mut ReplayCache,
    ) -> Drive<CoreOutput> {
        // Phase 1: SAMP estimation gives the certified fallback solution S0.
        let plan = self.sampling.plan_core(workload, slate, None, cache)?;
        let result = self.refine(&plan, workload, slate, cache);
        // Put the plan back however the refinement ended: the next replay
        // takes it out again, together with the boundary search built on it.
        cache.store_plan(plan);
        result
    }

    /// Phase 2: restart from the median subset of S0 and grow outwards using
    /// the better of both estimates, never exceeding S0. The search's
    /// progress lives in the [`ReplayCache`] beside the plan, so a replay
    /// resumes at the batch it suspended on.
    fn refine(
        &self,
        plan: &SamplingPlan,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        cache: &mut ReplayCache,
    ) -> Drive<CoreOutput> {
        let (s0_lo, s0_hi) = plan.subset_bounds;
        if s0_hi <= s0_lo {
            // SAMP already proved that no human region is needed.
            let solution = plan.solution(workload);
            let assignment = verified_assignment(&solution, workload, slate)?;
            return Ok(CoreOutput { solution, assignment, warm_out: None });
        }
        let partition = &plan.partition;
        let num_subsets = partition.len();
        let confidence = self.requirement().split_confidence();
        let start = s0_lo + (s0_hi - s0_lo) / 2;
        let first = Moves { upper: Some(start..start + 1), lower: None };
        let mut search = cache.take_search(workload, || BoundarySearch::new(start, Some(first)));
        let result = search
            .advance(
                workload,
                slate,
                |subsets| partition.range_of(subsets.start, subsets.end - 1),
                |search| {
                    let state = Region { search, partition };
                    let estimator = &plan.estimator;
                    let precision_ok =
                        self.precision_satisfied(&state, estimator, num_subsets, confidence);
                    let recall_ok =
                        self.recall_satisfied(&state, estimator, num_subsets, confidence);
                    // When both boundaries have hit S0's edges the search
                    // stops at S0, which the sampling phase already certified.
                    let (lower, upper) = (search.lower(), search.upper());
                    Moves {
                        upper: (!precision_ok && upper < s0_hi).then(|| upper..upper + 1),
                        lower: (!recall_ok && lower > s0_lo).then(|| lower - 1..lower),
                    }
                },
            )
            .and_then(|()| {
                let lower_index = partition.subset(search.lower()).range().start;
                let upper_index = if search.upper() == 0 {
                    lower_index
                } else {
                    partition.subset(search.upper() - 1).range().end
                };
                let solution = HumoSolution::new(lower_index, upper_index, workload.len());
                let assignment = verified_assignment(&solution, workload, slate)?;
                Ok(CoreOutput { solution, assignment, warm_out: None })
            });
        cache.store_search(search);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::session::{LabelingSession, SessionConfig};
    use crate::solution::OptimizationOutcome;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};

    fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau,
            sigma,
            subset_size: 200,
            seed,
        })
        .generate()
    }

    fn run_hybrid(w: &Workload, level: f64, seed: u64) -> OptimizationOutcome {
        let requirement = QualityRequirement::symmetric(level).unwrap();
        let config = SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(seed));
        let mut oracle = GroundTruthOracle::new();
        LabelingSession::new(config, w).unwrap().drive(&mut oracle).unwrap()
    }

    fn run_samp(w: &Workload, level: f64, seed: u64) -> OptimizationOutcome {
        let requirement = QualityRequirement::symmetric(level).unwrap();
        let config =
            SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(seed));
        let mut oracle = GroundTruthOracle::new();
        LabelingSession::new(config, w).unwrap().drive(&mut oracle).unwrap()
    }

    #[test]
    fn meets_the_requirement_with_high_success_rate() {
        let w = workload(40_000, 14.0, 0.1, 29);
        let runs = 10;
        let mut successes = 0;
        for seed in 0..runs {
            let outcome = run_hybrid(&w, 0.9, seed);
            if outcome.metrics.precision() >= 0.9 && outcome.metrics.recall() >= 0.9 {
                successes += 1;
            }
        }
        assert!(successes >= runs - 1, "HYBR met the requirement only {successes}/{runs} times");
    }

    #[test]
    fn never_costs_more_than_samp_with_the_same_seed() {
        let w = workload(40_000, 14.0, 0.1, 31);
        for seed in 0..5 {
            let hybr = run_hybrid(&w, 0.9, seed);
            let samp = run_samp(&w, 0.9, seed);
            assert!(
                hybr.total_human_cost <= samp.total_human_cost,
                "seed {seed}: HYBR cost {} exceeds SAMP cost {}",
                hybr.total_human_cost,
                samp.total_human_cost
            );
        }
    }

    #[test]
    fn handles_flat_and_steep_curves() {
        // Flat curve (τ = 8, harder) and steep curve (τ = 18, easier). Like the
        // other quality checks, this is asserted over several seeds because the
        // guarantee is probabilistic (confidence θ = 0.9): the nominal failure
        // rate is 1 − θ = 10%, so over 10 runs at most 3 *recall* failures are
        // tolerated (the one-sided 95% binomial acceptance band around a 10%
        // rate). Before the tail-calibrated estimator the flat curve failed
        // recall in roughly half the runs, and before the pooled lower-bound
        // calibration the precision side missed in 20–45% of mid-steep runs;
        // with both sides calibrated the *total* failure rate is nominal too,
        // so it gets the same 10% band with one extra failure of slack for the
        // two-sided conjunction.
        let flat = workload(30_000, 8.0, 0.1, 37);
        let steep = workload(30_000, 18.0, 0.1, 37);
        let runs = 10u64;
        let max_recall_failures = 3usize; // P(X >= 4 | n = 10, p = 0.1) ≈ 1.3%
        let max_total_failures = 4usize; // P(X >= 5 | n = 10, p = 0.1) ≈ 0.15%
        let mut flat_recall_failures = 0usize;
        let mut steep_recall_failures = 0usize;
        let mut flat_failures = 0usize;
        let mut steep_failures = 0usize;
        let mut flat_cost = 0usize;
        let mut steep_cost = 0usize;
        for seed in 0..runs {
            let flat_outcome = run_hybrid(&flat, 0.9, seed);
            let steep_outcome = run_hybrid(&steep, 0.9, seed);
            if flat_outcome.metrics.recall() < 0.9 {
                flat_recall_failures += 1;
            }
            if steep_outcome.metrics.recall() < 0.9 {
                steep_recall_failures += 1;
            }
            if flat_outcome.metrics.precision() < 0.9 || flat_outcome.metrics.recall() < 0.9 {
                flat_failures += 1;
            }
            if steep_outcome.metrics.precision() < 0.9 || steep_outcome.metrics.recall() < 0.9 {
                steep_failures += 1;
            }
            flat_cost += flat_outcome.total_human_cost;
            steep_cost += steep_outcome.total_human_cost;
        }
        assert!(
            flat_recall_failures <= max_recall_failures,
            "flat curve missed recall {flat_recall_failures}/{runs} times \
             (nominal rate 10% + binomial slack allows {max_recall_failures})"
        );
        assert!(
            steep_recall_failures <= max_recall_failures,
            "steep curve missed recall {steep_recall_failures}/{runs} times \
             (nominal rate 10% + binomial slack allows {max_recall_failures})"
        );
        assert!(
            flat_failures <= max_total_failures,
            "flat curve missed the full requirement {flat_failures}/{runs} times \
             (nominal 10% + binomial band allows {max_total_failures})"
        );
        assert!(
            steep_failures <= max_total_failures,
            "steep curve missed the full requirement {steep_failures}/{runs} times \
             (nominal 10% + binomial band allows {max_total_failures})"
        );
        assert!(
            steep_cost < flat_cost,
            "steep workload should need less human work ({steep_cost} vs {flat_cost} total)"
        );
    }

    #[test]
    fn rejects_invalid_configuration() {
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let mut config = HybridConfig::new(requirement);
        config.estimation_units = 0;
        assert!(SessionConfig::Hybrid(config).validate().is_err());
        let mut config = HybridConfig::new(requirement);
        config.sampling.unit_size = 0;
        assert!(SessionConfig::Hybrid(config).validate().is_err());
    }

    #[test]
    fn empty_workload_is_rejected() {
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let config = SessionConfig::Hybrid(HybridConfig::new(requirement));
        let empty = Workload::from_pairs(vec![]).unwrap();
        let mut oracle = GroundTruthOracle::new();
        assert!(LabelingSession::new(config, &empty).unwrap().drive(&mut oracle).is_err());
    }
}
