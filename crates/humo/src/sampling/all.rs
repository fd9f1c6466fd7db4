//! The all-sampling optimizer (Section VI-A).
//!
//! Samples a fixed number of pairs from *every* subset, aggregates the per-subset
//! estimates with stratified-sampling theory, and searches for the smallest human
//! region whose recall (Eq. 13) and precision (Eq. 14) bounds clear the
//! requirement at confidence `θ` (using `√θ` per bound). Sampling every subset is
//! what makes the approach expensive: the paper proposes the partial-sampling
//! variant (`SAMP`) to cut that cost, and keeps this one as an internal baseline.

use super::calibrated::{CalibratedEstimator, ShortfallBaseline, TailCalibration};
use super::estimator::{search_subset_bounds, subset_solution, StratifiedCountEstimator};
use super::sampler::SubsetSampler;
use crate::requirement::QualityRequirement;
use crate::session::{verified_assignment, CoreOutput, Drive, LabelSlate};
use crate::{HumoError, Result};
use er_core::workload::Workload;

/// Configuration of the all-sampling optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllSamplingConfig {
    /// The quality requirement to enforce.
    pub requirement: QualityRequirement,
    /// Number of pairs per similarity-ordered subset (the paper uses 200).
    pub unit_size: usize,
    /// Number of pairs sampled (and manually labeled) from each subset.
    pub samples_per_subset: usize,
    /// Tail calibration of the count bounds: pure `0/k` (or `k/k`) strata carry
    /// zero naive variance, so the Student-t bounds are overconfident exactly
    /// where the Clopper–Pearson detection limit still allows matches.
    pub tail_calibration: TailCalibration,
    /// RNG seed for within-subset sampling.
    pub seed: u64,
}

impl AllSamplingConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(requirement: QualityRequirement) -> Self {
        Self {
            requirement,
            unit_size: 200,
            samples_per_subset: 20,
            // Every stratum carries its own sample, so the Student-t slack and
            // the pooled detection limit describe the same draws: top up only
            // what the base bound does not already grant. The looser quiet
            // threshold keeps the small per-stratum samples (20 draws) from
            // fragmenting quiet runs on single lucky positives. The lower-side
            // saturation cap stays off here (unlike the SAMP/HYBR default):
            // the mid-steep precision gap it closes is a GP *extrapolation*
            // artifact, and ALL never extrapolates — every kept subset is
            // informed by its own draws, and the `calibration_coverage`
            // harness measures ≤ 1/20 precision failures per cell across the
            // full τ grid without the cap, while enabling it costs +11–14%
            // extra human labeling on steep curves for no coverage gain.
            tail_calibration: TailCalibration {
                shortfall_baseline: ShortfallBaseline::UpperBound,
                quiet_fraction: 0.1,
                calibrate_lower: false,
                ..TailCalibration::default()
            },
            seed: 1,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.unit_size == 0 {
            return Err(HumoError::InvalidConfig("unit size must be positive".to_string()));
        }
        if self.samples_per_subset == 0 {
            return Err(HumoError::InvalidConfig(
                "samples per subset must be positive".to_string(),
            ));
        }
        self.tail_calibration.validate()
    }

    /// The suspendable all-sampling run. Every subset's sample membership is
    /// label-independent, so the entire sampling phase is emitted as **one**
    /// label batch: an all-sampling session costs at most two round-trips
    /// (sample everything, then verify whatever of `DH` the samples did not
    /// already cover — possibly nothing).
    pub(crate) fn session_core(
        &self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
    ) -> Drive<CoreOutput> {
        if workload.is_empty() {
            return Err(HumoError::InvalidWorkload(
                "cannot optimize an empty workload".to_string(),
            )
            .into());
        }
        let partition = workload.partition(self.unit_size)?;
        let mut sampler = SubsetSampler::new(&partition, self.samples_per_subset, self.seed);
        let all: Vec<usize> = (0..partition.len()).collect();
        let samples = sampler.sample_many_core(&all, slate)?;
        let confidence = self.requirement.split_confidence();
        let base = StratifiedCountEstimator::new(&partition, &samples, confidence);
        // Every subset carries its own sample (distance zero), so the tail
        // bound reduces to each stratum's own Clopper–Pearson limits; the
        // length scale only matters for unsampled subsets and is arbitrary here.
        let sizes: Vec<usize> = partition.subsets().iter().map(|s| s.len()).collect();
        let inputs: Vec<f64> = partition.subsets().iter().map(|s| s.mean_similarity()).collect();
        let estimator = CalibratedEstimator::new(
            base,
            &sizes,
            &inputs,
            sampler.samples(),
            1.0,
            self.tail_calibration,
            confidence,
        )?;
        let bounds = search_subset_bounds(&estimator, partition.len(), &self.requirement);
        let solution = subset_solution(&partition, bounds, workload.len());
        let assignment = verified_assignment(&solution, workload, slate)?;
        Ok(CoreOutput { solution, assignment, warm_out: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::session::{LabelingSession, SessionConfig};
    use crate::solution::OptimizationOutcome;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};

    fn workload(n: usize, seed: u64) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau: 14.0,
            sigma: 0.1,
            subset_size: 200,
            seed,
        })
        .generate()
    }

    fn run(workload: &Workload, level: f64, seed: u64) -> OptimizationOutcome {
        let requirement = QualityRequirement::symmetric(level).unwrap();
        let mut config = AllSamplingConfig::new(requirement);
        config.unit_size = 200;
        config.samples_per_subset = 30;
        config.seed = seed;
        let mut oracle = GroundTruthOracle::new();
        LabelingSession::new(SessionConfig::AllSampling(config), workload)
            .unwrap()
            .drive(&mut oracle)
            .unwrap()
    }

    #[test]
    fn usually_meets_the_requirement_on_synthetic_workloads() {
        let w = workload(30_000, 5);
        let mut successes = 0;
        let runs = 10;
        for seed in 0..runs {
            let outcome = run(&w, 0.9, seed);
            if outcome.metrics.precision() >= 0.9 && outcome.metrics.recall() >= 0.9 {
                successes += 1;
            }
        }
        assert!(
            successes >= runs - 2,
            "all-sampling met the requirement only {successes}/{runs} times"
        );
    }

    #[test]
    fn sampling_cost_covers_every_subset() {
        let w = workload(20_000, 7);
        let outcome = run(&w, 0.9, 1);
        let num_subsets = 20_000 / 200;
        // At least one sampled pair per subset must be paid for (those outside DH
        // count as sampling cost; those inside are folded into verification cost).
        assert!(outcome.total_human_cost >= outcome.verification_cost);
        assert!(outcome.sampling_cost > 0);
        assert!(outcome.sampling_cost <= num_subsets * 30);
    }

    #[test]
    fn rejects_invalid_configuration_and_empty_workloads() {
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        assert!(SessionConfig::AllSampling(AllSamplingConfig {
            unit_size: 0,
            ..AllSamplingConfig::new(requirement)
        })
        .validate()
        .is_err());
        assert!(SessionConfig::AllSampling(AllSamplingConfig {
            samples_per_subset: 0,
            ..AllSamplingConfig::new(requirement)
        })
        .validate()
        .is_err());
        let config = SessionConfig::AllSampling(AllSamplingConfig::new(requirement));
        let empty = Workload::from_pairs(vec![]).unwrap();
        let mut oracle = GroundTruthOracle::new();
        assert!(LabelingSession::new(config, &empty).unwrap().drive(&mut oracle).is_err());
    }
}
