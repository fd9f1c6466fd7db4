//! A degenerate crowd is not a different oracle: `Redundancy::Fixed(1)` over
//! zero-noise workers must drive every optimizer to the byte-identical
//! outcome — same boundaries, same label assignment, same cost counters —
//! that [`GroundTruthOracle`] produces, at the same number of labels issued.
//! This pins the crowd layer as a pure generalization: enabling it without
//! redundancy or noise changes nothing.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    symmetric_pool, Aggregation, AllSamplingConfig, BaselineConfig, CrowdOracle, GroundTruthOracle,
    HybridConfig, LabelingSession, OptimizerKind, Oracle, PartialSamplingConfig,
    QualityRequirement, Redundancy, SessionConfig,
};
use proptest::prelude::*;

/// Builds the optimizer for a kind with the harness defaults and a seed.
fn build(kind: OptimizerKind, requirement: QualityRequirement, seed: u64) -> SessionConfig {
    match kind {
        OptimizerKind::Baseline => SessionConfig::Baseline(BaselineConfig::new(requirement)),
        OptimizerKind::AllSampling => SessionConfig::AllSampling(AllSamplingConfig {
            seed,
            ..AllSamplingConfig::new(requirement)
        }),
        OptimizerKind::PartialSampling => {
            SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(seed))
        }
        OptimizerKind::Hybrid => {
            SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(seed))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn fixed1_zero_noise_crowd_is_byte_identical_to_ground_truth(
        tau in 8.0..18.0f64,
        seed in 0u64..1_000,
    ) {
        let workload = SyntheticGenerator::new(SyntheticConfig {
            num_pairs: 4_000,
            tau,
            sigma: 0.1,
            subset_size: 200,
            seed,
        })
        .generate();
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        for kind in OptimizerKind::all() {
            let optimizer = build(kind, requirement, seed);

            let mut truth_oracle = GroundTruthOracle::new();
            let truth =
                LabelingSession::new(optimizer, &workload).unwrap().drive(&mut truth_oracle).unwrap();

            let mut crowd_oracle = CrowdOracle::new(
                symmetric_pool(4, 0.0, seed ^ 0xA5A5),
                Redundancy::Fixed(1),
                Aggregation::Majority,
                seed ^ 0x5A5A,
            );
            let crowd =
                LabelingSession::new(optimizer, &workload).unwrap().drive(&mut crowd_oracle).unwrap();

            prop_assert_eq!(crowd.solution.lower_index, truth.solution.lower_index);
            prop_assert_eq!(crowd.solution.upper_index, truth.solution.upper_index);
            prop_assert_eq!(crowd.assignment.labels(), truth.assignment.labels());
            prop_assert_eq!(crowd.verification_cost, truth.verification_cost);
            prop_assert_eq!(crowd.sampling_cost, truth.sampling_cost);
            prop_assert_eq!(crowd.total_human_cost, truth.total_human_cost);
            prop_assert_eq!(crowd_oracle.labels_issued(), truth_oracle.labels_issued());
            // One vote per label: the crowd layer added zero cost.
            prop_assert_eq!(crowd_oracle.votes_cast(), crowd_oracle.labels_issued() as u64);
        }
    }
}
