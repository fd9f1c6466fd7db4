//! Property-based integration tests of the quality guarantees.
//!
//! These are the paper's central claims (Theorems 1 and 2, plus the HYBR
//! dominance argument) exercised over randomized workload shapes.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    BaselineConfig, GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome,
    PartialSamplingConfig, QualityRequirement, SessionConfig,
};
use proptest::prelude::*;

fn synthetic(num_pairs: usize, tau: f64, sigma: f64, seed: u64) -> er_core::workload::Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs, tau, sigma, subset_size: 200, seed })
        .generate()
}

/// Runs the optimizer `config` selects, answering from the ground truth.
fn run(config: SessionConfig, workload: &er_core::workload::Workload) -> OptimizationOutcome {
    let mut oracle = GroundTruthOracle::new();
    LabelingSession::new(config, workload).unwrap().drive(&mut oracle).unwrap()
}

proptest! {
    // Keep the case count small: every case runs full optimizations.
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Theorem 1: under (approximate) monotonicity the baseline meets any
    /// requirement level.
    #[test]
    fn baseline_meets_requirements_under_monotonicity(
        tau in 10.0..18.0f64,
        level in 0.7..0.95f64,
        seed in 0u64..1_000,
    ) {
        let workload = synthetic(15_000, tau, 0.05, seed);
        let requirement = QualityRequirement::new(level, level, 0.9).unwrap();
        let mut config = BaselineConfig::new(requirement);
        config.unit_size = 100;
        let outcome = run(SessionConfig::Baseline(config), &workload);
        prop_assert!(outcome.metrics.precision() >= level - 1e-9,
            "precision {} < {level}", outcome.metrics.precision());
        prop_assert!(outcome.metrics.recall() >= level - 1e-9,
            "recall {} < {level}", outcome.metrics.recall());
    }

    /// The solution structure is always a valid three-way partition and the cost
    /// accounting is internally consistent, whatever the workload shape.
    #[test]
    fn outcomes_are_structurally_consistent(
        tau in 6.0..18.0f64,
        sigma in 0.0..0.4f64,
        level in 0.7..0.95f64,
        seed in 0u64..1_000,
    ) {
        let workload = synthetic(10_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(level, level, 0.9).unwrap();
        let optimizer =
            SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(seed));
        let outcome = run(optimizer, &workload);

        let s = outcome.solution;
        prop_assert!(s.lower_index <= s.upper_index);
        prop_assert!(s.upper_index <= workload.len());
        prop_assert_eq!(
            s.machine_negative_size() + s.human_region_size() + s.machine_positive_size(workload.len()),
            workload.len()
        );
        prop_assert_eq!(outcome.verification_cost, s.human_region_size());
        prop_assert_eq!(
            outcome.total_human_cost,
            outcome.verification_cost + outcome.sampling_cost
        );
        prop_assert!(outcome.total_human_cost <= workload.len());
        // The assignment labels exactly D+ plus the matches the oracle found in DH.
        prop_assert_eq!(outcome.assignment.len(), workload.len());
    }

    /// HYBR never costs more than SAMP for the same seed and requirement — the
    /// paper's dominance argument for the hybrid search.
    #[test]
    fn hybrid_is_never_more_expensive_than_samp(
        tau in 10.0..18.0f64,
        level in 0.75..0.95f64,
        seed in 0u64..500,
    ) {
        let workload = synthetic(12_000, tau, 0.1, seed);
        let requirement = QualityRequirement::new(level, level, 0.9).unwrap();

        let samp =
            SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(seed));
        let samp_outcome = run(samp, &workload);

        let hybr = SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(seed));
        let hybr_outcome = run(hybr, &workload);

        prop_assert!(
            hybr_outcome.total_human_cost <= samp_outcome.total_human_cost,
            "HYBR cost {} exceeds SAMP cost {}",
            hybr_outcome.total_human_cost,
            samp_outcome.total_human_cost
        );
    }

    /// Assigning everything to the human is always feasible and perfect; the
    /// optimizers must never exceed that trivial cost.
    #[test]
    fn optimizers_never_exceed_the_all_human_cost(
        tau in 6.0..18.0f64,
        sigma in 0.0..0.5f64,
        seed in 0u64..500,
    ) {
        let workload = synthetic(8_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let optimizer = SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(seed));
        let outcome = run(optimizer, &workload);
        prop_assert!(outcome.total_human_cost <= workload.len());
    }
}

/// The requirement/confidence knobs behave monotonically on average: this is a
/// deterministic multi-seed check rather than a proptest because single runs are
/// noisy by design.
#[test]
fn average_cost_increases_with_the_requirement_level() {
    let workload = synthetic(20_000, 14.0, 0.1, 7);
    let avg_cost = |level: f64| {
        let mut total = 0usize;
        for seed in 0..5 {
            let requirement = QualityRequirement::new(level, level, 0.9).unwrap();
            let optimizer = PartialSamplingConfig::new(requirement).with_seed(seed);
            total += run(SessionConfig::PartialSampling(optimizer), &workload).total_human_cost;
        }
        total as f64 / 5.0
    };
    let low = avg_cost(0.75);
    let high = avg_cost(0.95);
    assert!(
        high > low,
        "average cost at the 0.95 requirement ({high}) should exceed the 0.75 one ({low})"
    );
}
