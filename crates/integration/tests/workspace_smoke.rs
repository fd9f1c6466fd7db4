//! Fast deterministic smoke test: every optimizer family runs end to end on a
//! tiny fixed-seed synthetic workload and meets its quality requirement.
//!
//! This is the canary CI runs on every push: it exercises workload generation
//! (`er-datagen`), partitioning and metrics (`er-core`), the statistical
//! machinery (`er-stats` via the samplers), and all four optimizers (`humo`)
//! in well under a second. The workload is steep (τ = 16) and small, so every
//! family meets the requirement deterministically with the fixed seeds below.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::sampling::{AllSamplingConfig, PartialSamplingConfig};
use humo::{
    BaselineConfig, GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome,
    OptimizerKind, QualityRequirement, SessionConfig,
};

const SEED: u64 = 5;

fn tiny_workload() -> er_core::workload::Workload {
    SyntheticGenerator::new(SyntheticConfig {
        num_pairs: 6_000,
        tau: 16.0,
        sigma: 0.05,
        subset_size: 100,
        seed: SEED,
    })
    .generate()
}

/// Builds and runs the optimizer for `kind`. The exhaustive match makes this
/// test fail to compile when a new optimizer family is added without smoke
/// coverage.
fn run(kind: OptimizerKind, requirement: QualityRequirement) -> OptimizationOutcome {
    let workload = tiny_workload();
    let mut oracle = GroundTruthOracle::new();
    let config = match kind {
        OptimizerKind::Baseline => {
            let mut config = BaselineConfig::new(requirement);
            config.unit_size = 100;
            SessionConfig::Baseline(config)
        }
        OptimizerKind::AllSampling => {
            let mut config = AllSamplingConfig::new(requirement);
            config.seed = SEED;
            SessionConfig::AllSampling(config)
        }
        OptimizerKind::PartialSampling => {
            let config =
                PartialSamplingConfig { unit_size: 100, ..PartialSamplingConfig::new(requirement) }
                    .with_seed(SEED);
            SessionConfig::PartialSampling(config)
        }
        OptimizerKind::Hybrid => {
            let mut config = HybridConfig::new(requirement).with_seed(SEED);
            config.sampling.unit_size = 100;
            SessionConfig::Hybrid(config)
        }
    };
    let outcome = LabelingSession::new(config, &workload).and_then(|mut s| s.drive(&mut oracle));
    outcome.unwrap_or_else(|e| panic!("{kind} failed on the smoke workload: {e}"))
}

#[test]
fn every_optimizer_kind_meets_its_requirement_on_the_smoke_workload() {
    let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
    let kinds = [
        OptimizerKind::Baseline,
        OptimizerKind::AllSampling,
        OptimizerKind::PartialSampling,
        OptimizerKind::Hybrid,
    ];
    for kind in kinds {
        let outcome = run(kind, requirement);
        assert!(
            requirement.is_satisfied_by(&outcome.metrics),
            "{kind} missed the requirement: precision {:.4}, recall {:.4}",
            outcome.metrics.precision(),
            outcome.metrics.recall()
        );
        assert!(
            outcome.total_human_cost <= tiny_workload().len(),
            "{kind} cost accounting exceeded the workload size"
        );
    }
}

#[test]
fn smoke_outcomes_are_deterministic_across_runs() {
    let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
    for kind in [OptimizerKind::PartialSampling, OptimizerKind::Hybrid] {
        let first = run(kind, requirement);
        let second = run(kind, requirement);
        assert_eq!(
            first.total_human_cost, second.total_human_cost,
            "{kind} is not deterministic for a fixed seed"
        );
        assert_eq!(first.solution.lower_index, second.solution.lower_index);
        assert_eq!(first.solution.upper_index, second.solution.upper_index);
    }
}
