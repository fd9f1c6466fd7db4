//! End-to-end integration tests: every optimizer on every workload family.

use er_datagen::calibrated::CalibratedConfig;
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    BaselineConfig, GroundTruthOracle, HybridConfig, LabelingSession, NoisyOracle, OptimizerKind,
    Oracle, PartialSamplingConfig, QualityRequirement, SessionConfig,
};

/// Every optimizer at its defaults, named by its kind.
fn optimizers(requirement: QualityRequirement) -> [(OptimizerKind, SessionConfig); 4] {
    OptimizerKind::all().map(|kind| (kind, SessionConfig::for_kind(kind, requirement)))
}

fn run(
    config: SessionConfig,
    workload: &er_core::workload::Workload,
    oracle: &mut dyn Oracle,
) -> humo::OptimizationOutcome {
    LabelingSession::new(config, workload).unwrap().drive(oracle).unwrap()
}

#[test]
fn every_optimizer_meets_the_requirement_on_a_regular_synthetic_workload() {
    let workload = SyntheticGenerator::new(SyntheticConfig::new(30_000, 14.0, 0.1)).generate();
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    // The guarantee is probabilistic (confidence θ = 0.9), so a single seeded run
    // is allowed a small shortfall; large violations would still fail the test.
    let tolerance = 0.02;
    for (kind, config) in optimizers(requirement) {
        let mut oracle = GroundTruthOracle::new();
        let outcome = run(config, &workload, &mut oracle);
        assert!(
            outcome.metrics.precision() >= 0.9 - tolerance,
            "{}: precision {} below the requirement",
            kind.label(),
            outcome.metrics.precision()
        );
        assert!(
            outcome.metrics.recall() >= 0.9 - tolerance,
            "{}: recall {} below the requirement",
            kind.label(),
            outcome.metrics.recall()
        );
        // Cost accounting must be consistent with the oracle.
        assert_eq!(outcome.total_human_cost, oracle.labels_issued());
        assert!(outcome.total_human_cost < workload.len());
        assert_eq!(
            outcome.verification_cost,
            outcome.solution.human_region_size(),
            "{}: verification cost must equal |DH|",
            kind.label()
        );
    }
}

#[test]
fn every_optimizer_meets_the_requirement_on_a_ds_like_workload() {
    // 10%-scale DS keeps the test fast while preserving the distribution shape.
    let workload = CalibratedConfig::ds(3).scaled(0.1).generate();
    let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
    for (kind, config) in optimizers(requirement) {
        let mut oracle = GroundTruthOracle::new();
        let outcome = run(config, &workload, &mut oracle);
        assert!(
            outcome.metrics.precision() >= 0.83,
            "{}: precision {}",
            kind.label(),
            outcome.metrics.precision()
        );
        assert!(
            outcome.metrics.recall() >= 0.83,
            "{}: recall {}",
            kind.label(),
            outcome.metrics.recall()
        );
    }
}

#[test]
fn hybrid_meets_the_requirement_on_an_ab_like_workload() {
    // The AB shape (matches at low/medium similarity) is the hard case.
    let workload = CalibratedConfig::ab(5).scaled(0.05).generate();
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let optimizer = SessionConfig::Hybrid(HybridConfig::new(requirement));
    let mut oracle = GroundTruthOracle::new();
    let outcome = run(optimizer, &workload, &mut oracle);
    assert!(outcome.metrics.precision() >= 0.85, "precision {}", outcome.metrics.precision());
    assert!(outcome.metrics.recall() >= 0.85, "recall {}", outcome.metrics.recall());
    // AB requires more manual work than a trivial amount, but far less than the
    // whole workload. (At 5% scale the workload has only ~54 matches, so the
    // optimizer is forced to be quite conservative.)
    assert!(outcome.total_human_cost > 0);
    assert!(outcome.total_human_cost < workload.len());
}

#[test]
fn the_human_cost_ordering_matches_the_paper_on_an_easy_workload() {
    // On a steep, regular workload the sampling-based optimizers should beat the
    // conservative baseline, and HYBR should not exceed SAMP (Figure 6 / 9).
    let workload = SyntheticGenerator::new(SyntheticConfig::new(40_000, 16.0, 0.1)).generate();
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();

    let cost = |optimizer: SessionConfig| {
        let mut oracle = GroundTruthOracle::new();
        run(optimizer, &workload, &mut oracle).total_human_cost
    };
    let base = cost(SessionConfig::Baseline(BaselineConfig::new(requirement)));
    let samp = cost(SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement)));
    let hybr = cost(SessionConfig::Hybrid(HybridConfig::new(requirement)));

    assert!(samp < base, "SAMP ({samp}) should be cheaper than BASE ({base})");
    assert!(hybr <= samp, "HYBR ({hybr}) should not exceed SAMP ({samp})");
}

#[test]
fn a_noisy_oracle_degrades_quality_gracefully() {
    // The paper assumes perfect manual labels; with a 5% error rate the achieved
    // quality drops but stays in the vicinity of the requirement, because DH is
    // bounded and machine-labeled regions are unaffected.
    let workload = SyntheticGenerator::new(SyntheticConfig::new(20_000, 14.0, 0.1)).generate();
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let optimizer = SessionConfig::Hybrid(HybridConfig::new(requirement));

    let mut perfect = GroundTruthOracle::new();
    let clean = run(optimizer, &workload, &mut perfect);

    let mut noisy = NoisyOracle::new(0.05, 99);
    let noisy_outcome = run(optimizer, &workload, &mut noisy);

    // A noisy oracle can occasionally produce a *larger* human region (its noisy
    // samples change the search), so we only require that quality stays close to
    // the clean run rather than strictly below it.
    assert!(noisy_outcome.metrics.f1() >= clean.metrics.f1() - 0.15);
    assert!(
        noisy_outcome.metrics.precision() >= 0.8,
        "precision collapsed to {}",
        noisy_outcome.metrics.precision()
    );
    assert!(
        noisy_outcome.metrics.recall() >= 0.8,
        "recall collapsed to {}",
        noisy_outcome.metrics.recall()
    );
}

#[test]
fn stricter_confidence_does_not_reduce_human_cost() {
    let workload = SyntheticGenerator::new(SyntheticConfig::new(30_000, 14.0, 0.1)).generate();
    let cost_at = |confidence: f64| {
        let requirement = QualityRequirement::new(0.9, 0.9, confidence).unwrap();
        let optimizer = SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement));
        let mut oracle = GroundTruthOracle::new();
        run(optimizer, &workload, &mut oracle).total_human_cost
    };
    let relaxed = cost_at(0.6);
    let strict = cost_at(0.95);
    assert!(
        strict >= relaxed,
        "confidence 0.95 should not need less manual work ({strict}) than 0.6 ({relaxed})"
    );
}
