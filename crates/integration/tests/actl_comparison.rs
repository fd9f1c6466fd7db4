//! Integration tests for the HUMO-vs-ACTL comparison (the paper's Tables V/VI and
//! Figure 11 in miniature).

use er_datagen::calibrated::CalibratedConfig;
use er_ml::{ActiveLearningClassifier, ActlConfig};
use humo::{GroundTruthOracle, HybridConfig, LabelingSession, QualityRequirement, SessionConfig};

fn ds_workload() -> er_core::workload::Workload {
    CalibratedConfig::ds(13).scaled(0.1).generate()
}

fn ab_workload() -> er_core::workload::Workload {
    CalibratedConfig::ab(13).scaled(0.05).generate()
}

fn run_humo(workload: &er_core::workload::Workload, precision: f64) -> humo::OptimizationOutcome {
    let requirement = QualityRequirement::new(precision, precision, 0.9).unwrap();
    let config = SessionConfig::Hybrid(HybridConfig::new(requirement));
    let mut oracle = GroundTruthOracle::new();
    LabelingSession::new(config, workload).unwrap().drive(&mut oracle).unwrap()
}

fn run_actl(workload: &er_core::workload::Workload, precision: f64) -> er_ml::ActlResult {
    let actl = ActiveLearningClassifier::new(ActlConfig {
        target_precision: precision,
        confidence: 0.9,
        samples_per_probe: 200,
        max_probes: 20,
        seed: 3,
    })
    .unwrap();
    actl.run(workload).unwrap()
}

#[test]
fn humo_achieves_higher_recall_than_actl_at_matched_precision_on_ds() {
    let workload = ds_workload();
    for precision in [0.8, 0.9] {
        let humo_outcome = run_humo(&workload, precision);
        let actl_outcome = run_actl(&workload, precision);
        assert!(
            humo_outcome.metrics.recall() > actl_outcome.metrics.recall(),
            "precision {precision}: HUMO recall {} should exceed ACTL recall {}",
            humo_outcome.metrics.recall(),
            actl_outcome.metrics.recall()
        );
    }
}

#[test]
fn humo_achieves_much_higher_recall_than_actl_on_ab() {
    // On the AB shape ACTL's pure threshold classifier gives up most of the recall
    // (Table VI reports 0.10-0.20); HUMO keeps it above the requirement.
    let workload = ab_workload();
    let humo_outcome = run_humo(&workload, 0.9);
    let actl_outcome = run_actl(&workload, 0.9);
    assert!(humo_outcome.metrics.recall() >= 0.9);
    assert!(
        actl_outcome.metrics.recall() < 0.6,
        "ACTL recall {} unexpectedly high on the AB shape",
        actl_outcome.metrics.recall()
    );
    assert!(
        humo_outcome.metrics.recall() - actl_outcome.metrics.recall() > 0.3,
        "HUMO should dominate ACTL by a wide recall margin on AB"
    );
}

#[test]
fn actl_is_cheaper_but_humo_buys_quality_at_reasonable_roi() {
    // HUMO uses more manual work than ACTL, but the extra cost per absolute point
    // of recall improvement stays small (the Δψ/ΔRecall column of Tables V/VI).
    let workload = ds_workload();
    let humo_outcome = run_humo(&workload, 0.9);
    let actl_outcome = run_actl(&workload, 0.9);

    let humo_cost = humo_outcome.human_cost_fraction(workload.len());
    let actl_cost = actl_outcome.human_cost_fraction(workload.len());
    assert!(
        humo_cost > actl_cost,
        "HUMO ({humo_cost:.4}) is expected to use more manual work than ACTL ({actl_cost:.4})"
    );

    let recall_gain = humo_outcome.metrics.recall() - actl_outcome.metrics.recall();
    assert!(recall_gain > 0.0);
    let cost_per_point = (humo_cost - actl_cost) / (100.0 * recall_gain);
    assert!(
        cost_per_point < 0.02,
        "manual work per 1% recall improvement should be small, got {cost_per_point:.4}"
    );
}

#[test]
fn both_methods_respect_their_precision_targets() {
    let workload = ds_workload();
    for precision in [0.8, 0.9, 0.95] {
        let humo_outcome = run_humo(&workload, precision);
        let actl_outcome = run_actl(&workload, precision);
        assert!(
            humo_outcome.metrics.precision() >= precision - 1e-9,
            "HUMO precision {} below target {precision}",
            humo_outcome.metrics.precision()
        );
        assert!(
            actl_outcome.metrics.precision() >= precision - 0.05,
            "ACTL precision {} far below target {precision}",
            actl_outcome.metrics.precision()
        );
    }
}
