//! Regression tests for the tail-calibrated quality guarantee (ISSUE 2).
//!
//! The paper's Section VI guarantee is probabilistic: the recall requirement
//! may be missed with probability at most 1 − θ = 10%. These tests measure the
//! empirical recall-failure rate on *flat* match-proportion curves (τ = 8, the
//! regime where the uncalibrated GP bounds under-covered in roughly half the
//! runs) across ≥ 20 seeds, and pin the calibration's cost overhead on steep
//! curves (τ = 14, the paper's DS/AB-like regime) below 10%.
//!
//! Everything is seeded, so the assertions are deterministic; the binomial
//! slack documents how the thresholds relate to the nominal rate.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome, PartialSamplingConfig,
    QualityRequirement, SessionConfig, TailCalibration,
};

const LEVEL: f64 = 0.9;
const SEEDS: u64 = 20;
const PAIRS: usize = 24_000;

fn workload(tau: f64, seed: u64) -> er_core::workload::Workload {
    SyntheticGenerator::new(SyntheticConfig {
        num_pairs: PAIRS,
        tau,
        sigma: 0.1,
        subset_size: 200,
        seed,
    })
    .generate()
}

fn run_samp(
    w: &er_core::workload::Workload,
    seed: u64,
    tail: TailCalibration,
) -> OptimizationOutcome {
    let requirement = QualityRequirement::symmetric(LEVEL).unwrap();
    let config = PartialSamplingConfig {
        tail_calibration: tail,
        ..PartialSamplingConfig::new(requirement).with_seed(seed)
    };
    let mut oracle = GroundTruthOracle::new();
    let config = SessionConfig::PartialSampling(config);
    LabelingSession::new(config, w).unwrap().drive(&mut oracle).unwrap()
}

fn run_hybr(
    w: &er_core::workload::Workload,
    seed: u64,
    tail: TailCalibration,
) -> OptimizationOutcome {
    let requirement = QualityRequirement::symmetric(LEVEL).unwrap();
    let mut config = HybridConfig::new(requirement).with_seed(seed);
    config.sampling.tail_calibration = tail;
    let mut oracle = GroundTruthOracle::new();
    LabelingSession::new(SessionConfig::Hybrid(config), w).unwrap().drive(&mut oracle).unwrap()
}

/// Over 20 seeds the nominal 10% failure rate admits at most 4 failures at the
/// one-sided 95% binomial band: P(X >= 5 | n = 20, p = 0.1) ≈ 4.3%.
const MAX_RECALL_FAILURES: usize = 4;

#[test]
fn flat_curve_recall_failure_rate_is_nominal_for_samp() {
    let mut failures = 0usize;
    for seed in 0..SEEDS {
        let w = workload(8.0, 500 + seed);
        let outcome = run_samp(&w, seed, TailCalibration::default());
        if outcome.metrics.recall() < LEVEL {
            failures += 1;
        }
    }
    assert!(
        failures <= MAX_RECALL_FAILURES,
        "SAMP missed recall on the flat curve {failures}/{SEEDS} times \
         (nominal 10% + binomial slack allows {MAX_RECALL_FAILURES})"
    );
}

#[test]
fn flat_curve_recall_failure_rate_is_nominal_for_hybr() {
    let mut failures = 0usize;
    for seed in 0..SEEDS {
        let w = workload(8.0, 500 + seed);
        let outcome = run_hybr(&w, seed, TailCalibration::default());
        if outcome.metrics.recall() < LEVEL {
            failures += 1;
        }
    }
    assert!(
        failures <= MAX_RECALL_FAILURES,
        "HYBR missed recall on the flat curve {failures}/{SEEDS} times \
         (nominal 10% + binomial slack allows {MAX_RECALL_FAILURES})"
    );
}

/// The calibration must be almost free where the uncalibrated estimator was
/// already sound: on steep curves (τ = 14) the mean human cost may grow by
/// less than 10% relative to the pre-calibration (disabled) estimator.
#[test]
fn steep_curve_cost_regression_stays_under_ten_percent() {
    let runs = 10u64;
    let mut calibrated = 0usize;
    let mut uncalibrated = 0usize;
    for seed in 0..runs {
        let w = workload(14.0, 500 + seed);
        calibrated += run_samp(&w, seed, TailCalibration::default()).total_human_cost;
        uncalibrated += run_samp(&w, seed, TailCalibration::disabled()).total_human_cost;
    }
    let ratio = calibrated as f64 / uncalibrated as f64;
    assert!(
        ratio < 1.10,
        "tail calibration inflated steep-curve SAMP cost by {:.1}% (allowed < 10%): \
         {calibrated} vs {uncalibrated} pairs over {runs} runs",
        100.0 * (ratio - 1.0)
    );
}

/// The calibrated estimator still never lets HYBR cost more than SAMP — the
/// paper's dominance argument survives the wider bounds.
#[test]
fn hybrid_dominance_survives_calibration() {
    for &tau in &[8.0, 14.0] {
        for seed in 0..5 {
            let w = workload(tau, 900 + seed);
            let samp = run_samp(&w, seed, TailCalibration::default());
            let hybr = run_hybr(&w, seed, TailCalibration::default());
            assert!(
                hybr.total_human_cost <= samp.total_human_cost,
                "τ={tau} seed {seed}: HYBR cost {} exceeds SAMP cost {}",
                hybr.total_human_cost,
                samp.total_human_cost
            );
        }
    }
}
