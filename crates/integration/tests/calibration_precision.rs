//! Regression tests for the lower-bound (precision-side) tail calibration —
//! the precision twin of `calibration_guarantee.rs` (ISSUE 4).
//!
//! The `hi` sweep of Eq. 14 certifies precision from *lower* bounds over the
//! kept region, which near-pure ("pure-one") samples used to collapse onto
//! `p = 1`: on mid-steep curves (τ ∈ [8, 14]) the precision requirement was
//! missed in 20–45% of runs, double to quadruple the nominal 1 − θ = 10%.
//! These tests pin the pooled saturated-run calibration's fix: the empirical
//! precision-failure rate on a mid-steep curve stays within the one-sided 95%
//! Clopper–Pearson band of the nominal rate, the steep-curve human cost stays
//! within 10% of the upper-side-only (pre-pooling) default, and the
//! estimator-level lower-bound properties hold for the ALL path's
//! `ShortfallBaseline::UpperBound` configuration.
//!
//! Everything is seeded, so the assertions are deterministic.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::sampling::{MatchCountEstimator, StratifiedCountEstimator};
use humo::{
    CalibratedEstimator, GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome,
    PartialSamplingConfig, QualityRequirement, SessionConfig, ShortfallBaseline, TailCalibration,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
const MAX_PRECISION_FAILURES: usize = 4;

#[test]
fn mid_steep_precision_failure_rate_is_nominal_for_samp() {
    let mut failures = 0usize;
    for seed in 0..SEEDS {
        let w = workload(10.0, 700 + seed);
        let outcome = run_samp(&w, seed, TailCalibration::default());
        if outcome.metrics.precision() < LEVEL {
            failures += 1;
        }
    }
    assert!(
        failures <= MAX_PRECISION_FAILURES,
        "SAMP missed precision on the mid-steep curve {failures}/{SEEDS} times \
         (nominal 10% + binomial slack allows {MAX_PRECISION_FAILURES})"
    );
}

#[test]
fn mid_steep_precision_failure_rate_is_nominal_for_hybr() {
    let mut failures = 0usize;
    for seed in 0..SEEDS {
        let w = workload(10.0, 700 + seed);
        let outcome = run_hybr(&w, seed, TailCalibration::default());
        if outcome.metrics.precision() < LEVEL {
            failures += 1;
        }
    }
    assert!(
        failures <= MAX_PRECISION_FAILURES,
        "HYBR missed precision on the mid-steep curve {failures}/{SEEDS} times \
         (nominal 10% + binomial slack allows {MAX_PRECISION_FAILURES})"
    );
}

/// The pooled lower-bound calibration must be almost free where the
/// upper-side-only default was already sound: on steep curves (τ = 14) the
/// mean human cost may grow by less than 10% relative to
/// [`TailCalibration::upper_only`].
#[test]
fn steep_curve_cost_regression_vs_upper_only_stays_under_ten_percent() {
    let runs = 10u64;
    let mut two_sided = 0usize;
    let mut upper_only = 0usize;
    for seed in 0..runs {
        let w = workload(14.0, 700 + seed);
        two_sided += run_samp(&w, seed, TailCalibration::default()).total_human_cost;
        upper_only += run_samp(&w, seed, TailCalibration::upper_only()).total_human_cost;
    }
    let ratio = two_sided as f64 / upper_only as f64;
    assert!(
        ratio < 1.10,
        "lower-bound calibration inflated steep-curve SAMP cost by {:.1}% (allowed < 10%): \
         {two_sided} vs {upper_only} pairs over {runs} runs",
        100.0 * (ratio - 1.0)
    );
}

/// The flat-curve recall behaviour must be untouched by the lower-side
/// addition: the two-sided default and the upper-side-only configuration reach
/// identical recall on a flat curve (the saturated-run cap only ever weakens
/// *lower* bounds, which recall certification reads on the kept region too —
/// weaker is more conservative, never less).
#[test]
fn flat_curve_recall_is_no_worse_than_upper_only() {
    for seed in 0..5u64 {
        let w = workload(8.0, 800 + seed);
        let full = run_samp(&w, seed, TailCalibration::default());
        let upper = run_samp(&w, seed, TailCalibration::upper_only());
        assert!(
            full.metrics.recall() >= upper.metrics.recall() - 1e-9,
            "seed {seed}: two-sided recall {} fell below upper-only recall {}",
            full.metrics.recall(),
            upper.metrics.recall()
        );
    }
}

/// Builds a fully-sampled stratified estimator (the ALL path) over `m`
/// subsets with the given per-subset positives, plus the calibrated wrapper.
fn all_path_estimators(
    positives: &[usize],
    samples_per_subset: usize,
    tail: TailCalibration,
    confidence: f64,
) -> (StratifiedCountEstimator, CalibratedEstimator<StratifiedCountEstimator>) {
    let m = positives.len();
    let unit = 50usize;
    let n = m * unit;
    let w = er_core::workload::Workload::from_scores((0..n).map(|i| (i as f64 / n as f64, false)))
        .unwrap();
    let partition = w.partition(unit).unwrap();
    let summaries: Vec<er_stats::SampleSummary> = positives
        .iter()
        .map(|&k| er_stats::SampleSummary::new(samples_per_subset, k.min(samples_per_subset)))
        .collect::<Result<_, _>>()
        .unwrap();
    let base = StratifiedCountEstimator::new(&partition, &summaries, confidence);
    let sizes: Vec<usize> = partition.subsets().iter().map(|s| s.len()).collect();
    let inputs: Vec<f64> = partition.subsets().iter().map(|s| s.mean_similarity()).collect();
    let samples: BTreeMap<usize, er_stats::SampleSummary> =
        summaries.iter().copied().enumerate().collect();
    let calibrated =
        CalibratedEstimator::new(base.clone(), &sizes, &inputs, &samples, 1.0, tail, confidence)
            .unwrap();
    (base, calibrated)
}

/// Deterministic per-subset positives profile: mixes quiet, saturated and
/// mixed strata so both run kinds (and their boundaries) are exercised.
fn profile_for(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 21) as usize
        })
        .collect()
}

proptest! {
    /// ALL-path (`ShortfallBaseline::UpperBound`) lower bounds: the calibrated
    /// bound never exceeds the base bound, never goes negative, and enabling
    /// `calibrate_lower` never *narrows* an interval — mirroring the
    /// upper-side monotonicity suite in `er-stats/tests/tail_bounds.rs`.
    #[test]
    fn all_path_lower_bounds_are_conservative(
        len in 8usize..24,
        seed in 0u64..10_000,
        confidence in 0.5..0.99f64,
    ) {
        let profile = profile_for(len, seed);
        let tail = TailCalibration {
            shortfall_baseline: ShortfallBaseline::UpperBound,
            quiet_fraction: 0.1,
            ..TailCalibration::default()
        };
        let upper_only = TailCalibration { calibrate_lower: false, ..tail };
        let (base, calibrated) = all_path_estimators(&profile, 20, tail, confidence);
        let (_, reference) = all_path_estimators(&profile, 20, upper_only, confidence);
        let m = profile.len();
        for (lo, hi) in [(0usize, m), (0, m / 2), (m / 3, m), (m / 4, (3 * m / 4).max(m / 4 + 1))] {
            let b_lb = base.lower_bound(lo..hi);
            let b_ub = base.upper_bound(lo..hi);
            let c_lb = calibrated.lower_bound(lo..hi);
            let c_ub = calibrated.upper_bound(lo..hi);
            let r_lb = reference.lower_bound(lo..hi);
            // Never exceeds the base bound, never negative.
            prop_assert!(c_lb <= b_lb + 1e-9, "calibrated lower {c_lb} above base {b_lb}");
            prop_assert!(c_lb >= 0.0, "calibrated lower bound went negative: {c_lb}");
            // Enabling calibrate_lower never narrows the interval: the lower
            // end can only move down relative to the upper-only reference,
            // and the upper end is shared.
            prop_assert!(c_lb <= r_lb + 1e-9, "calibrate_lower narrowed the interval: {c_lb} > {r_lb}");
            prop_assert!((c_ub - reference.upper_bound(lo..hi)).abs() < 1e-9);
            // The interval stays an interval.
            prop_assert!(c_lb <= c_ub + 1e-9);
            prop_assert!(b_ub <= c_ub + 1e-9 || c_ub >= b_ub.min(calibrated.pair_count(lo..hi) as f64) - 1e-9);
        }
    }
}
