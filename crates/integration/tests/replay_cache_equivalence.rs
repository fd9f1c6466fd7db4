//! Replay-cache equivalence over whole sessions: a labeling session with the
//! replay cache (and the incremental GP refits it resumes) must be
//! byte-identical with the same session with the cache disabled, which
//! replays the whole labeling history from scratch on every step — same
//! labels requested (set, values *and* order), same bounds, same assignment,
//! same costs. The cache is a pure performance optimization; this test is
//! the contract that keeps it one.

use er_core::workload::{Label, PairId, Workload};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    LabelResponse, LabelingSession, NoisyOracle, OptimizationOutcome, OptimizerKind, Oracle,
    PartialSamplingConfig, QualityRequirement, SessionConfig, Step,
};
use proptest::prelude::*;

fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs: n, tau, sigma, subset_size: 200, seed })
        .generate()
}

/// Drives a session to completion with `label_of`, returning the outcome and
/// the ordered (pair, label) request log.
fn drive(
    session: &mut LabelingSession<'_>,
    mut label_of: impl FnMut(usize) -> Label,
) -> (OptimizationOutcome, Vec<(PairId, Label)>) {
    let mut order: Vec<(PairId, Label)> = Vec::new();
    let mut responses: Vec<LabelResponse> = Vec::new();
    loop {
        match session.step(&responses).unwrap() {
            Step::Done(outcome) => return (outcome, order),
            Step::NeedLabels(requests) => {
                responses = requests
                    .iter()
                    .map(|request| {
                        let label = label_of(request.index);
                        order.push((request.pair_id, label));
                        LabelResponse { pair_id: request.pair_id, label }
                    })
                    .collect();
            }
        }
    }
}

fn assert_identical(
    kind: OptimizerKind,
    cached: &(OptimizationOutcome, Vec<(PairId, Label)>),
    uncached: &(OptimizationOutcome, Vec<(PairId, Label)>),
) {
    let (a, order_a) = cached;
    let (b, order_b) = uncached;
    assert_eq!(order_a, order_b, "{kind:?}: the replay cache changed the labels requested");
    assert_eq!(a.solution, b.solution, "{kind:?}: bounds differ with the cache off");
    assert_eq!(a.assignment, b.assignment, "{kind:?}: assignments differ with the cache off");
    assert_eq!(a.metrics, b.metrics, "{kind:?}: metrics differ with the cache off");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{kind:?}: total cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{kind:?}: sampling cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{kind:?}: verification cost differs");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    #[test]
    fn cached_and_uncached_sessions_are_byte_identical(
        tau in 8.0..18.0f64,
        sigma in 0.05..0.25f64,
        seed in 0u64..1_000,
    ) {
        let w = workload(8_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in OptimizerKind::all() {
            let config = SessionConfig::for_kind(kind, requirement);
            let mut fast = LabelingSession::new(config, &w).unwrap();
            let fast_run = drive(&mut fast, |index| w.pair(index).ground_truth());

            let mut slow = LabelingSession::new(config, &w).unwrap().with_replay_cache(false);
            let slow_run = drive(&mut slow, |index| w.pair(index).ground_truth());

            assert_identical(kind, &fast_run, &slow_run);
        }
    }
}

#[test]
fn cache_equivalence_survives_noisy_labels() {
    // Label noise stresses the surprise-triggered hyperparameter re-selection
    // paths, where an extended factor that drifted from the from-scratch one
    // would change which probes the GP asks for next.
    let w = workload(8_000, 12.0, 0.12, 41);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    for kind in [OptimizerKind::PartialSampling, OptimizerKind::Hybrid] {
        let config = SessionConfig::for_kind(kind, requirement);
        let mut fast_labeler = NoisyOracle::new(0.08, 93);
        let mut fast = LabelingSession::new(config, &w).unwrap();
        let fast_run = drive(&mut fast, |index| fast_labeler.label(&w.pair(index)));

        let mut slow_labeler = NoisyOracle::new(0.08, 93);
        let mut slow = LabelingSession::new(config, &w).unwrap().with_replay_cache(false);
        let slow_run = drive(&mut slow, |index| slow_labeler.label(&w.pair(index)));

        assert_identical(kind, &fast_run, &slow_run);
    }
}

#[test]
fn refit_and_reselection_counters_fire() {
    // The observability layer must see the GP machinery the equivalence tests
    // above exercise: incremental refits and hyperparameter re-selections.
    // Refits only engage once the boundary search probes beyond the 32-point
    // warm-up without doubling the training set, so the sampling range is
    // widened to let refinement run deep enough.
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let mut w = SyntheticGenerator::new(SyntheticConfig {
        num_pairs: 20_000,
        tau: 14.0,
        sigma: 0.05,
        subset_size: 100,
        seed: 41,
    })
    .generate();
    let metrics = std::sync::Arc::new(er_obs::MetricsRecorder::new());
    w.set_obs(er_obs::ObsHandle::new(metrics.clone()));
    let config = SessionConfig::PartialSampling(PartialSamplingConfig {
        sampling_range: (0.05, 0.5),
        ..PartialSamplingConfig::new(requirement)
    });
    let mut session = LabelingSession::new(config, &w).unwrap();
    drive(&mut session, |index| w.pair(index).ground_truth());
    let snap = metrics.snapshot();
    assert!(snap.counter("gp.refit.incremental") > 0, "incremental refits never recorded");
    assert!(snap.counter("gp.reselect") > 0, "hyperparameter selection never recorded");
    assert!(snap.counter("session.rounds") > 0, "label rounds never recorded");
}

#[test]
fn cache_equivalence_survives_checkpoint_resume() {
    // Resuming mid-flight from the answered log must not change the outcome,
    // with the cache on or off: the cached state is rebuilt from the log,
    // never checkpointed itself.
    let w = workload(6_000, 14.0, 0.1, 59);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    for kind in OptimizerKind::all() {
        let config = SessionConfig::for_kind(kind, requirement);
        let mut reference = LabelingSession::new(config, &w).unwrap();
        let (expected, order) = drive(&mut reference, |index| w.pair(index).ground_truth());

        let log: Vec<LabelResponse> =
            order.iter().map(|&(pair_id, label)| LabelResponse { pair_id, label }).collect();
        let prefix = &log[..log.len() * 2 / 3];
        for cache in [true, false] {
            let mut resumed =
                LabelingSession::resume(config, &w, prefix).unwrap().with_replay_cache(cache);
            let (outcome, _) = drive(&mut resumed, |index| w.pair(index).ground_truth());
            assert_eq!(outcome.solution, expected.solution, "{kind:?}: resumed bounds differ");
            assert_eq!(
                outcome.assignment, expected.assignment,
                "{kind:?}: resumed assignment differs"
            );
            assert_eq!(
                outcome.total_human_cost, expected.total_human_cost,
                "{kind:?}: resumed total cost differs"
            );
        }
    }
}
