//! Session/oracle equivalence: for every `OptimizerKind`, the sans-I/O
//! labeling session driven by hand must be byte-identical with the session
//! driven by an oracle (`LabelingSession::drive`) — same labels issued (set, values *and* order), same
//! bounds, same outcome — and a session rebuilt from its answered-label log
//! must resume to the same outcome. Every emitted `NeedLabels` batch must
//! contain only distinct, not-yet-answered pairs.

use er_core::workload::{InstancePair, Label, PairId, Workload};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    GroundTruthOracle, LabelResponse, LabelingSession, NoisyOracle, OptimizationOutcome,
    OptimizerKind, Oracle, QualityRequirement, SessionConfig, Step,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// An oracle wrapper recording the ordered sequence of distinct pairs it was
/// asked about, so request order can be compared across drivers.
struct TrackingOracle<O> {
    inner: O,
    order: Vec<(PairId, Label)>,
    seen: BTreeSet<PairId>,
}

impl<O: Oracle> TrackingOracle<O> {
    fn new(inner: O) -> Self {
        Self { inner, order: Vec::new(), seen: BTreeSet::new() }
    }
}

impl<O: Oracle> Oracle for TrackingOracle<O> {
    fn label(&mut self, pair: &InstancePair) -> Label {
        let label = self.inner.label(pair);
        if self.seen.insert(pair.id()) {
            self.order.push((pair.id(), label));
        }
        label
    }

    fn labels_issued(&self) -> usize {
        self.inner.labels_issued()
    }
}

fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs: n, tau, sigma, subset_size: 200, seed })
        .generate()
}

fn optimize_by_kind(
    kind: OptimizerKind,
    requirement: QualityRequirement,
    w: &Workload,
    oracle: &mut dyn Oracle,
) -> OptimizationOutcome {
    let config = SessionConfig::for_kind(kind, requirement);
    LabelingSession::new(config, w).unwrap().drive(oracle).unwrap()
}

/// Drives a session by hand with labels from `label_of`, recording the ordered
/// sequence of requested pairs and checking the batch invariants along the
/// way. Returns the outcome and the ordered request log.
fn drive_manually(
    session: &mut LabelingSession<'_>,
    mut label_of: impl FnMut(&InstancePair) -> Label,
) -> (OptimizationOutcome, Vec<(PairId, Label)>) {
    let workload = session.workload();
    let mut order: Vec<(PairId, Label)> = Vec::new();
    let mut answered: BTreeSet<PairId> = BTreeSet::new();
    let mut responses: Vec<LabelResponse> = Vec::new();
    loop {
        match session.step(&responses).unwrap() {
            Step::Done(outcome) => return (outcome, order),
            Step::NeedLabels(requests) => {
                assert!(!requests.is_empty(), "session emitted an empty batch");
                let mut in_batch = BTreeSet::new();
                responses = requests
                    .iter()
                    .map(|request| {
                        assert!(
                            in_batch.insert(request.pair_id),
                            "duplicate pair {} within one batch",
                            request.pair_id
                        );
                        assert!(
                            !answered.contains(&request.pair_id),
                            "pair {} re-requested after being answered",
                            request.pair_id
                        );
                        let pair = workload.pair(request.index);
                        assert_eq!(pair.id(), request.pair_id, "request index/id mismatch");
                        let label = label_of(&pair);
                        order.push((request.pair_id, label));
                        LabelResponse { pair_id: request.pair_id, label }
                    })
                    .collect();
                answered.extend(in_batch);
            }
        }
    }
}

fn assert_outcomes_equal(kind: OptimizerKind, a: &OptimizationOutcome, b: &OptimizationOutcome) {
    assert_eq!(a.solution, b.solution, "{kind:?}: bounds differ");
    assert_eq!(a.assignment, b.assignment, "{kind:?}: label assignments differ");
    assert_eq!(a.metrics, b.metrics, "{kind:?}: metrics differ");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{kind:?}: total cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{kind:?}: verification cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{kind:?}: sampling cost differs");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    #[test]
    fn sessions_are_byte_identical_with_oracle_runs(
        tau in 8.0..18.0f64,
        sigma in 0.05..0.25f64,
        seed in 0u64..1_000,
    ) {
        let w = workload(8_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in OptimizerKind::all() {
            let config = SessionConfig::for_kind(kind, requirement);

            // Oracle-driven reference run, with request order recorded.
            let mut oracle = TrackingOracle::new(GroundTruthOracle::new());
            let reference = optimize_by_kind(kind, requirement, &w, &mut oracle);

            // Manually stepped session answering from the ground truth.
            let mut session = LabelingSession::new(config, &w).unwrap();
            let (outcome, order) = drive_manually(&mut session, |pair| pair.ground_truth());

            assert_outcomes_equal(kind, &outcome, &reference);
            prop_assert!(
                order == oracle.order,
                "{:?}: manual session and oracle run disagree on the labels issued",
                kind
            );
            prop_assert_eq!(outcome.total_human_cost, oracle.labels_issued());

            // Resume from a mid-flight checkpoint: replay a prefix of the
            // answered log into a fresh session and drive the rest.
            let full_log: Vec<LabelResponse> = order
                .iter()
                .map(|&(pair_id, label)| LabelResponse { pair_id, label })
                .collect();
            let prefix = &full_log[..full_log.len() / 2];
            let mut resumed = LabelingSession::resume(config, &w, prefix).unwrap();
            let (resumed_outcome, _) = drive_manually(&mut resumed, |pair| pair.ground_truth());
            assert_outcomes_equal(kind, &resumed_outcome, &reference);
        }
    }
}

#[test]
fn noisy_labels_are_identical_across_drivers() {
    // With an order-independent noisy oracle, the batched session driver and
    // the classic entry point must see the *same* flipped labels — the
    // regression the hash-keyed `NoisyOracle` exists to prevent.
    let w = workload(8_000, 14.0, 0.1, 23);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    for kind in OptimizerKind::all() {
        let config = SessionConfig::for_kind(kind, requirement);
        let mut oracle = TrackingOracle::new(NoisyOracle::new(0.08, 77));
        let reference = optimize_by_kind(kind, requirement, &w, &mut oracle);

        let mut labeler = NoisyOracle::new(0.08, 77);
        let mut session = LabelingSession::new(config, &w).unwrap();
        let (outcome, order) = drive_manually(&mut session, |pair| labeler.label(pair));

        assert_outcomes_equal(kind, &outcome, &reference);
        assert_eq!(order, oracle.order, "{kind:?}: noisy labels depend on the driver");
    }
}

#[test]
fn partial_and_out_of_order_responses_converge_to_the_same_outcome() {
    let w = workload(6_000, 14.0, 0.1, 31);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    for kind in OptimizerKind::all() {
        let config = SessionConfig::for_kind(kind, requirement);
        let mut reference_session = LabelingSession::new(config, &w).unwrap();
        let (reference, _) = drive_manually(&mut reference_session, |pair| pair.ground_truth());

        // Answer each batch in two halves, reversed — simulating labels that
        // trickle back from parallel workers in arbitrary order.
        let mut session = LabelingSession::new(config, &w).unwrap();
        let mut responses: Vec<LabelResponse> = Vec::new();
        let outcome = loop {
            match session.step(&responses).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::NeedLabels(requests) => {
                    let half = requests.len() / 2;
                    let (late, early) = requests.split_at(half);
                    let answer = |r: &humo::LabelRequest| LabelResponse {
                        pair_id: r.pair_id,
                        label: w.pair(r.index).ground_truth(),
                    };
                    // First step gets only the tail half (reversed); the
                    // leading half arrives one step later.
                    responses = early.iter().rev().map(answer).collect();
                    if !late.is_empty() {
                        let stragglers: Vec<LabelResponse> =
                            late.iter().rev().map(answer).collect();
                        match session.step(&responses).unwrap() {
                            Step::Done(outcome) => break outcome,
                            Step::NeedLabels(_) => {}
                        }
                        responses = stragglers;
                    }
                }
            }
        };
        assert_outcomes_equal(kind, &outcome, &reference);
    }
}
