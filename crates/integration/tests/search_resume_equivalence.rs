//! Boundary-search resume equivalence: BASE and HYBR sessions with the replay
//! cache enabled — which keep the boundary search's progress between steps
//! and resume it where it suspended — must stay in lockstep with the
//! full-replay reference (cache disabled), which repeats every boundary move
//! on every step. Both sessions get the same inputs, and after every step
//! they must agree on the emitted batch (pair ids, in order), the round
//! counters and the phase; at the end, on the outcome.
//!
//! Answers always cover the whole batch. On top of the plain run, two events
//! force a replay over a stored search: a preload of labels the search has
//! not asked for yet, injected mid-search (the replay then joins several
//! moves in one go), and a resume of both sessions from a prefix of the
//! answered log cut in the middle of a boundary-search batch.

use er_core::workload::{InstancePair, Workload};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    LabelRequest, LabelResponse, NoisyOracle, OptimizationOutcome, OptimizerKind, Oracle,
    QualityRequirement, SessionConfig, SessionPhase, SessionState, Step,
};
use proptest::prelude::*;

fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs: n, tau, sigma, subset_size: 200, seed })
        .generate()
}

fn configs(requirement: QualityRequirement) -> Vec<SessionConfig> {
    [OptimizerKind::Hybrid, OptimizerKind::Baseline]
        .into_iter()
        .map(|kind| SessionConfig::for_kind(kind, requirement))
        .collect()
}

fn assert_outcomes_equal(a: &OptimizationOutcome, b: &OptimizationOutcome, what: &str) {
    assert_eq!(a.solution, b.solution, "{what}: bounds differ");
    assert_eq!(a.assignment, b.assignment, "{what}: label assignments differ");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{what}: total cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{what}: verification cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{what}: sampling cost differs");
}

/// A cache-on session and its cache-off reference over one workload, stepped
/// with identical inputs.
struct Lockstep<'w> {
    w: &'w Workload,
    cached: SessionState,
    reference: SessionState,
    what: String,
}

impl<'w> Lockstep<'w> {
    /// Both sessions rebuilt from `log`; an empty log starts fresh ones.
    fn resume(config: SessionConfig, w: &'w Workload, log: &[LabelResponse]) -> Self {
        Self {
            w,
            cached: SessionState::resume(config, w, log).unwrap(),
            reference: SessionState::resume(config, w, log).unwrap().with_replay_cache(false),
            what: format!("{config:?}"),
        }
    }

    fn preload(&mut self, labels: &[LabelResponse]) {
        self.cached.preload(labels.iter().copied());
        self.reference.preload(labels.iter().copied());
    }

    /// Steps both sessions and checks they agree. Returns the emitted batch,
    /// or `None` once both are done.
    fn step(&mut self, responses: &[LabelResponse]) -> Option<Vec<LabelRequest>> {
        let what = &self.what;
        let cached = self.cached.step(self.w, responses).unwrap();
        let reference = self.reference.step(self.w, responses).unwrap();
        let (a, b) = (&self.cached, &self.reference);
        assert_eq!(a.rounds(), b.rounds(), "{what}: rounds differ");
        assert_eq!(a.plan_rounds(), b.plan_rounds(), "{what}: plan rounds differ");
        assert_eq!(a.refine_rounds(), b.refine_rounds(), "{what}: refine rounds differ");
        assert_eq!(a.phase(), b.phase(), "{what}: phases differ");
        assert_eq!(a.answered_log(), b.answered_log(), "{what}: answered logs differ");
        match (cached, reference) {
            (Step::NeedLabels(x), Step::NeedLabels(y)) => {
                let ids =
                    |batch: &[LabelRequest]| batch.iter().map(|r| r.pair_id).collect::<Vec<_>>();
                assert_eq!(ids(&x), ids(&y), "{what}: emitted pair ids (in order) differ");
                assert!(!x.is_empty(), "{what}: empty batch");
                Some(x)
            }
            (Step::Done(x), Step::Done(y)) => {
                assert_outcomes_equal(&x, &y, what);
                None
            }
            _ => panic!("{what}: only one of the two sessions finished"),
        }
    }

    fn phase(&self) -> SessionPhase {
        self.cached.phase()
    }
}

/// Where a run interrupts its boundary search.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// No interruption.
    None,
    /// Preload labels ahead of the search at its `n`-th batch.
    Preload(usize),
    /// Resume both sessions at the `n`-th batch from the log cut inside it.
    Resume(usize),
}

/// Drives one configuration to completion with whole-batch answers, firing
/// `event` during the boundary search. Returns the number of boundary-search
/// batches seen and whether the event fired.
fn run(config: SessionConfig, w: &Workload, seed: u64, event: Event) -> (usize, bool) {
    let mut labeler = NoisyOracle::new(0.05, seed);
    let mut answer =
        |pair: &InstancePair| LabelResponse { pair_id: pair.id(), label: labeler.label(pair) };
    let mut lockstep = Lockstep::resume(config, w, &[]);
    let mut batch = lockstep.step(&[]).expect("no workload finishes without labels");
    let (mut searched, mut fired) = (0, false);
    loop {
        let mut responses: Vec<LabelResponse> =
            batch.iter().map(|request| answer(&w.pair(request.index))).collect();
        if lockstep.phase() == SessionPhase::BoundarySearch {
            searched += 1;
            match event {
                Event::Preload(at) if at == searched => {
                    // Label the batch's own pairs and the pairs around it in
                    // advance: the next replay joins several moves at once.
                    let lo = batch.iter().map(|r| r.index).min().unwrap().saturating_sub(1_500);
                    let hi = (batch.iter().map(|r| r.index).max().unwrap() + 1_500).min(w.len());
                    let ahead: Vec<LabelResponse> = (lo..hi).map(|i| answer(&w.pair(i))).collect();
                    lockstep.preload(&ahead);
                    responses.clear();
                    fired = true;
                }
                Event::Resume(at) if at == searched => {
                    // Answer half the batch, then rebuild both sessions from
                    // the log: the cut falls inside a boundary-search batch.
                    let half = responses.len().div_ceil(2);
                    lockstep.step(&responses[..half]);
                    let log = lockstep.cached.answered_log().to_vec();
                    lockstep = Lockstep::resume(config, w, &log);
                    responses.clear();
                    fired = true;
                }
                _ => {}
            }
        }
        match lockstep.step(&responses) {
            Some(next) => batch = next,
            None => return (searched, fired),
        }
        assert!(searched < 10_000, "{config:?}: session does not converge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
    #[test]
    fn resumed_boundary_searches_match_full_replay(
        tau in 8.0..18.0f64,
        sigma in 0.05..0.25f64,
        seed in 0u64..1_000,
        at in 1usize..4,
    ) {
        let w = workload(12_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for config in configs(requirement) {
            let (searched, _) = run(config, &w, seed, Event::None);
            prop_assert!(searched > 0, "{config:?}: no boundary search");
            for event in [Event::Preload(at.min(searched)), Event::Resume(at.min(searched))] {
                let (_, fired) = run(config, &w, seed, event);
                prop_assert!(fired, "{config:?}: {event:?} never fired");
            }
        }
    }
}
