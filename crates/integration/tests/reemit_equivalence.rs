//! Re-emission equivalence: a session with the replay cache enabled — which
//! hands a partly answered batch back without replaying the optimizer — must
//! stay in lockstep with the full-replay reference model (cache disabled)
//! under any trickle of answers. Both sessions get the same inputs, and after
//! every step they must agree on the emitted requests (pair ids, in order),
//! the round counters, the phase, the pending batch and the answered log; at
//! the end, on the outcome.
//!
//! The schedule mixes what real labelers do: a random share of the
//! outstanding batch answered per step, empty polls, duplicate answers (some
//! contradicting the first answer), answers for pairs not yet requested, and
//! a resume of both sessions from a prefix of their answered log.

use er_core::workload::{InstancePair, Label, Workload};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    LabelRequest, LabelResponse, LabelingSession, NoisyOracle, OptimizationOutcome, OptimizerKind,
    Oracle, QualityRequirement, SessionConfig, Step,
};
use proptest::prelude::*;

fn workload(n: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs: n, tau, sigma, subset_size: 200, seed })
        .generate()
}

/// Every optimizer the session runs: the four kinds plus the all-human
/// fallback.
fn configs(requirement: QualityRequirement) -> Vec<SessionConfig> {
    OptimizerKind::all()
        .into_iter()
        .map(|kind| SessionConfig::for_kind(kind, requirement))
        .chain([SessionConfig::AllHuman])
        .collect()
}

/// SplitMix64: the schedule's own seeded randomness.
struct Schedule(u64);

impl Schedule {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn percent(&mut self, p: usize) -> bool {
        self.below(100) < p
    }
}

fn flipped(response: LabelResponse) -> LabelResponse {
    LabelResponse { label: Label::from_bool(!response.label.is_match()), ..response }
}

fn assert_outcomes_equal(a: &OptimizationOutcome, b: &OptimizationOutcome, what: &str) {
    assert_eq!(a.solution, b.solution, "{what}: bounds differ");
    assert_eq!(a.assignment, b.assignment, "{what}: label assignments differ");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{what}: total cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{what}: verification cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{what}: sampling cost differs");
}

/// A cache-on session and its cache-off reference, stepped with identical
/// inputs.
struct Lockstep<'w> {
    cached: LabelingSession<'w>,
    reference: LabelingSession<'w>,
    what: String,
}

impl<'w> Lockstep<'w> {
    /// Both sessions rebuilt from `log`; an empty log starts fresh ones.
    fn resume(config: SessionConfig, w: &'w Workload, log: &[LabelResponse]) -> Self {
        Self {
            cached: LabelingSession::resume(config, w, log).unwrap(),
            reference: LabelingSession::resume(config, w, log).unwrap().with_replay_cache(false),
            what: format!("{config:?}"),
        }
    }

    /// Steps both sessions and checks they agree. Returns the emitted batch,
    /// or `None` once both are done.
    fn step(&mut self, responses: &[LabelResponse]) -> Option<Vec<LabelRequest>> {
        let what = &self.what;
        let cached = self.cached.step(responses).unwrap();
        let reference = self.reference.step(responses).unwrap();
        let (a, b) = (&self.cached, &self.reference);
        assert_eq!(a.rounds(), b.rounds(), "{what}: rounds differ");
        assert_eq!(a.plan_rounds(), b.plan_rounds(), "{what}: plan rounds differ");
        assert_eq!(a.refine_rounds(), b.refine_rounds(), "{what}: refine rounds differ");
        assert_eq!(a.phase(), b.phase(), "{what}: phases differ");
        assert_eq!(a.pending(), b.pending(), "{what}: pending batches differ");
        assert_eq!(a.answered_log(), b.answered_log(), "{what}: answered logs differ");
        match (cached, reference) {
            (Step::NeedLabels(x), Step::NeedLabels(y)) => {
                assert_eq!(x, y, "{what}: emitted requests (pair ids, order) differ");
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
}

/// Drives one configuration under a random trickle schedule, checking the
/// lockstep after every step. Returns the number of steps taken.
fn trickle(config: SessionConfig, w: &Workload, schedule: &mut Schedule, error: u64) -> usize {
    let mut labeler = NoisyOracle::new(0.05, error);
    let mut answer =
        |pair: &InstancePair| LabelResponse { pair_id: pair.id(), label: labeler.label(pair) };
    let mut lockstep = Lockstep::resume(config, w, &[]);
    let mut batch = lockstep.step(&[]).expect("no workload finishes without labels");
    let mut resumed = false;
    let mut steps = 1;
    loop {
        // Resume both sessions, once, from a prefix of their answered log.
        if !resumed && schedule.percent(2) {
            let log = lockstep.cached.answered_log().to_vec();
            let cut = schedule.below(log.len() + 1);
            lockstep = Lockstep::resume(config, w, &log[..cut]);
            resumed = true;
            batch = lockstep.step(&[]).expect("a resumed unfinished session needs labels");
            steps += 1;
            continue;
        }
        let mut responses: Vec<LabelResponse> = Vec::new();
        // An empty poll, or a random share of the outstanding batch.
        if !schedule.percent(15) {
            let share = schedule.below(101);
            for request in &batch {
                if schedule.percent(share) {
                    responses.push(answer(&w.pair(request.index)));
                }
            }
        }
        // Duplicates within the step: the same answer again, and a
        // contradicting one (the first answer wins).
        if !responses.is_empty() && schedule.percent(20) {
            let dup = responses[schedule.below(responses.len())];
            responses.push(flipped(dup));
            responses.push(dup);
        }
        // A contradicting answer for a pair answered in an earlier step.
        let log = lockstep.cached.answered_log();
        if !log.is_empty() && schedule.percent(10) {
            responses.push(flipped(log[schedule.below(log.len())]));
        }
        // An answer for a pair the session may not have asked about yet.
        if schedule.percent(10) {
            responses.push(answer(&w.pair(schedule.below(w.len()))));
        }
        match lockstep.step(&responses) {
            Some(next) => batch = next,
            None => return steps,
        }
        steps += 1;
        assert!(steps < 50_000, "{config:?}: session does not converge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
    #[test]
    fn cached_sessions_stay_in_lockstep_with_full_replay(
        tau in 8.0..18.0f64,
        sigma in 0.05..0.25f64,
        seed in 0u64..1_000,
        schedule_seed in 0u64..u64::MAX,
    ) {
        let w = workload(4_000, tau, sigma, seed);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let mut schedule = Schedule(schedule_seed);
        for config in configs(requirement) {
            let steps = trickle(config, &w, &mut schedule, seed);
            prop_assert!(steps > 1);
        }
    }
}
