//! Differential property test: the slot-table `CrowdPlan` against the
//! `BTreeMap` plan it replaced (kept verbatim in `reference/`).
//!
//! Each case draws a random schedule over a small pair universe, so pairs
//! collide constantly: batches that submit and re-submit pairs (the same pair
//! twice in one batch included), votes delivered out of order, duplicated,
//! from workers never asked, for unknown pairs and for pairs already
//! completed, interleaved `take_completed`/`decide` calls (also on pairs that
//! are still pending or were never submitted) and `outstanding` snapshots.
//! After every operation both plans must agree on every observable: the asks
//! and their order, escalations, `stats()`, decisions, `outstanding()` and
//! `last_em()`.

mod reference;

use er_crowd::{
    mix, unit_draw, Aggregation, CrowdConfig, CrowdPlan, EmConfig, EmOutcome, Redundancy, VoteAsk,
    WorkerId, WorkerModel,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Pairs the schedule draws from.
const UNIVERSE: u64 = 24;
/// Operations per schedule.
const OPERATIONS: usize = 400;

/// A deterministic stream of draws for one schedule.
struct Draws {
    seed: u64,
    next: u64,
}

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.next += 1;
        (unit_draw(self.seed, self.next) * n as f64) as u64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.next += 1;
        unit_draw(self.seed, self.next) < p
    }
}

fn pairs_and_workers(asks: &[VoteAsk]) -> Vec<(u64, WorkerId)> {
    asks.iter().map(|ask| (ask.pair, ask.worker)).collect()
}

fn reference_asks(asks: &[reference::VoteAsk]) -> Vec<(u64, WorkerId)> {
    asks.iter().map(|ask| (ask.pair, ask.worker)).collect()
}

/// `last_em` outcomes compared bit for bit.
fn em_bits(em: Option<&EmOutcome>) -> Option<String> {
    em.map(|em| {
        let posteriors: Vec<(u64, u64)> =
            em.posteriors.iter().map(|(&pair, p)| (pair, p.to_bits())).collect();
        let reliabilities: Vec<(WorkerId, u64, u64, usize)> = em
            .reliabilities
            .iter()
            .map(|(&w, r)| (w, r.flip_match.to_bits(), r.flip_unmatch.to_bits(), r.votes))
            .collect();
        format!("{posteriors:?} {:?} {reliabilities:?} {}", em.labels, em.iterations)
    })
}

/// Every ask must carry the slot its pair was filed under.
fn check_slots(asks: &[VoteAsk], slots: &BTreeMap<u64, u32>) -> Result<(), TestCaseError> {
    for ask in asks {
        prop_assert_eq!(Some(&ask.slot), slots.get(&ask.pair));
    }
    Ok(())
}

fn run_schedule(
    redundancy: Redundancy,
    aggregation: Aggregation,
    error: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    const POOL: usize = 7;
    let config = CrowdConfig { pool_size: POOL, redundancy, aggregation, seed };
    let mut plan = CrowdPlan::new(config.clone());
    let mut model = reference::CrowdPlan::new(config);
    let workers: Vec<WorkerModel> =
        (0..POOL).map(|w| WorkerModel::symmetric(error, mix(seed, w as u64))).collect();
    let truth = |pair: u64| pair.is_multiple_of(3);
    let mut draws = Draws { seed: mix(seed, 0xD1FF), next: 0 };
    // Asks emitted so far, some delivered more than once.
    let mut inflight: Vec<(u64, WorkerId)> = Vec::new();
    let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
    let mut asks = Vec::new();
    for _ in 0..OPERATIONS {
        match draws.below(100) {
            // Submit a batch; pairs repeat within and across batches.
            0..=29 => {
                for _ in 0..=draws.below(5) {
                    let pair = draws.below(UNIVERSE);
                    asks.clear();
                    let submission = plan.submit(pair, &mut asks);
                    let expected = model.submit(pair);
                    prop_assert_eq!(pairs_and_workers(&asks), reference_asks(&expected));
                    prop_assert_eq!(submission.decision, model.decision(pair));
                    let filed = *slots.entry(pair).or_insert(submission.slot);
                    prop_assert_eq!(submission.slot, filed);
                    check_slots(&asks, &slots)?;
                    inflight.extend(pairs_and_workers(&asks));
                }
            }
            // Deliver an emitted ask, out of order; sometimes keep it around
            // so it is delivered again later as a duplicate.
            30..=69 if !inflight.is_empty() => {
                let at = draws.below(inflight.len() as u64) as usize;
                let (pair, worker) =
                    if draws.chance(0.2) { inflight[at] } else { inflight.swap_remove(at) };
                let vote = if draws.chance(0.1) {
                    draws.chance(0.5)
                } else {
                    workers[worker.0 as usize].vote(pair, truth(pair))
                };
                let escalation = plan.absorb(pair, worker, vote);
                let expected = model.absorb(pair, worker, vote);
                let got: Vec<VoteAsk> = escalation.into_iter().collect();
                prop_assert_eq!(pairs_and_workers(&got), reference_asks(&expected));
                check_slots(&got, &slots)?;
                inflight.extend(pairs_and_workers(&got));
            }
            // A vote from any worker on any pair: unknown, completed, decided
            // pairs and unasked workers included.
            30..=79 => {
                let pair = draws.below(UNIVERSE + 4);
                let worker = WorkerId(draws.below(POOL as u64) as u32);
                let vote = draws.chance(0.5);
                let got: Vec<VoteAsk> = plan.absorb(pair, worker, vote).into_iter().collect();
                let expected = model.absorb(pair, worker, vote);
                prop_assert_eq!(pairs_and_workers(&got), reference_asks(&expected));
                check_slots(&got, &slots)?;
                inflight.extend(pairs_and_workers(&got));
            }
            // Drain the completed pairs and decide them, sometimes with other
            // pairs mixed in or not at all.
            80..=91 => {
                let completed = plan.take_completed();
                prop_assert_eq!(&completed, &model.take_completed());
                let mut decide = if draws.chance(0.85) { completed } else { Vec::new() };
                if draws.chance(0.15) {
                    decide.push(draws.below(UNIVERSE + 4));
                }
                prop_assert_eq!(plan.decide(&decide), model.decide(&decide));
            }
            // Decide arbitrary pairs outside the protocol.
            92..=94 => {
                let decide: Vec<u64> =
                    (0..=draws.below(3)).map(|_| draws.below(UNIVERSE + 4)).collect();
                prop_assert_eq!(plan.decide(&decide), model.decide(&decide));
            }
            // A driver that lost its queue re-dispatches the outstanding asks.
            _ => {
                let outstanding = plan.outstanding();
                prop_assert_eq!(
                    pairs_and_workers(&outstanding),
                    reference_asks(&model.outstanding())
                );
                check_slots(&outstanding, &slots)?;
                if draws.chance(0.5) {
                    inflight = pairs_and_workers(&outstanding);
                }
            }
        }
        prop_assert_eq!(plan.stats(), model.stats());
        prop_assert_eq!(em_bits(plan.last_em()), em_bits(model.last_em()));
    }
    let stats = model.stats();
    prop_assert!(stats.votes > 0 && stats.decided > 0, "vacuous schedule: {stats:?}");
    for pair in 0..UNIVERSE + 4 {
        prop_assert_eq!((pair, plan.decision(pair)), (pair, model.decision(pair)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The slot table and the reference plan agree on every observable under
    /// random schedules, for fixed and adaptive redundancy, majority and EM.
    #[test]
    fn slot_plan_matches_the_reference_plan(
        seed in 0u64..1_000_000,
        error in 0.0..0.45f64,
        adaptive in 0u64..2,
        em in 0u64..2,
        low in 1usize..4,
        extra in 0usize..3,
    ) {
        let redundancy = if adaptive == 1 {
            Redundancy::Adaptive { min: low, max: low + extra }
        } else {
            Redundancy::Fixed(low + extra)
        };
        let aggregation =
            if em == 1 { Aggregation::Em(EmConfig::default()) } else { Aggregation::Majority };
        run_schedule(redundancy, aggregation, error, seed)?;
    }
}
