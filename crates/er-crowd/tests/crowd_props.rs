//! Property tests for the crowd machinery: EM recovers planted worker
//! reliabilities, never overrules a unanimous vote, and aggregation is
//! invariant to the order and batching in which votes arrive.

use er_crowd::{
    estimate, mix, Aggregation, CrowdConfig, CrowdPlan, EmConfig, VoteAsk, VoteMatrix, WorkerId,
    WorkerModel,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A pool whose planted flip rates fan out from `base` in both confusion
/// directions, so every worker is distinguishable.
fn planted_pool(n: usize, base: f64, seed: u64) -> Vec<WorkerModel> {
    (0..n)
        .map(|w| {
            let fm = (base + 0.03 * w as f64).min(0.4);
            let fu = (base + 0.02 * (n - 1 - w) as f64).min(0.4);
            WorkerModel::new(fm, fu, mix(seed, w as u64))
        })
        .collect()
}

/// Ground truth for a synthetic pair id: roughly one third matches.
fn truth(pair: u64) -> bool {
    pair.is_multiple_of(3)
}

/// Fills a full vote matrix: every worker votes on every pair.
fn full_matrix(pool: &[WorkerModel], pairs: u64) -> VoteMatrix {
    let mut matrix = VoteMatrix::new();
    for pair in 0..pairs {
        for (w, worker) in pool.iter().enumerate() {
            matrix.record(pair, WorkerId(w as u32), worker.vote(pair, truth(pair)));
        }
    }
    matrix
}

/// Drives a plan to completion against simulated workers, feeding votes back
/// in an order controlled by `scramble`, and returns the decided labels.
fn drive(
    config: CrowdConfig,
    pool: &[WorkerModel],
    pairs: &[u64],
    scramble: bool,
) -> (BTreeMap<u64, bool>, u64) {
    let mut plan = CrowdPlan::new(config);
    let mut asks: Vec<VoteAsk> = Vec::new();
    for &pair in pairs {
        plan.submit(pair, &mut asks);
    }
    if scramble {
        asks.reverse();
    }
    while !asks.is_empty() {
        // The scrambled run serves newest-first, so escalations jump the
        // queue; the forward run strictly first-in-first-out.
        let ask = if scramble { asks.pop().expect("non-empty") } else { asks.remove(0) };
        let vote = pool[ask.worker.0 as usize].vote(ask.pair, truth(ask.pair));
        asks.extend(plan.absorb(ask.pair, ask.worker, vote));
    }
    let completed = plan.take_completed();
    let labels = plan.decide(&completed).into_iter().collect();
    (labels, plan.stats().votes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// With every worker voting on every pair, EM's reliability estimates land
    /// within a small tolerance of the planted confusion matrices. The base
    /// rate stays in the identifiable regime — when an entire pool pushes
    /// toward 0.4+ flip rates, the latent labels themselves become ambiguous
    /// and no aggregator can attribute the noise to individual workers.
    #[test]
    fn em_recovers_planted_reliabilities(base in 0.02..0.15f64, seed in 0u64..500) {
        let pool = planted_pool(5, base, seed);
        let matrix = full_matrix(&pool, 900);
        let outcome = estimate(&matrix, &EmConfig::default());
        let mut total_error = 0.0;
        for (w, worker) in pool.iter().enumerate() {
            let est = &outcome.reliabilities[&WorkerId(w as u32)];
            let fm_err = (est.flip_match - worker.flip_match()).abs();
            let fu_err = (est.flip_unmatch - worker.flip_unmatch()).abs();
            prop_assert!(
                fm_err < 0.12 && fu_err < 0.12,
                "worker {w}: estimated ({:.3}, {:.3}) vs planted ({:.3}, {:.3})",
                est.flip_match, est.flip_unmatch, worker.flip_match(), worker.flip_unmatch(),
            );
            total_error += fm_err + fu_err;
        }
        prop_assert!(total_error / (2.0 * pool.len() as f64) < 0.06, "mean error {total_error}");
    }

    /// EM never flips a unanimous vote, whatever reliabilities it infers from
    /// the rest of the matrix.
    #[test]
    fn em_never_flips_a_unanimous_vote(base in 0.05..0.45f64, seed in 0u64..500) {
        let pool = planted_pool(5, base, seed);
        let matrix = full_matrix(&pool, 400);
        let outcome = estimate(&matrix, &EmConfig::default());
        let mut unanimous = 0usize;
        for (pair, row) in matrix.rows() {
            let votes: Vec<bool> = row.values().copied().collect();
            if votes.iter().all(|&v| v) || votes.iter().all(|&v| !v) {
                unanimous += 1;
                prop_assert!(
                    outcome.labels[&pair] == votes[0],
                    "unanimous pair {pair} was flipped"
                );
            }
        }
        prop_assert!(unanimous > 0, "grid produced no unanimous pair — vacuous case");
    }

    /// Decided labels and total vote cost do not depend on the order (or
    /// batching) in which votes arrive — for majority and for EM, fixed and
    /// adaptive redundancy alike.
    #[test]
    fn aggregation_is_invariant_to_vote_arrival_order(
        error in 0.0..0.4f64,
        seed in 0u64..500,
        adaptive in 0u64..2,
        em in 0u64..2,
    ) {
        let (adaptive, em) = (adaptive == 1, em == 1);
        let pool: Vec<WorkerModel> =
            (0..7).map(|w| WorkerModel::symmetric(error, mix(seed, w))).collect();
        let redundancy = if adaptive {
            er_crowd::Redundancy::Adaptive { min: 2, max: 5 }
        } else {
            er_crowd::Redundancy::Fixed(3)
        };
        let aggregation =
            if em { Aggregation::Em(EmConfig::default()) } else { Aggregation::Majority };
        let config = CrowdConfig { pool_size: pool.len(), redundancy, aggregation, seed };
        let forward_pairs: Vec<u64> = (0..240).collect();
        let mut reversed_pairs = forward_pairs.clone();
        reversed_pairs.reverse();
        let (forward, forward_votes) = drive(config.clone(), &pool, &forward_pairs, false);
        let (scrambled, scrambled_votes) = drive(config, &pool, &reversed_pairs, true);
        prop_assert_eq!(forward, scrambled);
        prop_assert_eq!(forward_votes, scrambled_votes);
    }
}
