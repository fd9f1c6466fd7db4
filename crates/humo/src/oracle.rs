//! The human oracle: one possible *driver* of a labeling session, with cost
//! accounting.
//!
//! The paper quantifies human cost as "the number of manually inspected instance
//! pairs". Since the sans-I/O redesign, the optimizers themselves never talk to
//! a human directly: they run as [`LabelingSession`](crate::LabelingSession)
//! state machines that *emit* batches of [`LabelRequest`](crate::LabelRequest)s
//! and are *driven* with [`LabelResponse`](crate::LabelResponse)s — by a
//! crowdsourcing dispatcher, a labeling UI, a checkpoint/resume loop, or
//! anything else that can produce labels asynchronously.
//!
//! An [`Oracle`] is the simplest such driver: a synchronous label source that
//! answers every request immediately.
//! [`LabelingSession::drive`](crate::LabelingSession::drive) feeds each emitted
//! batch through [`Oracle::label_batch`] until the session completes. An
//! oracle deduplicates repeated requests for the same pair and reports the
//! number of *distinct* pairs inspected — the paper's human-cost metric.
//!
//! Two oracles are provided:
//!
//! * [`GroundTruthOracle`] — the paper's operating assumption (Section IV-A):
//!   manual labels are 100 % accurate;
//! * [`NoisyOracle`] — flips each label with a configurable probability, used by
//!   the failure-injection tests to study what happens when the human is
//!   imperfect. Each flip is a pure function of `(seed, pair id)`, so the
//!   answers do not depend on the order (or batching) in which pairs are asked
//!   — a requirement for batched/parallel dispatch, where arrival order is
//!   nondeterministic.

use crate::crowd::WorkerModel;
use er_core::workload::{InstancePair, Label, PairId};
use std::collections::BTreeMap;

/// A source of manual labels with cost accounting.
///
/// Implementations answer synchronously; they are the simplest way to drive a
/// [`LabelingSession`](crate::LabelingSession) to completion
/// (via [`LabelingSession::drive`](crate::LabelingSession::drive)). Systems
/// whose labels arrive asynchronously should skip this trait entirely and feed
/// the session's emitted request batches directly.
pub trait Oracle {
    /// Manually labels an instance pair. Asking about the same pair twice must
    /// not increase the reported cost.
    fn label(&mut self, pair: &InstancePair) -> Label;

    /// Labels a batch of pairs in one call, in request order.
    ///
    /// The default implementation simply labels one pair at a time; custom
    /// oracles can override it to amortize per-batch work (dispatching one
    /// crowdsourcing task per batch, bulk-loading context, …). The session
    /// driver routes every emitted request batch through this method, passing
    /// the pairs it decoded from the workload.
    fn label_batch(&mut self, pairs: &[InstancePair]) -> Vec<Label> {
        pairs.iter().map(|pair| self.label(pair)).collect()
    }

    /// Number of *distinct* pairs labeled so far — the human cost.
    fn labels_issued(&self) -> usize;
}

/// A perfect human: returns the ground-truth label of every pair.
#[derive(Debug, Clone, Default)]
pub struct GroundTruthOracle {
    labeled: BTreeMap<PairId, Label>,
}

impl GroundTruthOracle {
    /// Creates a fresh oracle with zero cost.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Oracle for GroundTruthOracle {
    fn label(&mut self, pair: &InstancePair) -> Label {
        *self.labeled.entry(pair.id()).or_insert_with(|| pair.ground_truth())
    }

    fn labels_issued(&self) -> usize {
        self.labeled.len()
    }
}

/// An imperfect human: flips the ground-truth label with probability
/// `error_rate`.
///
/// Since the `er-crowd` refactor this is a thin wrapper over a single
/// symmetric [`WorkerModel`] — a crowd of one.
/// Whether a pair's label is flipped is a pure function of the oracle's seed
/// and the pair's id, so the same pair always gets the same answer *and* the
/// answers are independent of query order: labeling pairs one by one, in
/// permuted order, or in parallel batches yields identical labels. The flip
/// decision is bit-for-bit the SplitMix64 draw this oracle has always used
/// (pinned by the `flip_decisions_are_pinned_to_the_splitmix64_draw`
/// regression test), so existing seeds keep producing the same noise.
#[derive(Debug, Clone)]
pub struct NoisyOracle {
    worker: WorkerModel,
    labeled: BTreeMap<PairId, Label>,
}

impl NoisyOracle {
    /// Creates a noisy oracle with the given per-pair error probability.
    ///
    /// # Panics
    /// Panics if `error_rate` is not in `[0, 1]`.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        Self { worker: WorkerModel::symmetric(error_rate, seed), labeled: BTreeMap::new() }
    }

    /// The configured error rate.
    pub fn error_rate(&self) -> f64 {
        self.worker.flip_match()
    }
}

impl Oracle for NoisyOracle {
    fn label(&mut self, pair: &InstancePair) -> Label {
        let worker = self.worker;
        *self.labeled.entry(pair.id()).or_insert_with(|| {
            Label::from_bool(worker.vote(pair.id().0, pair.ground_truth() == Label::Match))
        })
    }

    fn labels_issued(&self) -> usize {
        self.labeled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::workload::{InstancePair, PairId};

    fn pair(id: u64, sim: f64, is_match: bool) -> InstancePair {
        InstancePair::new(PairId(id), sim, Label::from_bool(is_match))
    }

    #[test]
    fn ground_truth_oracle_returns_truth_and_counts_distinct_pairs() {
        let mut oracle = GroundTruthOracle::new();
        let a = pair(1, 0.9, true);
        let b = pair(2, 0.1, false);
        assert_eq!(oracle.label(&a), Label::Match);
        assert_eq!(oracle.label(&b), Label::Unmatch);
        assert_eq!(oracle.label(&a), Label::Match);
        assert_eq!(oracle.labels_issued(), 2);
    }

    #[test]
    fn label_batch_default_matches_sequential_labeling_and_order() {
        let mut batched = GroundTruthOracle::new();
        let mut sequential = GroundTruthOracle::new();
        let pairs: Vec<InstancePair> = (0..20).map(|i| pair(i, 0.5, i % 3 == 0)).collect();
        let batch_labels = batched.label_batch(&pairs);
        let seq_labels: Vec<Label> = pairs.iter().map(|p| sequential.label(p)).collect();
        assert_eq!(batch_labels, seq_labels);
        assert_eq!(batched.labels_issued(), sequential.labels_issued());
    }

    #[test]
    fn noisy_oracle_is_consistent_per_pair() {
        let mut oracle = NoisyOracle::new(0.5, 3);
        let a = pair(7, 0.5, true);
        let first = oracle.label(&a);
        for _ in 0..10 {
            assert_eq!(oracle.label(&a), first);
        }
        assert_eq!(oracle.labels_issued(), 1);
    }

    #[test]
    fn noisy_oracle_with_zero_error_matches_ground_truth() {
        let mut oracle = NoisyOracle::new(0.0, 3);
        for i in 0..100 {
            let p = pair(i, 0.5, i % 3 == 0);
            assert_eq!(oracle.label(&p), p.ground_truth());
        }
    }

    #[test]
    fn noisy_oracle_error_rate_is_roughly_respected() {
        let mut oracle = NoisyOracle::new(0.2, 5);
        let mut errors = 0;
        let n = 5_000;
        for i in 0..n {
            let p = pair(i, 0.5, i % 2 == 0);
            if oracle.label(&p) != p.ground_truth() {
                errors += 1;
            }
        }
        let rate = errors as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn noisy_oracle_labels_are_independent_of_query_order() {
        // The same pairs asked in forward, reverse and interleaved order — and
        // as one batch — must receive identical labels. This is the invariant
        // batched/parallel dispatch relies on: arrival order is
        // nondeterministic, the labels must not be.
        let pairs: Vec<InstancePair> = (0..500).map(|i| pair(i, 0.5, i % 2 == 0)).collect();
        let forward: BTreeMap<PairId, Label> = {
            let mut oracle = NoisyOracle::new(0.3, 17);
            pairs.iter().map(|p| (p.id(), oracle.label(p))).collect()
        };
        let reversed: BTreeMap<PairId, Label> = {
            let mut oracle = NoisyOracle::new(0.3, 17);
            pairs.iter().rev().map(|p| (p.id(), oracle.label(p))).collect()
        };
        let interleaved: BTreeMap<PairId, Label> = {
            let mut oracle = NoisyOracle::new(0.3, 17);
            let (evens, odds): (Vec<_>, Vec<_>) = pairs.iter().partition(|p| p.id().0 % 2 == 0);
            odds.into_iter().chain(evens).map(|p| (p.id(), oracle.label(p))).collect()
        };
        let batched: BTreeMap<PairId, Label> = {
            let mut oracle = NoisyOracle::new(0.3, 17);
            pairs.iter().map(InstancePair::id).zip(oracle.label_batch(&pairs)).collect()
        };
        assert_eq!(forward, reversed);
        assert_eq!(forward, interleaved);
        assert_eq!(forward, batched);
        // Different seeds still produce different flip patterns.
        let other_seed: BTreeMap<PairId, Label> = {
            let mut oracle = NoisyOracle::new(0.3, 18);
            pairs.iter().map(|p| (p.id(), oracle.label(p))).collect()
        };
        assert_ne!(forward, other_seed);
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn noisy_oracle_rejects_invalid_error_rate() {
        let _ = NoisyOracle::new(1.5, 1);
    }

    /// The historical flip function, verbatim: the SplitMix64 finalizer over
    /// `seed ^ (pair * golden_gamma)`. `NoisyOracle` now delegates to
    /// `er_crowd::WorkerModel`, and this test pins that the delegation is
    /// byte-identical — same seeds, same flips — across batch permutations.
    #[test]
    fn flip_decisions_are_pinned_to_the_splitmix64_draw() {
        fn legacy_unit_draw(seed: u64, pair: PairId) -> f64 {
            let mut z = seed ^ pair.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
        let legacy_label = |error_rate: f64, seed: u64, p: &InstancePair| {
            if legacy_unit_draw(seed, p.id()) < error_rate {
                match p.ground_truth() {
                    Label::Match => Label::Unmatch,
                    Label::Unmatch => Label::Match,
                }
            } else {
                p.ground_truth()
            }
        };
        let pairs: Vec<InstancePair> =
            (0..2_000u64).map(|i| pair(i.wrapping_mul(0x51_7C_C1), 0.5, i % 3 == 0)).collect();
        for (error_rate, seed) in [(0.2, 5u64), (0.3, 17), (0.01, 0), (0.5, u64::MAX)] {
            let expected: Vec<Label> =
                pairs.iter().map(|p| legacy_label(error_rate, seed, p)).collect();
            // One at a time, forward.
            let mut oracle = NoisyOracle::new(error_rate, seed);
            let forward: Vec<Label> = pairs.iter().map(|p| oracle.label(p)).collect();
            assert_eq!(forward, expected);
            // Reverse order, then read back forward.
            let mut oracle = NoisyOracle::new(error_rate, seed);
            for p in pairs.iter().rev() {
                oracle.label(p);
            }
            let reversed: Vec<Label> = pairs.iter().map(|p| oracle.label(p)).collect();
            assert_eq!(reversed, expected);
            // Two interleaved batches.
            let mut oracle = NoisyOracle::new(error_rate, seed);
            let (evens, odds): (Vec<_>, Vec<_>) =
                pairs.iter().cloned().partition(|p| p.id().0 % 2 == 0);
            oracle.label_batch(&odds);
            oracle.label_batch(&evens);
            let batched: Vec<Label> = pairs.iter().map(|p| oracle.label(p)).collect();
            assert_eq!(batched, expected);
        }
    }
}
