//! Crowd labeling adapters: [`CrowdOracle`] and [`CrowdSession`] on top of
//! the `er-crowd` worker/assignment/aggregation machinery.
//!
//! `er-crowd` models the crowd in raw `u64`/`bool` vocabulary so it stays
//! dependency-free; this module speaks HUMO's: [`CrowdOracle`] implements
//! [`Oracle`], so a redundantly-voted, aggregated crowd drops into every
//! existing session driver in place of [`GroundTruthOracle`](crate::GroundTruthOracle)
//! — and [`CrowdSession`] is the sans-I/O shape, turning a labeling session's
//! [`LabelRequest`] batches into per-worker [`VoteRequest`]s and absorbed
//! [`WorkerVote`]s back into aggregated [`LabelResponse`]s. Only those
//! aggregated responses reach the session (and thus any attached write-ahead
//! log); raw votes stay in the crowd layer, so crash-safe resume is untouched:
//! a resumed driver re-votes only the pairs whose aggregation never completed,
//! and — votes being pure functions of `(worker seed, pair id)` — reproduces
//! identical labels.
//!
//! Determinism caveat: [`Aggregation::Em`] decides labels from *all* votes
//! collected so far, so a pair's label can depend on which other pairs were in
//! scope at decision time. Per-pair replay-invariance (the property the
//! kill-and-resume byte-identity tests pin) holds for
//! [`Aggregation::Majority`] and for adaptive escalation, whose decisions are
//! pure per-pair functions; use EM where aggregation scope is deterministic
//! (batch-scoped benches, offline re-aggregation).
//!
//! The `crowd.*` observability family (emitted through the configured
//! [`ObsHandle`], documented in the README schema):
//!
//! * `crowd.votes` — counter: votes recorded;
//! * `crowd.disagreements` — counter: pairs whose final vote set disagreed;
//! * `crowd.escalations` — counter: extra assignments beyond the initial
//!   redundancy;
//! * `crowd.labels` — counter: aggregated labels decided;
//! * `crowd.em.runs` / `crowd.em.iterations` — counters: EM passes and their
//!   total iterations;
//! * `crowd.reliability_abs_error` — gauge: mean |estimated − true| flip rate
//!   over the worker pool, after each EM pass (simulated workers only — the
//!   truth is known there).

use crate::oracle::Oracle;
use crate::session::{LabelRequest, LabelResponse};
use er_core::workload::{InstancePair, Label, PairId};
use er_crowd::{CrowdConfig, CrowdPlan, Submission, VoteAsk};
use er_obs::ObsHandle;
use std::collections::BTreeMap;

pub use er_crowd::{
    mix, Aggregation, CrowdStats, EmConfig, Redundancy, WorkerId, WorkerModel, WorkerReliability,
};

/// A request for one worker's vote on one requested pair. Carries the
/// originating [`LabelRequest`] so any driver that can answer label requests
/// (by index, by pair id) can answer vote requests the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoteRequest {
    /// The label request this vote contributes to.
    pub request: LabelRequest,
    /// The worker asked to vote.
    pub worker: WorkerId,
}

/// One worker's vote on one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerVote {
    /// The pair voted on.
    pub pair_id: PairId,
    /// The voting worker.
    pub worker: WorkerId,
    /// The worker's verdict.
    pub label: Label,
}

/// Shared obs-emission state: the last stats snapshot already reported.
#[derive(Debug, Default)]
struct ObsCursor {
    reported: CrowdStats,
}

impl ObsCursor {
    /// Emits the delta between `stats` and the last reported snapshot on the
    /// `crowd.*` counters, plus the reliability gauge when EM ran.
    fn flush(&mut self, obs: &ObsHandle, stats: CrowdStats, reliability_error: Option<f64>) {
        if !obs.is_enabled() {
            self.reported = stats;
            return;
        }
        let prev = self.reported;
        for (name, delta) in [
            ("crowd.votes", stats.votes - prev.votes),
            ("crowd.disagreements", stats.disagreements - prev.disagreements),
            ("crowd.escalations", stats.escalations - prev.escalations),
            ("crowd.labels", stats.decided - prev.decided),
            ("crowd.em.runs", stats.em_runs - prev.em_runs),
            ("crowd.em.iterations", stats.em_iterations - prev.em_iterations),
        ] {
            if delta > 0 {
                obs.counter(name, delta);
            }
        }
        if stats.em_runs > prev.em_runs {
            if let Some(error) = reliability_error {
                obs.gauge("crowd.reliability_abs_error", error);
            }
        }
        self.reported = stats;
    }
}

/// Mean absolute error between EM-estimated and true flip rates, over the
/// workers the estimate covers (both directions of the confusion matrix).
fn reliability_abs_error(plan: &CrowdPlan, workers: &[WorkerModel]) -> Option<f64> {
    let em = plan.last_em()?;
    if em.reliabilities.is_empty() {
        return None;
    }
    let mut error = 0.0;
    let mut terms = 0usize;
    for (&worker, estimate) in &em.reliabilities {
        let Some(truth) = workers.get(worker.0 as usize) else { continue };
        error += (estimate.flip_match - truth.flip_match()).abs();
        error += (estimate.flip_unmatch - truth.flip_unmatch()).abs();
        terms += 2;
    }
    (terms > 0).then(|| error / terms as f64)
}

/// Builds a pool of `n` symmetric workers with the given error rate, each
/// seeded independently from `seed` (lane-mixed, so pools with the same seed
/// are reproducible and workers within a pool are independent).
pub fn symmetric_pool(n: usize, error_rate: f64, seed: u64) -> Vec<WorkerModel> {
    (0..n).map(|w| WorkerModel::symmetric(error_rate, mix(seed, w as u64))).collect()
}

/// A crowd of simulated workers behind the [`Oracle`] interface.
///
/// Each labeled pair is fanned out to distinct workers per the configured
/// [`Redundancy`], escalated on disagreement, and aggregated per the
/// configured [`Aggregation`]; the plan keeps the aggregated label, so repeated
/// queries are consistent and [`Oracle::labels_issued`] counts distinct
/// *labels* (the paper's human-cost unit) while [`CrowdOracle::votes_cast`]
/// counts the underlying vote cost. With `Redundancy::Fixed(1)` and zero-noise
/// workers this oracle is byte-identical to
/// [`GroundTruthOracle`](crate::GroundTruthOracle).
#[derive(Debug)]
pub struct CrowdOracle {
    workers: Vec<WorkerModel>,
    plan: CrowdPlan,
    obs: ObsHandle,
    cursor: ObsCursor,
}

impl CrowdOracle {
    /// Creates a crowd oracle over the given worker pool.
    ///
    /// # Panics
    /// Panics if the pool is empty or the redundancy does not fit it.
    pub fn new(
        workers: Vec<WorkerModel>,
        redundancy: Redundancy,
        aggregation: Aggregation,
        seed: u64,
    ) -> Self {
        assert!(!workers.is_empty(), "crowd oracle needs at least one worker");
        let plan =
            CrowdPlan::new(CrowdConfig { pool_size: workers.len(), redundancy, aggregation, seed });
        Self { workers, plan, obs: ObsHandle::default(), cursor: ObsCursor::default() }
    }

    /// Routes the `crowd.*` events through the given handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The worker pool.
    pub fn workers(&self) -> &[WorkerModel] {
        &self.workers
    }

    /// Running crowd totals (votes, disagreements, escalations, EM passes).
    pub fn stats(&self) -> CrowdStats {
        self.plan.stats()
    }

    /// Votes cast so far.
    pub fn votes_cast(&self) -> u64 {
        self.plan.stats().votes
    }

    /// Votes per delivered label — the label-cost multiplier versus a single
    /// perfect oracle. `Redundancy::Fixed(r)` pins this at exactly `r`;
    /// adaptive redundancy lands between `min` and `max`.
    pub fn cost_multiplier(&self) -> f64 {
        let labels = self.labels_issued();
        if labels == 0 {
            return 0.0;
        }
        self.votes_cast() as f64 / labels as f64
    }

    /// Mean absolute error of the latest EM reliability estimates against the
    /// true worker flip rates, when EM has run.
    pub fn reliability_abs_error(&self) -> Option<f64> {
        reliability_abs_error(&self.plan, &self.workers)
    }

    fn vote(&self, ask: VoteAsk, truth_is_match: bool) -> bool {
        self.workers[ask.worker.0 as usize].vote(ask.pair, truth_is_match)
    }
}

impl Oracle for CrowdOracle {
    fn label(&mut self, pair: &InstancePair) -> Label {
        self.label_batch(std::slice::from_ref(pair)).pop().expect("one label per request")
    }

    /// Labels the batch by collecting (and possibly escalating) votes for
    /// every new pair, then aggregating once over the completed set — so an
    /// EM aggregation's scope is the accumulated vote matrix at batch
    /// boundaries, matching how an offline crowd round-trip would run.
    fn label_batch(&mut self, pairs: &[InstancePair]) -> Vec<Label> {
        let mut asks = Vec::new();
        for pair in pairs {
            let truth_is_match = pair.ground_truth() == Label::Match;
            self.plan.submit(pair.id().0, &mut asks);
            while let Some(ask) = asks.pop() {
                let vote = self.vote(ask, truth_is_match);
                asks.extend(self.plan.absorb(ask.pair, ask.worker, vote));
            }
        }
        let completed = self.plan.take_completed();
        self.plan.decide(&completed);
        let error = reliability_abs_error(&self.plan, &self.workers);
        self.cursor.flush(&self.obs, self.plan.stats(), error);
        pairs
            .iter()
            .map(|pair| {
                let is_match = self.plan.decision(pair.id().0).expect("batch pair was decided");
                Label::from_bool(is_match)
            })
            .collect()
    }

    fn labels_issued(&self) -> usize {
        self.plan.stats().decided as usize
    }
}

/// The sans-I/O crowd wrapper: sits between a labeling session and whatever
/// answers votes (simulated workers, a task queue, real people).
///
/// Protocol, re-entrant at every step:
///
/// 1. [`submit`](CrowdSession::submit) the session's outstanding
///    [`LabelRequest`]s → dispatch the returned [`VoteRequest`]s
///    (re-submitting a known pair re-emits only its unanswered votes);
/// 2. [`absorb`](CrowdSession::absorb) arriving [`WorkerVote`]s (any order,
///    any batching) → dispatch any returned *escalation* requests;
/// 3. [`take_ready`](CrowdSession::take_ready) the aggregated
///    [`LabelResponse`]s and step the session with them.
///
/// Only aggregated responses leave this wrapper, so a session's write-ahead
/// log (and therefore crash-safe resume) never sees raw votes.
#[derive(Debug)]
pub struct CrowdSession {
    plan: CrowdPlan,
    /// The latest request submitted for each pair, indexed by its plan slot.
    requests: Vec<LabelRequest>,
    ready: BTreeMap<PairId, Label>,
    obs: ObsHandle,
    cursor: ObsCursor,
}

impl CrowdSession {
    /// Creates a crowd session planning over a pool of `pool_size` workers.
    ///
    /// # Panics
    /// Panics if the pool is empty or the redundancy does not fit it.
    pub fn new(
        pool_size: usize,
        redundancy: Redundancy,
        aggregation: Aggregation,
        seed: u64,
    ) -> Self {
        let plan = CrowdPlan::new(CrowdConfig { pool_size, redundancy, aggregation, seed });
        Self {
            plan,
            requests: Vec::new(),
            ready: BTreeMap::new(),
            obs: ObsHandle::default(),
            cursor: ObsCursor::default(),
        }
    }

    /// Routes the `crowd.*` events through the given handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Submits label requests; returns the vote requests to dispatch. Pairs
    /// already decided are queued for [`take_ready`](CrowdSession::take_ready)
    /// again instead (so a driver that lost a response can always recover it).
    pub fn submit(&mut self, requests: &[LabelRequest]) -> Vec<VoteRequest> {
        let mut asks = Vec::new();
        for request in requests {
            let Submission { slot, decision } = self.plan.submit(request.pair_id.0, &mut asks);
            match self.requests.get_mut(slot as usize) {
                Some(known) => *known = *request,
                None => self.requests.push(*request),
            }
            if let Some(is_match) = decision {
                self.ready.insert(request.pair_id, Label::from_bool(is_match));
            }
        }
        // Mapped only now, so a pair submitted twice in one batch takes its
        // latest request for every ask.
        self.vote_requests(&asks)
    }

    /// Absorbs worker votes; returns escalation vote requests, if any.
    pub fn absorb(&mut self, votes: &[WorkerVote]) -> Vec<VoteRequest> {
        let asks: Vec<VoteAsk> = votes
            .iter()
            .filter_map(|vote| {
                self.plan.absorb(vote.pair_id.0, vote.worker, vote.label == Label::Match)
            })
            .collect();
        self.vote_requests(&asks)
    }

    /// Aggregates every pair whose voting completed and drains the resulting
    /// responses, pair-sorted.
    pub fn take_ready(&mut self) -> Vec<LabelResponse> {
        let completed = self.plan.take_completed();
        for (pair, is_match) in self.plan.decide(&completed) {
            self.ready.insert(PairId(pair), Label::from_bool(is_match));
        }
        self.cursor.flush(&self.obs, self.plan.stats(), None);
        std::mem::take(&mut self.ready)
            .into_iter()
            .map(|(pair_id, label)| LabelResponse { pair_id, label })
            .collect()
    }

    /// All asked-but-unanswered vote requests — what a driver re-dispatches
    /// after losing its queue (resume, failover).
    pub fn outstanding(&self) -> Vec<VoteRequest> {
        self.vote_requests(&self.plan.outstanding())
    }

    /// Running crowd totals.
    pub fn stats(&self) -> CrowdStats {
        self.plan.stats()
    }

    /// Every ask comes from a submitted pair, so its slot has a request.
    fn vote_requests(&self, asks: &[VoteAsk]) -> Vec<VoteRequest> {
        asks.iter()
            .map(|ask| VoteRequest {
                request: self.requests[ask.slot as usize],
                worker: ask.worker,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;

    fn pair(id: u64, sim: f64, is_match: bool) -> InstancePair {
        InstancePair::new(PairId(id), sim, Label::from_bool(is_match))
    }

    #[test]
    fn fixed1_zero_noise_matches_ground_truth_oracle() {
        let mut crowd = CrowdOracle::new(
            symmetric_pool(4, 0.0, 11),
            Redundancy::Fixed(1),
            Aggregation::Majority,
            7,
        );
        let mut truth = GroundTruthOracle::new();
        let pairs: Vec<InstancePair> = (0..200).map(|i| pair(i, 0.5, i % 3 == 0)).collect();
        for p in &pairs {
            assert_eq!(crowd.label(p), truth.label(p));
        }
        assert_eq!(crowd.labels_issued(), truth.labels_issued());
        assert_eq!(crowd.votes_cast(), 200);
        assert!((crowd.cost_multiplier() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crowd_oracle_is_consistent_and_order_invariant() {
        let build = || {
            CrowdOracle::new(
                symmetric_pool(7, 0.25, 3),
                Redundancy::Adaptive { min: 2, max: 5 },
                Aggregation::Majority,
                19,
            )
        };
        let pairs: Vec<InstancePair> = (0..300).map(|i| pair(i, 0.5, i % 2 == 0)).collect();
        let forward: Vec<Label> = {
            let mut oracle = build();
            pairs.iter().map(|p| oracle.label(p)).collect()
        };
        let mut reversed_oracle = build();
        let mut reversed: Vec<(u64, Label)> =
            pairs.iter().rev().map(|p| (p.id().0, reversed_oracle.label(p))).collect();
        reversed.sort_by_key(|&(id, _)| id);
        let batched: Vec<Label> = {
            let mut oracle = build();
            oracle.label_batch(&pairs)
        };
        assert_eq!(forward, reversed.into_iter().map(|(_, l)| l).collect::<Vec<_>>());
        assert_eq!(forward, batched);
        // Re-asking changes nothing and costs nothing.
        let mut oracle = build();
        let first = oracle.label(&pairs[0]);
        let votes = oracle.votes_cast();
        assert_eq!(oracle.label(&pairs[0]), first);
        assert_eq!(oracle.votes_cast(), votes);
        assert_eq!(oracle.labels_issued(), 1);
    }

    #[test]
    fn fixed_r_multiplies_votes_not_labels() {
        let mut oracle = CrowdOracle::new(
            symmetric_pool(9, 0.2, 5),
            Redundancy::Fixed(3),
            Aggregation::Majority,
            2,
        );
        let pairs: Vec<InstancePair> = (0..150).map(|i| pair(i, 0.5, i % 4 == 0)).collect();
        oracle.label_batch(&pairs);
        assert_eq!(oracle.labels_issued(), 150);
        assert_eq!(oracle.votes_cast(), 450);
        assert!((oracle.cost_multiplier() - 3.0).abs() < 1e-12);
        assert!(oracle.stats().disagreements > 0, "20% error at r=3 must disagree sometimes");
    }

    #[test]
    fn crowd_session_roundtrip_aggregates_to_responses() {
        let workers = symmetric_pool(6, 0.0, 21);
        let mut session = CrowdSession::new(6, Redundancy::Fixed(3), Aggregation::Majority, 13);
        let requests: Vec<LabelRequest> = (0..20)
            .map(|i| LabelRequest { pair_id: PairId(i), index: i as usize, similarity: 0.5 })
            .collect();
        let vote_requests = session.submit(&requests);
        assert_eq!(vote_requests.len(), 60);
        // Deliver votes out of order, in two batches.
        let votes: Vec<WorkerVote> = vote_requests
            .iter()
            .rev()
            .map(|vr| WorkerVote {
                pair_id: vr.request.pair_id,
                worker: vr.worker,
                label: Label::from_bool(
                    workers[vr.worker.0 as usize]
                        .vote(vr.request.pair_id.0, vr.request.index % 2 == 0),
                ),
            })
            .collect();
        let (first, second) = votes.split_at(25);
        assert!(session.absorb(first).is_empty(), "zero noise never escalates");
        let outstanding = session.outstanding();
        assert_eq!(outstanding.len(), 35, "unanswered votes are re-dispatchable");
        assert!(session.absorb(second).is_empty());
        let responses = session.take_ready();
        assert_eq!(responses.len(), 20);
        for response in &responses {
            assert_eq!(
                response.label,
                Label::from_bool(response.pair_id.0 % 2 == 0),
                "zero-noise crowd must deliver ground truth"
            );
        }
        // Re-submitting a decided pair re-surfaces its response.
        assert!(session.submit(&requests[..1]).is_empty());
        let again = session.take_ready();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].pair_id, requests[0].pair_id);
    }

    #[test]
    fn every_ask_carries_the_latest_request_for_its_pair() {
        let mut session = CrowdSession::new(5, Redundancy::Fixed(2), Aggregation::Majority, 3);
        let request = |pair: u64, index: usize| LabelRequest {
            pair_id: PairId(pair),
            index,
            similarity: 0.5,
        };
        // Pair 1 twice in one batch: both emissions map to the later request.
        let asks = session.submit(&[request(1, 10), request(2, 20), request(1, 11)]);
        assert_eq!(asks.len(), 6);
        for ask in &asks {
            let expected = if ask.request.pair_id == PairId(1) { 11 } else { 20 };
            assert_eq!(ask.request.index, expected);
        }
        // A later batch re-files the pair; escalations and the outstanding
        // asks follow it.
        let again = session.submit(&[request(1, 12)]);
        assert_eq!(again.len(), 2);
        assert!(again.iter().all(|ask| ask.request.index == 12));
        let outstanding = session.outstanding();
        assert_eq!(outstanding.len(), 4);
        for ask in &outstanding {
            let expected = if ask.request.pair_id == PairId(1) { 12 } else { 20 };
            assert_eq!(ask.request.index, expected);
        }
    }
}
