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
use std::collections::{BTreeMap, HashMap};

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
/// Re-submitting the whole outstanding batch every tick is linear in the
/// batch with no hashing: the wrapper remembers each pair's plan slot by its
/// request's workload index, so a known pair costs one table read, one
/// check of the pair id and one read of its answered mask, and every vote
/// request is written once into the returned `Vec`.
///
/// Only aggregated responses leave this wrapper, so a session's write-ahead
/// log (and therefore crash-safe resume) never sees raw votes.
#[derive(Debug)]
pub struct CrowdSession {
    plan: CrowdPlan,
    /// The latest request submitted for each pair, indexed by its plan slot.
    requests: Vec<LabelRequest>,
    /// The [`submit`](CrowdSession::submit) call that last filed each slot's
    /// request (numbered from 1), indexed like `requests`: a slot filed twice
    /// by one call is a pair repeated within its batch.
    filed: Vec<u64>,
    submits: u64,
    /// Plan slot of the pair last submitted at each workload index, or
    /// `u32::MAX`: the hash-free path to a known pair. An entry is only a
    /// hint, checked against the pair id before use.
    slot_at: Vec<u32>,
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
            filed: Vec::new(),
            submits: 0,
            slot_at: Vec::new(),
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

    /// Submits label requests; returns the vote requests to dispatch, in
    /// request order and roster order within a request. Pairs already
    /// decided are queued for [`take_ready`](CrowdSession::take_ready) again
    /// instead (so a driver that lost a response can always recover it).
    /// Every vote request carries the latest request for its pair, also when
    /// the pair repeats within `requests`.
    pub fn submit(&mut self, requests: &[LabelRequest]) -> Vec<VoteRequest> {
        self.submits += 1;
        let width = self.plan.planner().redundancy().limit();
        let mut votes = Vec::with_capacity(requests.len() * width);
        let mut repeated = false;
        for request in requests {
            let pair = request.pair_id.0;
            let hint = self.slot_at.get(request.index).copied().filter(|&slot| slot != u32::MAX);
            let Submission { slot, decision } = match hint.and_then(|s| self.plan.reopen(s, pair)) {
                Some(submission) => submission,
                None => {
                    let submission = self.plan.open(pair);
                    self.remember(request.index, submission.slot, requests.len());
                    submission
                }
            };
            let at = slot as usize;
            if at == self.requests.len() {
                self.requests.push(*request);
                self.filed.push(self.submits);
            } else {
                repeated |= self.filed[at] == self.submits;
                self.requests[at] = *request;
                self.filed[at] = self.submits;
            }
            if let Some(is_match) = decision {
                self.ready.insert(request.pair_id, Label::from_bool(is_match));
            }
            votes.extend(
                self.plan.unanswered(slot).map(|worker| VoteRequest { request: *request, worker }),
            );
        }
        if repeated {
            // A repeated pair's earlier votes carry an older request: map
            // every vote to its pair's last request in the batch.
            let latest: HashMap<PairId, LabelRequest> =
                requests.iter().map(|request| (request.pair_id, *request)).collect();
            for vote in &mut votes {
                vote.request = latest[&vote.request.pair_id];
            }
        }
        votes
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

    /// Files `slot` as the hint for workload index `index`. The table grows
    /// only to indices below a fixed multiple of the pairs known and in
    /// hand, and to at least 2^16 entries; a request past that is found by
    /// hashing. The bound is a memory cap against caller-built requests
    /// with huge indices, not a tuned figure: a session emits indices below
    /// its workload's length, so on workloads of up to 2^16 pairs every one
    /// of them gets an entry.
    fn remember(&mut self, index: usize, slot: u32, batch: usize) {
        if index >= self.slot_at.len() {
            if index >= (64 * (self.requests.len() + batch)).max(1 << 16) {
                return;
            }
            self.slot_at.resize(index + 1, u32::MAX);
        }
        self.slot_at[index] = slot;
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

/// The one-pass [`CrowdSession::submit`] against the two-pass submit it
/// replaced, kept verbatim in `reference` with the rest of that session.
#[cfg(test)]
mod resubmit_differential {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The crowd session as it was before submit became one pass: every
    /// request goes through `CrowdPlan::submit` into a buffer of asks, and
    /// the asks are mapped to vote requests afterwards through a hashed
    /// lookup per pair.
    mod reference {
        use super::super::*;

        pub struct CrowdSession {
            plan: CrowdPlan,
            requests: Vec<LabelRequest>,
            ready: BTreeMap<PairId, Label>,
        }

        impl CrowdSession {
            pub fn new(
                pool_size: usize,
                redundancy: Redundancy,
                aggregation: Aggregation,
                seed: u64,
            ) -> Self {
                let plan = CrowdPlan::new(CrowdConfig { pool_size, redundancy, aggregation, seed });
                Self { plan, requests: Vec::new(), ready: BTreeMap::new() }
            }

            pub fn submit(&mut self, requests: &[LabelRequest]) -> Vec<VoteRequest> {
                let mut asks = Vec::new();
                for request in requests {
                    let Submission { slot, decision } =
                        self.plan.submit(request.pair_id.0, &mut asks);
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

            pub fn absorb(&mut self, votes: &[WorkerVote]) -> Vec<VoteRequest> {
                let asks: Vec<VoteAsk> = votes
                    .iter()
                    .filter_map(|vote| {
                        self.plan.absorb(vote.pair_id.0, vote.worker, vote.label == Label::Match)
                    })
                    .collect();
                self.vote_requests(&asks)
            }

            pub fn take_ready(&mut self) -> Vec<LabelResponse> {
                let completed = self.plan.take_completed();
                for (pair, is_match) in self.plan.decide(&completed) {
                    self.ready.insert(PairId(pair), Label::from_bool(is_match));
                }
                std::mem::take(&mut self.ready)
                    .into_iter()
                    .map(|(pair_id, label)| LabelResponse { pair_id, label })
                    .collect()
            }

            pub fn outstanding(&self) -> Vec<VoteRequest> {
                self.vote_requests(&self.plan.outstanding())
            }

            pub fn stats(&self) -> CrowdStats {
                self.plan.stats()
            }

            fn vote_requests(&self, asks: &[VoteAsk]) -> Vec<VoteRequest> {
                asks.iter()
                    .map(|ask| VoteRequest {
                        request: self.requests[ask.slot as usize],
                        worker: ask.worker,
                    })
                    .collect()
            }
        }
    }

    /// Pairs the schedules draw from: small, so pairs repeat constantly.
    const UNIVERSE: u64 = 20;
    /// Operations per schedule.
    const OPERATIONS: usize = 300;
    const POOL: usize = 7;

    /// A request for `pair`: usually at the pair's own workload index, but
    /// sometimes at an index another pair uses (so a remembered slot must be
    /// rejected) or far past any index seen (so the slot table must not
    /// grow to it), always with a fresh similarity so that an outdated
    /// request shows.
    fn request(rng: &mut StdRng, pair: u64) -> LabelRequest {
        let index = match rng.gen_range(0..20) {
            0..=2 => rng.gen_range(0..UNIVERSE as usize),
            3 => rng.gen_range(1usize << 30..1usize << 40),
            _ => (pair * 7 % UNIVERSE) as usize,
        };
        LabelRequest { pair_id: PairId(pair), index, similarity: rng.gen_range(0.0..1.0) }
    }

    fn run_schedule(redundancy: Redundancy, error: f64, seed: u64) -> Result<(), TestCaseError> {
        let aggregation = Aggregation::Majority;
        let mut session = CrowdSession::new(POOL, redundancy, aggregation.clone(), seed);
        let mut model = reference::CrowdSession::new(POOL, redundancy, aggregation, seed);
        let workers = symmetric_pool(POOL, error, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        // Vote requests handed out so far and not yet delivered.
        let mut inflight: Vec<VoteRequest> = Vec::new();
        let (mut repeats, mut escalations, mut decided_resubmits) = (0, 0, 0);
        let mut decided: Vec<u64> = Vec::new();
        for _ in 0..OPERATIONS {
            match rng.gen_range(0..100) {
                // Submit a batch; a pair may repeat within it, and decided
                // or completed pairs come back.
                0..=34 => {
                    let len = rng.gen_range(1..9);
                    let mut batch: Vec<LabelRequest> = Vec::with_capacity(len);
                    for _ in 0..len {
                        let pair = if !batch.is_empty() && rng.gen_range(0..5) == 0 {
                            repeats += 1;
                            batch[rng.gen_range(0..batch.len())].pair_id.0
                        } else if !decided.is_empty() && rng.gen_range(0..4) == 0 {
                            decided_resubmits += 1;
                            decided[rng.gen_range(0..decided.len())]
                        } else {
                            rng.gen_range(0..UNIVERSE)
                        };
                        batch.push(request(&mut rng, pair));
                    }
                    let votes = session.submit(&batch);
                    prop_assert_eq!(&votes, &model.submit(&batch));
                    inflight = votes;
                }
                // Deliver some in-flight votes, out of order and sometimes
                // twice.
                35..=79 => {
                    let count = rng.gen_range(0..inflight.len() + 1);
                    let mut votes = Vec::with_capacity(count);
                    for _ in 0..count {
                        let at = rng.gen_range(0..inflight.len());
                        let ask = if rng.gen_range(0..6) == 0 {
                            inflight[at]
                        } else {
                            inflight.swap_remove(at)
                        };
                        let truth = ask.request.pair_id.0 % 3 == 0;
                        let vote =
                            workers[ask.worker.0 as usize].vote(ask.request.pair_id.0, truth);
                        votes.push(WorkerVote {
                            pair_id: ask.request.pair_id,
                            worker: ask.worker,
                            label: Label::from_bool(vote),
                        });
                    }
                    let escalated = session.absorb(&votes);
                    prop_assert_eq!(&escalated, &model.absorb(&votes));
                    escalations += escalated.len();
                    inflight.extend(escalated);
                }
                80..=91 => {
                    let ready = session.take_ready();
                    prop_assert_eq!(&ready, &model.take_ready());
                    decided.extend(ready.iter().map(|response| response.pair_id.0));
                }
                // A driver that lost its queue re-dispatches everything.
                _ => {
                    let outstanding = session.outstanding();
                    prop_assert_eq!(&outstanding, &model.outstanding());
                    inflight = outstanding;
                }
            }
            prop_assert_eq!(session.stats(), model.stats());
        }
        prop_assert!(repeats > 0 && decided_resubmits > 0, "vacuous schedule");
        if matches!(redundancy, Redundancy::Adaptive { .. }) && error > 0.0 {
            prop_assert!(escalations > 0, "no escalation in an adaptive schedule");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Vote requests (order and request carried), escalations,
        /// `take_ready`, `outstanding()` and `stats()` agree with the
        /// two-pass reference after every operation, under fixed and
        /// adaptive redundancy.
        #[test]
        fn one_pass_submit_matches_the_two_pass_reference(
            seed in 0u64..1_000_000,
            adaptive in 0u8..2,
            error in 0.0..0.35f64,
        ) {
            let redundancy =
                if adaptive == 1 { Redundancy::Adaptive { min: 2, max: 5 } } else { Redundancy::Fixed(3) };
            run_schedule(redundancy, error, seed)?;
        }
    }

    #[test]
    fn a_reused_index_is_not_taken_for_its_old_pair() {
        let mut session = CrowdSession::new(5, Redundancy::Fixed(2), Aggregation::Majority, 3);
        let at = |pair: u64| LabelRequest { pair_id: PairId(pair), index: 4, similarity: 0.5 };
        let first = session.submit(&[at(1)]);
        // Pair 2 takes over index 4; pair 1 comes back under it later.
        let second = session.submit(&[at(2)]);
        assert!(second.iter().all(|vote| vote.request.pair_id == PairId(2)));
        assert_eq!(session.submit(&[at(1)]), first);
        assert_eq!(session.stats(), CrowdStats::default());
        assert_eq!(session.outstanding().len(), 4);
    }
}
