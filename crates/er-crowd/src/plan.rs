//! The re-entrant vote-collection state machine.
//!
//! [`CrowdPlan`] ties the planner and the aggregators together without doing
//! any I/O: callers [`submit`](CrowdPlan::submit) pairs, forward the emitted
//! [`VoteAsk`]s to whatever answers votes (simulated [`WorkerModel`]s, a task
//! queue, real people), feed answers back through
//! [`absorb`](CrowdPlan::absorb) — which may return an *escalation* ask when
//! an adaptive prefix disagrees — and finally [`decide`](CrowdPlan::decide)
//! the pairs whose voting completed. Everything is keyed by raw `u64` pair ids
//! so the crate stays dependency-free; the `humo` crate wraps this in its
//! `Oracle`/session vocabulary.
//!
//! Re-entrancy: submitting a known pair re-emits only its still-unanswered
//! asks, absorbing a duplicate vote is a no-op, and every ask/vote/decision is
//! a pure function of the configured seed and the pair id — so a driver that
//! crashes and replays (the labeling service's resume path) reproduces
//! identical votes and labels.
//!
//! Layout: one slot per pair. A hashed index maps each pair id to a dense
//! slot number, and the slot holds everything the plan knows about the pair:
//! the length of the asked roster prefix, two bitmasks over roster positions
//! (answered, voted match), and its lifecycle (pending, completed, decided).
//! Rosters live back to back in one shared arena, computed once when a pair is
//! first seen. Re-submitting a known pair therefore costs one slot lookup (a
//! hash probe through [`open`](CrowdPlan::open), none through
//! [`reopen`](CrowdPlan::reopen) when the driver remembers the slot) plus one
//! read of its masks per unanswered ask, with no allocation per pair. The masks are the only vote store: majority reads a slot by
//! popcount, and EM builds the canonical [`VoteMatrix`] from the slots when it
//! decides. Their width caps a pair at [`MAX_VOTES`](crate::MAX_VOTES) votes.
//!
//! [`WorkerModel`]: crate::WorkerModel

use crate::aggregate::{estimate, EmConfig, EmOutcome, VoteMatrix};
use crate::assign::{AssignmentPlanner, Redundancy};
use crate::worker::{mix, WorkerId};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// How completed vote sets are turned into labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregation {
    /// Per-pair majority vote (ties break to non-match).
    Majority,
    /// Dawid–Skene EM over *all* votes collected so far: each
    /// [`decide`](CrowdPlan::decide) call re-estimates worker reliabilities
    /// jointly with the requested labels. Labels therefore depend on the
    /// aggregation scope (which other pairs have been voted on), unlike
    /// [`Aggregation::Majority`], which is a pure per-pair function.
    Em(EmConfig),
}

/// Configuration of a [`CrowdPlan`].
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Number of workers in the pool.
    pub pool_size: usize,
    /// Votes per pair.
    pub redundancy: Redundancy,
    /// How completed vote sets become labels.
    pub aggregation: Aggregation,
    /// Seed for the assignment rosters.
    pub seed: u64,
}

/// A request for one worker's vote on one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteAsk {
    /// The pair to vote on.
    pub pair: u64,
    /// The worker asked.
    pub worker: WorkerId,
    /// The pair's slot number in the plan that issued the ask (see
    /// [`Submission::slot`]).
    pub slot: u32,
}

/// What [`CrowdPlan::submit`] found for a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The pair's slot number. Slots are numbered densely from 0 in the order
    /// the plan first sees pairs and never change, so a driver can keep
    /// per-pair data in a `Vec` indexed by it.
    pub slot: u32,
    /// The pair's decided label, if any. Decided pairs emit no asks.
    pub decision: Option<bool>,
}

/// Running totals of the crowd machinery, for reports and the `crowd.*`
/// observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrowdStats {
    /// Votes recorded (duplicates excluded).
    pub votes: u64,
    /// Pairs whose final vote set was not unanimous.
    pub disagreements: u64,
    /// Extra asks issued beyond the initial redundancy.
    pub escalations: u64,
    /// Labels decided.
    pub decided: u64,
    /// EM aggregation passes run.
    pub em_runs: u64,
    /// Total EM iterations across all passes.
    pub em_iterations: u64,
}

/// Where a pair stands in the voting protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not collecting votes: decided without being submitted, or completed and
    /// already drained by [`CrowdPlan::take_completed`]. Submitting an
    /// undecided idle pair opens its initial prefix again.
    Idle,
    /// Collecting votes for the asked prefix of its roster.
    Pending,
    /// Voting finished; queued for [`CrowdPlan::take_completed`].
    Completed,
}

/// Everything the plan knows about one pair. Its roster is
/// `rosters[slot * width..][..width]`.
#[derive(Debug)]
struct Slot {
    pair: u64,
    /// Bit `i` set: roster position `i` has voted.
    answered: u64,
    /// Bit `i` set: roster position `i` voted match.
    matches: u64,
    /// Length of the asked roster prefix.
    asked: u8,
    phase: Phase,
    decision: Option<bool>,
}

impl Slot {
    /// Majority over the slot's votes: [`majority`](crate::majority)'s rule,
    /// ties to non-match, read off the masks by popcount.
    fn majority(&self) -> bool {
        2 * self.matches.count_ones() > self.answered.count_ones()
    }
}

/// Hashes pair ids with the SplitMix64 finalizer ([`mix`]) instead of SipHash.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix(self.0, u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }
}

/// The sans-I/O crowd state machine. See the module docs for the protocol and
/// the layout.
#[derive(Debug)]
pub struct CrowdPlan {
    planner: AssignmentPlanner,
    aggregation: Aggregation,
    /// Roster length of every pair: the redundancy limit.
    width: usize,
    /// Asks a newly opened pair starts with.
    initial: u8,
    index: HashMap<u64, u32, BuildHasherDefault<PairHasher>>,
    slots: Vec<Slot>,
    rosters: Vec<WorkerId>,
    /// Slots whose voting completed since the last `take_completed`.
    completed: Vec<u32>,
    stats: CrowdStats,
    last_em: Option<EmOutcome>,
}

impl CrowdPlan {
    /// Creates a plan.
    ///
    /// # Panics
    /// Panics if the pool is empty or the redundancy does not fit it (see
    /// [`Redundancy::validate`]).
    pub fn new(config: CrowdConfig) -> Self {
        let planner = AssignmentPlanner::new(config.redundancy, config.pool_size, config.seed);
        Self {
            width: config.redundancy.limit(),
            initial: config.redundancy.initial() as u8,
            planner,
            aggregation: config.aggregation,
            index: HashMap::default(),
            slots: Vec::new(),
            rosters: Vec::new(),
            completed: Vec::new(),
            stats: CrowdStats::default(),
            last_em: None,
        }
    }

    /// Submits a pair for labeling and appends its asks to `asks`: [`open`]
    /// followed by [`unanswered`]. A new pair emits its initial asks; an
    /// already-pending pair re-emits its still-unanswered asks (so a driver
    /// can always recover its outstanding work by re-submitting); completed
    /// or decided pairs emit nothing.
    ///
    /// [`open`]: CrowdPlan::open
    /// [`unanswered`]: CrowdPlan::unanswered
    pub fn submit(&mut self, pair: u64, asks: &mut Vec<VoteAsk>) -> Submission {
        let submission = self.open(pair);
        let slot = submission.slot;
        asks.extend(self.unanswered(slot).map(|worker| VoteAsk { pair, worker, slot }));
        submission
    }

    /// Opens a pair for labeling without emitting anything: a new or idle
    /// undecided pair starts collecting votes for its initial roster prefix;
    /// a pending, completed or decided pair is left as it is. The asks to
    /// dispatch are then [`unanswered`](CrowdPlan::unanswered)`(slot)`.
    pub fn open(&mut self, pair: u64) -> Submission {
        let slot = self.slot(pair);
        self.open_slot(slot)
    }

    /// [`open`](CrowdPlan::open) for a pair whose slot the caller remembers
    /// from an earlier [`Submission`]: no hash probe. Returns `None`, opening
    /// nothing, when `slot` does not hold `pair`.
    pub fn reopen(&mut self, slot: u32, pair: u64) -> Option<Submission> {
        (self.slots.get(slot as usize)?.pair == pair).then(|| self.open_slot(slot))
    }

    /// The workers asked for a vote on the slot's pair who have not answered
    /// yet, in roster order: what a driver dispatches after
    /// [`open`](CrowdPlan::open). Empty unless the pair is collecting votes
    /// and undecided.
    ///
    /// # Panics
    /// Panics if `slot` was never handed out in a [`Submission`].
    pub fn unanswered(&self, slot: u32) -> impl Iterator<Item = WorkerId> + '_ {
        let s = &self.slots[slot as usize];
        let open = s.phase == Phase::Pending && s.decision.is_none();
        self.waiting(slot, if open { s.asked } else { 0 })
    }

    /// Records one vote. Unknown pairs, pairs not collecting votes, votes from
    /// workers not yet asked and duplicate `(pair, worker)` votes are ignored.
    /// When the vote completes an adaptive prefix that still disagrees, the
    /// returned ask extends the roster by one worker; when it completes the
    /// pair's voting altogether, the pair becomes available from
    /// [`take_completed`](CrowdPlan::take_completed).
    pub fn absorb(&mut self, pair: u64, worker: WorkerId, is_match: bool) -> Option<VoteAsk> {
        let slot = *self.index.get(&pair)?;
        let roster = &self.rosters[slot as usize * self.width..][..self.width];
        let s = &mut self.slots[slot as usize];
        if s.phase != Phase::Pending {
            return None;
        }
        let position = roster[..usize::from(s.asked)].iter().position(|&w| w == worker)?;
        let bit = 1u64 << position;
        if s.answered & bit == 0 {
            s.answered |= bit;
            if is_match {
                s.matches |= bit;
            }
            self.stats.votes += 1;
        }
        let prefix = u64::MAX >> (64 - u32::from(s.asked));
        if s.answered & prefix != prefix {
            return None;
        }
        let matched = s.matches & prefix;
        let unanimous = matched == 0 || matched == prefix;
        if unanimous || usize::from(s.asked) == self.width {
            if !unanimous {
                self.stats.disagreements += 1;
            }
            s.phase = Phase::Completed;
            self.completed.push(slot);
            return None;
        }
        // Disagreement with roster room left: escalate by one worker.
        s.asked += 1;
        self.stats.escalations += 1;
        Some(VoteAsk { pair, worker: roster[usize::from(s.asked) - 1], slot })
    }

    /// Drains the pairs whose voting completed but whose label has not been
    /// decided yet, in pair order.
    pub fn take_completed(&mut self) -> Vec<u64> {
        let mut pairs: Vec<u64> = self
            .completed
            .drain(..)
            .map(|slot| {
                let s = &mut self.slots[slot as usize];
                s.phase = Phase::Idle;
                s.pair
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Decides labels for the given (completed) pairs, in input order.
    /// Majority aggregates each pair from its own votes; EM re-estimates over
    /// every vote collected so far. A pair without votes decides non-match.
    pub fn decide(&mut self, pairs: &[u64]) -> Vec<(u64, bool)> {
        if pairs.is_empty() {
            return Vec::new();
        }
        if let Aggregation::Em(config) = &self.aggregation {
            let outcome = estimate(&self.vote_matrix(), config);
            self.stats.em_runs += 1;
            self.stats.em_iterations += outcome.iterations as u64;
            self.last_em = Some(outcome);
        }
        let mut decisions = Vec::with_capacity(pairs.len());
        for &pair in pairs {
            let slot = self.slot(pair) as usize;
            let em = self.last_em.as_ref().and_then(|em| em.labels.get(&pair).copied());
            let s = &mut self.slots[slot];
            let label = em.unwrap_or_else(|| s.majority());
            if s.decision.is_none() {
                self.stats.decided += 1;
            }
            s.decision = Some(label);
            decisions.push((pair, label));
        }
        decisions
    }

    /// The decided label for a pair, if any.
    pub fn decision(&self, pair: u64) -> Option<bool> {
        self.index.get(&pair).and_then(|&slot| self.slots[slot as usize].decision)
    }

    /// All asked-but-unanswered asks across pending pairs, in canonical order
    /// — what a re-entrant driver re-dispatches after losing its queue.
    pub fn outstanding(&self) -> Vec<VoteAsk> {
        let mut pending: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&slot| self.slots[slot as usize].phase == Phase::Pending)
            .collect();
        pending.sort_unstable_by_key(|&slot| self.slots[slot as usize].pair);
        let mut asks = Vec::new();
        for slot in pending {
            let s = &self.slots[slot as usize];
            let pair = s.pair;
            asks.extend(self.waiting(slot, s.asked).map(|worker| VoteAsk { pair, worker, slot }));
        }
        asks
    }

    /// Running totals.
    pub fn stats(&self) -> CrowdStats {
        self.stats
    }

    /// The most recent EM outcome, when EM aggregation has run.
    pub fn last_em(&self) -> Option<&EmOutcome> {
        self.last_em.as_ref()
    }

    /// The configured aggregation policy.
    pub fn aggregation(&self) -> &Aggregation {
        &self.aggregation
    }

    /// The assignment planner (roster introspection for tests and drivers).
    pub fn planner(&self) -> &AssignmentPlanner {
        &self.planner
    }

    /// The pair's slot number, opening an idle slot with its roster when the
    /// pair is new.
    fn slot(&mut self, pair: u64) -> u32 {
        let next = self.slots.len();
        match self.index.entry(pair) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let slot = u32::try_from(next).expect("a crowd plan holds at most u32::MAX pairs");
                entry.insert(slot);
                self.rosters.extend(self.planner.roster(pair));
                self.slots.push(Slot {
                    pair,
                    answered: 0,
                    matches: 0,
                    asked: 0,
                    phase: Phase::Idle,
                    decision: None,
                });
                slot
            }
        }
    }

    /// Starts an undecided idle slot's initial prefix; other slots stay as
    /// they are.
    fn open_slot(&mut self, slot: u32) -> Submission {
        let s = &mut self.slots[slot as usize];
        if s.decision.is_none() && s.phase == Phase::Idle {
            s.phase = Phase::Pending;
            s.asked = self.initial;
        }
        Submission { slot, decision: s.decision }
    }

    /// The unanswered workers among the first `asked` roster positions of
    /// the slot, in roster order, read off the answered mask bit by bit.
    fn waiting(&self, slot: u32, asked: u8) -> impl Iterator<Item = WorkerId> + '_ {
        let roster = &self.rosters[slot as usize * self.width..];
        let prefix = u64::MAX.checked_shr(64 - u32::from(asked)).unwrap_or(0);
        let mut open = !self.slots[slot as usize].answered & prefix;
        std::iter::from_fn(move || {
            if open == 0 {
                return None;
            }
            let position = open.trailing_zeros() as usize;
            open &= open - 1;
            Some(roster[position])
        })
    }

    /// The canonical vote matrix, rebuilt from the slots.
    fn vote_matrix(&self) -> VoteMatrix {
        let mut matrix = VoteMatrix::new();
        for (s, roster) in self.slots.iter().zip(self.rosters.chunks_exact(self.width)) {
            for (position, &worker) in roster.iter().enumerate() {
                if s.answered >> position & 1 == 1 {
                    matrix.record(s.pair, worker, s.matches >> position & 1 == 1);
                }
            }
        }
        matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{mix, WorkerModel};

    fn drive(
        plan: &mut CrowdPlan,
        workers: &[WorkerModel],
        truth: impl Fn(u64) -> bool,
        pair: u64,
    ) {
        let mut asks = Vec::new();
        plan.submit(pair, &mut asks);
        while let Some(ask) = asks.pop() {
            let vote = workers[ask.worker.0 as usize].vote(ask.pair, truth(ask.pair));
            asks.extend(plan.absorb(ask.pair, ask.worker, vote));
        }
    }

    fn pool(n: usize, rate: f64, seed: u64) -> Vec<WorkerModel> {
        (0..n).map(|w| WorkerModel::symmetric(rate, mix(seed, w as u64))).collect()
    }

    fn submit(plan: &mut CrowdPlan, pair: u64) -> Vec<VoteAsk> {
        let mut asks = Vec::new();
        plan.submit(pair, &mut asks);
        asks
    }

    #[test]
    fn fixed_redundancy_collects_exactly_r_votes() {
        let workers = pool(7, 0.3, 1);
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 7,
            redundancy: Redundancy::Fixed(3),
            aggregation: Aggregation::Majority,
            seed: 5,
        });
        for pair in 0..100 {
            drive(&mut plan, &workers, |p| p % 3 == 0, pair);
        }
        let completed = plan.take_completed();
        assert_eq!(completed.len(), 100);
        plan.decide(&completed);
        assert_eq!(plan.stats().votes, 300);
        assert_eq!(plan.stats().escalations, 0);
        assert_eq!(plan.stats().decided, 100);
    }

    #[test]
    fn adaptive_redundancy_escalates_only_on_disagreement() {
        let workers = pool(9, 0.25, 2);
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 9,
            redundancy: Redundancy::Adaptive { min: 2, max: 5 },
            aggregation: Aggregation::Majority,
            seed: 6,
        });
        for pair in 0..200 {
            drive(&mut plan, &workers, |p| p % 2 == 0, pair);
        }
        let completed = plan.take_completed();
        assert_eq!(completed.len(), 200);
        let stats = plan.stats();
        assert!(stats.escalations > 0, "25% error must force some escalations");
        assert!(stats.votes >= 400, "at least min votes per pair");
        assert!(stats.votes <= 1000, "never beyond max votes per pair");
        assert_eq!(stats.votes, 400 + stats.escalations, "every extra vote is an escalation");
        // With zero noise nothing escalates.
        let clean = pool(9, 0.0, 3);
        let mut quiet = CrowdPlan::new(CrowdConfig {
            pool_size: 9,
            redundancy: Redundancy::Adaptive { min: 2, max: 5 },
            aggregation: Aggregation::Majority,
            seed: 6,
        });
        for pair in 0..200 {
            drive(&mut quiet, &clean, |p| p % 2 == 0, pair);
        }
        assert_eq!(quiet.stats().escalations, 0);
        assert_eq!(quiet.stats().disagreements, 0);
        assert_eq!(quiet.stats().votes, 400);
    }

    #[test]
    fn resubmitting_reemits_only_unanswered_asks() {
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 5,
            redundancy: Redundancy::Fixed(3),
            aggregation: Aggregation::Majority,
            seed: 9,
        });
        let first = submit(&mut plan, 42);
        assert_eq!(first.len(), 3);
        // Answer one vote, then "crash": resubmit and compare to outstanding.
        assert!(plan.absorb(42, first[0].worker, true).is_none());
        let reissued = submit(&mut plan, 42);
        assert_eq!(reissued, first[1..].to_vec());
        assert_eq!(plan.outstanding(), reissued);
        // Duplicate votes are idempotent.
        assert!(plan.absorb(42, first[0].worker, false).is_none());
        assert_eq!(plan.stats().votes, 1);
        // Completing the pair and deciding it makes resubmission a no-op.
        plan.absorb(42, first[1].worker, true);
        plan.absorb(42, first[2].worker, true);
        let completed = plan.take_completed();
        assert_eq!(completed, vec![42]);
        assert_eq!(plan.decide(&completed), vec![(42, true)]);
        let mut asks = Vec::new();
        assert_eq!(plan.submit(42, &mut asks), Submission { slot: 0, decision: Some(true) });
        assert!(asks.is_empty());
        assert_eq!(plan.decision(42), Some(true));
    }

    #[test]
    fn votes_from_unasked_workers_are_rejected() {
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 6,
            redundancy: Redundancy::Fixed(2),
            aggregation: Aggregation::Majority,
            seed: 4,
        });
        let asks = submit(&mut plan, 7);
        let unasked = (0..6).map(WorkerId).find(|w| !asks.iter().any(|a| a.worker == *w)).unwrap();
        assert!(plan.absorb(7, unasked, true).is_none());
        assert_eq!(plan.stats().votes, 0, "vote from an unasked worker must not count");
        assert!(plan.absorb(99, WorkerId(0), true).is_none(), "unknown pair is ignored");
    }

    #[test]
    fn reopen_checks_the_pair_and_unanswered_follows_the_lifecycle() {
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 6,
            redundancy: Redundancy::Fixed(2),
            aggregation: Aggregation::Majority,
            seed: 8,
        });
        let Submission { slot, .. } = plan.open(5);
        let roster: Vec<WorkerId> = plan.unanswered(slot).collect();
        assert_eq!(roster.len(), 2);
        assert_eq!(plan.reopen(slot, 6), None, "a slot answers only for its own pair");
        assert_eq!(plan.reopen(slot + 1, 5), None, "an unknown slot opens nothing");
        assert_eq!(plan.reopen(slot, 5), Some(Submission { slot, decision: None }));
        plan.absorb(5, roster[1], true);
        assert_eq!(plan.unanswered(slot).collect::<Vec<_>>(), roster[..1]);
        // Decided while still pending: no asks to dispatch, though the vote
        // is still outstanding.
        plan.decide(&[5]);
        assert_eq!(plan.unanswered(slot).count(), 0);
        assert_eq!(plan.outstanding().len(), 1);
    }

    #[test]
    fn resubmission_computes_each_roster_once() {
        let mut plan = CrowdPlan::new(CrowdConfig {
            pool_size: 9,
            redundancy: Redundancy::Adaptive { min: 2, max: 5 },
            aggregation: Aggregation::Majority,
            seed: 3,
        });
        let first = submit(&mut plan, 10);
        submit(&mut plan, 11);
        let arena = plan.rosters.len();
        assert_eq!(arena, 2 * 5, "one full roster per pair");
        plan.absorb(10, first[0].worker, true);
        for _ in 0..100 {
            assert_eq!(submit(&mut plan, 10), first[1..].to_vec(), "pending pair re-emits");
        }
        plan.absorb(10, first[1].worker, true);
        let completed = plan.take_completed();
        assert_eq!(plan.decide(&completed), vec![(10, true)]);
        for _ in 0..100 {
            assert!(submit(&mut plan, 10).is_empty(), "decided pair emits nothing");
            submit(&mut plan, 11);
        }
        assert_eq!(plan.rosters.len(), arena, "re-submission must not recompute rosters");
        assert_eq!(plan.slots.len(), 2);
    }
}
