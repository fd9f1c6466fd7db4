//! The crowd plan as it stood before the slot table: one `BTreeMap` per
//! lifecycle state plus a canonical `VoteMatrix`, kept verbatim as the
//! reference model the differential property test drives against
//! `er_crowd::CrowdPlan`. Only the type definitions the two share
//! (`Aggregation`, `CrowdConfig`, `CrowdStats`) come from the crate.

#![allow(dead_code)]

use er_crowd::{
    estimate, majority, Aggregation, AssignmentPlanner, CrowdConfig, CrowdStats, EmOutcome,
    VoteMatrix, WorkerId,
};
use std::collections::{BTreeMap, BTreeSet};

/// A request for one worker's vote on one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteAsk {
    /// The pair to vote on.
    pub pair: u64,
    /// The worker asked.
    pub worker: WorkerId,
}

/// Voting progress of one submitted pair.
#[derive(Debug)]
struct PendingPair {
    roster: Vec<WorkerId>,
    asked: usize,
}

/// The sans-I/O crowd state machine. See the module docs for the protocol.
#[derive(Debug)]
pub struct CrowdPlan {
    planner: AssignmentPlanner,
    aggregation: Aggregation,
    matrix: VoteMatrix,
    pending: BTreeMap<u64, PendingPair>,
    completed: BTreeSet<u64>,
    decided: BTreeMap<u64, bool>,
    stats: CrowdStats,
    last_em: Option<EmOutcome>,
}

impl CrowdPlan {
    /// Creates a plan.
    ///
    /// # Panics
    /// Panics if the pool is empty or the redundancy does not fit it.
    pub fn new(config: CrowdConfig) -> Self {
        Self {
            planner: AssignmentPlanner::new(config.redundancy, config.pool_size, config.seed),
            aggregation: config.aggregation,
            matrix: VoteMatrix::new(),
            pending: BTreeMap::new(),
            completed: BTreeSet::new(),
            decided: BTreeMap::new(),
            stats: CrowdStats::default(),
            last_em: None,
        }
    }

    /// Submits a pair for labeling. New pairs return their initial asks;
    /// already-pending pairs re-emit their still-unanswered asks (so a driver
    /// can always recover its outstanding work by re-submitting); completed or
    /// decided pairs return nothing.
    pub fn submit(&mut self, pair: u64) -> Vec<VoteAsk> {
        if self.decided.contains_key(&pair) || self.completed.contains(&pair) {
            return Vec::new();
        }
        if !self.pending.contains_key(&pair) {
            let roster = self.planner.roster(pair);
            let asked = self.planner.redundancy().initial().min(roster.len());
            self.pending.insert(pair, PendingPair { roster, asked });
        }
        self.unanswered(pair)
    }

    /// Records one vote. Unknown pairs and duplicate `(pair, worker)` votes
    /// are ignored. When the vote completes an adaptive prefix that still
    /// disagrees, the returned asks extend the roster by one worker; when it
    /// completes the pair's voting altogether, the pair becomes available from
    /// [`take_completed`](CrowdPlan::take_completed).
    pub fn absorb(&mut self, pair: u64, worker: WorkerId, is_match: bool) -> Vec<VoteAsk> {
        let Some(pending) = self.pending.get(&pair) else { return Vec::new() };
        if !pending.roster[..pending.asked].contains(&worker) {
            return Vec::new();
        }
        if self.matrix.record(pair, worker, is_match) {
            self.stats.votes += 1;
        }
        let pending = &self.pending[&pair];
        let answered: Vec<bool> = pending.roster[..pending.asked]
            .iter()
            .filter_map(|&w| self.matrix.row(pair).find(|&(rw, _)| rw == w).map(|(_, v)| v))
            .collect();
        if answered.len() < pending.asked {
            return Vec::new();
        }
        let unanimous = answered.windows(2).all(|w| w[0] == w[1]);
        if unanimous || pending.asked == pending.roster.len() {
            if !unanimous {
                self.stats.disagreements += 1;
            }
            self.pending.remove(&pair);
            self.completed.insert(pair);
            return Vec::new();
        }
        // Disagreement with roster room left: escalate by one worker.
        let pending = self.pending.get_mut(&pair).expect("pair is pending");
        pending.asked += 1;
        self.stats.escalations += 1;
        vec![VoteAsk { pair, worker: pending.roster[pending.asked - 1] }]
    }

    /// Drains the pairs whose voting completed but whose label has not been
    /// decided yet, in pair order.
    pub fn take_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed).into_iter().collect()
    }

    /// Decides labels for the given (completed) pairs, in input order.
    /// Majority aggregates each pair from its own row; EM re-estimates over
    /// the full matrix. Decisions are cached and final.
    pub fn decide(&mut self, pairs: &[u64]) -> Vec<(u64, bool)> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let em = match &self.aggregation {
            Aggregation::Majority => None,
            Aggregation::Em(config) => {
                let outcome = estimate(&self.matrix, config);
                self.stats.em_runs += 1;
                self.stats.em_iterations += outcome.iterations as u64;
                self.last_em = Some(outcome);
                self.last_em.as_ref()
            }
        };
        let mut decisions = Vec::with_capacity(pairs.len());
        for &pair in pairs {
            let label = match em {
                Some(outcome) => outcome
                    .labels
                    .get(&pair)
                    .copied()
                    .unwrap_or_else(|| majority(self.matrix.row(pair).map(|(_, v)| v))),
                None => majority(self.matrix.row(pair).map(|(_, v)| v)),
            };
            decisions.push((pair, label));
        }
        for &(pair, label) in &decisions {
            if self.decided.insert(pair, label).is_none() {
                self.stats.decided += 1;
            }
        }
        decisions
    }

    /// The decided label for a pair, if any.
    pub fn decision(&self, pair: u64) -> Option<bool> {
        self.decided.get(&pair).copied()
    }

    /// All asked-but-unanswered asks across pending pairs, in canonical order
    /// — what a re-entrant driver re-dispatches after losing its queue.
    pub fn outstanding(&self) -> Vec<VoteAsk> {
        self.pending
            .iter()
            .flat_map(|(&pair, pending)| {
                pending.roster[..pending.asked]
                    .iter()
                    .filter(move |&&w| !self.matrix.has_vote(pair, w))
                    .map(move |&worker| VoteAsk { pair, worker })
            })
            .collect()
    }

    /// Still-unanswered asks for one pair.
    fn unanswered(&self, pair: u64) -> Vec<VoteAsk> {
        let Some(pending) = self.pending.get(&pair) else { return Vec::new() };
        pending.roster[..pending.asked]
            .iter()
            .filter(|&&w| !self.matrix.has_vote(pair, w))
            .map(|&worker| VoteAsk { pair, worker })
            .collect()
    }

    /// Running totals.
    pub fn stats(&self) -> CrowdStats {
        self.stats
    }

    /// The canonical vote matrix.
    pub fn matrix(&self) -> &VoteMatrix {
        &self.matrix
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
}
