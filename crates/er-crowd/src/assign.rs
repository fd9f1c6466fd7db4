//! The assignment planner: which workers see which pair, and when to escalate.
//!
//! Every pair gets a deterministic *roster* — a seeded Fisher–Yates permutation
//! of the worker pool, keyed by `(planner seed, pair id)` — and votes are
//! requested from a growing prefix of it. [`Redundancy::Fixed`] asks a constant
//! prefix; [`Redundancy::Adaptive`] starts at `min` and extends the prefix one
//! worker at a time *only while the collected votes disagree*, up to `max`.
//! Because the roster is a pure function of the pair id, assignment (like the
//! votes themselves) is invariant to query order, batching and crash-replay.

use crate::worker::{mix, unit_draw, WorkerId};

/// The most votes one pair can collect: the width of the crowd plan's per-pair
/// vote bitmasks.
pub const MAX_VOTES: usize = 64;

/// How many distinct workers vote on each pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Every pair is voted on by exactly `r` distinct workers.
    Fixed(usize),
    /// Start with `min` workers; while their votes disagree, add one worker at
    /// a time up to `max`. Unanimous prefixes never escalate.
    Adaptive {
        /// Votes requested up front.
        min: usize,
        /// Hard ceiling on votes per pair.
        max: usize,
    },
}

impl Redundancy {
    /// Votes requested before any disagreement is seen.
    pub fn initial(&self) -> usize {
        match *self {
            Redundancy::Fixed(r) => r,
            Redundancy::Adaptive { min, .. } => min,
        }
    }

    /// The most votes a single pair can receive.
    pub fn limit(&self) -> usize {
        match *self {
            Redundancy::Fixed(r) => r,
            Redundancy::Adaptive { max, .. } => max,
        }
    }

    /// Validates the shape against a pool size.
    ///
    /// # Panics
    /// Panics if the redundancy is zero, inverted (`min > max`), above
    /// [`MAX_VOTES`] or exceeds the pool (votes must come from *distinct*
    /// workers).
    pub fn validate(&self, pool_size: usize) {
        let (initial, limit) = (self.initial(), self.limit());
        assert!(initial >= 1, "redundancy must request at least one vote");
        assert!(initial <= limit, "adaptive redundancy needs min <= max, got {initial} > {limit}");
        assert!(
            limit <= MAX_VOTES,
            "redundancy limit {limit} exceeds the cap of {MAX_VOTES} votes per pair"
        );
        assert!(
            limit <= pool_size,
            "redundancy limit {limit} exceeds the worker pool size {pool_size}"
        );
    }
}

/// Plans per-pair worker rosters over a pool of `pool_size` workers.
#[derive(Debug, Clone)]
pub struct AssignmentPlanner {
    pool_size: usize,
    redundancy: Redundancy,
    seed: u64,
}

impl AssignmentPlanner {
    /// Creates a planner.
    ///
    /// # Panics
    /// Panics if the pool is empty or the redundancy does not fit it (see
    /// [`Redundancy::validate`]).
    pub fn new(redundancy: Redundancy, pool_size: usize, seed: u64) -> Self {
        assert!(pool_size > 0, "worker pool must not be empty");
        redundancy.validate(pool_size);
        Self { pool_size, redundancy, seed }
    }

    /// The configured redundancy.
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// The worker-pool size rosters draw from.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// The pair's full roster: the first [`Redundancy::limit`] entries of a
    /// seeded Fisher–Yates permutation of the pool, keyed by the pair id alone.
    /// Entries are distinct by construction; escalation walks this list.
    pub fn roster(&self, pair: u64) -> Vec<WorkerId> {
        let mut order: Vec<u32> = (0..self.pool_size as u32).collect();
        for i in (1..order.len()).rev() {
            let j = (unit_draw(mix(self.seed, i as u64), pair) * (i + 1) as f64) as usize;
            order.swap(i, j.min(i));
        }
        order.truncate(self.redundancy.limit());
        order.into_iter().map(WorkerId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rosters_are_distinct_deterministic_and_within_pool() {
        let planner = AssignmentPlanner::new(Redundancy::Adaptive { min: 2, max: 5 }, 9, 7);
        for pair in 0..200 {
            let roster = planner.roster(pair);
            assert_eq!(roster.len(), 5);
            let set: BTreeSet<WorkerId> = roster.iter().copied().collect();
            assert_eq!(set.len(), roster.len(), "roster has duplicate workers");
            assert!(roster.iter().all(|w| (w.0 as usize) < 9));
            assert_eq!(roster, planner.roster(pair), "roster must be deterministic");
        }
    }

    #[test]
    fn rosters_vary_across_pairs_and_seeds() {
        let a = AssignmentPlanner::new(Redundancy::Fixed(3), 8, 1);
        let b = AssignmentPlanner::new(Redundancy::Fixed(3), 8, 2);
        let distinct_pairs: BTreeSet<Vec<WorkerId>> = (0..50).map(|p| a.roster(p)).collect();
        assert!(distinct_pairs.len() > 10, "rosters should vary across pairs");
        assert!((0..50).any(|p| a.roster(p) != b.roster(p)), "seed must matter");
    }

    #[test]
    fn fixed_one_roster_is_a_single_worker() {
        let planner = AssignmentPlanner::new(Redundancy::Fixed(1), 4, 11);
        for pair in 0..50 {
            assert_eq!(planner.roster(pair).len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the cap of 64 votes per pair")]
    fn rejects_redundancy_beyond_the_vote_cap() {
        let _ = AssignmentPlanner::new(Redundancy::Adaptive { min: 3, max: 65 }, 100, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the worker pool")]
    fn rejects_redundancy_beyond_the_pool() {
        let _ = AssignmentPlanner::new(Redundancy::Fixed(5), 4, 0);
    }
}
