//! `er-crowd` — crowd labeling for entity resolution: per-worker reliability
//! models, redundant assignment, and vote aggregation.
//!
//! The HUMO guarantee machinery assumes a single perfectly consistent oracle;
//! production labels come from a crowd of workers with heterogeneous, unknown
//! error rates. This crate models that gap as three composable pieces, all
//! deterministic and dependency-free (like `er-obs`, it sits below the rest of
//! the workspace — `humo` adapts it into its `Oracle`/session vocabulary):
//!
//! 1. **[`WorkerModel`]** — a simulated worker with an asymmetric confusion
//!    matrix (separate match/non-match flip rates). Votes are pure functions
//!    of `(worker seed, pair id)` via the same SplitMix64 finalizer the
//!    single-oracle `NoisyOracle` uses, so they are order-, batch- and
//!    replay-invariant.
//! 2. **[`AssignmentPlanner`]** — fans each pair out to
//!    [`Redundancy::Fixed`]`(r)` distinct workers, or adaptively
//!    ([`Redundancy::Adaptive`]) starting from `min` and escalating one worker
//!    at a time *only on disagreement*, up to `max`. Rosters are seeded
//!    per-pair permutations: pure, distinct, replay-stable.
//! 3. **Aggregation** — [`majority`] vote, or a Dawid–Skene-style EM
//!    estimator ([`estimate`]) that jointly infers per-worker flip rates and
//!    per-pair posteriors from the [`VoteMatrix`] alone. The EM's uniform
//!    class prior and `[min_rate, 0.5]` rate clamps guarantee it never flips
//!    a unanimous vote.
//!
//! [`CrowdPlan`] ties the three together as a re-entrant sans-I/O state
//! machine: submit pairs, dispatch the emitted [`VoteAsk`]s, absorb votes
//! (possibly receiving escalation asks back), decide completed pairs. It
//! keeps one compact slot per pair in a hashed table: the asked roster
//! prefix, answered and match bitmasks, and the pair's lifecycle, with every
//! roster computed once into one shared arena. Re-submitting a known pair,
//! which drivers do for their whole outstanding batch every tick, costs one
//! slot lookup (hash-free through [`CrowdPlan::reopen`] for a remembered
//! slot) plus reading its unanswered asks off the answered mask. The bitmasks
//! cap a pair at [`MAX_VOTES`] votes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod assign;
pub mod plan;
pub mod worker;

pub use aggregate::{estimate, majority, EmConfig, EmOutcome, VoteMatrix, WorkerReliability};
pub use assign::{AssignmentPlanner, Redundancy, MAX_VOTES};
pub use plan::{Aggregation, CrowdConfig, CrowdPlan, CrowdStats, Submission, VoteAsk};
pub use worker::{mix, unit_draw, WorkerId, WorkerModel};
