//! Sans-I/O labeling sessions: batched, resumable human-in-the-loop
//! optimization.
//!
//! Every HUMO optimizer consumes manual labels — the scarce resource the whole
//! paper is about. An optimizer that pulled those labels synchronously, one
//! blocking call at a time, would be fine for simulation but wrong for a
//! production deployment where labels come from real people: asynchronously,
//! in batches, with latency, and sometimes never.
//!
//! A [`LabelingSession`] is therefore the one way to run an optimizer: a
//! sans-I/O state machine keyed by a [`SessionConfig`]. The session never
//! performs I/O; instead it *emits* batches of [`LabelRequest`]s and is
//! *driven* with [`LabelResponse`]s:
//!
//! ```text
//!             ┌─────────────────────────────────────────────┐
//!             │                LabelingSession              │
//!  step(&[])  │  replay optimizer against answered labels   │
//! ──────────► │                                             │
//!             │   needs labels it             completes     │
//!             │   does not have                             │
//!             └───────┬─────────────────────────┬───────────┘
//!                     ▼                         ▼
//!          Step::NeedLabels(batch)    Step::Done(outcome)
//!                     │
//!                     ▼
//!        dispatch batch to humans (crowdsourcing, UI, queue, …)
//!                     │
//!                     ▼
//!          step(&responses)  ──────────────► (loop)
//! ```
//!
//! Each emitted batch is a set of *distinct, not-yet-answered* pairs that can
//! be labeled in parallel: a whole subset sample for SAMP/ALL, a whole
//! interval/subset probe for BASE/HYBR boundary growth, the full human region
//! `DH` for the final verification. Responses may arrive partially, in any
//! order, across any number of `step` calls; the session simply re-emits
//! whatever is still missing.
//!
//! # How it works: deterministic replay
//!
//! Conceptually, `step` re-runs the optimizer from scratch against the map of
//! answered labels. All optimizers in this crate are deterministic given their
//! configuration and the labels they observe (within-subset sampling uses a
//! seeded RNG whose draw order does not depend on label values), so a replay
//! reproduces the exact same decisions up to the first pair whose label is
//! unknown — at which point it suspends with the missing batch. This is what
//! makes sessions *resumable for free*: the answered-label log is a complete
//! checkpoint, and [`LabelingSession::resume`] rebuilds a session mid-flight
//! from nothing but the session's inputs (configuration, workload, and — for
//! warm-started sessions — the same [`WarmStart`]) plus that log.
//!
//! Replay trades a little CPU (the per-step re-run) for zero duplicated human
//! work — no label is ever requested twice — and makes driving a session by
//! hand and driving it with an oracle ([`LabelingSession::drive`])
//! byte-identical.
//!
//! Most of that CPU is memoized away: a session keeps a *replay cache* of
//! derived state — the completed sampling plan and the in-flight
//! Gaussian-process training state of the sampling-based optimizers, and the
//! boundary-search progress of BASE and HYBR — so each step resumes the
//! replay where the previous one suspended instead of re-running the whole
//! optimization. And a step that leaves the outstanding batch partly
//! unanswered runs no replay at all: a replay reads only labels it has
//! already required and answers only add labels, so it would suspend at the
//! same batch again and emit exactly the still-missing requests, which the
//! session hands back directly. A preload only adds labels too, so the same
//! holds after a [`SessionState::preload`]. A replay therefore runs only on
//! the first step, after a resume, and once a batch is fully answered. None
//! of this changes behavior (batches, rounds, costs and outcomes are
//! byte-identical with it disabled via
//! [`LabelingSession::with_replay_cache`]); it only removes the O(rounds²)
//! replay cost that a from-scratch re-run per step would pay, and the
//! per-step replay that answers arriving in pieces would trigger.
//!
//! # One core, thin wrappers
//!
//! [`SessionState`] is the one state machine: rounds, the all-human fallback
//! ([`SessionState::fall_back_to_all_human`]) and log replay live there.
//! [`LabelingSession`] binds a workload borrow and dereferences, read-only, to
//! its state; `er_pipeline::ResolutionSession` and
//! [`crate::wal::DurableSession`] add an engine commit and a write-ahead log.
//!
//! # Driving a session with an oracle
//!
//! ```
//! use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
//! use humo::{
//!     GroundTruthOracle, LabelResponse, LabelingSession, OptimizerKind, QualityRequirement,
//!     SessionConfig, Step,
//! };
//!
//! let workload = SyntheticGenerator::new(SyntheticConfig::new(8_000, 14.0, 0.1)).generate();
//! let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
//! let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
//!
//! // Manual driving: answer every batch from the ground truth.
//! let mut session = LabelingSession::new(config, &workload).unwrap();
//! let mut responses = Vec::new();
//! let outcome = loop {
//!     match session.step(&responses).unwrap() {
//!         Step::Done(outcome) => break outcome,
//!         Step::NeedLabels(requests) => {
//!             responses = requests
//!                 .iter()
//!                 .map(|request| LabelResponse {
//!                     pair_id: request.pair_id,
//!                     label: workload.pair(request.index).ground_truth(),
//!                 })
//!                 .collect();
//!         }
//!     }
//! };
//! assert!(outcome.metrics.precision() >= 0.9);
//!
//! // Equivalent: let an Oracle answer synchronously.
//! let mut session = LabelingSession::new(config, &workload).unwrap();
//! let driven = session.drive(&mut GroundTruthOracle::new()).unwrap();
//! assert_eq!(driven.solution, outcome.solution);
//! ```

use crate::baseline::{BaselineConfig, BoundarySearch};
use crate::hybrid::HybridConfig;
use crate::optimizer::OptimizerKind;
use crate::oracle::Oracle;
use crate::requirement::QualityRequirement;
use crate::sampling::{AllSamplingConfig, PartialSamplingConfig, WarmStart};
use crate::solution::{HumoSolution, OptimizationOutcome};
use crate::{HumoError, Result};
use er_core::workload::{InstancePair, Label, LabelAssignment, PairId, Workload};
use std::collections::HashMap;

/// One pair the session needs a manual label for.
///
/// Requests within a batch are independent: they can be dispatched to
/// different workers in parallel and answered in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelRequest {
    /// Stable identifier of the pair (use this to route the answer back).
    pub pair_id: PairId,
    /// Position of the pair in the similarity-sorted workload; the full record
    /// payload is available via `workload.pair(index)`.
    pub index: usize,
    /// The pair's machine-metric value, for display/triage in labeling UIs.
    pub similarity: f64,
}

/// A manual label for one previously requested pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelResponse {
    /// The pair this label answers.
    pub pair_id: PairId,
    /// The human's verdict.
    pub label: Label,
}

/// What a [`LabelingSession::step`] call produced.
#[derive(Debug, Clone)]
pub enum Step {
    /// The session needs these labels before it can make further progress.
    /// Every batch contains only distinct, not-yet-answered pairs.
    NeedLabels(Vec<LabelRequest>),
    /// The optimization finished with this outcome.
    Done(OptimizationOutcome),
}

/// Which stage of the optimization the session's most recent label batch
/// belongs to — useful for prioritizing or pricing crowdsourced dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Drawing within-subset random samples (SAMP/ALL estimation, Algorithm 1
    /// refinement probes).
    Sampling,
    /// Growing the human region boundary by whole units/subsets (BASE and
    /// HYBR's monotonicity-guided search).
    BoundarySearch,
    /// Final verification of the chosen human region `DH`.
    Verification,
    /// The session has completed.
    Done,
}

impl std::fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionPhase::Sampling => "sampling",
            SessionPhase::BoundarySearch => "boundary-search",
            SessionPhase::Verification => "verification",
            SessionPhase::Done => "done",
        })
    }
}

/// Which optimizer a session runs, with its full configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionConfig {
    /// The conservative baseline of Section V ("BASE").
    Baseline(BaselineConfig),
    /// The all-sampling solution of Section VI-A.
    AllSampling(AllSamplingConfig),
    /// The partial-sampling solution of Section VI-B ("SAMP").
    PartialSampling(PartialSamplingConfig),
    /// The hybrid approach of Section VII ("HYBR").
    Hybrid(HybridConfig),
    /// Degenerate "optimizer" that hands the entire workload to the human.
    /// Used by streaming pipelines as the exact fallback for workloads too
    /// small (or too degenerate) to drive the statistical optimizers.
    AllHuman,
}

impl SessionConfig {
    /// The session configuration for an [`OptimizerKind`] with the paper's
    /// default parameters for the given quality requirement.
    pub fn for_kind(kind: OptimizerKind, requirement: QualityRequirement) -> Self {
        match kind {
            OptimizerKind::Baseline => SessionConfig::Baseline(BaselineConfig::new(requirement)),
            OptimizerKind::AllSampling => {
                SessionConfig::AllSampling(AllSamplingConfig::new(requirement))
            }
            OptimizerKind::PartialSampling => {
                SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement))
            }
            OptimizerKind::Hybrid => SessionConfig::Hybrid(HybridConfig::new(requirement)),
        }
    }

    /// The phase a fresh session of this configuration starts in.
    fn initial_phase(&self) -> SessionPhase {
        match self {
            SessionConfig::Baseline(_) => SessionPhase::BoundarySearch,
            SessionConfig::AllHuman => SessionPhase::Verification,
            _ => SessionPhase::Sampling,
        }
    }

    /// Validates the embedded optimizer configuration, returning
    /// [`HumoError::InvalidConfig`] for an out-of-range setting. Every
    /// session runs this once, when its state is built (fresh or resumed).
    pub fn validate(&self) -> Result<()> {
        match self {
            SessionConfig::Baseline(cfg) => cfg.validate(),
            SessionConfig::AllSampling(cfg) => cfg.validate(),
            SessionConfig::PartialSampling(cfg) => cfg.validate(),
            SessionConfig::Hybrid(cfg) => cfg.validate(),
            SessionConfig::AllHuman => Ok(()),
        }
    }
}

/// Why an optimizer replay stopped before producing a solution.
pub(crate) enum Suspend {
    /// The replay reached a point where it needs these workload indices
    /// labeled (distinct, not yet answered), during the given phase.
    Need {
        /// The stage of the optimization the batch belongs to.
        phase: SessionPhase,
        /// Workload indices of the unanswered pairs, in request order.
        indices: Vec<usize>,
    },
    /// The replay failed with a real error.
    Fail(HumoError),
}

impl From<HumoError> for Suspend {
    fn from(e: HumoError) -> Self {
        Suspend::Fail(e)
    }
}

impl From<er_stats::StatsError> for Suspend {
    fn from(e: er_stats::StatsError) -> Self {
        Suspend::Fail(e.into())
    }
}

impl From<er_core::ErError> for Suspend {
    fn from(e: er_core::ErError) -> Self {
        Suspend::Fail(e.into())
    }
}

/// Result alias for suspendable optimizer cores.
pub(crate) type Drive<T> = std::result::Result<T, Suspend>;

/// The answered-label view an optimizer replay reads from. Requesting labels
/// that are not yet answered suspends the replay with the missing batch.
///
/// The slate reads a *dense* per-index label store (one slot per workload
/// position), so every replay read is an array access. Large verification
/// waves touch every `DH` pair several times per step — through [`Self::
/// require`], then [`Self::is_match`] during resolution — and a keyed map
/// there (one hash or tree probe plus a pair-id fetch per read) dominated
/// whole-session replay time before the dense store existed.
pub(crate) struct LabelSlate<'a> {
    labels: &'a [Option<Label>],
}

impl<'a> LabelSlate<'a> {
    pub(crate) fn new(labels: &'a [Option<Label>]) -> Self {
        Self { labels }
    }

    /// The answered label of a workload index, if any.
    fn get(&self, index: usize) -> Option<bool> {
        self.labels[index].map(|label| label.is_match())
    }

    /// The answered label of a workload index.
    ///
    /// # Panics
    /// Panics if the index was not covered by a successful [`Self::require`] —
    /// an internal contract violation, not a user error.
    pub(crate) fn is_match(&self, index: usize) -> bool {
        self.get(index).expect("label must be required before it is read")
    }

    /// Ensures every index is answered, suspending the replay with the batch
    /// of distinct, not-yet-answered pairs (in first-occurrence order)
    /// otherwise.
    pub(crate) fn require(
        &self,
        phase: SessionPhase,
        indices: impl IntoIterator<Item = usize>,
    ) -> Drive<()> {
        let mut missing: Vec<usize> = Vec::new();
        // Indices and pair ids are in bijection within a workload, so
        // index-level dedup is id-level dedup without the hashing. Missing
        // indices nearly always arrive strictly increasing (subset ranges,
        // sorted draws), and then none can repeat, so the dedup table is only
        // built, from `missing`, once a missing index is not above the last.
        let mut seen: Option<Vec<bool>> = None;
        for index in indices {
            if self.labels[index].is_some() {
                continue;
            }
            if seen.is_none() && missing.last().is_none_or(|&last| index > last) {
                missing.push(index);
                continue;
            }
            let seen = seen.get_or_insert_with(|| {
                let mut table = vec![false; self.labels.len()];
                for &earlier in &missing {
                    table[earlier] = true;
                }
                table
            });
            if !std::mem::replace(&mut seen[index], true) {
                missing.push(index);
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(Suspend::Need { phase, indices: missing })
        }
    }
}

/// Cross-step memoization of deterministic replay work.
///
/// Replay determinism (see the [module docs](self)) means a step's re-run
/// reproduces exactly what the previous step computed, up to the first
/// unanswered label. The cache exploits that instead of paying for it: the
/// session keeps (a) the completed estimation plan of the sampling-based
/// optimizers — so SAMP's verification round and HYBR's boundary-search
/// rounds stop re-deriving it — and (b) the in-flight Gaussian-process
/// training state of Algorithm 1, so each step resumes the
/// sampling-and-refinement loop where it suspended rather than replaying it
/// from scratch — plus (c) the workload's subset partition, whose O(pairs)
/// construction would otherwise repeat every step, and (d) the boundary-search
/// state of BASE and HYBR (both boundaries and the match census of the human
/// region), so each step resumes the search at the batch it suspended on
/// rather than repeating every boundary move. A replay takes the plan and the
/// search out and puts them back on every exit, so a stored search always
/// sits beside the very plan it was computed from, and the plan is never
/// copied. The same switch gates the session's re-emission short-circuit
/// (see [`SessionState::step`]): with the cache enabled, a step that leaves
/// the outstanding batch partly unanswered skips the replay and leaves this
/// cache untouched. Cached state is only ever *derived* state: outcomes,
/// costs, emitted batches and the answered log are byte-identical with the
/// cache disabled ([`SessionState::with_replay_cache`]), which is how the
/// bench harness measures the saving.
#[derive(Debug, Clone)]
pub(crate) struct ReplayCache {
    enabled: bool,
    plan: Option<crate::sampling::SamplingPlan>,
    training: Option<crate::sampling::GpTrainingState>,
    partition: Option<er_core::workload::SubsetPartition>,
    search: Option<BoundarySearch>,
}

impl Default for ReplayCache {
    fn default() -> Self {
        Self { enabled: true, plan: None, training: None, partition: None, search: None }
    }
}

impl ReplayCache {
    /// A cache that stores nothing: every step performs a full replay.
    pub(crate) fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }

    /// Takes the memoized completed sampling plan, if any, leaving the slot
    /// empty until the replay puts it back with [`Self::store_plan`].
    pub(crate) fn take_plan(&mut self) -> Option<crate::sampling::SamplingPlan> {
        self.plan.take()
    }

    /// Memoizes a completed sampling plan (and drops the now-redundant
    /// training state). No-op when disabled.
    pub(crate) fn store_plan(&mut self, plan: crate::sampling::SamplingPlan) {
        if self.enabled {
            self.plan = Some(plan);
            self.training = None;
        }
    }

    /// Takes the suspended Algorithm 1 training state, leaving the slot empty
    /// until the replay suspends (and stores) again.
    pub(crate) fn take_training(&mut self) -> Option<crate::sampling::GpTrainingState> {
        self.training.take()
    }

    /// Stores suspended Algorithm 1 training state. No-op when disabled.
    pub(crate) fn store_training(&mut self, state: crate::sampling::GpTrainingState) {
        if self.enabled {
            self.training = Some(state);
        }
    }

    /// Takes the suspended boundary search, counting the hit, or starts one
    /// with `start` when none is stored.
    pub(crate) fn take_search(
        &mut self,
        workload: &Workload,
        start: impl FnOnce() -> BoundarySearch,
    ) -> BoundarySearch {
        match self.search.take() {
            Some(search) => {
                workload.obs().counter("session.replay_cache.search_hits", 1);
                search
            }
            None => start(),
        }
    }

    /// Stores the boundary search for the next replay. No-op when disabled.
    pub(crate) fn store_search(&mut self, search: BoundarySearch) {
        if self.enabled {
            self.search = Some(search);
        }
    }

    /// The session's subset partition, memoized: building one is O(pairs)
    /// (every subset aggregates its mean similarity) and the result is fully
    /// determined by the workload and the unit size, both fixed for the life
    /// of a session. Returns a clone (O(subsets)); computes and stores on the
    /// first call, or on every call when disabled.
    pub(crate) fn partition_or_compute(
        &mut self,
        compute: impl FnOnce() -> crate::Result<er_core::workload::SubsetPartition>,
    ) -> crate::Result<er_core::workload::SubsetPartition> {
        if let Some(partition) = &self.partition {
            return Ok(partition.clone());
        }
        let partition = compute()?;
        if self.enabled {
            self.partition = Some(partition.clone());
        }
        Ok(partition)
    }

    /// Drops all cached state (once a session completes or falls back).
    fn clear(&mut self) {
        self.plan = None;
        self.training = None;
        self.partition = None;
        self.search = None;
    }
}

/// What a completed optimizer replay hands back to the session.
pub(crate) struct CoreOutput {
    /// The chosen partition.
    pub(crate) solution: HumoSolution,
    /// The final label assignment (machine labels plus answered labels on `DH`).
    pub(crate) assignment: LabelAssignment,
    /// Warm-start state seeding the next epoch, for optimizers that produce one.
    pub(crate) warm_out: Option<WarmStart>,
}

/// Shared final-verification step: requires every `DH` label (one batch) and
/// assembles the label assignment — `D⁻` unmatch, `DH` as answered, `D⁺` match.
pub(crate) fn verified_assignment(
    solution: &HumoSolution,
    workload: &Workload,
    slate: &LabelSlate<'_>,
) -> Drive<LabelAssignment> {
    slate.require(SessionPhase::Verification, solution.human_range())?;
    Ok(solution.resolve_from_labels(workload, |index| Label::from_bool(slate.is_match(index))))
}

/// The all-human "optimizer": every pair goes to the human. Exact and
/// deterministic; used as the streaming pipelines' fallback for tiny or
/// statistically degenerate workloads.
fn all_human_core(workload: &Workload, slate: &LabelSlate<'_>) -> Drive<CoreOutput> {
    let solution = HumoSolution::all_human(workload.len());
    let assignment = verified_assignment(&solution, workload, slate)?;
    Ok(CoreOutput { solution, assignment, warm_out: None })
}

/// Runs one full replay of the configured optimizer against the answered
/// labels. The configuration was validated when the session state was built.
fn run_core(
    config: &SessionConfig,
    warm: Option<&WarmStart>,
    workload: &Workload,
    slate: &LabelSlate<'_>,
    cache: &mut ReplayCache,
) -> Drive<CoreOutput> {
    match config {
        SessionConfig::Baseline(cfg) => cfg.session_core(workload, slate, cache),
        SessionConfig::AllSampling(cfg) => cfg.session_core(workload, slate),
        SessionConfig::PartialSampling(cfg) => cfg.session_core(workload, slate, warm, cache),
        SessionConfig::Hybrid(cfg) => cfg.session_core(workload, slate, cache),
        SessionConfig::AllHuman => all_human_core(workload, slate),
    }
}

/// Answers a batch of label requests through an [`Oracle`], in request order —
/// the one driver loop body shared by [`LabelingSession::drive`], the engine
/// wrappers in `er-pipeline`, and the crate-internal oracle shims.
///
/// # Panics
/// Panics if the oracle's [`Oracle::label_batch`] returns a different number
/// of labels than requests: a short return would otherwise make every driver
/// loop forever re-emitting the same batch.
pub fn answer_requests(
    workload: &Workload,
    requests: &[LabelRequest],
    oracle: &mut dyn Oracle,
) -> Vec<LabelResponse> {
    let pairs: Vec<InstancePair> =
        requests.iter().map(|request| workload.pair(request.index)).collect();
    let labels = oracle.label_batch(&pairs);
    assert_eq!(
        labels.len(),
        requests.len(),
        "Oracle::label_batch must return exactly one label per requested pair"
    );
    requests
        .iter()
        .zip(labels)
        .map(|(request, label)| LabelResponse { pair_id: request.pair_id, label })
        .collect()
}

/// The label requests for a batch of workload indices, in batch order.
fn requests_for(workload: &Workload, indices: Vec<usize>) -> Vec<LabelRequest> {
    indices
        .into_iter()
        .map(|index| {
            let pair = workload.pair(index);
            LabelRequest { pair_id: pair.id(), index, similarity: pair.similarity() }
        })
        .collect()
}

/// Drives a suspendable computation to completion by answering every emitted
/// batch through an [`Oracle`] — the engine behind
/// [`PartialSamplingConfig::plan`], the one oracle-driven entry point outside
/// a session.
pub(crate) fn drive_with_oracle<T>(
    workload: &Workload,
    oracle: &mut dyn Oracle,
    mut f: impl FnMut(&LabelSlate<'_>, &mut ReplayCache) -> Drive<T>,
) -> Result<T> {
    let mut answered: Vec<Option<Label>> = vec![None; workload.len()];
    let mut cache = ReplayCache::default();
    loop {
        let attempt = f(&LabelSlate::new(&answered), &mut cache);
        match attempt {
            Ok(value) => return Ok(value),
            Err(Suspend::Need { indices, .. }) => {
                let requests = requests_for(workload, indices);
                for (request, response) in
                    requests.iter().zip(answer_requests(workload, &requests, oracle))
                {
                    answered[request.index].get_or_insert(response.label);
                }
            }
            Err(Suspend::Fail(e)) => return Err(e),
        }
    }
}

/// The one session core: configuration, answered-label log, round counters,
/// the all-human fallback and log replay, detached from the workload borrow
/// (see the [module docs](self#one-core-thin-wrappers) for the wrappers).
/// Embedders whose workload lives inside a larger mutable structure drive it
/// directly: every [`SessionState::step`] must be called with the workload the
/// state was created for.
#[derive(Debug, Clone)]
pub struct SessionState {
    config: SessionConfig,
    warm: Option<WarmStart>,
    /// The dense per-workload-index label store replays read (see
    /// [`LabelSlate`]): every known label, preloaded or absorbed, one slot per
    /// workload position. Built with the state; the first label a slot
    /// receives wins.
    labels: Vec<Option<Label>>,
    /// Distinct responses absorbed through `step`, in arrival order — the
    /// session's cost basis and its checkpoint/resume log.
    log: Vec<LabelResponse>,
    /// The most recent emission, in its order. `pending[head..]` are its
    /// still-missing requests — exactly what a re-emitting step hands back
    /// without a replay.
    pending: Vec<LabelRequest>,
    /// Answered requests before it have left the outstanding batch: answers
    /// to a prefix of the batch advance it instead of moving the rest.
    head: usize,
    rounds: usize,
    /// Rounds dispatched while planning (the sampling phase).
    plan_rounds: usize,
    /// Rounds dispatched while refining (boundary search + verification).
    refine_rounds: usize,
    phase: SessionPhase,
    outcome: Option<OptimizationOutcome>,
    warm_out: Option<WarmStart>,
    /// Pair-id-to-workload-index lookup, built with the state: it validates
    /// responses and places labels in the `labels` store.
    index_of: PairIndex,
    /// Memoized replay work carried across steps (see [`ReplayCache`]).
    cache: ReplayCache,
}

/// Pair-id → workload-index lookup. Workload pair ids are assigned from a
/// counter at construction, so in practice the id space is dense and a direct
/// index table answers lookups in O(1) without hashing — absorption touches
/// it once per response, which on a full verification wave means once per
/// `DH` pair. A hash map covers workloads whose id space is too sparse for a
/// table (for example a small view over a much larger id universe).
#[derive(Debug, Clone)]
enum PairIndex {
    /// `table[id] = index`, with `u32::MAX` marking ids outside the workload.
    Dense(Vec<u32>),
    Sparse(HashMap<PairId, usize>),
}

impl PairIndex {
    fn build(workload: &Workload) -> Self {
        let len = workload.len();
        let max_id = workload.iter().map(|pair| pair.id().0).max().unwrap_or(0);
        debug_assert!(len < u32::MAX as usize, "workloads keep well under 2^32 pairs");
        if (max_id as usize) < 4 * len.max(256) {
            let mut table = vec![u32::MAX; max_id as usize + 1];
            for (index, pair) in workload.iter().enumerate() {
                table[pair.id().0 as usize] = index as u32;
            }
            PairIndex::Dense(table)
        } else {
            PairIndex::Sparse(
                workload.iter().enumerate().map(|(index, pair)| (pair.id(), index)).collect(),
            )
        }
    }

    /// The workload index of a pair id, if the pair is part of the workload.
    fn get(&self, id: PairId) -> Option<usize> {
        match self {
            PairIndex::Dense(table) => table
                .get(id.0 as usize)
                .copied()
                .filter(|&index| index != u32::MAX)
                .map(|index| index as usize),
            PairIndex::Sparse(map) => map.get(&id).copied(),
        }
    }
}

impl SessionState {
    /// Creates a fresh session state for `workload`, validating the
    /// configuration. The state indexes the workload's pair ids once, here;
    /// every later call that takes a workload must pass this one.
    pub fn new(config: SessionConfig, workload: &Workload) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            phase: config.initial_phase(),
            config,
            warm: None,
            labels: vec![None; workload.len()],
            log: Vec::new(),
            pending: Vec::new(),
            head: 0,
            rounds: 0,
            plan_rounds: 0,
            refine_rounds: 0,
            outcome: None,
            warm_out: None,
            index_of: PairIndex::build(workload),
            cache: ReplayCache::default(),
        })
    }

    /// Seeds the session with warm-start state from a previous optimization
    /// (honored by the partial-sampling optimizer, inert for the others).
    pub fn with_warm_start(mut self, warm: Option<WarmStart>) -> Self {
        self.warm = warm;
        self
    }

    /// Enables or disables the cross-step replay cache (enabled by default).
    ///
    /// The cache memoizes deterministic replay work — the completed sampling
    /// plan and the in-flight Gaussian-process training state of the
    /// sampling-based optimizers, and the boundary search of BASE and HYBR
    /// (both boundaries and the match counts of the human region) — so each
    /// [`SessionState::step`] resumes where the previous one suspended
    /// instead of replaying from scratch: a boundary-search step joins the
    /// batch it waited on and evaluates the bounds once, rather than
    /// repeating every boundary move since the search began.
    /// It also gates the re-emission short-circuit: with it enabled, a step
    /// that leaves the outstanding batch partly unanswered returns the
    /// still-missing requests without replaying at all. Disabled, every step
    /// performs a full replay — the reference model the short-circuit and
    /// the cache are tested against.
    ///
    /// It is purely a performance knob: emitted batches, rounds, phases,
    /// costs, the answered log and the outcome are byte-identical either way.
    /// Disabling it is useful for benchmarking the saving and for testing
    /// that equivalence.
    pub fn with_replay_cache(mut self, enabled: bool) -> Self {
        self.cache = if enabled { ReplayCache::default() } else { ReplayCache::disabled() };
        self
    }

    /// Rebuilds a session from a previous session's answered-label log (see
    /// [`SessionState::answered_log`]). The log's labels count toward this
    /// session's cost exactly as they did originally, and the next
    /// [`SessionState::step`] resumes the optimization from where the logged
    /// labels carry it. Log entries referencing pairs outside `workload` are
    /// rejected with [`HumoError::InvalidResponse`], like any other response.
    ///
    /// The log replaces the *labels*, not the session's inputs: a session
    /// that was seeded with a [`WarmStart`] must be resumed with the **same**
    /// warm start (chain [`SessionState::with_warm_start`], and wrap the
    /// state with [`LabelingSession::from_state`] if needed) — resuming it
    /// cold replays a different optimization.
    pub fn resume(
        config: SessionConfig,
        workload: &Workload,
        log: &[LabelResponse],
    ) -> Result<Self> {
        let mut state = Self::new(config, workload)?;
        // The same membership validation step() applies to live responses: a
        // log resumed against the wrong workload (or a corrupted log) errors
        // instead of silently inflating the cost basis with alien pairs.
        state.absorb(log)?;
        Ok(state)
    }

    /// Preloads labels known *before* this session started (a cross-epoch
    /// label store, an earlier session over an overlapping workload, …). They
    /// are never re-requested and do **not** count toward this session's cost
    /// or appear in its answered log.
    ///
    /// Each label goes straight into the label store. A pair that already
    /// has a label (answered, or preloaded before) keeps it, and a pair
    /// outside the workload is ignored (a cross-epoch store may hold pairs
    /// this workload no longer has).
    pub fn preload(&mut self, responses: impl IntoIterator<Item = LabelResponse>) {
        let mut answered = 0;
        for response in responses {
            if let Some(index) = self.index_of.get(response.pair_id) {
                if self.labels[index].is_none() {
                    self.labels[index] = Some(response.label);
                    answered += 1;
                }
            }
        }
        // A preloaded pair is no longer missing, so it leaves the outstanding
        // batch now rather than at the next step.
        self.settle(answered);
    }

    /// Switches a mid-flight session to the exact all-human fallback
    /// ([`SessionConfig::AllHuman`]) without losing a label: the answered
    /// log, the preloads and the round counters carry over; the warm start,
    /// the outstanding batch and the replay cache are dropped. The next step
    /// asks for every still-unknown label in one verification round.
    ///
    /// Drivers call this when a replay fails with a statistical degeneracy
    /// ([`HumoError::Stats`]), a property of the data: a resumed replay of
    /// the same log hits it at the same point and falls back the same way.
    pub fn fall_back_to_all_human(&mut self) {
        self.config = SessionConfig::AllHuman;
        self.phase = self.config.initial_phase();
        self.warm = None;
        self.warm_out = None;
        self.pending.clear();
        self.head = 0;
        self.cache.clear();
    }

    /// The configuration the session runs.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The requests of the most recent [`Step::NeedLabels`] batch that are
    /// still unanswered, in the batch's order. A re-emitting step returns a
    /// copy of this slice.
    pub fn pending(&self) -> &[LabelRequest] {
        &self.pending[self.head..]
    }

    /// Number of distinct label dispatch waves so far — the label
    /// *round-trip* cost of the session (each wave is one dispatch latency,
    /// however many pairs it contains). Re-emissions of a still-outstanding
    /// batch (zero-progress polls, partial-response steps) do not count.
    ///
    /// [`SessionState::fall_back_to_all_human`] keeps counting. Unlike the
    /// label cost, this counter is per-process bookkeeping, not part of the
    /// checkpoint: a session rebuilt via [`SessionState::resume`] starts
    /// counting at zero again (the checkpointed labels arrive in one
    /// replayed wave, not in their original cadence). Drivers that need a
    /// cumulative latency figure across restarts should persist it alongside
    /// the log.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Rounds dispatched during the optimizer's *plan* stage (sampling).
    /// `plan_rounds() + refine_rounds() == rounds()` at every point.
    pub fn plan_rounds(&self) -> usize {
        self.plan_rounds
    }

    /// Rounds dispatched during the optimizer's *refine* stage (boundary
    /// search and verification).
    pub fn refine_rounds(&self) -> usize {
        self.refine_rounds
    }

    /// The optimization stage the most recent batch belongs to.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// The distinct responses absorbed so far, in arrival order. Feeding this
    /// log to [`SessionState::resume`] (same configuration, same workload)
    /// rebuilds a session that resumes to the same outcome.
    pub fn answered_log(&self) -> &[LabelResponse] {
        &self.log
    }

    /// Whether the session has completed.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// The finished outcome, once the session is done.
    pub fn outcome(&self) -> Option<&OptimizationOutcome> {
        self.outcome.as_ref()
    }

    /// The warm start the session was seeded with, if any.
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Warm-start state for the next epoch, produced by completed
    /// partial-sampling sessions.
    pub fn next_warm_start(&self) -> Option<&WarmStart> {
        self.warm_out.as_ref()
    }

    /// Absorbs responses: unknown pairs are rejected, repeated labels for the
    /// same pair keep the first answer (mirroring oracle caching semantics).
    /// Absorption is transactional — a rejected batch records nothing.
    ///
    /// It costs O(responses) when the responses answer a prefix of the
    /// outstanding batch, as drivers that dispatch a batch in order do; an
    /// answer further in compacts the batch once (see `settle`).
    fn absorb(&mut self, responses: &[LabelResponse]) -> Result<()> {
        if responses.is_empty() {
            return Ok(());
        }
        let index_of = &self.index_of;
        // Validate the whole batch before recording anything, so a rejected
        // step leaves the label store, cost log and checkpoint untouched.
        let indices: Vec<usize> = responses
            .iter()
            .map(|response| {
                index_of.get(response.pair_id).ok_or_else(|| {
                    HumoError::InvalidResponse(format!(
                        "response labels pair {} which is not part of this session's workload",
                        response.pair_id
                    ))
                })
            })
            .collect::<Result<_>>()?;
        let log = self.log.len();
        for (response, &index) in responses.iter().zip(&indices) {
            if self.labels[index].is_none() {
                self.labels[index] = Some(response.label);
                self.log.push(*response);
            }
        }
        self.settle(self.log.len() - log);
        Ok(())
    }

    /// Drops newly labeled requests from the outstanding batch, keeping the
    /// rest in order. `answered` counts the positions just labeled. The head
    /// moves over the answered prefix; every request it passes was
    /// outstanding, hence unlabeled before, so it is one of them. If it
    /// passes all `answered`, or reaches the end of the batch, no labeled
    /// request is left behind it and nothing else moves. Otherwise an answer
    /// lies past the head, or answered a pair the batch does not hold, and
    /// one `retain` compacts the batch.
    fn settle(&mut self, answered: usize) {
        let labels = &self.labels;
        let start = self.head;
        while self.pending.get(self.head).is_some_and(|r| labels[r.index].is_some()) {
            self.head += 1;
        }
        if self.head - start < answered && self.head < self.pending.len() {
            self.pending.retain(|request| labels[request.index].is_none());
            self.head = 0;
        }
    }

    /// Absorbs responses *without* advancing the replay, returning the slice
    /// of the answered log that was newly appended — the exact records a
    /// write-ahead log must persist before the next [`SessionState::poll`]
    /// replays them. Responses repeating an already-answered pair are
    /// deduplicated away (first answer wins) and therefore do not appear in
    /// the returned slice; a batch referencing a pair outside the workload is
    /// rejected wholesale and records nothing. A completed session is frozen:
    /// late responses are ignored and the returned slice is empty.
    ///
    /// `step(workload, responses)` is exactly `absorb_responses(responses)`
    /// followed by `poll(workload)`.
    pub fn absorb_responses(&mut self, responses: &[LabelResponse]) -> Result<&[LabelResponse]> {
        if self.outcome.is_some() {
            return Ok(&[]);
        }
        let before = self.log.len();
        self.absorb(responses)?;
        Ok(&self.log[before..])
    }

    /// Polls the session without supplying any responses — exactly
    /// [`SessionState::step`] with an empty response slice.
    ///
    /// A poll asks "where are you?": it re-emits the still-outstanding batch
    /// (without counting a new label round-trip) or returns the stored
    /// outcome. It is the natural first call on a fresh or resumed session,
    /// and `step(workload, responses)` is "absorb `responses`, then poll".
    pub fn poll(&mut self, workload: &Workload) -> Result<Step> {
        self.step(workload, &[])
    }

    /// Advances the session: absorbs `responses`, replays the optimizer
    /// against everything answered so far, and either emits the next batch of
    /// label requests or completes — i.e. absorb, then [`SessionState::poll`].
    ///
    /// `workload` must be the workload the state was created for. Responses
    /// may cover any subset of any emitted batch (and may even pre-answer
    /// pairs the session has not asked about yet); the session re-emits
    /// whatever is still missing. Stepping a completed session ignores the
    /// responses and returns the stored outcome again.
    ///
    /// While the outstanding batch is still not fully answered, the step
    /// re-emits its missing requests (in their original order, in the same
    /// phase, counting no new round) *without* replaying the optimizer: a
    /// replay could only suspend at that same batch again. This holds with
    /// the replay cache enabled (the default), after a
    /// [`SessionState::preload`] too, since a preload only adds labels. See
    /// [`SessionState::with_replay_cache`]. Such a re-emitting step costs
    /// O(responses) to absorb answers to a prefix of the batch (one
    /// compaction of the batch otherwise) plus one copy of the
    /// [`pending`](SessionState::pending) slice it returns.
    pub fn step(&mut self, workload: &Workload, responses: &[LabelResponse]) -> Result<Step> {
        // A completed session is frozen: late responses are ignored rather
        // than absorbed, so the answered log (and any checkpoint taken from
        // it) keeps matching the stored outcome's cost counters.
        if let Some(outcome) = &self.outcome {
            return Ok(Step::Done(outcome.clone()));
        }
        self.absorb(responses)?;
        // Re-emission short-circuit: while the outstanding batch is not fully
        // answered, a replay would suspend at the same `require` and emit
        // exactly what the order-preserving `settle`s of `absorb` and
        // `preload` left pending — in the same phase, without opening a
        // round or touching the cache.
        if self.cache.enabled && !self.pending().is_empty() {
            workload.obs().counter("session.replay_cache.reemit_hits", 1);
            return Ok(Step::NeedLabels(self.pending().to_vec()));
        }
        let attempt = run_core(
            &self.config,
            self.warm.as_ref(),
            workload,
            &LabelSlate::new(&self.labels),
            &mut self.cache,
        );
        match attempt {
            Ok(core) => {
                self.cache.clear();
                let metrics = workload.evaluate(&core.assignment)?;
                let verification_cost = core.solution.human_region_size();
                let total_human_cost = self.log.len();
                let outcome = OptimizationOutcome {
                    solution: core.solution,
                    assignment: core.assignment,
                    metrics,
                    verification_cost,
                    sampling_cost: total_human_cost.saturating_sub(verification_cost),
                    total_human_cost,
                };
                self.pending.clear();
                self.head = 0;
                self.phase = SessionPhase::Done;
                self.warm_out = core.warm_out;
                self.outcome = Some(outcome.clone());
                Ok(Step::Done(outcome))
            }
            Err(Suspend::Need { phase, indices }) => {
                // Re-emitting (a subset of) the outstanding batch — a
                // zero-progress poll or a partial-response step — is not a new
                // dispatch wave, so it counts no round. Any replay with a batch
                // outstanding is one: the replay is deterministic, labels only
                // grow and a `require` suspends only on missing pairs, so it
                // suspends at that batch and emits its unanswered subset.
                let reemission = !self.pending().is_empty();
                self.pending = requests_for(workload, indices);
                self.head = 0;
                if !reemission {
                    self.rounds += 1;
                    // Per-phase breakdown: the sampling phase is the
                    // optimizer's *plan* stage; boundary search and
                    // verification both *refine* the planned solution.
                    let obs = workload.obs();
                    obs.counter("session.rounds", 1);
                    match phase {
                        SessionPhase::Sampling => {
                            self.plan_rounds += 1;
                            obs.counter("session.rounds.plan", 1);
                        }
                        SessionPhase::BoundarySearch | SessionPhase::Verification => {
                            self.refine_rounds += 1;
                            obs.counter("session.rounds.refine", 1);
                        }
                        SessionPhase::Done => {}
                    }
                }
                self.phase = phase;
                Ok(Step::NeedLabels(self.pending.clone()))
            }
            Err(Suspend::Fail(e)) => Err(e),
        }
    }
}

/// A resumable, batched human-in-the-loop optimization over one workload.
///
/// See the [module documentation](self) for the full state-machine story. In
/// short: call [`LabelingSession::step`] with the responses you have (none to
/// start), dispatch every emitted [`Step::NeedLabels`] batch to your labelers,
/// and keep stepping until [`Step::Done`]. [`LabelingSession::drive`] runs
/// that loop against a synchronous [`Oracle`].
///
/// The wrapper binds the workload borrow and dereferences, read-only, to its
/// [`SessionState`] for every accessor (`session.rounds()`, …), so its own
/// `step` is the only way to advance it: always against its workload.
#[derive(Debug, Clone)]
pub struct LabelingSession<'w> {
    workload: &'w Workload,
    state: SessionState,
}

impl std::ops::Deref for LabelingSession<'_> {
    type Target = SessionState;

    fn deref(&self) -> &SessionState {
        &self.state
    }
}

impl<'w> LabelingSession<'w> {
    /// Creates a session for the given optimizer configuration and workload.
    pub fn new(config: SessionConfig, workload: &'w Workload) -> Result<Self> {
        Ok(Self { workload, state: SessionState::new(config, workload)? })
    }

    /// Rebuilds a session from a previous session's answered-label log; the
    /// next [`LabelingSession::step`] resumes to the same outcome the original
    /// session was heading for. A session that was created with a warm start
    /// must be rebuilt with the same warm start, through
    /// [`LabelingSession::from_state`]. See [`SessionState::resume`].
    pub fn resume(
        config: SessionConfig,
        workload: &'w Workload,
        log: &[LabelResponse],
    ) -> Result<Self> {
        Ok(Self { workload, state: SessionState::resume(config, workload, log)? })
    }

    /// Wraps an owned [`SessionState`] (e.g. one seeded or re-seeded with
    /// [`SessionState::with_warm_start`], or rebuilt via
    /// [`SessionState::resume`]) for the workload it was created for.
    pub fn from_state(state: SessionState, workload: &'w Workload) -> Self {
        Self { workload, state }
    }

    /// The workload this session optimizes.
    pub fn workload(&self) -> &'w Workload {
        self.workload
    }

    /// The owned session state (for embedding or inspection).
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    pub(crate) fn state_mut(&mut self) -> &mut SessionState {
        &mut self.state
    }

    /// Enables or disables the cross-step replay cache (enabled by default) —
    /// a pure performance knob. See [`SessionState::with_replay_cache`].
    pub fn with_replay_cache(mut self, enabled: bool) -> Self {
        self.state = self.state.with_replay_cache(enabled);
        self
    }

    /// Polls the session without supplying any responses: re-emits the
    /// still-outstanding batch (not counted as a new label round-trip) or
    /// returns the stored outcome. See [`SessionState::poll`].
    pub fn poll(&mut self) -> Result<Step> {
        self.state.poll(self.workload)
    }

    /// Advances the session with the given responses — absorb, then
    /// [`LabelingSession::poll`]. See [`SessionState::step`] for the exact
    /// semantics.
    pub fn step(&mut self, responses: &[LabelResponse]) -> Result<Step> {
        self.state.step(self.workload, responses)
    }

    /// Runs the session to completion against a synchronous [`Oracle`],
    /// answering every emitted batch through [`Oracle::label_batch`].
    ///
    /// The outcome's cost counters are *session-scoped*: they count the
    /// distinct labels this session absorbed (including any checkpointed
    /// labels it was resumed from), regardless of how the session was driven.
    /// For a fresh session driven by a fresh oracle that equals the oracle's
    /// distinct-pair counter.
    pub fn drive(&mut self, oracle: &mut dyn Oracle) -> Result<OptimizationOutcome> {
        let mut responses: Vec<LabelResponse> = Vec::new();
        loop {
            match self.step(&responses)? {
                Step::Done(outcome) => return Ok(outcome),
                Step::NeedLabels(requests) => {
                    responses = answer_requests(self.workload, &requests, oracle);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
    use std::collections::BTreeSet;

    fn workload(n: usize) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau: 14.0,
            sigma: 0.1,
            subset_size: 200,
            seed: 7,
        })
        .generate()
    }

    fn ground_truth_responses(
        workload: &Workload,
        requests: &[LabelRequest],
    ) -> Vec<LabelResponse> {
        requests
            .iter()
            .map(|request| LabelResponse {
                pair_id: request.pair_id,
                label: workload.pair(request.index).ground_truth(),
            })
            .collect()
    }

    fn drive_manually(session: &mut LabelingSession<'_>) -> OptimizationOutcome {
        let workload = session.workload();
        let mut responses = Vec::new();
        loop {
            match session.step(&responses).unwrap() {
                Step::Done(outcome) => return outcome,
                Step::NeedLabels(requests) => {
                    assert!(!requests.is_empty(), "empty NeedLabels batch");
                    responses = ground_truth_responses(workload, &requests);
                }
            }
        }
    }

    #[test]
    fn all_human_session_verifies_everything_in_one_round() {
        let w = workload(400);
        let mut session = LabelingSession::new(SessionConfig::AllHuman, &w).unwrap();
        let Step::NeedLabels(requests) = session.step(&[]).unwrap() else {
            panic!("expected a verification batch");
        };
        assert_eq!(requests.len(), w.len());
        assert_eq!(session.phase(), SessionPhase::Verification);
        let responses = ground_truth_responses(&w, &requests);
        let Step::Done(outcome) = session.step(&responses).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(session.rounds(), 1);
        assert_eq!(outcome.total_human_cost, w.len());
        assert_eq!(outcome.metrics.precision(), 1.0);
        assert_eq!(outcome.metrics.recall(), 1.0);
        // Stepping a completed session is idempotent.
        let Step::Done(again) = session.step(&[]).unwrap() else { panic!("still done") };
        assert_eq!(again.solution, outcome.solution);
        assert!(session.is_done());
        assert_eq!(session.phase(), SessionPhase::Done);
    }

    #[test]
    fn batches_contain_only_distinct_unanswered_pairs() {
        let w = workload(8_000);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in OptimizerKind::all() {
            let config = SessionConfig::for_kind(kind, requirement);
            let mut session = LabelingSession::new(config, &w).unwrap();
            let mut answered: BTreeSet<PairId> = BTreeSet::new();
            let mut responses = Vec::new();
            loop {
                match session.step(&responses).unwrap() {
                    Step::Done(_) => break,
                    Step::NeedLabels(requests) => {
                        let mut in_batch = BTreeSet::new();
                        for request in &requests {
                            assert!(
                                in_batch.insert(request.pair_id),
                                "{kind:?}: duplicate pair {} within a batch",
                                request.pair_id
                            );
                            assert!(
                                !answered.contains(&request.pair_id),
                                "{kind:?}: pair {} requested after being answered",
                                request.pair_id
                            );
                        }
                        answered.extend(in_batch);
                        responses = ground_truth_responses(&w, &requests);
                    }
                }
            }
            assert!(session.rounds() > 0, "{kind:?}: no batches emitted");
        }
    }

    #[test]
    fn manual_stepping_matches_oracle_driving() {
        let w = workload(8_000);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::PartialSampling, requirement);
        let manual = drive_manually(&mut LabelingSession::new(config, &w).unwrap());
        let mut oracle = GroundTruthOracle::new();
        let driven = LabelingSession::new(config, &w).unwrap().drive(&mut oracle).unwrap();
        assert_eq!(manual.solution, driven.solution);
        assert_eq!(manual.assignment, driven.assignment);
        assert_eq!(manual.total_human_cost, driven.total_human_cost);
        assert_eq!(manual.total_human_cost, oracle.labels_issued());
    }

    #[test]
    fn partial_responses_are_tolerated_and_reemitted() {
        let w = workload(4_000);
        let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::Baseline, requirement);
        let reference = drive_manually(&mut LabelingSession::new(config, &w).unwrap());
        let mut session = LabelingSession::new(config, &w).unwrap();
        let mut responses: Vec<LabelResponse> = Vec::new();
        let outcome = loop {
            match session.step(&responses).unwrap() {
                Step::Done(outcome) => break outcome,
                Step::NeedLabels(requests) => {
                    // Answer only (the first) half of every batch; the rest is
                    // re-emitted by the next step.
                    let half = requests.len().div_ceil(2);
                    responses = ground_truth_responses(&w, &requests[..half]);
                }
            }
        };
        assert_eq!(outcome.solution, reference.solution);
        assert_eq!(outcome.total_human_cost, reference.total_human_cost);
    }

    #[test]
    fn resume_from_answered_log_reaches_the_same_outcome() {
        let w = workload(8_000);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
        let reference = drive_manually(&mut LabelingSession::new(config, &w).unwrap());

        // Run a fresh session for a few rounds, checkpoint, drop it.
        let mut session = LabelingSession::new(config, &w).unwrap();
        let mut responses = Vec::new();
        for _ in 0..4 {
            match session.step(&responses).unwrap() {
                Step::Done(_) => break,
                Step::NeedLabels(requests) => {
                    responses = ground_truth_responses(&w, &requests);
                }
            }
        }
        // Absorb the last responses so the log covers them, then checkpoint.
        let _ = session.step(&responses).unwrap();
        let log = session.answered_log().to_vec();
        drop(session);

        let mut resumed = LabelingSession::resume(config, &w, &log).unwrap();
        let outcome = drive_manually(&mut resumed);
        assert_eq!(outcome.solution, reference.solution);
        assert_eq!(outcome.assignment, reference.assignment);
        assert_eq!(outcome.total_human_cost, reference.total_human_cost);
    }

    #[test]
    fn polls_and_partial_responses_do_not_inflate_round_trips() {
        let w = workload(2_000);
        let mut session = LabelingSession::new(SessionConfig::AllHuman, &w).unwrap();
        let Step::NeedLabels(requests) = session.step(&[]).unwrap() else {
            panic!("expected a verification batch");
        };
        assert_eq!(session.rounds(), 1);
        // Zero-progress polls re-emit the outstanding batch without counting.
        for _ in 0..3 {
            let _ = session.step(&[]).unwrap();
        }
        assert_eq!(session.rounds(), 1);
        // Partial responses re-emit the remainder without counting: the
        // original dispatch wave is still outstanding with the workers.
        let half = requests.len() / 2;
        let responses = ground_truth_responses(&w, &requests[..half]);
        let Step::NeedLabels(rest) = session.step(&responses).unwrap() else {
            panic!("expected the remainder to be re-emitted");
        };
        assert_eq!(rest.len(), requests.len() - half);
        assert_eq!(session.rounds(), 1);
        let responses = ground_truth_responses(&w, &rest);
        assert!(matches!(session.step(&responses).unwrap(), Step::Done(_)));
        assert_eq!(session.rounds(), 1);
    }

    #[test]
    fn partial_steps_reemit_without_replaying() {
        let mut w = workload(8_000);
        let metrics = std::sync::Arc::new(er_obs::MetricsRecorder::new());
        w.set_obs(er_obs::ObsHandle::new(metrics.clone()));
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::PartialSampling, requirement);
        let mut session = LabelingSession::new(config, &w).unwrap();
        let Step::NeedLabels(batch) = session.poll().unwrap() else {
            panic!("expected the initial sampling batch");
        };
        assert!(batch.len() >= 3);
        let hits = || metrics.snapshot().counter("session.replay_cache.reemit_hits");
        // A poll and a partial answer both re-emit the rest, in order, from
        // the outstanding batch alone.
        let Step::NeedLabels(again) = session.poll().unwrap() else { panic!("still waiting") };
        assert_eq!(again, batch);
        let responses = ground_truth_responses(&w, &batch[..2]);
        let Step::NeedLabels(rest) = session.step(&responses).unwrap() else {
            panic!("still waiting")
        };
        assert_eq!(rest, batch[2..]);
        assert_eq!(hits(), 2);
        assert_eq!((session.rounds(), session.phase()), (1, SessionPhase::Sampling));
        // Answering the rest replays and opens the next round.
        let responses = ground_truth_responses(&w, &rest);
        let _ = session.step(&responses).unwrap();
        assert_eq!(hits(), 2);
        assert_eq!(session.rounds(), 2);
    }

    #[test]
    fn require_reports_missing_indices_once_in_first_occurrence_order() {
        let mut labels: Vec<Option<Label>> = vec![None; 8];
        labels[1] = Some(Label::Match);
        labels[4] = Some(Label::Unmatch);
        let slate = LabelSlate::new(&labels);
        // Answered indices pass without a suspension.
        assert!(slate.require(SessionPhase::Verification, [1, 4, 1, 4]).is_ok());
        assert!(slate.require(SessionPhase::Verification, []).is_ok());
        // Duplicates, answered and unanswered indices in one call.
        let Err(Suspend::Need { phase, indices }) =
            slate.require(SessionPhase::BoundarySearch, [6, 1, 3, 6, 4, 0, 3, 7, 1])
        else {
            panic!("expected a suspension");
        };
        assert_eq!(phase, SessionPhase::BoundarySearch);
        assert_eq!(indices, vec![6, 3, 0, 7]);
        // Increasing, then repeating and falling back.
        let Err(Suspend::Need { indices, .. }) =
            slate.require(SessionPhase::Sampling, [2, 5, 5, 1, 0, 2])
        else {
            panic!("expected a suspension");
        };
        assert_eq!(indices, vec![2, 5, 0]);
        let Err(Suspend::Need { indices, .. }) =
            slate.require(SessionPhase::Sampling, [0, 2, 3, 5, 7, 6, 0, 3])
        else {
            panic!("expected a suspension");
        };
        assert_eq!(indices, vec![0, 2, 3, 5, 7, 6]);
    }

    #[test]
    fn boundary_search_replays_resume_instead_of_repeating_moves() {
        let mut w = workload(20_000);
        let metrics = std::sync::Arc::new(er_obs::MetricsRecorder::new());
        w.set_obs(er_obs::ObsHandle::new(metrics.clone()));
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in [OptimizerKind::Hybrid, OptimizerKind::Baseline] {
            metrics.reset();
            let evaluations = || metrics.snapshot().counter("refine.search_evaluations");
            let mut session =
                LabelingSession::new(SessionConfig::for_kind(kind, requirement), &w).unwrap();
            let (mut refine_replays, mut moves) = (0, 0);
            let mut responses = Vec::new();
            loop {
                // Whole-batch answers: every step replays.
                let before = evaluations();
                let step = session.step(&responses).unwrap();
                let this_replay = evaluations() - before;
                assert!(this_replay <= 2, "{kind:?}: {this_replay} bound evaluations in a replay");
                if session.phase() != SessionPhase::Sampling {
                    refine_replays += 1;
                }
                match step {
                    Step::Done(_) => break,
                    Step::NeedLabels(requests) => {
                        moves += usize::from(session.phase() == SessionPhase::BoundarySearch);
                        responses = ground_truth_responses(&w, &requests);
                    }
                }
            }
            let snapshot = metrics.snapshot();
            let total = snapshot.counter("refine.search_evaluations");
            assert!(moves > 3, "{kind:?}: the search made only {moves} moves");
            assert!(
                total <= 2 * refine_replays,
                "{kind:?}: {total} bound evaluations over {refine_replays} refine replays"
            );
            assert!(snapshot.counter("session.replay_cache.search_hits") >= moves as u64 - 1);
        }
    }

    #[test]
    fn preloading_an_outstanding_pair_drops_it_and_opens_no_round() {
        let mut w = workload(8_000);
        let metrics = std::sync::Arc::new(er_obs::MetricsRecorder::new());
        w.set_obs(er_obs::ObsHandle::new(metrics.clone()));
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
        let mut cached = SessionState::new(config, &w).unwrap();
        let mut reference = SessionState::new(config, &w).unwrap().with_replay_cache(false);
        let Step::NeedLabels(batch) = cached.poll(&w).unwrap() else {
            panic!("expected the initial sampling batch");
        };
        assert!(batch.len() >= 3);
        let answered = ground_truth_responses(&w, &batch[..1]);
        let preloaded = ground_truth_responses(&w, &batch[1..2]);
        // Preloads that must change nothing: the answered pair with the
        // opposite label, and a pair outside the workload.
        let flipped = LabelResponse {
            pair_id: answered[0].pair_id,
            label: Label::from_bool(!answered[0].label.is_match()),
        };
        let foreign = LabelResponse { pair_id: PairId(u64::MAX), label: Label::Match };
        let mut emitted = Vec::new();
        for (state, reemit_hits) in [(&mut cached, 1), (&mut reference, 0)] {
            let _ = state.poll(&w).unwrap();
            let _ = state.step(&w, &answered).unwrap();
            let rounds = state.rounds();
            state.preload(preloaded.iter().copied().chain([flipped, foreign]));
            assert_eq!(state.pending(), &batch[2..], "pending must drop the preloaded pair");
            assert_eq!(state.labels[batch[0].index], Some(answered[0].label), "the log wins");
            metrics.reset();
            let Step::NeedLabels(rest) = state.poll(&w).unwrap() else {
                panic!("expected the rest of the batch");
            };
            // The cached state re-emits after the preload without a replay.
            let hits = metrics.snapshot().counter("session.replay_cache.reemit_hits");
            assert_eq!(hits, reemit_hits);
            assert_eq!(state.rounds(), rounds);
            assert_eq!(state.phase(), SessionPhase::Sampling);
            assert_eq!(state.answered_log(), &answered[..]);
            emitted.push(rest);
        }
        assert_eq!(emitted[0], batch[2..]);
        assert_eq!(emitted[0], emitted[1]);
    }

    #[test]
    fn falling_back_mid_flight_matches_a_fresh_all_human_state_over_the_same_labels() {
        let w = workload(8_000);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);
        let preloads =
            ground_truth_responses(&w, &requests_for(&w, (0..w.len()).step_by(97).collect()));
        let mut state = SessionState::new(config, &w).unwrap();
        state.preload(preloads.iter().copied());
        let mut responses = Vec::new();
        while state.plan_rounds() < 2 {
            let Step::NeedLabels(requests) = state.step(&w, &responses).unwrap() else {
                panic!("HYBR plans for more than two rounds");
            };
            responses = ground_truth_responses(&w, &requests);
        }
        // Mid-flight: half of the second plan round is answered.
        state.absorb_responses(&responses[..responses.len() / 2]).unwrap();
        assert!(!state.pending().is_empty());
        let log = state.answered_log().to_vec();
        let counters = (state.rounds(), state.plan_rounds(), state.refine_rounds());
        // The reference: a fresh all-human state, preloaded, absorbing the
        // log.
        let mut reference = SessionState::new(SessionConfig::AllHuman, &w).unwrap();
        reference.preload(preloads.iter().copied());
        reference.absorb_responses(&log).unwrap();

        state.fall_back_to_all_human();
        assert_eq!(state.config(), &SessionConfig::AllHuman);
        assert_eq!(state.answered_log(), &log[..]);
        assert_eq!((state.rounds(), state.plan_rounds(), state.refine_rounds()), counters);
        assert!(state.pending().is_empty() && state.warm_start().is_none());
        assert_eq!(state.phase(), reference.phase());

        // Lockstep, answering half of every batch so re-emissions show too.
        let mut responses = Vec::new();
        let mut steps = 0;
        loop {
            let step = state.step(&w, &responses).unwrap();
            let expected = reference.step(&w, &responses).unwrap();
            steps += 1;
            if steps == 1 {
                let (rounds, plan, refine) = counters;
                let after = (state.rounds(), state.plan_rounds(), state.refine_rounds());
                assert_eq!(after, (rounds + 1, plan, refine + 1), "one refine round opens");
            }
            assert_eq!(state.rounds(), counters.0 + reference.rounds());
            assert_eq!(state.plan_rounds(), counters.1 + reference.plan_rounds());
            assert_eq!(state.refine_rounds(), counters.2 + reference.refine_rounds());
            assert_eq!(state.phase(), reference.phase());
            assert_eq!(state.pending(), reference.pending());
            match (step, expected) {
                (Step::NeedLabels(batch), Step::NeedLabels(expected)) => {
                    assert_eq!(batch, expected);
                    responses = ground_truth_responses(&w, &batch[..batch.len().div_ceil(2)]);
                }
                (Step::Done(outcome), Step::Done(expected)) => {
                    assert_eq!(outcome.solution, expected.solution);
                    assert_eq!(outcome.assignment, expected.assignment);
                    assert_eq!(outcome.metrics, expected.metrics);
                    assert_eq!(outcome.verification_cost, expected.verification_cost);
                    assert_eq!(outcome.sampling_cost, expected.sampling_cost);
                    assert_eq!(outcome.total_human_cost, expected.total_human_cost);
                    break;
                }
                _ => panic!("step {steps}: the fallback and the reference diverged"),
            }
        }
        assert!(steps > 2, "the verification round was answered in pieces");
        assert_eq!(state.answered_log(), reference.answered_log());
    }

    #[test]
    fn late_responses_after_completion_do_not_pollute_the_checkpoint_log() {
        let w = workload(400);
        let mut session = LabelingSession::new(SessionConfig::AllHuman, &w).unwrap();
        let Step::NeedLabels(requests) = session.step(&[]).unwrap() else {
            panic!("expected a verification batch");
        };
        let responses = ground_truth_responses(&w, &requests);
        let Step::Done(outcome) = session.step(&responses).unwrap() else {
            panic!("expected completion");
        };
        let log_len = session.answered_log().len();
        // A straggler response arriving after completion is ignored: the log
        // (and a resume from it) keeps matching the stored outcome's cost.
        let straggler = ground_truth_responses(&w, &requests[..1]);
        assert!(matches!(session.step(&straggler).unwrap(), Step::Done(_)));
        assert_eq!(session.answered_log().len(), log_len);
        assert_eq!(session.state().outcome().unwrap().total_human_cost, outcome.total_human_cost);
    }

    #[test]
    fn resume_rejects_logs_that_reference_foreign_pairs() {
        let w = workload(400);
        let log = vec![LabelResponse { pair_id: PairId(u64::MAX), label: Label::Match }];
        assert!(matches!(
            LabelingSession::resume(SessionConfig::AllHuman, &w, &log),
            Err(HumoError::InvalidResponse(_))
        ));
    }

    #[test]
    fn responses_for_unknown_pairs_are_rejected() {
        let w = workload(400);
        let mut session = LabelingSession::new(SessionConfig::AllHuman, &w).unwrap();
        // A rejected batch is transactional: the valid response preceding the
        // bogus one must not leak into the answered log or the cost basis.
        let valid = LabelResponse { pair_id: w.pair(0).id(), label: Label::Match };
        let bogus = LabelResponse { pair_id: PairId(u64::MAX), label: Label::Match };
        assert!(matches!(session.step(&[valid, bogus]), Err(HumoError::InvalidResponse(_))));
        assert!(session.answered_log().is_empty(), "rejected step must record nothing");
    }

    #[test]
    fn warm_started_sessions_resume_with_their_warm_start() {
        let w = workload(12_000);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        // Epoch 1 produces the warm-start state.
        let mut epoch1 = GroundTruthOracle::new();
        let warm = config.plan(&w, &mut epoch1, None).unwrap().warm_start(&w);
        assert!(!warm.is_empty());
        // Reference: a warm-started session driven to completion.
        let session_config = SessionConfig::PartialSampling(config);
        let warm_state =
            || SessionState::new(session_config, &w).unwrap().with_warm_start(Some(warm.clone()));
        let mut reference = LabelingSession::from_state(warm_state(), &w);
        let reference_outcome = drive_manually(&mut reference);
        // Checkpoint a second warm-started session after a few rounds, then
        // resume it with the same warm start: identical outcome and log.
        let mut session = LabelingSession::from_state(warm_state(), &w);
        let mut responses = Vec::new();
        for _ in 0..2 {
            match session.step(&responses).unwrap() {
                Step::Done(_) => break,
                Step::NeedLabels(requests) => {
                    responses = ground_truth_responses(&w, &requests);
                }
            }
        }
        let _ = session.step(&responses).unwrap();
        let log = session.answered_log().to_vec();
        drop(session);
        let resumed_state =
            SessionState::resume(session_config, &w, &log).unwrap().with_warm_start(Some(warm));
        let mut resumed = LabelingSession::from_state(resumed_state, &w);
        let resumed_outcome = drive_manually(&mut resumed);
        assert_eq!(resumed_outcome.solution, reference_outcome.solution);
        assert_eq!(resumed_outcome.assignment, reference_outcome.assignment);
        assert_eq!(resumed_outcome.total_human_cost, reference_outcome.total_human_cost);
        assert_eq!(resumed.answered_log(), reference.answered_log());
    }

    #[test]
    fn drive_reports_session_scoped_costs_for_resumed_sessions() {
        // Cost counters are session-scoped: a checkpointed session finished
        // with drive() and a *fresh* oracle must still count the labels it was
        // resumed from, and driving an already-completed session must return
        // the stored outcome unchanged.
        let w = workload(4_000);
        let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
        let config = SessionConfig::for_kind(OptimizerKind::Baseline, requirement);
        let reference = drive_manually(&mut LabelingSession::new(config, &w).unwrap());

        let mut session = LabelingSession::new(config, &w).unwrap();
        let mut responses = Vec::new();
        for _ in 0..2 {
            match session.step(&responses).unwrap() {
                Step::Done(_) => break,
                Step::NeedLabels(requests) => {
                    responses = ground_truth_responses(&w, &requests);
                }
            }
        }
        let _ = session.step(&responses).unwrap();
        let log = session.answered_log().to_vec();
        assert!(!log.is_empty());
        drop(session);

        let mut resumed = LabelingSession::resume(config, &w, &log).unwrap();
        let mut fresh_oracle = GroundTruthOracle::new();
        let driven = resumed.drive(&mut fresh_oracle).unwrap();
        assert_eq!(driven.total_human_cost, reference.total_human_cost);
        assert!(fresh_oracle.labels_issued() < driven.total_human_cost);
        // Stored outcome and later steps agree with the returned one.
        assert_eq!(resumed.state().outcome().unwrap().total_human_cost, driven.total_human_cost);
        // Driving a completed session returns the stored outcome unchanged,
        // even with an oracle that answered nothing.
        let again = resumed.drive(&mut GroundTruthOracle::new()).unwrap();
        assert_eq!(again.total_human_cost, driven.total_human_cost);
        assert_eq!(again.solution, driven.solution);
    }

    #[test]
    fn empty_workloads_are_rejected_at_the_first_step() {
        let empty = Workload::from_pairs(vec![]).unwrap();
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        for kind in OptimizerKind::all() {
            let config = SessionConfig::for_kind(kind, requirement);
            let mut session = LabelingSession::new(config, &empty).unwrap();
            assert!(matches!(session.step(&[]), Err(HumoError::InvalidWorkload(_))));
        }
        // The all-human fallback accepts an empty workload (zero-round done).
        let mut session = LabelingSession::new(SessionConfig::AllHuman, &empty).unwrap();
        assert!(matches!(session.step(&[]).unwrap(), Step::Done(_)));
    }

    #[test]
    fn out_of_range_tail_calibrations_are_rejected() {
        use crate::sampling::TailCalibration;
        let w = workload(400);
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let configs = |tail: TailCalibration| {
            let mut hybr = HybridConfig::new(requirement);
            hybr.sampling.tail_calibration = tail;
            [
                SessionConfig::PartialSampling(PartialSamplingConfig {
                    tail_calibration: tail,
                    ..PartialSamplingConfig::new(requirement)
                }),
                SessionConfig::Hybrid(hybr),
                SessionConfig::AllSampling(AllSamplingConfig {
                    tail_calibration: tail,
                    ..AllSamplingConfig::new(requirement)
                }),
            ]
        };
        let default = TailCalibration::default();
        for tail in [
            TailCalibration { distance_strength: -1.0, ..default },
            TailCalibration { distance_strength: f64::NAN, ..default },
            TailCalibration { distance_strength: f64::INFINITY, ..default },
            TailCalibration { quiet_fraction: -0.05, ..default },
            TailCalibration { quiet_fraction: 0.5, ..default },
            TailCalibration { quiet_fraction: f64::NAN, ..default },
            TailCalibration { quiet_fraction: -0.05, ..TailCalibration::disabled() },
        ] {
            for config in configs(tail) {
                assert!(
                    matches!(LabelingSession::new(config, &w), Err(HumoError::InvalidConfig(_))),
                    "{config:?} was accepted"
                );
            }
        }
        // The closed ends of both ranges are valid.
        for tail in [
            TailCalibration { distance_strength: 0.0, quiet_fraction: 0.0, ..default },
            TailCalibration { quiet_fraction: 0.49, ..default },
        ] {
            for config in configs(tail) {
                assert!(LabelingSession::new(config, &w).is_ok(), "{config:?} was rejected");
            }
        }
    }
}

/// The head-offset outstanding batch against the `retain`-based batch it
/// replaced: a model that keeps the last emission and drops every newly
/// labeled request from it with one `retain` per absorb or preload.
#[cfg(test)]
mod pending_differential {
    use super::*;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The outstanding batch as `absorb` and `preload` kept it with
    /// `pending.retain(..)`.
    struct RetainPending {
        labeled: Vec<bool>,
        pending: Vec<LabelRequest>,
        index_of: HashMap<PairId, usize>,
    }

    impl RetainPending {
        fn new(workload: &Workload) -> Self {
            let index_of = workload.iter().enumerate().map(|(i, pair)| (pair.id(), i)).collect();
            Self { labeled: vec![false; workload.len()], pending: Vec::new(), index_of }
        }

        /// Labels the known pairs and drops them from the batch; a batch
        /// naming a foreign pair records nothing, like `absorb`.
        fn absorb(&mut self, responses: &[LabelResponse], preload: bool) {
            let known = responses.iter().all(|r| self.index_of.contains_key(&r.pair_id));
            if !known && !preload {
                return;
            }
            for response in responses {
                if let Some(&index) = self.index_of.get(&response.pair_id) {
                    self.labeled[index] = true;
                }
            }
            let labeled = &self.labeled;
            self.pending.retain(|request| !labeled[request.index]);
        }
    }

    fn truth(w: &Workload, index: usize) -> LabelResponse {
        let pair = w.pair(index);
        LabelResponse { pair_id: pair.id(), label: pair.ground_truth() }
    }

    /// Responses to the outstanding `batch`: a prefix, a shuffled subset or
    /// nothing, with repeated responses (some with the opposite label),
    /// answers to pairs not asked yet, and now and then a foreign pair that
    /// makes the whole step fail.
    fn responses(rng: &mut StdRng, w: &Workload, batch: &[LabelRequest]) -> Vec<LabelResponse> {
        let mut out: Vec<LabelResponse> = match rng.gen_range(0..10) {
            0 => Vec::new(),
            1..=5 if !batch.is_empty() => {
                let k = rng.gen_range(1..batch.len() + 1);
                batch[..k].iter().map(|r| truth(w, r.index)).collect()
            }
            _ => {
                let mut subset: Vec<LabelResponse> = batch
                    .iter()
                    .filter(|_| rng.gen_range(0..3) == 0)
                    .map(|r| truth(w, r.index))
                    .collect();
                subset.shuffle(rng);
                subset
            }
        };
        for _ in 0..rng.gen_range(0..3) {
            if let Some(&again) = out.get(rng.gen_range(0..out.len().max(1))) {
                let flip = rng.gen_range(0..2) == 0;
                out.push(LabelResponse {
                    label: Label::from_bool(again.label.is_match() != flip),
                    ..again
                });
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            out.push(truth(w, rng.gen_range(0..w.len())));
        }
        if rng.gen_range(0..25) == 0 {
            out.push(LabelResponse { pair_id: PairId(u64::MAX), label: Label::Match });
        }
        out
    }

    fn run_case(
        kind: OptimizerKind,
        cache: bool,
        seed: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let w = SyntheticGenerator::new(SyntheticConfig {
            num_pairs: 2_000,
            tau: 14.0,
            sigma: 0.1,
            subset_size: 100,
            seed,
        })
        .generate();
        let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
        let config = SessionConfig::for_kind(kind, requirement);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = SessionState::new(config, &w).unwrap().with_replay_cache(cache);
        // A full-replay twin: every step of the state under test must match
        // it too.
        let mut twin = SessionState::new(config, &w).unwrap().with_replay_cache(false);
        let mut model = RetainPending::new(&w);
        let fall_back_at = (rng.gen_range(0..3) == 0).then(|| rng.gen_range(1..12usize));
        let (mut compactions, mut prefix_steps) = (0usize, 0usize);
        let mut answers: Vec<LabelResponse> = Vec::new();
        for step in 0..600 {
            if rng.gen_range(0..12) == 0 {
                // A preload mid-flight: some outstanding pairs, some others
                // and a foreign one.
                let mut preload: Vec<LabelResponse> = state
                    .pending()
                    .iter()
                    .filter(|_| rng.gen_range(0..4) == 0)
                    .map(|r| truth(&w, r.index))
                    .collect();
                preload.push(truth(&w, rng.gen_range(0..w.len())));
                preload.push(LabelResponse { pair_id: PairId(u64::MAX - 1), label: Label::Match });
                state.preload(preload.iter().copied());
                twin.preload(preload.iter().copied());
                model.absorb(&preload, true);
                prop_assert_eq!(state.pending(), &model.pending[..]);
            }
            if fall_back_at == Some(step) && !state.pending().is_empty() {
                state.fall_back_to_all_human();
                twin.fall_back_to_all_human();
                model.pending.clear();
            }
            let before = model.pending.clone();
            let stepped = state.step(&w, &answers);
            let expected = twin.step(&w, &answers);
            model.absorb(&answers, false);
            let (step_out, expected) = match (stepped, expected) {
                (Err(_), Err(_)) => {
                    prop_assert_eq!(state.pending(), &model.pending[..]);
                    answers = responses(&mut rng, &w, state.pending());
                    continue;
                }
                (Ok(a), Ok(b)) => (a, b),
                _ => return Err(TestCaseError::fail("one state failed a step, the other did not")),
            };
            if !before.is_empty() && model.pending.len() < before.len() {
                let answered_prefix = before.len() - model.pending.len();
                if model.pending[..] == before[answered_prefix..] {
                    prefix_steps += 1;
                } else {
                    compactions += 1;
                }
            }
            prop_assert_eq!(state.rounds(), twin.rounds());
            prop_assert_eq!(state.phase(), twin.phase());
            match (step_out, expected) {
                (Step::NeedLabels(batch), Step::NeedLabels(expected)) => {
                    prop_assert_eq!(&batch, &expected);
                    if model.pending.is_empty() {
                        model.pending = batch.clone();
                    } else {
                        prop_assert_eq!(&batch, &model.pending);
                    }
                }
                (Step::Done(outcome), Step::Done(expected)) => {
                    prop_assert_eq!(outcome.solution, expected.solution);
                    prop_assert_eq!(outcome.assignment, expected.assignment);
                    prop_assert_eq!(outcome.total_human_cost, expected.total_human_cost);
                    prop_assert!(state.pending().is_empty());
                    prop_assert_eq!(state.answered_log(), twin.answered_log());
                    prop_assert!(prefix_steps > 0, "no step answered a prefix");
                    prop_assert!(compactions > 0, "no step answered past the head");
                    return Ok(());
                }
                _ => return Err(TestCaseError::fail("the states diverged")),
            }
            prop_assert_eq!(state.pending(), &model.pending[..]);
            prop_assert_eq!(state.pending(), twin.pending());
            answers = responses(&mut rng, &w, state.pending());
        }
        Err(TestCaseError::fail("the session did not finish in 600 steps"))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// `pending()` and every emitted step match the `retain` model and a
        /// full-replay twin under prefix, out-of-order and duplicate answers,
        /// preloads, the all-human fallback and either replay-cache setting.
        #[test]
        fn head_offset_pending_matches_the_retain_reference(
            seed in 0u64..1_000_000,
            kind in 0usize..4,
            cache in 0u8..4,
        ) {
            run_case(OptimizerKind::all()[kind], cache != 0, seed)?;
        }
    }
}
