//! The streaming resolution engine: ingest record batches, maintain the
//! workload incrementally, re-optimize with HUMO, and emit entities.
//!
//! Each [`ResolutionEngine::ingest`] call folds a batch of records into the
//! incremental blocking index, scores only the *delta* candidate pairs on the
//! worker pool, filters them by the blocking threshold and merges them into the
//! similarity-sorted workload without re-sorting. [`ResolutionEngine::resolve`]
//! then re-optimizes the HUMO partition — warm-started from the previous
//! epoch's samples when enabled — resolves pair labels through the oracle, and
//! clusters match-labeled pairs into entities via union-find transitive
//! closure. Any [`Oracle`] drives the resolve step, including a redundantly
//! voted crowd ([`humo::CrowdOracle`]); with `Redundancy::Fixed(1)` and
//! zero-noise workers the crowd path is byte-identical to
//! [`GroundTruthOracle`](humo::GroundTruthOracle) (pinned by the
//! `crowd_oracle_fixed1_zero_noise_resolves_identically` test).
//!
//! **Equivalence guarantee:** with warm-starting disabled and a
//! dataset-independent attribute weighting (such as
//! [`AttributeWeighting::Uniform`](er_core::aggregate::AttributeWeighting)),
//! ingesting records in any batch split produces exactly the same workload,
//! thresholds, labels and entity clusters as ingesting everything in one batch
//! — pinned by the `incremental_equivalence` proptest suite. Warm-starting
//! trades that bit-exact reproducibility for a large saving in oracle queries
//! while keeping the statistical quality guarantee (measured by the
//! `pipeline_throughput` harness). With the paper's
//! `DistinctValues` weighting, attribute weights are recomputed from the
//! records seen so far, so earlier epochs score with earlier weights.

use crate::cluster::{EntityClusters, RecordKey, Side};
use crate::pool::WorkerPool;
use crate::{PipelineError, Result};
use er_core::aggregate::{PairScorer, ScoringConfig, TokenCache};
use er_core::blocking::{Candidate, IncrementalTokenIndex, TokenBlocker};
use er_core::record::{Dataset, Record, RecordId, Schema};
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_core::workload::{InstancePair, Label, PairId, QualityMetrics, Workload};
use er_obs::ObsHandle;
use humo::sampling::WarmStart;
use humo::wal::{write_ahead_step, WalRecord, WalWriter};
use humo::{
    LabelRequest, LabelResponse, OptimizationOutcome, Oracle, PartialSamplingConfig,
    QualityRequirement, SessionConfig, SessionState, Step,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Configuration of the streaming resolution pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// How candidate pairs are scored.
    pub scoring: ScoringConfig,
    /// Attribute the incremental token blocker indexes.
    pub blocking_attribute: String,
    /// Tokenizer of the blocking attribute.
    pub tokenizer: Tokenizer,
    /// Pairs scoring below this aggregated similarity are dropped at ingest
    /// (the paper's per-dataset blocking threshold).
    pub similarity_threshold: f64,
    /// Configuration of the SAMP optimizer driving each resolution epoch.
    /// Inherits the two-sided tail calibration by default, so warm-started
    /// re-optimizations certify precision through the pooled saturated-run
    /// lower bounds too: reused near-pure priors re-enter the calibrated
    /// estimator exactly like fresh samples.
    pub optimizer: PartialSamplingConfig,
    /// Worker threads for delta-pair scoring; `0` selects the machine's
    /// available parallelism.
    pub threads: usize,
    /// Whether re-resolutions seed the optimizer from the previous epoch's
    /// samples (fewer oracle queries) instead of running cold (bit-exact
    /// equivalence with a from-scratch run).
    pub warm_start: bool,
    /// Out-of-core memory budget for the blocking index's posting lists and
    /// the workload's pair segments. The default is fully resident; a bounded
    /// budget spills cold data to disk without changing any computed value
    /// (candidates, similarities, labels and entities are byte-identical to an
    /// unbounded run).
    pub memory_budget: MemoryBudget,
    /// Observability sink for the engine, its workload, its blocking index
    /// and every resolution session. Defaults to the no-op recorder, which
    /// records nothing and keeps every computed value byte-identical to an
    /// uninstrumented run (pinned by the `noop_recorder_is_inert` suite).
    pub recorder: ObsHandle,
}

impl PipelineConfig {
    /// Creates a configuration with streaming-friendly defaults: word
    /// tokenization, a 0.2 blocking threshold, warm-started re-optimization and
    /// auto-sized scoring parallelism.
    pub fn new(
        scoring: ScoringConfig,
        blocking_attribute: impl Into<String>,
        requirement: QualityRequirement,
    ) -> Self {
        Self {
            scoring,
            blocking_attribute: blocking_attribute.into(),
            tokenizer: Tokenizer::Words,
            similarity_threshold: 0.2,
            optimizer: PartialSamplingConfig::new(requirement),
            threads: 0,
            warm_start: true,
            memory_budget: MemoryBudget::default(),
            recorder: ObsHandle::default(),
        }
    }

    fn validate(&self) -> Result<()> {
        if !self.similarity_threshold.is_finite()
            || !(0.0..=1.0).contains(&self.similarity_threshold)
        {
            return Err(PipelineError::InvalidConfig(format!(
                "similarity threshold must be in [0,1], got {}",
                self.similarity_threshold
            )));
        }
        // Surface optimizer misconfiguration at engine construction, not at the
        // first resolve.
        SessionConfig::PartialSampling(self.optimizer).validate()?;
        Ok(())
    }
}

/// What one [`ResolutionEngine::ingest`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Records added to the left dataset by this batch.
    pub left_records: usize,
    /// Records added to the right dataset by this batch.
    pub right_records: usize,
    /// Delta candidate pairs produced by the incremental blocking index.
    pub delta_candidates: usize,
    /// Delta pairs that survived the similarity threshold and entered the
    /// workload.
    pub retained_pairs: usize,
    /// Workload size after the merge.
    pub workload_len: usize,
    /// Worker threads used for scoring the delta.
    pub scoring_threads: usize,
    /// Workload pairs resident in memory after the merge (equals
    /// `workload_len` without a memory budget).
    pub resident_pairs: usize,
    /// Workload pairs spilled out of core after the merge.
    pub spilled_pairs: usize,
    /// Cumulative spill and segment-cache activity up to this ingest.
    pub spill: SpillReport,
}

/// Cumulative out-of-core activity of an engine, as of one report.
///
/// All fields are plain integers kept by the engine's workload and blocking
/// index regardless of any recorder, so spill behaviour is visible with
/// observability off; [`SpillReport::cache_hit_rate`] derives the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillReport {
    /// Workload segments written to the spill file.
    pub segments_spilled: u64,
    /// Workload segments read back from the spill file.
    pub segments_loaded: u64,
    /// Bytes written to the workload spill file.
    pub bytes_spilled: u64,
    /// Bytes read back from the workload spill file.
    pub bytes_loaded: u64,
    /// Spilled-segment lookups answered by the read cache.
    pub cache_hits: u64,
    /// Spilled-segment lookups that went to disk.
    pub cache_misses: u64,
    /// Read-cache entries evicted to admit newer segments.
    pub cache_evictions: u64,
    /// Posting generations the blocking index froze to disk.
    pub posting_generations_spilled: u64,
    /// Bytes written to the blocking index's spill file.
    pub posting_bytes_spilled: u64,
}

impl SpillReport {
    /// Fraction of spilled-segment lookups served from the cache
    /// (0 when no spilled segment was ever touched).
    pub fn cache_hit_rate(&self) -> f64 {
        let touches = self.cache_hits + self.cache_misses;
        if touches == 0 {
            0.0
        } else {
            self.cache_hits as f64 / touches as f64
        }
    }
}

/// What one [`ResolutionEngine::resolve`] call produced.
#[derive(Debug, Clone)]
pub struct ResolutionReport {
    /// The HUMO outcome: partition, pair labels, pair-level metrics and human
    /// cost counters. The cost counters are session-scoped (distinct labels
    /// this resolution's session absorbed), whether the session was driven by
    /// hand or through [`ResolutionEngine::resolve`].
    pub outcome: OptimizationOutcome,
    /// The resolved entities (transitive closure of match-labeled pairs over
    /// all ingested records).
    pub entities: EntityClusters,
    /// Cluster-level pairwise precision/recall against the ground-truth
    /// entities.
    pub cluster_metrics: QualityMetrics,
    /// Distinct labels newly supplied to *this* resolution — everything the
    /// engine's cross-epoch label store did not already cover.
    pub oracle_queries: usize,
    /// Label round-trips of this resolution: the number of distinct dispatch
    /// waves the underlying labeling session emitted (re-emissions of a
    /// still-outstanding batch do not count). Each wave is one dispatch
    /// latency however many pairs it contains, so this is the latency-proxy
    /// cost metric next to the paper's pair-count cost.
    pub label_rounds: usize,
    /// Rounds of `label_rounds` dispatched while *planning* (the optimizer's
    /// sampling phase). `plan_rounds + refine_rounds == label_rounds`.
    pub plan_rounds: usize,
    /// Rounds of `label_rounds` dispatched while *refining* (boundary search
    /// and verification; all rounds of an all-human fallback count here).
    pub refine_rounds: usize,
    /// Whether the optimizer was seeded from a previous epoch's warm start.
    pub used_warm_start: bool,
    /// Whether the workload was too small for the sampling optimizer and was
    /// resolved entirely by the human instead.
    pub fallback_all_human: bool,
}

/// The streaming resolution engine.
#[derive(Debug)]
pub struct ResolutionEngine {
    config: PipelineConfig,
    left: Dataset,
    right: Dataset,
    index: IncrementalTokenIndex,
    truth: BTreeSet<(RecordId, RecordId)>,
    workload: Workload,
    next_pair_id: u64,
    pool: WorkerPool,
    warm: Option<WarmStart>,
    candidate_count: usize,
    /// Per-record token memo shared by blocking and scoring; records are
    /// admitted once, at ingest.
    cache: TokenCache,
    /// Set when a batch failed inside the blocking index: the index and the
    /// token memo may hold part of that batch, so later ingests are refused.
    blocking_failed: bool,
    /// Every manual label received through completed resolution sessions,
    /// keyed by pair id — the engine-side label store that keeps later epochs
    /// from re-requesting pairs answered in earlier ones.
    labels: BTreeMap<PairId, Label>,
    /// The write-ahead label store, when attached: every absorbed response
    /// batch, every session begin and every commit is written here *before*
    /// the engine acts on it, and fsynced once per label round. See
    /// [`ResolutionEngine::attach_wal`].
    wal: Option<WalWriter>,
}

impl Clone for ResolutionEngine {
    /// Clones everything *except* the write-ahead log: a WAL is an exclusive
    /// append handle on one file, so the clone starts without one (attach its
    /// own with [`ResolutionEngine::attach_wal`] to make it durable).
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            index: self.index.clone(),
            truth: self.truth.clone(),
            workload: self.workload.clone(),
            next_pair_id: self.next_pair_id,
            pool: self.pool,
            warm: self.warm.clone(),
            candidate_count: self.candidate_count,
            cache: self.cache.clone(),
            blocking_failed: self.blocking_failed,
            labels: self.labels.clone(),
            wal: None,
        }
    }
}

impl ResolutionEngine {
    /// Creates an empty engine for the two source schemas.
    pub fn new(config: PipelineConfig, left_schema: Schema, right_schema: Schema) -> Result<Self> {
        config.validate()?;
        let blocker = TokenBlocker::new(config.blocking_attribute.clone(), config.tokenizer);
        let pool = WorkerPool::new(config.threads);
        let mut index = blocker.incremental();
        index.set_memory_budget(config.memory_budget.clone())?;
        index.set_obs(config.recorder.clone());
        let mut workload = Workload::from_pairs(Vec::new())?;
        workload.set_memory_budget(config.memory_budget.clone())?;
        workload.set_obs(config.recorder.clone());
        Ok(Self {
            index,
            left: Dataset::new("left", left_schema),
            right: Dataset::new("right", right_schema),
            truth: BTreeSet::new(),
            workload,
            next_pair_id: 0,
            pool,
            warm: None,
            candidate_count: 0,
            cache: TokenCache::new(),
            blocking_failed: false,
            labels: BTreeMap::new(),
            wal: None,
            config,
        })
    }

    /// Attaches a *fresh* write-ahead label store at `path` (truncating any
    /// existing file, and fsyncing its directory entry). From here on every
    /// resolution session's begin record, absorbed response batches and
    /// commit are written before the engine acts on them, under the rule of
    /// [`humo::wal::write_ahead_step`]: the log is fsynced once per label
    /// round, before any step that can emit a new batch or complete, and
    /// begin and commit records are durable on return.
    ///
    /// A process killed at any instant can [`ResolutionEngine::resume`]
    /// without re-buying a single label. An OS crash or a power loss loses
    /// at most the labels absorbed since the last completed round, which the
    /// resumed session asks for again; no label or outcome is ever wrong.
    ///
    /// Attach to a freshly built engine (before any `begin_resolve`): the log
    /// must cover every label the engine knows, or a resume from it would
    /// start poorer than the engine that wrote it.
    pub fn attach_wal(&mut self, path: impl AsRef<Path>) -> Result<()> {
        self.wal = Some(WalWriter::create(path)?);
        Ok(())
    }

    /// Whether a write-ahead label store is attached.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// The length of the attached log's prefix known to be durable, in
    /// bytes (see [`WalWriter::synced_len`]); `None` without a log.
    pub fn wal_synced_len(&self) -> Option<u64> {
        self.wal.as_ref().map(WalWriter::synced_len)
    }

    /// Appends a record to the attached WAL (no-op without one), durable on
    /// return, emitting the `session.wal.*` observability counters.
    fn wal_append(&mut self, record: &WalRecord) -> Result<()> {
        let Some(wal) = &mut self.wal else { return Ok(()) };
        Ok(wal.append_observed(record, &self.config.recorder)?)
    }

    /// Rebuilds the engine's durable labeling state from a write-ahead label
    /// store written by a previous process, and re-attaches the log for
    /// appending (recovering from a torn tail first).
    ///
    /// The engine must already hold the same workload the dead process held —
    /// i.e. the caller re-ingests the same record batches first; ingest is
    /// deterministic, so this reproduces the workload bit-exactly. The replay
    /// then folds every *committed* epoch's labels (and the latest warm
    /// start) into the engine's cross-epoch state, and — when the log ends in
    /// an in-flight epoch — rebuilds that mid-flight session and returns it:
    /// driving it to completion produces the byte-identical outcome the dead
    /// process was heading for. Returns `Ok(None)` when the log holds no
    /// in-flight epoch (resume with [`ResolutionEngine::begin_resolve`] as
    /// usual).
    pub fn resume(&mut self, path: impl AsRef<Path>) -> Result<Option<ResolutionSession<'_>>> {
        let (wal, recovery) = WalWriter::recover(path)?;
        self.config.recorder.counter("session.wal.resumes", 1);
        // Fold the log: committed epochs land in the engine's label store and
        // warm state; a trailing uncommitted epoch stays open for rebuild.
        let mut epochs = recovery.epochs()?;
        let open = epochs.pop_if(|epoch| epoch.commit.is_none());
        for epoch in epochs {
            for response in epoch.log {
                self.labels.insert(response.pair_id, response.label);
            }
            if let Some(Some(warm)) = epoch.commit {
                self.warm = Some(warm);
            }
        }
        self.wal = Some(wal);
        let Some(epoch) = open else { return Ok(None) };
        let state = epoch.resume(&self.workload)?;
        Ok(Some(self.open_session(state)))
    }

    /// The current similarity-sorted workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The accumulated left dataset.
    pub fn left(&self) -> &Dataset {
        &self.left
    }

    /// The accumulated right dataset.
    pub fn right(&self) -> &Dataset {
        &self.right
    }

    /// Total delta candidates produced so far (before threshold filtering).
    pub fn candidate_count(&self) -> usize {
        self.candidate_count
    }

    /// The incremental blocking index — exposes its resident postings and
    /// posting-spill state for observability.
    pub fn blocking_index(&self) -> &IncrementalTokenIndex {
        &self.index
    }

    /// The warm-start state captured by the latest resolution, if any.
    pub fn warm_state(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Ingests a batch of records: updates the blocking index, scores the delta
    /// candidates in parallel, and merges the surviving pairs into the
    /// workload.
    ///
    /// `truth_delta` carries the ground-truth match edges involving records of
    /// this batch (edges may reference records from earlier batches); it labels
    /// the new pairs and feeds the cluster-level evaluation.
    ///
    /// Ingestion is atomic with respect to validation: a batch with a
    /// schema-invalid record or a duplicate record id is rejected as a whole,
    /// leaving the engine untouched.
    ///
    /// A blocking I/O failure — a posting generation that cannot be read
    /// back or is corrupt, or a failed posting spill — is returned as
    /// [`PipelineError::Core`] carrying [`er_core::ErError::Spill`]. The
    /// failed batch then reaches neither the datasets nor the workload, but
    /// the blocking index and the token memo may hold part of it, so the
    /// engine refuses every later ingest; the workload it already holds can
    /// still be resolved.
    pub fn ingest(
        &mut self,
        left_batch: Vec<Record>,
        right_batch: Vec<Record>,
        truth_delta: &[(RecordId, RecordId)],
    ) -> Result<IngestReport> {
        if self.blocking_failed {
            return Err(PipelineError::Core(er_core::ErError::Spill(
                "an earlier batch failed inside the blocking index; \
                 rebuild the engine before ingesting more"
                    .to_string(),
            )));
        }
        let obs = self.config.recorder.clone();
        let _ingest_span = obs.span("pipeline.ingest");
        // Pre-flight validation before any state is committed: a record that
        // entered the dataset but not the blocking index would silently miss
        // every future candidate pair involving it.
        for (dataset, batch) in [(&self.left, &left_batch), (&self.right, &right_batch)] {
            let mut batch_ids: BTreeSet<RecordId> = BTreeSet::new();
            for record in batch {
                record.validate(dataset.schema())?;
                if dataset.get(record.id()).is_some() || !batch_ids.insert(record.id()) {
                    return Err(PipelineError::Core(er_core::ErError::InvalidArgument(format!(
                        "duplicate record id {} in ingest batch for dataset '{}'",
                        record.id(),
                        dataset.name()
                    ))));
                }
            }
        }
        // Tokenize each record once: the memo feeds every token-based scoring
        // measure below, and the index admits the blocking attribute to it.
        self.cache.admit_scoring(&self.config.scoring, &left_batch, &right_batch);
        let delta = {
            let _block_span = obs.span("ingest.block");
            self.index.add_records(&left_batch, &right_batch, &mut self.cache)
        };
        self.blocking_failed = delta.is_err();
        let delta = delta?;
        self.truth.extend(truth_delta.iter().copied());
        let (left_records, right_records) = (left_batch.len(), right_batch.len());
        for record in left_batch {
            self.left.push(record)?;
        }
        for record in right_batch {
            self.right.push(record)?;
        }
        if obs.is_enabled() {
            // Chunk balance of the scoring fan-out: one observation per worker
            // chunk, so skew between workers shows up as histogram spread.
            for size in self.pool.chunk_sizes(delta.len()) {
                obs.observe("pool.chunk_pairs", size as f64);
            }
        }
        let score_span = obs.span("ingest.score");
        let scorer = PairScorer::new(&self.config.scoring, &[&self.left, &self.right])?;
        let similarities = self.pool.score_pairs_cached(
            &self.left,
            &self.right,
            &scorer,
            &self.cache,
            self.index.blocker(),
            &delta,
        )?;
        drop(score_span);
        let mut new_pairs = Vec::new();
        for (&Candidate { left: l, right: r, .. }, similarity) in delta.iter().zip(similarities) {
            if similarity < self.config.similarity_threshold {
                continue;
            }
            let label = Label::from_bool(self.truth.contains(&(l, r)));
            new_pairs.push(InstancePair::with_records(
                PairId(self.next_pair_id),
                l,
                r,
                similarity,
                label,
            ));
            self.next_pair_id += 1;
        }
        let retained = new_pairs.len();
        {
            let _merge_span = obs.span("ingest.merge");
            self.workload.insert_sorted(new_pairs)?;
        }
        self.candidate_count += delta.len();
        obs.counter("ingest.delta_candidates", delta.len() as u64);
        obs.counter("ingest.retained_pairs", retained as u64);
        if obs.is_enabled() {
            obs.gauge("spill.workload.resident_pairs", self.workload.resident_pairs() as f64);
            obs.gauge("spill.workload.spilled_pairs", self.workload.spilled_pairs() as f64);
        }
        Ok(IngestReport {
            left_records,
            right_records,
            delta_candidates: delta.len(),
            retained_pairs: retained,
            workload_len: self.workload.len(),
            scoring_threads: self.pool.threads(),
            resident_pairs: self.workload.resident_pairs(),
            spilled_pairs: self.workload.spilled_pairs(),
            spill: self.spill_report(),
        })
    }

    /// Cumulative out-of-core activity of the engine's workload and blocking
    /// index (always available; independent of any recorder).
    pub fn spill_report(&self) -> SpillReport {
        let stats = self.workload.spill_stats();
        SpillReport {
            segments_spilled: stats.segments_spilled,
            segments_loaded: stats.segments_loaded,
            bytes_spilled: stats.bytes_spilled,
            bytes_loaded: stats.bytes_loaded,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_evictions: stats.cache_evictions,
            posting_generations_spilled: self.index.spilled_generations() as u64,
            posting_bytes_spilled: self.index.spilled_bytes(),
        }
    }

    /// Re-resolves the current workload: optimizes the HUMO partition (warm or
    /// cold), draws the human labels for `DH` from `oracle`, and clusters the
    /// match-labeled pairs into entities.
    ///
    /// Pairs labeled in earlier epochs stay in the engine's label store, so a
    /// re-resolution only pays for genuinely new questions. The report is
    /// exactly what the underlying session reports: its cost counters are
    /// scoped to this resolution, not to the oracle's lifetime.
    ///
    /// This is the synchronous driver over [`ResolutionEngine::begin_resolve`]:
    /// it answers every label batch the session emits through
    /// [`Oracle::label_batch`]. Systems whose labels arrive asynchronously
    /// should call [`ResolutionEngine::begin_resolve`] and drive the returned
    /// [`ResolutionSession`] themselves.
    pub fn resolve(&mut self, oracle: &mut dyn Oracle) -> Result<ResolutionReport> {
        self.begin_resolve()?.drive(oracle)
    }

    /// Starts a sans-I/O resolution session over the current workload: the
    /// engine-side equivalent of [`humo::LabelingSession`], so resolution no
    /// longer requires a blocking oracle in hand.
    ///
    /// The session is seeded with every label the engine received in earlier
    /// epochs (they are never re-requested) and, when warm-starting is
    /// enabled, with the previous epoch's sampling observations. Workloads too
    /// small for the sampling optimizer fall back to an exact all-human
    /// session, and a statistical degeneracy mid-session (e.g. a GP fit
    /// collapsing on duplicate similarity coordinates) falls back the same way
    /// without losing any answered label. On completion the session commits
    /// its labels and warm-start state back to the engine.
    pub fn begin_resolve(&mut self) -> Result<ResolutionSession<'_>> {
        // Workloads with fewer than two subsets cannot drive the sampling
        // optimizer; resolving them entirely by hand is exact, deterministic
        // and — at this size — cheap.
        let too_small = self.workload.len() < 2 * self.config.optimizer.unit_size;
        let (config, warm) = if too_small {
            (SessionConfig::AllHuman, None)
        } else {
            let warm = if self.config.warm_start { self.warm.clone() } else { None };
            (SessionConfig::PartialSampling(self.config.optimizer), warm)
        };
        let state = SessionState::new(config, &self.workload)?.with_warm_start(warm.clone());
        // Write-ahead: the epoch's inputs (configuration + warm start) go to
        // disk before any label does, so a resume always knows how to replay.
        self.wal_append(&WalRecord::SessionBegin {
            workload_len: self.workload.len() as u64,
            config,
            warm,
        })?;
        Ok(self.open_session(state))
    }

    /// Wraps a session state over the current workload, preloaded with every
    /// label of the engine's cross-epoch store.
    fn open_session(&mut self, mut state: SessionState) -> ResolutionSession<'_> {
        state
            .preload(self.labels.iter().map(|(&pair_id, &label)| LabelResponse { pair_id, label }));
        ResolutionSession { engine: self, state, report: None }
    }

    /// All ingested records as cluster nodes (so unmatched records appear as
    /// singleton entities).
    fn all_nodes(&self) -> impl Iterator<Item = RecordKey> + '_ {
        self.left
            .iter()
            .map(|r| (Side::Left, r.id()))
            .chain(self.right.iter().map(|r| (Side::Right, r.id())))
    }

    /// The entities induced by an outcome's label assignment.
    fn entities_of(&self, outcome: &OptimizationOutcome) -> EntityClusters {
        let edges = self
            .workload
            .iter()
            .zip(outcome.assignment.labels())
            .filter(|(_, label)| label.is_match())
            .filter_map(|(pair, _)| {
                Some(((Side::Left, pair.left()?), (Side::Right, pair.right()?)))
            });
        EntityClusters::from_edges(self.all_nodes(), edges)
    }

    /// The ground-truth entities over all ingested records.
    fn truth_entities(&self) -> EntityClusters {
        let edges = self.truth.iter().map(|&(l, r)| ((Side::Left, l), (Side::Right, r)));
        EntityClusters::from_edges(self.all_nodes(), edges)
    }
}

/// What one [`ResolutionSession::step`] call produced.
#[derive(Debug, Clone)]
pub enum ResolutionStep {
    /// The session needs these labels before it can make further progress.
    /// Every batch contains only distinct, not-yet-answered pairs; the pair
    /// payloads are available via
    /// [`session.workload().pair(request.index)`](ResolutionSession::workload)
    /// (the session holds the engine borrow while it is alive).
    NeedLabels(Vec<LabelRequest>),
    /// The resolution finished with this report (labels and warm-start state
    /// are already committed back to the engine).
    Done(ResolutionReport),
}

/// A sans-I/O resolution session over a [`ResolutionEngine`]'s current
/// workload: emits batched label requests and is driven with responses, like
/// [`humo::LabelingSession`], but completes into a full [`ResolutionReport`]
/// (entities, cluster metrics, cost counters) and commits labels plus
/// warm-start state back to the engine.
///
/// Everything but the engine borrow, commit and log is its [`SessionState`],
/// which it dereferences to, read-only (`session.rounds()`, …).
#[derive(Debug)]
pub struct ResolutionSession<'e> {
    engine: &'e mut ResolutionEngine,
    state: SessionState,
    /// The assembled report, cached at completion so repeated `step`/`drive`
    /// calls do not re-run the clustering and commit work.
    report: Option<ResolutionReport>,
}

impl std::ops::Deref for ResolutionSession<'_> {
    type Target = SessionState;

    fn deref(&self) -> &SessionState {
        &self.state
    }
}

impl ResolutionSession<'_> {
    /// Whether the session fell back to exact all-human resolution (tiny or
    /// statistically degenerate workload).
    pub fn fallback_all_human(&self) -> bool {
        matches!(self.state.config(), SessionConfig::AllHuman)
    }

    /// The durable length of the engine's attached log, in bytes — see
    /// [`ResolutionEngine::wal_synced_len`].
    pub fn wal_synced_len(&self) -> Option<u64> {
        self.engine.wal_synced_len()
    }

    /// Advances the session with the given responses: either emits the next
    /// batch of label requests or completes into a [`ResolutionReport`].
    ///
    /// Responses may cover any subset of any emitted batch; the session
    /// re-emits whatever is still missing. A statistical degeneracy inside the
    /// sampling optimizer switches the session to the exact all-human fallback
    /// *without* discarding answered labels.
    pub fn step(&mut self, responses: &[LabelResponse]) -> Result<ResolutionStep> {
        if let Some(report) = &self.report {
            return Ok(ResolutionStep::Done(report.clone()));
        }
        let obs = self.engine.config.recorder.clone();
        let _step_span = obs.span("resolve.step");
        let mut responses = responses;
        loop {
            let ResolutionEngine { workload, wal, .. } = &mut *self.engine;
            match write_ahead_step(&mut self.state, workload, responses, wal.as_mut()) {
                Ok(Step::NeedLabels(requests)) => {
                    return Ok(ResolutionStep::NeedLabels(requests));
                }
                Ok(Step::Done(outcome)) => {
                    let report = self.complete(outcome)?;
                    self.report = Some(report.clone());
                    return Ok(ResolutionStep::Done(report));
                }
                // Statistical degeneracy (e.g. a workload whose subsets
                // collapse onto duplicate similarity coordinates and break the
                // GP fit) is a property of the data, so both an incremental
                // and a from-scratch run hit it identically; resolving by hand
                // is the exact, deterministic way out. A resumed replay hits
                // the same degeneracy at the same point, so the WAL needs no
                // record of the switch. The state keeps every label already
                // paid for, and the loop takes the all-human state's first
                // step through the handling above. Real errors propagate.
                Err(humo::HumoError::Stats(_)) if !self.fallback_all_human() => {
                    self.state.fall_back_to_all_human();
                    responses = &[];
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The workload this session resolves — use it to read the full pair
    /// payloads behind emitted [`LabelRequest`]s while the session (which
    /// exclusively borrows the engine) is alive.
    pub fn workload(&self) -> &Workload {
        &self.engine.workload
    }

    /// Runs the session to completion against a synchronous [`Oracle`].
    pub fn drive(&mut self, oracle: &mut dyn Oracle) -> Result<ResolutionReport> {
        let mut responses: Vec<LabelResponse> = Vec::new();
        loop {
            match self.step(&responses)? {
                ResolutionStep::Done(report) => return Ok(report),
                ResolutionStep::NeedLabels(requests) => {
                    responses =
                        humo::session::answer_requests(&self.engine.workload, &requests, oracle);
                }
            }
        }
    }

    /// Commits a finished outcome back to the engine and assembles the report.
    fn complete(&mut self, outcome: OptimizationOutcome) -> Result<ResolutionReport> {
        // The commit record seals the epoch in the log *before* the engine
        // mutates its cross-epoch state, so a resumed engine either replays
        // the epoch (no commit on disk) or folds it in wholesale.
        let state = &self.state;
        self.engine.wal_append(&WalRecord::Commit { warm: state.next_warm_start().cloned() })?;
        for response in state.answered_log() {
            self.engine.labels.insert(response.pair_id, response.label);
        }
        if let Some(warm) = state.next_warm_start() {
            self.engine.warm = Some(warm.clone());
        }
        let entities = self.engine.entities_of(&outcome);
        let cluster_metrics = entities.pairwise_metrics(&self.engine.truth_entities());
        let obs = &self.engine.config.recorder;
        obs.counter("pipeline.epochs", 1);
        obs.counter("pipeline.label_rounds", state.rounds() as u64);
        Ok(ResolutionReport {
            oracle_queries: state.answered_log().len(),
            label_rounds: state.rounds(),
            plan_rounds: state.plan_rounds(),
            refine_rounds: state.refine_rounds(),
            outcome,
            entities,
            cluster_metrics,
            used_warm_start: state.warm_start().is_some_and(|warm| !warm.is_empty()),
            fallback_all_human: self.fallback_all_human(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::aggregate::{AttributeMeasure, AttributeWeighting};
    use er_core::similarity::StringMeasure;
    use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
    use humo::GroundTruthOracle;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn config(unit_size: usize, warm_start: bool) -> PipelineConfig {
        let scoring = ScoringConfig::new(
            [
                ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
                ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ],
            AttributeWeighting::Uniform,
        );
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let mut config = PipelineConfig::new(scoring, "title", requirement);
        config.similarity_threshold = 0.15;
        config.optimizer.unit_size = unit_size;
        config.warm_start = warm_start;
        config
    }

    fn corpus(entities: usize, seed: u64) -> er_datagen::bibliographic::GeneratedCorpus {
        BibliographicGenerator::new(BibliographicConfig {
            num_entities: entities,
            duplicate_probability: 0.6,
            extra_right_entities: entities / 2,
            corruption: 0.3,
            seed,
        })
        .generate()
    }

    #[test]
    fn rejects_invalid_configuration() {
        let mut bad = config(25, true);
        bad.similarity_threshold = f64::NAN;
        let schema = BibliographicGenerator::schema();
        assert!(ResolutionEngine::new(bad, schema.clone(), schema.clone()).is_err());
        let mut bad = config(0, true);
        bad.similarity_threshold = 0.2;
        assert!(ResolutionEngine::new(bad, schema.clone(), schema).is_err());
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let schema = BibliographicGenerator::schema();
        let mut engine = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        let good = Record::new(RecordId(1)).with("title", "entity resolution");
        // A batch whose second record duplicates the first's id is rejected as a
        // whole: no record may enter the dataset without entering the index.
        let duplicate_within_batch =
            vec![good.clone(), Record::new(RecordId(1)).with("title", "other")];
        assert!(engine.ingest(duplicate_within_batch, Vec::new(), &[]).is_err());
        assert_eq!(engine.left().len(), 0);
        assert_eq!(engine.candidate_count(), 0);
        // Same for a schema-invalid record after a valid one.
        let bad_schema = vec![good.clone(), Record::new(RecordId(2)).with("undeclared", "x")];
        assert!(engine.ingest(bad_schema, Vec::new(), &[]).is_err());
        assert_eq!(engine.left().len(), 0);
        // The engine still works afterwards, and re-ingesting an existing id
        // fails without committing the batch.
        engine.ingest(vec![good.clone()], Vec::new(), &[]).unwrap();
        assert_eq!(engine.left().len(), 1);
        assert!(engine.ingest(vec![good], Vec::new(), &[]).is_err());
        assert_eq!(engine.left().len(), 1);
    }

    #[test]
    fn failed_posting_spill_is_an_error_and_refuses_later_ingests() {
        let schema = BibliographicGenerator::schema();
        let mut config = config(25, true);
        // A posting budget whose spill directory does not exist, so the first
        // freeze cannot create its spill file.
        let missing = std::env::temp_dir()
            .join(format!("humo-missing-spill-dir-{}", std::process::id()))
            .join("nested");
        config.memory_budget = MemoryBudget {
            resident_postings: 2,
            spill_dir: Some(missing),
            ..MemoryBudget::default()
        };
        let mut engine = ResolutionEngine::new(config, schema.clone(), schema).unwrap();
        let batch = vec![Record::new(RecordId(1)).with("title", "entity resolution quality")];
        let err = engine.ingest(batch, Vec::new(), &[]).unwrap_err();
        assert!(matches!(err, PipelineError::Core(er_core::ErError::Spill(_))), "{err:?}");
        assert_eq!(engine.left().len(), 0);
        assert!(engine.workload().is_empty());
        // The index may hold part of the failed batch: later ingests are
        // refused, and the (empty) workload still resolves.
        let next = vec![Record::new(RecordId(2)).with("title", "record linkage")];
        assert!(engine.ingest(next, Vec::new(), &[]).is_err());
        assert_eq!(engine.left().len(), 0);
        let report = engine.resolve(&mut GroundTruthOracle::new()).unwrap();
        assert_eq!(report.oracle_queries, 0);
    }

    #[test]
    fn empty_engine_resolves_to_nothing() {
        let schema = BibliographicGenerator::schema();
        let mut engine = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        let mut oracle = GroundTruthOracle::new();
        let report = engine.resolve(&mut oracle).unwrap();
        assert_eq!(report.oracle_queries, 0);
        assert!(report.entities.is_empty());
        assert!(report.fallback_all_human);
    }

    #[test]
    fn streaming_ingest_builds_a_growing_workload_and_entities() {
        let corpus = corpus(120, 11);
        let schema = BibliographicGenerator::schema();
        let mut engine = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let mut oracle = GroundTruthOracle::new();
        let halves_l = corpus.left.records().split_at(corpus.left.len() / 2);
        let halves_r = corpus.right.records().split_at(corpus.right.len() / 2);
        let first = engine.ingest(halves_l.0.to_vec(), halves_r.0.to_vec(), &truth).unwrap();
        assert!(first.delta_candidates > 0);
        assert!(first.retained_pairs <= first.delta_candidates);
        let len_after_first = engine.workload().len();
        let second = engine.ingest(halves_l.1.to_vec(), halves_r.1.to_vec(), &[]).unwrap();
        assert!(second.workload_len >= len_after_first);
        assert_eq!(engine.candidate_count(), first.delta_candidates + second.delta_candidates);
        let report = engine.resolve(&mut oracle).unwrap();
        assert!(report.oracle_queries > 0);
        assert!(report.entities.non_singleton_count() > 0);
        assert!(report.cluster_metrics.precision() > 0.5);
        assert!(report.cluster_metrics.recall() > 0.5);
        // The pair-level metrics ride along unchanged.
        assert!(report.outcome.metrics.f1() > 0.5);
    }

    #[test]
    fn crowd_oracle_fixed1_zero_noise_resolves_identically() {
        use humo::{symmetric_pool, Aggregation, CrowdOracle, Redundancy};
        let corpus = corpus(120, 23);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();

        let run = |oracle: &mut dyn Oracle| {
            let mut engine =
                ResolutionEngine::new(config(25, false), schema.clone(), schema.clone()).unwrap();
            engine
                .ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
                .unwrap();
            engine.resolve(oracle).unwrap()
        };
        let mut ground_truth = GroundTruthOracle::new();
        let truth_report = run(&mut ground_truth);
        let mut crowd = CrowdOracle::new(
            symmetric_pool(5, 0.0, 41),
            Redundancy::Fixed(1),
            Aggregation::Majority,
            7,
        );
        let crowd_report = run(&mut crowd);

        assert_eq!(crowd_report.outcome.assignment, truth_report.outcome.assignment);
        assert_eq!(crowd_report.entities, truth_report.entities);
        assert_eq!(crowd_report.oracle_queries, truth_report.oracle_queries);
        assert_eq!(crowd.labels_issued(), ground_truth.labels_issued());
        assert_eq!(crowd.votes_cast(), crowd.labels_issued() as u64, "Fixed(1) = one vote/label");
    }

    #[test]
    fn session_resolution_matches_oracle_resolution_and_reuses_labels() {
        let corpus = corpus(150, 17);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let all_left = corpus.left.records().to_vec();
        let all_right = corpus.right.records().to_vec();

        // Engine A: classic oracle-driven resolution.
        let mut a =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        let mut oracle = GroundTruthOracle::new();
        a.ingest(all_left.clone(), all_right.clone(), &truth).unwrap();
        let oracle_report = a.resolve(&mut oracle).unwrap();

        // Engine B: the same resolution driven by hand through the session,
        // reading pair payloads through the session's workload accessor.
        let mut b = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        b.ingest(all_left, all_right, &truth).unwrap();
        let mut session = b.begin_resolve().unwrap();
        let mut responses = Vec::new();
        let report = loop {
            match session.step(&responses).unwrap() {
                ResolutionStep::Done(report) => break report,
                ResolutionStep::NeedLabels(requests) => {
                    let workload = session.workload();
                    responses = requests
                        .iter()
                        .map(|request| LabelResponse {
                            pair_id: request.pair_id,
                            label: workload.pair(request.index).ground_truth(),
                        })
                        .collect();
                }
            }
        };
        assert_eq!(report.outcome.solution, oracle_report.outcome.solution);
        assert_eq!(report.outcome.assignment, oracle_report.outcome.assignment);
        assert_eq!(report.oracle_queries, oracle_report.oracle_queries);
        assert!(report.label_rounds > 0);

        // A re-resolution on the same engine starts from the engine's label
        // store plus the warm start, so it costs strictly less than the first.
        let mut again = b.begin_resolve().unwrap();
        let mut oracle = GroundTruthOracle::new();
        let second = again.drive(&mut oracle).unwrap();
        assert!(
            second.oracle_queries < report.oracle_queries,
            "re-resolution should reuse the label store ({} vs {})",
            second.oracle_queries,
            report.oracle_queries
        );
    }

    #[test]
    fn resolve_reports_exactly_what_its_session_reports_on_every_epoch() {
        let corpus = corpus(240, 31);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let mut driver =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        let mut twin = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        let mut driver_oracle = GroundTruthOracle::new();
        let mut twin_oracle = GroundTruthOracle::new();
        let left = corpus.left.records().chunks(corpus.left.len().div_ceil(3));
        let right = corpus.right.records().chunks(corpus.right.len().div_ceil(3));
        for (epoch, (l, r)) in left.zip(right).enumerate() {
            let edges = if epoch == 0 { truth.as_slice() } else { &[] };
            driver.ingest(l.to_vec(), r.to_vec(), edges).unwrap();
            twin.ingest(l.to_vec(), r.to_vec(), edges).unwrap();
            let a = driver.resolve(&mut driver_oracle).unwrap();
            let b = twin.begin_resolve().unwrap().drive(&mut twin_oracle).unwrap();
            assert_eq!(a.outcome.solution, b.outcome.solution, "epoch {epoch}");
            assert_eq!(a.outcome.assignment, b.outcome.assignment, "epoch {epoch}");
            assert_eq!(a.outcome.metrics, b.outcome.metrics, "epoch {epoch}");
            assert_eq!(a.outcome.verification_cost, b.outcome.verification_cost, "epoch {epoch}");
            assert_eq!(a.outcome.sampling_cost, b.outcome.sampling_cost, "epoch {epoch}");
            assert_eq!(a.outcome.total_human_cost, b.outcome.total_human_cost, "epoch {epoch}");
            assert_eq!(a.oracle_queries, b.oracle_queries, "epoch {epoch}");
            assert_eq!(a.label_rounds, b.label_rounds, "epoch {epoch}");
            assert_eq!(a.plan_rounds, b.plan_rounds, "epoch {epoch}");
            assert_eq!(a.refine_rounds, b.refine_rounds, "epoch {epoch}");
            assert!(a.oracle_queries > 0, "epoch {epoch} asked no labels");
        }
    }

    #[test]
    fn warm_resolutions_cost_fewer_queries_than_cold_restarts() {
        let corpus = corpus(400, 13);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        // Warm engine: ingest in two batches, resolving after each.
        let mut warm_engine =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        let mut warm_oracle = GroundTruthOracle::new();
        let (l1, l2) = corpus.left.records().split_at(corpus.left.len() * 2 / 3);
        let (r1, r2) = corpus.right.records().split_at(corpus.right.len() * 2 / 3);
        warm_engine.ingest(l1.to_vec(), r1.to_vec(), &truth).unwrap();
        warm_engine.resolve(&mut warm_oracle).unwrap();
        warm_engine.ingest(l2.to_vec(), r2.to_vec(), &[]).unwrap();
        let warm_report = warm_engine.resolve(&mut warm_oracle).unwrap();
        assert!(warm_report.used_warm_start);
        // From-scratch engine over the same final records, fresh oracle.
        let mut cold_engine =
            ResolutionEngine::new(config(25, false), schema.clone(), schema).unwrap();
        let mut cold_oracle = GroundTruthOracle::new();
        cold_engine
            .ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
            .unwrap();
        let cold_report = cold_engine.resolve(&mut cold_oracle).unwrap();
        assert!(!cold_report.used_warm_start);
        assert!(
            warm_report.oracle_queries < cold_report.oracle_queries,
            "incremental re-resolution used {} queries, from-scratch used {}",
            warm_report.oracle_queries,
            cold_report.oracle_queries
        );
    }

    /// A path unique per call: PID plus a per-process counter, so tests on
    /// parallel threads never share a log.
    fn wal_path(name: &str) -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let file = format!(".er-pipeline-wal-test-{}-{n}-{name}", std::process::id());
        std::env::temp_dir().join(file)
    }

    fn answer(
        session: &ResolutionSession<'_>,
        requests: &[humo::LabelRequest],
    ) -> Vec<LabelResponse> {
        let workload = session.workload();
        requests
            .iter()
            .map(|request| LabelResponse {
                pair_id: request.pair_id,
                label: workload.pair(request.index).ground_truth(),
            })
            .collect()
    }

    #[test]
    fn wal_resume_mid_epoch_reproduces_the_uninterrupted_outcome() {
        let corpus = corpus(150, 23);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let all_left = corpus.left.records().to_vec();
        let all_right = corpus.right.records().to_vec();
        let path = wal_path("mid-epoch");

        // Reference run: no WAL, driven to completion.
        let mut reference =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        reference.ingest(all_left.clone(), all_right.clone(), &truth).unwrap();
        let mut oracle = GroundTruthOracle::new();
        let reference_report = reference.resolve(&mut oracle).unwrap();

        // Crashing run: WAL attached, abandoned after two label rounds. The
        // engine is dropped with the session in flight; only the log survives.
        let mut crashed =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        crashed.ingest(all_left.clone(), all_right.clone(), &truth).unwrap();
        crashed.attach_wal(&path).unwrap();
        {
            let mut session = crashed.begin_resolve().unwrap();
            let mut responses = Vec::new();
            for _ in 0..2 {
                match session.step(&responses).unwrap() {
                    ResolutionStep::Done(_) => {
                        panic!("session finished before the simulated crash")
                    }
                    ResolutionStep::NeedLabels(requests) => {
                        responses = answer(&session, &requests);
                    }
                }
            }
        }
        drop(crashed);

        // Resume in a fresh engine over the same ingested batches and finish.
        let mut resumed = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        resumed.ingest(all_left, all_right, &truth).unwrap();
        let mut session = resumed.resume(&path).unwrap().expect("log holds an in-flight epoch");
        let mut responses = Vec::new();
        let report = loop {
            match session.step(&responses).unwrap() {
                ResolutionStep::Done(report) => break report,
                ResolutionStep::NeedLabels(requests) => {
                    responses = answer(&session, &requests);
                }
            }
        };
        assert_eq!(report.outcome.solution, reference_report.outcome.solution);
        assert_eq!(report.outcome.assignment, reference_report.outcome.assignment);
        assert_eq!(report.oracle_queries, reference_report.oracle_queries);
        std::fs::remove_file(&path).unwrap();
    }

    /// Four left and five right records whose 20 pairs score only 1 or 2/3
    /// on titles: too few distinct similarities for the SAMP plan's GP fit.
    fn degenerate_engine() -> ResolutionEngine {
        let scoring = ScoringConfig::new(
            [("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words)))],
            AttributeWeighting::Uniform,
        );
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let mut config = PipelineConfig::new(scoring, "title", requirement);
        config.similarity_threshold = 0.15;
        config.optimizer.unit_size = 10;
        let schema = BibliographicGenerator::schema();
        let mut engine = ResolutionEngine::new(config, schema.clone(), schema).unwrap();
        let left = (0..4)
            .map(|i| Record::new(RecordId(i)).with("title", "entity resolution quality"))
            .collect();
        let right = (0..5)
            .map(|i| {
                let title =
                    if i % 2 == 0 { "entity resolution quality" } else { "entity resolution" };
                Record::new(RecordId(100 + i)).with("title", title)
            })
            .collect();
        let truth: Vec<(RecordId, RecordId)> =
            (0..4).map(|i| (RecordId(i), RecordId(100 + i))).collect();
        engine.ingest(left, right, &truth).unwrap();
        engine
    }

    #[test]
    fn a_degenerate_fit_falls_back_mid_session_and_resumes_to_the_same_report() {
        let mut engine = degenerate_engine();
        assert_eq!(engine.workload().len(), 20);
        let path = wal_path("fallback");
        engine.attach_wal(&path).unwrap();
        let mut session = engine.begin_resolve().unwrap();
        assert!(!session.fallback_all_human(), "20 pairs at unit size 10 run SAMP");
        let ResolutionStep::NeedLabels(plan) = session.step(&[]).unwrap() else {
            panic!("expected the first plan round");
        };
        assert_eq!(plan.len(), 20);
        assert_eq!((session.plan_rounds(), session.phase()), (1, humo::SessionPhase::Sampling));
        // The GP fit on these answers fails; the session falls back and
        // completes from the labels it already holds.
        let responses = answer(&session, &plan);
        let ResolutionStep::Done(report) = session.step(&responses).unwrap() else {
            panic!("expected the fallback to complete");
        };
        assert!(report.fallback_all_human);
        assert!(!report.used_warm_start);
        assert_eq!((report.label_rounds, report.plan_rounds, report.refine_rounds), (1, 1, 0));
        assert_eq!(report.oracle_queries, 20);
        drop(engine);

        // Cut the log before its commit. The log holds no record of the
        // switch: the resumed replay must hit the same degeneracy.
        let epochs = humo::wal::read_log(&path).unwrap().epochs().unwrap();
        assert!(epochs.last().unwrap().commit.is_some());
        let commit = humo::wal::encode_record(&WalRecord::Commit { warm: None }).len() as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(file.metadata().unwrap().len() - commit).unwrap();
        drop(file);
        let epochs = humo::wal::read_log(&path).unwrap().epochs().unwrap();
        assert_eq!((epochs.len(), epochs[0].commit.is_none()), (1, true));

        let mut resumed = degenerate_engine();
        let mut session = resumed.resume(&path).unwrap().expect("the cut log is in flight");
        let mut oracle = GroundTruthOracle::new();
        let again = session.drive(&mut oracle).unwrap();
        assert_eq!(oracle.labels_issued(), 0, "every label is on the log");
        assert!(again.fallback_all_human);
        assert_eq!(again.outcome.solution, report.outcome.solution);
        assert_eq!(again.outcome.assignment, report.outcome.assignment);
        assert_eq!(again.outcome.metrics, report.outcome.metrics);
        assert_eq!(again.outcome.total_human_cost, report.outcome.total_human_cost);
        assert_eq!(again.entities, report.entities);
        assert_eq!(again.oracle_queries, report.oracle_queries);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_resume_after_commit_folds_labels_and_warm_state_into_the_engine() {
        let corpus = corpus(150, 29);
        let schema = BibliographicGenerator::schema();
        let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
        let all_left = corpus.left.records().to_vec();
        let all_right = corpus.right.records().to_vec();
        let path = wal_path("committed");

        let mut first =
            ResolutionEngine::new(config(25, true), schema.clone(), schema.clone()).unwrap();
        first.ingest(all_left.clone(), all_right.clone(), &truth).unwrap();
        first.attach_wal(&path).unwrap();
        let mut oracle = GroundTruthOracle::new();
        let first_report = first.resolve(&mut oracle).unwrap();
        drop(first);

        // The committed epoch folds into a fresh engine without an in-flight
        // session, so a re-resolution pays only the incremental cost — same
        // behaviour as the engine that never crashed.
        let mut resumed = ResolutionEngine::new(config(25, true), schema.clone(), schema).unwrap();
        resumed.ingest(all_left, all_right, &truth).unwrap();
        assert!(resumed.resume(&path).unwrap().is_none());
        assert!(resumed.has_wal());
        let mut oracle = GroundTruthOracle::new();
        let second = resumed.resolve(&mut oracle).unwrap();
        assert!(second.used_warm_start);
        assert!(
            second.oracle_queries < first_report.oracle_queries,
            "resumed engine should reuse the committed label store ({} vs {})",
            second.oracle_queries,
            first_report.oracle_queries
        );
        std::fs::remove_file(&path).unwrap();
    }
}
