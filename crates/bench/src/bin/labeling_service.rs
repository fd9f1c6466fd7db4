//! Multi-tenant labeling service over durable, crash-safe resolution sessions.
//!
//! The service multiplexes N tenant [`er_pipeline::ResolutionEngine`]s — each
//! with its own bibliographic corpus and its own `HAL1` write-ahead label store
//! — over one shared pool of simulated labelers. Every scheduler *tick* the
//! pool answers up to `LABELERS` outstanding label requests, round-robining
//! across tenants, and each tenant that received answers is stepped with them
//! immediately: the engine writes the absorbed batch to the tenant's WAL
//! *before* replaying it, and fsyncs the WAL once per label round, before
//! any step that can emit a new batch or complete. A process killed at any
//! tick loses no label; an OS crash or a power loss loses at most the labels
//! answered since the tenant's last completed round, which a resume asks for
//! again.
//!
//! Per-tenant round/cost reporting is printed at the end; the `session.wal.*`
//! observability counters go to each engine's recorder, which is the
//! default no-op one here.
//!
//! Environment knobs (see [`humo_bench::BenchConfig`]):
//!
//! * `HUMO_SVC_TENANTS`  — number of tenants (default 4);
//! * `HUMO_SVC_ENTITIES` — base corpus size per tenant in left-dataset
//!   entities; tenant *i* gets `ENTITIES + 10·i` so the tenants are
//!   heterogeneous (default 120);
//! * `HUMO_SVC_LABELERS` — shared labeler-pool capacity: labels answered per
//!   tick across all tenants (default 16);
//! * `HUMO_SVC_SEED`     — base corpus seed; tenant *i* uses `SEED + 101·i`
//!   (default 42);
//! * `HUMO_SVC_WAL_DIR`  — directory for the per-tenant `tenant-<i>.hal`
//!   logs (default: a fresh directory under the system temp dir, removed on
//!   clean exit);
//! * `HUMO_SVC_RESUME`   — when truthy, resume every tenant from its existing
//!   WAL instead of starting fresh: in-flight epochs continue mid-session,
//!   committed epochs are replayed from the log to recover their outcome;
//! * `HUMO_SVC_KILL_TICKS` — crash-harness mode: after this many completed
//!   ticks, print `HUMO_SVC_KILL_POINT` and park forever, waiting for SIGKILL
//!   (used by the self test and the CI smoke);
//! * `HUMO_SVC_KILL_AT`  — comma-separated kill points for the self test
//!   (default `1,4,24`; points past service completion exercise the
//!   committed-epoch replay path);
//! * `HUMO_SVC_SELFTEST` — when truthy, run the kill-and-resume self test:
//!   for each kill point, re-spawn this binary as a child, SIGKILL it at the
//!   kill point, and resume in-process twice — from the WALs the SIGKILL
//!   left, and from copies cut to each WAL's durable length, as a power loss
//!   would leave them — asserting every tenant's outcome digest and label
//!   cost are identical to an uninterrupted reference run.
//!
//! Crowd labeling (off by default; see [`humo::crowd`]):
//!
//! * `HUMO_SVC_CROWD_WORKERS` — per-tenant worker-pool size; `0` (default)
//!   answers every request with ground truth, exactly as before;
//! * `HUMO_SVC_CROWD_ERROR` — symmetric per-worker flip rate (default 0.1);
//! * `HUMO_SVC_CROWD_REDUNDANCY` — votes per pair (default 3);
//! * `HUMO_SVC_CROWD_ESCALATE_MAX` — when greater than the redundancy,
//!   escalate disagreements one extra worker at a time up to this cap
//!   (adaptive redundancy; default: equal, i.e. fixed);
//! * `HUMO_SVC_CROWD_AGG` — `majority` (default) or `em`; any other value is
//!   an error. The kill-and-resume
//!   guarantee holds for `majority`: votes are pure functions of
//!   `(worker seed, pair id)`, so re-voting pairs lost in a crash reproduces
//!   identical aggregated labels. EM aggregation decides from the whole vote
//!   matrix, whose scope depends on tick alignment — use it for quality
//!   studies (`crowd_quality`), not for byte-stable replay.
//!
//! With the crowd enabled, the shared pool capacity is *votes* per tick (a
//! redundancy-r tenant consumes roughly r× more pool), and only the
//! aggregated labels — never raw votes — are stepped into the sessions and
//! hence onto the per-tenant WALs.
//!
//! The outcome digest covers the solution boundaries, the full label
//! assignment and the cost counters — everything the paper's quality
//! guarantee speaks about. Label round-trips are deliberately excluded: they
//! are per-process bookkeeping, not part of the checkpoint (see
//! [`humo::SessionState::rounds`], which every session wrapper dereferences
//! to).

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::codec::fnv1a;
use er_core::record::RecordId;
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_core::workload::{Label, Workload};
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::{PipelineConfig, ResolutionEngine, ResolutionSession, ResolutionStep};
use humo::crowd::mix;
use humo::wal::read_log;
use humo::{
    Aggregation, CrowdSession, HumoError, LabelRequest, LabelResponse, OptimizationOutcome,
    QualityRequirement, Redundancy, SessionConfig, SessionState, Step, VoteRequest, WorkerModel,
    WorkerVote,
};
use humo_bench::{BenchConfig, KnobError};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Marker printed by a crash-harness child when it reaches its kill point.
const KILL_MARKER: &str = "HUMO_SVC_KILL_POINT";
/// Prefix of the line a crash-harness child prints, before its kill marker
/// or after draining, with each tenant's durable WAL length in bytes.
const DURABLE_MARKER: &str = "HUMO_SVC_DURABLE_LENGTHS:";

/// Crowd-labeling knobs; `workers == 0` disables the crowd path entirely.
#[derive(Debug, Clone)]
struct CrowdParams {
    workers: usize,
    error: f64,
    redundancy: usize,
    escalate_max: usize,
    em: bool,
}

impl CrowdParams {
    fn from_env(cfg: &BenchConfig) -> Result<Self, KnobError> {
        let redundancy = cfg.usize("CROWD_REDUNDANCY", 3)?.max(1);
        Ok(Self {
            workers: cfg.usize("CROWD_WORKERS", 0)?,
            error: cfg.f64("CROWD_ERROR", 0.1)?,
            redundancy,
            escalate_max: cfg.usize("CROWD_ESCALATE_MAX", redundancy)?.max(redundancy),
            em: cfg.one_of("CROWD_AGG", &["majority", "em"])? == "em",
        })
    }

    fn enabled(&self) -> bool {
        self.workers > 0
    }

    fn redundancy(&self) -> Redundancy {
        if self.escalate_max > self.redundancy {
            Redundancy::Adaptive { min: self.redundancy, max: self.escalate_max }
        } else {
            Redundancy::Fixed(self.redundancy)
        }
    }

    fn aggregation(&self) -> Aggregation {
        if self.em {
            Aggregation::Em(humo::EmConfig::default())
        } else {
            Aggregation::Majority
        }
    }
}

#[derive(Debug, Clone)]
struct ServiceParams {
    tenants: usize,
    entities: usize,
    labelers: usize,
    seed: u64,
    wal_dir: PathBuf,
    resume: bool,
    kill_ticks: usize,
    crowd: CrowdParams,
}

impl ServiceParams {
    fn from_env(cfg: &BenchConfig) -> Result<Self, KnobError> {
        let wal_dir = cfg.string("WAL_DIR").map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("humo-labeling-service-{}", std::process::id()))
        });
        Ok(Self {
            tenants: cfg.usize("TENANTS", 4)?.max(1),
            entities: cfg.usize("ENTITIES", 120)?,
            labelers: cfg.usize("LABELERS", 16)?.max(1),
            seed: cfg.usize("SEED", 42)? as u64,
            wal_dir,
            resume: cfg.flag("RESUME"),
            kill_ticks: cfg.usize("KILL_TICKS", 0)?,
            crowd: CrowdParams::from_env(cfg)?,
        })
    }

    fn wal_path(&self, tenant: usize) -> PathBuf {
        self.wal_dir.join(format!("tenant-{tenant}.hal"))
    }
}

/// Per-tenant crowd state: the simulated worker pool, the sans-I/O crowd
/// session, and the queue of dispatched-but-unanswered vote requests.
///
/// Everything here is derived deterministically from `(service seed, tenant)`,
/// so a resumed process rebuilds the identical crowd and — majority
/// aggregation being a pure per-pair function of the votes, themselves pure
/// functions of `(worker seed, pair id)` — re-votes lost in-flight pairs to
/// the identical aggregated labels.
struct TenantCrowd {
    workers: Vec<WorkerModel>,
    session: CrowdSession,
    queue: VecDeque<VoteRequest>,
}

impl TenantCrowd {
    fn new(params: &ServiceParams, tenant: usize) -> Self {
        let crowd = &params.crowd;
        let pool_seed = mix(params.seed, 0xC0FFEE ^ tenant as u64);
        let workers: Vec<WorkerModel> = (0..crowd.workers)
            .map(|w| WorkerModel::symmetric(crowd.error, mix(pool_seed, w as u64)))
            .collect();
        let session = CrowdSession::new(
            crowd.workers,
            crowd.redundancy(),
            crowd.aggregation(),
            mix(params.seed, 0x5EED ^ tenant as u64),
        );
        Self { workers, session, queue: VecDeque::new() }
    }
}

/// Final per-tenant outcome: everything the self test compares, plus the
/// delivered-quality and crowd-cost columns of the report.
#[derive(Debug, Clone)]
struct TenantSummary {
    tenant: usize,
    pairs: usize,
    queries: usize,
    rounds: usize,
    f1: f64,
    /// Entity-cluster F1 against ground truth — delivered quality after
    /// transitive closure. `None` for `replayed` tenants: the log replay
    /// recovers the outcome, and clustering is not re-run.
    cluster_f1: Option<f64>,
    /// Crowd votes cast for this tenant (0 when the crowd path is off).
    votes: u64,
    /// Votes per aggregated label — the label-cost multiplier.
    votes_per_label: f64,
    /// Fraction of aggregated labels whose final vote set disagreed.
    escalation_rate: f64,
    digest: u64,
    /// `fresh`, `resumed` (in-flight epoch continued) or `replayed`
    /// (committed epoch recovered from the log alone).
    mode: &'static str,
}

/// One tenant inside the scheduler: either mid-session with a queue of
/// outstanding label requests, or finished with its summary material.
enum Tenant<'e> {
    Active {
        session: Box<ResolutionSession<'e>>,
        outstanding: Vec<LabelRequest>,
        mode: &'static str,
    },
    Done {
        outcome: OptimizationOutcome,
        rounds: usize,
        cluster_f1: Option<f64>,
        mode: &'static str,
        /// The durable length of the tenant's WAL when it finished.
        synced: Option<u64>,
    },
}

fn scoring_config() -> ScoringConfig {
    ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::Uniform,
    )
}

fn tenant_engine(params: &ServiceParams, tenant: usize) -> ResolutionEngine {
    let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
    let mut config = PipelineConfig::new(scoring_config(), "title", requirement);
    config.similarity_threshold = 0.15;
    config.optimizer.unit_size = 25;
    let schema = BibliographicGenerator::schema();
    let mut engine = ResolutionEngine::new(config, schema.clone(), schema)
        .expect("valid pipeline configuration");
    let entities = params.entities + 10 * tenant;
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: entities,
        duplicate_probability: 0.6,
        extra_right_entities: entities / 2,
        corruption: 0.3,
        seed: params.seed + 101 * tenant as u64,
    })
    .generate();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    engine
        .ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
        .expect("tenant corpus ingests");
    engine
}

/// FNV-1a digest of the parts of an outcome the quality guarantee speaks
/// about: solution boundaries, full label assignment, cost counters. Rounds
/// are excluded — they are per-process bookkeeping, not checkpoint state.
fn outcome_digest(outcome: &OptimizationOutcome) -> u64 {
    let mut bytes = Vec::with_capacity(outcome.assignment.len() + 48);
    bytes.extend_from_slice(&(outcome.solution.lower_index as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.solution.upper_index as u64).to_le_bytes());
    for &label in outcome.assignment.labels() {
        bytes.push(u8::from(label == Label::Match));
    }
    bytes.extend_from_slice(&(outcome.verification_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.sampling_cost as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.total_human_cost as u64).to_le_bytes());
    fnv1a(&bytes)
}

/// What a tenant's log holds, decided before touching the engine (the engine's
/// `resume` hands back a borrow, so the branch must be known up front).
enum LogShape {
    /// A trailing epoch without a commit — `resume` rebuilds it mid-flight.
    InFlight,
    /// The last epoch committed: its outcome, replayed from the log alone.
    Committed(Box<OptimizationOutcome>),
    /// No epoch on the log (or no log file at all).
    Empty,
}

/// Scans a tenant's log. For a trailing committed epoch, replays it through
/// [`SessionState::resume`]: the answered log is a complete checkpoint, so
/// the replay re-derives the byte-identical outcome without any extra labels.
/// Earlier committed epochs contribute their labels as preloads, mirroring
/// the engine's cross-epoch label store.
fn scan_log(workload: &Workload, path: &Path) -> humo::Result<LogShape> {
    if !path.exists() {
        return Ok(LogShape::Empty);
    }
    let mut epochs = read_log(path)?.epochs()?;
    let Some(last) = epochs.pop() else { return Ok(LogShape::Empty) };
    if last.commit.is_none() {
        return Ok(LogShape::InFlight);
    }
    let mut state =
        SessionState::resume(last.config, workload, &last.log)?.with_warm_start(last.warm);
    state.preload(epochs.into_iter().flat_map(|epoch| epoch.log));
    loop {
        match state.poll(workload) {
            Ok(Step::Done(outcome)) => return Ok(LogShape::Committed(Box::new(outcome))),
            Ok(Step::NeedLabels(_)) => {
                return Err(HumoError::Wal(
                    "committed epoch's log does not replay to completion".to_string(),
                ))
            }
            // The engine's deterministic all-human fallback: the degeneracy
            // is a property of the data, so the original session fell back
            // at exactly this point too.
            Err(HumoError::Stats(_)) if !matches!(state.config(), SessionConfig::AllHuman) => {
                state.fall_back_to_all_human();
            }
            Err(e) => return Err(e),
        }
    }
}

/// Primes a freshly created or resumed session: the first step replays
/// everything absorbed so far and emits the first outstanding batch (or
/// completes outright, for a resumed log that was one step from done).
fn prime<'e>(mut session: ResolutionSession<'e>, mode: &'static str) -> Tenant<'e> {
    match session.step(&[]).expect("session step succeeds") {
        ResolutionStep::Done(report) => Tenant::Done {
            outcome: report.outcome,
            rounds: report.label_rounds,
            cluster_f1: Some(report.cluster_metrics.f1()),
            mode,
            synced: session.wal_synced_len(),
        },
        ResolutionStep::NeedLabels(outstanding) => {
            Tenant::Active { session: Box::new(session), outstanding, mode }
        }
    }
}

/// Runs the service to completion (or to the kill point) and returns the
/// per-tenant summaries, tenant-major.
fn run_service(params: &ServiceParams, engines: &mut [ResolutionEngine]) -> Vec<TenantSummary> {
    std::fs::create_dir_all(&params.wal_dir).expect("WAL directory is creatable");
    let mut tenants: Vec<Tenant<'_>> = engines
        .iter_mut()
        .enumerate()
        .map(|(i, engine)| {
            let path = params.wal_path(i);
            if params.resume {
                match scan_log(engine.workload(), &path).expect("log scan succeeds") {
                    LogShape::InFlight => {
                        let session = engine
                            .resume(&path)
                            .expect("WAL recovery succeeds")
                            .expect("scan saw an in-flight epoch");
                        prime(session, "resumed")
                    }
                    LogShape::Committed(outcome) => {
                        // Fold the committed labels into the engine anyway, so
                        // any later epoch starts from the recovered store.
                        assert!(engine.resume(&path).expect("WAL recovery succeeds").is_none());
                        Tenant::Done {
                            outcome: *outcome,
                            rounds: 0,
                            cluster_f1: None,
                            mode: "replayed",
                            synced: engine.wal_synced_len(),
                        }
                    }
                    // Empty or missing log: the writer died before
                    // `begin_resolve` ever ran. Recover or create the file and
                    // start a fresh session appending to it.
                    LogShape::Empty => {
                        if path.exists() {
                            assert!(engine.resume(&path).expect("WAL recovery succeeds").is_none());
                        } else {
                            engine.attach_wal(&path).expect("WAL is creatable");
                        }
                        prime(engine.begin_resolve().expect("session begins"), "fresh")
                    }
                }
            } else {
                engine.attach_wal(&path).expect("WAL is creatable");
                prime(engine.begin_resolve().expect("session begins"), "fresh")
            }
        })
        .collect();

    // Per-tenant crowd state, derived deterministically from the seed so a
    // resumed process rebuilds the identical crowd.
    let mut crowds: Vec<Option<TenantCrowd>> = (0..tenants.len())
        .map(|i| params.crowd.enabled().then(|| TenantCrowd::new(params, i)))
        .collect();

    let mut ticks = 0usize;
    loop {
        let all_done = tenants.iter().all(|t| matches!(t, Tenant::Done { .. }));
        if all_done {
            break;
        }
        if params.kill_ticks > 0 && ticks >= params.kill_ticks {
            print_durable_lengths(&tenants);
            println!("{KILL_MARKER}: parked after {ticks} ticks, waiting for SIGKILL");
            std::io::stdout().flush().expect("stdout flushes");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        ticks += 1;
        // The shared pool: up to `labelers` answers this tick (labels without
        // the crowd, votes with it), handed out round-robin with a rotating
        // head so no tenant starves.
        let mut capacity = params.labelers;
        let n = tenants.len();
        for k in 0..n {
            if capacity == 0 {
                break;
            }
            let i = (ticks - 1 + k) % n;
            let finished = {
                let Tenant::Active { session, outstanding, .. } = &mut tenants[i] else {
                    continue;
                };
                let responses: Vec<LabelResponse> = if let Some(crowd) = crowds[i].as_mut() {
                    // Re-dispatch wholesale: the crowd session re-emits only
                    // asked-but-unanswered votes, so nothing is duplicated and
                    // nothing is lost across ticks (or across a resume).
                    crowd.queue = crowd.session.submit(outstanding).into();
                    let take = crowd.queue.len().min(capacity);
                    capacity -= take;
                    let votes: Vec<WorkerVote> = (0..take)
                        .map(|_| {
                            let ask = crowd.queue.pop_front().expect("queue holds `take` asks");
                            let truth = session.workload().pair(ask.request.index).ground_truth();
                            WorkerVote {
                                pair_id: ask.request.pair_id,
                                worker: ask.worker,
                                label: Label::from_bool(
                                    crowd.workers[ask.worker.0 as usize]
                                        .vote(ask.request.pair_id.0, truth == Label::Match),
                                ),
                            }
                        })
                        .collect();
                    let escalations = crowd.session.absorb(&votes);
                    crowd.queue.extend(escalations);
                    crowd.session.take_ready()
                } else {
                    let take = outstanding.len().min(capacity);
                    capacity -= take;
                    outstanding
                        .drain(..take)
                        .map(|request| LabelResponse {
                            pair_id: request.pair_id,
                            label: session.workload().pair(request.index).ground_truth(),
                        })
                        .collect()
                };
                if responses.is_empty() {
                    continue;
                }
                // Stepping with a partial batch writes it to the WAL right
                // away (fsynced once the batch is complete); the session
                // re-emits whatever is still missing, so the outstanding
                // queue is replaced wholesale.
                match session.step(&responses).expect("session step succeeds") {
                    ResolutionStep::Done(report) => Some((
                        report.outcome,
                        report.label_rounds,
                        report.cluster_metrics.f1(),
                        session.wal_synced_len(),
                    )),
                    ResolutionStep::NeedLabels(next) => {
                        *outstanding = next;
                        None
                    }
                }
            };
            if let Some((outcome, rounds, cluster_f1, synced)) = finished {
                let mode = match &tenants[i] {
                    Tenant::Active { mode, .. } | Tenant::Done { mode, .. } => mode,
                };
                let cluster_f1 = Some(cluster_f1);
                tenants[i] = Tenant::Done { outcome, rounds, cluster_f1, mode, synced };
            }
        }
    }
    println!(
        "service drained in {ticks} ticks ({} {}/tick pool capacity)",
        params.labelers,
        if params.crowd.enabled() { "votes" } else { "labels" }
    );
    if params.kill_ticks > 0 {
        print_durable_lengths(&tenants);
    }

    tenants
        .into_iter()
        .enumerate()
        .map(|(tenant, t)| {
            let Tenant::Done { outcome, rounds, cluster_f1, mode, .. } = t else {
                unreachable!("scheduler drained every tenant");
            };
            let stats = crowds[tenant].take().map(|c| c.session.stats()).unwrap_or_default();
            let decided = stats.decided.max(1) as f64;
            TenantSummary {
                tenant,
                pairs: outcome.assignment.len(),
                queries: outcome.total_human_cost,
                rounds,
                f1: outcome.metrics.f1(),
                cluster_f1,
                votes: stats.votes,
                votes_per_label: stats.votes as f64 / decided,
                escalation_rate: stats.disagreements as f64 / decided,
                digest: outcome_digest(&outcome),
                mode,
            }
        })
        .collect()
}

/// Prints each tenant's durable WAL length on one [`DURABLE_MARKER`] line:
/// what an OS crash or a power loss at this instant would leave of the logs.
fn print_durable_lengths(tenants: &[Tenant<'_>]) {
    let lengths: Vec<String> = tenants
        .iter()
        .map(|t| {
            let synced = match t {
                Tenant::Active { session, .. } => session.wal_synced_len(),
                Tenant::Done { synced, .. } => *synced,
            };
            synced.expect("every tenant has a WAL").to_string()
        })
        .collect();
    println!("{DURABLE_MARKER} {}", lengths.join(","));
}

fn print_summaries(summaries: &[TenantSummary]) {
    println!(
        "{:<7} {:>7} {:>8} {:>7} {:>7} {:>9} {:>7} {:>9} {:>6}  {:<16}  mode",
        "tenant",
        "pairs",
        "queries",
        "rounds",
        "pairF1",
        "clusterF1",
        "votes",
        "votes/lab",
        "esc%",
        "digest"
    );
    for s in summaries {
        let cluster_f1 = s.cluster_f1.map_or_else(|| "-".to_string(), |f1| format!("{f1:.3}"));
        let (votes, per_label, esc) = if s.votes > 0 {
            (
                s.votes.to_string(),
                format!("{:.2}", s.votes_per_label),
                format!("{:.1}", 100.0 * s.escalation_rate),
            )
        } else {
            ("-".to_string(), "-".to_string(), "-".to_string())
        };
        println!(
            "{:<7} {:>7} {:>8} {:>7} {:>7.3} {:>9} {:>7} {:>9} {:>6}  {:016x}  {}",
            s.tenant,
            s.pairs,
            s.queries,
            s.rounds,
            s.f1,
            cluster_f1,
            votes,
            per_label,
            esc,
            s.digest,
            s.mode
        );
    }
}

/// Spawns this binary as a crash-harness child writing into `wal_dir`, waits
/// for its kill marker (or clean exit, for kill points past completion) and
/// SIGKILLs it. Returns whether the kill point was reached before completion,
/// and each tenant's durable WAL length as the child last reported it.
fn run_child_until_killed(params: &ServiceParams, kill_ticks: usize) -> (bool, Vec<u64>) {
    let exe = std::env::current_exe().expect("own executable path is known");
    let mut child = std::process::Command::new(exe)
        .env("HUMO_SVC_SELFTEST", "0")
        .env("HUMO_SVC_RESUME", "0")
        .env("HUMO_SVC_KILL_TICKS", kill_ticks.to_string())
        .env("HUMO_SVC_WAL_DIR", &params.wal_dir)
        .env("HUMO_SVC_TENANTS", params.tenants.to_string())
        .env("HUMO_SVC_ENTITIES", params.entities.to_string())
        .env("HUMO_SVC_LABELERS", params.labelers.to_string())
        .env("HUMO_SVC_SEED", params.seed.to_string())
        .env("HUMO_SVC_CROWD_WORKERS", params.crowd.workers.to_string())
        .env("HUMO_SVC_CROWD_ERROR", params.crowd.error.to_string())
        .env("HUMO_SVC_CROWD_REDUNDANCY", params.crowd.redundancy.to_string())
        .env("HUMO_SVC_CROWD_ESCALATE_MAX", params.crowd.escalate_max.to_string())
        .env("HUMO_SVC_CROWD_AGG", if params.crowd.em { "em" } else { "majority" })
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("crash-harness child spawns");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut reached = false;
    let mut durable = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.unwrap_or_default();
        if let Some(lengths) = line.strip_prefix(DURABLE_MARKER) {
            durable = lengths
                .trim()
                .split(',')
                .map(|len| len.parse().expect("durable lengths are byte counts"))
                .collect();
        }
        if line.contains(KILL_MARKER) {
            reached = true;
            break;
        }
    }
    // SIGKILL — no destructors, no flushes in the process: the resume sees
    // every record the child wrote to the kernel, fsynced or not. What a
    // power loss would leave is the durable prefix reported above.
    let _ = child.kill();
    let _ = child.wait();
    assert_eq!(durable.len(), params.tenants, "the child reported a durable length per tenant");
    (reached, durable)
}

/// Copies every tenant's WAL from `from` into `to`, cut to its durable
/// length: the logs as an OS crash or a power loss at the kill point would
/// leave them.
fn cut_to_durable(from: &ServiceParams, to: &ServiceParams, durable: &[u64]) {
    std::fs::create_dir_all(&to.wal_dir).expect("power-loss WAL directory is creatable");
    for (tenant, &len) in durable.iter().enumerate() {
        let bytes = std::fs::read(from.wal_path(tenant)).expect("the child's WAL is readable");
        assert!(len as usize <= bytes.len(), "tenant {tenant}: durable length past the log's end");
        std::fs::write(to.wal_path(tenant), &bytes[..len as usize])
            .expect("power-loss WAL copy is writable");
    }
}

/// Asserts every resumed tenant reached the reference outcome at the
/// reference label cost.
fn assert_matches_reference(
    reference: &[TenantSummary],
    resumed: &[TenantSummary],
    kill_ticks: usize,
    how: &str,
) {
    for (r, s) in reference.iter().zip(resumed) {
        assert_eq!(
            r.digest, s.digest,
            "tenant {}: outcome digest resumed {how} diverged from the reference \
             (kill point {kill_ticks})",
            r.tenant
        );
        assert_eq!(
            r.queries, s.queries,
            "tenant {}: label cost resumed {how} diverged from the reference \
             (kill point {kill_ticks})",
            r.tenant
        );
    }
}

/// The kill-and-resume self test: an uninterrupted reference run, then for
/// each kill point a child killed mid-flight and two in-process resumes —
/// from the WALs the SIGKILL left, and from copies cut to their durable
/// lengths (a simulated power loss) — asserting every tenant's outcome digest
/// and label cost match.
fn run_selftest(base: &ServiceParams, kill_points: &[usize]) {
    let reference_params = ServiceParams {
        resume: false,
        kill_ticks: 0,
        wal_dir: base.wal_dir.join("reference"),
        ..base.clone()
    };
    println!("-- reference run ({} tenants, uninterrupted) --", base.tenants);
    let mut engines: Vec<ResolutionEngine> =
        (0..base.tenants).map(|i| tenant_engine(base, i)).collect();
    let reference = run_service(&reference_params, &mut engines);
    print_summaries(&reference);

    for &kill_ticks in kill_points {
        let crash_params = ServiceParams {
            resume: false,
            kill_ticks: 0,
            wal_dir: base.wal_dir.join(format!("kill-{kill_ticks}")),
            ..base.clone()
        };
        println!("\n-- kill point: {kill_ticks} ticks --");
        let (reached, durable) = run_child_until_killed(&crash_params, kill_ticks);
        println!(
            "child {}",
            if reached { "SIGKILLed at the kill point" } else { "completed before the kill point" }
        );
        let written: Vec<u64> = (0..base.tenants)
            .map(|i| std::fs::metadata(crash_params.wal_path(i)).map_or(0, |m| m.len()))
            .collect();
        println!("WAL bytes at the kill point: durable {durable:?} of written {written:?}");
        let power_params = ServiceParams {
            resume: true,
            wal_dir: base.wal_dir.join(format!("kill-{kill_ticks}-power-loss")),
            ..base.clone()
        };
        cut_to_durable(&crash_params, &power_params, &durable);
        let resume_params = ServiceParams { resume: true, ..crash_params };
        for (params, how) in
            [(&resume_params, "after SIGKILL"), (&power_params, "after power loss")]
        {
            println!("resume {how}:");
            let mut engines: Vec<ResolutionEngine> =
                (0..base.tenants).map(|i| tenant_engine(base, i)).collect();
            let resumed = run_service(params, &mut engines);
            print_summaries(&resumed);
            assert_matches_reference(&reference, &resumed, kill_ticks, how);
        }
        println!(
            "[kill {kill_ticks}] all {} tenant outcomes byte-identical after SIGKILL and after \
             power loss",
            reference.len()
        );
    }
    let _ = std::fs::remove_dir_all(&base.wal_dir);
    println!(
        "\n[selftest] kill-and-resume reproduced the reference outcome at every kill point, \
         from the killed logs and from their durable prefixes"
    );
}

fn main() -> Result<(), KnobError> {
    let cfg = BenchConfig::from_env("HUMO_SVC");
    let params = ServiceParams::from_env(&cfg)?;
    let default_wal_dir = cfg.string("WAL_DIR").is_none();

    println!("================================================================");
    println!("labeling_service: durable multi-tenant labeling over shared labelers");
    println!(
        "tenants = {}, base entities = {}, pool capacity = {}/tick, wal dir = {}",
        params.tenants,
        params.entities,
        params.labelers,
        params.wal_dir.display()
    );
    if params.crowd.enabled() {
        println!(
            "crowd: {} workers/tenant, error = {}, redundancy = {:?}, aggregation = {}",
            params.crowd.workers,
            params.crowd.error,
            params.crowd.redundancy(),
            if params.crowd.em { "em" } else { "majority" }
        );
    }
    println!("================================================================");

    if cfg.flag("SELFTEST") {
        let kill_points: Vec<usize> = cfg
            .f64_list("KILL_AT", &[1.0, 4.0, 24.0])?
            .into_iter()
            .map(|k| k.max(1.0) as usize)
            .collect();
        run_selftest(&params, &kill_points);
        return Ok(());
    }

    let mut engines: Vec<ResolutionEngine> =
        (0..params.tenants).map(|i| tenant_engine(&params, i)).collect();
    let summaries = run_service(&params, &mut engines);
    print_summaries(&summaries);
    if default_wal_dir && !params.resume {
        let _ = std::fs::remove_dir_all(&params.wal_dir);
    }
    Ok(())
}
