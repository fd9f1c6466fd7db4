//! `durable_service` and `crowd_service`: several tenants' resolution
//! sessions multiplexed over one shared pool of simulated labelers, the
//! scheduler of the `labeling_service` harness.
//!
//! Every tick the pool answers a fixed number of requests, round-robin over
//! the tenants with a rotating head, so sessions receive partial answers and
//! re-emit the rest of their batch. `durable_service` gives each tenant a
//! `HAL1` write-ahead log and a resident budget well below its workload, so
//! steps fsync and read spilled segments. `crowd_service` answers through a
//! crowd: each tick re-submits the outstanding batch to the tenant's
//! `CrowdSession`, workers vote, and only aggregated labels reach the session.

use crate::common::{
    answer, count_rounds, drive_engine, engine_step, fold_digests, outcome_digest, requirement,
    time_clustering, Ctx, StepPhase, Summary, WorkDir,
};
use crate::trace::Phase;
use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::RecordId;
use er_core::similarity::StringMeasure;
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_core::workload::Label;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_pipeline::{
    PipelineConfig, ResolutionEngine, ResolutionReport, ResolutionSession, ResolutionStep,
};
use humo::crowd::mix;
use humo::wal::{read_log, WalRecord, WalWriter};
use humo::{
    Aggregation, CrowdSession, LabelRequest, Redundancy, VoteRequest, WorkerModel, WorkerVote,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A tenant's step at which its write-ahead log is copied aside for the
/// resume check.
const SNAPSHOT_STEP: usize = 20;
/// Votes per pair in `crowd_service`.
const REDUNDANCY: usize = 3;

/// The two service workloads' parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Durable,
    Crowd,
}

impl Kind {
    /// Tenants sharing the labeler pool.
    fn tenants(self) -> usize {
        match self {
            Kind::Durable => 8,
            Kind::Crowd => 16,
        }
    }

    /// Tenant `i` resolves `base_entities + 10·i` left-dataset entities.
    fn base_entities(self) -> usize {
        match self {
            Kind::Durable => 300,
            Kind::Crowd => 100,
        }
    }

    /// Answers the pool gives per tick: 64 labels, or their worth in votes.
    fn pool_per_tick(self) -> usize {
        match self {
            Kind::Durable => 64,
            Kind::Crowd => 64 * REDUNDANCY,
        }
    }
}

/// One tenant's engine after ingest, with what its checks need.
struct Tenant {
    engine: ResolutionEngine,
    truth: Vec<(RecordId, RecordId)>,
    wal: Option<PathBuf>,
}

/// The simulated crowd of one tenant and its crowd session.
struct TenantCrowd {
    workers: Vec<WorkerModel>,
    session: CrowdSession,
    queue: VecDeque<VoteRequest>,
}

impl TenantCrowd {
    const WORKERS: usize = 7;
    const ERROR_RATE: f64 = 0.02;
    /// Seed of the crowd session's worker assignment: part of the program's
    /// configuration, so the same for every workload seed.
    const ASSIGNMENT_SEED: u64 = 0x5EED;

    fn new(seed: u64, tenant: usize) -> Self {
        let pool_seed = mix(seed, 0xC0FFEE ^ tenant as u64);
        let workers = (0..Self::WORKERS)
            .map(|w| WorkerModel::symmetric(Self::ERROR_RATE, mix(pool_seed, w as u64)))
            .collect();
        let session = CrowdSession::new(
            Self::WORKERS,
            Redundancy::Fixed(REDUNDANCY),
            Aggregation::Majority,
            mix(Self::ASSIGNMENT_SEED, tenant as u64),
        );
        Self { workers, session, queue: VecDeque::new() }
    }
}

pub struct Input {
    kind: Kind,
    seed: u64,
    tenants: Vec<Tenant>,
    /// Holds the tenants' logs and spill files until the iteration ends.
    _dir: WorkDir,
}

/// Generates tenant `i`'s corpus and ingests it into a fresh engine whose
/// spill files go to `dir`.
fn tenant(kind: Kind, seed: u64, i: usize, dir: &Path, ctx: &mut Ctx) -> Result<Tenant, String> {
    let start = Instant::now();
    let entities = kind.base_entities() + 10 * i;
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: entities,
        duplicate_probability: 0.6,
        extra_right_entities: entities / 2,
        corruption: 0.3,
        seed: seed.wrapping_add(101 * i as u64),
    })
    .generate();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    ctx.tracer.end("datagen", start);

    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::Uniform,
    );
    let mut config = PipelineConfig::new(scoring, "title", requirement());
    config.similarity_threshold = 0.15;
    config.optimizer.unit_size = 25;
    config.threads = ctx.threads;
    config.recorder = ctx.obs();
    if kind == Kind::Durable {
        config.memory_budget = MemoryBudget {
            spill_dir: Some(dir.to_path_buf()),
            ..MemoryBudget::bounded(4000, 4000)
        };
    }
    let schema = BibliographicGenerator::schema();
    let mut engine =
        ctx.ops.record("setup", ResolutionEngine::new(config, schema.clone(), schema))?;
    let start = Instant::now();
    let result =
        engine.ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth);
    ctx.tracer.end("ingest", start);
    let ingest = ctx.ops.record("ingest", result)?;
    ctx.count("ingest.calls", 1.0);
    ctx.count("blocking.delta_candidates", ingest.delta_candidates as f64);
    Ok(Tenant { engine, truth, wal: None })
}

pub fn setup(kind: Kind, seed: u64, work: &Path, ctx: &mut Ctx) -> Result<Input, String> {
    let dir = ctx.ops.record("setup", WorkDir::create(work))?;
    let mut tenants = Vec::with_capacity(kind.tenants());
    for i in 0..kind.tenants() {
        let mut t = tenant(kind, seed, i, dir.path(), ctx)?;
        if kind == Kind::Durable {
            let path = dir.path().join(format!("tenant-{i}.hal"));
            let start = Instant::now();
            let attached = t.engine.attach_wal(&path);
            ctx.tracer.end("wal.attach", start);
            ctx.ops.record("wal.attach", attached)?;
            t.wal = Some(path);
        }
        tenants.push(t);
    }
    Ok(Input { kind, seed, tenants, _dir: dir })
}

/// A tenant inside the scheduler.
enum State<'e> {
    Active {
        session: Box<ResolutionSession<'e>>,
        outstanding: Vec<LabelRequest>,
        phase: StepPhase,
        steps: usize,
    },
    Done(Box<ResolutionReport>),
}

/// Runs the service to its last committed outcome. With `snapshots`, each
/// tenant's log is copied there at its [`SNAPSHOT_STEP`]th step (time left
/// out of `run_s`).
pub fn run(input: Input, snapshots: Option<&Path>, ctx: &mut Ctx) -> Result<Summary, String> {
    let Input { kind, seed, mut tenants, _dir } = input;
    let mut crowds: Vec<Option<TenantCrowd>> = (0..tenants.len())
        .map(|i| (kind == Kind::Crowd).then(|| TenantCrowd::new(seed, i)))
        .collect();
    let wal_paths: Vec<Option<PathBuf>> = tenants.iter().map(|t| t.wal.clone()).collect();

    let mut states: Vec<State<'_>> = Vec::with_capacity(tenants.len());
    for t in tenants.iter_mut() {
        let start = Instant::now();
        let begun = t.engine.begin_resolve();
        ctx.tracer.end("session.begin", start);
        let mut session = ctx.ops.record("begin", begun)?;
        let mut phase = StepPhase::default();
        let (step, secs) = engine_step(&mut session, &[], &mut phase, ctx)?;
        ctx.turns_ms.push(secs * 1e3);
        states.push(match step {
            ResolutionStep::Done(report) => State::Done(Box::new(report)),
            ResolutionStep::NeedLabels(outstanding) => {
                State::Active { session: Box::new(session), outstanding, phase, steps: 1 }
            }
        });
    }

    let (mut requested, mut dispatched) = (0u64, 0u64);
    let mut tick = 0usize;
    while states.iter().any(|s| matches!(s, State::Active { .. })) {
        tick += 1;
        ctx.between_turns();
        let mut capacity = kind.pool_per_tick();
        for k in 0..states.len() {
            if capacity == 0 {
                break;
            }
            let i = (tick - 1 + k) % states.len();
            let finished = {
                let State::Active { session, outstanding, phase, steps } = &mut states[i] else {
                    continue;
                };
                let mut machine_s = 0.0;
                let responses = if let Some(crowd) = crowds[i].as_mut() {
                    let start = Instant::now();
                    let asks = crowd.session.submit(outstanding);
                    machine_s += ctx.tracer.end("crowd.submit", start);
                    requested += asks.len() as u64;
                    crowd.queue = asks.into();
                    let take = crowd.queue.len().min(capacity);
                    capacity -= take;
                    dispatched += take as u64;
                    let start = Instant::now();
                    let votes: Vec<WorkerVote> = crowd
                        .queue
                        .drain(..take)
                        .map(|ask| {
                            let truth = session.workload().pair(ask.request.index).ground_truth();
                            let vote = crowd.workers[ask.worker.0 as usize]
                                .vote(ask.request.pair_id.0, truth == Label::Match);
                            WorkerVote {
                                pair_id: ask.request.pair_id,
                                worker: ask.worker,
                                label: Label::from_bool(vote),
                            }
                        })
                        .collect();
                    ctx.tracer.end("labeler", start);
                    let start = Instant::now();
                    let escalations = crowd.session.absorb(&votes);
                    machine_s += ctx.tracer.end("crowd.absorb", start);
                    requested += escalations.len() as u64;
                    crowd.queue.extend(escalations);
                    let start = Instant::now();
                    let ready = crowd.session.take_ready();
                    machine_s += ctx.tracer.end("crowd.take_ready", start);
                    ready
                } else {
                    let take = outstanding.len().min(capacity);
                    capacity -= take;
                    let start = Instant::now();
                    let responses = answer(session.workload(), &outstanding[..take]);
                    outstanding.drain(..take);
                    ctx.tracer.end("labeler", start);
                    responses
                };
                if responses.is_empty() {
                    ctx.turns_ms.push(machine_s * 1e3);
                    continue;
                }
                let (step, secs) = engine_step(session, &responses, phase, ctx)?;
                ctx.turns_ms.push((machine_s + secs) * 1e3);
                *steps += 1;
                if let (Some(dir), Some(wal)) = (snapshots, &wal_paths[i]) {
                    if *steps == SNAPSHOT_STEP {
                        let start = Instant::now();
                        let copied = std::fs::copy(wal, dir.join(format!("tenant-{i}.hal")));
                        ctx.excluded_s += start.elapsed().as_secs_f64();
                        ctx.ops.record("snapshot", copied)?;
                    }
                }
                match step {
                    ResolutionStep::Done(report) => Some(report),
                    ResolutionStep::NeedLabels(next) => {
                        *outstanding = next;
                        None
                    }
                }
            };
            if let Some(report) = finished {
                states[i] = State::Done(Box::new(report));
            }
        }
    }
    ctx.committed();

    let reports: Vec<ResolutionReport> = states
        .into_iter()
        .map(|s| match s {
            State::Done(report) => *report,
            State::Active { .. } => unreachable!("the scheduler drains every tenant"),
        })
        .collect();
    ctx.count("crowd.requested", requested as f64);
    ctx.count("crowd.dispatched", dispatched as f64);
    let mut summary = Summary::new();
    let mut digests = Vec::new();
    for (i, (t, report)) in tenants.iter().zip(&reports).enumerate() {
        let votes = match crowds[i].take() {
            Some(crowd) => {
                let stats = crowd.session.stats();
                ctx.count("crowd.escalations", stats.escalations as f64);
                ctx.ops.check(
                    stats.votes == (REDUNDANCY * report.oracle_queries) as u64,
                    format_args!(
                        "tenant {i}: {} votes for {} labels at {REDUNDANCY} votes each",
                        stats.votes, report.oracle_queries
                    ),
                );
                stats.votes
            }
            None => report.oracle_queries as u64,
        };
        summary.add(report.oracle_queries, report.label_rounds, votes, report.outcome.metrics);
        summary.add_clusters(report.cluster_metrics);
        digests.push(outcome_digest(&report.outcome));
        count_rounds(ctx, report);
        time_clustering(&t.engine, &report.outcome, &t.truth, ctx);
        count_storage(t, ctx)?;
    }
    summary.digest = fold_digests(&digests);
    summary.parts = digests;
    Ok(summary)
}

/// Adds a tenant's spill activity and log to the iteration's counts, checks
/// that its log decodes and ends in a commit, and, while tracing, times
/// re-appending the log into a fresh writer and reading it back.
fn count_storage(t: &Tenant, ctx: &mut Ctx) -> Result<(), String> {
    let spill = t.engine.spill_report();
    ctx.count("spill.bytes_written", spill.bytes_spilled as f64);
    ctx.count("spill.bytes_read", spill.bytes_loaded as f64);
    ctx.count("spill.segments_loaded", spill.segments_loaded as f64);
    ctx.count("spill.cache_hits", spill.cache_hits as f64);
    ctx.count("spill.cache_lookups", (spill.cache_hits + spill.cache_misses) as f64);
    ctx.count("spill.posting_bytes", spill.posting_bytes_spilled as f64);
    ctx.count("disk.bytes", (spill.bytes_spilled + spill.posting_bytes_spilled) as f64);
    let Some(path) = &t.wal else { return Ok(()) };
    let size = ctx.ops.record("wal.read", std::fs::metadata(path))?.len();
    ctx.count("disk.bytes", size as f64);
    let start = Instant::now();
    let recovered = read_log(path);
    ctx.tracer.end_in(Phase::After, "wal.recover", start);
    let records = ctx.ops.record("wal.read", recovered)?.records;
    // Every record on the log is one fsynced append the run made.
    ctx.ops.succeeded("wal.append", records.len() as u64);
    ctx.ops.check(
        matches!(records.last(), Some(WalRecord::Commit { .. })),
        format_args!("{} does not end in a commit", path.display()),
    );
    if ctx.tracer.enabled() {
        let copy = path.with_extension("replay");
        let mut writer = ctx.ops.record("wal.replay", WalWriter::create(&copy))?;
        let start = Instant::now();
        let appended: Result<Vec<u64>, _> = records.iter().map(|r| writer.append(r)).collect();
        ctx.tracer.end_in(Phase::After, "wal.append", start);
        ctx.ops.record("wal.replay", appended)?;
    }
    Ok(())
}

/// Re-ingests each tenant into a fresh engine, resumes it from the log copied
/// aside during the run with `ResolutionEngine::resume`, drives the resumed
/// session to completion with whole-batch answers, and checks that the outcome
/// digest is the uninterrupted run's.
pub fn verify_resume(
    seed: u64,
    snapshots: &Path,
    expected: &[u64],
    work: &Path,
    ctx: &mut Ctx,
) -> Result<(), String> {
    for (i, &digest) in expected.iter().enumerate() {
        let dir = ctx.ops.record("resume", WorkDir::create(work))?;
        let mut t = tenant(Kind::Durable, seed, i, dir.path(), ctx)?;
        let path = snapshots.join(format!("tenant-{i}.hal"));
        let resumed = t.engine.resume(&path);
        let Some(mut session) = ctx.ops.record("resume", resumed)? else {
            ctx.ops.check(false, format_args!("tenant {i}: the copied log holds no open session"));
            continue;
        };
        let report = drive_engine(&mut session, ctx)?;
        ctx.ops.check(
            outcome_digest(&report.outcome) == digest,
            format_args!("tenant {i}: the session resumed from its log reached another outcome"),
        );
    }
    Ok(())
}
