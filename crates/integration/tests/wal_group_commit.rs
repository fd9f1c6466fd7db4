//! Group commit of the write-ahead label log: a durable session fsyncs its
//! `HAL1` log once per label round, not once per step, and that is enough.
//!
//! SAMP, HYBR and BASE are driven through `DurableSession`, and SAMP through
//! a `ResolutionEngine` with an attached log, each answering only a few
//! labels per step, so most steps re-emit the rest of a partly answered
//! batch. The suite checks three things:
//!
//! - after every step that opened a new round or completed, the whole log is
//!   durable (`synced_len` equals the file length), while some re-emitting
//!   step leaves its labels unsynced;
//! - a simulated power loss at any step — a resume from the log cut to
//!   `synced_len` — reaches the byte-identical outcome of the uninterrupted
//!   run, and asks again for no paid label outside the batch that was
//!   outstanding at the cut;
//! - over an epoch, `session.wal.syncs` stays within `session.rounds` + 2
//!   and `session.wal.appends` counts one append per record on the log.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_core::workload::{PairId, Workload};
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use er_obs::{MetricsRecorder, ObsHandle};
use er_pipeline::{PipelineConfig, ResolutionEngine, ResolutionReport, ResolutionStep};
use humo::wal::{read_log, DurableSession};
use humo::{
    LabelRequest, LabelResponse, OptimizationOutcome, OptimizerKind, QualityRequirement,
    SessionConfig, Step,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A path no other call in any test process uses: PID plus a per-process
/// counter, so tests running on parallel threads never share a file.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(".humo-wal-group-commit-{}-{n}-{name}", std::process::id()))
}

fn answer(workload: &Workload, requests: &[LabelRequest]) -> Vec<LabelResponse> {
    requests
        .iter()
        .map(|request| LabelResponse {
            pair_id: request.pair_id,
            label: workload.pair(request.index).ground_truth(),
        })
        .collect()
}

/// How many of the outstanding requests the labelers answer at step `step`:
/// one to four, never the whole of a larger batch.
fn few(step: usize) -> usize {
    1 + step % 4
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Copies the first `len` bytes of the log at `path` to a fresh file: the
/// log as a power loss leaves it when only `len` bytes were durable.
fn cut_copy(path: &Path, len: u64) -> PathBuf {
    let bytes = std::fs::read(path).unwrap();
    let copy = temp_path("cut");
    std::fs::write(&copy, &bytes[..len as usize]).unwrap();
    copy
}

/// What one step of the uninterrupted run left behind.
struct Cut {
    /// The durable length of the log after the step.
    synced: u64,
    /// Labels the run had absorbed by the end of the step.
    absorbed: usize,
    /// The pairs of the round open after the step: every label absorbed
    /// since the last sync answers one of them.
    round: HashSet<PairId>,
}

/// An uninterrupted run driven a few labels per step.
struct Run {
    cuts: Vec<Cut>,
    /// The run's final answered log, in absorption order.
    log: Vec<LabelResponse>,
    rounds: usize,
    /// Whether some step left written but unsynced records behind.
    deferred: bool,
}

impl Run {
    fn new() -> Self {
        Self { cuts: Vec::new(), log: Vec::new(), rounds: 0, deferred: false }
    }

    /// Records a step and checks rule (a): a step that opened a round or
    /// completed leaves the whole log durable.
    fn record(
        &mut self,
        path: &Path,
        synced: u64,
        absorbed: usize,
        rounds: usize,
        batch: Option<&[LabelRequest]>,
    ) {
        let len = file_len(path);
        let opened = rounds > self.rounds;
        if opened || batch.is_none() {
            assert_eq!(
                synced, len,
                "a step that opened a round or completed left the log unsynced"
            );
        }
        assert!(synced <= len);
        self.deferred |= synced < len;
        let round = match batch {
            Some(batch) if opened => batch.iter().map(|request| request.pair_id).collect(),
            _ => self.cuts.last().map(|cut| cut.round.clone()).unwrap_or_default(),
        };
        self.rounds = rounds;
        self.cuts.push(Cut { synced, absorbed, round });
    }

    /// Checks rule (b) for every step cut to `len`: `durable` is the log a
    /// resume read back from the cut, `asked` every pair the resumed session
    /// requested. Paid labels lost to the cut, and paid labels asked for
    /// again, must all belong to the round open at that step.
    fn check_cut(&self, len: u64, durable: &[LabelResponse], asked: &HashSet<PairId>) {
        let durable: HashSet<PairId> = durable.iter().map(|r| r.pair_id).collect();
        for cut in self.cuts.iter().filter(|cut| cut.synced == len) {
            for response in &self.log[..cut.absorbed] {
                let pair = response.pair_id;
                if !durable.contains(&pair) || asked.contains(&pair) {
                    assert!(
                        cut.round.contains(&pair),
                        "pair {pair:?} was paid for outside the round open at the cut"
                    );
                }
            }
        }
    }

    fn cut_lengths(&self) -> Vec<u64> {
        let mut lengths: Vec<u64> = self.cuts.iter().map(|cut| cut.synced).collect();
        lengths.dedup();
        lengths
    }
}

/// Rule (c): one fsync per round plus the begin record, the poll that
/// completes and the commit record; one append per record on the log.
fn check_counters(metrics: &MetricsRecorder, path: &Path, what: &str) {
    let snapshot = metrics.snapshot();
    let syncs = snapshot.counter("session.wal.syncs");
    let rounds = snapshot.counter("session.rounds");
    assert!(syncs <= rounds + 2, "{what}: {syncs} syncs for {rounds} rounds");
    let records = read_log(path).unwrap().records.len() as u64;
    assert_eq!(snapshot.counter("session.wal.appends"), records, "{what}: appends != records");
}

fn assert_outcomes_equal(a: &OptimizationOutcome, b: &OptimizationOutcome, what: &str) {
    assert_eq!(a.solution, b.solution, "{what}: bounds differ");
    assert_eq!(a.assignment, b.assignment, "{what}: label assignments differ");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics differ");
    assert_eq!(a.total_human_cost, b.total_human_cost, "{what}: total cost differs");
    assert_eq!(a.verification_cost, b.verification_cost, "{what}: verification cost differs");
    assert_eq!(a.sampling_cost, b.sampling_cost, "{what}: sampling cost differs");
}

fn synthetic(metrics: &Arc<MetricsRecorder>) -> Workload {
    let mut workload = SyntheticGenerator::new(SyntheticConfig {
        num_pairs: 3_000,
        tau: 12.0,
        sigma: 0.12,
        subset_size: 200,
        seed: 17,
    })
    .generate();
    workload.set_obs(ObsHandle::new(metrics.clone()));
    workload
}

#[test]
fn durable_sessions_sync_once_per_round_and_survive_power_loss() {
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    for kind in [OptimizerKind::PartialSampling, OptimizerKind::Hybrid, OptimizerKind::Baseline] {
        let what = format!("{kind:?}");
        let metrics = Arc::new(MetricsRecorder::new());
        let w = synthetic(&metrics);
        let config = SessionConfig::for_kind(kind, requirement);
        let path = temp_path(&format!("durable-{kind:?}"));

        let mut run = Run::new();
        let mut session = DurableSession::create(config, &w, &path).unwrap();
        let mut responses = Vec::new();
        let reference = loop {
            let step = session.step(&responses).unwrap();
            let synced = session.wal().synced_len();
            let (absorbed, rounds) =
                (session.session().answered_log().len(), session.session().rounds());
            match step {
                Step::Done(outcome) => {
                    run.record(&path, synced, absorbed, rounds, None);
                    break outcome;
                }
                Step::NeedLabels(requests) => {
                    run.record(&path, synced, absorbed, rounds, Some(&requests));
                    let take = few(run.cuts.len()).min(requests.len());
                    responses = answer(&w, &requests[..take]);
                }
            }
        };
        run.log = session.session().answered_log().to_vec();
        drop(session);
        assert!(run.deferred, "{what}: every step fsynced, nothing was group-committed");
        check_counters(&metrics, &path, &what);

        for len in run.cut_lengths() {
            let copy = cut_copy(&path, len);
            let mut resumed = DurableSession::resume(&w, &copy).unwrap();
            let durable = resumed.session().answered_log().to_vec();
            let mut asked = HashSet::new();
            let mut responses = Vec::new();
            let outcome = loop {
                match resumed.step(&responses).unwrap() {
                    Step::Done(outcome) => break outcome,
                    Step::NeedLabels(requests) => {
                        asked.extend(requests.iter().map(|request| request.pair_id));
                        responses = answer(&w, &requests);
                    }
                }
            };
            assert_outcomes_equal(&outcome, &reference, &format!("{what}, cut at {len} bytes"));
            run.check_cut(len, &durable, &asked);
            std::fs::remove_file(&copy).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }
}

fn pipeline_config(recorder: ObsHandle) -> PipelineConfig {
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
    config.optimizer.unit_size = 25;
    config.recorder = recorder;
    config
}

fn build_engine(recorder: ObsHandle) -> ResolutionEngine {
    let schema = BibliographicGenerator::schema();
    let mut engine =
        ResolutionEngine::new(pipeline_config(recorder), schema.clone(), schema).unwrap();
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: 100,
        duplicate_probability: 0.6,
        extra_right_entities: 50,
        corruption: 0.3,
        seed: 29,
    })
    .generate();
    let truth: Vec<_> = corpus.ground_truth.iter().copied().collect();
    engine.ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth).unwrap();
    engine
}

fn assert_reports_equal(a: &ResolutionReport, b: &ResolutionReport, what: &str) {
    assert_eq!(a.outcome.solution, b.outcome.solution, "{what}: bounds differ");
    assert_eq!(a.outcome.assignment, b.outcome.assignment, "{what}: assignments differ");
    assert_eq!(a.oracle_queries, b.oracle_queries, "{what}: label costs differ");
}

#[test]
fn engine_sessions_sync_once_per_round_and_survive_power_loss() {
    let metrics = Arc::new(MetricsRecorder::new());
    let mut engine = build_engine(ObsHandle::new(metrics.clone()));
    let path = temp_path("engine");
    engine.attach_wal(&path).unwrap();

    let mut run = Run::new();
    let mut session = engine.begin_resolve().unwrap();
    assert!(!session.fallback_all_human(), "the corpus must run SAMP, not the fallback");
    let mut responses = Vec::new();
    let reference = loop {
        let step = session.step(&responses).unwrap();
        let synced = session.wal_synced_len().unwrap();
        let (absorbed, rounds) = (session.answered_log().len(), session.rounds());
        match step {
            ResolutionStep::Done(report) => {
                run.record(&path, synced, absorbed, rounds, None);
                break report;
            }
            ResolutionStep::NeedLabels(requests) => {
                run.record(&path, synced, absorbed, rounds, Some(&requests));
                let take = few(run.cuts.len()).min(requests.len());
                responses = answer(session.workload(), &requests[..take]);
            }
        }
    };
    run.log = session.answered_log().to_vec();
    drop(session);
    assert!(run.deferred, "engine: every step fsynced, nothing was group-committed");
    check_counters(&metrics, &path, "engine");

    // The last cut holds the commit: a resume folds the epoch into the
    // engine and leaves no session in flight.
    let (last, in_flight) = run.cut_lengths().split_last().map(|(l, r)| (*l, r.to_vec())).unwrap();
    assert_eq!(last, file_len(&path));
    for len in in_flight {
        let copy = cut_copy(&path, len);
        let mut resumed_engine = build_engine(ObsHandle::default());
        let mut resumed = resumed_engine.resume(&copy).unwrap().expect("the epoch is in flight");
        let durable = resumed.answered_log().to_vec();
        let mut asked = HashSet::new();
        let mut responses = Vec::new();
        let report = loop {
            match resumed.step(&responses).unwrap() {
                ResolutionStep::Done(report) => break report,
                ResolutionStep::NeedLabels(requests) => {
                    asked.extend(requests.iter().map(|request| request.pair_id));
                    responses = answer(resumed.workload(), &requests);
                }
            }
        };
        assert_reports_equal(&report, &reference, &format!("engine, cut at {len} bytes"));
        run.check_cut(len, &durable, &asked);
        drop(resumed);
        std::fs::remove_file(&copy).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}
