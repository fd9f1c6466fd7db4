//! Engine-level crash recovery: a `ResolutionEngine` with an attached WAL
//! multiplexes epochs onto one `HAL1` log — committed epochs fold into the
//! cross-epoch label store and warm-start state, a trailing uncommitted epoch
//! rebuilds mid-flight — and a fresh engine that re-ingests the same batches
//! resumes to the byte-identical outcome the crashed process was heading for.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::{Record, RecordId};
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator, GeneratedCorpus};
use er_pipeline::{
    PipelineConfig, ResolutionEngine, ResolutionReport, ResolutionSession, ResolutionStep,
};
use humo::{LabelResponse, QualityRequirement};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn pipeline_config() -> PipelineConfig {
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
    config
}

fn corpus(entities: usize, seed: u64) -> GeneratedCorpus {
    BibliographicGenerator::new(BibliographicConfig {
        num_entities: entities,
        duplicate_probability: 0.6,
        extra_right_entities: entities / 2,
        corruption: 0.3,
        seed,
    })
    .generate()
}

/// A path no other call in any test process uses: PID plus a per-process
/// counter, so tests running on parallel threads never share a file.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(".humo-engine-resume-{}-{n}-{name}", std::process::id()))
}

/// Splits the corpus into two ingest batches plus the truth edges.
struct Batches {
    first: (Vec<Record>, Vec<Record>),
    second: (Vec<Record>, Vec<Record>),
    truth: Vec<(RecordId, RecordId)>,
}

fn batches(entities: usize, seed: u64) -> Batches {
    let corpus = corpus(entities, seed);
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    let (l1, l2) = corpus.left.records().split_at(corpus.left.len() * 2 / 3);
    let (r1, r2) = corpus.right.records().split_at(corpus.right.len() * 2 / 3);
    Batches { first: (l1.to_vec(), r1.to_vec()), second: (l2.to_vec(), r2.to_vec()), truth }
}

fn ingest_all(engine: &mut ResolutionEngine, batches: &Batches) {
    engine
        .ingest(batches.first.0.clone(), batches.first.1.clone(), &batches.truth)
        .expect("first batch ingests");
    engine
        .ingest(batches.second.0.clone(), batches.second.1.clone(), &[])
        .expect("second batch ingests");
}

fn drive(mut session: ResolutionSession<'_>) -> ResolutionReport {
    let mut responses = Vec::new();
    loop {
        match session.step(&responses).unwrap() {
            ResolutionStep::Done(report) => return report,
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
    }
}

/// Drives a session for `rounds` dispatch waves, then abandons it mid-flight.
fn drive_partially(mut session: ResolutionSession<'_>, rounds: usize) {
    let mut responses = Vec::new();
    for _ in 0..rounds {
        match session.step(&responses).unwrap() {
            ResolutionStep::Done(_) => panic!("session finished before the simulated crash"),
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
    }
}

fn assert_reports_equal(context: &str, a: &ResolutionReport, b: &ResolutionReport) {
    assert_eq!(a.outcome.solution, b.outcome.solution, "{context}: bounds differ");
    assert_eq!(a.outcome.assignment, b.outcome.assignment, "{context}: assignments differ");
    assert_eq!(a.outcome.metrics, b.outcome.metrics, "{context}: metrics differ");
    assert_eq!(a.oracle_queries, b.oracle_queries, "{context}: label costs differ");
    assert_eq!(a.entities, b.entities, "{context}: entity clusters differ");
    assert_eq!(a.cluster_metrics, b.cluster_metrics, "{context}: cluster metrics differ");
}

/// Crash in the middle of epoch 2 (epoch 1 committed): a fresh engine that
/// re-ingests both batches folds epoch 1 from the log — labels *and* warm
/// start — and finishes epoch 2 byte-identically to a never-crashed engine.
#[test]
fn multi_epoch_log_resumes_the_second_epoch_byte_identically() {
    let batches = batches(160, 41);
    let path = temp_path("multi-epoch");
    let schema = BibliographicGenerator::schema();

    // Reference: two epochs, no crash, no WAL.
    let mut reference =
        ResolutionEngine::new(pipeline_config(), schema.clone(), schema.clone()).unwrap();
    reference.ingest(batches.first.0.clone(), batches.first.1.clone(), &batches.truth).unwrap();
    drive(reference.begin_resolve().unwrap());
    reference.ingest(batches.second.0.clone(), batches.second.1.clone(), &[]).unwrap();
    let reference_report = drive(reference.begin_resolve().unwrap());
    assert!(reference_report.used_warm_start, "second epoch should start warm");

    // Crashed engine: epoch 1 completes and commits, epoch 2 dies after two
    // dispatch waves. Both epochs share one log.
    let mut crashed =
        ResolutionEngine::new(pipeline_config(), schema.clone(), schema.clone()).unwrap();
    crashed.ingest(batches.first.0.clone(), batches.first.1.clone(), &batches.truth).unwrap();
    crashed.attach_wal(&path).unwrap();
    drive(crashed.begin_resolve().unwrap());
    crashed.ingest(batches.second.0.clone(), batches.second.1.clone(), &[]).unwrap();
    drive_partially(crashed.begin_resolve().unwrap(), 2);
    drop(crashed);

    // Fresh process: re-ingest the same batches, resume, finish epoch 2.
    let mut resumed = ResolutionEngine::new(pipeline_config(), schema.clone(), schema).unwrap();
    ingest_all(&mut resumed, &batches);
    let session = resumed.resume(&path).unwrap().expect("epoch 2 is in flight on the log");
    let report = drive(session);
    assert!(report.used_warm_start, "resumed epoch must re-seed the committed warm start");
    assert_reports_equal("multi-epoch resume", &report, &reference_report);
    std::fs::remove_file(&path).unwrap();
}

/// Resuming against an engine that did not re-ingest the same batches is
/// refused: the log names the workload size it was written for.
#[test]
fn resume_against_a_different_workload_is_refused() {
    let batches = batches(120, 43);
    let path = temp_path("wrong-workload");
    let schema = BibliographicGenerator::schema();

    let mut engine =
        ResolutionEngine::new(pipeline_config(), schema.clone(), schema.clone()).unwrap();
    ingest_all(&mut engine, &batches);
    engine.attach_wal(&path).unwrap();
    drive_partially(engine.begin_resolve().unwrap(), 1);
    drop(engine);

    // Only the first batch re-ingested: the workload is smaller than the one
    // the in-flight epoch was begun over.
    let mut partial = ResolutionEngine::new(pipeline_config(), schema.clone(), schema).unwrap();
    partial.ingest(batches.first.0.clone(), batches.first.1.clone(), &batches.truth).unwrap();
    let err = partial.resume(&path).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("re-ingest"),
        "refusal should tell the operator to re-ingest the same batches: {message}"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A clone of an engine never inherits the WAL append handle: the log has
/// exactly one writer.
#[test]
fn cloned_engines_do_not_share_the_wal() {
    let path = temp_path("clone");
    let schema = BibliographicGenerator::schema();
    let mut engine = ResolutionEngine::new(pipeline_config(), schema.clone(), schema).unwrap();
    engine.attach_wal(&path).unwrap();
    assert!(engine.has_wal());
    let clone = engine.clone();
    assert!(!clone.has_wal(), "clone must not share the exclusive append handle");
    std::fs::remove_file(&path).unwrap();
}
