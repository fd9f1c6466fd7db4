//! The observability layer is a pure observer: attaching an enabled recorder
//! (metrics or trace) must not change a single computed bit anywhere in the
//! pipeline, with or without the out-of-core spill layer engaged.
//!
//! Each test streams the same corpus through engines that differ only in
//! their [`er_obs::Recorder`] and asserts the ingest reports, resolution
//! reports and final workloads are byte-identical.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::{Record, RecordId};
use er_core::similarity::StringMeasure;
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator, GeneratedCorpus};
use er_obs::{MetricsRecorder, ObsHandle, TraceRecorder};
use er_pipeline::{IngestReport, PipelineConfig, ResolutionEngine, ResolutionReport};
use humo::{GroundTruthOracle, QualityRequirement};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BATCHES: usize = 2;

fn corpus() -> GeneratedCorpus {
    BibliographicGenerator::new(BibliographicConfig {
        num_entities: 250,
        duplicate_probability: 0.6,
        extra_right_entities: 120,
        corruption: 0.3,
        seed: 17,
    })
    .generate()
}

fn chunks<T: Clone>(items: &[T], batches: usize) -> Vec<Vec<T>> {
    let size = items.len().div_ceil(batches.max(1)).max(1);
    items.chunks(size).map(<[T]>::to_vec).collect()
}

fn config(recorder: ObsHandle, budget: Option<usize>) -> PipelineConfig {
    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::Uniform,
    );
    let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
    let mut config = PipelineConfig::new(scoring, "title", requirement);
    config.similarity_threshold = 0.4;
    config.optimizer.unit_size = 100;
    config.recorder = recorder;
    if let Some(pairs) = budget {
        config.memory_budget = MemoryBudget::bounded(pairs, pairs);
    }
    config
}

/// Streams the corpus through a fresh engine in `BATCHES` batches, resolving
/// after each, and returns the engine plus every report it produced.
fn run(
    recorder: ObsHandle,
    budget: Option<usize>,
) -> (ResolutionEngine, Vec<IngestReport>, Vec<ResolutionReport>) {
    let corpus = corpus();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    let schema = BibliographicGenerator::schema();
    let mut engine = ResolutionEngine::new(config(recorder, budget), schema.clone(), schema)
        .expect("valid pipeline config");
    let mut oracle = GroundTruthOracle::new();
    let left: Vec<Vec<Record>> = chunks(corpus.left.records(), BATCHES);
    let right: Vec<Vec<Record>> = chunks(corpus.right.records(), BATCHES);
    let mut ingests = Vec::new();
    let mut reports = Vec::new();
    for epoch in 0..BATCHES {
        let l = left.get(epoch).cloned().unwrap_or_default();
        let r = right.get(epoch).cloned().unwrap_or_default();
        let edges = if epoch == 0 { truth.as_slice() } else { &[] };
        ingests.push(engine.ingest(l, r, edges).expect("ingest succeeds"));
        reports.push(engine.resolve(&mut oracle).expect("resolve succeeds"));
    }
    (engine, ingests, reports)
}

/// Asserts two runs are byte-identical: every ingest report, every resolution
/// report, and every pair of the final workloads (similarity compared on bits).
fn assert_runs_identical(
    name: &str,
    a: &(ResolutionEngine, Vec<IngestReport>, Vec<ResolutionReport>),
    b: &(ResolutionEngine, Vec<IngestReport>, Vec<ResolutionReport>),
) {
    assert_eq!(a.1, b.1, "{name}: ingest reports diverged");
    assert_eq!(a.2.len(), b.2.len(), "{name}: epoch counts diverged");
    for (epoch, (ra, rb)) in a.2.iter().zip(&b.2).enumerate() {
        assert_eq!(ra.outcome.solution, rb.outcome.solution, "{name}: epoch {epoch} solution");
        assert_eq!(
            ra.outcome.assignment, rb.outcome.assignment,
            "{name}: epoch {epoch} assignment"
        );
        assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{name}: epoch {epoch} metrics");
        assert_eq!(ra.oracle_queries, rb.oracle_queries, "{name}: epoch {epoch} queries");
        assert_eq!(ra.label_rounds, rb.label_rounds, "{name}: epoch {epoch} rounds");
        assert_eq!(ra.plan_rounds, rb.plan_rounds, "{name}: epoch {epoch} plan rounds");
        assert_eq!(ra.refine_rounds, rb.refine_rounds, "{name}: epoch {epoch} refine rounds");
        assert_eq!(ra.entities, rb.entities, "{name}: epoch {epoch} entities");
        assert_eq!(ra.cluster_metrics, rb.cluster_metrics, "{name}: epoch {epoch} cluster metrics");
    }
    assert_eq!(a.0.workload().len(), b.0.workload().len(), "{name}: workload lengths diverged");
    for (pa, pb) in a.0.workload().iter().zip(b.0.workload().iter()) {
        assert_eq!(pa.id(), pb.id(), "{name}: pair ids diverged");
        assert_eq!(pa.left(), pb.left(), "{name}: left records diverged");
        assert_eq!(pa.right(), pb.right(), "{name}: right records diverged");
        assert_eq!(
            pa.similarity().to_bits(),
            pb.similarity().to_bits(),
            "{name}: similarity bits diverged"
        );
        assert_eq!(pa.ground_truth(), pb.ground_truth(), "{name}: ground truth diverged");
    }
}

#[test]
fn noop_and_metrics_recorders_agree_bit_for_bit() {
    let noop = run(ObsHandle::noop(), None);
    let metrics = Arc::new(MetricsRecorder::new());
    let recorded = run(ObsHandle::new(metrics.clone()), None);
    assert_runs_identical("in-memory", &noop, &recorded);
    // The comparison must not be vacuous: the enabled arm actually recorded.
    let snap = metrics.snapshot();
    assert!(snap.counter("ingest.delta_candidates") > 0, "no delta candidates recorded");
    assert!(snap.counter("session.rounds") > 0, "no session rounds recorded");
    assert_eq!(
        snap.span("pipeline.ingest").map_or(0, |s| s.count),
        BATCHES as u64,
        "one ingest span per batch"
    );
    assert_eq!(
        snap.counter("session.rounds"),
        snap.counter("session.rounds.plan") + snap.counter("session.rounds.refine"),
        "per-phase round counters must sum to the total"
    );
}

#[test]
fn recorders_are_inert_with_the_spill_layer_engaged() {
    let budget = Some(500);
    let noop = run(ObsHandle::noop(), budget);
    assert!(noop.0.workload().spilled_pairs() > 0, "budget too lax — spill never engaged");
    let metrics = Arc::new(MetricsRecorder::new());
    let recorded = run(ObsHandle::new(metrics.clone()), budget);
    assert_runs_identical("spilled", &noop, &recorded);
    let snap = metrics.snapshot();
    assert!(snap.counter("spill.workload.segments_spilled") > 0, "no spill events recorded");
}

#[test]
fn trace_recorder_is_inert_and_emits_a_schema_valid_trace() {
    let noop = run(ObsHandle::noop(), None);
    // PID plus a per-process counter: unique per call, so parallel test
    // processes and threads never collide.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("humo-inert-trace-{}-{n}.jsonl", std::process::id()));
    let trace = Arc::new(TraceRecorder::to_file(&path).expect("trace file opens"));
    let traced = run(ObsHandle::new(trace.clone()), None);
    assert_runs_identical("traced", &noop, &traced);
    trace.flush();
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let report = er_obs::validate_trace(&text);
    assert!(report.is_valid(), "trace schema violations: {:?}", report.violations);
    assert!(report.events > 0, "trace is empty");
    for prefix in ["pipeline.ingest", "ingest.score", "blocking.", "session.", "spill."] {
        assert!(report.covers(prefix), "trace has no `{prefix}*` events");
    }
    let _ = std::fs::remove_file(&path);
}
