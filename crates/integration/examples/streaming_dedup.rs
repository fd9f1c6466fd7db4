//! Streaming deduplication end to end: records arrive in batches, the pipeline
//! keeps the candidate index, workload and entities up to date.
//!
//! Run with:
//! ```text
//! cargo run --release -p integration --example streaming_dedup
//! ```
//!
//! This is the streaming counterpart of `bibliographic_dedup`: the same
//! DBLP-Scholar-style linkage task, but the two corpora arrive in three batches
//! instead of all at once. Each batch is folded into the incremental blocking
//! index, only the *delta* candidate pairs are scored (in parallel), and the
//! similarity-sorted workload is maintained by merge insertion. After each
//! batch the engine re-resolves: the HUMO optimizer is warm-started from the
//! previous epoch's samples, the human labels the (small) uncertain region, and
//! match-labeled pairs are transitively closed into entities.
//!
//! Observability knobs (`HUMO_OBS` is case-insensitive; unset, empty or
//! `off` runs on the no-op recorder, and any other value warns on stderr and
//! runs on it too):
//!
//! * `HUMO_OBS=metrics` — attach an in-memory metrics recorder and print a
//!   counter/span summary at the end;
//! * `HUMO_OBS=trace` — stream every pipeline event to a JSONL trace file
//!   (`HUMO_OBS_PATH`, default `humo-trace.jsonl`) that
//!   `cargo run -p bench --bin trace_check` can validate;
//! * `HUMO_DEMO_SPILL_PAIRS=<n>` — cap resident workload pairs and postings
//!   at `n` so the out-of-core spill layer engages (and shows up in the
//!   trace) even on this small demo corpus.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, ScoringConfig};
use er_core::record::{Record, RecordId};
use er_core::similarity::StringMeasure;
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use er_obs::{MetricsRecorder, ObsHandle, TraceRecorder};
use er_pipeline::{PipelineConfig, ResolutionEngine};
use humo::{GroundTruthOracle, Oracle, QualityRequirement};
use std::sync::Arc;

fn batches_of<T: Clone>(items: &[T], count: usize) -> Vec<Vec<T>> {
    let size = items.len().div_ceil(count.max(1)).max(1);
    items.chunks(size).map(<[T]>::to_vec).collect()
}

/// The recorder `HUMO_OBS` asked for, with typed access to its concrete form.
struct Obs {
    handle: ObsHandle,
    metrics: Option<Arc<MetricsRecorder>>,
    trace: Option<(Arc<TraceRecorder>, String)>,
}

/// Reads `HUMO_OBS` / `HUMO_OBS_PATH` and builds the recorder they describe.
fn obs_from_env() -> Obs {
    let raw = std::env::var("HUMO_OBS").unwrap_or_default();
    let off = Obs { handle: ObsHandle::noop(), metrics: None, trace: None };
    match raw.to_ascii_lowercase().as_str() {
        "metrics" => {
            let metrics = Arc::new(MetricsRecorder::new());
            Obs { handle: ObsHandle::new(metrics.clone()), metrics: Some(metrics), trace: None }
        }
        "trace" => {
            let path = std::env::var("HUMO_OBS_PATH")
                .ok()
                .filter(|p| !p.is_empty())
                .unwrap_or_else(|| "humo-trace.jsonl".to_string());
            let trace = Arc::new(TraceRecorder::to_file(&path).expect("trace file opens"));
            Obs { handle: ObsHandle::new(trace.clone()), metrics: None, trace: Some((trace, path)) }
        }
        "off" => off,
        // A non-empty unrecognized value is most likely a typo: say what was
        // seen and what works instead of silently running untraced.
        _ if raw.trim().is_empty() => off,
        _ => {
            eprintln!(
                "HUMO_OBS: unrecognized value {raw:?} \
                 (accepted: \"off\", \"metrics\", \"trace\"); observability stays off"
            );
            off
        }
    }
}

fn main() {
    // A bibliographic corpus: a curated dataset, a noisy dataset, and the
    // ground-truth duplicates between them.
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: 600,
        duplicate_probability: 0.6,
        extra_right_entities: 300,
        corruption: 0.3,
        seed: 9,
    })
    .generate();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    println!(
        "corpus: {} + {} records, {} true duplicates, arriving in 3 batches\n",
        corpus.left.len(),
        corpus.right.len(),
        truth.len()
    );

    // The pipeline: token blocking on titles, uniform attribute-weighted
    // scoring, a 0.9/0.9 quality requirement at 90% confidence, warm-started
    // re-optimization.
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

    // Observability: HUMO_OBS=off|metrics|trace selects the recorder; the
    // default no-op handle keeps the run byte-identical and overhead-free.
    let obs = obs_from_env();
    config.recorder = obs.handle.clone();

    // HUMO_DEMO_SPILL_PAIRS caps residency so the spill layer engages on this
    // small corpus — resolution results are byte-identical either way.
    let spill_pairs: usize =
        std::env::var("HUMO_DEMO_SPILL_PAIRS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    if spill_pairs > 0 {
        config.memory_budget = MemoryBudget::bounded(spill_pairs, spill_pairs);
        println!("out-of-core: residency capped at {spill_pairs} pairs/postings\n");
    }

    let schema = BibliographicGenerator::schema();
    let mut engine =
        ResolutionEngine::new(config, schema.clone(), schema).expect("valid pipeline config");

    // One human oracle across the whole stream: pairs labeled in an earlier
    // epoch stay labeled, so re-resolution only pays for new questions.
    let mut oracle = GroundTruthOracle::new();

    let left_batches: Vec<Vec<Record>> = batches_of(corpus.left.records(), 3);
    let right_batches: Vec<Vec<Record>> = batches_of(corpus.right.records(), 3);
    for epoch in 0..3usize {
        let left = left_batches.get(epoch).cloned().unwrap_or_default();
        let right = right_batches.get(epoch).cloned().unwrap_or_default();
        // Ground-truth edges ride along with the first batch; labels attach to a
        // pair when both of its records have arrived.
        let edges = if epoch == 0 { truth.as_slice() } else { &[] };
        let ingest = engine.ingest(left, right, edges).expect("ingest succeeds");
        println!(
            "epoch {epoch}: +{} records -> {} delta candidates, {} kept, workload {}",
            ingest.left_records + ingest.right_records,
            ingest.delta_candidates,
            ingest.retained_pairs,
            ingest.workload_len,
        );
        let report = engine.resolve(&mut oracle).expect("resolve succeeds");
        println!(
            "         resolve{}: {} oracle queries | pairs P={:.3} R={:.3} | \
             entities: {} merged clusters, cluster P={:.3} R={:.3} F1={:.3}",
            if report.used_warm_start { " (warm)" } else { "" },
            report.oracle_queries,
            report.outcome.metrics.precision(),
            report.outcome.metrics.recall(),
            report.entities.non_singleton_count(),
            report.cluster_metrics.precision(),
            report.cluster_metrics.recall(),
            report.cluster_metrics.f1(),
        );
    }

    println!(
        "\ntotal human cost for the whole stream: {} labels ({:.1}% of the final workload)",
        oracle.labels_issued(),
        100.0 * oracle.labels_issued() as f64 / engine.workload().len().max(1) as f64
    );
    let spill = engine.spill_report();
    if spill.segments_spilled > 0 || spill.posting_generations_spilled > 0 {
        println!(
            "spill: {} workload segments out ({} B), {} loads back ({} B), \
             cache hit rate {:.2}, {} posting generations ({} B)",
            spill.segments_spilled,
            spill.bytes_spilled,
            spill.segments_loaded,
            spill.bytes_loaded,
            spill.cache_hit_rate(),
            spill.posting_generations_spilled,
            spill.posting_bytes_spilled,
        );
    }

    if let Some(metrics) = &obs.metrics {
        let snap = metrics.snapshot();
        println!(
            "\nobs summary: {} ingest spans totaling {:.1} ms, {} delta candidates, \
             {} label rounds ({} plan + {} refine), {} blocking postings",
            snap.span("pipeline.ingest").map_or(0, |s| s.count),
            1e3 * snap.span("pipeline.ingest").map_or(0.0, |s| s.total_secs),
            snap.counter("ingest.delta_candidates"),
            snap.counter("session.rounds"),
            snap.counter("session.rounds.plan"),
            snap.counter("session.rounds.refine"),
            snap.counter("blocking.postings"),
        );
    }
    if let Some((trace, path)) = &obs.trace {
        trace.flush();
        println!("\ntrace written to {path}");
    }
}
