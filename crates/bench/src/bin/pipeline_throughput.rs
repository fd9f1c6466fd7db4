//! Streaming pipeline throughput: batch ingest → delta scoring → warm-started
//! re-resolution → entity clustering, end to end.
//!
//! The harness generates a bibliographic corpus, streams it into the
//! [`er_pipeline::ResolutionEngine`] in batches, and reports:
//!
//! 1. per-batch **ingest throughput** (delta candidates scored and merged per
//!    second);
//! 2. per-epoch **resolution cost and quality** (oracle queries, label
//!    round-trips — the number of `NeedLabels` batches the sans-I/O labeling
//!    session emitted, a latency proxy for crowdsourced dispatch — and
//!    pair-level plus cluster-level precision/recall);
//! 3. **incremental vs from-scratch**: oracle queries of the final warm
//!    re-resolution vs a cold from-scratch run over the same records;
//! 4. **warm vs cold planning** on the identical final workload with fresh
//!    oracles (isolates the warm-start sampling reuse);
//! 5. **session replay**: wall time of a full SAMP/HYBR labeling session with
//!    the replay cache vs the same session with the cache disabled (every
//!    step replays the whole labeling history), with the two arms asserted
//!    byte-identical;
//! 6. **parallel scoring speedup**: the worker pool vs a single thread over the
//!    full candidate set, plus the token-memo rates (pre-tokenized records,
//!    scorer bound to the memo) on one thread and on the pool.
//!
//! Environment knobs (see [`humo_bench::BenchConfig`]):
//!
//! * `HUMO_PIPE_ENTITIES` — corpus size in left-dataset entities (default 1500);
//! * `HUMO_PIPE_BATCHES`  — number of ingest batches (default 4);
//! * `HUMO_PIPE_THREADS`  — worker threads (default 0 = available parallelism);
//! * `HUMO_PIPE_ASSERT`   — when truthy, fail the process unless the
//!   pipeline meets its contract: warm planning issues fewer oracle queries
//!   than cold, incremental re-resolution is cheaper than from-scratch, the
//!   final epoch meets the quality requirement, HYBR's label round-trips
//!   scale with the subset count (never with the pair count), session replay
//!   is at least 2× faster with the replay cache (the median over
//!   alternating cached/uncached pairs), an enabled metrics
//!   recorder keeps at least 90% of the no-op recorder's ingest throughput
//!   (the median over alternating no-op/enabled pairs), and (on machines with
//!   ≥ 2 cores) parallel scoring is at least 1.5× the single-thread rate (the
//!   median over alternating single/pool pairs);
//! * `HUMO_PIPE_SPILL_BUDGET` — when > 0, switch to the **out-of-core mode**:
//!   stream the corpus into two engines — unbounded vs a memory budget of
//!   this many resident workload pairs (and as many resident postings) — and
//!   assert the budgeted run stays within budget, spills at both layers, and
//!   produces a byte-identical workload and resolution. The full benchmark
//!   suite is skipped in this mode.
//!
//! `--json <path>` (or `HUMO_BENCH_JSON`) writes the machine-readable
//! `BENCH_pipeline.json` document; `--baseline <path>` (or
//! `HUMO_BENCH_BASELINE`) diffs the fresh document against a committed
//! baseline and exits non-zero on regression (see `humo_bench::trajectory`).

use er_core::aggregate::{
    AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig, TokenCache,
};
use er_core::blocking::{Candidate, TokenBlocker};
use er_core::record::{Record, RecordId};
use er_core::similarity::StringMeasure;
use er_core::spill::MemoryBudget;
use er_core::text::Tokenizer;
use er_core::workload::Workload;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator, GeneratedCorpus};
use er_obs::{MetricsRecorder, ObsHandle};
use er_pipeline::{PipelineConfig, ResolutionEngine, WorkerPool};
use humo::{
    GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome, Oracle,
    QualityRequirement, SessionConfig, Step,
};
use humo_bench::trajectory::emit_and_gate;
use humo_bench::{BenchConfig, Json, KnobError};
use std::sync::Arc;
use std::time::Instant;

fn chunks<T: Clone>(items: &[T], batches: usize) -> Vec<Vec<T>> {
    let size = items.len().div_ceil(batches.max(1)).max(1);
    items.chunks(size).map(<[T]>::to_vec).collect()
}

fn scoring_config() -> ScoringConfig {
    ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::Uniform,
    )
}

fn pipeline_config(threads: usize, warm_start: bool) -> PipelineConfig {
    let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
    let mut config = PipelineConfig::new(scoring_config(), "title", requirement);
    // With uniform weights over three attributes, unrelated pairs score ~0.25
    // (venue Jaro-Winkler alone contributes ~0.5): 0.4 is the threshold that
    // actually separates candidate junk from plausible matches on this corpus.
    config.similarity_threshold = 0.4;
    config.optimizer.unit_size = 100;
    config.threads = threads;
    config.warm_start = warm_start;
    config
}

/// One session-replay arm: a session's outcome, its round count and the arm's
/// median session-replay wall time over its runs.
type ReplayArm = (OptimizationOutcome, usize, f64);

/// Drives one fresh session to completion and reports its outcome, its round
/// count and its session-replay wall time.
///
/// "Session-replay wall time" is the time spent inside
/// [`humo::LabelingSession::step`] — the framework's replay work between label
/// waves — and deliberately excludes the labeler's side of the loop (here a
/// [`humo::GroundTruthOracle`]
/// answering each batch): a real deployment pays human latency there, so the
/// quantity the replay cache can improve is exactly the in-step time.
fn time_session(workload: &Workload, mut session: LabelingSession<'_>) -> ReplayArm {
    let mut oracle = GroundTruthOracle::new();
    let mut responses = Vec::new();
    let mut in_step = 0.0;
    let outcome = loop {
        let start = Instant::now();
        let step = session.step(&responses).expect("session step succeeds");
        in_step += start.elapsed().as_secs_f64();
        match step {
            Step::Done(outcome) => break outcome,
            Step::NeedLabels(requests) => {
                responses = humo::answer_requests(workload, &requests, &mut oracle);
            }
        }
    };
    (outcome, session.rounds(), in_step)
}

/// Runs arms `a` and `b` back to back in pairs while `more` holds for the
/// pairs run so far, the arm that runs first alternating from pair to pair.
/// A change in host load reaches both arms of a pair, and the median of the
/// pair ratios drops the pairs it split; alternating the first arm cancels a
/// cost of running first or second (a warm allocator, a load trend) instead
/// of biasing the ratio. Returns the pairs in run order and their `ratio`s,
/// ascending.
fn alternating_pairs<A, B>(
    mut more: impl FnMut(&[(A, B)]) -> bool,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
    ratio: impl Fn(&A, &B) -> f64,
) -> (Vec<(A, B)>, Vec<f64>) {
    let mut pairs = Vec::new();
    while more(&pairs) {
        let pair = if pairs.len() % 2 == 0 {
            (a(), b())
        } else {
            let second = b();
            (a(), second)
        };
        pairs.push(pair);
    }
    let mut ratios: Vec<f64> = pairs.iter().map(|(x, y)| ratio(x, y)).collect();
    ratios.sort_by(f64::total_cmp);
    (pairs, ratios)
}

/// The session-replay speedup of `config` over [`REPLAY_PAIRS`] alternating
/// pairs of a session with the replay cache and the same session without it.
/// Returns the two arms, each with its median wall time, and the
/// pair ratios (uncached over cached), ascending. Every run is deterministic,
/// so each arm's first outcome stands for all of its runs.
fn replay_pairs(workload: &Workload, config: SessionConfig) -> (ReplayArm, ReplayArm, Vec<f64>) {
    let session = || LabelingSession::new(config, workload).expect("valid session");
    let (runs, ratios) = alternating_pairs(
        |runs| runs.len() < REPLAY_PAIRS,
        || time_session(workload, session()),
        || time_session(workload, session().with_replay_cache(false)),
        |cached, full| full.2 / cached.2.max(1e-9),
    );
    let median = |secs: Vec<f64>| er_stats::descriptive::median(&secs);
    let cached_secs = median(runs.iter().map(|(cached, _)| cached.2).collect());
    let full_secs = median(runs.iter().map(|(_, full)| full.2).collect());
    let ((cached, cached_rounds, _), (full, full_rounds, _)) =
        runs.into_iter().next().expect("at least one pair ran");
    ((cached, cached_rounds, cached_secs), (full, full_rounds, full_secs), ratios)
}

/// Asserts the two session-replay arms produced byte-identical results — the
/// replay cache is a pure performance optimization, never a behavioral one.
fn assert_arms_identical(name: &str, cached: &ReplayArm, full: &ReplayArm) {
    assert_eq!(
        cached.0.solution, full.0.solution,
        "{name}: cached and full-replay arms chose different solutions"
    );
    assert_eq!(
        cached.0.assignment, full.0.assignment,
        "{name}: cached and full-replay arms produced different label assignments"
    );
    assert_eq!(
        cached.0.total_human_cost, full.0.total_human_cost,
        "{name}: cached and full-replay arms cost different label counts"
    );
    assert_eq!(
        cached.1, full.1,
        "{name}: cached and full-replay arms took different numbers of label rounds"
    );
}

/// Ingest-only recorder overhead: the per-pair throughput ratios, ascending,
/// of an enabled [`er_obs::MetricsRecorder`] against the default no-op
/// recorder. Each repetition streams the corpus into a fresh engine; a pair
/// runs one rep of each arm, and pairs continue until there are at least
/// [`OVERHEAD_MIN_PAIRS`] and each arm has run [`OVERHEAD_MIN_ARM_SECS`].
/// The observability contract is that the median ratio stays ≥ 0.9:
/// instrumentation is batch-granular, so an enabled recorder may not cost
/// more than 10% of ingest throughput.
///
/// Beside the ratios it returns, when `/proc/self/stat` is readable, each
/// arm's total process CPU seconds and the median per-pair CPU ratio, which
/// tell recorder cost apart from time the host took away.
fn ingest_overhead_ratios(
    corpus: &GeneratedCorpus,
    truth: &[(RecordId, RecordId)],
    threads: usize,
    batches: usize,
) -> (Vec<f64>, Option<(f64, f64, f64)>) {
    let schema = BibliographicGenerator::schema();
    let left_batches: Vec<Vec<Record>> = chunks(corpus.left.records(), batches);
    let right_batches: Vec<Vec<Record>> = chunks(corpus.right.records(), batches);
    // One rep's wall seconds and, where readable, process CPU seconds.
    type Rep = (f64, Option<f64>);
    let time_rep = |recorder: ObsHandle| -> Rep {
        let mut config = pipeline_config(threads, true);
        config.recorder = recorder;
        let mut engine = ResolutionEngine::new(config, schema.clone(), schema.clone())
            .expect("valid pipeline config");
        let cpu_start = process_cpu_secs();
        let start = Instant::now();
        for epoch in 0..left_batches.len().max(right_batches.len()) {
            let l = left_batches.get(epoch).cloned().unwrap_or_default();
            let r = right_batches.get(epoch).cloned().unwrap_or_default();
            let edges = if epoch == 0 { truth } else { &[] };
            engine.ingest(l, r, edges).expect("ingest succeeds");
        }
        let wall = start.elapsed().as_secs_f64();
        (wall, cpu_start.zip(process_cpu_secs()).map(|(from, to)| to - from))
    };
    let (pairs, ratios) = alternating_pairs(
        |pairs: &[(Rep, Rep)]| {
            let (noop, enabled) =
                pairs.iter().fold((0.0f64, 0.0f64), |(n, e), (pn, pe)| (n + pn.0, e + pe.0));
            pairs.len() < OVERHEAD_MIN_PAIRS || noop.min(enabled) < OVERHEAD_MIN_ARM_SECS
        },
        || time_rep(ObsHandle::noop()),
        || time_rep(ObsHandle::new(Arc::new(MetricsRecorder::new()))),
        |noop, enabled| noop.0 / enabled.0.max(1e-9),
    );
    let cpu_secs: Option<Vec<(f64, f64)>> =
        pairs.iter().map(|(noop, enabled)| noop.1.zip(enabled.1)).collect();
    let cpu = cpu_secs.map(|pairs| {
        let (noop, enabled) = pairs.iter().fold((0.0, 0.0), |(n, e), &(pn, pe)| (n + pn, e + pe));
        let pair_ratios: Vec<f64> = pairs.iter().map(|&(n, e)| n / e.max(1e-9)).collect();
        (noop, enabled, er_stats::descriptive::median(&pair_ratios))
    });
    (ratios, cpu)
}

/// CPU seconds this process has used so far: `utime` + `stime` from
/// `/proc/self/stat`, which include the time of threads that have exited
/// (pool workers). `None` where that file is unavailable. The fields count
/// clock ticks of `USER_HZ`, which is 100 on every Linux ABI.
fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `utime` and `stime` are fields 14 and 15; the command name (field 2)
    // may contain spaces, so count from the `)` that closes it.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Cached/uncached pairs each session-replay median is taken over.
const REPLAY_PAIRS: usize = 9;
/// Single-thread/pool pairs the parallel-scoring median is taken over.
const SCALING_PAIRS: usize = 9;
/// Fewest no-op/enabled pairs the recorder-overhead median is taken over.
const OVERHEAD_MIN_PAIRS: usize = 9;
/// Fewest seconds of ingest each recorder-overhead arm runs.
const OVERHEAD_MIN_ARM_SECS: f64 = 3.0;

/// Resident set size in kibibytes from `/proc/self/status`, if available.
/// Purely informational: RSS includes allocator slack and depends on the
/// kernel, so the out-of-core contract is asserted on the engine's own
/// resident-pair accounting instead.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The out-of-core mode (`HUMO_PIPE_SPILL_BUDGET` > 0): stream the corpus into
/// an unbounded engine and a budgeted one, assert the budgeted run stays
/// within its resident-pair budget, spills at both the posting-list and the
/// workload layer, and resolves byte-identically to the in-memory run.
fn run_out_of_core(
    corpus: &GeneratedCorpus,
    truth: &[(RecordId, RecordId)],
    threads: usize,
    batches: usize,
    spill_budget: usize,
) {
    println!("-- out-of-core mode: {spill_budget} resident pairs/postings budget --");
    let schema = BibliographicGenerator::schema();
    let mut in_memory =
        ResolutionEngine::new(pipeline_config(threads, true), schema.clone(), schema.clone())
            .expect("valid pipeline config");
    let mut config = pipeline_config(threads, true);
    config.memory_budget = MemoryBudget::bounded(spill_budget, spill_budget);
    let mut budgeted =
        ResolutionEngine::new(config, schema.clone(), schema).expect("valid pipeline config");

    let left_batches: Vec<Vec<Record>> = chunks(corpus.left.records(), batches);
    let right_batches: Vec<Vec<Record>> = chunks(corpus.right.records(), batches);
    let mut total_delta = 0usize;
    let mut budgeted_secs = 0.0f64;
    for epoch in 0..left_batches.len().max(right_batches.len()) {
        let l = left_batches.get(epoch).cloned().unwrap_or_default();
        let r = right_batches.get(epoch).cloned().unwrap_or_default();
        let edges = if epoch == 0 { truth } else { &[] };
        let a = in_memory.ingest(l.clone(), r.clone(), edges).expect("ingest succeeds");
        let start = Instant::now();
        let b = budgeted.ingest(l, r, edges).expect("ingest succeeds");
        budgeted_secs += start.elapsed().as_secs_f64();
        assert_eq!(a.delta_candidates, b.delta_candidates, "epoch {epoch} candidates diverged");
        assert_eq!(a.retained_pairs, b.retained_pairs, "epoch {epoch} retained pairs diverged");
        assert!(
            b.resident_pairs <= spill_budget,
            "epoch {epoch}: {} resident pairs exceed the {spill_budget} budget",
            b.resident_pairs
        );
        total_delta += b.delta_candidates;
        println!(
            "epoch {epoch}: {} delta candidates, workload {} = {} resident + {} spilled",
            b.delta_candidates, b.workload_len, b.resident_pairs, b.spilled_pairs
        );
    }
    assert!(budgeted.workload().spilled_pairs() > 0, "workload spill never engaged");
    assert!(
        budgeted.blocking_index().spilled_generations() > 0,
        "posting spill never engaged — lower the budget or grow the corpus"
    );
    assert_eq!(in_memory.workload().spilled_pairs(), 0);

    // Byte-identity, pair by pair.
    assert_eq!(in_memory.workload().len(), budgeted.workload().len());
    for (a, b) in in_memory.workload().iter().zip(budgeted.workload().iter()) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.left(), b.left());
        assert_eq!(a.right(), b.right());
        assert_eq!(a.similarity().to_bits(), b.similarity().to_bits(), "similarity bits diverged");
        assert_eq!(a.ground_truth(), b.ground_truth());
    }
    println!(
        "\nworkload: {} pairs ({} resident, {} spilled; {:.1} MiB on disk + {:.1} MiB postings), \
         byte-identical to in-memory",
        budgeted.workload().len(),
        budgeted.workload().resident_pairs(),
        budgeted.workload().spilled_pairs(),
        budgeted.workload().spilled_bytes() as f64 / (1024.0 * 1024.0),
        budgeted.blocking_index().spilled_bytes() as f64 / (1024.0 * 1024.0),
    );
    println!(
        "budgeted ingest: {total_delta} delta candidates in {budgeted_secs:.2} s \
         ({:.3e} pairs/s)",
        total_delta as f64 / budgeted_secs.max(1e-9)
    );
    if let Some(rss) = vm_rss_kib() {
        println!("VmRSS after ingest: {:.1} MiB (informational)", rss as f64 / 1024.0);
    }

    // Resolution over the spilled workload must be exactly the in-memory one.
    let mut oracle_a = GroundTruthOracle::new();
    let mut oracle_b = GroundTruthOracle::new();
    let a = in_memory.resolve(&mut oracle_a).expect("resolve succeeds");
    let b = budgeted.resolve(&mut oracle_b).expect("resolve succeeds");
    assert_eq!(a.outcome.solution, b.outcome.solution, "solutions diverged");
    assert_eq!(a.outcome.assignment, b.outcome.assignment, "assignments diverged");
    assert_eq!(a.outcome.metrics, b.outcome.metrics, "metrics diverged");
    assert_eq!(a.oracle_queries, b.oracle_queries, "oracle queries diverged");
    assert_eq!(a.entities, b.entities, "entities diverged");
    assert_eq!(a.cluster_metrics, b.cluster_metrics, "cluster metrics diverged");
    println!(
        "resolution: {} oracle queries, {} entity clusters, cluster F1 {:.3} \
         — byte-identical to in-memory",
        b.oracle_queries,
        b.entities.non_singleton_count(),
        b.cluster_metrics.f1()
    );
    println!("\n[out-of-core] all equivalence checks passed");
}

fn main() -> Result<(), KnobError> {
    let cfg = BenchConfig::from_env("HUMO_PIPE");
    let entities = cfg.usize("ENTITIES", 1_500)?;
    let batches = cfg.usize("BATCHES", 4)?;
    let threads = cfg.usize("THREADS", 0)?;
    let assert_mode = cfg.flag("ASSERT");
    let spill_budget = cfg.usize("SPILL_BUDGET", 0)?;

    println!("================================================================");
    println!("pipeline_throughput: streaming ingest -> resolve -> cluster");
    println!("entities = {entities}, batches = {batches}, threads = {threads} (0 = auto)");
    println!("================================================================");

    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: entities,
        duplicate_probability: 0.6,
        extra_right_entities: entities / 2,
        corruption: 0.35,
        seed: 42,
    })
    .generate();
    let truth: Vec<(RecordId, RecordId)> = corpus.ground_truth.iter().copied().collect();
    println!(
        "corpus: {} left records, {} right records, {} true duplicates\n",
        corpus.left.len(),
        corpus.right.len(),
        truth.len()
    );

    if spill_budget > 0 {
        run_out_of_core(&corpus, &truth, threads, batches, spill_budget);
        return Ok(());
    }

    let schema = BibliographicGenerator::schema();
    // The main engine runs with an enabled in-memory metrics recorder: epoch
    // ingest timing below reads the `pipeline.ingest` span totals from
    // snapshots instead of ad-hoc `Instant` bookkeeping, and the recorder's
    // counters are cross-checked against the engine's own reports.
    let metrics = Arc::new(MetricsRecorder::new());
    let mut main_config = pipeline_config(threads, true);
    main_config.recorder = ObsHandle::new(metrics.clone());
    let mut engine = ResolutionEngine::new(main_config, schema.clone(), schema.clone())
        .expect("valid pipeline config");
    let mut oracle = GroundTruthOracle::new();
    let left_batches: Vec<Vec<Record>> = chunks(corpus.left.records(), batches);
    let right_batches: Vec<Vec<Record>> = chunks(corpus.right.records(), batches);

    println!("-- streaming epochs (persistent oracle) --");
    println!(
        "{:<6} {:>10} {:>9} {:>9} {:>10} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "epoch",
        "delta",
        "kept",
        "workload",
        "pairs/s",
        "queries",
        "rounds",
        "pairP",
        "pairR",
        "cluP",
        "cluR"
    );
    let mut final_report = None;
    let mut total_delta = 0usize;
    let mut last_ingest_rate = 0.0f64;
    let mut total_ingest_secs = 0.0f64;
    for epoch in 0..left_batches.len().max(right_batches.len()) {
        let l = left_batches.get(epoch).cloned().unwrap_or_default();
        let r = right_batches.get(epoch).cloned().unwrap_or_default();
        let edges = if epoch == 0 { truth.as_slice() } else { &[] };
        let span_before = metrics.snapshot().span("pipeline.ingest").map_or(0.0, |s| s.total_secs);
        let ingest = engine.ingest(l, r, edges).expect("ingest succeeds");
        let ingest_secs =
            metrics.snapshot().span("pipeline.ingest").map_or(0.0, |s| s.total_secs) - span_before;
        let rate =
            if ingest_secs > 0.0 { ingest.delta_candidates as f64 / ingest_secs } else { 0.0 };
        total_delta += ingest.delta_candidates;
        last_ingest_rate = rate;
        total_ingest_secs += ingest_secs;
        let report = engine.resolve(&mut oracle).expect("resolve succeeds");
        println!(
            "{:<6} {:>10} {:>9} {:>9} {:>10.3e} {:>8} {:>7} {:>7.3} {:>7.3} {:>7.3} {:>7.3}{}",
            epoch,
            ingest.delta_candidates,
            ingest.retained_pairs,
            ingest.workload_len,
            rate,
            report.oracle_queries,
            report.label_rounds,
            report.outcome.metrics.precision(),
            report.outcome.metrics.recall(),
            report.cluster_metrics.precision(),
            report.cluster_metrics.recall(),
            if report.used_warm_start { "  (warm)" } else { "" },
        );
        final_report = Some(report);
    }
    let final_report = final_report.expect("at least one epoch ran");
    let incremental_final_queries = final_report.oracle_queries;
    // The recorder and the reports are two views of the same events: the
    // counter totals must agree with the per-epoch report sums exactly.
    let recorded_delta = metrics.snapshot().counter("ingest.delta_candidates") as usize;
    assert_eq!(recorded_delta, total_delta, "recorder delta-candidate total diverged from reports");
    assert_eq!(
        final_report.plan_rounds + final_report.refine_rounds,
        final_report.label_rounds,
        "per-phase round counts must sum to the label-round total"
    );
    println!(
        "\nfinal epoch label rounds: {} = {} plan + {} refine",
        final_report.label_rounds, final_report.plan_rounds, final_report.refine_rounds
    );

    // From-scratch baseline: one cold engine over all records, fresh oracle.
    let mut scratch =
        ResolutionEngine::new(pipeline_config(threads, false), schema.clone(), schema)
            .expect("valid pipeline config");
    let mut scratch_oracle = GroundTruthOracle::new();
    scratch
        .ingest(corpus.left.records().to_vec(), corpus.right.records().to_vec(), &truth)
        .expect("ingest succeeds");
    let scratch_report = scratch.resolve(&mut scratch_oracle).expect("resolve succeeds");
    println!("\n-- incremental re-resolution vs from-scratch --");
    println!(
        "final warm re-resolution: {incremental_final_queries} oracle queries \
         (entities: {} clusters, cluster F1 {:.3})",
        final_report.entities.non_singleton_count(),
        final_report.cluster_metrics.f1()
    );
    println!(
        "from-scratch cold run:    {} oracle queries (cluster F1 {:.3})",
        scratch_report.oracle_queries,
        scratch_report.cluster_metrics.f1()
    );

    // Warm vs cold planning on the identical final workload, fresh oracles.
    let samp = pipeline_config(threads, true).optimizer;
    let workload = scratch.workload();
    let mut cold_plan_oracle = GroundTruthOracle::new();
    samp.plan(workload, &mut cold_plan_oracle, None).expect("cold plan succeeds");
    let cold_plan_queries = cold_plan_oracle.labels_issued();
    let warm_state = engine.warm_state().cloned().unwrap_or_default();
    let mut warm_plan_oracle = GroundTruthOracle::new();
    samp.plan(workload, &mut warm_plan_oracle, Some(&warm_state)).expect("warm plan succeeds");
    let warm_plan_queries = warm_plan_oracle.labels_issued();
    let saving = if cold_plan_queries > 0 {
        100.0 * (cold_plan_queries as f64 - warm_plan_queries as f64) / cold_plan_queries as f64
    } else {
        0.0
    };
    println!("\n-- warm-started vs cold re-optimization (plan phase, fresh oracles) --");
    println!("cold plan:  {cold_plan_queries} oracle queries");
    println!("warm plan:  {warm_plan_queries} oracle queries ({saving:.1}% saved)");

    // Label round-trips: drive a HYBR labeling session over the final workload
    // and count NeedLabels batches. Each batch is one dispatch latency however
    // many pairs it contains, so round-trips — not pair counts — dominate the
    // wall-clock cost of crowdsourced labeling. The batches HYBR emits are
    // whole subset samples and whole subset probes, so the count must scale
    // with the number of subsets the search touches, never with the raw pair
    // count.
    let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
    let mut hybr_config = HybridConfig::new(requirement);
    hybr_config.sampling.unit_size = pipeline_config(threads, true).optimizer.unit_size;
    let mut hybr_session =
        LabelingSession::new(SessionConfig::Hybrid(hybr_config), workload).expect("valid session");
    let mut hybr_oracle = GroundTruthOracle::new();
    let hybr_outcome = hybr_session.drive(&mut hybr_oracle).expect("HYBR session completes");
    let unit = hybr_config.sampling.unit_size;
    let num_subsets = workload.partition(unit).map_or(1, |p| p.len());
    // SAMP's own sampling budget: at most `subset_budget(m).1` subsets are
    // ever sampled by the estimation phase.
    let (_, budget) = hybr_config.sampling.subset_budget(num_subsets);
    let dh_subsets = hybr_outcome.solution.human_region_size().div_ceil(unit);
    // One batch for the whole initial sample set, at most one per refinement
    // probe (bounded by the budget), one per boundary-growth iteration
    // (bounded by the DH subsets), plus start/verification slack.
    let round_bound = budget + dh_subsets + 4;
    let rounds = hybr_session.rounds();
    println!(
        "\n-- label round-trips (HYBR session, {} pairs, {num_subsets} subsets) --",
        workload.len()
    );
    println!(
        "{rounds} round-trips for {} labeled pairs ({:.1} pairs/round); \
         subset-scaling bound {round_bound} (budget {budget} + DH {dh_subsets} + 4)",
        hybr_oracle.labels_issued(),
        hybr_oracle.labels_issued() as f64 / rounds.max(1) as f64,
    );

    // Session replay: the same batched session driven to completion with the
    // replay cache and with it disabled (every step replays the entire
    // labeling history). The arms are byte-identical by construction; the
    // median ratio of their wall times over alternating pairs is the
    // committed, machine-independent perf-trajectory number.
    let (samp_cached, samp_full, samp_ratios) =
        replay_pairs(workload, SessionConfig::PartialSampling(samp));
    assert_arms_identical("SAMP", &samp_cached, &samp_full);
    let (hybr_cached, hybr_full, hybr_ratios) =
        replay_pairs(workload, SessionConfig::Hybrid(hybr_config));
    assert_arms_identical("HYBR", &hybr_cached, &hybr_full);
    let samp_speedup = er_stats::descriptive::median(&samp_ratios);
    let hybr_speedup = er_stats::descriptive::median(&hybr_ratios);
    println!(
        "\n-- session replay: replay cache vs full replay (cache disabled) \
         (medians of {} alternating pairs) --",
        samp_ratios.len()
    );
    for (name, cached, full, speedup, ratios) in [
        ("SAMP", &samp_cached, &samp_full, samp_speedup, &samp_ratios),
        ("HYBR", &hybr_cached, &hybr_full, hybr_speedup, &hybr_ratios),
    ] {
        println!(
            "{name}: cached {:.1} ms, full replay {:.1} ms ({speedup:.2}x, pair ratios \
             {:.2}..{:.2}) over {} rounds [outcomes byte-identical]",
            1e3 * cached.2,
            1e3 * full.2,
            ratios[0],
            ratios[ratios.len() - 1],
            cached.1
        );
    }

    // Parallel scoring speedup over the full candidate set.
    let blocker = TokenBlocker::new("title", Tokenizer::Words);
    let candidates = blocker.candidates(&corpus.left, &corpus.right).expect("blocking succeeds");
    let scorer =
        PairScorer::new(&scoring_config(), &[&corpus.left, &corpus.right]).expect("valid scorer");
    let time_scoring = |pool: &WorkerPool| -> f64 {
        let start = Instant::now();
        let sims = pool
            .score_pairs(&corpus.left, &corpus.right, &scorer, &candidates)
            .expect("scoring succeeds");
        assert_eq!(sims.len(), candidates.len());
        start.elapsed().as_secs_f64()
    };
    let single = WorkerPool::new(1);
    let pool = WorkerPool::new(threads);
    // Single/pool pairs; the rates report each arm's best.
    let (scaling_runs, scaling_ratios) = alternating_pairs(
        |runs| runs.len() < SCALING_PAIRS,
        || time_scoring(&single),
        || time_scoring(&pool),
        |one, many| one / many.max(1e-9),
    );
    let t1 = scaling_runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let tn = scaling_runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let speedup = er_stats::descriptive::median(&scaling_ratios);
    println!("\n-- parallel scoring ({} candidate pairs) --", candidates.len());
    println!("1 thread : {:.1} ms ({:.3e} pairs/s)", 1e3 * t1, candidates.len() as f64 / t1);
    println!(
        "{} threads: {:.1} ms ({:.3e} pairs/s)  speedup {speedup:.2}x (median of {} \
         alternating pairs, pair ratios {:.2}..{:.2})",
        pool.threads(),
        1e3 * tn,
        candidates.len() as f64 / tn,
        scaling_ratios.len(),
        scaling_ratios[0],
        scaling_ratios[scaling_ratios.len() - 1]
    );

    // Token-memo scoring: the same passes over the blocker's counted
    // candidates, with every record's distinct token ids pre-admitted (the
    // engine's steady state — records are admitted once, at ingest) and the
    // scorer bound to the memo once per pass. Bit-identical by contract,
    // faster because the Jaccard attributes skip re-tokenizing and the
    // record lookups: the title (the blocking attribute) is scored from each
    // candidate's shared-token count, the authors merge two short id sets.
    // The venue attribute (Jaro-Winkler) is still evaluated on the records.
    // The single-thread rate isolates the memo from the core count.
    let mut token_cache = TokenCache::new();
    token_cache.admit_scoring(&scoring_config(), corpus.left.records(), corpus.right.records());
    let counted = blocker
        .incremental()
        .add_records(corpus.left.records(), corpus.right.records(), &mut token_cache)
        .expect("blocking succeeds");
    assert!(
        counted.iter().map(Candidate::pair).eq(candidates.iter().copied()),
        "counted candidates must be the blocker's candidates"
    );
    let reference =
        pool.score_pairs(&corpus.left, &corpus.right, &scorer, &candidates).expect("scoring");
    let time_cached_scoring = |pool: &WorkerPool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let sims = pool
                .score_pairs_cached(
                    &corpus.left,
                    &corpus.right,
                    &scorer,
                    &token_cache,
                    &blocker,
                    &counted,
                )
                .expect("cached scoring succeeds");
            best = best.min(start.elapsed().as_secs_f64());
            assert!(
                reference.iter().zip(&sims).all(|(a, b)| a.to_bits() == b.to_bits()),
                "cached scoring must be bit-identical to uncached scoring"
            );
        }
        best
    };
    let tc1 = time_cached_scoring(&single);
    let tc = time_cached_scoring(&pool);
    let cache_scaling = tn / tc.max(1e-9);
    println!(
        "token memo, 1 thread : {:.1} ms ({:.3e} pairs/s)  {:.2}x vs uncached [bit-identical]",
        1e3 * tc1,
        candidates.len() as f64 / tc1,
        t1 / tc1.max(1e-9)
    );
    println!(
        "token memo, {} threads: {:.1} ms ({:.3e} pairs/s)  {cache_scaling:.2}x vs uncached \
         [bit-identical]",
        pool.threads(),
        1e3 * tc,
        candidates.len() as f64 / tc
    );

    // Recorder overhead: re-stream the corpus into two fresh engines (no-op
    // recorder vs enabled metrics recorder) and compare ingest throughput.
    let (overhead_ratios, overhead_cpu) = ingest_overhead_ratios(&corpus, &truth, threads, batches);
    let overhead_ratio = er_stats::descriptive::median(&overhead_ratios);
    println!(
        "\n-- recorder overhead (ingest-only, median of {} alternating pairs) --",
        overhead_ratios.len()
    );
    println!(
        "enabled-recorder ingest throughput is {:.1}% of the no-op recorder's \
         (pair ratios {:.3}..{:.3})",
        100.0 * overhead_ratio,
        overhead_ratios[0],
        overhead_ratios[overhead_ratios.len() - 1]
    );
    if let Some((noop_cpu, enabled_cpu, cpu_ratio)) = overhead_cpu {
        println!(
            "process CPU time: no-op {noop_cpu:.2} s, enabled {enabled_cpu:.2} s; \
             median pair CPU ratio {cpu_ratio:.3} (wall {overhead_ratio:.3})"
        );
    }

    // Machine-readable perf-trajectory document. Key naming drives the
    // regression policy (see humo_bench::trajectory): `_queries`/`_rounds`/
    // `_count` fail on any increase, `_speedup` fails on a >25% drop, `_ms`/
    // `_per_s` are informational. The scoring scaling deliberately avoids the
    // `_speedup` suffix: it depends on the machine's core count.
    let doc = Json::obj([
        ("schema", Json::str("humo-bench-pipeline/v1")),
        (
            "scale",
            Json::obj([
                ("entities", Json::num(entities as f64)),
                ("batches", Json::num(batches as f64)),
            ]),
        ),
        (
            "corpus",
            Json::obj([
                ("left_records", Json::num(corpus.left.len() as f64)),
                ("right_records", Json::num(corpus.right.len() as f64)),
                ("true_duplicates", Json::num(truth.len() as f64)),
            ]),
        ),
        (
            "ingest",
            Json::obj([
                ("total_delta_candidates", Json::num(total_delta as f64)),
                ("last_epoch_pairs_per_s", Json::num(last_ingest_rate)),
                ("pairs_per_s", Json::num(total_delta as f64 / total_ingest_secs.max(1e-9))),
            ]),
        ),
        (
            "resolution",
            Json::obj([
                ("final_epoch_queries", Json::num(incremental_final_queries as f64)),
                ("scratch_queries", Json::num(scratch_report.oracle_queries as f64)),
                ("final_epoch_label_rounds", Json::num(final_report.label_rounds as f64)),
                ("warm_plan_queries", Json::num(warm_plan_queries as f64)),
                ("cold_plan_queries", Json::num(cold_plan_queries as f64)),
            ]),
        ),
        (
            "hybr",
            Json::obj([
                ("label_rounds", Json::num(rounds as f64)),
                ("round_bound", Json::num(round_bound as f64)),
                ("labeled_pairs", Json::num(hybr_oracle.labels_issued() as f64)),
            ]),
        ),
        // `*_incremental_ms` is the cached arm, `*_full_ms` the full replay.
        (
            "session_replay",
            Json::obj([
                ("samp_rounds", Json::num(samp_cached.1 as f64)),
                ("samp_incremental_ms", Json::num(1e3 * samp_cached.2)),
                ("samp_full_ms", Json::num(1e3 * samp_full.2)),
                ("samp_speedup", Json::num(samp_speedup)),
                ("hybr_rounds", Json::num(hybr_cached.1 as f64)),
                ("hybr_incremental_ms", Json::num(1e3 * hybr_cached.2)),
                ("hybr_full_ms", Json::num(1e3 * hybr_full.2)),
                ("hybr_speedup", Json::num(hybr_speedup)),
            ]),
        ),
        ("obs", Json::obj([("ingest_overhead_ratio", Json::num(overhead_ratio))])),
        (
            "scoring",
            Json::obj([
                ("candidate_pairs", Json::num(candidates.len() as f64)),
                ("single_thread_pairs_per_s", Json::num(candidates.len() as f64 / t1.max(1e-9))),
                ("parallel_pairs_per_s", Json::num(candidates.len() as f64 / tn.max(1e-9))),
                ("parallel_scaling", Json::num(speedup)),
                (
                    "token_cache_single_thread_pairs_per_s",
                    Json::num(candidates.len() as f64 / tc1.max(1e-9)),
                ),
                ("token_cache_pairs_per_s", Json::num(candidates.len() as f64 / tc.max(1e-9))),
                ("token_cache_scaling", Json::num(cache_scaling)),
            ]),
        ),
    ]);
    let gate_passed = emit_and_gate(
        &doc,
        &cfg,
        &[
            "resolution.final_epoch_queries",
            "resolution.scratch_queries",
            "resolution.warm_plan_queries",
            "resolution.cold_plan_queries",
            "hybr.label_rounds",
            "session_replay.samp_speedup",
            "session_replay.hybr_speedup",
            "ingest.last_epoch_pairs_per_s",
            "ingest.pairs_per_s",
        ],
    );

    if assert_mode {
        let requirement = QualityRequirement::symmetric(0.9).expect("valid requirement");
        assert!(
            warm_plan_queries < cold_plan_queries,
            "warm planning must issue fewer oracle queries than cold \
             ({warm_plan_queries} vs {cold_plan_queries})"
        );
        assert!(
            incremental_final_queries < scratch_report.oracle_queries,
            "incremental re-resolution must be cheaper than from-scratch \
             ({incremental_final_queries} vs {})",
            scratch_report.oracle_queries
        );
        assert!(
            requirement.is_satisfied_by(&final_report.outcome.metrics),
            "final epoch must meet {requirement}: precision {:.3}, recall {:.3}",
            final_report.outcome.metrics.precision(),
            final_report.outcome.metrics.recall()
        );
        assert!(
            rounds <= round_bound,
            "HYBR label round-trips ({rounds}) must scale with the subset count \
             (bound {round_bound} = budget {budget} + DH subsets {dh_subsets} + 4, \
             with {num_subsets} subsets total), not the pair count ({})",
            workload.len()
        );
        assert!(
            overhead_ratio >= 0.9,
            "enabled-recorder ingest throughput must stay within 10% of the no-op \
             recorder's (ratio {overhead_ratio:.3})"
        );
        assert!(
            samp_speedup >= 2.0 && hybr_speedup >= 2.0,
            "session replay must be at least 2x faster with the replay cache \
             (SAMP {samp_speedup:.2}x, HYBR {hybr_speedup:.2}x)"
        );
        if pool.threads() >= 2 {
            assert!(
                speedup >= 1.5,
                "parallel scoring speedup {speedup:.2}x below the 1.5x floor on \
                 {} threads",
                pool.threads()
            );
        } else {
            println!("\n[assert] single-core machine: speedup floor not applicable");
        }
        println!("\n[assert] all pipeline contract checks passed");
    }
    if !gate_passed {
        std::process::exit(1);
    }
    Ok(())
}
