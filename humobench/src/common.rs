//! What the workloads share: the per-iteration context, operation accounting,
//! the outcome summary and its digest, the simulated labelers, and timed
//! session steps.

use crate::reference;
use crate::trace::{Phase, Tracer};
use er_core::codec::fnv1a;
use er_core::record::RecordId;
use er_core::workload::{Label, QualityMetrics, Workload};
use er_obs::{MetricsRecorder, ObsHandle};
use er_pipeline::{
    EntityClusters, RecordKey, ResolutionEngine, ResolutionReport, ResolutionSession,
    ResolutionStep, Side,
};
use humo::{
    LabelRequest, LabelResponse, LabelingSession, OptimizationOutcome, QualityRequirement,
    SessionPhase, Step,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How often a run times the reference task, in seconds of wall time.
const REFERENCE_INTERVAL_S: f64 = 0.25;

/// Attempted and failed operations, by kind.
#[derive(Debug, Default)]
pub struct Ops {
    kinds: BTreeMap<&'static str, (u64, u64)>,
    failures: Vec<String>,
}

impl Ops {
    /// Counts one operation of `kind`, and a failure when it returned an error.
    pub fn record<T, E: Display>(
        &mut self,
        kind: &'static str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        let entry = self.kinds.entry(kind).or_default();
        entry.0 += 1;
        result.map_err(|e| {
            entry.1 += 1;
            let message = format!("{kind} failed: {e}");
            self.failures.push(message.clone());
            message
        })
    }

    /// Counts `n` operations of `kind` that all succeeded.
    pub fn succeeded(&mut self, kind: &'static str, n: u64) {
        self.kinds.entry(kind).or_default().0 += n;
    }

    /// Counts one correctness check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        let entry = self.kinds.entry("check").or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            self.failures.push(format!("check failed: {what}"));
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|&(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|&(_, f)| f).sum()
    }

    /// Folds another context's counts into these.
    pub fn merge(&mut self, other: Ops) {
        for (kind, (attempted, failed)) in other.kinds {
            let entry = self.kinds.entry(kind).or_default();
            entry.0 += attempted;
            entry.1 += failed;
        }
        self.failures.extend(other.failures);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn render(&self) -> String {
        let mut out = String::from("operations (attempted / failed):");
        for (kind, (attempted, failed)) in &self.kinds {
            out.push_str(&format!(" {kind} {attempted}/{failed};"));
        }
        out
    }
}

/// Everything one iteration writes to while it runs.
#[derive(Debug)]
pub struct Ctx {
    pub tracer: Tracer,
    pub ops: Ops,
    /// The metrics recorder attached to the program while tracing.
    pub recorder: Option<Arc<MetricsRecorder>>,
    /// Scoring threads handed to every engine.
    pub threads: usize,
    /// Time inside the run window spent on benchmark bookkeeping, left out of
    /// `run_s`.
    pub excluded_s: f64,
    /// Turn latencies of this iteration, in milliseconds.
    pub turns_ms: Vec<f64>,
    /// Per-iteration counts the per-layer metrics are built from.
    pub counts: BTreeMap<&'static str, f64>,
    /// When the run committed its last outcome; the run window ends here.
    pub committed_at: Option<Instant>,
    /// The reference task's times measured during this iteration.
    pub reference_s: Vec<f64>,
    /// When the reference task last ran.
    last_reference: Instant,
}

impl Ctx {
    pub fn new(trace: bool, threads: usize) -> Self {
        Self {
            tracer: Tracer::new(trace),
            ops: Ops::default(),
            recorder: None,
            threads,
            excluded_s: 0.0,
            turns_ms: Vec::new(),
            counts: BTreeMap::new(),
            committed_at: None,
            reference_s: Vec::new(),
            last_reference: Instant::now(),
        }
    }

    /// Times the reference task now.
    pub fn measure_reference(&mut self) {
        self.reference_s.push(reference::measure());
        self.last_reference = Instant::now();
    }

    /// Times the reference task when [`REFERENCE_INTERVAL_S`] have passed
    /// since it last ran, leaving its time out of `run_s`. Workloads call
    /// this between turns, so no turn contains it.
    pub fn between_turns(&mut self) {
        if self.last_reference.elapsed().as_secs_f64() >= REFERENCE_INTERVAL_S {
            let start = Instant::now();
            self.measure_reference();
            self.excluded_s += start.elapsed().as_secs_f64();
        }
    }

    /// Marks the end of the run window: the last outcome is committed, and
    /// what follows is checking and accounting.
    pub fn committed(&mut self) {
        self.committed_at = Some(Instant::now());
    }

    /// The handle engines and workloads report to: the recorder while
    /// tracing, the no-op recorder otherwise.
    pub fn obs(&self) -> ObsHandle {
        match &self.recorder {
            Some(recorder) => ObsHandle::new(recorder.clone()),
            None => ObsHandle::noop(),
        }
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }
}

/// The deterministic result of one iteration: the same seed gives the same
/// summary on every iteration and every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Distinct pairs sent to humans.
    pub labels: u64,
    /// Label dispatch waves.
    pub label_rounds: u64,
    /// Human answers collected: crowd votes, or one per label without a crowd.
    pub votes: u64,
    /// Pair-level quality, pooled over tenants.
    pub pairs: QualityMetrics,
    /// Entity-cluster quality, pooled over tenants.
    pub clusters: QualityMetrics,
    /// Digest of every outcome of the iteration (see [`outcome_digest`]).
    pub digest: u64,
    /// The digests folded into `digest`, one per tenant or epoch.
    pub parts: Vec<u64>,
}

impl Summary {
    pub fn new() -> Self {
        let empty = QualityMetrics::from_counts(0, 0, 0, 0);
        Self {
            labels: 0,
            label_rounds: 0,
            votes: 0,
            pairs: empty,
            clusters: empty,
            digest: 0,
            parts: Vec::new(),
        }
    }

    /// Pools one more outcome into the summary.
    pub fn add(&mut self, labels: usize, rounds: usize, votes: u64, pairs: QualityMetrics) {
        self.labels += labels as u64;
        self.label_rounds += rounds as u64;
        self.votes += votes;
        self.pairs = pool(self.pairs, pairs);
    }

    /// Pools one more clustering into the summary.
    pub fn add_clusters(&mut self, clusters: QualityMetrics) {
        self.clusters = pool(self.clusters, clusters);
    }
}

/// Adds two confusion matrices.
pub fn pool(a: QualityMetrics, b: QualityMetrics) -> QualityMetrics {
    QualityMetrics::from_counts(
        a.true_positives + b.true_positives,
        a.false_positives + b.false_positives,
        a.false_negatives + b.false_negatives,
        a.true_negatives + b.true_negatives,
    )
}

/// The quality requirement every workload runs under.
pub fn requirement() -> QualityRequirement {
    QualityRequirement::symmetric(0.9).expect("0.9 is a valid requirement level")
}

/// FNV-1a digest of what the quality guarantee speaks about: solution bounds,
/// the full label assignment and the cost counters.
pub fn outcome_digest(outcome: &OptimizationOutcome) -> u64 {
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

/// One digest over several, in order.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The simulated labelers: answer every request with its ground truth, with
/// zero think time.
pub fn answer(workload: &Workload, requests: &[LabelRequest]) -> Vec<LabelResponse> {
    requests
        .iter()
        .map(|request| LabelResponse {
            pair_id: request.pair_id,
            label: workload.pair(request.index).ground_truth(),
        })
        .collect()
}

/// Which part of the optimization a session step belongs to, tracked across
/// steps so that re-emitting steps keep the part of the round they serve.
#[derive(Debug, Clone, Copy)]
pub struct StepPhase(&'static str);

impl Default for StepPhase {
    fn default() -> Self {
        StepPhase("session.plan")
    }
}

/// One timed `ResolutionSession::step`. The step's time goes to
/// `session.plan` when it opened a sampling round and to `session.refine`
/// when it opened a boundary-search or verification round or completed the
/// session; a step that opened no round stays with the previous one.
/// Returns the step and its length in seconds.
pub fn engine_step(
    session: &mut ResolutionSession<'_>,
    responses: &[LabelResponse],
    phase: &mut StepPhase,
    ctx: &mut Ctx,
) -> Result<(ResolutionStep, f64), String> {
    let (rounds, plan, refine) = (session.rounds(), session.plan_rounds(), session.refine_rounds());
    let start = Instant::now();
    let result = session.step(responses);
    let step = ctx.ops.record("step", result)?;
    if session.plan_rounds() > plan {
        phase.0 = "session.plan";
    } else if session.refine_rounds() > refine || matches!(step, ResolutionStep::Done(_)) {
        phase.0 = "session.refine";
    }
    let secs = ctx.tracer.end(phase.0, start);
    count_step(ctx, session.rounds() > rounds);
    Ok((step, secs))
}

/// One timed `LabelingSession::step`, split by the phase the session reports
/// after the step (sampling is planning; boundary search, verification and
/// completion refine).
pub fn labeling_step(
    session: &mut LabelingSession<'_>,
    responses: &[LabelResponse],
    ctx: &mut Ctx,
) -> Result<(Step, f64), String> {
    let rounds = session.rounds();
    let start = Instant::now();
    let result = session.step(responses);
    let step = ctx.ops.record("step", result)?;
    let name = match session.phase() {
        SessionPhase::Sampling => "session.plan",
        _ => "session.refine",
    };
    let secs = ctx.tracer.end(name, start);
    count_step(ctx, session.rounds() > rounds);
    Ok((step, secs))
}

fn count_step(ctx: &mut Ctx, opened_round: bool) {
    ctx.count("session.steps", 1.0);
    if !opened_round {
        ctx.count("session.reemits", 1.0);
    }
}

/// Drives an engine session to completion, answering whole batches.
pub fn drive_engine(
    session: &mut ResolutionSession<'_>,
    ctx: &mut Ctx,
) -> Result<ResolutionReport, String> {
    let mut responses = Vec::new();
    let mut phase = StepPhase::default();
    loop {
        let (step, secs) = engine_step(session, &responses, &mut phase, ctx)?;
        ctx.turns_ms.push(secs * 1e3);
        match step {
            ResolutionStep::Done(report) => return Ok(report),
            ResolutionStep::NeedLabels(requests) => {
                let start = Instant::now();
                responses = answer(session.workload(), &requests);
                ctx.tracer.end("labeler", start);
            }
        }
    }
}

/// While tracing, times the clustering an engine session does as it
/// completes — the transitive closure of the outcome's matches and of the
/// ground truth, and their pairwise metrics — by repeating it through the
/// public API after the run.
pub fn time_clustering(
    engine: &ResolutionEngine,
    outcome: &OptimizationOutcome,
    truth: &[(RecordId, RecordId)],
    ctx: &mut Ctx,
) {
    if !ctx.tracer.enabled() {
        return;
    }
    let start = Instant::now();
    let nodes: Vec<RecordKey> = engine
        .left()
        .iter()
        .map(|r| (Side::Left, r.id()))
        .chain(engine.right().iter().map(|r| (Side::Right, r.id())))
        .collect();
    let matches = engine
        .workload()
        .iter()
        .zip(outcome.assignment.labels())
        .filter(|(_, label)| label.is_match())
        .filter_map(|(pair, _)| Some(((Side::Left, pair.left()?), (Side::Right, pair.right()?))));
    let predicted = EntityClusters::from_edges(nodes.clone(), matches);
    let truth = EntityClusters::from_edges(
        nodes,
        truth.iter().map(|&(l, r)| ((Side::Left, l), (Side::Right, r))),
    );
    std::hint::black_box(predicted.pairwise_metrics(&truth));
    ctx.tracer.end_in(Phase::After, "cluster", start);
}

/// Adds a finished engine session's round split to the iteration's counts.
pub fn count_rounds(ctx: &mut Ctx, report: &ResolutionReport) {
    ctx.count("session.plan_rounds", report.plan_rounds as f64);
    ctx.count("session.refine_rounds", report.refine_rounds as f64);
}

/// A scratch directory unique to this process and call (PID plus a
/// process-wide counter), removed with everything in it when dropped.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(base: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(base)?;
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("{}-{n}", std::process::id()));
            // `create_dir` fails on an existing directory, so a directory
            // left behind by an earlier process with the same PID is skipped
            // rather than shared.
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(Self { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_dirs_are_unique_and_removed_on_drop() {
        let base = std::env::temp_dir().join(format!("humobench-test-{}", std::process::id()));
        let a = WorkDir::create(&base).unwrap();
        let b = WorkDir::create(&base).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("x"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        drop(b);
        let _ = std::fs::remove_dir(&base);
    }

    #[test]
    fn failed_operations_and_checks_are_counted() {
        let mut ops = Ops::default();
        assert!(ops.record("step", Ok::<_, String>(1)).is_ok());
        assert!(ops.record("step", Err::<u8, _>("boom")).is_err());
        assert!(ops.check(true, "fine"));
        assert!(!ops.check(false, "digest differs"));
        ops.succeeded("wal.append", 3);
        assert_eq!(ops.attempted(), 7);
        assert_eq!(ops.failed(), 2);
        assert_eq!(ops.failures().len(), 2);
    }
}
