//! The HUMO benchmark: one command that runs a workload end to end, checks its
//! outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path humobench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and prints the per-layer table.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `hybr_session`: HYBR on twenty small Abt-Buy-like calibrated workloads,
//!   one session after another;
//! * `durable_service`: eight tenants with write-ahead logs and spilling
//!   workloads sharing one pool of labelers;
//! * `crowd_service`: sixteen tenants answered by crowds of voting workers.
//!
//! The seed feeds the input generators only; the program's own seeds stay
//! fixed. Load is closed-loop: each tenant waits for its next answers, and the
//! simulated labelers answer with zero think time. A run repeats set-up and
//! run of the workload until `--seconds` have passed and reports medians over
//! the iterations; a turn percentile is taken over each iteration's turns
//! (at least 1000, so that ten lie beyond p99), then its median reported.
//!
//! Timings are stated at a reference host speed (see [`reference`]): each
//! iteration's wall times are scaled by a fixed reference task's nominal time
//! over its mean time, measured before the set-up, every quarter second
//! between turns, and after the run. The time the reference task takes inside
//! the run is left out of `run_s`. The human-readable lines also print the
//! median run time and reference time as measured.
//!
//! Every run checks that each iteration reached the same outcome digest, that
//! the digest equals the one recorded in `humobench/recorded.json` for the
//! seeds recorded there, that the quality requirement holds on the
//! ground-truth workloads, and, for `durable_service`, that each tenant's
//! write-ahead log resumes into a re-ingested engine and reaches the same
//! outcome. Traced runs also check that the traced layers cover at least 95%
//! of `run_s`. A failed operation or check makes `correct` false.
//!
//! Write-ahead logs and spill files go to per-run directories under
//! `humobench/.work`, removed at exit; traced runs write their spans to
//! `humobench/traces/<workload>-seed<n>.jsonl`.

mod common;
mod hybr;
mod metrics;
mod reference;
mod service;
mod stats;
mod trace;

use common::{peak_rss_mib, requirement, Ctx, Summary, WorkDir};
use er_obs::{Json, MetricsRecorder, MetricsSnapshot};
use service::Kind;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{LayerTable, Phase};

/// Where runs keep their write-ahead logs and spill files.
const WORK_DIR: &str = "humobench/.work";
/// Where traced runs write their spans.
const TRACE_DIR: &str = "humobench/traces";
/// Seeds and outcome digests recorded for later claims.
const RECORDED: &str = "humobench/recorded.json";
/// Iterations every measuring pass makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Turns that must lie beyond a reported tail percentile in every iteration.
const MIN_BEYOND: usize = 10;
/// Wall time after which a run stops iterating, whatever it still lacks.
const TIME_LIMIT_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    HybrSession,
    DurableService,
    CrowdService,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::HybrSession, Workload::DurableService, Workload::CrowdService];

    fn name(self) -> &'static str {
        match self {
            Workload::HybrSession => "hybr_session",
            Workload::DurableService => "durable_service",
            Workload::CrowdService => "crowd_service",
        }
    }

    /// Whether every label comes from the ground truth, so the quality
    /// requirement must hold.
    fn ground_truth_labels(self) -> bool {
        self != Workload::CrowdService
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| values.get(key).copied().ok_or_else(|| format!("--{key} is required"));
    let name = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if let Some(unknown) =
        values.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown option --{unknown}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

enum Input {
    Hybr(Box<hybr::Input>),
    Service(service::Input),
}

fn setup(workload: Workload, seed: u64, work: &Path, ctx: &mut Ctx) -> Result<Input, String> {
    Ok(match workload {
        Workload::HybrSession => Input::Hybr(Box::new(hybr::setup(seed, ctx)?)),
        Workload::DurableService => Input::Service(service::setup(Kind::Durable, seed, work, ctx)?),
        Workload::CrowdService => Input::Service(service::setup(Kind::Crowd, seed, work, ctx)?),
    })
}

fn run(input: Input, snapshots: Option<&Path>, ctx: &mut Ctx) -> Result<Summary, String> {
    match input {
        Input::Hybr(input) => hybr::run(*input, ctx),
        Input::Service(input) => service::run(input, snapshots, ctx),
    }
}

/// One measured iteration.
struct Iteration {
    /// Wall time of the set-up, in seconds.
    setup_s: f64,
    /// Wall time of the run, in seconds.
    run_s: f64,
    /// Wall time of each turn, in milliseconds.
    turns_ms: Vec<f64>,
    /// The reference task's times before the set-up, during the run and
    /// after it.
    reference_s: Vec<f64>,
    summary: Summary,
}

impl Iteration {
    /// The factor that states this iteration's wall times at the reference
    /// host speed.
    fn scale(&self) -> f64 {
        reference::scale(&self.reference_s)
    }
}

/// What one measuring pass (all traced or all untraced) collected.
#[derive(Default)]
struct Pass {
    iterations: Vec<Iteration>,
    /// Counts summed over the iterations.
    counts: BTreeMap<&'static str, f64>,
    /// The program's own counters and spans, summed over traced iterations.
    recorded: MetricsSnapshot,
}

impl Pass {
    /// Run times at the reference host speed.
    fn run_s(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.run_s * i.scale()).collect()
    }

    /// Set-up times at the reference host speed.
    fn setup_s(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.setup_s * i.scale()).collect()
    }

    /// A turn-time quantile at the reference host speed, taken over each
    /// iteration's turns; the median over the iterations. A burst of load that
    /// slows the turns of a few iterations moves it little.
    fn turn_ms(&self, q: f64) -> f64 {
        let per_iteration: Vec<f64> =
            self.iterations.iter().map(|i| stats::quantile(&i.turns_ms, q) * i.scale()).collect();
        stats::median(&per_iteration)
    }

    /// Turns taken by the iteration with the fewest.
    fn fewest_turns(&self) -> usize {
        self.iterations.iter().map(|i| i.turns_ms.len()).min().unwrap_or(0)
    }

    /// Turns taken over all iterations.
    fn turn_samples(&self) -> usize {
        self.iterations.iter().map(|i| i.turns_ms.len()).sum()
    }

    /// Wall times of the runs, as measured.
    fn wall_run_s(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.run_s).collect()
    }

    /// The reference task's times, as measured.
    fn reference_s(&self) -> Vec<f64> {
        self.iterations.iter().flat_map(|i| i.reference_s.iter().copied()).collect()
    }

    /// A count averaged over the iterations.
    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.iterations.len().max(1) as f64
    }

    /// A program counter averaged over the iterations.
    fn recorded(&self, name: &str) -> f64 {
        self.recorded.counter(name) as f64 / self.iterations.len().max(1) as f64
    }
}

/// Repeats set-up and run until `seconds` have passed, at least
/// [`MIN_ITERATIONS`] times. A failed iteration ends the pass.
fn measure(
    args: &Args,
    seconds: f64,
    work: &Path,
    mut snapshots: Option<&Path>,
    ctx: &mut Ctx,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let enough = pass.iterations.len() >= MIN_ITERATIONS && elapsed >= seconds;
        if enough || elapsed >= TIME_LIMIT_S {
            break;
        }
        let index = pass.iterations.len();
        if let Some(recorder) = &ctx.recorder {
            recorder.reset();
        }
        ctx.turns_ms.clear();
        ctx.counts.clear();
        ctx.excluded_s = 0.0;
        ctx.committed_at = None;
        ctx.reference_s.clear();

        ctx.measure_reference();
        ctx.tracer.enter(index, Phase::Setup);
        let start = Instant::now();
        let input = match setup(args.workload, args.seed, work, ctx) {
            Ok(input) => input,
            Err(_) => break,
        };
        let setup_s = start.elapsed().as_secs_f64();

        ctx.tracer.enter(index, Phase::Run);
        let start = Instant::now();
        let summary = match run(input, snapshots.take(), ctx) {
            Ok(summary) => summary,
            Err(_) => break,
        };
        let end = ctx.committed_at.unwrap_or_else(Instant::now);
        let run_s = end.saturating_duration_since(start).as_secs_f64() - ctx.excluded_s;

        ctx.measure_reference();
        let turns_ms = std::mem::take(&mut ctx.turns_ms);
        for (&name, &n) in &ctx.counts {
            *pass.counts.entry(name).or_insert(0.0) += n;
        }
        if let Some(recorder) = &ctx.recorder {
            pass.recorded.merge(&recorder.snapshot());
        }
        pass.iterations.push(Iteration {
            setup_s,
            run_s,
            turns_ms,
            reference_s: std::mem::take(&mut ctx.reference_s),
            summary,
        });
    }
    pass
}

/// The digests recorded for `workload`, by seed.
fn recorded_digests(workload: Workload) -> Result<BTreeMap<u64, String>, String> {
    let text = std::fs::read_to_string(RECORDED).map_err(|e| format!("{RECORDED}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{RECORDED}: {e}"))?;
    let mut digests = BTreeMap::new();
    if let Some(Json::Obj(by_seed)) = doc.get(&format!("digests.{}", workload.name())) {
        for (seed, digest) in by_seed {
            let seed = seed.parse().map_err(|e| format!("{RECORDED}: seed {seed:?}: {e}"))?;
            let digest = digest.as_str().ok_or_else(|| format!("{RECORDED}: digest of {seed}"))?;
            digests.insert(seed, digest.to_string());
        }
    }
    Ok(digests)
}

/// The checks every run makes on its outcomes.
fn check_outcomes(args: &Args, pass: &Pass, ctx: &mut Ctx) {
    let Some(first) = pass.iterations.first() else {
        ctx.ops.check(false, "no iteration completed");
        return;
    };
    for (i, iteration) in pass.iterations.iter().enumerate().skip(1) {
        ctx.ops.check(
            iteration.summary == first.summary,
            format_args!("iteration {i} reached another outcome than iteration 0"),
        );
    }
    let digest = format!("{:016x}", first.summary.digest);
    println!("outcome digest: {digest}");
    match recorded_digests(args.workload) {
        Ok(recorded) => {
            if let Some(expected) = recorded.get(&args.seed) {
                ctx.ops.check(
                    *expected == digest,
                    format_args!("digest {digest} differs from the recorded {expected}"),
                );
            }
        }
        Err(e) => {
            ctx.ops.check(false, e);
        }
    }
    if args.workload.ground_truth_labels() {
        let pairs = first.summary.pairs;
        ctx.ops.check(
            requirement().is_satisfied_by(&pairs),
            format_args!(
                "pooled precision {:.4} / recall {:.4} miss the 0.9/0.9 requirement",
                pairs.precision(),
                pairs.recall()
            ),
        );
    }
}

/// Folds the program's own spans into the benchmark's layer table: the three
/// ingest stages, and ingest's remaining self time.
fn add_recorded_layers(table: &mut LayerTable, recorded: &MetricsSnapshot) {
    let Some(ingest) = table.rows().iter().find(|r| r.layer == "ingest").cloned() else { return };
    let mut children = 0.0;
    for (span, layer) in [
        ("ingest.block", "blocking"),
        ("ingest.score", "scoring"),
        ("ingest.merge", "workload.merge"),
    ] {
        if let Some(stats) = recorded.span(span) {
            table.add(layer, Some("ingest"), ingest.phase, stats.count, stats.total_secs);
            children += stats.total_secs;
        }
    }
    table.add(
        "ingest.other",
        Some("ingest"),
        ingest.phase,
        ingest.count,
        ingest.total_s - children,
    );
}

/// The per-layer metrics of a traced pass.
fn per_layer(traced: &Pass, untraced: &Pass, table: &LayerTable) -> BTreeMap<&'static str, f64> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let traced_run = stats::median(&traced.run_s());
    let mut v = BTreeMap::new();
    v.insert("ingest.calls", traced.count("ingest.calls"));
    v.insert("ingest.other_share", table.share("ingest.other"));
    v.insert("blocking.share", table.share("blocking"));
    v.insert("blocking.delta_candidates", traced.count("blocking.delta_candidates"));
    v.insert("scoring.share", table.share("scoring"));
    v.insert("scoring.pairs", traced.recorded("ingest.delta_candidates"));
    v.insert(
        "scoring.retained_fraction",
        ratio(traced.recorded("ingest.retained_pairs"), traced.recorded("ingest.delta_candidates")),
    );
    v.insert("workload.merge_share", table.share("workload.merge"));
    v.insert("session.steps", traced.count("session.steps"));
    v.insert("session.step_share", table.share("session.step"));
    v.insert("session.plan_share", table.share("session.plan"));
    v.insert("session.refine_share", table.share("session.refine"));
    v.insert("session.plan_rounds", traced.count("session.plan_rounds"));
    v.insert("session.refine_rounds", traced.count("session.refine_rounds"));
    v.insert(
        "session.reemit_fraction",
        ratio(traced.count("session.reemits"), traced.count("session.steps")),
    );
    v.insert("gp.reselect", traced.recorded("gp.reselect"));
    v.insert("gp.refit_incremental", traced.recorded("gp.refit.incremental"));
    v.insert("gp.refit_full", traced.recorded("gp.refit.full"));
    v.insert("wal.appends", traced.recorded("session.wal.appends"));
    v.insert("wal.bytes", traced.recorded("session.wal.bytes"));
    v.insert("wal.append_share", table.share("wal.append"));
    v.insert("wal.recover_share", table.share("wal.recover"));
    v.insert("spill.bytes_written", traced.count("spill.bytes_written"));
    v.insert("spill.bytes_read", traced.count("spill.bytes_read"));
    v.insert("spill.segments_loaded", traced.count("spill.segments_loaded"));
    v.insert(
        "spill.cache_hit_rate",
        ratio(traced.count("spill.cache_hits"), traced.count("spill.cache_lookups")),
    );
    v.insert("spill.posting_bytes", traced.count("spill.posting_bytes"));
    v.insert("disk.bytes", traced.count("disk.bytes"));
    v.insert("cluster.share", table.share("cluster"));
    v.insert("crowd.submit_share", table.share("crowd.submit"));
    v.insert("crowd.absorb_share", table.share("crowd.absorb"));
    v.insert("crowd.take_ready_share", table.share("crowd.take_ready"));
    v.insert(
        "crowd.dispatch_fraction",
        ratio(traced.count("crowd.dispatched"), traced.count("crowd.requested")),
    );
    v.insert("crowd.escalations", traced.count("crowd.escalations"));
    v.insert("labeler.share", table.share("labeler"));
    v.insert("turn.samples", untraced.turn_samples() as f64);
    v.insert("trace.run_s", traced_run);
    v.insert("host.reference_ms", 1e3 * stats::median(&untraced.reference_s()));
    v.insert("trace.overhead", ratio(traced_run, stats::median(&untraced.run_s())));
    v.insert("trace.coverage", table.coverage());
    v
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass, ctx: &mut Ctx) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    v.insert("setup_s", stats::median(&pass.setup_s()));
    v.insert("run_s", stats::median(&pass.run_s()));
    let n = pass.fewest_turns();
    let tail = stats::tail_per_mille(n, MIN_BEYOND);
    ctx.ops.check(
        tail.is_some_and(|p| p >= 990),
        format_args!("an iteration of {n} turns leaves fewer than {MIN_BEYOND} beyond p99"),
    );
    v.insert("turn_ms_p50", pass.turn_ms(0.5));
    v.insert("turn_ms_p99", pass.turn_ms(0.99));
    if let Some(first) = pass.iterations.first() {
        let s = &first.summary;
        v.insert("labels", s.labels as f64);
        v.insert("label_rounds", s.label_rounds as f64);
        v.insert("votes", s.votes as f64);
        v.insert("precision", s.pairs.precision());
        v.insert("recall", s.pairs.recall());
        v.insert("cluster_f1", s.clusters.f1());
    }
    v.insert("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN));
    v
}

/// Writes the traced spans next to the other traces, replacing any earlier
/// trace of the same workload and seed.
fn write_trace(args: &Args, ctx: &mut Ctx) {
    let dir = Path::new(TRACE_DIR);
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let partial = dir.join(format!(".{}-{}.partial", args.workload.name(), std::process::id()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&partial, ctx.tracer.to_jsonl()))
        .and_then(|()| std::fs::rename(&partial, &path));
    if ctx.ops.record("trace.write", written).is_ok() {
        println!("trace: {} spans in {}", ctx.tracer.events().len(), path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("humobench: {e}");
            eprintln!(
                "usage: humobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    println!(
        "humobench: workload {} seed {} seconds {} trace {} ({threads} scoring threads)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let run_dir = match WorkDir::create(Path::new(WORK_DIR)) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("humobench: cannot create a work directory under {WORK_DIR}: {e}");
            return ExitCode::from(1);
        }
    };
    let work = Path::new(WORK_DIR);
    let snapshots = (args.workload == Workload::DurableService).then(|| run_dir.path());

    // The untraced pass: the end-to-end metrics, or the baseline the traced
    // pass's overhead is measured against.
    let mut ctx = Ctx::new(false, threads);
    let seconds = if args.trace { 0.4 * args.seconds } else { args.seconds };
    let untraced = measure(&args, seconds, work, snapshots, &mut ctx);
    check_outcomes(&args, &untraced, &mut ctx);
    if let (Some(dir), Some(first)) = (snapshots, untraced.iterations.first()) {
        let mut verify = Ctx::new(false, threads);
        let resumed =
            service::verify_resume(args.seed, dir, &first.summary.parts, work, &mut verify);
        ctx.ops.merge(verify.ops);
        if let Err(e) = resumed {
            ctx.ops.check(false, e);
        }
    }

    let values = if args.trace {
        let mut traced_ctx = Ctx::new(true, threads);
        traced_ctx.recorder = Some(Arc::new(MetricsRecorder::new()));
        let traced = measure(&args, 0.6 * args.seconds, work, None, &mut traced_ctx);
        // Spans are wall times, so their shares are of the wall-clock run.
        let run_total: f64 = traced.wall_run_s().iter().sum();
        let mut table = LayerTable::from_spans(traced_ctx.tracer.events(), run_total);
        add_recorded_layers(&mut table, &traced.recorded);
        println!("\nper-layer table ({} traced iterations):", traced.iterations.len());
        print!("{}", table.render());
        ctx.ops.check(
            table.coverage() >= 0.95,
            format_args!("traced layers cover {:.1}% of run_s", 100.0 * table.coverage()),
        );
        ctx.ops.check(
            traced.count("blocking.delta_candidates") == traced.recorded("ingest.delta_candidates"),
            "the program's delta-candidate counter disagrees with its ingest reports",
        );
        if let (Some(a), Some(b)) = (traced.iterations.first(), untraced.iterations.first()) {
            ctx.ops.check(a.summary == b.summary, "the traced run reached another outcome");
        }
        write_trace(&args, &mut traced_ctx);
        ctx.ops.merge(traced_ctx.ops);
        per_layer(&traced, &untraced, &table)
    } else {
        end_to_end(&untraced, &mut ctx)
    };

    let run_s = untraced.run_s();
    println!(
        "\n{} iterations: setup_s median {:.4}, run_s median {:.4} (min {:.4}, max {:.4}); \
         {} turn samples; as measured: run_s median {:.4}, reference task median {:.2} ms",
        untraced.iterations.len(),
        stats::median(&untraced.setup_s()),
        stats::median(&run_s),
        run_s.iter().copied().fold(f64::INFINITY, f64::min),
        run_s.iter().copied().fold(0.0, f64::max),
        untraced.turn_samples(),
        stats::median(&untraced.wall_run_s()),
        1e3 * stats::median(&untraced.reference_s())
    );
    let catalogue = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    for metric in catalogue {
        let value = values.get(metric.name).copied().unwrap_or(f64::NAN);
        println!("  {:<28} {:>18.6} {}", metric.name, value, metric.unit);
    }
    println!("{}", ctx.ops.render());
    for failure in ctx.ops.failures() {
        println!("FAILED: {failure}");
    }
    let all_finite = catalogue.iter().all(|m| values.get(m.name).is_some_and(|v| v.is_finite()));
    let correct = ctx.ops.failed() == 0 && all_finite;
    drop(run_dir);
    println!(
        "{}",
        metrics::result_line(correct, ctx.ops.attempted(), ctx.ops.failed(), catalogue, |name| {
            values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0)
        })
    );
    ExitCode::SUCCESS
}
