//! Crowd-quality harness: delivered precision/recall under noisy crowd
//! labels, across worker error × redundancy/aggregation scheme × optimizer.
//!
//! The paper's guarantee machinery assumes perfect manual labels; `er-crowd`
//! models the real thing — workers with (possibly asymmetric) confusion
//! matrices, redundant assignment, majority/EM aggregation. This harness
//! measures what the crowd does to the θ-guarantee: each cell runs an
//! optimizer over many seeds against a [`humo::CrowdOracle`] and reports the
//! empirical requirement-failure rate (with one-sided 95% Clopper–Pearson
//! bands), the delivered precision/recall means, the label-cost fraction and
//! the votes-per-label multiplier.
//!
//! Schemes per (optimizer, worker error):
//!
//! * `r1`   — `Fixed(1)`, majority: the single noisy labeler baseline;
//! * `rmaj` — `Fixed(r)`, majority vote;
//! * `rem`  — `Fixed(r)`, Dawid–Skene-style EM aggregation.
//!
//! An extra asymmetric arm (workers that miss matches far more often than
//! they invent them: flip rates 0.35/0.05) compares `rmaj` vs `rem` where the
//! confusion matrix actually matters: EM learns the asymmetry and recovers
//! matches a symmetric majority vote loses.
//!
//! Environment knobs (shared parsing in [`humo_bench::BenchConfig`]):
//!
//! * `HUMO_CROWD_SEEDS`  — seeds per cell (default 6);
//! * `HUMO_CROWD_PAIRS`  — workload size (default 16000);
//! * `HUMO_CROWD_TAU`    — logistic steepness (default 14);
//! * `HUMO_CROWD_ERRORS` — symmetric worker error grid (default `0,0.2`);
//! * `HUMO_CROWD_WORKERS` — worker-pool size (default 9);
//! * `HUMO_CROWD_REDUNDANCY` — `r` for the redundant schemes (default 3);
//! * `HUMO_CROWD_ASSERT` — when set, exit non-zero unless, at the largest
//!   worker error: `rmaj` beats `r1` on delivered recall; EM is at least as
//!   good as majority on asymmetric-worker recall; the `rem` failure rate is
//!   within the θ-band of the clean-label runs — its 95% Clopper–Pearson
//!   lower limit must not exceed the clean arm's upper limit (a criterion the
//!   un-redundant `r1` arm fails outright at 20% error, and the nominal
//!   `1 − θ` when no clean arm is in the grid); and every `Fixed(r)` cell
//!   costs exactly `r` votes per label.
//!
//! `--json <path>` / `--baseline <path>` emit and gate the `BENCH_crowd.json`
//! trajectory document (see `humo_bench::trajectory`).

use humo::{
    symmetric_pool, Aggregation, CrowdOracle, QualityRequirement, Redundancy, SessionConfig,
    WorkerModel,
};
use humo_bench::trajectory::emit_and_gate;
use humo_bench::{
    failure_rate_band, hybr, run, samp, synthetic_workload, BenchConfig, Json, KnobError,
};

const NOMINAL_FAILURE_RATE: f64 = 0.1; // 1 − θ for the paper's default θ = 0.9.
const ASYM_FLIP_MATCH: f64 = 0.35;
const ASYM_FLIP_UNMATCH: f64 = 0.05;

struct Cell {
    optimizer: &'static str,
    scheme: &'static str,
    /// Worker-pool description: `sym:<error>` or `asym:<fm>/<fu>`.
    pool: String,
    runs: usize,
    failures: usize,
    recall_failures: usize,
    precision_failures: usize,
    mean_precision: f64,
    mean_recall: f64,
    mean_cost_fraction: f64,
    votes_per_label: f64,
    /// Mean |estimated − true| worker flip rate, for EM cells.
    reliability_abs_error: Option<f64>,
}

/// Builds an optimizer's session configuration for a requirement and seed.
type Arm = fn(QualityRequirement, u64) -> SessionConfig;

struct Scheme {
    name: &'static str,
    redundancy: Redundancy,
    em: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    optimizer: &'static str,
    arm: Arm,
    scheme: &Scheme,
    pool: &str,
    make_workers: &dyn Fn(u64) -> Vec<WorkerModel>,
    requirement: QualityRequirement,
    seeds: usize,
    pairs: usize,
    tau: f64,
) -> Cell {
    let mut failures = 0usize;
    let mut recall_failures = 0usize;
    let mut precision_failures = 0usize;
    let mut precision = 0.0;
    let mut recall = 0.0;
    let mut cost = 0.0;
    let mut votes_per_label = 0.0;
    let mut reliability = (0.0f64, 0usize);
    for seed in 0..seeds as u64 {
        let workload = synthetic_workload(pairs, tau, 0.1, 1000 + seed);
        let aggregation = if scheme.em {
            Aggregation::Em(humo::EmConfig::default())
        } else {
            Aggregation::Majority
        };
        let mut oracle =
            CrowdOracle::new(make_workers(seed), scheme.redundancy, aggregation, 77 + seed);
        let outcome = run(arm(requirement, seed), &workload, &mut oracle)
            .expect("the harness configures valid optimizers");
        if !requirement.is_satisfied_by(&outcome.metrics) {
            failures += 1;
        }
        if outcome.metrics.recall() < requirement.recall() {
            recall_failures += 1;
        }
        if outcome.metrics.precision() < requirement.precision() {
            precision_failures += 1;
        }
        precision += outcome.metrics.precision();
        recall += outcome.metrics.recall();
        cost += outcome.human_cost_fraction(workload.len());
        votes_per_label += oracle.cost_multiplier();
        if let Some(err) = oracle.reliability_abs_error() {
            reliability.0 += err;
            reliability.1 += 1;
        }
    }
    let n = seeds as f64;
    Cell {
        optimizer,
        scheme: scheme.name,
        pool: pool.to_string(),
        runs: seeds,
        failures,
        recall_failures,
        precision_failures,
        mean_precision: precision / n,
        mean_recall: recall / n,
        mean_cost_fraction: cost / n,
        votes_per_label: votes_per_label / n,
        reliability_abs_error: (reliability.1 > 0).then(|| reliability.0 / reliability.1 as f64),
    }
}

fn main() -> Result<(), KnobError> {
    let cfg = BenchConfig::from_env("HUMO_CROWD");
    let seeds = cfg.usize("SEEDS", 6)?;
    let pairs = cfg.usize("PAIRS", 16_000)?;
    let tau = cfg.f64("TAU", 14.0)?;
    let errors = cfg.f64_list("ERRORS", &[0.0, 0.2])?;
    let workers = cfg.usize("WORKERS", 9)?;
    let redundancy = cfg.usize("REDUNDANCY", 3)?.max(1);
    let assert_mode = cfg.flag("ASSERT");
    // A zero seed count would make the assertion gate pass vacuously; refuse.
    if seeds == 0 || workers < redundancy {
        eprintln!(
            "crowd_quality: degenerate configuration (seeds {seeds}, \
             {workers} workers < redundancy {redundancy}) — nothing would be measured"
        );
        std::process::exit(2);
    }
    let requirement = QualityRequirement::symmetric(0.9).unwrap();
    let max_error = errors.iter().cloned().fold(0.0f64, f64::max);

    println!("================================================================");
    println!("crowd quality: delivered precision/recall under noisy crowd labels");
    println!(
        "τ = {tau}, {pairs} pairs, {seeds} seeds/cell, {workers} workers/pool, r = {redundancy}, \
         requirement α = β = 0.9 @ θ = 0.9"
    );
    println!(
        "asymmetric arm: flip rates {ASYM_FLIP_MATCH}/{ASYM_FLIP_UNMATCH} (miss-heavy workers)"
    );
    println!("================================================================");
    println!(
        "  opt   sch pool       |    fail  rec-f prec-f |    prec  recall |  cost %  votes/l  rel err"
    );

    let optimizers: [(&'static str, Arm); 2] = [("SAMP", samp), ("HYBR", hybr)];
    let schemes = [
        Scheme { name: "r1", redundancy: Redundancy::Fixed(1), em: false },
        Scheme { name: "rmaj", redundancy: Redundancy::Fixed(redundancy), em: false },
        Scheme { name: "rem", redundancy: Redundancy::Fixed(redundancy), em: true },
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for &(name, arm) in &optimizers {
        for &error in &errors {
            for scheme in &schemes {
                let pool = format!("sym:{error}");
                let make = move |seed: u64| symmetric_pool(workers, error, 9_000 + seed);
                let cell =
                    run_cell(name, arm, scheme, &pool, &make, requirement, seeds, pairs, tau);
                print_cell(&cell);
                cells.push(cell);
            }
        }
        // The asymmetric arm: only the redundant schemes are informative.
        for scheme in &schemes[1..] {
            let pool = format!("asym:{ASYM_FLIP_MATCH}/{ASYM_FLIP_UNMATCH}");
            let make = move |seed: u64| {
                (0..workers)
                    .map(|w| {
                        WorkerModel::new(
                            ASYM_FLIP_MATCH,
                            ASYM_FLIP_UNMATCH,
                            humo::crowd::mix(9_000 + seed, w as u64),
                        )
                    })
                    .collect()
            };
            let cell = run_cell(name, arm, scheme, &pool, &make, requirement, seeds, pairs, tau);
            print_cell(&cell);
            cells.push(cell);
        }
    }

    let find = |optimizer: &str, scheme: &str, pool: &str| {
        cells
            .iter()
            .find(|c| c.optimizer == optimizer && c.scheme == scheme && c.pool == pool)
            .expect("cell grid covers every (optimizer, scheme, pool)")
    };
    let mut violations: Vec<String> = Vec::new();
    let noisy = format!("sym:{max_error}");
    let asym = format!("asym:{ASYM_FLIP_MATCH}/{ASYM_FLIP_UNMATCH}");
    for &(name, _) in &optimizers {
        if max_error > 0.0 {
            // Redundancy must buy delivered recall back at the worst error.
            let r1 = find(name, "r1", &noisy);
            let rmaj = find(name, "rmaj", &noisy);
            if rmaj.mean_recall <= r1.mean_recall {
                violations.push(format!(
                    "{name} @ {noisy}: rmaj recall {:.4} does not beat r1 recall {:.4}",
                    rmaj.mean_recall, r1.mean_recall
                ));
            }
            // The redundant EM arm must stay within the θ-band of the
            // clean-label runs: its failure rate must not be statistically
            // above the clean arm's (overlapping one-sided 95% CP bands).
            // This is the restoration claim — r1 at 20% error fails it
            // outright, rem must not. Without a clean arm in the grid the
            // nominal 1 − θ serves as the ceiling.
            let rem = find(name, "rem", &noisy);
            let (lower, _) = failure_rate_band(rem.failures, rem.runs);
            let ceiling = if errors.contains(&0.0) {
                let clean = find(name, "rem", "sym:0");
                failure_rate_band(clean.failures, clean.runs).1
            } else {
                NOMINAL_FAILURE_RATE
            };
            if lower > ceiling {
                violations.push(format!(
                    "{name} @ {noisy}: rem failure rate {}/{} (CP lower {:.3}) is statistically \
                     above the clean-label ceiling {ceiling:.3}",
                    rem.failures, rem.runs, lower
                ));
            }
        }
        // EM must be at least as good as majority where workers are asymmetric.
        let asym_maj = find(name, "rmaj", &asym);
        let asym_em = find(name, "rem", &asym);
        if asym_em.mean_recall + 1e-9 < asym_maj.mean_recall {
            violations.push(format!(
                "{name} @ {asym}: EM recall {:.4} below majority recall {:.4}",
                asym_em.mean_recall, asym_maj.mean_recall
            ));
        }
    }
    // Fixed(r) must cost exactly r votes per label — redundancy never inflates
    // the *label* cost the guarantee accounts, only multiplies votes.
    for cell in &cells {
        let r = match (cell.scheme, redundancy) {
            ("r1", _) => 1.0,
            (_, r) => r as f64,
        };
        if (cell.votes_per_label - r).abs() > 1e-9 {
            violations.push(format!(
                "{} {} @ {}: votes/label {:.4} != fixed redundancy {r}",
                cell.optimizer, cell.scheme, cell.pool, cell.votes_per_label
            ));
        }
    }

    if violations.is_empty() {
        println!("\nredundancy and EM deliver as required; all Fixed(r) cells cost exactly r");
    } else {
        println!("\nVIOLATIONS:");
        for v in &violations {
            println!("  {v}");
        }
    }

    let doc = Json::obj([
        ("schema", Json::str("humo-bench-crowd/v1")),
        (
            "scale",
            Json::obj([
                ("seeds", Json::num(seeds as f64)),
                ("pairs", Json::num(pairs as f64)),
                ("tau", Json::num(tau)),
                ("workers", Json::num(workers as f64)),
                ("redundancy", Json::num(redundancy as f64)),
                ("nominal_failure_rate", Json::num(NOMINAL_FAILURE_RATE)),
            ]),
        ),
        ("errors", Json::Arr(errors.iter().map(|&e| Json::num(e)).collect())),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|cell| {
                        Json::obj([
                            ("optimizer", Json::str(cell.optimizer)),
                            ("scheme", Json::str(cell.scheme)),
                            ("pool", Json::str(&cell.pool)),
                            ("failures_count", Json::num(cell.failures as f64)),
                            ("recall_failures_count", Json::num(cell.recall_failures as f64)),
                            ("precision_failures_count", Json::num(cell.precision_failures as f64)),
                            ("mean_precision", Json::num(cell.mean_precision)),
                            ("mean_recall", Json::num(cell.mean_recall)),
                            ("mean_cost_fraction", Json::num(cell.mean_cost_fraction)),
                            ("votes_per_label", Json::num(cell.votes_per_label)),
                            (
                                "reliability_abs_error",
                                Json::num(cell.reliability_abs_error.unwrap_or(-1.0)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("violations_count", Json::num(violations.len() as f64)),
    ]);
    let gate_passed = emit_and_gate(
        &doc,
        &cfg,
        &["scale.seeds", "scale.pairs", "cells.0.failures_count", "violations_count"],
    );
    if (assert_mode && !violations.is_empty()) || !gate_passed {
        std::process::exit(1);
    }
    Ok(())
}

fn print_cell(cell: &Cell) {
    println!(
        "{:>5} {:>5} {:<10} | {:>4}/{:<2} {:>6} {:>6} | {:>7.4} {:>7.4} | {:>7.2} {:>8.2} {:>8}",
        cell.optimizer,
        cell.scheme,
        cell.pool,
        cell.failures,
        cell.runs,
        cell.recall_failures,
        cell.precision_failures,
        cell.mean_precision,
        cell.mean_recall,
        100.0 * cell.mean_cost_fraction,
        cell.votes_per_label,
        cell.reliability_abs_error.map_or_else(|| "-".into(), |e| format!("{e:.4}")),
    );
}
