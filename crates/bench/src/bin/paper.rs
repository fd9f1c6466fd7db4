//! The paper's evaluation (Section VIII) as one table-driven sweep.
//!
//! Each entry of [`EXPERIMENTS`] names the figures and tables it covers, its
//! workloads, its `(α = β, θ)` requirements and its optimizer arms. One sweep
//! runs every experiment over (workload, requirement, arm, seeds), and the
//! experiment's report prints the run summaries and the paper's statement.
//! `paper` runs every experiment and `paper <id>…` the named ones.
//!
//! Knobs (parsed by [`humo_bench::BenchConfig`]): `HUMO_SCALE` is the fraction
//! of the paper's DS/AB sizes (default 0.2; 1.0 is full size), and the SAMP
//! and HYBR arms run seeds `0..HUMO_RUNS` (default 5; the paper averages over
//! 100). BASE draws no samples and runs once, and the single-run arms keep
//! their one seed.
//!
//! The `quality` and `confidence` cells are the rows of `BENCH_paper.json`:
//! `--json <path>` writes it and `--baseline <path>` diffs it against a
//! committed one (see `humo_bench::trajectory`). A row's `labels_count` (human
//! labels summed over its runs) and `failures_count` may not rise, and a row
//! whose failure rate's one-sided 95% Clopper–Pearson lower limit exceeds
//! 1 − θ fails.

use er_core::workload::Workload;
use er_ml::{ActiveLearningClassifier, ActlConfig, LabeledExample, LinearSvm, SvmConfig};
use humo::{
    AllSamplingConfig, BaselineConfig, PartialSamplingConfig, QualityRequirement, SessionConfig,
};
use humo_bench::trajectory::emit_and_gate;
use humo_bench::{
    failure_rate_band, hybr, samp, summarize, BenchConfig, Json, KnobError, RunSummary,
    WorkloadSpec,
};
use std::time::Instant;

/// One figure or table group of the evaluation: every arm runs on every
/// workload at every requirement `α = β ∈ levels` × `θ ∈ thetas`.
struct Experiment {
    id: &'static str,
    /// The paper artifacts it reproduces.
    covers: &'static [&'static str],
    title: &'static str,
    /// What the paper reports, printed under the measured table.
    paper: &'static str,
    workloads: &'static [WorkloadSpec],
    levels: &'static [f64],
    thetas: &'static [f64],
    arms: &'static [Arm],
    report: fn(&[Swept]),
    /// Whether the cells are `BENCH_paper.json` rows.
    gated: bool,
}

/// An optimizer arm: its label, its session configuration for a requirement
/// and a seed, and its one seed (`None`: seeds `0..HUMO_RUNS`).
struct Arm(&'static str, fn(QualityRequirement, u64) -> SessionConfig, Option<u64>);

/// BASE draws no samples, so one run is all of it.
const BASE: Arm = Arm("BASE", |r, _| SessionConfig::Baseline(BaselineConfig::new(r)), Some(0));
const SAMP: Arm = Arm("SAMP", samp, None);
const HYBR: Arm = Arm("HYBR", hybr, None);
/// One run at the sampling configurations' default seed.
const ONCE: Option<u64> = Some(1);

fn all(requirement: QualityRequirement, seed: u64) -> SessionConfig {
    SessionConfig::AllSampling(AllSamplingConfig { seed, ..AllSamplingConfig::new(requirement) })
}

/// SAMP with one parameter changed.
fn tuned(r: QualityRequirement, seed: u64, tune: fn(&mut PartialSamplingConfig)) -> SessionConfig {
    let mut config = PartialSamplingConfig::new(r).with_seed(seed);
    tune(&mut config);
    SessionConfig::PartialSampling(config)
}

const fn synthetic(pairs: usize, tau: f64, sigma: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::Synthetic { pairs, tau, sigma, seed }
}

/// What an entry of [`EXPERIMENTS`] does not set: DS and AB at (0.9, 0.9),
/// reported by [`cells`], not gated.
const DEFAULTS: Experiment = Experiment {
    id: "",
    covers: &[],
    title: "",
    paper: "",
    workloads: &[WorkloadSpec::Ds, WorkloadSpec::Ab],
    levels: &[0.9],
    thetas: &[0.9],
    arms: &[],
    report: cells,
    gated: false,
};

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "distributions",
        covers: &["Figure 4"],
        title: "number of matching pairs per similarity bin (DS and AB)",
        paper: "DS matches concentrate at high similarity (Fig. 4a); AB matches spread over \
                low/medium similarity (Fig. 4b)",
        report: distributions,
        ..DEFAULTS
    },
    Experiment {
        id: "logistic",
        covers: &["Figure 5"],
        title: "logistic match-proportion curves for τ ∈ {8, 14, 18}",
        paper: "curves cross 0.475 at similarity 0.55 and plateau at 0.95; larger τ is steeper",
        workloads: &[],
        report: logistic,
        ..DEFAULTS
    },
    Experiment {
        id: "svm",
        covers: &["Table I"],
        title: "SVM-based classification results on DS and AB (quality reference)",
        paper: "DS 0.87 / 0.76 / 0.81, AB 0.47 / 0.35 / 0.40",
        report: svm,
        ..DEFAULTS
    },
    Experiment {
        id: "quality",
        covers: &["Figure 6", "Table II", "Table III", "Table IV"],
        title: "human cost, delivered quality and success rate vs the quality requirement \
                (DS and AB, θ = 0.9)",
        paper: "BASE needs the most manual work, SAMP/HYBR considerably less; at (0.9, 0.9) DS ≈ \
                7% and AB ≈ 12% with HYBR; cost rises only modestly with the requirement. Every \
                BASE solution exceeds its requirement, usually by a wide margin; SAMP meets it in \
                ≈96-100% of runs and HYBR matches SAMP's quality and success rates (95-100%)",
        levels: &[0.70, 0.75, 0.80, 0.85, 0.90, 0.95],
        arms: &[BASE, SAMP, HYBR],
        gated: true,
        ..DEFAULTS
    },
    Experiment {
        id: "confidence",
        covers: &["Figure 7", "Figure 8"],
        title: "human cost and success rate vs the confidence level θ (DS and AB, α = β = 0.9)",
        paper: "cost rises only modestly with θ (DS ≈6.5% → 8.5%, AB ≈10% → 18%); the success \
                rate stays above θ",
        thetas: &[0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95],
        arms: &[SAMP, HYBR],
        gated: true,
        ..DEFAULTS
    },
    Experiment {
        id: "synthetic",
        covers: &["Figure 9", "Figure 10"],
        title: "manual work, precision and recall vs steepness τ (σ = 0.1) and irregularity σ \
                (τ = 14) on synthetic workloads",
        paper: "manual work falls as τ grows; BASE is cheaper than SAMP for τ ≤ 10 and more \
                expensive beyond; HYBR tracks the better of the two; all methods stay above 0.9 \
                quality. Manual work grows with σ; all three meet the requirement up to σ = 0.4; \
                at σ = 0.5 the monotonicity assumption breaks and BASE/HYBR miss precision while \
                SAMP still copes",
        workloads: &[
            synthetic(100_000, 8.0, 0.1, 11),
            synthetic(100_000, 10.0, 0.1, 11),
            synthetic(100_000, 12.0, 0.1, 11),
            synthetic(100_000, 14.0, 0.1, 11),
            synthetic(100_000, 16.0, 0.1, 11),
            synthetic(100_000, 18.0, 0.1, 11),
            synthetic(100_000, 14.0, 0.1, 13),
            synthetic(100_000, 14.0, 0.2, 13),
            synthetic(100_000, 14.0, 0.3, 13),
            synthetic(100_000, 14.0, 0.4, 13),
            synthetic(100_000, 14.0, 0.5, 13),
        ],
        arms: &[BASE, SAMP, HYBR],
        ..DEFAULTS
    },
    Experiment {
        id: "actl",
        covers: &["Table V", "Table VI", "Figure 11"],
        title: "HUMO (HYBR) vs the active-learning baseline ACTL at matched target precision \
                (DS and AB)",
        paper: "HUMO reaches 0.86-0.97 recall vs ACTL's 0.65-0.82 on DS, and on AB ACTL collapses \
                to 0.10-0.20 recall while HUMO stays at 0.86-0.95; the extra manual work per 1% \
                recall gain is 0.14-0.24% on DS and 0.10-0.19% on AB; the cost of 1% F1 \
                improvement rises with the target precision and stays below 0.35% on DS and \
                0.21% on AB",
        levels: &[0.75, 0.80, 0.85, 0.90, 0.95],
        arms: &[HYBR],
        report: actl,
        ..DEFAULTS
    },
    Experiment {
        id: "runtime",
        covers: &["Table VII", "Figure 12"],
        title: "machine runtime (seconds, one run each) of BASE/SAMP/HYBR on DS, AB and growing \
                synthetic workloads (τ = 14, σ = 0.1)",
        paper: "full-size workloads on 2017 hardware: DS 0.97 / 6.5 / 7.6 s and AB 3.1 / 20.9 / \
                53.5 s; BASE is the fastest and the sampling-based searches cost more machine \
                time. BASE grows only marginally with size; SAMP and HYBR grow polynomially but \
                stay far below the cost of the manual work they replace",
        workloads: &[
            WorkloadSpec::Ds,
            WorkloadSpec::Ab,
            synthetic(10_000, 14.0, 0.1, 5),
            synthetic(100_000, 14.0, 0.1, 5),
            synthetic(200_000, 14.0, 0.1, 5),
            synthetic(400_000, 14.0, 0.1, 5),
            synthetic(800_000, 14.0, 0.1, 5),
        ],
        arms: &[BASE, Arm("SAMP", samp, Some(0)), Arm("HYBR", hybr, Some(0))],
        report: runtime,
        ..DEFAULTS
    },
    Experiment {
        id: "noise_model",
        covers: &["ablation beyond the paper"],
        title: "paper-faithful (interpolating) vs conservative GP bounds in SAMP on a regular \
                and an irregular synthetic workload",
        paper: "(expectation) the paper-faithful bounds are cheap and adequate on regular \
                workloads; the conservative bounds recover the guarantee on irregular workloads \
                at a higher human cost",
        workloads: &[synthetic(100_000, 14.0, 0.1, 7), synthetic(100_000, 14.0, 0.5, 7)],
        arms: &[
            Arm("SAMP paper", samp, None),
            Arm("SAMP conservative", |r, s| tuned(r, s, |c| c.conservative_noise = true), None),
        ],
        ..DEFAULTS
    },
    Experiment {
        id: "samp_parameters",
        covers: &["ablation beyond the paper"],
        title: "SAMP's subset size, sample size and budget range on DS",
        paper: "(expectation) cost is fairly flat in the subset size, shrinks slightly with \
                larger per-subset samples (better bounds at higher sampling cost), and benefits \
                from a larger sampling budget on hard workloads",
        workloads: &[WorkloadSpec::Ds],
        arms: &[
            Arm("default (unit 200, k 100, 1-5%)", samp, ONCE),
            Arm("unit size 100", |r, s| tuned(r, s, |c| c.unit_size = 100), ONCE),
            Arm("unit size 400", |r, s| tuned(r, s, |c| c.unit_size = 400), ONCE),
            Arm("samples per subset 25", |r, s| tuned(r, s, |c| c.samples_per_subset = 25), ONCE),
            Arm("samples per subset 50", |r, s| tuned(r, s, |c| c.samples_per_subset = 50), ONCE),
            Arm("samples per subset 200", |r, s| tuned(r, s, |c| c.samples_per_subset = 200), ONCE),
            Arm(
                "sampling range (0.02, 0.1)",
                |r, s| tuned(r, s, |c| c.sampling_range = (0.02, 0.10)),
                ONCE,
            ),
            Arm(
                "sampling range (0.005, 0.02)",
                |r, s| tuned(r, s, |c| c.sampling_range = (0.005, 0.02)),
                ONCE,
            ),
        ],
        ..DEFAULTS
    },
    Experiment {
        id: "all_vs_partial",
        covers: &["technical report"],
        title: "human cost of the all-sampling vs the partial-sampling solution on DS",
        paper: "(technical report) the all-sampling solution pays for sampling every subset and \
                is dominated by the partial-sampling solution",
        workloads: &[WorkloadSpec::Ds],
        levels: &[0.80, 0.85, 0.90, 0.95],
        arms: &[Arm("ALL-SAMP", all, ONCE), Arm("SAMP", samp, ONCE)],
        ..DEFAULTS
    },
];

/// The runs of one (requirement, arm) cell on a workload.
struct Cell {
    requirement: QualityRequirement,
    arm: &'static str,
    summary: RunSummary,
    seconds: f64,
}

/// One workload of an experiment with its cells, in requirement, then arm
/// order.
type Swept = (WorkloadSpec, Workload, Vec<Cell>);

/// Runs every (workload, requirement, arm) cell of an experiment.
fn sweep(experiment: &Experiment, scale: f64, runs: usize) -> Vec<Swept> {
    let mut workloads = Vec::new();
    for &spec in experiment.workloads {
        let workload = spec.build(scale);
        let mut cells = Vec::new();
        for &level in experiment.levels {
            for &theta in experiment.thetas {
                let requirement = QualityRequirement::new(level, level, theta).expect("valid cell");
                for &Arm(arm, config, seed) in experiment.arms {
                    let seeds: Vec<u64> =
                        seed.map_or_else(|| (0..runs as u64).collect(), |s| vec![s]);
                    let start = Instant::now();
                    let summary =
                        summarize(&workload, requirement, &seeds, |s| config(requirement, s));
                    let seconds = start.elapsed().as_secs_f64();
                    cells.push(Cell { requirement, arm, summary, seconds });
                }
            }
        }
        workloads.push((spec, workload, cells));
    }
    workloads
}

fn heading(spec: &WorkloadSpec, workload: &Workload) {
    println!("\n{} ({} pairs, {} matches):", spec.name(), workload.len(), workload.total_matches());
}

/// Cost, mean delivered quality and success rate of every cell.
fn cells(sweep: &[Swept]) {
    let arms = sweep.iter().flat_map(|(_, _, cells)| cells);
    let width = arms.map(|cell| cell.arm.chars().count()).max().unwrap_or(0);
    for (spec, workload, cells) in sweep {
        heading(spec, workload);
        println!("   α    β    θ  {:<width$}  cost %       P       R  success", "arm");
        for Cell { requirement: r, arm, summary: s, .. } in cells {
            let requirement =
                format!("{:.2} {:.2} {:.2}", r.precision(), r.recall(), r.confidence());
            let (cost, success) = (100.0 * s.cost_fraction, 100.0 * s.success_rate());
            let quality = format!("{:>7.4} {:>7.4}", s.precision, s.recall);
            println!("{requirement}  {arm:<width$} {cost:>7.2} {quality} {success:>7.0}%");
        }
    }
}

fn distributions(sweep: &[Swept]) {
    for (spec, workload, _) in sweep {
        heading(spec, workload);
        println!("{:>12} {:>10}", "similarity", "# matches");
        for b in 0..20 {
            let (lo, hi) = (b as f64 / 20.0, (b + 1) as f64 / 20.0);
            let (start, end) = (workload.lower_bound_index(lo), workload.lower_bound_index(hi));
            let matches = workload.matches_in_range(start..end);
            if end > start {
                let bar = "#".repeat(((matches as f64 / 10.0).ceil() as usize).min(80));
                println!("{lo:>5.2}-{hi:<5.2} {matches:>10}  {bar}");
            }
        }
    }
}

fn logistic(_sweep: &[Swept]) {
    use er_datagen::synthetic::logistic_match_proportion;
    println!("{:>10} {:>8} {:>8} {:>8}", "similarity", "τ=8", "τ=14", "τ=18");
    for i in 0..=20 {
        let v = i as f64 / 20.0;
        let [a, b, c] = [8.0, 14.0, 18.0].map(|tau| logistic_match_proportion(v, tau));
        println!("{v:>10.2} {a:>8.3} {b:>8.3} {c:>8.3}");
    }
}

/// ER workloads are extremely imbalanced (0.3–5 % positives): the SVM trains
/// on a class-balanced subsample (all positives plus an equal number of
/// negatives) and is evaluated on the untouched held-out split, as ER
/// evaluation setups typically do.
fn svm(sweep: &[Swept]) {
    println!("{:<8} {:>10} {:>8} {:>9}", "Dataset", "Precision", "Recall", "F1 Score");
    for (spec, workload, _) in sweep {
        let examples = er_ml::features::workload_examples(workload);
        let split = er_ml::TrainTestSplit::new(&examples, 0.5, 7).expect("splittable");
        let positives: Vec<&LabeledExample> = split.train.iter().filter(|e| e.label).collect();
        let negatives = split.train.iter().filter(|e| !e.label).take(positives.len().max(1));
        let train: Vec<LabeledExample> = positives.into_iter().chain(negatives).cloned().collect();
        let svm = LinearSvm::train(&train, SvmConfig::default()).expect("trainable");
        let metrics = svm.evaluate(&split.test);
        let (p, r, f1) = (metrics.precision(), metrics.recall(), metrics.f1());
        println!("{:<8} {p:>10.2} {r:>8.2} {f1:>9.2}", spec.name());
    }
}

/// HYBR's cells against an ACTL run at each target precision: recall, cost
/// and the extra manual work per 1% of recall and of F1 gained.
fn actl(sweep: &[Swept]) {
    // Extra manual work (percentage points) per 1% of quality gained.
    let per_gain = |delta_cost: f64, gain: f64| {
        if gain.abs() > 1e-9 {
            delta_cost / (100.0 * gain)
        } else {
            f64::NAN
        }
    };
    for (spec, workload, cells) in sweep {
        heading(spec, workload);
        println!(
            "target α | HUMO recall ACTL recall |  HUMO ψ%  ACTL ψ% |   Δψ/(100·ΔRecall) \
             \x20  Δψ/(100·ΔF1)"
        );
        for Cell { requirement, summary: humo, .. } in cells {
            let target = requirement.precision();
            let config = ActlConfig { target_precision: target, seed: 3, ..ActlConfig::default() };
            let actl = ActiveLearningClassifier::new(config)
                .and_then(|classifier| classifier.run(workload))
                .expect("ACTL runs on the harness workloads");
            let actl_fraction = actl.human_cost_fraction(workload.len());
            let (humo_cost, actl_cost) = (100.0 * humo.cost_fraction, 100.0 * actl_fraction);
            let per_recall = per_gain(humo_cost - actl_cost, humo.recall - actl.metrics.recall());
            let delta_f1 = humo.f1 - actl.metrics.f1();
            let per_f1 = per_gain(100.0 * (humo.cost_fraction - actl_fraction), delta_f1);
            let recalls = format!("{:>11.4} {:>11.4}", humo.recall, actl.metrics.recall());
            let costs = format!("{humo_cost:>8.2} {actl_cost:>8.2}");
            println!("{target:>8.2} | {recalls} | {costs} | {per_recall:>18.4} {per_f1:>15.4}");
        }
    }
}

fn runtime(sweep: &[Swept]) {
    let arms = sweep[0].2.iter().map(|cell| format!(" {:>8}", format!("{} s", cell.arm)));
    println!("\n{:<40} {:>8}{}", "workload", "# pairs", arms.collect::<String>());
    for (spec, workload, cells) in sweep {
        let seconds: String = cells.iter().map(|cell| format!(" {:>8.3}", cell.seconds)).collect();
        println!("{:<40} {:>8}{seconds}", spec.name(), workload.len());
    }
}

/// The experiments named by `ids`, in table order, or all of them when none
/// is named; an unknown id is an error listing the valid ones.
fn select(ids: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = ids.iter().find(|id| !EXPERIMENTS.iter().any(|e| e.id == **id)) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let valid = valid.join(", ");
        return Err(format!("paper: unknown experiment `{unknown}`; valid ids: {valid}"));
    }
    Ok(EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.contains(&e.id)).collect())
}

fn main() -> Result<(), KnobError> {
    let cfg = BenchConfig::from_env("HUMO");
    let scale = cfg.f64("SCALE", 0.2)?;
    let runs = cfg.usize("RUNS", 5)?.max(1);
    let experiments = select(&cfg.positional()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });

    let (mut rows, mut violations) = (Vec::new(), Vec::new());
    let rule = "=".repeat(64);
    for experiment @ Experiment { id, covers, title, paper, .. } in experiments {
        println!("{rule}\n{id} ({}): {title}", covers.join(", "));
        println!("scale = {scale} of the paper's workload sizes, runs = {runs} per configuration");
        println!("{rule}");
        let sweep = sweep(experiment, scale, runs);
        (experiment.report)(&sweep);
        println!("\npaper: {paper}\n");
        for (spec, _, cells) in sweep.iter().filter(|_| experiment.gated) {
            for Cell { requirement: r, arm, summary: s, .. } in cells {
                let (name, alpha, theta) = (spec.name(), r.precision(), r.confidence());
                if failure_rate_band(s.failures, s.runs).0 > 1.0 - theta {
                    let cell = format!("{id} {name} {arm} at α = β = {alpha}, θ = {theta}");
                    violations.push(format!("{cell}: {} of {} runs failed", s.failures, s.runs));
                }
                rows.push(Json::obj([
                    ("experiment", Json::str(*id)),
                    ("workload", Json::str(name)),
                    ("arm", Json::str(*arm)),
                    ("alpha_beta", Json::num(alpha)),
                    ("theta", Json::num(theta)),
                    ("runs", Json::num(s.runs as f64)),
                    ("labels_count", Json::num(s.labels as f64)),
                    ("failures_count", Json::num(s.failures as f64)),
                    ("mean_precision", Json::num(s.precision)),
                    ("mean_recall", Json::num(s.recall)),
                    ("mean_cost_fraction", Json::num(s.cost_fraction)),
                ]));
            }
        }
    }
    for violation in &violations {
        eprintln!("[paper] failure rate above the Clopper–Pearson band of 1 − θ: {violation}");
    }

    let doc = Json::obj([
        ("schema", Json::str("humo-bench-paper/v1")),
        // A string leaf must match the baseline exactly, so a run at another
        // scale or seed count cannot pass against it.
        ("config", Json::str(format!("HUMO_SCALE={scale} HUMO_RUNS={runs}"))),
        ("rows", Json::Arr(rows)),
    ]);
    let gated = cfg.baseline().is_some();
    if !emit_and_gate(&doc, &cfg, &[]) || (gated && !violations.is_empty()) {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        for (i, experiment) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.id != experiment.id),
                "duplicate id {}",
                experiment.id
            );
        }
    }

    #[test]
    fn every_paper_figure_and_table_is_covered_exactly_once() {
        let figures = (4..=12).map(|n| format!("Figure {n}"));
        let tables = ["I", "II", "III", "IV", "V", "VI", "VII"].map(|n| format!("Table {n}"));
        for artifact in figures.chain(tables) {
            let covering: Vec<&str> = EXPERIMENTS
                .iter()
                .filter(|e| e.covers.contains(&artifact.as_str()))
                .map(|e| e.id)
                .collect();
            assert_eq!(covering.len(), 1, "{artifact} is covered by {covering:?}");
        }
    }

    #[test]
    fn an_unknown_id_lists_the_valid_ones() {
        let message = select(&["quality", "nosuch"]).err().expect("nosuch is not an experiment");
        assert!(message.contains("`nosuch`"), "{message}");
        for experiment in EXPERIMENTS {
            assert!(message.contains(experiment.id), "{message}");
        }
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked: Vec<&str> =
            select(&["runtime", "quality"]).unwrap().iter().map(|e| e.id).collect();
        assert_eq!(picked, ["quality", "runtime"], "table order");
    }
}
