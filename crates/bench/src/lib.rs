//! Shared helpers for the HUMO experiment harness.
//!
//! The paper's evaluation (Section VIII) is one table-driven binary,
//! `src/bin/paper.rs`: each entry names the figures and tables it covers,
//! and one sweep runs every entry over (workload, requirement, optimizer arm,
//! seeds). `calibration_coverage` and `crowd_quality` measure the
//! θ-guarantee beyond the paper; `pipeline_throughput`, `labeling_service`
//! and `trace_check` drive the streaming engine. The binaries share the
//! workloads, the session runner and the run summaries defined here, the knob
//! parsing of [`config`] and the `BENCH_*.json` trajectory of [`trajectory`].

pub mod config;
pub mod trajectory;

pub use config::{BenchConfig, KnobError};
/// The dependency-free JSON value type now lives in `er-obs` (it backs both
/// the trace recorder and the harness baselines); re-exported here so harness
/// binaries keep their `humo_bench::json::Json` spelling.
pub use er_obs::json;
pub use er_obs::Json;

use er_core::workload::Workload;
use er_datagen::calibrated::CalibratedConfig;
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    AllSamplingConfig, GroundTruthOracle, HybridConfig, LabelingSession, OptimizationOutcome,
    Oracle, PartialSamplingConfig, QualityRequirement, SessionConfig, TailCalibration,
};

/// A workload of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// The DS-like (DBLP–Scholar) workload.
    Ds,
    /// The AB-like (Abt–Buy) workload.
    Ab,
    /// A synthetic logistic workload (paper Section VIII-A).
    Synthetic {
        /// Number of pairs.
        pairs: usize,
        /// Steepness of the logistic match-proportion curve.
        tau: f64,
        /// Irregularity of the per-subset match proportions.
        sigma: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Generates the workload; DS and AB use seed 1 at `scale` of the
    /// paper's sizes (`1.0` reproduces them).
    pub fn build(self, scale: f64) -> Workload {
        match self {
            WorkloadSpec::Ds => CalibratedConfig::ds(1).scaled(scale).generate(),
            WorkloadSpec::Ab => CalibratedConfig::ab(1).scaled(scale).generate(),
            WorkloadSpec::Synthetic { pairs, tau, sigma, seed } => {
                synthetic_workload(pairs, tau, sigma, seed)
            }
        }
    }

    /// A short label for tables and `BENCH_*.json` rows.
    pub fn name(self) -> String {
        match self {
            WorkloadSpec::Ds => "DS".into(),
            WorkloadSpec::Ab => "AB".into(),
            WorkloadSpec::Synthetic { pairs, tau, sigma, seed } => {
                format!("synthetic({pairs}, τ={tau}, σ={sigma}, seed {seed})")
            }
        }
    }
}

/// A synthetic logistic workload (paper Section VIII-A).
pub fn synthetic_workload(num_pairs: usize, tau: f64, sigma: f64, seed: u64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig { num_pairs, tau, sigma, subset_size: 200, seed })
        .generate()
}

/// Runs the optimizer session of `config` over `workload`, answering its
/// label requests from `oracle`: what [`humo::Optimizer::optimize`] does.
pub fn run(
    config: SessionConfig,
    workload: &Workload,
    oracle: &mut dyn Oracle,
) -> humo::Result<OptimizationOutcome> {
    LabelingSession::new(config, workload)?.drive(oracle)
}

/// SAMP at its defaults, drawing its samples from `seed`.
pub fn samp(requirement: QualityRequirement, seed: u64) -> SessionConfig {
    SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(seed))
}

/// HYBR at its defaults, drawing its samples from `seed`.
pub fn hybr(requirement: QualityRequirement, seed: u64) -> SessionConfig {
    SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(seed))
}

/// The tail configuration the all-sampling optimizer gets for a requested
/// `tail`: only the `enabled`/`distance_strength` knobs pass through, while
/// the ALL-specific `shortfall_baseline`, `quiet_fraction` and
/// `calibrate_lower` defaults are preserved (they are tuned to the stratified
/// estimator's 20-draw strata — ALL never extrapolates, so the lower-side
/// saturation cap stays off in its default — and overriding them would
/// silently change what the harness compares).
pub fn all_sampling_effective_tail(
    requirement: QualityRequirement,
    tail: TailCalibration,
) -> TailCalibration {
    TailCalibration {
        enabled: tail.enabled,
        distance_strength: tail.distance_strength,
        ..AllSamplingConfig::new(requirement).tail_calibration
    }
}

/// One-sided 95% Clopper–Pearson band on an observed failure rate: returns
/// `(lower, upper)` limits on the true failure probability given `failures`
/// out of `runs`. Used to separate "statistically above the nominal rate"
/// from small-sample noise.
pub fn failure_rate_band(failures: usize, runs: usize) -> (f64, f64) {
    let n = runs.max(1) as f64;
    let k = failures.min(runs) as f64;
    let lower = er_stats::clopper_pearson_lower(n, k, 0.95).unwrap_or(0.0);
    let upper = er_stats::clopper_pearson_upper(n, k, 0.95).unwrap_or(1.0);
    (lower, upper)
}

/// Aggregate of repeated runs of one optimizer configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Number of runs.
    pub runs: usize,
    /// Distinct pairs labeled by the human, summed over the runs.
    pub labels: usize,
    /// Runs that missed the precision or the recall requirement.
    pub failures: usize,
    /// Mean achieved precision.
    pub precision: f64,
    /// Mean achieved recall.
    pub recall: f64,
    /// Mean achieved F1.
    pub f1: f64,
    /// Mean human cost as a fraction of the workload.
    pub cost_fraction: f64,
}

impl RunSummary {
    /// Fraction of runs meeting both requirement levels.
    pub fn success_rate(&self) -> f64 {
        (self.runs - self.failures) as f64 / self.runs as f64
    }
}

/// Runs the session of `config(seed)` once per seed against the ground truth
/// and summarizes the outcomes against `requirement`.
///
/// # Panics
/// Panics if `seeds` is empty or a configuration is invalid.
pub fn summarize(
    workload: &Workload,
    requirement: QualityRequirement,
    seeds: &[u64],
    config: impl Fn(u64) -> SessionConfig,
) -> RunSummary {
    assert!(!seeds.is_empty(), "a summary needs at least one run");
    let mut summary = RunSummary { runs: seeds.len(), ..RunSummary::default() };
    for &seed in seeds {
        let outcome = run(config(seed), workload, &mut GroundTruthOracle::new())
            .expect("the harness configures valid optimizers");
        summary.labels += outcome.total_human_cost;
        summary.failures += usize::from(!requirement.is_satisfied_by(&outcome.metrics));
        summary.precision += outcome.metrics.precision();
        summary.recall += outcome.metrics.recall();
        summary.f1 += outcome.metrics.f1();
        summary.cost_fraction += outcome.human_cost_fraction(workload.len());
    }
    let n = seeds.len() as f64;
    summary.precision /= n;
    summary.recall /= n;
    summary.f1 /= n;
    summary.cost_fraction /= n;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_workloads_have_expected_shape() {
        let ds = WorkloadSpec::Ds.build(0.2);
        let ab = WorkloadSpec::Ab.build(0.2);
        assert!(ds.len() > 1_000);
        assert!(ab.len() > ds.len());
        assert!(ds.total_matches() > ab.total_matches());
    }

    #[test]
    fn summaries_average_over_runs() {
        let w = synthetic_workload(5_000, 14.0, 0.1, 3);
        let requirement = QualityRequirement::symmetric(0.85).unwrap();
        let summary = summarize(&w, requirement, &[0, 1, 2, 3, 4], |seed| samp(requirement, seed));
        assert_eq!(summary.runs, 5);
        let first = run(samp(requirement, 0), &w, &mut GroundTruthOracle::new()).unwrap();
        assert!(summary.labels > first.total_human_cost, "labels add up over the runs");
        assert!(summary.precision > 0.5);
        assert!(summary.cost_fraction > 0.0 && summary.cost_fraction < 1.0);
        assert!((0.0..=1.0).contains(&summary.success_rate()));
    }
}
