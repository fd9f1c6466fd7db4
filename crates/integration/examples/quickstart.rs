//! Quickstart: enforce precision/recall guarantees on a synthetic ER workload.
//!
//! Run with:
//! ```text
//! cargo run --release -p integration --example quickstart
//! ```
//!
//! The example generates a pair-level workload whose match proportion follows the
//! paper's logistic curve, then runs all three HUMO optimizers (BASE, SAMP, HYBR)
//! against the same quality requirement and prints the achieved quality and the
//! human cost of each.

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    BaselineConfig, GroundTruthOracle, HybridConfig, LabelingSession, OptimizerKind,
    PartialSamplingConfig, QualityRequirement, SessionConfig,
};

fn main() {
    // 1. An ER workload: 50 000 instance pairs, each with a machine-computed
    //    similarity and a (hidden) ground-truth label. In a real deployment this
    //    comes out of your blocking + similarity pipeline (see the other examples);
    //    here we use the paper's synthetic generator.
    let workload = SyntheticGenerator::new(SyntheticConfig::new(50_000, 14.0, 0.1)).generate();
    println!("workload: {} pairs, {} true matches", workload.len(), workload.total_matches());

    // 2. The quality requirement: precision >= 0.9 and recall >= 0.9, each with
    //    90% confidence.
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).expect("valid requirement");
    println!("requirement: {requirement}\n");

    // 3. Run the three optimizers. The oracle simulates the human workforce; it
    //    answers with ground-truth labels and counts every distinct pair it is
    //    asked about — that count is the human cost HUMO minimizes.
    let optimizers = [
        (OptimizerKind::Baseline, SessionConfig::Baseline(BaselineConfig::new(requirement))),
        (
            OptimizerKind::PartialSampling,
            SessionConfig::PartialSampling(PartialSamplingConfig::new(requirement).with_seed(3)),
        ),
        (OptimizerKind::Hybrid, SessionConfig::Hybrid(HybridConfig::new(requirement).with_seed(3))),
    ];

    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>14} {:>12}",
        "method", "precision", "recall", "human pairs", "human cost %", "DH interval"
    );
    let mut met = 0usize;
    for (kind, config) in optimizers {
        let mut session = LabelingSession::new(config, &workload).expect("valid configuration");
        let mut oracle = GroundTruthOracle::new();
        let outcome = session.drive(&mut oracle).expect("optimization succeeds");
        let interval = outcome
            .solution
            .human_similarity_interval(&workload)
            .map(|(lo, hi)| format!("[{lo:.2},{hi:.2}]"))
            .unwrap_or_else(|| "-".to_string());
        let satisfied = requirement.is_satisfied_by(&outcome.metrics);
        met += usize::from(satisfied);
        println!(
            "{:<6} {:>10.4} {:>10.4} {:>12} {:>13.2}% {:>12} {}",
            kind.label(),
            outcome.metrics.precision(),
            outcome.metrics.recall(),
            outcome.total_human_cost,
            100.0 * outcome.human_cost_fraction(workload.len()),
            interval,
            if satisfied { "met" } else { "missed" }
        );
    }

    println!(
        "\n{met}/{} met the requirement on this run (the sampling-based guarantees are \
         probabilistic at confidence 0.90); the methods differ in how much manual \
         verification they need.",
        optimizers.len()
    );
}
