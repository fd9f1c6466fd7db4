//! Product matching (Abt-Buy style): a hard workload where machine-only
//! classification breaks down and HUMO's quality guarantees earn their keep.
//!
//! Run with:
//! ```text
//! cargo run --release -p integration --example product_matching
//! ```
//!
//! The example compares three ways of resolving a product-offer workload:
//!
//! * a pure machine classifier (linear SVM over attribute-similarity features);
//! * the precision-constrained active-learning baseline (ACTL);
//! * HUMO's hybrid optimizer with both precision and recall guarantees.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig};
use er_core::blocking::{build_workload, TokenBlocker};
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_datagen::product::{ProductConfig, ProductGenerator};
use er_ml::{ActiveLearningClassifier, ActlConfig, LinearSvm, SvmConfig, TrainTestSplit};
use humo::{GroundTruthOracle, HybridConfig, LabelingSession, QualityRequirement, SessionConfig};

fn main() {
    // 1. Two product catalogues with overlapping offers. Product duplicates are
    //    heavily corrupted (different shops describe the same product differently),
    //    which pushes matching pairs down to medium similarity values.
    let corpus = ProductGenerator::new(ProductConfig {
        num_entities: 1_200,
        duplicate_probability: 0.5,
        extra_right_entities: 1_500,
        corruption: 0.6,
        seed: 7,
    })
    .generate();
    println!(
        "catalogues: {} + {} products, {} true matches",
        corpus.left.len(),
        corpus.right.len(),
        corpus.match_count()
    );

    // 2. Blocking + scoring (product name and description, AB-style threshold 0.05).
    let blocker = TokenBlocker::new("name", Tokenizer::Words);
    let candidates = blocker.candidates(&corpus.left, &corpus.right).expect("blocking succeeds");
    let scoring = ScoringConfig::new(
        [
            ("name", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("description", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::DistinctValues,
    );
    let scorer = PairScorer::new(&scoring, &[&corpus.left, &corpus.right]).expect("valid scorer");
    let workload = build_workload(
        &corpus.left,
        &corpus.right,
        &candidates,
        &scorer,
        &corpus.ground_truth,
        0.05,
    )
    .expect("workload construction succeeds");
    println!("workload: {} pairs, {} matches\n", workload.len(), workload.total_matches());

    // 3a. Pure machine: a linear SVM on the similarity feature.
    let examples = er_ml::features::workload_examples(&workload);
    let split = TrainTestSplit::new(&examples, 0.5, 1).expect("splittable");
    let svm = LinearSvm::train(&split.train, SvmConfig::default()).expect("trainable");
    let svm_metrics = svm.evaluate(&split.test);
    println!(
        "SVM (machine only):    precision {:.3}  recall {:.3}  F1 {:.3}  human cost 0",
        svm_metrics.precision(),
        svm_metrics.recall(),
        svm_metrics.f1()
    );

    // 3b. ACTL: enforces precision only, maximizing recall.
    let actl = ActiveLearningClassifier::new(ActlConfig {
        target_precision: 0.9,
        confidence: 0.9,
        samples_per_probe: 100,
        max_probes: 20,
        seed: 5,
    })
    .expect("valid ACTL configuration");
    let actl_result = actl.run(&workload).expect("ACTL runs");
    println!(
        "ACTL (precision only): precision {:.3}  recall {:.3}  F1 {:.3}  human cost {} pairs ({:.2}%)",
        actl_result.metrics.precision(),
        actl_result.metrics.recall(),
        actl_result.metrics.f1(),
        actl_result.human_labels_used,
        100.0 * actl_result.human_cost_fraction(workload.len())
    );

    // 3c. HUMO: both precision and recall guaranteed.
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let mut config = HybridConfig::new(requirement);
    config.sampling.unit_size = 50;
    config.sampling.samples_per_subset = 15;
    let mut session = LabelingSession::new(SessionConfig::Hybrid(config), &workload).unwrap();
    let mut oracle = GroundTruthOracle::new();
    let outcome = session.drive(&mut oracle).expect("optimization succeeds");
    println!(
        "HUMO HYBR:             precision {:.3}  recall {:.3}  F1 {:.3}  human cost {} pairs ({:.2}%)",
        outcome.metrics.precision(),
        outcome.metrics.recall(),
        outcome.metrics.f1(),
        outcome.total_human_cost,
        100.0 * outcome.human_cost_fraction(workload.len())
    );

    println!(
        "\nOn product data the machine-only classifier collapses, ACTL holds precision but \
         gives up recall, and HUMO buys both guarantees with a bounded amount of manual work."
    );
}
