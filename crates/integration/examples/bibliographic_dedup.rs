//! Bibliographic matching end to end: records → blocking → similarity → HUMO.
//!
//! Run with:
//! ```text
//! cargo run --release -p integration --example bibliographic_dedup
//! ```
//!
//! This is the DBLP-Scholar-style scenario of the paper's evaluation: two
//! publication datasets (one curated, one noisy) must be linked. The example
//! walks through the full pipeline on generated corpora:
//!
//! 1. generate the two record datasets plus the ground truth;
//! 2. block candidate pairs on shared title tokens;
//! 3. score the candidates with an attribute-weighted similarity (Jaccard on
//!    titles and authors, Jaro-Winkler on venues — the paper's configuration);
//! 4. hand the resulting workload to HUMO with a (precision, recall, confidence)
//!    requirement and inspect the outcome.

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig};
use er_core::blocking::{build_workload, TokenBlocker};
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator};
use humo::{GroundTruthOracle, HybridConfig, LabelingSession, QualityRequirement, SessionConfig};

fn main() {
    // 1. Two publication corpora with overlapping entities.
    let corpus = BibliographicGenerator::new(BibliographicConfig {
        num_entities: 1_500,
        duplicate_probability: 0.6,
        extra_right_entities: 1_500,
        corruption: 0.35,
        seed: 42,
    })
    .generate();
    println!(
        "left dataset: {} records, right dataset: {} records, true duplicates: {}",
        corpus.left.len(),
        corpus.right.len(),
        corpus.match_count()
    );

    // 2. Token blocking on titles keeps the candidate set manageable.
    let blocker = TokenBlocker::new("title", Tokenizer::Words);
    let candidates = blocker.candidates(&corpus.left, &corpus.right).expect("blocking succeeds");
    println!(
        "blocking: {} candidate pairs (vs {} in the cartesian product)",
        candidates.len(),
        corpus.left.len() * corpus.right.len()
    );

    // 3. Attribute-weighted pair similarity, weights proportional to the number of
    //    distinct attribute values (the paper's weighting rule).
    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::DistinctValues,
    );
    let scorer = PairScorer::new(&scoring, &[&corpus.left, &corpus.right]).expect("valid scorer");

    // The paper filters DS pairs below similarity 0.2 during blocking.
    let workload = build_workload(
        &corpus.left,
        &corpus.right,
        &candidates,
        &scorer,
        &corpus.ground_truth,
        0.2,
    )
    .expect("workload construction succeeds");
    println!(
        "workload after the 0.2 similarity threshold: {} pairs, {} matches\n",
        workload.len(),
        workload.total_matches()
    );

    // 4. HUMO with a symmetric 0.9/0.9 requirement at 90% confidence, using the
    //    hybrid optimizer (the paper's best performer). Smaller workloads need a
    //    smaller subset size than the paper's 200-pair default.
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let mut config = HybridConfig::new(requirement);
    config.sampling.unit_size = 50;
    config.sampling.samples_per_subset = 15;
    let mut session = LabelingSession::new(SessionConfig::Hybrid(config), &workload).unwrap();
    let mut oracle = GroundTruthOracle::new();
    let outcome = session.drive(&mut oracle).expect("optimization succeeds");

    println!("HYBR outcome:");
    println!("  precision           {:.4}", outcome.metrics.precision());
    println!("  recall              {:.4}", outcome.metrics.recall());
    println!("  F1                  {:.4}", outcome.metrics.f1());
    println!("  pairs for the human {}", outcome.total_human_cost);
    println!(
        "  human cost          {:.2}% of the workload",
        100.0 * outcome.human_cost_fraction(workload.len())
    );
    if let Some((lo, hi)) = outcome.solution.human_similarity_interval(&workload) {
        println!("  human region        similarity in [{lo:.3}, {hi:.3}]");
    }
}
