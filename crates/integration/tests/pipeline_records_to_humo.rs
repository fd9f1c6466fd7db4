//! Full-pipeline integration tests: raw records → blocking → attribute-weighted
//! similarity → HUMO, on both generated corpora (bibliographic and product).

use er_core::aggregate::{AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig};
use er_core::blocking::{build_workload, cartesian_pairs, TokenBlocker};
use er_core::record::RecordId;
use er_core::similarity::StringMeasure;
use er_core::text::Tokenizer;
use er_core::workload::Workload;
use er_datagen::bibliographic::{BibliographicConfig, BibliographicGenerator, GeneratedCorpus};
use er_datagen::product::{ProductConfig, ProductGenerator};
use humo::{GroundTruthOracle, HybridConfig, LabelingSession, QualityRequirement, SessionConfig};
use std::collections::BTreeSet;

fn bibliographic_corpus() -> GeneratedCorpus {
    BibliographicGenerator::new(BibliographicConfig {
        num_entities: 300,
        duplicate_probability: 0.6,
        extra_right_entities: 300,
        corruption: 0.3,
        seed: 5,
    })
    .generate()
}

fn bibliographic_scorer(corpus: &GeneratedCorpus) -> PairScorer {
    let scoring = ScoringConfig::new(
        [
            ("title", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("authors", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("venue", AttributeMeasure::Text(StringMeasure::JaroWinkler)),
        ],
        AttributeWeighting::DistinctValues,
    );
    PairScorer::new(&scoring, &[&corpus.left, &corpus.right]).unwrap()
}

fn bibliographic_workload(corpus: &GeneratedCorpus) -> Workload {
    let blocker = TokenBlocker::new("title", Tokenizer::Words);
    let candidates = blocker.candidates(&corpus.left, &corpus.right).unwrap();
    let scorer = bibliographic_scorer(corpus);
    build_workload(&corpus.left, &corpus.right, &candidates, &scorer, &corpus.ground_truth, 0.2)
        .unwrap()
}

#[test]
fn token_blocking_keeps_nearly_all_true_matches() {
    let corpus = bibliographic_corpus();
    let blocker = TokenBlocker::new("title", Tokenizer::Words);
    let candidates: BTreeSet<(RecordId, RecordId)> =
        blocker.candidates(&corpus.left, &corpus.right).unwrap().into_iter().collect();
    let retained = corpus.ground_truth.iter().filter(|pair| candidates.contains(pair)).count();
    let retention = retained as f64 / corpus.match_count() as f64;
    assert!(retention >= 0.95, "blocking must retain nearly all true matches, got {retention:.3}");
    // And it must prune at least part of the cartesian product. (The generated
    // titles draw from a compact vocabulary, so token blocking is deliberately
    // recall-oriented rather than aggressive here.)
    assert!(candidates.len() < cartesian_pairs(&corpus.left, &corpus.right).len());
}

#[test]
fn workload_construction_preserves_ground_truth_labels() {
    let corpus = bibliographic_corpus();
    let workload = bibliographic_workload(&corpus);
    assert!(!workload.is_empty());
    for pair in workload.pairs() {
        let left = pair.left().expect("record-level workloads carry record ids");
        let right = pair.right().expect("record-level workloads carry record ids");
        assert_eq!(pair.is_match(), corpus.ground_truth.contains(&(left, right)));
        assert!(pair.similarity() >= 0.2 - 1e-12);
    }
    // Matching record pairs concentrate at higher similarity than non-matching ones.
    let avg = |m: bool| {
        let sims: Vec<f64> =
            workload.pairs().iter().filter(|p| p.is_match() == m).map(|p| p.similarity()).collect();
        sims.iter().sum::<f64>() / sims.len().max(1) as f64
    };
    assert!(avg(true) > avg(false) + 0.2);
}

#[test]
fn humo_resolves_the_bibliographic_pipeline_with_guarantees() {
    let corpus = bibliographic_corpus();
    let workload = bibliographic_workload(&corpus);
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let mut config = HybridConfig::new(requirement);
    config.sampling.unit_size = 25;
    config.sampling.samples_per_subset = 10;
    let mut session = LabelingSession::new(SessionConfig::Hybrid(config), &workload).unwrap();
    let mut oracle = GroundTruthOracle::new();
    let outcome = session.drive(&mut oracle).unwrap();
    assert!(outcome.metrics.precision() >= 0.9, "precision {}", outcome.metrics.precision());
    assert!(outcome.metrics.recall() >= 0.9, "recall {}", outcome.metrics.recall());
    assert!(outcome.total_human_cost < workload.len());
}

#[test]
fn humo_resolves_the_product_pipeline_with_guarantees() {
    let corpus = ProductGenerator::new(ProductConfig {
        num_entities: 300,
        duplicate_probability: 0.5,
        extra_right_entities: 350,
        corruption: 0.6,
        seed: 9,
    })
    .generate();
    let blocker = TokenBlocker::new("name", Tokenizer::Words);
    let candidates = blocker.candidates(&corpus.left, &corpus.right).unwrap();
    let scoring = ScoringConfig::new(
        [
            ("name", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("description", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::DistinctValues,
    );
    let scorer = PairScorer::new(&scoring, &[&corpus.left, &corpus.right]).unwrap();
    let workload = build_workload(
        &corpus.left,
        &corpus.right,
        &candidates,
        &scorer,
        &corpus.ground_truth,
        0.05,
    )
    .unwrap();
    assert!(workload.total_matches() > 0);

    let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
    let mut config = HybridConfig::new(requirement);
    config.sampling.unit_size = 25;
    config.sampling.samples_per_subset = 10;
    let mut session = LabelingSession::new(SessionConfig::Hybrid(config), &workload).unwrap();
    let mut oracle = GroundTruthOracle::new();
    let outcome = session.drive(&mut oracle).unwrap();
    assert!(outcome.metrics.precision() >= 0.85, "precision {}", outcome.metrics.precision());
    assert!(outcome.metrics.recall() >= 0.85, "recall {}", outcome.metrics.recall());
}

#[test]
fn product_workloads_need_more_human_work_than_bibliographic_ones() {
    // The record-level analogue of "AB is harder than DS" (Figure 6): at the same
    // requirement, the product pipeline should hand a larger fraction of its
    // workload to the human than the bibliographic pipeline.
    let bib_corpus = bibliographic_corpus();
    let bib_workload = bibliographic_workload(&bib_corpus);

    let product_corpus = ProductGenerator::new(ProductConfig {
        num_entities: 300,
        duplicate_probability: 0.6,
        extra_right_entities: 300,
        corruption: 0.6,
        seed: 5,
    })
    .generate();
    let blocker = TokenBlocker::new("name", Tokenizer::Words);
    let candidates = blocker.candidates(&product_corpus.left, &product_corpus.right).unwrap();
    let scoring = ScoringConfig::new(
        [
            ("name", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
            ("description", AttributeMeasure::Text(StringMeasure::Jaccard(Tokenizer::Words))),
        ],
        AttributeWeighting::DistinctValues,
    );
    let scorer = PairScorer::new(&scoring, &[&product_corpus.left, &product_corpus.right]).unwrap();
    let product_workload = build_workload(
        &product_corpus.left,
        &product_corpus.right,
        &candidates,
        &scorer,
        &product_corpus.ground_truth,
        0.05,
    )
    .unwrap();

    let fraction = |workload: &Workload| {
        let requirement = QualityRequirement::new(0.85, 0.85, 0.9).unwrap();
        let mut config = HybridConfig::new(requirement);
        config.sampling.unit_size = 25;
        config.sampling.samples_per_subset = 10;
        let mut session = LabelingSession::new(SessionConfig::Hybrid(config), workload).unwrap();
        let mut oracle = GroundTruthOracle::new();
        let outcome = session.drive(&mut oracle).unwrap();
        outcome.human_cost_fraction(workload.len())
    };
    let bib = fraction(&bib_workload);
    let product = fraction(&product_workload);
    assert!(
        product > bib,
        "product matching ({product:.3}) should need a larger human fraction than \
         bibliographic matching ({bib:.3})"
    );
}
