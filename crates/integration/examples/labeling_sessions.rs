//! Batched, resumable human-in-the-loop optimization with sans-I/O labeling
//! sessions.
//!
//! This example plays the role of a crowdsourcing dispatcher: it starts a
//! `LabelingSession`, receives *batches* of label requests (each batch is
//! askable in parallel), "dispatches" them to a simulated worker pool,
//! checkpoints the session mid-flight from its answered-label log, rebuilds it
//! from that checkpoint, and verifies that the resumed session lands on the
//! exact outcome a fresh session driven by an oracle produces.
//!
//! Run with: `cargo run --release -p integration --example labeling_sessions`

use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{
    GroundTruthOracle, LabelRequest, LabelResponse, LabelingSession, OptimizerKind,
    QualityRequirement, SessionConfig, Step,
};

/// Pretends to be a pool of human workers answering a dispatched batch. In a
/// real deployment this is where the requests leave the process (crowdsourcing
/// tasks, a labeling UI, a queue) and responses trickle back asynchronously.
fn dispatch_to_workers(
    workload: &er_core::workload::Workload,
    requests: &[LabelRequest],
) -> Vec<LabelResponse> {
    requests
        .iter()
        .map(|request| LabelResponse {
            pair_id: request.pair_id,
            label: workload.pair(request.index).ground_truth(),
        })
        .collect()
}

fn main() {
    // A 30k-pair workload following the paper's logistic match-proportion
    // curve, and a 0.9/0.9 quality requirement at 90% confidence.
    let workload = SyntheticGenerator::new(SyntheticConfig::new(30_000, 14.0, 0.1)).generate();
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let config = SessionConfig::for_kind(OptimizerKind::Hybrid, requirement);

    println!("== phase 1: run a session batch by batch, then checkpoint ==");
    let mut session = humo::LabelingSession::new(config, &workload).unwrap();
    let mut responses = Vec::new();
    for _ in 0..6 {
        match session.step(&responses).unwrap() {
            Step::Done(_) => break,
            Step::NeedLabels(requests) => {
                println!(
                    "round {:>2} [{}]: {} pairs dispatched in parallel",
                    session.rounds(),
                    session.phase(),
                    requests.len()
                );
                responses = dispatch_to_workers(&workload, &requests);
            }
        }
    }
    // Absorb the in-flight responses, then checkpoint: the answered-label log
    // is the complete, serialization-free session snapshot.
    let _ = session.step(&responses).unwrap();
    let checkpoint: Vec<LabelResponse> = session.answered_log().to_vec();
    println!(
        "checkpoint after {} rounds: {} answered labels, phase '{}'\n",
        session.rounds(),
        checkpoint.len(),
        session.phase()
    );
    drop(session); // e.g. the process restarts here

    println!("== phase 2: resume from the checkpoint and run to completion ==");
    let mut resumed = humo::LabelingSession::resume(config, &workload, &checkpoint).unwrap();
    let mut responses = Vec::new();
    let outcome = loop {
        match resumed.step(&responses).unwrap() {
            Step::Done(outcome) => break outcome,
            Step::NeedLabels(requests) => {
                println!(
                    "round {:>2} [{}]: {} pairs dispatched in parallel",
                    resumed.rounds(),
                    resumed.phase(),
                    requests.len()
                );
                responses = dispatch_to_workers(&workload, &requests);
            }
        }
    };
    println!(
        "resumed session done: DH = [{}, {}), {} labels total, {} round-trips\n",
        outcome.solution.lower_index,
        outcome.solution.upper_index,
        outcome.total_human_cost,
        resumed.rounds()
    );

    println!("== phase 3: an oracle-driven session is the same machine ==");
    let mut oracle = GroundTruthOracle::new();
    let reference = LabelingSession::new(config, &workload).unwrap().drive(&mut oracle).unwrap();
    assert_eq!(reference.solution, outcome.solution);
    assert_eq!(reference.assignment, outcome.assignment);
    assert_eq!(reference.total_human_cost, outcome.total_human_cost);
    println!(
        "byte-identical with LabelingSession::drive: cost {} pairs ({:.1}% of the workload), \
         precision {:.3}, recall {:.3}",
        reference.total_human_cost,
        100.0 * reference.human_cost_fraction(workload.len()),
        reference.metrics.precision(),
        reference.metrics.recall()
    );
    assert!(reference.metrics.precision() >= 0.9 && reference.metrics.recall() >= 0.9);
}
