//! Golden outcomes: BASE, ALL, SAMP and HYBR driven through
//! `LabelingSession::drive` with a ground-truth oracle must reproduce the
//! exact partition, costs, round count and final assignment recorded below.
//!
//! The constants pin the bytes of every optimizer, ALL included, so a
//! refactor of the estimation layer (estimator construction, GP selection,
//! bound sweeps) cannot move a plan without this test failing.

use er_core::codec::fnv1a;
use er_core::workload::{Label, Workload};
use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
use humo::{GroundTruthOracle, LabelingSession, OptimizerKind, QualityRequirement, SessionConfig};

/// `(lower_index, upper_index, total_human_cost, sampling_cost, rounds,
/// fnv1a of the assignment's label bytes)` of one driven session.
type Golden = (usize, usize, usize, usize, usize, u64);

fn workload(tau: f64) -> Workload {
    SyntheticGenerator::new(SyntheticConfig {
        num_pairs: 8_000,
        tau,
        sigma: 0.1,
        subset_size: 200,
        seed: 1,
    })
    .generate()
}

fn drive(kind: OptimizerKind, w: &Workload) -> Golden {
    let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
    let mut session = LabelingSession::new(SessionConfig::for_kind(kind, requirement), w).unwrap();
    let outcome = session.drive(&mut GroundTruthOracle::new()).unwrap();
    let bytes: Vec<u8> = outcome
        .assignment
        .labels()
        .iter()
        .map(|&label| match label {
            Label::Match => 1,
            Label::Unmatch => 0,
        })
        .collect();
    (
        outcome.solution.lower_index,
        outcome.solution.upper_index,
        outcome.total_human_cost,
        outcome.sampling_cost,
        session.rounds(),
        fnv1a(&bytes),
    )
}

fn check(tau: f64, expected: [(OptimizerKind, Golden); 4]) {
    let w = workload(tau);
    let mut mismatches = Vec::new();
    for (kind, golden) in expected {
        let got = drive(kind, &w);
        if got != golden {
            mismatches.push(format!("{kind:?} at tau {tau}: got {got:?}, expected {golden:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn outcomes_at_tau_8_match_the_recorded_constants() {
    check(
        8.0,
        [
            (OptimizerKind::Baseline, (2189, 6389, 4200, 0, 12, 12530150735943581916)),
            (OptimizerKind::AllSampling, (3200, 6200, 3500, 500, 2, 8760228948873823124)),
            (OptimizerKind::PartialSampling, (3600, 6000, 3700, 1300, 17, 774602200664767703)),
            (OptimizerKind::Hybrid, (3600, 6000, 3700, 1300, 23, 774602200664767703)),
        ],
    );
}

#[test]
fn outcomes_at_tau_14_match_the_recorded_constants() {
    check(
        14.0,
        [
            (OptimizerKind::Baseline, (2589, 6189, 3600, 0, 11, 15871529900387609046)),
            (OptimizerKind::AllSampling, (3800, 5400, 2240, 640, 2, 4949600004260107144)),
            (OptimizerKind::PartialSampling, (4400, 5200, 2400, 1600, 17, 15540453235775660007)),
            (OptimizerKind::Hybrid, (4400, 5200, 2400, 1600, 19, 15540453235775660007)),
        ],
    );
}
