//! `hybr_session`: HYBR at 0.9/0.9 on independently generated Abt-Buy-like
//! calibrated workloads, one session after another, each stepped through
//! `LabelingSession` with whole-batch answers. No ingest: the resolve layers
//! do all of the work.

use crate::common::{
    answer, fold_digests, labeling_step, outcome_digest, requirement, Ctx, Summary,
};
use er_core::record::RecordId;
use er_core::workload::Workload;
use er_datagen::calibrated::CalibratedConfig;
use er_pipeline::{EntityClusters, RecordKey, Side};
use humo::crowd::mix;
use humo::{HybridConfig, LabelingSession, SessionConfig, Step};
use std::time::Instant;

/// Sessions per iteration, each on a workload generated from its own seed, so
/// that one seed's draw weighs little in the iteration's time, and so that an
/// iteration takes well over the 1000 turns its p99 needs.
const SESSIONS: u64 = 20;
/// Share of the full Abt-Buy-like workload (313,040 pairs, 1,085 matches) each
/// session resolves.
const SCALE: f64 = 0.0625;

/// One session's workload and its ground-truth entities.
struct Session {
    workload: Workload,
    truth: EntityClusters,
}

pub struct Input {
    sessions: Vec<Session>,
}

/// A calibrated pair has no records: it stands for one left and one right
/// record of its own, so its entity is the pair itself.
fn pair_edge(id: u64) -> (RecordKey, RecordKey) {
    ((Side::Left, RecordId(id)), (Side::Right, RecordId(id)))
}

pub fn setup(seed: u64, ctx: &mut Ctx) -> Result<Input, String> {
    let sessions = (0..SESSIONS)
        .map(|k| {
            let start = Instant::now();
            let mut workload = CalibratedConfig::ab(mix(seed, k)).scaled(SCALE).generate();
            let truth = EntityClusters::from_edges(
                [],
                workload.iter().filter(|p| p.is_match()).map(|p| pair_edge(p.id().0)),
            );
            ctx.tracer.end("datagen", start);
            workload.set_obs(ctx.obs());
            Session { workload, truth }
        })
        .collect();
    Ok(Input { sessions })
}

pub fn run(input: Input, ctx: &mut Ctx) -> Result<Summary, String> {
    let mut summary = Summary::new();
    for session in input.sessions {
        resolve(session, &mut summary, ctx)?;
    }
    ctx.committed();
    summary.digest = fold_digests(&summary.parts);
    Ok(summary)
}

/// Runs one session to its outcome and pools the outcome into `summary`.
fn resolve(input: Session, summary: &mut Summary, ctx: &mut Ctx) -> Result<(), String> {
    let Session { workload, truth } = input;
    let config = SessionConfig::Hybrid(HybridConfig::new(requirement()));
    let start = Instant::now();
    let created = LabelingSession::new(config, &workload);
    ctx.tracer.end("session.begin", start);
    let mut session = ctx.ops.record("begin", created)?;
    let mut responses = Vec::new();
    let outcome = loop {
        ctx.between_turns();
        let (step, secs) = labeling_step(&mut session, &responses, ctx)?;
        ctx.turns_ms.push(secs * 1e3);
        match step {
            Step::Done(outcome) => break outcome,
            Step::NeedLabels(requests) => {
                let start = Instant::now();
                responses = answer(&workload, &requests);
                ctx.tracer.end("labeler", start);
            }
        }
    };
    // Commit the outcome as entities, as the engine does when a session
    // completes.
    let start = Instant::now();
    let predicted = EntityClusters::from_edges(
        [],
        workload
            .iter()
            .zip(outcome.assignment.labels())
            .filter(|(_, label)| label.is_match())
            .map(|(pair, _)| pair_edge(pair.id().0)),
    );
    let clusters = predicted.pairwise_metrics(&truth);
    ctx.tracer.end("cluster", start);

    ctx.count("session.plan_rounds", session.plan_rounds() as f64);
    ctx.count("session.refine_rounds", session.refine_rounds() as f64);
    let labels = outcome.total_human_cost;
    summary.add(labels, session.rounds(), labels as u64, outcome.metrics);
    summary.add_clusters(clusters);
    summary.parts.push(outcome_digest(&outcome));
    Ok(())
}
