//! `er-pipeline` — a streaming, parallel, end-to-end entity-resolution engine
//! on top of the HUMO reproduction.
//!
//! The paper frames HUMO as a one-shot batch optimization over a fixed,
//! similarity-ordered workload. A production resolution system is a *process*:
//! records arrive over time, candidate pairs must be maintained incrementally,
//! scoring must use all cores, and pair labels must be turned into actual
//! entities. This crate supplies that missing machinery:
//!
//! * [`engine::ResolutionEngine`] — ingest record batches through `er-core`'s
//!   incremental blocking index, score only the delta candidate pairs — with
//!   each record tokenized once at ingest into sets of interned token ids
//!   ([`er_core::aggregate::TokenCache`]), so set similarities are one merge
//!   of two sorted id sets — and maintain the
//!   similarity-sorted workload under insertion (`Workload::insert_sorted`);
//! * [`pool::WorkerPool`] — a hand-rolled `std::thread` chunk-sharded map used
//!   for parallel pair scoring (the environment is offline, so no `rayon`),
//!   with balanced chunk sizes;
//! * out-of-core operation — [`engine::PipelineConfig::memory_budget`] caps
//!   resident workload pairs and posting-list entries; past the budget, cold
//!   workload segments and frozen posting generations overflow into
//!   `er-core`'s spill store ([`er_core::spill`]) with **byte-identical**
//!   resolution results (residency never affects computed values);
//! * warm-started re-optimization — each resolution epoch seeds the SAMP
//!   optimizer from the previous epoch's samples
//!   ([`humo::sampling::WarmStart`]), so incremental re-resolution costs far
//!   less human budget than starting from scratch;
//! * [`cluster::EntityClusters`] — union-find transitive closure of
//!   match-labeled pairs into entities, with cluster-level pairwise
//!   precision/recall alongside the existing pair-level metrics;
//! * sans-I/O resolution sessions — [`ResolutionEngine::begin_resolve`]
//!   returns a [`ResolutionSession`] that emits batched label requests and is
//!   driven with responses (the engine-side twin of
//!   [`humo::LabelingSession`]: a thin wrapper that dereferences to its
//!   [`humo::SessionState`], which owns the rounds and the all-human
//!   fallback), so resolution does not require a blocking
//!   oracle in hand: labels can come from crowdsourcing dispatch, labeling
//!   UIs, or a checkpoint/resume loop, and the engine's label store keeps
//!   later epochs from re-asking answered pairs.
//!
//! See the `streaming_dedup` example (crate `integration`) for an end-to-end
//! batch-arrival walkthrough and the `pipeline_throughput` bench binary for
//! ingest/resolve throughput, parallel speedup and warm-start savings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod error;
pub mod pool;

pub use cluster::{EntityClusters, RecordKey, Side};
pub use engine::{
    IngestReport, PipelineConfig, ResolutionEngine, ResolutionReport, ResolutionSession,
    ResolutionStep, SpillReport,
};
pub use error::PipelineError;
pub use pool::WorkerPool;

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, PipelineError>;
