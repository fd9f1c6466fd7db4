//! Entity-resolution substrate used by the HUMO framework.
//!
//! This crate provides everything needed to turn raw relational records into the
//! *ER workload* the HUMO framework (crate `humo`) operates on:
//!
//! * a typed [`record`] model (records, attributes, schemas, datasets);
//! * [`text`] normalization and tokenization (words and q-grams);
//! * a library of string and numeric [`similarity`] functions (Levenshtein, Jaro,
//!   Jaro-Winkler, Jaccard, overlap, Dice, TF-cosine, Monge-Elkan);
//! * attribute-weighted [`aggregate`] similarity, with the paper's weighting rule
//!   (weights proportional to the number of distinct attribute values);
//! * [`blocking`] strategies to avoid the full cartesian product of record pairs,
//!   including an incremental token index that returns per-batch candidate
//!   deltas and spills its posting lists under a [`spill::MemoryBudget`];
//! * the [`workload`] model: similarity-scored instance pairs with ground-truth
//!   labels, label assignments, quality metrics, and the equal-count subset
//!   partitioning used by the HUMO optimizers — stored column-wise in chunked
//!   segments so cold data can overflow into the [`spill`] store under a
//!   [`spill::MemoryBudget`];
//! * the shared [`codec`] primitives (little-endian byte writer/reader,
//!   FNV-1a checksums, append-log framing) every hand-rolled on-disk format
//!   in the workspace builds on (`HSG1`/`HPG2` in [`spill`], `HAL1` in
//!   `humo::wal`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod blocking;
pub mod codec;
pub mod error;
pub mod record;
pub mod similarity;
pub mod spill;
pub mod text;
pub mod workload;

pub use aggregate::{AttributeMeasure, AttributeWeighting, PairScorer, ScoringConfig, TokenCache};
pub use error::ErError;
pub use record::{AttributeValue, Dataset, Record, RecordId, Schema};
pub use spill::{MemoryBudget, SpillStats};
pub use workload::{
    InstancePair, Label, LabelAssignment, PairId, QualityMetrics, SubsetPartition, Workload,
    WorkloadSubset,
};

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, ErError>;
