//! HUMO — a HUman and Machine cOoperation framework for entity resolution with
//! quality guarantees.
//!
//! This crate is a from-scratch implementation of the framework described in
//! *"Enabling Quality Control for Entity Resolution: A Human and Machine
//! Cooperation Framework"* (Chen et al., ICDE 2018). Given an ER workload of
//! instance pairs scored by a machine metric (pair similarity, SVM distance,
//! match probability, …), HUMO divides the metric axis into three zones:
//!
//! ```text
//!     0 ──────────── v⁻ ═════════════ v⁺ ──────────── 1
//!        D⁻ (machine:          DH             D⁺ (machine:
//!        label unmatch)   (human verifies)    label match)
//! ```
//!
//! and chooses `v⁻`/`v⁺` so that user-specified **precision** (α), **recall** (β)
//! and **confidence** (θ) requirements are met while the number of manually
//! verified pairs — the human cost — is minimized.
//!
//! Three optimizers are provided, mirroring the paper, each selected by a
//! [`SessionConfig`] variant holding its configuration:
//!
//! * [`BaselineConfig`] (Section V, "BASE") — conservative, relies only on
//!   the monotonicity-of-precision assumption, guarantees the requirement with
//!   100 % confidence when monotonicity holds;
//! * [`PartialSamplingConfig`] (Section VI-B, "SAMP") — samples a small
//!   fraction of similarity-ordered subsets, fits a Gaussian-process regression
//!   of the match-proportion function, and derives confidence bounds from the GP
//!   posterior; [`AllSamplingConfig`] (Section VI-A, "ALL-SAMP") is the simpler
//!   variant that samples every subset;
//! * [`HybridConfig`] (Section VII, "HYBR") — starts from a SAMP solution and
//!   shrinks the human region using the better of the baseline and sampling
//!   estimates at every step.
//!
//! Every optimizer runs as a sans-I/O **labeling session**
//! ([`LabelingSession`]): a resumable state machine that emits *batches* of
//! label requests (whole subset samples, whole boundary probes, the full human
//! region for final verification) and is driven with responses — the shape a
//! production system needs when labels come from real people asynchronously.
//! [`LabelingSession::drive`] answers every batch from a synchronous
//! [`Oracle`]. [`SessionState`] is the one session core every wrapper
//! dereferences or delegates to; see the [`session`] module docs.
//!
//! All three sampling-based optimizers route their count bounds through the
//! two-sided tail-calibrated estimator ([`sampling::CalibratedEstimator`]):
//! one-sided binomial detection limits keep the recall guarantee honest on
//! flat match-proportion curves (all-negative samples cannot certify
//! emptiness) and the precision guarantee honest on mid-steep curves
//! (near-pure samples cannot certify `p = 1`), where the raw GP/stratified
//! bounds are overconfident (see the module docs of [`sampling`] and the
//! `calibration_coverage` harness in the bench crate).
//!
//! # Quick example
//!
//! ```
//! use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};
//! use humo::{GroundTruthOracle, HybridConfig, LabelingSession, QualityRequirement, SessionConfig};
//!
//! // A 20k-pair workload whose match proportion follows the paper's logistic curve.
//! let workload = SyntheticGenerator::new(SyntheticConfig::new(20_000, 14.0, 0.1)).generate();
//!
//! // Require precision >= 0.9 and recall >= 0.9 with 90% confidence.
//! let requirement = QualityRequirement::new(0.9, 0.9, 0.9).unwrap();
//! let config = SessionConfig::Hybrid(HybridConfig::new(requirement));
//!
//! let mut oracle = GroundTruthOracle::new();
//! let outcome = LabelingSession::new(config, &workload).unwrap().drive(&mut oracle).unwrap();
//!
//! assert!(outcome.metrics.precision() >= 0.9);
//! assert!(outcome.metrics.recall() >= 0.9);
//! println!(
//!     "human cost: {} pairs ({:.1}% of the workload)",
//!     outcome.total_human_cost,
//!     100.0 * outcome.human_cost_fraction(workload.len())
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod crowd;
pub mod error;
pub mod hybrid;
pub mod optimizer;
pub mod oracle;
pub mod requirement;
pub mod sampling;
pub mod session;
pub mod solution;
pub mod wal;

pub use baseline::{BaselineConfig, InitialBoundary};
pub use crowd::{
    symmetric_pool, Aggregation, CrowdOracle, CrowdSession, CrowdStats, EmConfig, Redundancy,
    VoteRequest, WorkerId, WorkerModel, WorkerVote,
};
pub use error::HumoError;
pub use hybrid::HybridConfig;
pub use optimizer::OptimizerKind;
pub use oracle::{GroundTruthOracle, NoisyOracle, Oracle};
pub use requirement::QualityRequirement;
pub use sampling::{
    AllSamplingConfig, CalibratedEstimator, PartialSamplingConfig, PriorObservation,
    ShortfallBaseline, TailCalibration, WarmStart,
};
pub use session::{
    answer_requests, LabelRequest, LabelResponse, LabelingSession, SessionConfig, SessionPhase,
    SessionState, Step,
};
pub use solution::{HumoSolution, OptimizationOutcome};
pub use wal::{DurableSession, WalRecord, WalRecovery, WalWriter};

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, HumoError>;
