//! Sampling-based optimizers (Section VI of the paper).
//!
//! Both optimizers divide the workload into equal-count, similarity-ordered
//! subsets and reason about the number of matching pairs in *unions of subsets*:
//!
//! * [`AllSamplingConfig`] samples every subset and aggregates the per-subset
//!   estimates with stratified-sampling theory (Section VI-A, Eq. 12–14);
//! * [`PartialSamplingConfig`] — the paper's "SAMP" — samples only a small
//!   fraction of the subsets, approximates the match-proportion function with a
//!   Gaussian process (Algorithm 1), and derives bounds from the GP posterior
//!   (Section VI-B, Eq. 15–21).
//!
//! The two share the bound-search procedure (first fix `DH`'s lower bound to meet
//! the recall requirement, then its upper bound to meet precision), expressed
//! over a [`MatchCountEstimator`] so the same search drives both estimators.

mod all;
mod calibrated;
mod estimator;
mod gp_estimator;
mod partial;
mod sampler;
mod warm;

pub use all::AllSamplingConfig;
pub(crate) use calibrated::{censored_proportion_lower, censored_proportion_upper};
pub use calibrated::{CalibratedEstimator, ShortfallBaseline, TailCalibration};
pub use estimator::{search_subset_bounds, MatchCountEstimator, StratifiedCountEstimator};
pub use gp_estimator::GpCountEstimator;
pub(crate) use partial::GpTrainingState;
pub use partial::{PartialSamplingConfig, RefitStrategy, SamplingPlan, SELECTION_WARMUP};
pub use warm::{PriorObservation, WarmStart};
