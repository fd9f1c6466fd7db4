//! Dataset and workload generators for the HUMO reproduction.
//!
//! Three families of generators are provided:
//!
//! * [`synthetic`] — the paper's synthetic workload generator: pair similarities
//!   spread over `[0, 1]` whose match proportion follows the logistic curve of
//!   Eq. 22, with a steepness parameter `τ` and an irregularity parameter `σ`;
//! * [`calibrated`] — pair-level workloads calibrated to the statistics the paper
//!   reports for its two real datasets (DBLP-Scholar and Abt-Buy): total pair
//!   count, number of matching pairs, blocking threshold and the match-similarity
//!   distribution shapes of Fig. 4. These stand in for the original datasets,
//!   which are external downloads this repository does not fetch: the
//!   generators match their reported statistics, which preserves the
//!   experimental conditions HUMO is sensitive to;
//! * [`bibliographic`] / [`product`] — record-level corpus generators with
//!   controlled corruption and duplicate injection, used to exercise the full
//!   records → blocking → scoring → HUMO pipeline end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bibliographic;
pub mod calibrated;
pub mod corrupt;
pub mod product;
pub mod rng;
pub mod synthetic;

pub use bibliographic::{BibliographicConfig, BibliographicGenerator, GeneratedCorpus};
pub use calibrated::{ab_like, ds_like, CalibratedConfig, MatchSimilarityModel};
pub use product::{ProductConfig, ProductGenerator};
pub use synthetic::{logistic_match_proportion, SyntheticConfig, SyntheticGenerator};
