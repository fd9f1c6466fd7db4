//! The common interface implemented by all HUMO optimizers.

use crate::oracle::Oracle;
use crate::session::{LabelingSession, SessionConfig};
use crate::solution::OptimizationOutcome;
use crate::Result;
use er_core::workload::Workload;

/// A HUMO optimizer: searches for a low-human-cost partition of a workload that
/// satisfies the configured quality requirement.
/// It runs as a sans-I/O [`LabelingSession`] of its [`SessionConfig`].
pub trait Optimizer {
    /// The session configuration this optimizer runs.
    fn session_config(&self) -> SessionConfig;

    /// A short human-readable name (used by the experiment harness and logs).
    fn name(&self) -> &'static str;

    /// Starts a sans-I/O [`LabelingSession`] for this optimizer over the
    /// workload — the batched, resumable alternative to
    /// [`Optimizer::optimize`] for systems whose labels arrive
    /// asynchronously (crowdsourcing, labeling UIs, queues).
    fn session<'w>(&self, workload: &'w Workload) -> Result<LabelingSession<'w>> {
        LabelingSession::new(self.session_config(), workload)
    }

    /// Runs the optimization, drawing all manual labels from `oracle`, and returns
    /// the resolved outcome (partition, labels, achieved quality and human cost).
    ///
    /// This is a driver loop over [`Optimizer::session`]: the session emits
    /// batched label requests and [`LabelingSession::drive`] answers them
    /// synchronously through [`crate::Oracle::label_batch`].
    fn optimize(
        &self,
        workload: &Workload,
        oracle: &mut dyn Oracle,
    ) -> Result<OptimizationOutcome> {
        self.session(workload)?.drive(oracle)
    }
}

/// Enumeration of the optimizer families described in the paper, used by the
/// experiment harness to select implementations by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// The conservative baseline of Section V ("BASE").
    Baseline,
    /// The all-sampling solution of Section VI-A.
    AllSampling,
    /// The partial-sampling solution of Section VI-B ("SAMP").
    PartialSampling,
    /// The hybrid approach of Section VII ("HYBR").
    Hybrid,
}

impl OptimizerKind {
    /// All optimizer kinds, in the paper's presentation order.
    pub fn all() -> [OptimizerKind; 4] {
        [
            OptimizerKind::Baseline,
            OptimizerKind::AllSampling,
            OptimizerKind::PartialSampling,
            OptimizerKind::Hybrid,
        ]
    }

    /// The abbreviation used in the paper's tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerKind::Baseline => "BASE",
            OptimizerKind::AllSampling => "ALL-SAMP",
            OptimizerKind::PartialSampling => "SAMP",
            OptimizerKind::Hybrid => "HYBR",
        }
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(OptimizerKind::Baseline.label(), "BASE");
        assert_eq!(OptimizerKind::PartialSampling.label(), "SAMP");
        assert_eq!(OptimizerKind::Hybrid.label(), "HYBR");
        assert_eq!(format!("{}", OptimizerKind::AllSampling), "ALL-SAMP");
    }
}
