//! The optimizer families of the paper. Each runs as a
//! [`LabelingSession`](crate::LabelingSession) of its
//! [`SessionConfig`](crate::SessionConfig) variant.

/// Enumeration of the optimizer families described in the paper, used by the
/// experiment harness to select implementations by name (see
/// [`SessionConfig::for_kind`](crate::SessionConfig::for_kind)).
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
