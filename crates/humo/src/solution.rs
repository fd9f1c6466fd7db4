//! HUMO solutions and optimization outcomes.
//!
//! A [`HumoSolution`] is the pair of boundary positions `(v⁻, v⁺)` expressed as
//! indices into the similarity-sorted workload: everything below the lower index
//! is `D⁻` (machine-labeled unmatch), everything at or above the upper index is
//! `D⁺` (machine-labeled match) and the half-open range in between is `DH`, the
//! region handed to the human.

use er_core::workload::{Label, LabelAssignment, QualityMetrics, Workload};

/// A HUMO partition of a workload, expressed as workload indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HumoSolution {
    /// First index of the human region `DH` (also the exclusive end of `D⁻`).
    pub lower_index: usize,
    /// Exclusive end of the human region `DH` (also the first index of `D⁺`).
    pub upper_index: usize,
}

impl HumoSolution {
    /// Creates a solution, clamping and ordering the indices against the workload size.
    pub fn new(lower_index: usize, upper_index: usize, workload_len: usize) -> Self {
        let lower = lower_index.min(workload_len);
        let upper = upper_index.clamp(lower, workload_len);
        Self { lower_index: lower, upper_index: upper }
    }

    /// The solution that assigns the entire workload to the human (`DH = D`).
    pub fn all_human(workload_len: usize) -> Self {
        Self { lower_index: 0, upper_index: workload_len }
    }

    /// The solution that assigns nothing to the human and splits `D⁻`/`D⁺` at the
    /// given index (a pure machine threshold classifier).
    pub fn machine_only(threshold_index: usize, workload_len: usize) -> Self {
        let t = threshold_index.min(workload_len);
        Self { lower_index: t, upper_index: t }
    }

    /// Number of pairs in `D⁻`.
    pub fn machine_negative_size(&self) -> usize {
        self.lower_index
    }

    /// Number of pairs in `DH` — the verification part of the human cost.
    pub fn human_region_size(&self) -> usize {
        self.upper_index - self.lower_index
    }

    /// Number of pairs in `D⁺` given the workload length.
    pub fn machine_positive_size(&self, workload_len: usize) -> usize {
        workload_len - self.upper_index
    }

    /// The index range of the human region.
    pub fn human_range(&self) -> std::ops::Range<usize> {
        self.lower_index..self.upper_index
    }

    /// The similarity interval `[v⁻, v⁺]` covered by the human region, if it is
    /// non-empty.
    pub fn human_similarity_interval(&self, workload: &Workload) -> Option<(f64, f64)> {
        if self.human_region_size() == 0 || workload.is_empty() {
            return None;
        }
        Some((
            workload.similarity_at(self.lower_index),
            workload.similarity_at(self.upper_index - 1),
        ))
    }

    /// Resolves the workload under this solution: `D⁻` is labeled unmatch,
    /// `D⁺` match, and every pair of `DH` gets its manual label from
    /// `lookup`, called once per `DH` index in ascending order. This is the
    /// final-verification path of the sans-I/O labeling sessions, which read
    /// the labels from their answered-response log.
    pub fn resolve_from_labels(
        &self,
        workload: &Workload,
        mut lookup: impl FnMut(usize) -> Label,
    ) -> LabelAssignment {
        let mut assignment = LabelAssignment::all_unmatch(workload.len());
        for idx in self.human_range() {
            assignment.set(idx, lookup(idx));
        }
        for idx in self.upper_index..workload.len() {
            assignment.set(idx, Label::Match);
        }
        assignment
    }
}

/// The result of running a HUMO optimizer on a workload, built by the
/// labeling session that ran it.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The chosen partition.
    pub solution: HumoSolution,
    /// The final label assignment (machine labels plus manual labels on `DH`).
    pub assignment: LabelAssignment,
    /// Achieved quality against the ground truth.
    pub metrics: QualityMetrics,
    /// Number of pairs in `DH` (manual verification cost).
    pub verification_cost: usize,
    /// Distinct manually labeled pairs that ended up *outside* `DH` (sampling /
    /// estimation overhead).
    pub sampling_cost: usize,
    /// Total human cost: distinct pairs labeled over the whole session.
    pub total_human_cost: usize,
}

impl OptimizationOutcome {
    /// Human cost as a fraction of the workload size (the "percentage of manual
    /// work" reported throughout the paper's evaluation).
    pub fn human_cost_fraction(&self, workload_len: usize) -> f64 {
        if workload_len == 0 {
            0.0
        } else {
            self.total_human_cost as f64 / workload_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use crate::{
        BaselineConfig, InitialBoundary, LabelResponse, LabelingSession, QualityRequirement,
        SessionConfig, SessionState,
    };

    fn workload() -> Workload {
        // 10 pairs, matches at high similarity plus one low-similarity match.
        Workload::from_scores(vec![
            (0.05, false),
            (0.15, true),
            (0.25, false),
            (0.35, false),
            (0.45, false),
            (0.55, true),
            (0.65, false),
            (0.75, true),
            (0.85, true),
            (0.95, true),
        ])
        .unwrap()
    }

    #[test]
    fn new_clamps_and_orders_indices() {
        let s = HumoSolution::new(8, 3, 10);
        assert_eq!(s.lower_index, 8);
        assert_eq!(s.upper_index, 8);
        let s = HumoSolution::new(3, 99, 10);
        assert_eq!(s.upper_index, 10);
    }

    #[test]
    fn region_sizes_add_up() {
        let s = HumoSolution::new(2, 7, 10);
        assert_eq!(s.machine_negative_size(), 2);
        assert_eq!(s.human_region_size(), 5);
        assert_eq!(s.machine_positive_size(10), 3);
        assert_eq!(
            s.machine_negative_size() + s.human_region_size() + s.machine_positive_size(10),
            10
        );
    }

    #[test]
    fn similarity_interval_reflects_boundaries() {
        let w = workload();
        let s = HumoSolution::new(2, 7, w.len());
        let (lo, hi) = s.human_similarity_interval(&w).unwrap();
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 0.65).abs() < 1e-12);
        assert!(HumoSolution::machine_only(5, w.len()).human_similarity_interval(&w).is_none());
    }

    #[test]
    fn resolve_labels_regions_correctly() {
        let w = workload();
        let s = HumoSolution::new(3, 7, w.len());
        let mut oracle = GroundTruthOracle::new();
        let assignment = s.resolve_from_labels(&w, |i| oracle.label(&w.pair(i)));
        // D-: indices 0..3 unmatch.
        assert!(!assignment.labels()[0].is_match());
        // a missed low-similarity match
        assert!(!assignment.labels()[1].is_match());
        // DH: oracle labels match the ground truth.
        assert!(assignment.labels()[5].is_match());
        assert!(!assignment.labels()[6].is_match());
        // D+: all match.
        assert!(assignment.labels()[8].is_match());
        assert_eq!(oracle.labels_issued(), 4);
    }

    #[test]
    fn all_human_solution_achieves_perfect_quality() {
        let w = workload();
        let mut oracle = GroundTruthOracle::new();
        let outcome =
            LabelingSession::new(SessionConfig::AllHuman, &w).unwrap().drive(&mut oracle).unwrap();
        assert_eq!(outcome.metrics.precision(), 1.0);
        assert_eq!(outcome.metrics.recall(), 1.0);
        assert_eq!(outcome.total_human_cost, w.len());
        assert_eq!(outcome.verification_cost, w.len());
        assert_eq!(outcome.sampling_cost, 0);
        assert!((outcome.human_cost_fraction(w.len()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn machine_only_solution_has_zero_human_cost() {
        let w = workload();
        let mut oracle = GroundTruthOracle::new();
        // A zero requirement is met before any label: BASE stops at its start.
        let config = SessionConfig::Baseline(BaselineConfig {
            initial_boundary: InitialBoundary::Index(5),
            ..BaselineConfig::new(QualityRequirement::new(0.0, 0.0, 0.9).unwrap())
        });
        let outcome = LabelingSession::new(config, &w).unwrap().drive(&mut oracle).unwrap();
        assert_eq!(outcome.solution, HumoSolution::machine_only(5, w.len()));
        assert_eq!(outcome.total_human_cost, 0);
        assert_eq!(outcome.verification_cost, 0);
        // The pure machine threshold misses the low-similarity match.
        assert!(outcome.metrics.recall() < 1.0);
    }

    #[test]
    fn sampling_cost_counts_labels_outside_dh() {
        let w = workload();
        let mut oracle = GroundTruthOracle::new();
        // Simulate a search that sampled two pairs outside the final DH: a
        // resumed log holding them counts toward the session's cost. BASE
        // with 3-pair units from index 4 (no recall requirement) stops after
        // joining DH = [4, 7), whose precision bound is (1 + 3 · 1/3) / 4.
        let sampled = [0, 9]
            .map(|i| LabelResponse { pair_id: w.pair(i).id(), label: w.pair(i).ground_truth() });
        let config = SessionConfig::Baseline(BaselineConfig {
            unit_size: 3,
            estimation_units: 1,
            initial_boundary: InitialBoundary::Index(4),
            ..BaselineConfig::new(QualityRequirement::new(0.4, 0.0, 0.9).unwrap())
        });
        let state = SessionState::resume(config, &w, &sampled).unwrap();
        let outcome = LabelingSession::from_state(state, &w).drive(&mut oracle).unwrap();
        assert_eq!(outcome.solution, HumoSolution::new(4, 7, w.len()));
        assert_eq!(outcome.verification_cost, 3);
        assert_eq!(outcome.sampling_cost, 2);
        assert_eq!(outcome.total_human_cost, 5);
    }
}
