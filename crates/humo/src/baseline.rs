//! The conservative baseline optimizer (Section V of the paper, "BASE").
//!
//! BASE relies purely on the *monotonicity of precision* assumption. Starting
//! from an initial medium boundary it alternately extends the human region `DH`
//! upwards (to secure precision) and downwards (to secure recall). The match
//! proportion observed in the just-verified border region of `DH` is used as a
//! bound on the unexplored tail:
//!
//! * the top of `DH` lies *below* every pair of `D⁺`, so its observed match
//!   proportion is a lower bound on `D⁺`'s match proportion (Eq. 6/7);
//! * the bottom of `DH` lies *above* every pair of `D⁻`, so its observed match
//!   proportion is an upper bound on `D⁻`'s match proportion (Eq. 8/9).
//!
//! Because the bounds hold whenever monotonicity holds, the returned solution
//! satisfies the precision and recall requirements with 100 % confidence under
//! that assumption (Theorem 1) — at the price of a conservative, usually
//! larger-than-necessary `DH`.
//!
//! Following the paper's implementation notes, the border match proportions are
//! averaged over a handful of consecutive movement units (3–10) rather than a
//! single one, to smooth out the distribution irregularity of matching pairs.

use crate::requirement::QualityRequirement;
use crate::session::{
    verified_assignment, CoreOutput, Drive, LabelSlate, ReplayCache, SessionPhase,
};
use crate::solution::HumoSolution;
use crate::{HumoError, Result};
use er_core::workload::Workload;
use std::ops::Range;

/// Where the BASE search places its initial (empty) human region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialBoundary {
    /// Start at the first pair whose similarity is at least this value
    /// (the paper's "boundary value of a classifier").
    Similarity(f64),
    /// Start at the median pair of the workload.
    MedianIndex,
    /// Start at an explicit workload index.
    Index(usize),
}

impl InitialBoundary {
    fn resolve(&self, workload: &Workload) -> usize {
        match self {
            InitialBoundary::Similarity(v) => workload.lower_bound_index(*v),
            InitialBoundary::MedianIndex => workload.len() / 2,
            InitialBoundary::Index(i) => (*i).min(workload.len()),
        }
    }
}

/// Configuration of the BASE optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// The quality requirement to enforce.
    pub requirement: QualityRequirement,
    /// Number of pairs per boundary movement (the paper uses equal-pair-count
    /// movements; its experiments use 200-pair subsets).
    pub unit_size: usize,
    /// Number of consecutive units whose observed match proportion is averaged
    /// when bounding the unexplored tails (the paper recommends 3–10).
    pub estimation_units: usize,
    /// Where to start the search.
    pub initial_boundary: InitialBoundary,
}

impl BaselineConfig {
    /// Creates a configuration with the paper's defaults (200-pair units, a
    /// 5-unit estimation window, starting at similarity 0.5).
    pub fn new(requirement: QualityRequirement) -> Self {
        Self {
            requirement,
            unit_size: 200,
            estimation_units: 5,
            initial_boundary: InitialBoundary::Similarity(0.5),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.unit_size == 0 {
            return Err(HumoError::InvalidConfig("unit size must be positive".to_string()));
        }
        if self.estimation_units == 0 {
            return Err(HumoError::InvalidConfig(
                "estimation window must cover at least one unit".to_string(),
            ));
        }
        Ok(())
    }
}

/// The unit ranges one boundary move joins to the human region: at most one
/// extension past `v⁺` and one below `v⁻`, labeled as a single batch.
#[derive(Debug, Clone)]
pub(crate) struct Moves {
    /// Units joined above the current upper boundary.
    pub(crate) upper: Option<Range<usize>>,
    /// Units joined below the current lower boundary.
    pub(crate) lower: Option<Range<usize>>,
}

/// Where a boundary search stands.
#[derive(Debug, Clone)]
enum Stage {
    /// Waiting for the labels of these moves before joining them.
    Join(Moves),
    /// The region is up to date; the bounds decide the next move.
    Evaluate,
    /// The search has stopped; only the final verification remains.
    Finished,
}

/// Progress of a BASE or HYBR boundary search: the human region
/// `DH = [lower, upper)` grown outward from `origin` in search units (pairs
/// for BASE, subsets for HYBR), the match census of its units, and the batch
/// the search waits on.
///
/// The census is two prefix sums running outward from `origin`, so the match
/// count of any unit range inside `DH` — the in-`DH` total and the border
/// windows the bounds extrapolate from — is two lookups, and joining a unit
/// appends one entry. Stored in the session's replay cache, it lets a replay
/// resume at the batch it suspended on instead of repeating every move since
/// the origin. It holds only derived state: answered labels are never
/// changed, so a from-scratch replay reaches the same suspension with exactly
/// this state.
#[derive(Debug, Clone)]
pub(crate) struct BoundarySearch {
    origin: usize,
    lower: usize,
    upper: usize,
    /// `above[k]`: matches in units `origin..origin + k`.
    above: Vec<usize>,
    /// `below[k]`: matches in units `origin - k..origin`.
    below: Vec<usize>,
    stage: Stage,
}

impl BoundarySearch {
    /// An empty region at `origin` that first joins `first`, if given, and
    /// otherwise starts by evaluating the bounds.
    pub(crate) fn new(origin: usize, first: Option<Moves>) -> Self {
        Self {
            origin,
            lower: origin,
            upper: origin,
            above: vec![0],
            below: vec![0],
            stage: first.map_or(Stage::Evaluate, Stage::Join),
        }
    }

    /// First unit of `DH`.
    pub(crate) fn lower(&self) -> usize {
        self.lower
    }

    /// One past the last unit of `DH`.
    pub(crate) fn upper(&self) -> usize {
        self.upper
    }

    /// Number of units in `DH`.
    pub(crate) fn dh_units(&self) -> usize {
        self.upper - self.lower
    }

    /// Matches observed in all of `DH`.
    pub(crate) fn matches_in_dh(&self) -> usize {
        self.matches(self.lower..self.upper)
    }

    /// Matches observed in `units`, which must lie inside `DH`.
    pub(crate) fn matches(&self, units: Range<usize>) -> usize {
        (self.signed_prefix(units.end) - self.signed_prefix(units.start)) as usize
    }

    /// Matches in `origin..unit`, or minus the matches in `unit..origin`.
    fn signed_prefix(&self, unit: usize) -> isize {
        if unit >= self.origin {
            self.above[unit - self.origin] as isize
        } else {
            -(self.below[self.origin - unit] as isize)
        }
    }

    /// The top `window` units of `DH` (all of `DH` if it is smaller), next to `v⁺`.
    pub(crate) fn border_upper(&self, window: usize) -> Range<usize> {
        self.upper - window.min(self.dh_units())..self.upper
    }

    /// The bottom `window` units of `DH` (all of `DH` if it is smaller), next to `v⁻`.
    pub(crate) fn border_lower(&self, window: usize) -> Range<usize> {
        self.lower..self.lower + window.min(self.dh_units())
    }

    /// Runs the search from where it stands until it stops or suspends for
    /// labels. `pairs` maps a unit range to its workload-index range; `decide`
    /// evaluates the bounds on the current region and returns the next moves
    /// (none stops the search). Emits `refine.search_evaluations`, the number
    /// of `decide` calls, once.
    pub(crate) fn advance(
        &mut self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        pairs: impl Fn(Range<usize>) -> Range<usize>,
        mut decide: impl FnMut(&Self) -> Moves,
    ) -> Drive<()> {
        let mut evaluations = 0;
        let result = loop {
            if let Stage::Join(moves) = &self.stage {
                let Moves { upper, lower } = moves.clone();
                let batch = upper.clone().into_iter().chain(lower.clone()).flat_map(&pairs);
                if let Err(suspend) = slate.require(SessionPhase::BoundarySearch, batch) {
                    break Err(suspend);
                }
                let matches = |unit: usize| pairs(unit..unit + 1).filter(|&i| slate.is_match(i));
                if let Some(units) = upper {
                    self.upper = units.end;
                    for unit in units {
                        self.above.push(self.above[self.above.len() - 1] + matches(unit).count());
                    }
                }
                if let Some(units) = lower {
                    self.lower = units.start;
                    for unit in units.rev() {
                        self.below.push(self.below[self.below.len() - 1] + matches(unit).count());
                    }
                }
                self.stage = Stage::Evaluate;
            }
            if let Stage::Finished = self.stage {
                break Ok(());
            }
            evaluations += 1;
            let moves = decide(self);
            self.stage = if moves.upper.is_none() && moves.lower.is_none() {
                Stage::Finished
            } else {
                Stage::Join(moves)
            };
        };
        workload.obs().counter("refine.search_evaluations", evaluations);
        result
    }
}

impl BaselineConfig {
    /// Match proportion of a non-empty pair range of `DH`.
    fn proportion(search: &BoundarySearch, pairs: Range<usize>) -> f64 {
        search.matches(pairs.clone()) as f64 / pairs.len() as f64
    }

    /// Lower bound on the achieved precision with the current boundaries (Eq. 6).
    fn precision_lower_bound(&self, search: &BoundarySearch, n: usize, window: usize) -> f64 {
        let d_plus = n - search.upper();
        if d_plus == 0 {
            return 1.0;
        }
        if search.dh_units() == 0 {
            // Nothing verified yet: no evidence about D⁺.
            return 0.0;
        }
        let r_plus = Self::proportion(search, search.border_upper(window));
        let m_h = search.matches_in_dh() as f64;
        (m_h + d_plus as f64 * r_plus) / (m_h + d_plus as f64)
    }

    /// Lower bound on the achieved recall with the current boundaries (Eq. 8).
    fn recall_lower_bound(&self, search: &BoundarySearch, n: usize, window: usize) -> f64 {
        let d_minus = search.lower();
        if d_minus == 0 {
            return 1.0;
        }
        if search.dh_units() == 0 {
            return 0.0;
        }
        let d_plus = n - search.upper();
        let r_plus =
            if d_plus == 0 { 0.0 } else { Self::proportion(search, search.border_upper(window)) };
        let r_minus = Self::proportion(search, search.border_lower(window));
        let found = search.matches_in_dh() as f64 + d_plus as f64 * r_plus;
        let missed_upper_bound = d_minus as f64 * r_minus;
        if found + missed_upper_bound == 0.0 {
            return 1.0;
        }
        found / (found + missed_upper_bound)
    }

    /// The suspendable BASE search: both boundary extensions of one loop
    /// iteration are joined into a single label batch (their membership is
    /// fixed before either is labeled), so each iteration costs one label
    /// round-trip however many pairs it covers. The search's progress lives
    /// in the [`ReplayCache`], so a replay resumes at the batch it suspended
    /// on.
    pub(crate) fn session_core(
        &self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        cache: &mut ReplayCache,
    ) -> Drive<CoreOutput> {
        if workload.is_empty() {
            return Err(HumoError::InvalidWorkload(
                "cannot optimize an empty workload".to_string(),
            )
            .into());
        }
        let n = workload.len();
        let window = self.estimation_units * self.unit_size;
        let alpha = self.requirement.precision();
        let beta = self.requirement.recall();
        let mut search = cache.take_search(workload, || {
            BoundarySearch::new(self.initial_boundary.resolve(workload), None)
        });
        let result = search
            .advance(
                workload,
                slate,
                |pairs| pairs,
                |search| {
                    let precision_ok = self.precision_lower_bound(search, n, window) >= alpha;
                    let recall_ok = self.recall_lower_bound(search, n, window) >= beta;
                    // Alternate: extend v⁺ right for precision, then v⁻ left
                    // for recall. An unsatisfied boundary already at the
                    // workload edge has its requirement vacuously met (empty
                    // D⁺ / D⁻), so no move there stops the search.
                    let (lower, upper) = (search.lower(), search.upper());
                    Moves {
                        upper: (!precision_ok && upper < n)
                            .then(|| upper..(upper + self.unit_size).min(n)),
                        lower: (!recall_ok && lower > 0)
                            .then(|| lower.saturating_sub(self.unit_size)..lower),
                    }
                },
            )
            .and_then(|()| {
                let solution = HumoSolution::new(search.lower(), search.upper(), n);
                let assignment = verified_assignment(&solution, workload, slate)?;
                Ok(CoreOutput { solution, assignment, warm_out: None })
            });
        cache.store_search(search);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::session::{LabelingSession, SessionConfig};
    use crate::solution::OptimizationOutcome;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};

    fn monotone_workload(n: usize) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau: 14.0,
            sigma: 0.05,
            subset_size: 200,
            seed: 3,
        })
        .generate()
    }

    fn run_base(workload: &Workload, level: f64) -> OptimizationOutcome {
        let requirement = QualityRequirement::symmetric(level).unwrap();
        let mut config = BaselineConfig::new(requirement);
        config.unit_size = 100;
        let mut oracle = GroundTruthOracle::new();
        LabelingSession::new(SessionConfig::Baseline(config), workload)
            .unwrap()
            .drive(&mut oracle)
            .unwrap()
    }

    #[test]
    fn meets_requirements_on_a_monotone_workload() {
        let w = monotone_workload(20_000);
        for level in [0.8, 0.9, 0.95] {
            let outcome = run_base(&w, level);
            assert!(
                outcome.metrics.precision() >= level,
                "precision {} below requirement {level}",
                outcome.metrics.precision()
            );
            assert!(
                outcome.metrics.recall() >= level,
                "recall {} below requirement {level}",
                outcome.metrics.recall()
            );
        }
    }

    #[test]
    fn human_cost_is_partial_and_grows_with_requirement() {
        let w = monotone_workload(20_000);
        let low = run_base(&w, 0.75);
        let high = run_base(&w, 0.95);
        assert!(low.total_human_cost > 0);
        assert!(low.total_human_cost < w.len());
        assert!(
            high.total_human_cost >= low.total_human_cost,
            "stricter requirements should not need less human work ({} vs {})",
            high.total_human_cost,
            low.total_human_cost
        );
    }

    #[test]
    fn base_has_no_sampling_overhead() {
        // Every pair BASE labels ends up inside DH.
        let w = monotone_workload(10_000);
        let outcome = run_base(&w, 0.9);
        assert_eq!(outcome.sampling_cost, 0);
        assert_eq!(outcome.total_human_cost, outcome.verification_cost);
    }

    #[test]
    fn trivial_requirement_needs_little_work() {
        let w = monotone_workload(10_000);
        let outcome = run_base(&w, 0.05);
        // With a near-zero requirement almost nothing needs verification.
        assert!(outcome.total_human_cost <= w.len() / 10);
    }

    #[test]
    fn all_boundary_variants_resolve() {
        let w = monotone_workload(5_000);
        for boundary in [
            InitialBoundary::Similarity(0.5),
            InitialBoundary::MedianIndex,
            InitialBoundary::Index(1_000),
            InitialBoundary::Index(usize::MAX),
        ] {
            let mut config = BaselineConfig::new(QualityRequirement::symmetric(0.85).unwrap());
            config.initial_boundary = boundary;
            config.unit_size = 100;
            let mut oracle = GroundTruthOracle::new();
            let outcome = LabelingSession::new(SessionConfig::Baseline(config), &w)
                .unwrap()
                .drive(&mut oracle)
                .unwrap();
            assert!(outcome.metrics.precision() >= 0.85);
            assert!(outcome.metrics.recall() >= 0.85);
        }
    }

    #[test]
    fn degenerate_workloads_are_handled() {
        // All matches.
        let w = Workload::from_scores((0..500).map(|i| (i as f64 / 500.0, true))).unwrap();
        let outcome = run_base(&w, 0.9);
        assert!(outcome.metrics.recall() >= 0.9);
        // All non-matches.
        let w = Workload::from_scores((0..500).map(|i| (i as f64 / 500.0, false))).unwrap();
        let outcome = run_base(&w, 0.9);
        assert!(outcome.metrics.precision() >= 0.9);
        // Empty workload is rejected.
        let empty = Workload::from_pairs(vec![]).unwrap();
        let config = SessionConfig::Baseline(BaselineConfig::new(
            QualityRequirement::symmetric(0.9).unwrap(),
        ));
        let mut oracle = GroundTruthOracle::new();
        assert!(LabelingSession::new(config, &empty).unwrap().drive(&mut oracle).is_err());
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let mut config = BaselineConfig::new(requirement);
        config.unit_size = 0;
        assert!(SessionConfig::Baseline(config).validate().is_err());
        let mut config = BaselineConfig::new(requirement);
        config.estimation_units = 0;
        assert!(SessionConfig::Baseline(config).validate().is_err());
    }
}
