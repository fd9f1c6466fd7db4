//! Tail-calibrated match-count estimation.
//!
//! # The flat-curve under-coverage bug the upper side fixes
//!
//! The GP (and stratified) count estimators derive their bounds from the
//! *observed* sampling variability. A sampled subset whose `k` drawn pairs are
//! all (or almost all) non-matches reports a proportion near `0` with a naive
//! binomial variance near zero, so the fitted posterior treats the whole
//! unsampled low-similarity region as essentially match-free with near-zero
//! uncertainty. Worse, the GP aggregates per-subset uncertainty as if the
//! deviations were independent, while the real failure mode in that region is a
//! *systematic* bias of the fitted curve: every subset hides a little match
//! mass below the samples' detection limit, and the errors add up coherently.
//! On flat match-proportion curves (the paper's τ ≈ 8 synthetic regime) the
//! discarded region silently loses enough matches that the recall requirement
//! fails in roughly half the runs — far above the nominal `1 − θ = 10%`
//! failure rate the paper guarantees (Section VI).
//!
//! # The mid-steep precision gap the lower side fixes
//!
//! The precision bound (the `hi` sweep of Eq. 14) is the exact mirror: it
//! trusts *lower* bounds over the kept region, and that region is informed by
//! near-pure ("pure-one") samples whose `k/k` positives cannot distinguish
//! `p = 1.0` from `p = 1 − 3/k`. The base interval collapses onto `p ≈ 1`,
//! the sweep certifies precision a hair too early, and on mid-steep curves
//! (τ ∈ [8, 14]) the precision requirement was missed in 20–45% of runs.
//!
//! # The fix
//!
//! An all-negative sample of size `k` does not say "no matches here"; it says
//! the local proportion is below the sample's *detection limit* — the one-sided
//! Clopper–Pearson upper bound `1 − (1 − c)^(1/k)` (≈ `3/k` at 95%). Dually, an
//! all-positive sample says the proportion is above the lower detection limit
//! `(1 − c)^(1/k)`. This module wraps any [`MatchCountEstimator`] and adds a
//! binomial tail bound on each side of it:
//!
//! * sampled subsets whose observed proportion is below a small *quiet*
//!   threshold delimit maximal **quiet runs** — contiguous subset ranges whose
//!   every informing sample is quiet; these are exactly the regions where the
//!   base estimator's upper bound can collapse while matches hide below the
//!   detection limit. Symmetrically, subsets informed exclusively by near-pure
//!   samples delimit **saturated runs**, where the base *lower* bound can
//!   collapse onto `p ≈ 1` while non-matches hide above the lower detection
//!   limit;
//! * each run's samples are pooled into one binomial observation (the
//!   per-subset sampling fractions are equal, so the pooled sample is a simple
//!   random sample of the sampled-subsets union) and the pooled one-sided
//!   Clopper–Pearson limit bounds the run's *mean* match proportion; the
//!   pooled sample size is deflated by how far the run's subsets sit from
//!   their nearest sample (see [`er_stats::effective_sample_size`]), so runs
//!   extrapolated far beyond the samples get wider limits. Pooling is what
//!   recovers the cross-subset information the GP was providing: per-subset
//!   limits would be severalfold weaker, pooled ones track `3/(Σk)`;
//! * an upper bound over a subset range is then
//!   `base_ub + Σ_runs max(0, pairs_in_run_overlap · run_limit − base_estimate)`:
//!   wherever the base estimator already allocates at least the
//!   detection-limit mass nothing changes, and where it claims near-certain
//!   emptiness the bound is floored at what the pooled samples can actually
//!   rule out. A lower bound is the mirror:
//!   `base_lb − Σ_runs max(0, base_estimate − pairs_in_run_overlap · run_limit)`,
//!   capping what the base claims in saturated runs at the pooled lower limit.
//!
//! Outside the runs (the steep "foot" of the curve and the mixed boundary
//! region) the samples carry real binomial noise, the base interval is honest,
//! and the calibration adds nothing — which is what keeps the human cost on
//! steep curves within a few percent of the uncalibrated estimator. All three
//! properties (restored recall coverage on flat curves, restored precision
//! coverage on mid-steep curves, near-zero cost overhead on steep ones) are
//! measured by the `calibration_coverage` harness in `crates/bench`.
//!
//! # Confidence
//!
//! An estimator is built at one per-bound confidence (`√θ`, the same one its
//! base estimator was built with), so each run's pooled limit is computed
//! once, at construction, and stored with the run. The bound sweeps then only
//! read them; there are no limit caches.

use super::estimator::MatchCountEstimator;
use crate::HumoError;
use er_stats::{
    clopper_pearson_lower, clopper_pearson_upper, pooled_lower_limit, pooled_upper_limit,
    SampleSummary,
};
use std::collections::{BTreeMap, BTreeSet};

/// What the pooled detection-limit allowance of a quiet (or saturated) run is
/// compared against before adjusting the base estimator's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShortfallBaseline {
    /// Compare against the base *point estimate*: the detection-limit slack
    /// stacks on top of the base interval. Right for curve-fitting estimators
    /// (SAMP's GP): their slack models interpolation uncertainty under
    /// independence, which is orthogonal to the systematic tail bias the
    /// pooled limit guards against.
    #[default]
    Estimate,
    /// Compare against the base *bound itself* (the upper bound when topping
    /// up, the lower bound when capping): the detection limit only adjusts
    /// what the base interval does not already concede. Right when the base
    /// slack is computed from the very same draws as the pooled limit (the
    /// all-sampling stratified estimator), where stacking would double-count
    /// one source of sampling uncertainty.
    UpperBound,
}

/// Tuning knobs of the tail calibration, shared by the SAMP/ALL/HYBR paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailCalibration {
    /// Master switch. Disabled reproduces the uncalibrated (paper-faithful but
    /// flat-curve-unsafe) bounds.
    pub enabled: bool,
    /// How fast a sample's effective size decays with the distance (in GP
    /// length scales) between the sample and the subsets it is extrapolated
    /// to; see [`er_stats::effective_sample_size`]. `0` trusts samples at any
    /// distance, larger values widen the tail limits away from samples.
    pub distance_strength: f64,
    /// Whether the *lower* bounds are calibrated too: contiguous *saturated*
    /// runs (subsets informed exclusively by near-pure samples) pool their
    /// samples into one binomial observation, and the kept-region lower bound
    /// is capped at the pooled one-sided Clopper–Pearson lower limit.
    ///
    /// On by default: pooling recovers the cross-subset information the GP
    /// aggregates, so the cap tracks the `1 − 3/(Σk)` detection limit of the
    /// *pooled* draws instead of the severalfold-weaker per-subset limits an
    /// earlier form used. The pooled cap closes the mid-steep precision gap
    /// (the `hi` sweep of Eq. 14 no longer trusts `p = 1` from samples that
    /// cannot distinguish it from `p = 1 − 3/k`) at a steep-curve cost
    /// overhead measured under 4% by the `calibration_coverage` harness.
    /// [`TailCalibration::upper_only`] reproduces the earlier
    /// upper-side-only behaviour; the ALL optimizer's tuned default keeps
    /// this knob off because its stratified bounds never extrapolate (see
    /// `AllSamplingConfig::new`).
    pub calibrate_lower: bool,
    /// What the run allowances are compared against (see
    /// [`ShortfallBaseline`]).
    pub shortfall_baseline: ShortfallBaseline,
    /// A sampled subset is *quiet* when it observed at most this fraction of
    /// positives, and *saturated* when it observed at most this fraction of
    /// negatives (both with a scale-aware floor of one draw, see
    /// `quiet_threshold` in the module source). Quiet and saturated samples delimit the runs the
    /// detection-limit bounds apply to; larger values reach further into the
    /// foot (and shoulder) of the match-proportion curve at a higher human
    /// cost. Per-sample granularity matters: with large per-subset samples
    /// (SAMP's 100) a tight threshold suffices, while coarse samples (ALL's
    /// 20 per stratum) need a looser one to avoid fragmenting runs on single
    /// lucky draws.
    pub quiet_fraction: f64,
}

impl Default for TailCalibration {
    fn default() -> Self {
        Self {
            enabled: true,
            distance_strength: 1.0,
            calibrate_lower: true,
            shortfall_baseline: ShortfallBaseline::Estimate,
            quiet_fraction: 0.05,
        }
    }
}

impl TailCalibration {
    /// A configuration with the calibration switched off entirely.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }

    /// The upper-side-only configuration (the pre-pooling default): recall
    /// tails are calibrated, the kept-region lower bounds are not. Kept for
    /// cost comparisons against the current default.
    pub fn upper_only() -> Self {
        Self { calibrate_lower: false, ..Self::default() }
    }

    /// Rejects settings that silently switch a calibration off: a negative or
    /// NaN `distance_strength` would trust samples at any distance, and a
    /// `quiet_fraction` outside `[0, 0.5)` would classify no sample as quiet
    /// (negative) or let one sample be quiet and saturated at once (≥ 0.5).
    pub(crate) fn validate(&self) -> crate::Result<()> {
        if !(self.distance_strength >= 0.0 && self.distance_strength.is_finite()) {
            return Err(HumoError::InvalidConfig(format!(
                "tail distance strength must be finite and >= 0, got {}",
                self.distance_strength
            )));
        }
        if !(0.0..0.5).contains(&self.quiet_fraction) {
            return Err(HumoError::InvalidConfig(format!(
                "tail quiet fraction must be in [0, 0.5), got {}",
                self.quiet_fraction
            )));
        }
        Ok(())
    }
}

/// The count-of-draws threshold below which a sample counts as quiet (on its
/// positives) or saturated (on its negatives).
///
/// The nominal threshold is `quiet_fraction · n`. The floor of one draw only
/// applies when a single draw stays within twice the quiet fraction of the
/// sample (`1/n ≤ 2 · quiet_fraction`): for tiny samples an absolute
/// one-draw floor would classify a stratum as quiet on a single lucky draw
/// whose observed proportion is far above the quiet fraction, so below that
/// size the threshold decays proportionally and only an all-negative
/// (all-positive) sample qualifies.
fn quiet_threshold(sample_size: usize, quiet_fraction: f64) -> f64 {
    let nominal = quiet_fraction * sample_size as f64;
    nominal.max((2.0 * nominal).min(1.0))
}

fn is_quiet(summary: &SampleSummary, quiet_fraction: f64) -> bool {
    (summary.positives as f64) <= quiet_threshold(summary.sample_size, quiet_fraction)
}

fn is_saturated(summary: &SampleSummary, quiet_fraction: f64) -> bool {
    let negatives = summary.sample_size.saturating_sub(summary.positives);
    (negatives as f64) <= quiet_threshold(summary.sample_size, quiet_fraction)
}

/// One-sided Clopper–Pearson confidence matching the one-sided use of a base
/// estimator's two-sided interval at `confidence`.
pub(crate) fn one_sided_confidence(confidence: f64) -> f64 {
    if confidence <= 0.0 {
        0.0
    } else {
        ((1.0 + confidence) / 2.0).min(1.0 - 1e-9)
    }
}

/// Lower-bounds the match proportion of a fully labeled *census* region that is
/// about to be extrapolated beyond itself (HYBR's monotonicity step): a
/// saturated census — `matches/pairs` at or above the saturation threshold of
/// [`quiet_threshold`] — is capped at its one-sided Clopper–Pearson lower
/// limit, because observing `k/k` matches only certifies `p ≥ (1 − c)^(1/k)`,
/// not `p = 1`. A mixed census keeps its observed proportion: its non-matches
/// already concede real slack, and capping it too would re-introduce the
/// severalfold steep-curve cost the pooled form exists to avoid.
pub(crate) fn censored_proportion_lower(
    pairs: usize,
    matches: usize,
    quiet_fraction: f64,
    confidence: f64,
) -> f64 {
    if pairs == 0 {
        return 0.0;
    }
    let observed = matches as f64 / pairs as f64;
    let negatives = pairs.saturating_sub(matches);
    if (negatives as f64) > quiet_threshold(pairs, quiet_fraction) {
        return observed;
    }
    clopper_pearson_lower(pairs as f64, matches as f64, one_sided_confidence(confidence))
        .unwrap_or(0.0)
        .min(observed)
}

/// The mirror of [`censored_proportion_lower`] for the recall side: a *quiet*
/// census — `matches/pairs` at or below the quiet threshold — is floored at
/// its one-sided Clopper–Pearson upper limit, because observing `0/k` matches
/// only certifies `p ≤ 1 − (1 − c)^(1/k)`, not `p = 0`. A mixed census keeps
/// its observed proportion.
pub(crate) fn censored_proportion_upper(
    pairs: usize,
    matches: usize,
    quiet_fraction: f64,
    confidence: f64,
) -> f64 {
    if pairs == 0 {
        return 1.0;
    }
    let observed = matches as f64 / pairs as f64;
    if (matches as f64) > quiet_threshold(pairs, quiet_fraction) {
        return observed;
    }
    clopper_pearson_upper(pairs as f64, matches as f64, one_sided_confidence(confidence))
        .unwrap_or(1.0)
        .max(observed)
}

/// The nearest sampled subset on one side of a subset, and how far away its
/// input coordinate is.
#[derive(Debug, Clone, Copy)]
struct Neighbour {
    /// Index into the deduplicated summary table.
    summary: usize,
    /// `|input_i − input_sample|`, the extrapolation distance.
    distance: f64,
}

/// Per-subset tail information.
#[derive(Debug, Clone, Copy)]
struct SubsetTail {
    /// Number of pairs in the subset.
    size: f64,
    /// Nearest sampled subset at or below this one (in subset order).
    left: Option<Neighbour>,
    /// Nearest sampled subset at or above this one.
    right: Option<Neighbour>,
}

/// A maximal contiguous range of subsets informed exclusively by flagged
/// (quiet or saturated) samples, with those samples pooled into one binomial
/// observation.
#[derive(Debug, Clone)]
struct PooledRun {
    /// Half-open subset range `[start, end)`.
    start: usize,
    end: usize,
    /// The pooled one-sided Clopper–Pearson limit on the run's mean match
    /// proportion: an upper limit for a quiet run, a lower limit for a
    /// saturated one.
    limit: f64,
}

/// A [`MatchCountEstimator`] decorator that widens intervals to respect the
/// binomial detection limits of the underlying samples. See the module docs
/// for the construction.
///
/// The per-bound confidence is fixed at construction, like the base
/// estimator's, so every run's pooled limit is computed once there.
#[derive(Debug, Clone)]
pub struct CalibratedEstimator<E> {
    base: E,
    config: TailCalibration,
    /// Prefix sums of subset sizes, for O(1) run-overlap pair counts.
    size_prefix: Vec<f64>,
    /// Maximal runs of subsets informed only by quiet samples (upper side),
    /// each with its pooled upper limit. Empty unless the calibration is
    /// enabled.
    quiet_runs: Vec<PooledRun>,
    /// Maximal runs of subsets informed only by near-pure samples (lower
    /// side), each with its pooled lower limit. Empty unless the calibration
    /// and `calibrate_lower` are enabled.
    saturated_runs: Vec<PooledRun>,
}

impl<E: MatchCountEstimator> CalibratedEstimator<E> {
    /// Wraps `base` with tail calibration.
    ///
    /// * `subset_sizes[i]` — pair count of subset `i`;
    /// * `inputs[i]` — the GP input coordinate of subset `i` (any monotone
    ///   coordinate works; distances are measured in this space);
    /// * `samples` — subset index → sample summary for every sampled subset;
    /// * `length_scale` — the fitted GP length scale (or any positive scale of
    ///   "how far a sample generalizes" in the input coordinate);
    /// * `confidence` — the per-bound confidence the base estimator was built
    ///   with (`√θ` for a requirement at confidence `θ`).
    ///
    /// Rejects a `confidence` outside `[0, 1)` (NaN and infinities included)
    /// with [`HumoError::InvalidConfig`]. The domain matches
    /// [`crate::QualityRequirement::new`]: a degenerate `0` collapses the
    /// tail limits onto the observed proportions rather than erroring.
    pub fn new(
        base: E,
        subset_sizes: &[usize],
        inputs: &[f64],
        samples: &BTreeMap<usize, SampleSummary>,
        length_scale: f64,
        config: TailCalibration,
        confidence: f64,
    ) -> crate::Result<Self> {
        if !(confidence.is_finite() && (0.0..1.0).contains(&confidence)) {
            return Err(HumoError::InvalidConfig(format!(
                "bound confidence must lie in [0, 1), got {confidence}"
            )));
        }
        assert_eq!(subset_sizes.len(), inputs.len(), "one input coordinate per subset");
        let mut summaries = Vec::with_capacity(samples.len());
        let mut sampled: Vec<(usize, usize)> = Vec::with_capacity(samples.len()); // (subset, summary idx)
        for (&subset, &summary) in samples {
            sampled.push((subset, summaries.len()));
            summaries.push(summary);
        }

        let m = subset_sizes.len();
        // `sampled` is sorted by subset index (BTreeMap iteration order); two
        // sweeps find, for every subset, the nearest sampled subset on each side.
        let neighbour = |i: usize, entry: Option<(usize, usize)>| {
            entry.map(|(subset, summary)| Neighbour {
                summary,
                distance: (inputs[i] - inputs[subset]).abs(),
            })
        };
        let mut left_of: Vec<Option<Neighbour>> = vec![None; m];
        let mut cursor = 0usize;
        let mut last: Option<(usize, usize)> = None;
        for (i, slot) in left_of.iter_mut().enumerate() {
            while cursor < sampled.len() && sampled[cursor].0 <= i {
                last = Some(sampled[cursor]);
                cursor += 1;
            }
            *slot = neighbour(i, last);
        }
        let mut right_of: Vec<Option<Neighbour>> = vec![None; m];
        let mut cursor = sampled.len();
        let mut next: Option<(usize, usize)> = None;
        for i in (0..m).rev() {
            while cursor > 0 && sampled[cursor - 1].0 >= i {
                cursor -= 1;
                next = Some(sampled[cursor]);
            }
            right_of[i] = neighbour(i, next);
        }
        let subsets: Vec<SubsetTail> = (0..m)
            .map(|i| SubsetTail {
                size: subset_sizes[i] as f64,
                left: left_of[i],
                right: right_of[i],
            })
            .collect();

        let mut size_prefix = vec![0.0f64; m + 1];
        for i in 0..m {
            size_prefix[i + 1] = size_prefix[i] + subsets[i].size;
        }

        let length_scale = length_scale.max(1e-9);
        let one_sided = one_sided_confidence(confidence);
        let strength = config.distance_strength;
        let runs = |flagged: fn(&SampleSummary, f64) -> bool,
                    limit: fn(f64, f64, f64, f64, f64, f64) -> er_stats::Result<f64>,
                    fallback: f64| {
            let flags: Vec<bool> =
                summaries.iter().map(|s| flagged(s, config.quiet_fraction)).collect();
            Self::pooled_runs(&subsets, &summaries, &flags, |size, positives, distance| {
                limit(size, positives, distance, length_scale, strength, one_sided)
                    .unwrap_or(fallback)
            })
        };
        let quiet_runs =
            if config.enabled { runs(is_quiet, pooled_upper_limit, 1.0) } else { Vec::new() };
        let saturated_runs = if config.enabled && config.calibrate_lower {
            runs(is_saturated, pooled_lower_limit, 0.0)
        } else {
            Vec::new()
        };

        Ok(Self { base, config, size_prefix, quiet_runs, saturated_runs })
    }

    /// Builds the maximal runs of consecutive subsets whose every existing
    /// informing neighbour carries a flagged (quiet or saturated) sample,
    /// pooling the distinct flagged samples of each run. `limit` maps a
    /// run's pooled sample size, pooled positives and largest distance from
    /// a member subset to its nearest informing sample onto the run's limit.
    fn pooled_runs(
        subsets: &[SubsetTail],
        summaries: &[SampleSummary],
        flags: &[bool],
        limit: impl Fn(f64, f64, f64) -> f64,
    ) -> Vec<PooledRun> {
        let member = |tail: &SubsetTail| -> bool {
            let mut any = false;
            for n in [tail.left, tail.right].into_iter().flatten() {
                if !flags[n.summary] {
                    return false;
                }
                any = true;
            }
            any
        };
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < subsets.len() {
            if !member(&subsets[i]) {
                i += 1;
                continue;
            }
            let start = i;
            let mut informing: BTreeSet<usize> = BTreeSet::new();
            let mut max_distance = 0.0f64;
            while i < subsets.len() && member(&subsets[i]) {
                let mut nearest = f64::INFINITY;
                for n in [subsets[i].left, subsets[i].right].into_iter().flatten() {
                    informing.insert(n.summary);
                    nearest = nearest.min(n.distance);
                }
                if nearest.is_finite() {
                    max_distance = max_distance.max(nearest);
                }
                i += 1;
            }
            let mut pooled_size = 0.0;
            let mut pooled_positives = 0.0;
            for &s in &informing {
                pooled_size += summaries[s].sample_size as f64;
                pooled_positives += summaries[s].positives as f64;
            }
            if pooled_size > 0.0 {
                let limit = limit(pooled_size, pooled_positives, max_distance);
                runs.push(PooledRun { start, end: i, limit });
            }
        }
        runs
    }

    /// The overlap of a range with a run: its pair count and subset range,
    /// or `None` when the two are disjoint.
    fn overlap(
        &self,
        range: &std::ops::Range<usize>,
        run: &PooledRun,
    ) -> Option<(f64, std::ops::Range<usize>)> {
        let lo = range.start.max(run.start);
        let hi = range.end.min(run.end);
        (lo < hi).then(|| (self.size_prefix[hi] - self.size_prefix[lo], lo..hi))
    }

    /// The detection-limit shortfall of a range: for every quiet run
    /// overlapping it, how much match mass the pooled binomial limit allows
    /// beyond what the base estimator already grants there (the point estimate
    /// or the base upper bound, per [`ShortfallBaseline`]).
    fn quiet_shortfall(&self, range: &std::ops::Range<usize>) -> f64 {
        let mut total = 0.0;
        for run in &self.quiet_runs {
            let Some((pairs, overlap)) = self.overlap(range, run) else { continue };
            let allowed = pairs * run.limit;
            let granted = match self.config.shortfall_baseline {
                ShortfallBaseline::Estimate => self.base.estimate(overlap),
                ShortfallBaseline::UpperBound => self.base.upper_bound(overlap),
            };
            total += (allowed - granted).max(0.0);
        }
        total
    }

    /// The saturation excess of a range — the lower-side mirror of
    /// [`Self::quiet_shortfall`]: for every saturated run overlapping it, how
    /// much match mass the base estimator claims beyond what the run's pooled
    /// binomial lower limit can actually certify. The claim is the point
    /// estimate ([`ShortfallBaseline::Estimate`]: the GP's independence-based
    /// slack is orthogonal to the coherent pure-one bias) or the base lower
    /// bound itself ([`ShortfallBaseline::UpperBound`]: the stratified slack
    /// shares the pooled limit's draws, so only the actual claim is capped).
    fn saturated_excess(&self, range: &std::ops::Range<usize>) -> f64 {
        let mut total = 0.0;
        for run in &self.saturated_runs {
            let Some((pairs, overlap)) = self.overlap(range, run) else { continue };
            let certified = pairs * run.limit;
            let claimed = match self.config.shortfall_baseline {
                ShortfallBaseline::Estimate => self.base.estimate(overlap),
                ShortfallBaseline::UpperBound => self.base.lower_bound(overlap),
            };
            total += (claimed - certified).max(0.0);
        }
        total
    }
}

impl<E: MatchCountEstimator> MatchCountEstimator for CalibratedEstimator<E> {
    fn pair_count(&self, range: std::ops::Range<usize>) -> usize {
        self.base.pair_count(range)
    }

    fn estimate(&self, range: std::ops::Range<usize>) -> f64 {
        self.base.estimate(range)
    }

    fn lower_bound(&self, range: std::ops::Range<usize>) -> f64 {
        let base = self.base.lower_bound(range.clone());
        if !self.config.enabled || !self.config.calibrate_lower {
            return base;
        }
        (base - self.saturated_excess(&range)).max(0.0)
    }

    fn upper_bound(&self, range: std::ops::Range<usize>) -> f64 {
        let base = self.base.upper_bound(range.clone());
        if !self.config.enabled {
            return base;
        }
        let count = self.pair_count(range.clone()) as f64;
        (base + self.quiet_shortfall(&range)).min(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy base estimator with a fixed per-subset proportion and a
    /// zero-width interval — the worst case the calibration must widen.
    #[derive(Debug, Clone)]
    struct PointEstimator {
        sizes: Vec<usize>,
        proportions: Vec<f64>,
    }

    impl MatchCountEstimator for PointEstimator {
        fn pair_count(&self, range: std::ops::Range<usize>) -> usize {
            self.sizes[range].iter().sum()
        }
        fn estimate(&self, range: std::ops::Range<usize>) -> f64 {
            range.map(|i| self.sizes[i] as f64 * self.proportions[i]).sum()
        }
        fn lower_bound(&self, range: std::ops::Range<usize>) -> f64 {
            self.estimate(range)
        }
        fn upper_bound(&self, range: std::ops::Range<usize>) -> f64 {
            self.estimate(range)
        }
    }

    fn all_zero_setup(
        m: usize,
    ) -> (PointEstimator, Vec<usize>, Vec<f64>, BTreeMap<usize, SampleSummary>) {
        let sizes = vec![200usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![0.0; m] };
        // Sample every fourth subset, all observations negative.
        let mut samples = BTreeMap::new();
        for i in (0..m).step_by(4) {
            samples.insert(i, SampleSummary::new(100, 0).unwrap());
        }
        (base, sizes, inputs, samples)
    }

    /// The dual of [`all_zero_setup`]: a pure-one region whose base estimator
    /// claims every pair matches with a zero-width interval.
    fn all_one_setup(
        m: usize,
    ) -> (PointEstimator, Vec<usize>, Vec<f64>, BTreeMap<usize, SampleSummary>) {
        let sizes = vec![200usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![1.0; m] };
        let mut samples = BTreeMap::new();
        for i in (0..m).step_by(4) {
            samples.insert(i, SampleSummary::new(100, 100).unwrap());
        }
        (base, sizes, inputs, samples)
    }

    #[test]
    fn all_zero_samples_still_produce_a_detection_limit_upper_bound() {
        let (base, sizes, inputs, samples) = all_zero_setup(40);
        let est = CalibratedEstimator::new(
            base,
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        // The uncalibrated upper bound is exactly zero; the calibrated one must
        // allow at least the pooled detection limit of the 10 × 100 quiet
        // draws, yet stay far below "everything matches".
        let ub = est.upper_bound(0..40);
        assert!(ub > 10.0, "detection-limit upper bound missing: {ub}");
        assert!(ub < 0.05 * est.pair_count(0..40) as f64, "tail bound absurdly wide: {ub}");
        // Lower bounds stay at zero (no positives anywhere).
        assert_eq!(est.lower_bound(0..40), 0.0);
    }

    #[test]
    fn all_one_samples_cap_the_lower_bound_at_the_pooled_limit() {
        let (base, sizes, inputs, samples) = all_one_setup(40);
        let est = CalibratedEstimator::new(
            base.clone(),
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        // The uncalibrated lower bound claims all 8000 pairs match; the
        // calibrated one must concede at least the pooled lower detection
        // limit of the 10 × 100 pure-one draws, yet stay far above "nothing
        // is certain" — pooling keeps the concession near 3.7/(Σk) per pair.
        let pairs = est.pair_count(0..40) as f64;
        let lb = est.lower_bound(0..40);
        assert!(lb < pairs, "pure-one lower bound not capped: {lb}");
        assert!(lb > 0.95 * pairs, "pooled lower cap absurdly weak: {lb}");
        // The upper bound is untouched (nothing is quiet here).
        assert_eq!(est.upper_bound(0..40), pairs);
    }

    #[test]
    fn pooling_beats_per_subset_lower_limits() {
        // The naive per-subset form mins deflated 100-draw limits; the pooled
        // run certifies the 1000-draw limit. On a pure-one region the pooled
        // lower bound must be strictly tighter (larger) than the per-subset
        // one would be — that is the whole point of pooling.
        let (base, sizes, inputs, samples) = all_one_setup(40);
        let config = TailCalibration::default();
        let est =
            CalibratedEstimator::new(base, &sizes, &inputs, &samples, 0.25, config, 0.95).unwrap();
        let pairs = est.pair_count(0..40) as f64;
        let lb = est.lower_bound(0..40);
        // Per-subset form: each subset capped at its own 100-draw limit
        // (at best — distance deflation only weakens it further).
        let per_subset =
            pairs * er_stats::detection_limit_lower(100.0, one_sided_confidence(0.95)).unwrap();
        assert!(
            lb > per_subset,
            "pooled cap {lb} not tighter than the per-subset form {per_subset}"
        );
    }

    #[test]
    fn shortfall_only_tops_up_what_the_base_already_allows() {
        let (mut base, sizes, inputs, samples) = all_zero_setup(40);
        // A base estimator that already assigns generous mass to the quiet
        // region must not be widened further.
        base.proportions = vec![0.1; 40];
        let generous = CalibratedEstimator::new(
            base.clone(),
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        let expected = base.upper_bound(0..40);
        assert!((generous.upper_bound(0..40) - expected).abs() < 1e-9);
    }

    #[test]
    fn saturation_only_caps_what_the_base_actually_claims() {
        let (mut base, sizes, inputs, samples) = all_one_setup(40);
        // A base estimator that already concedes plenty in the saturated
        // region must not be capped further.
        base.proportions = vec![0.9; 40];
        let modest = CalibratedEstimator::new(
            base.clone(),
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        let expected = base.lower_bound(0..40);
        assert!((modest.lower_bound(0..40) - expected).abs() < 1e-9);
    }

    #[test]
    fn calibration_never_narrows_the_base_interval() {
        let (mut base, sizes, inputs, mut samples) = all_zero_setup(32);
        // Mix in some positives so non-quiet samples, saturated samples and
        // both adjustment paths are exercised together.
        for (i, p) in base.proportions.iter_mut().enumerate() {
            *p = i as f64 / 32.0;
        }
        for (i, s) in samples.iter_mut() {
            *s = SampleSummary::new(100, (100 * i) / 32).unwrap();
        }
        for conf in [0.5, 0.9, 0.949] {
            let est = CalibratedEstimator::new(
                base.clone(),
                &sizes,
                &inputs,
                &samples,
                0.25,
                TailCalibration::default(),
                conf,
            )
            .unwrap();
            for lo in [0usize, 5, 16] {
                for hi in [17usize, 25, 32] {
                    let b_lb = base.lower_bound(lo..hi);
                    let b_ub = base.upper_bound(lo..hi);
                    assert!(est.lower_bound(lo..hi) <= b_lb + 1e-9);
                    assert!(est.lower_bound(lo..hi) >= 0.0);
                    assert!(
                        est.upper_bound(lo..hi) >= b_ub.min(est.pair_count(lo..hi) as f64) - 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_calibration_is_transparent() {
        let (base, sizes, inputs, samples) = all_zero_setup(24);
        let est = CalibratedEstimator::new(
            base.clone(),
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::disabled(),
            0.9,
        )
        .unwrap();
        for range in [0..24usize, 3..9, 12..24] {
            assert_eq!(est.upper_bound(range.clone()), base.upper_bound(range.clone()));
            assert_eq!(est.lower_bound(range.clone()), base.lower_bound(range));
        }
    }

    #[test]
    fn upper_only_leaves_lower_bounds_alone() {
        let (base, sizes, inputs, samples) = all_one_setup(24);
        let est = CalibratedEstimator::new(
            base.clone(),
            &sizes,
            &inputs,
            &samples,
            0.25,
            TailCalibration::upper_only(),
            0.9,
        )
        .unwrap();
        for range in [0..24usize, 3..9, 12..24] {
            assert_eq!(est.lower_bound(range.clone()), base.lower_bound(range));
        }
    }

    #[test]
    fn sparser_samples_widen_the_tail_bound() {
        let m = 20usize;
        let sizes = vec![200usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![0.0; m] };
        let config = TailCalibration { distance_strength: 2.0, ..TailCalibration::default() };
        // Dense: a quiet sample every other subset. Sparse: only the two ends,
        // so the same pooled evidence sits much further from the middle.
        let mut dense = BTreeMap::new();
        for i in (0..m).step_by(2) {
            dense.insert(i, SampleSummary::new(100, 0).unwrap());
        }
        let mut sparse = BTreeMap::new();
        sparse.insert(0usize, SampleSummary::new(100, 0).unwrap());
        sparse.insert(m - 1, SampleSummary::new(100, 0).unwrap());
        let dense_est =
            CalibratedEstimator::new(base.clone(), &sizes, &inputs, &dense, 0.05, config, 0.95)
                .unwrap();
        let sparse_est =
            CalibratedEstimator::new(base, &sizes, &inputs, &sparse, 0.05, config, 0.95).unwrap();
        let dense_ub = dense_est.upper_bound(0..m);
        let sparse_ub = sparse_est.upper_bound(0..m);
        // The sparse configuration pools fewer draws *and* extrapolates them
        // further, so per pair its limit must be wider. (Dense pools 10× the
        // draws; compare per-draw to isolate the distance effect.)
        assert!(
            sparse_ub > dense_ub,
            "sparser, further samples must yield a wider bound ({sparse_ub} vs {dense_ub})"
        );
    }

    #[test]
    fn sparser_samples_widen_the_lower_cap_too() {
        let m = 20usize;
        let sizes = vec![200usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![1.0; m] };
        let config = TailCalibration { distance_strength: 2.0, ..TailCalibration::default() };
        let mut dense = BTreeMap::new();
        for i in (0..m).step_by(2) {
            dense.insert(i, SampleSummary::new(100, 100).unwrap());
        }
        let mut sparse = BTreeMap::new();
        sparse.insert(0usize, SampleSummary::new(100, 100).unwrap());
        sparse.insert(m - 1, SampleSummary::new(100, 100).unwrap());
        let dense_est =
            CalibratedEstimator::new(base.clone(), &sizes, &inputs, &dense, 0.05, config, 0.95)
                .unwrap();
        let sparse_est =
            CalibratedEstimator::new(base, &sizes, &inputs, &sparse, 0.05, config, 0.95).unwrap();
        let dense_lb = dense_est.lower_bound(0..m);
        let sparse_lb = sparse_est.lower_bound(0..m);
        assert!(
            sparse_lb < dense_lb,
            "sparser, further samples must yield a weaker lower cap ({sparse_lb} vs {dense_lb})"
        );
    }

    #[test]
    fn higher_confidence_widens_the_calibrated_bounds() {
        let at = |(base, sizes, inputs, samples): (PointEstimator, Vec<usize>, Vec<f64>, _),
                  confidence: f64| {
            CalibratedEstimator::new(
                base,
                &sizes,
                &inputs,
                &samples,
                0.25,
                TailCalibration::default(),
                confidence,
            )
            .unwrap()
        };
        let narrow = at(all_zero_setup(40), 0.5).upper_bound(0..40);
        let wide = at(all_zero_setup(40), 0.99).upper_bound(0..40);
        assert!(wide > narrow);
        let narrow = at(all_one_setup(40), 0.5).lower_bound(0..40);
        let wide = at(all_one_setup(40), 0.99).lower_bound(0..40);
        assert!(wide < narrow, "higher confidence must lower the lower bound ({wide} vs {narrow})");
    }

    #[test]
    fn loud_samples_break_quiet_runs() {
        let m = 30usize;
        let sizes = vec![100usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![0.0; m] };
        let mut samples = BTreeMap::new();
        for i in (0..m).step_by(3) {
            samples.insert(i, SampleSummary::new(100, 0).unwrap());
        }
        // A decidedly non-quiet sample in the middle.
        samples.insert(15usize, SampleSummary::new(100, 60).unwrap());
        let est = CalibratedEstimator::new(
            base,
            &sizes,
            &inputs,
            &samples,
            0.1,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        // Subsets informed by the loud sample get no quiet-run shortfall: the
        // base estimator (zero-width here) is left alone.
        let near_loud = est.upper_bound(15..16);
        assert_eq!(near_loud, 0.0, "loud-informed subsets must not be topped up");
        // Far from the loud sample the quiet run still applies.
        assert!(est.upper_bound(0..6) > 0.0);
    }

    #[test]
    fn mixed_samples_break_saturated_runs() {
        let m = 30usize;
        let sizes = vec![100usize; m];
        let inputs: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![1.0; m] };
        let mut samples = BTreeMap::new();
        for i in (0..m).step_by(3) {
            samples.insert(i, SampleSummary::new(100, 100).unwrap());
        }
        // A decidedly mixed sample in the middle.
        samples.insert(15usize, SampleSummary::new(100, 60).unwrap());
        let est = CalibratedEstimator::new(
            base,
            &sizes,
            &inputs,
            &samples,
            0.1,
            TailCalibration::default(),
            0.95,
        )
        .unwrap();
        // Subsets informed by the mixed sample get no saturation cap: the base
        // estimator's claim stands.
        let near_mixed = est.lower_bound(15..16);
        assert_eq!(near_mixed, 100.0, "mixed-informed subsets must not be capped");
        // Far from the mixed sample the saturated run still applies.
        assert!(est.lower_bound(0..6) < 600.0);
    }

    #[test]
    fn fully_sampled_pure_subsets_share_the_pooled_cap() {
        let sizes = vec![100usize; 4];
        let inputs = vec![0.0, 0.33, 0.66, 1.0];
        let base = PointEstimator { sizes: sizes.clone(), proportions: vec![1.0; 4] };
        let mut samples = BTreeMap::new();
        for i in 0..4usize {
            samples.insert(i, SampleSummary::new(50, 50).unwrap());
        }
        let est = CalibratedEstimator::new(
            base,
            &sizes,
            &inputs,
            &samples,
            0.3,
            TailCalibration::default(),
            0.9,
        )
        .unwrap();
        // Every subset sampled at distance zero, all pure-one: one saturated
        // run pooling 200 draws. The cap must be the pooled 200-draw limit,
        // not the far weaker per-subset 50-draw one.
        let lb = est.lower_bound(1..2);
        let pooled =
            100.0 * er_stats::detection_limit_lower(200.0, one_sided_confidence(0.9)).unwrap();
        assert!(lb < 100.0, "pure-one subset must concede its detection limit ({lb})");
        assert!((lb - pooled).abs() < 1e-9, "expected the pooled cap {pooled}, got {lb}");
    }

    #[test]
    fn quiet_threshold_is_unchanged_for_samp_scale_samples() {
        // Regression pin for the scale-aware floor: at SAMP's granularity
        // (100 draws, quiet fraction 0.05) the classification is byte-identical
        // to the historical `max(1, 0.05 · n)` rule — quiet up to 5 positives,
        // loud from 6; saturated from 95 positives.
        for positives in 0..=100usize {
            let s = SampleSummary::new(100, positives).unwrap();
            assert_eq!(is_quiet(&s, 0.05), positives <= 5, "positives={positives}");
            assert_eq!(is_saturated(&s, 0.05), positives >= 95, "positives={positives}");
        }
        // ALL's stratified granularity (20 draws, quiet fraction 0.1) is also
        // unchanged: quiet up to 2 positives.
        for positives in 0..=20usize {
            let s = SampleSummary::new(20, positives).unwrap();
            assert_eq!(is_quiet(&s, 0.1), positives <= 2, "positives={positives}");
            assert_eq!(is_saturated(&s, 0.1), positives >= 18, "positives={positives}");
        }
    }

    #[test]
    fn tiny_strata_are_not_quiet_on_a_single_lucky_draw() {
        // The historical absolute floor of one positive classified an 8-draw
        // stratum with one positive (12.5% observed!) as quiet. The
        // scale-aware floor requires an all-negative sample once a single
        // draw exceeds twice the quiet fraction.
        let one_of_eight = SampleSummary::new(8, 1).unwrap();
        assert!(!is_quiet(&one_of_eight, 0.05), "1/8 positives must not count as quiet");
        assert!(is_quiet(&SampleSummary::new(8, 0).unwrap(), 0.05));
        // The mirror holds for saturation.
        assert!(!is_saturated(&SampleSummary::new(8, 7).unwrap(), 0.05));
        assert!(is_saturated(&SampleSummary::new(8, 8).unwrap(), 0.05));
        // Where a single draw stays within 2× the quiet fraction the floor
        // still applies (12 draws at 5%: 1/12 ≈ 8.3% ≤ 10%).
        assert!(is_quiet(&SampleSummary::new(12, 1).unwrap(), 0.05));
    }

    #[test]
    fn invalid_confidence_is_rejected_at_construction() {
        let (base, sizes, inputs, samples) = all_zero_setup(16);
        let build = |confidence: f64| {
            CalibratedEstimator::new(
                base.clone(),
                &sizes,
                &inputs,
                &samples,
                0.25,
                TailCalibration::default(),
                confidence,
            )
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0, -0.5, 2.0] {
            let error = build(bad).err().unwrap_or_else(|| panic!("accepted confidence {bad}"));
            assert!(
                error.to_string().contains("bound confidence must lie in [0, 1)"),
                "unexpected error for {bad}: {error}"
            );
        }
        // Valid confidences build, and the degenerate zero accepted by
        // `QualityRequirement::new` keeps producing bounds (collapsed onto
        // the observed proportions) instead of erroring.
        assert!(build(0.9).unwrap().upper_bound(0..16) > 0.0);
        let zero = build(0.0).unwrap();
        assert!(zero.upper_bound(0..16).is_finite());
        assert!(zero.lower_bound(0..16).is_finite());
    }

    #[test]
    fn censored_census_proportion_caps_only_saturated_borders() {
        // A pure 400-pair census is capped at its CP lower limit, strictly
        // inside (0.98, 1): conceding ≈ 3.7/k, not "p = 1" and not collapse.
        let capped = censored_proportion_lower(400, 400, 0.05, 0.9);
        assert!(capped < 1.0, "pure census must concede its detection limit ({capped})");
        assert!(capped > 0.98, "pure-census cap absurdly weak ({capped})");
        // A near-pure census within the saturation threshold is capped too,
        // and the cap never exceeds the observed proportion.
        let near = censored_proportion_lower(400, 395, 0.05, 0.9);
        assert!(near < 395.0 / 400.0);
        // A decidedly mixed census keeps its observed proportion untouched.
        assert_eq!(censored_proportion_lower(400, 300, 0.05, 0.9), 0.75);
        // Degenerate inputs stay safe.
        assert_eq!(censored_proportion_lower(0, 0, 0.05, 0.9), 0.0);
    }

    #[test]
    fn censored_census_proportion_floors_only_quiet_borders() {
        // The recall-side mirror: an all-negative 400-pair census is floored
        // at its CP upper limit, strictly inside (0, 0.02).
        let floored = censored_proportion_upper(400, 0, 0.05, 0.9);
        assert!(floored > 0.0, "quiet census must concede its detection limit ({floored})");
        assert!(floored < 0.02, "quiet-census floor absurdly weak ({floored})");
        // A near-quiet census within the threshold is floored too, never
        // below its observed proportion.
        let near = censored_proportion_upper(400, 5, 0.05, 0.9);
        assert!(near > 5.0 / 400.0);
        // A decidedly mixed census keeps its observed proportion untouched.
        assert_eq!(censored_proportion_upper(400, 100, 0.05, 0.9), 0.25);
        // Degenerate inputs stay safe (an empty census certifies nothing).
        assert_eq!(censored_proportion_upper(0, 0, 0.05, 0.9), 1.0);
    }
}
