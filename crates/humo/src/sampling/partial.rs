//! The partial-sampling optimizer — the paper's "SAMP" (Section VI-B, Algorithm 1).
//!
//! Instead of sampling every subset, SAMP samples only a small, adaptively chosen
//! fraction of them (a budget range `[p_l, p_u]` of the subset count, 1–5 % in the
//! paper) and approximates the match-proportion function everywhere else by
//! Gaussian-process regression:
//!
//! 1. sample `m·p_l` equidistant subsets and fit a GP;
//! 2. repeatedly look at the midpoint between two adjacent sampled subsets; if the
//!    GP's prediction there disagrees with a fresh sample by more than `ε`, keep
//!    refining that region (Algorithm 1), until the budget `m·p_u` is exhausted or
//!    every gap is well approximated;
//! 3. run the bound search of Section VI over the GP posterior (Eq. 19–21).

use super::calibrated::{CalibratedEstimator, TailCalibration};
use super::estimator::{search_subset_bounds, subset_solution};
use super::gp_estimator::GpCountEstimator;
use super::sampler::{SamplerSnapshot, SubsetSampler};
use super::warm::{PriorObservation, WarmStart};
use crate::oracle::Oracle;
use crate::requirement::QualityRequirement;
use crate::session::{
    drive_with_oracle, verified_assignment, CoreOutput, Drive, LabelSlate, ReplayCache,
};
use crate::solution::HumoSolution;
use crate::{HumoError, Result};
use er_core::workload::{SubsetPartition, Workload};
use er_stats::{GaussianProcess, GpConfig, SampleSummary};
use std::collections::{BTreeMap, VecDeque};

/// Configuration of the SAMP optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialSamplingConfig {
    /// The quality requirement to enforce.
    pub requirement: QualityRequirement,
    /// Number of pairs per similarity-ordered subset (the paper uses 200).
    pub unit_size: usize,
    /// Number of pairs sampled (and manually labeled) from each sampled subset.
    pub samples_per_subset: usize,
    /// Sampling budget `[p_l, p_u]` as fractions of the subset count
    /// (the paper uses `[0.01, 0.05]`).
    pub sampling_range: (f64, f64),
    /// Approximation error threshold `ε` of Algorithm 1.
    pub gp_error_threshold: f64,
    /// Noise treatment for the GP bounds.
    ///
    /// * `false` (default, paper-faithful): sampled match proportions are treated
    ///   as exact interpolation points and the count bounds use the pure GP
    ///   posterior covariance of Eq. 20–21. This reproduces the paper's human
    ///   costs; its confidence statement leans on the smoothness of the
    ///   match-proportion curve.
    /// * `true` (conservative): per-subset binomial sampling error and a
    ///   data-calibrated idiosyncratic scatter term are added to the GP noise and
    ///   to the count variance. Bounds become statistically safer but noticeably
    ///   wider, so the human region grows (see the `paper noise_model` bench).
    pub conservative_noise: bool,
    /// Tail calibration of the count bounds (binomial detection limits plus
    /// distance-dependent posterior inflation). Enabled by default; disabling it
    /// reproduces the pre-calibration bounds that under-cover recall on flat
    /// match-proportion curves.
    pub tail_calibration: TailCalibration,
    /// RNG seed for within-subset sampling.
    pub seed: u64,
}

/// Training-set size up to which hyperparameter selection reruns after every
/// refinement probe. Below this the candidate search is effectively free and
/// each new point still moves the selected hyperparameters noticeably;
/// pinning them only pays off once the O(candidates · n³) search dominates
/// the O(n²) factor extension.
pub const SELECTION_WARMUP: usize = 32;

impl PartialSamplingConfig {
    /// Creates a configuration with the paper's defaults.
    pub fn new(requirement: QualityRequirement) -> Self {
        Self {
            requirement,
            unit_size: 200,
            samples_per_subset: 100,
            sampling_range: (0.01, 0.05),
            gp_error_threshold: 0.05,
            conservative_noise: false,
            tail_calibration: TailCalibration::default(),
            seed: 1,
        }
    }

    /// Returns a copy with a different seed (used to average over runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The `[min, max]` number of subsets Algorithm 1 may sample on a workload
    /// of `num_subsets` subsets under this configuration: the percentage
    /// budgets `[p_l, p_u]` of the paper, with hard floors (5 and 20 subsets)
    /// that keep the GP well-constrained on small workloads. External
    /// consumers (e.g. the `pipeline_throughput` round-trip bound) should use
    /// this instead of mirroring the formula.
    pub fn subset_budget(&self, num_subsets: usize) -> (usize, usize) {
        let m = num_subsets;
        let (pl, pu) = self.sampling_range;
        let min_subsets = ((m as f64 * pl).ceil() as usize).max(5).min(m);
        let max_subsets = ((m as f64 * pu).ceil() as usize).max(20).clamp(min_subsets, m);
        (min_subsets, max_subsets)
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.unit_size == 0 {
            return Err(HumoError::InvalidConfig("unit size must be positive".to_string()));
        }
        if self.samples_per_subset == 0 {
            return Err(HumoError::InvalidConfig(
                "samples per subset must be positive".to_string(),
            ));
        }
        let (pl, pu) = self.sampling_range;
        if !(0.0..=1.0).contains(&pl) || !(0.0..=1.0).contains(&pu) || pl > pu || pu == 0.0 {
            return Err(HumoError::InvalidConfig(format!(
                "sampling range must satisfy 0 <= p_l <= p_u <= 1 and p_u > 0, got ({pl}, {pu})"
            )));
        }
        if self.gp_error_threshold <= 0.0 || !self.gp_error_threshold.is_finite() {
            return Err(HumoError::InvalidConfig(
                "GP error threshold must be positive".to_string(),
            ));
        }
        self.tail_calibration.validate()
    }

    /// The GP configuration induced by this optimizer configuration and the
    /// observed training targets.
    ///
    /// * the signal variance is scaled to the spread of the observed match
    ///   proportions (a constant-mean GP must be able to swing across the whole
    ///   curve);
    /// * the observation noise reflects the average binomial sampling error of the
    ///   per-subset samples, which is what Eq. 18 of the paper models.
    pub fn gp_config_for(&self, observed_proportions: &[f64]) -> GpConfig {
        let k = self.samples_per_subset as f64;
        let mean_binomial_variance = if observed_proportions.is_empty() {
            0.25 / k
        } else {
            observed_proportions.iter().map(|p| p * (1.0 - p) / k).sum::<f64>()
                / observed_proportions.len() as f64
        };
        let spread = er_stats::sample_variance(observed_proportions);
        // The constant-mean GP must be able to swing across the whole observed
        // range of the curve; a signal variance of (range/2)² keeps values near
        // the extremes within one prior standard deviation of the mean.
        let range = match (
            er_stats::descriptive::min(observed_proportions),
            er_stats::descriptive::max(observed_proportions),
        ) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 1.0,
        };
        GpConfig {
            signal_variance: (1.5 * spread).max(0.25 * range * range).max(0.02),
            // Selected by held-out error, which stays robust when many observed
            // proportions are exactly 0 or 1 (their sampling noise is then
            // severely understated).
            length_scale: None,
            noise_variance: mean_binomial_variance.max(1e-4),
        }
    }
}

/// The result of SAMP's estimation phase, reused by the hybrid optimizer.
#[derive(Debug, Clone)]
pub struct SamplingPlan {
    /// The equal-count subset partition of the workload.
    pub partition: SubsetPartition,
    /// The GP-backed match-count estimator fitted by Algorithm 1, wrapped in
    /// the binomial tail calibration.
    pub estimator: CalibratedEstimator<GpCountEstimator>,
    /// The subset-index bounds `(lo, hi)` of the human region chosen by the bound
    /// search (half-open range over subsets).
    pub subset_bounds: (usize, usize),
    /// All observations the estimation phase trained on, one per covered
    /// subset: fresh samples keyed by their subset's mean similarity, reused
    /// priors keeping the coordinate they were originally sampled at. These
    /// seed the next epoch's warm start.
    pub observations: Vec<PriorObservation>,
}

impl SamplingPlan {
    /// Translates the subset bounds into a workload-index [`HumoSolution`].
    pub fn solution(&self, workload: &Workload) -> HumoSolution {
        subset_solution(&self.partition, self.subset_bounds, workload.len())
    }

    /// Packages this plan's observations and human interval as a [`WarmStart`]
    /// for the next optimization of (a grown version of) the workload.
    pub fn warm_start(&self, workload: &Workload) -> WarmStart {
        WarmStart {
            observations: self.observations.clone(),
            human_interval: self.solution(workload).human_similarity_interval(workload),
        }
    }
}

/// A refinement probe of Algorithm 1 that suspended while waiting for its
/// sample's labels. `predicted` is the GP prediction taken *before* the
/// sample — the same value a from-scratch replay would recompute — so the
/// disagreement check runs unchanged on resumption.
#[derive(Debug, Clone)]
struct PendingProbe {
    a: usize,
    b: usize,
    x: usize,
    predicted: f64,
}

/// Suspended progress of Algorithm 1 (`train_match_proportion_gp`), stored in
/// the session's [`ReplayCache`] so the next step resumes the training loop
/// where it stopped instead of replaying it from scratch.
///
/// Only *derived* state lives here: resuming is byte-identical to a full
/// replay because subset draws are label-independent, the sampler's RNG state
/// is snapshotted exactly, and the answered-label map only ever grows (first
/// answer wins), so a replay would reconstruct precisely this state before
/// reaching the suspension point again.
#[derive(Debug, Clone)]
pub(crate) struct GpTrainingState {
    sampler: SamplerSnapshot,
    initial_done: bool,
    pending: Option<PendingProbe>,
    train_x: Vec<f64>,
    train_y: Vec<f64>,
    train_noise: Vec<f64>,
    gp: Option<GaussianProcess>,
    /// Training-set size at the last hyperparameter selection.
    selected_at: usize,
    used: BTreeMap<usize, SampleSummary>,
    prior_coords: BTreeMap<usize, f64>,
    priors_used: usize,
    observed: BTreeMap<usize, f64>,
    queue: VecDeque<(usize, usize)>,
    well_approximated: Vec<(usize, usize)>,
}

impl GpTrainingState {
    fn new(seed: u64) -> Self {
        Self {
            sampler: SamplerSnapshot::new(seed),
            initial_done: false,
            pending: None,
            train_x: Vec::new(),
            train_y: Vec::new(),
            train_noise: Vec::new(),
            gp: None,
            selected_at: 0,
            used: BTreeMap::new(),
            prior_coords: BTreeMap::new(),
            priors_used: 0,
            observed: BTreeMap::new(),
            queue: VecDeque::new(),
            well_approximated: Vec::new(),
        }
    }
}

impl PartialSamplingConfig {
    /// Runs the estimation phase (Algorithm 1 plus the bound search) without
    /// resolving the workload, pulling labels from `oracle`, optionally
    /// seeded with a [`WarmStart`] from a previous run. Sessions and HYBR run
    /// the same phase through the suspendable `plan_core`; this synchronous
    /// form serves callers that measure a plan on its own, such as the
    /// plan-query rows of the `pipeline_throughput` harness.
    ///
    /// Prior observations whose similarity coordinate still falls onto a subset
    /// of the current partition are reused as GP training points *without*
    /// issuing oracle queries; fresh samples are only drawn for uncovered
    /// subsets and wherever Algorithm 1's refinement detects disagreement
    /// between the seeded GP and the data. Without a warm start, or with an
    /// empty one, this is the cold plan.
    pub fn plan(
        &self,
        workload: &Workload,
        oracle: &mut dyn Oracle,
        warm: Option<&WarmStart>,
    ) -> Result<SamplingPlan> {
        self.validate()?;
        drive_with_oracle(workload, oracle, |slate, cache| {
            self.plan_core(workload, slate, warm, cache)
        })
    }

    /// The suspendable estimation phase backing both the session state machine
    /// and the oracle-driven [`PartialSamplingConfig::plan`].
    ///
    /// A completed plan is memoized in the [`ReplayCache`]: SAMP's final
    /// verification round and HYBR's boundary-search rounds re-enter here on
    /// every step and take the cached plan out instead of re-running the
    /// whole estimation phase. The plan is moved, not copied; a session
    /// caller must put it back with [`ReplayCache::store_plan`] on every
    /// exit.
    pub(crate) fn plan_core(
        &self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        warm: Option<&WarmStart>,
        cache: &mut ReplayCache,
    ) -> Drive<SamplingPlan> {
        if let Some(plan) = cache.take_plan() {
            workload.obs().counter("session.replay_cache.plan_hits", 1);
            return Ok(plan);
        }
        if workload.is_empty() {
            return Err(HumoError::InvalidWorkload(
                "cannot optimize an empty workload".to_string(),
            )
            .into());
        }
        let partition = cache.partition_or_compute(|| Ok(workload.partition(self.unit_size)?))?;
        let m = partition.len();

        let obs = workload.obs();
        let (gp, diagonal_scale, used, prior_coords) = {
            let _train = obs.span("plan.train");
            self.train_match_proportion_gp(workload, &partition, slate, warm, cache)?
        };
        let calibrate_span = obs.span("plan.calibrate");
        let query: Vec<f64> = partition.subsets().iter().map(|s| s.mean_similarity()).collect();
        // Independent per-subset variance: the calibrated scatter term (when the
        // workload exhibits scatter) plus a Poisson-style floor — the number of
        // matches in a subset predicted to have proportion p is at least as
        // uncertain as a Poisson count with mean n·p. The floor is what keeps the
        // recall bound honest in heavily diluted regions (match proportions below
        // the per-subset sampling detection limit) without widening the bounds in
        // the near-pure regions that dominate skewed workloads. On top of that,
        // subsets far from any sampled subset get their GP posterior variance
        // inflated with distance, so interpolation between sparse samples cannot
        // claim near-certainty.
        let unit = self.unit_size as f64;
        let detection_floor = 0.5 / self.samples_per_subset as f64;
        let tail = self.tail_calibration;
        let length_scale = gp.kernel().length_scale;
        let distances: Vec<f64> =
            query.iter().map(|&x| gp.distance_to_nearest_observation(x)).collect();
        let confidence = self.requirement.split_confidence();
        let base =
            GpCountEstimator::with_noise_model(&partition, &gp, &query, confidence, |i, p, var| {
                let inflation = if tail.enabled {
                    let factor = er_stats::posterior_inflation_factor(
                        distances[i],
                        length_scale,
                        tail.distance_strength,
                    );
                    (factor - 1.0) * var
                } else {
                    0.0
                };
                diagonal_scale * Self::stabilized_spread(p)
                    + p.max(detection_floor) / unit
                    + inflation
            });
        let sizes: Vec<usize> = partition.subsets().iter().map(|s| s.len()).collect();
        let estimator =
            CalibratedEstimator::new(base, &sizes, &query, &used, length_scale, tail, confidence)?;
        let subset_bounds = search_subset_bounds(&estimator, m, &self.requirement);
        drop(calibrate_span);
        // Reused priors keep the coordinate they were originally sampled at;
        // fresh samples are keyed by their subset's mean similarity.
        let observations = used
            .iter()
            .map(|(&i, s)| PriorObservation {
                similarity: prior_coords
                    .get(&i)
                    .copied()
                    .unwrap_or_else(|| partition.subset(i).mean_similarity()),
                sample_size: s.sample_size,
                positives: s.positives,
            })
            .collect();
        Ok(SamplingPlan { partition, estimator, subset_bounds, observations })
    }

    /// The suspendable full SAMP run: estimation plan, solution translation
    /// and final `DH` verification.
    pub(crate) fn session_core(
        &self,
        workload: &Workload,
        slate: &LabelSlate<'_>,
        warm: Option<&WarmStart>,
        cache: &mut ReplayCache,
    ) -> Drive<CoreOutput> {
        let plan = self.plan_core(workload, slate, warm, cache)?;
        let solution = plan.solution(workload);
        let result = verified_assignment(&solution, workload, slate).map(|assignment| CoreOutput {
            solution,
            assignment,
            warm_out: Some(plan.warm_start(workload)),
        });
        cache.store_plan(plan);
        result
    }

    /// Algorithm 1: adaptive sampling plus Gaussian-process regression of the
    /// match-proportion function, optionally seeded with prior observations from
    /// a [`WarmStart`]. Returns the fitted GP, the calibrated per-subset
    /// deviation scale `c` (deviation variance ≈ `c·p(1−p)`), the map of all
    /// observations used (fresh and prior) keyed by subset index, and the
    /// original similarity coordinates of the reused priors.
    ///
    /// The initial equidistant subsets (whose membership is label-independent)
    /// are requested as one label batch; each adaptive refinement probe —
    /// inherently sequential, since the GP refresh decides where to look next —
    /// costs one batch of its own.
    ///
    /// The loop is *resumable*: when a sample suspends for labels, the
    /// training progress (sampler snapshot, training vectors, the fitted GP,
    /// the refinement queue and the in-flight probe) is stored in the
    /// [`ReplayCache`] and picked up by the next replay, which therefore costs
    /// O(one probe) instead of O(whole history). Resumption is byte-identical
    /// to a from-scratch replay (see [`GpTrainingState`]); with the cache
    /// disabled the function simply replays from scratch every time.
    ///
    /// Between selections each probe extends the GP's Cholesky factor in
    /// O(n²) ([`GaussianProcess::extend_with_noise`]), which is bit-identical
    /// to refactorizing from scratch with the pinned hyperparameters.
    /// Hyperparameters are re-selected per probe up to
    /// [`SELECTION_WARMUP`] training points, past that whenever a probe
    /// surprises the GP by at least the error threshold or the training set
    /// has doubled since the last selection, and once more on the final
    /// training set (unless the scatter recalibration below already re-fits
    /// with fresh selection).
    #[allow(clippy::type_complexity)]
    fn train_match_proportion_gp(
        &self,
        workload: &Workload,
        partition: &SubsetPartition,
        slate: &LabelSlate<'_>,
        warm: Option<&WarmStart>,
        cache: &mut ReplayCache,
    ) -> Drive<(GaussianProcess, f64, BTreeMap<usize, SampleSummary>, BTreeMap<usize, f64>)> {
        let m = partition.len();
        if m < 2 {
            return Err(HumoError::InvalidWorkload(
                "partial sampling needs at least two subsets; lower the unit size or use the \
                 baseline or all-sampling optimizer"
                    .to_string(),
            )
            .into());
        }
        // Percentage budgets follow the paper, but a hard floor keeps the GP
        // well-constrained on small workloads where 1–5 % of the subsets would be
        // just a handful of points.
        let (min_subsets, max_subsets) = self.subset_budget(m);

        // Map prior observations onto the current partition: a prior is reusable
        // for the subset whose mean similarity is nearest, provided the
        // coordinate lies within half the typical subset spacing (priors further
        // from every subset describe a region of the curve this partition does
        // not probe, and are dropped; malformed priors are skipped, not
        // trusted). When several priors land on the same subset the largest
        // sample wins. Each reused prior keeps its *original* similarity
        // coordinate — re-keying it to the subset mean would let the coordinate
        // drift by up to the tolerance every epoch while the sample never
        // expires.
        let means: Vec<f64> = partition.subsets().iter().map(|s| s.mean_similarity()).collect();
        let mut prior_for: BTreeMap<usize, (f64, SampleSummary)> = BTreeMap::new();
        if let Some(warm) = warm {
            let spacings: Vec<f64> = means.windows(2).map(|w| w[1] - w[0]).collect();
            let tolerance = 0.5 * er_stats::descriptive::median(&spacings);
            for obs in &warm.observations {
                let Some(summary) = obs.summary() else { continue };
                if !obs.similarity.is_finite() {
                    continue;
                }
                let idx = nearest_index(&means, obs.similarity);
                if (means[idx] - obs.similarity).abs() <= tolerance {
                    let entry = prior_for.entry(idx).or_insert((obs.similarity, summary));
                    if obs.sample_size > entry.1.sample_size {
                        *entry = (obs.similarity, summary);
                    }
                }
            }
        }

        // Initial equidistant subsets, always including the first and last.
        let mut initial: Vec<usize> = (0..min_subsets)
            .map(|k| ((k as f64) * (m as f64 - 1.0) / (min_subsets as f64 - 1.0)).round() as usize)
            .collect();
        initial.dedup();
        // A warm start with observations always re-anchors the previous
        // human-region boundaries: the bound search is most sensitive there, so
        // those subsets join the initial set (covered by priors when available,
        // freshly sampled otherwise). An observation-less warm start is fully
        // inert, matching `WarmStart::is_empty`.
        if let Some((lo_sim, hi_sim)) =
            warm.filter(|w| !w.is_empty()).and_then(|w| w.human_interval)
        {
            for sim in [lo_sim, hi_sim] {
                initial.push(nearest_index(&means, sim));
            }
            initial.sort_unstable();
            initial.dedup();
        }

        // Resume suspended training progress when the replay cache holds any;
        // otherwise start from scratch (which is also the cache-disabled
        // behavior: `store_training` below is then a no-op, so every step
        // replays the loop in full — the pre-cache semantics).
        let mut st = match cache.take_training() {
            Some(st) => {
                workload.obs().counter("session.replay_cache.training_hits", 1);
                st
            }
            None => GpTrainingState::new(self.seed),
        };
        // The snapshot moves into the sampler and back into `st` on suspension;
        // the placeholder left behind is never read.
        let snapshot = std::mem::replace(&mut st.sampler, SamplerSnapshot::new(self.seed));
        let mut sampler = SubsetSampler::restore(partition, self.samples_per_subset, snapshot);

        // Fitting noise: the paper-faithful mode uses the raw binomial sampling
        // variance of each observed proportion (which vanishes in the near-pure
        // regions that dominate skewed workloads, so the GP effectively
        // interpolates there); the conservative mode uses an Agresti-adjusted
        // variance that never drops to zero.
        let conservative = self.conservative_noise;
        let push_sample = |st: &mut GpTrainingState, idx: usize, summary: SampleSummary| {
            st.train_x.push(partition.subset(idx).mean_similarity());
            st.train_y.push(summary.proportion());
            st.train_noise.push(if conservative {
                Self::binomial_noise(&summary)
            } else {
                // Paper-faithful: a pure sample (0 or k positives) is interpolated
                // essentially exactly; mixed samples carry their binomial variance.
                let k = summary.sample_size.max(1) as f64;
                let p = summary.proportion();
                (p * (1.0 - p) / k).max(1e-8)
            });
        };
        // `st.used` tracks every observation the GP trains on, keyed by subset
        // index. Prior observations cover their subset without oracle cost;
        // only uncovered subsets are sampled fresh. Reused priors still count
        // against the subset budget below — a warm start re-certifies the same
        // evidence density for fewer queries, it does not buy extra refinement.
        if !st.initial_done {
            // The whole initial set is one label batch: membership is fixed
            // before any of its labels are known, so the pairs can be asked in
            // parallel. Suspending here stores only the sampler's draws — the
            // rest of the state is still empty.
            let fresh_initial: Vec<usize> =
                initial.iter().copied().filter(|idx| !prior_for.contains_key(idx)).collect();
            if let Err(e) = sampler.sample_many_core(&fresh_initial, slate) {
                st.sampler = sampler.into_snapshot();
                cache.store_training(st);
                return Err(e);
            }
            for &idx in &initial {
                let summary = match prior_for.get(&idx) {
                    Some(&(coord, prior)) => {
                        st.priors_used += 1;
                        st.prior_coords.insert(idx, coord);
                        prior
                    }
                    // Cannot suspend: the batch above answered every fresh
                    // initial subset, so this is a cache hit.
                    None => sampler.sample_core(idx, slate)?,
                };
                st.used.insert(idx, summary);
                push_sample(&mut st, idx, summary);
            }
            let gp = GaussianProcess::fit_with_noise(
                &st.train_x,
                &st.train_y,
                &st.train_noise,
                self.gp_config_for(&st.train_y),
            )?;
            st.selected_at = st.train_x.len();
            st.gp = Some(gp);
            st.observed = st.used.iter().map(|(&idx, s)| (idx, s.proportion())).collect();
            st.queue = initial.windows(2).map(|w| (w[0], w[1])).collect();
            st.initial_done = true;
        }

        // Adaptive refinement (Algorithm 1): probe the midpoint between adjacent
        // sampled subsets; a large disagreement with the GP prediction keeps that
        // region on the refinement queue. Well-approximated gaps are revisited if
        // budget remains after the poorly-approximated ones, most-disagreeing
        // endpoints first: a gap whose two sampled endpoints differ a lot hides
        // most of the curve's movement (and most of the matching pairs), even if
        // its midpoint happened to look fine.
        let pop_most_interesting = |gaps: &mut Vec<(usize, usize)>,
                                    observed: &std::collections::BTreeMap<usize, f64>|
         -> Option<(usize, usize)> {
            if gaps.is_empty() {
                return None;
            }
            let score = |(a, b): &(usize, usize)| {
                let disagreement = (observed.get(a).copied().unwrap_or(0.0)
                    - observed.get(b).copied().unwrap_or(0.0))
                .abs();
                // Disagreement dominates; width breaks ties so large unexplored
                // gaps are still preferred over tiny ones.
                (disagreement * 1_000_000.0) as u64 * 10_000 + (b - a) as u64
            };
            let best = gaps
                .iter()
                .enumerate()
                .max_by_key(|(_, gap)| score(gap))
                .map(|(i, _)| i)
                .expect("non-empty gap list");
            Some(gaps.swap_remove(best))
        };
        while sampler.sampled_subset_count() + st.priors_used < max_subsets {
            // A probe that suspended last step resumes directly: the budget
            // check above sees the same counts a full replay would (its sample
            // never completed), and its `predicted` was computed before the
            // suspension from the same GP a replay would rebuild.
            let probe = match st.pending.take() {
                Some(probe) => probe,
                None => {
                    let Some((a, b)) = st
                        .queue
                        .pop_front()
                        .or_else(|| pop_most_interesting(&mut st.well_approximated, &st.observed))
                    else {
                        break;
                    };
                    if b.saturating_sub(a) <= 1 {
                        continue;
                    }
                    let x = a + (b - a) / 2;
                    if st.used.contains_key(&x) {
                        continue;
                    }
                    let v_x = partition.subset(x).mean_similarity();
                    let predicted =
                        st.gp.as_ref().expect("initial fit precedes refinement").predict_mean(v_x);
                    PendingProbe { a, b, x, predicted }
                }
            };
            // A prior observation covering the midpoint substitutes for the
            // fresh sample: the disagreement check still runs against it, so a
            // drifted curve region is refined with fresh samples around it.
            let summary = match prior_for.get(&probe.x) {
                Some(&(coord, prior)) => {
                    st.priors_used += 1;
                    st.prior_coords.insert(probe.x, coord);
                    prior
                }
                None => match sampler.sample_core(probe.x, slate) {
                    Ok(summary) => summary,
                    Err(e) => {
                        st.pending = Some(probe);
                        st.sampler = sampler.into_snapshot();
                        cache.store_training(st);
                        return Err(e);
                    }
                },
            };
            let observed_proportion = summary.proportion();
            st.observed.insert(probe.x, observed_proportion);
            st.used.insert(probe.x, summary);
            push_sample(&mut st, probe.x, summary);
            let appended = st.train_x.len() - 1;
            let surprised =
                (probe.predicted - observed_proportion).abs() >= self.gp_error_threshold;
            let mut gp = st.gp.take().expect("initial fit precedes refinement");
            if surprised
                || st.train_x.len() <= SELECTION_WARMUP
                || st.train_x.len() >= 2 * st.selected_at
            {
                // Re-select length scale and noise on the full data while the
                // training set is small (selection costs microseconds there and
                // every point moves the hyperparameters), when the probe
                // disagreed with the prediction (a surprise is evidence the
                // pinned hyperparameters no longer describe the curve), or when
                // the training set doubled since the last selection. Where the
                // GP is tracking well past the warm-up, the cheap extension
                // below carries the pinned hyperparameters forward instead.
                gp = GaussianProcess::fit_with_noise(
                    &st.train_x,
                    &st.train_y,
                    &st.train_noise,
                    self.gp_config_for(&st.train_y),
                )?;
                st.selected_at = st.train_x.len();
                workload.obs().counter("gp.reselect", 1);
            } else {
                gp.extend_with_noise(
                    &st.train_x[appended..],
                    &st.train_y[appended..],
                    &st.train_noise[appended..],
                )?;
                workload.obs().counter("gp.refit.incremental", 1);
            }
            st.gp = Some(gp);
            if surprised {
                st.queue.push_back((probe.a, probe.x));
                st.queue.push_back((probe.x, probe.b));
            } else {
                st.well_approximated.push((probe.a, probe.x));
                st.well_approximated.push((probe.x, probe.b));
            }
        }
        let mut gp = st.gp.take().expect("initial fit precedes calibration");
        let (train_x, train_y, train_noise) = (&st.train_x, &st.train_y, &st.train_noise);

        // Calibrate the per-subset deviation scale against the local scatter of
        // the observed proportions. On workloads whose per-subset proportions
        // scatter around the smooth curve (large σ in the paper's synthetic
        // generator), the binomial sampling noise alone underestimates the real
        // subset-level variability and the count bounds would become
        // overconfident; on smooth workloads (the DS/AB shapes) the calibration
        // detects nothing and leaves the paper-faithful tight bounds untouched.
        let binomial_scale = 1.0 / self.samples_per_subset as f64;
        let mut noise_scale = Self::local_noise_scale(train_x, train_y).unwrap_or(binomial_scale);
        noise_scale = noise_scale.max(binomial_scale);
        let scatter_detected = noise_scale > 2.0 * binomial_scale;
        if scatter_detected {
            let recalibrated_noise: Vec<f64> =
                train_y.iter().map(|&p| noise_scale * Self::stabilized_spread(p)).collect();
            gp = GaussianProcess::fit_with_noise(
                train_x,
                train_y,
                &recalibrated_noise,
                self.gp_config_for(train_y),
            )?;
        } else if st.selected_at != train_x.len() {
            // The refinement loop appended points since the last hyperparameter
            // selection; re-select on the final training set so the returned GP
            // does not depend on where the selection cadence happened to stop.
            // (The scatter recalibration above is itself a fresh selection.)
            gp = GaussianProcess::fit_with_noise(
                train_x,
                train_y,
                train_noise,
                self.gp_config_for(train_y),
            )?;
        }
        // Scale of the independent per-subset term added to the count variance:
        // the conservative mode always carries the full calibrated scatter plus
        // sampling error; the default mode adds only the *excess* scatter beyond
        // sampling error, and only when the data exhibits it.
        let diagonal_scale = if conservative {
            noise_scale
        } else if scatter_detected {
            noise_scale - binomial_scale
        } else {
            0.0
        };
        Ok((gp, diagonal_scale, st.used, st.prior_coords))
    }

    /// Binomial sampling variance of an observed proportion, with an
    /// Agresti-style adjustment so pure samples still carry a nonzero noise.
    fn binomial_noise(summary: &er_stats::SampleSummary) -> f64 {
        let k = summary.sample_size.max(1) as f64;
        let adjusted = (summary.positives as f64 + 1.0) / (k + 2.0);
        adjusted * (1.0 - adjusted) / k
    }

    /// `p(1-p)` with `p` clamped away from the endpoints, used when spreading the
    /// calibrated noise scale across proportions.
    fn stabilized_spread(p: f64) -> f64 {
        let q = p.clamp(0.005, 0.995);
        q * (1.0 - q)
    }

    /// Estimates the per-subset deviation *scale* `c` such that the deviation
    /// variance of a subset with proportion `p` is approximately `c · p(1−p)`.
    ///
    /// Each observed proportion is compared with the straight line through its two
    /// neighbours (after sorting by similarity): for a smooth match-proportion
    /// curve the interpolation error is second order in the sample spacing, so the
    /// residual is dominated by subset-level scatter plus within-subset sampling
    /// error. Normalizing each squared residual by `p(1−p)` and taking the median
    /// (scaled by the χ²₁ median and the 1.5 variance factor of the interpolation
    /// residual) yields a robust estimate of `c`. Returns `None` when fewer than
    /// five points are available.
    fn local_noise_scale(train_x: &[f64], train_y: &[f64]) -> Option<f64> {
        if train_x.len() < 5 {
            return None;
        }
        let mut points: Vec<(f64, f64)> =
            train_x.iter().copied().zip(train_y.iter().copied()).collect();
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite similarities"));
        let mut normalized_residuals = Vec::with_capacity(points.len().saturating_sub(2));
        for w in points.windows(3) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let (x2, y2) = w[2];
            if x2 - x0 <= f64::EPSILON {
                continue;
            }
            let t = (x1 - x0) / (x2 - x0);
            let interpolated = y0 + t * (y2 - y0);
            let r = y1 - interpolated;
            normalized_residuals.push(r * r / Self::stabilized_spread(y1));
        }
        if normalized_residuals.is_empty() {
            return None;
        }
        // r = ε₁ − ((1−t) ε₀ + t ε₂) has variance ≈ 1.5 σ² for t ≈ 0.5; the median
        // of σ²·χ²₁ is ≈ 0.455 σ².
        let median = er_stats::descriptive::median(&normalized_residuals);
        Some(median / (1.5 * 0.455))
    }
}

/// Index of the value in an ascending slice nearest to `x`.
fn nearest_index(sorted: &[f64], x: f64) -> usize {
    debug_assert!(!sorted.is_empty());
    let i = sorted.partition_point(|&v| v < x);
    if i == 0 {
        0
    } else if i >= sorted.len() {
        sorted.len() - 1
    } else if (x - sorted[i - 1]).abs() <= (sorted[i] - x).abs() {
        i - 1
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::session::{LabelingSession, SessionConfig, SessionState};
    use crate::solution::OptimizationOutcome;
    use er_datagen::synthetic::{SyntheticConfig, SyntheticGenerator};

    fn workload(n: usize, sigma: f64, seed: u64) -> Workload {
        SyntheticGenerator::new(SyntheticConfig {
            num_pairs: n,
            tau: 14.0,
            sigma,
            subset_size: 200,
            seed,
        })
        .generate()
    }

    fn run(workload: &Workload, level: f64, seed: u64) -> OptimizationOutcome {
        let requirement = QualityRequirement::symmetric(level).unwrap();
        let config = PartialSamplingConfig::new(requirement).with_seed(seed);
        let mut oracle = GroundTruthOracle::new();
        LabelingSession::new(SessionConfig::PartialSampling(config), workload)
            .unwrap()
            .drive(&mut oracle)
            .unwrap()
    }

    /// Runs a SAMP session seeded with `warm`: it plans as
    /// `config.plan(w, oracle, Some(&warm))` does, then verifies `DH`.
    fn resolve_warm(
        w: &Workload,
        config: PartialSamplingConfig,
        warm: WarmStart,
        oracle: &mut GroundTruthOracle,
    ) -> OptimizationOutcome {
        let state = SessionState::new(SessionConfig::PartialSampling(config), w).unwrap();
        LabelingSession::from_state(state.with_warm_start(Some(warm)), w).drive(oracle).unwrap()
    }

    #[test]
    fn meets_the_requirement_with_high_success_rate() {
        let w = workload(40_000, 0.1, 11);
        let runs = 10;
        let mut successes = 0;
        for seed in 0..runs {
            let outcome = run(&w, 0.9, seed);
            if outcome.metrics.precision() >= 0.9 && outcome.metrics.recall() >= 0.9 {
                successes += 1;
            }
        }
        assert!(successes >= runs - 1, "SAMP met the requirement only {successes}/{runs} times");
    }

    #[test]
    fn samples_far_fewer_subsets_than_all_sampling() {
        let w = workload(40_000, 0.1, 13);
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        let mut oracle = GroundTruthOracle::new();
        let plan = config.plan(&w, &mut oracle, None).unwrap();
        let m = plan.partition.len();
        // Sampling budget is p_u = 5% of subsets (with a floor of 20 subsets for
        // small workloads); the oracle cost before resolution is bounded by that
        // subset budget times the per-subset sample size.
        let subset_budget = ((m as f64 * 0.05).ceil() as usize).max(20) + 1;
        let max_sampled_pairs =
            subset_budget * PartialSamplingConfig::new(requirement).samples_per_subset;
        assert!(
            oracle.labels_issued() <= max_sampled_pairs,
            "sampling cost {} exceeds the budget {max_sampled_pairs}",
            oracle.labels_issued()
        );
    }

    #[test]
    fn cheaper_than_the_conservative_baseline() {
        let w = workload(40_000, 0.1, 17);
        let samp = run(&w, 0.9, 3);
        let base = {
            let requirement = QualityRequirement::symmetric(0.9).unwrap();
            let config = crate::baseline::BaselineConfig::new(requirement);
            let mut oracle = GroundTruthOracle::new();
            LabelingSession::new(SessionConfig::Baseline(config), &w)
                .unwrap()
                .drive(&mut oracle)
                .unwrap()
        };
        assert!(
            samp.total_human_cost < base.total_human_cost,
            "SAMP ({}) should be cheaper than BASE ({}) on a steep logistic workload",
            samp.total_human_cost,
            base.total_human_cost
        );
    }

    #[test]
    fn copes_with_an_irregular_workload() {
        // σ = 0.5 breaks the monotonicity assumption; SAMP should still mostly meet
        // the requirement thanks to the GP's robustness (paper, Figure 10).
        let w = workload(40_000, 0.5, 19);
        let outcome = run(&w, 0.9, 5);
        // On this adversarial workload the default (paper-faithful) bounds give up
        // some precision; the conservative_noise mode recovers the guarantee at a
        // higher cost (see `paper noise_model`).
        assert!(outcome.metrics.precision() >= 0.75, "precision {}", outcome.metrics.precision());
        assert!(outcome.metrics.recall() >= 0.8, "recall {}", outcome.metrics.recall());
        let conservative = SessionConfig::PartialSampling(PartialSamplingConfig {
            conservative_noise: true,
            ..PartialSamplingConfig::new(QualityRequirement::symmetric(0.9).unwrap())
        });
        let mut oracle = crate::oracle::GroundTruthOracle::new();
        let safe = LabelingSession::new(conservative, &w).unwrap().drive(&mut oracle).unwrap();
        assert!(
            safe.metrics.precision() >= 0.85,
            "conservative precision {}",
            safe.metrics.precision()
        );
        assert!(safe.metrics.recall() >= 0.85, "conservative recall {}", safe.metrics.recall());
        assert!(safe.total_human_cost >= outcome.total_human_cost);
    }

    #[test]
    fn rejects_invalid_configurations() {
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let base = PartialSamplingConfig::new(requirement);
        assert!(PartialSamplingConfig { unit_size: 0, ..base }.validate().is_err());
        assert!(PartialSamplingConfig { samples_per_subset: 0, ..base }.validate().is_err());
        assert!(PartialSamplingConfig { sampling_range: (0.5, 0.1), ..base }.validate().is_err());
        assert!(PartialSamplingConfig { gp_error_threshold: 0.0, ..base }.validate().is_err());
    }

    #[test]
    fn plan_rejects_an_invalid_configuration() {
        let w = workload(4_000, 0.1, 41);
        let config = PartialSamplingConfig {
            unit_size: 0,
            ..PartialSamplingConfig::new(QualityRequirement::symmetric(0.9).unwrap())
        };
        let mut oracle = GroundTruthOracle::new();
        assert!(matches!(config.plan(&w, &mut oracle, None), Err(HumoError::InvalidConfig(_))));
        assert_eq!(oracle.labels_issued(), 0);
    }

    #[test]
    fn warm_start_none_matches_cold_plan_exactly() {
        let w = workload(20_000, 0.1, 41);
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        let mut oracle_a = GroundTruthOracle::new();
        let cold = config.plan(&w, &mut oracle_a, None).unwrap();
        let mut oracle_b = GroundTruthOracle::new();
        let explicit = config.plan(&w, &mut oracle_b, None).unwrap();
        assert_eq!(cold.subset_bounds, explicit.subset_bounds);
        assert_eq!(oracle_a.labels_issued(), oracle_b.labels_issued());
        // An *empty* warm start must also be a no-op — including one that
        // carries a human interval but no observations.
        let mut oracle_c = GroundTruthOracle::new();
        let empty = WarmStart::default();
        let seeded = config.plan(&w, &mut oracle_c, Some(&empty)).unwrap();
        assert_eq!(cold.subset_bounds, seeded.subset_bounds);
        assert_eq!(oracle_a.labels_issued(), oracle_c.labels_issued());
        let mut oracle_d = GroundTruthOracle::new();
        let interval_only =
            WarmStart { observations: Vec::new(), human_interval: Some((0.4, 0.6)) };
        let seeded = config.plan(&w, &mut oracle_d, Some(&interval_only)).unwrap();
        assert_eq!(cold.subset_bounds, seeded.subset_bounds);
        assert_eq!(oracle_a.labels_issued(), oracle_d.labels_issued());
        // Malformed priors are skipped rather than trusted or panicked on.
        let mut oracle_e = GroundTruthOracle::new();
        let malformed = WarmStart {
            observations: vec![
                PriorObservation { similarity: 0.5, sample_size: 5, positives: 9 },
                PriorObservation { similarity: f64::NAN, sample_size: 10, positives: 1 },
            ],
            human_interval: None,
        };
        let seeded = config.plan(&w, &mut oracle_e, Some(&malformed)).unwrap();
        assert_eq!(cold.subset_bounds, seeded.subset_bounds);
        assert_eq!(oracle_a.labels_issued(), oracle_e.labels_issued());
    }

    #[test]
    fn warm_start_saves_oracle_queries_at_unchanged_quality() {
        let w = workload(30_000, 0.1, 43);
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        // Epoch 1: cold plan, capture the warm state.
        let mut epoch1_oracle = GroundTruthOracle::new();
        let plan = config.plan(&w, &mut epoch1_oracle, None).unwrap();
        let warm = plan.warm_start(&w);
        assert!(!warm.is_empty());
        // Epoch 2 over the same workload, fresh oracles to isolate plan-phase
        // query counts: warm must be measurably cheaper than cold.
        let mut cold_oracle = GroundTruthOracle::new();
        config.plan(&w, &mut cold_oracle, None).unwrap();
        let mut warm_oracle = GroundTruthOracle::new();
        let warm_plan = config.plan(&w, &mut warm_oracle, Some(&warm)).unwrap();
        assert!(
            warm_oracle.labels_issued() < cold_oracle.labels_issued(),
            "warm plan used {} oracle queries, cold used {}",
            warm_oracle.labels_issued(),
            cold_oracle.labels_issued()
        );
        // Resolving the warm plan still meets the requirement.
        let outcome = resolve_warm(&w, config, warm, &mut warm_oracle);
        assert_eq!(outcome.solution, warm_plan.solution(&w));
        assert!(outcome.metrics.precision() >= 0.9, "precision {}", outcome.metrics.precision());
        assert!(outcome.metrics.recall() >= 0.9, "recall {}", outcome.metrics.recall());
    }

    #[test]
    fn warm_start_transfers_to_a_grown_workload() {
        // A representative 80% subsample stands in for the earlier epoch; the
        // full workload is the grown one. Priors are keyed by similarity, so
        // they transfer across the changed partition.
        let full = workload(30_000, 0.1, 47);
        let partial = Workload::from_scores(
            full.pairs()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 0)
                .map(|(_, p)| (p.similarity(), p.is_match())),
        )
        .unwrap();
        let requirement = QualityRequirement::symmetric(0.9).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        let mut epoch1_oracle = GroundTruthOracle::new();
        let warm = config.plan(&partial, &mut epoch1_oracle, None).unwrap().warm_start(&partial);
        let mut cold_oracle = GroundTruthOracle::new();
        config.plan(&full, &mut cold_oracle, None).unwrap();
        let mut warm_oracle = GroundTruthOracle::new();
        let warm_plan = config.plan(&full, &mut warm_oracle, Some(&warm)).unwrap();
        let warm_plan_queries = warm_oracle.labels_issued();
        assert!(
            warm_plan_queries < cold_oracle.labels_issued(),
            "warm plan on the grown workload used {warm_plan_queries} queries, cold used {}",
            cold_oracle.labels_issued()
        );
        let next_warm = warm_plan.warm_start(&full);
        let outcome = resolve_warm(&full, config, warm, &mut warm_oracle);
        assert_eq!(outcome.solution, warm_plan.solution(&full));
        assert!(outcome.metrics.precision() >= 0.85, "precision {}", outcome.metrics.precision());
        assert!(outcome.metrics.recall() >= 0.85, "recall {}", outcome.metrics.recall());
        assert!(!next_warm.is_empty());
    }

    #[test]
    fn plan_solution_translates_subset_bounds() {
        let w = workload(10_000, 0.1, 23);
        let requirement = QualityRequirement::symmetric(0.85).unwrap();
        let config = PartialSamplingConfig::new(requirement);
        let mut oracle = GroundTruthOracle::new();
        let plan = config.plan(&w, &mut oracle, None).unwrap();
        let solution = plan.solution(&w);
        let (lo, hi) = plan.subset_bounds;
        assert!(lo <= hi);
        assert!(solution.lower_index <= solution.upper_index);
        assert!(solution.human_region_size() <= w.len());
        // The human region covers exactly the chosen subsets.
        if hi > lo {
            assert_eq!(solution.lower_index, plan.partition.subset(lo).range().start);
            assert_eq!(solution.upper_index, plan.partition.subset(hi - 1).range().end);
        }
    }
}
