//! Gaussian-process regression over a one-dimensional input (pair similarity).
//!
//! The HUMO partial-sampling optimizer (paper Section VI-B, Algorithm 1)
//! approximates the *match-proportion function* — the probability that an
//! instance pair with a given similarity value is a true match — from a small
//! number of sampled workload subsets. The approximation must provide both a
//! posterior mean and a posterior **covariance** between predictions, because
//! Eq. 20 of the paper aggregates the match-count estimate of many unsampled
//! subsets and needs the full covariance matrix
//! `K(V*,V*) − K(V*,V) K(V,V)⁻¹ K(V,V*)` to derive the standard deviation of
//! the aggregate.
//!
//! The implementation uses a squared-exponential (RBF) kernel plus a noise
//! (nugget) term, and a Cholesky factorization of the training covariance.

use crate::linalg::{
    backward_substitute_in_place, cholesky_in_place, dot, dot_seed, forward_substitute_in_place,
    Cholesky, Matrix,
};
use crate::{Result, StatsError};
use std::collections::HashMap;

/// Query points per side of one covariance tile in
/// [`GaussianProcess::predict_joint_into`]: the tile's `TILE²` dot products
/// accumulate side by side.
const TILE: usize = 4;

/// A covariance kernel over scalar inputs.
pub trait Kernel {
    /// Covariance between two inputs.
    fn eval(&self, a: f64, b: f64) -> f64;

    /// Builds the covariance matrix between two sets of inputs.
    fn matrix(&self, xs: &[f64], ys: &[f64]) -> Matrix {
        Matrix::from_fn(xs.len(), ys.len(), |i, j| self.eval(xs[i], ys[j]))
    }
}

/// Squared-exponential (RBF) kernel
/// `k(a, b) = σ² · exp(−(a−b)² / (2ℓ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Signal variance `σ²` (the kernel value at zero distance).
    pub signal_variance: f64,
    /// Length scale `ℓ` controlling how quickly correlation decays with distance.
    pub length_scale: f64,
}

impl RbfKernel {
    /// Creates an RBF kernel, validating that both parameters are positive.
    pub fn new(signal_variance: f64, length_scale: f64) -> Result<Self> {
        if signal_variance <= 0.0 || !signal_variance.is_finite() {
            return Err(StatsError::InvalidArgument(format!(
                "signal variance must be positive, got {signal_variance}"
            )));
        }
        if length_scale <= 0.0 || !length_scale.is_finite() {
            return Err(StatsError::InvalidArgument(format!(
                "length scale must be positive, got {length_scale}"
            )));
        }
        Ok(Self { signal_variance, length_scale })
    }

    /// The kernel at squared distance `d2`: `eval(a, b)` is `at(d * d)`
    /// with `d = a − b`, so a caller holding squared distances gets the same
    /// bits.
    fn at(&self, d2: f64) -> f64 {
        self.signal_variance * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

impl Kernel for RbfKernel {
    fn eval(&self, a: f64, b: f64) -> f64 {
        let d = a - b;
        self.at(d * d)
    }
}

/// Configuration for fitting a [`GaussianProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Signal variance of the RBF kernel. Defaults to `0.05` which suits
    /// match-proportion curves living in `[0, 1]`.
    pub signal_variance: f64,
    /// Length scale of the RBF kernel. `Some(ℓ)` pins the scale. `None`
    /// selects it from a six-point grid around a heuristic (one quarter of
    /// the input range): the candidate with the smallest two-fold held-out
    /// squared prediction error wins. Held-out error stays robust when the
    /// per-point noise model is approximate, e.g. sampled proportions whose
    /// observed value is exactly 0 or 1. Selection needs at least four
    /// observations (two per fold); pin the scale for smaller fits.
    ///
    /// The folds are split once per selection, and each candidate costs one
    /// lower-triangle factorization and solve per fold in a reused buffer;
    /// no model is built. Every error is bit-identical to fitting a full GP
    /// on each fold and reading `predict_mean` at the held-out points.
    pub length_scale: Option<f64>,
    /// Observation-noise variance added to the diagonal of the training
    /// covariance (the "nugget"); models sampling error of the observed match
    /// proportions.
    pub noise_variance: f64,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self { signal_variance: 0.05, length_scale: None, noise_variance: 1e-4 }
    }
}

/// The posterior of a Gaussian process at a set of query points.
#[derive(Debug, Clone)]
pub struct GpPosterior {
    /// Posterior means, one per query point.
    pub mean: Vec<f64>,
    /// Posterior covariance matrix between the query points.
    pub covariance: Matrix,
}

impl GpPosterior {
    /// Posterior variance at each query point (diagonal of the covariance,
    /// clamped at zero to absorb numerical round-off).
    pub fn variances(&self) -> Vec<f64> {
        (0..self.mean.len()).map(|i| self.covariance[(i, i)].max(0.0)).collect()
    }

    /// Inflates the per-point posterior variance by the given multiplicative
    /// factors (one per query point), e.g. the output of
    /// [`posterior_inflation_factor`] for points far from any observation.
    ///
    /// Factors are clamped at `1.0` from below, so inflation can only *widen*
    /// downstream confidence intervals, never shrink them. Only the diagonal is
    /// touched — adding a non-negative diagonal term keeps the covariance
    /// positive semi-definite.
    ///
    /// This is the library form of the operation for consumers holding a
    /// [`GpPosterior`] directly. The HUMO partial-sampling optimizer applies
    /// the equivalent inflation inside its count-estimator construction (the
    /// noise-model closure of `GpCountEstimator::with_noise_model` adds
    /// `(factor − 1) · var` to the diagonal), not through this method.
    pub fn inflate_variances(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.mean.len(), "one inflation factor per query point");
        for (i, &factor) in factors.iter().enumerate() {
            let var = self.covariance[(i, i)].max(0.0);
            self.covariance[(i, i)] = var * factor.max(1.0);
        }
    }
}

/// Multiplicative posterior-variance inflation for a query point at `distance`
/// from the nearest observed input, relative to the kernel length scale.
///
/// The GP posterior variance already reverts to the prior far from all
/// observations, but *between* observations it can be arbitrarily small even
/// when the observations themselves are uninformative (e.g. sampled proportions
/// of exactly `0/k`, whose naive binomial noise vanishes). This factor
/// `1 + strength · (distance / length_scale)²` re-widens the posterior
/// smoothly with distance from the nearest sample; it is `1` at distance zero,
/// strictly increasing in `distance`, and never below `1`.
pub fn posterior_inflation_factor(distance: f64, length_scale: f64, strength: f64) -> f64 {
    let ls = length_scale.max(1e-12);
    let d = (distance / ls).abs();
    1.0 + strength.max(0.0) * d * d
}

/// A fitted Gaussian-process regression model over scalar inputs.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: RbfKernel,
    train_x: Vec<f64>,
    /// Training targets, kept so [`GaussianProcess::extend_with_noise`] can
    /// re-centre and re-solve after appending observations.
    train_y: Vec<f64>,
    /// Per-observation noise variances, aligned with `train_y`.
    train_noise: Vec<f64>,
    /// Mean of the training targets; the GP is fit on centred targets and the
    /// mean is added back at prediction time (a constant-mean GP).
    target_mean: f64,
    /// `K(V,V) + σ_n² I` factored.
    factor: Cholesky,
    /// `(K + σ_n² I)⁻¹ (y − mean)`.
    alpha: Vec<f64>,
    noise_variance: f64,
}

impl GaussianProcess {
    /// Fits a GP to the observations `(xs[i], ys[i])` with the given configuration.
    ///
    /// Returns an error if fewer than two observations are provided, the slices
    /// differ in length, or the covariance matrix cannot be factored.
    pub fn fit(xs: &[f64], ys: &[f64], config: GpConfig) -> Result<Self> {
        let noise = vec![config.noise_variance; xs.len()];
        Self::fit_with_noise(xs, ys, &noise, config)
    }

    /// Fits a GP with a per-observation noise variance (a heteroscedastic nugget).
    ///
    /// This matters when the observations are sampled proportions: a proportion
    /// near 0 or 1 carries far less sampling error than one near 0.5, and treating
    /// them alike makes the posterior either overconfident in the middle or far
    /// too loose at the extremes.
    ///
    /// The length scale is [`GpConfig::length_scale`] when pinned; otherwise
    /// it is selected by two-fold held-out error (see [`GpConfig`]), which
    /// fails when no candidate can fit both folds.
    pub fn fit_with_noise(
        xs: &[f64],
        ys: &[f64],
        noise_variances: &[f64],
        config: GpConfig,
    ) -> Result<Self> {
        if xs.len() != ys.len() || xs.len() != noise_variances.len() {
            return Err(StatsError::InvalidArgument(format!(
                "input/target/noise length mismatch: {} vs {} vs {}",
                xs.len(),
                ys.len(),
                noise_variances.len()
            )));
        }
        if xs.len() < 2 {
            return Err(StatsError::InvalidArgument(
                "Gaussian process requires at least two observations".to_string(),
            ));
        }
        if xs.iter().chain(ys.iter()).chain(noise_variances.iter()).any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidArgument(
                "Gaussian process inputs must be finite".to_string(),
            ));
        }
        if noise_variances.iter().any(|v| *v < 0.0) {
            return Err(StatsError::InvalidArgument(
                "noise variances must be non-negative".to_string(),
            ));
        }
        let length_scale = match config.length_scale {
            Some(length_scale) => length_scale,
            None => Self::select_length_scale(xs, ys, noise_variances, &config)?,
        };
        Self::fit_with_scale(xs, ys, noise_variances, &config, length_scale)
    }

    /// The candidate of a small log-spaced grid around the heuristic length
    /// scale with the smallest two-fold held-out error (see
    /// [`GpConfig::length_scale`]). The folds are split once ([`HeldOutFolds`]);
    /// a candidate whose kernel is invalid or whose fold covariance is not
    /// positive definite is skipped, and the selection fails when no
    /// candidate is left or a fold has fewer than two fit points.
    fn select_length_scale(
        xs: &[f64],
        ys: &[f64],
        noise_variances: &[f64],
        config: &GpConfig,
    ) -> Result<f64> {
        let heuristic = Self::heuristic_length_scale(xs);
        let mut best: Option<(f64, f64)> = None; // (error, length scale)
        if let Some(folds) = HeldOutFolds::split(xs, ys, noise_variances) {
            let mut scratch = Vec::new();
            for ls in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0].map(|f| heuristic * f) {
                let Ok(kernel) = RbfKernel::new(config.signal_variance, ls) else { continue };
                if let Some(error) = folds.error(&kernel, &mut scratch) {
                    if best.map(|(e, _)| error < e).unwrap_or(true) {
                        best = Some((error, ls));
                    }
                }
            }
        }
        best.map(|(_, ls)| ls).ok_or_else(|| {
            StatsError::Linalg("failed to fit GP for any candidate length scale".to_string())
        })
    }

    fn fit_with_scale(
        xs: &[f64],
        ys: &[f64],
        noise_variances: &[f64],
        config: &GpConfig,
        length_scale: f64,
    ) -> Result<Self> {
        let kernel = RbfKernel::new(config.signal_variance, length_scale)?;
        let n = xs.len();
        let target_mean = crate::descriptive::mean(ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - target_mean).collect();

        // `Matrix::cholesky` reads only the lower triangle.
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                k[(i, j)] = kernel.eval(xs[i], xs[j]);
            }
            k[(i, i)] += nugget(noise_variances[i]);
        }
        let factor = k
            .cholesky()
            .map_err(|e| StatsError::Linalg(format!("training covariance not SPD: {e}")))?;
        let alpha = factor.solve(&centred);

        Ok(Self {
            kernel,
            train_x: xs.to_vec(),
            train_y: ys.to_vec(),
            train_noise: noise_variances.to_vec(),
            target_mean,
            factor,
            alpha,
            noise_variance: crate::descriptive::mean(noise_variances),
        })
    }

    /// Appends observations with per-point noise variances to a fitted GP.
    ///
    /// The covariance factor grows via [`Cholesky::extend_row`] — O(n²) per
    /// appended point instead of the O(n³) of re-factorizing from scratch —
    /// and the centred targets and `alpha` weights are recomputed against the
    /// grown factor. The kernel (signal variance and length scale) is
    /// **not** re-selected: the resulting model is
    /// bit-identical to [`GaussianProcess::fit_with_noise`] on the
    /// concatenated data with the same fixed length scale
    /// (`length_scale: Some(self.kernel().length_scale)`), because every
    /// entry of a Cholesky factor depends only on the leading submatrix.
    /// Appending points one at a time or all in one call yields the same
    /// model.
    ///
    /// An empty append is a no-op. On error (length mismatch, non-finite
    /// input, negative noise, or a covariance that stops being positive
    /// definite) the model is left unchanged.
    pub fn extend_with_noise(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        noise_variances: &[f64],
    ) -> Result<()> {
        if xs.len() != ys.len() || xs.len() != noise_variances.len() {
            return Err(StatsError::InvalidArgument(format!(
                "input/target/noise length mismatch: {} vs {} vs {}",
                xs.len(),
                ys.len(),
                noise_variances.len()
            )));
        }
        if xs.iter().chain(ys.iter()).chain(noise_variances.iter()).any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidArgument(
                "Gaussian process inputs must be finite".to_string(),
            ));
        }
        if noise_variances.iter().any(|v| *v < 0.0) {
            return Err(StatsError::InvalidArgument(
                "noise variances must be non-negative".to_string(),
            ));
        }
        if xs.is_empty() {
            return Ok(());
        }
        // Grow copies first so a failed extension leaves `self` untouched.
        let mut factor = self.factor.clone();
        let mut train_x = self.train_x.clone();
        for (&x, &noise) in xs.iter().zip(noise_variances) {
            // The same entries `Matrix::cholesky` would see for the new row of
            // `K + σ_n² I` (kernel row plus nugget on the diagonal).
            let row: Vec<f64> = train_x.iter().map(|&t| self.kernel.eval(x, t)).collect();
            let diagonal = self.kernel.eval(x, x) + nugget(noise);
            factor
                .extend_row(&row, diagonal)
                .map_err(|e| StatsError::Linalg(format!("training covariance not SPD: {e}")))?;
            train_x.push(x);
        }
        self.factor = factor;
        self.train_x = train_x;
        self.train_y.extend_from_slice(ys);
        self.train_noise.extend_from_slice(noise_variances);

        // Re-centre and re-solve against the grown factor — O(n²), and the
        // same arithmetic `fit_with_scale` performs on the concatenated data.
        self.target_mean = crate::descriptive::mean(&self.train_y);
        let centred: Vec<f64> = self.train_y.iter().map(|y| y - self.target_mean).collect();
        self.alpha = self.factor.solve(&centred);
        self.noise_variance = crate::descriptive::mean(&self.train_noise);
        Ok(())
    }

    /// Heuristic length scale: a quarter of the input range (with a small floor).
    fn heuristic_length_scale(xs: &[f64]) -> f64 {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ((max - min) / 4.0).max(1e-3)
    }

    /// The kernel used by this model.
    pub fn kernel(&self) -> &RbfKernel {
        &self.kernel
    }

    /// Distance from `x` to the nearest training input.
    ///
    /// Used by the tail-calibrated estimators to decide how far a query point
    /// is from any actual sample (and hence how much to widen its bounds).
    pub fn distance_to_nearest_observation(&self, x: f64) -> f64 {
        self.train_x.iter().map(|&t| (x - t).abs()).fold(f64::INFINITY, f64::min)
    }

    /// The (average) observation-noise variance used when fitting.
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Number of training observations.
    pub fn training_size(&self) -> usize {
        self.train_x.len()
    }

    /// Posterior mean at a single query point (Eq. 16 of the paper).
    pub fn predict_mean(&self, x: f64) -> f64 {
        let k_star: Vec<f64> = self.train_x.iter().map(|&t| self.kernel.eval(x, t)).collect();
        self.target_mean + dot(&k_star, &self.alpha)
    }

    /// Posterior variance at a single query point (Eq. 17 of the paper),
    /// clamped at zero.
    pub fn predict_variance(&self, x: f64) -> f64 {
        let k_star: Vec<f64> = self.train_x.iter().map(|&t| self.kernel.eval(x, t)).collect();
        let v = self.factor.forward_substitute(&k_star);
        (self.kernel.eval(x, x) - dot(&v, &v)).max(0.0)
    }

    /// Full posterior (means and joint covariance) at a set of query points
    /// (Eq. 15–20 of the paper).
    ///
    /// Allocates the `m × m` covariance and fills it with
    /// [`GaussianProcess::predict_joint_into`], which documents the cost and
    /// the bit-identity contract.
    pub fn predict_joint(&self, query: &[f64]) -> GpPosterior {
        let m = query.len();
        let mut mean = vec![0.0; m];
        let mut covariance = vec![0.0; m * m];
        self.predict_joint_into(query, &mut mean, &mut covariance, m);
        let covariance = Matrix::from_rows(m, m, covariance).expect("an m × m covariance buffer");
        GpPosterior { mean, covariance }
    }

    /// Writes the posterior at the `m` query points into caller-owned
    /// buffers: the mean of point `i` into `mean[i]` and the covariance of
    /// points `i` and `j` into `covariance[i * stride + j]`. Cells outside the
    /// `m × m` block are left untouched, so the block can sit inside a larger
    /// table (the HUMO count estimator writes it at offset `(1, 1)` of its
    /// `(m+1)²` prefix table and never holds a separate covariance matrix).
    ///
    /// The covariance is `K(X*,X*) − Vᵀ V` with `V = L⁻¹ K(X,X*)`
    /// (Rasmussen & Williams 2006, Alg. 2.1). Equal query points have equal
    /// posterior rows, so the work runs on the `u ≤ m` distinct points and
    /// the block is then expanded in place. `K(X,X*)` is evaluated once,
    /// into one buffer of k-major panels of four query columns; the mean
    /// reads it before it is solved into `V` in place. Only the upper
    /// triangle is computed — one prior kernel evaluation and one
    /// length-`n` dot product per unordered pair, O(u²·n/2) — and mirrored.
    /// The dot products of a 4 × 4 block of pairs accumulate side by side,
    /// so none waits on the latency of its own previous addition.
    ///
    /// **Bit-identity.** Every value equals, bit for bit, the dense textbook
    /// computation: `target_mean + dot(k*ᵢ, α)` for mean `i`, and
    /// `k(x*ᵢ, x*ⱼ) − dot(vᵢ, vⱼ)` for cell `(i, j)` (the diagonal clamped
    /// at zero), where `vᵢ` is [`Cholesky::forward_substitute`] of `k*ᵢ`.
    /// Each sum keeps [`dot`]'s left-to-right order and initial value, and
    /// each solve step keeps the substitution's. The covariance is therefore
    /// exactly symmetric.
    ///
    /// # Panics
    /// Panics if `mean.len() != query.len()`, if `stride < query.len()`, or
    /// if `covariance` is too short to hold row `m − 1` at that stride.
    pub fn predict_joint_into(
        &self,
        query: &[f64],
        mean: &mut [f64],
        covariance: &mut [f64],
        stride: usize,
    ) {
        let m = query.len();
        assert_eq!(mean.len(), m, "one mean slot per query point");
        assert!(stride >= m, "covariance stride {stride} is below the {m} query points");
        assert!(
            m == 0 || covariance.len() >= (m - 1) * stride + m,
            "covariance buffer too short for {m} query points at stride {stride}"
        );
        // Distinct points in order of first occurrence, so `slot[i] <= i`.
        let mut first: HashMap<u64, usize> = HashMap::with_capacity(m);
        let mut points: Vec<f64> = Vec::with_capacity(m);
        let slot: Vec<usize> = query
            .iter()
            .map(|&x| {
                *first.entry(x.to_bits()).or_insert_with(|| {
                    points.push(x);
                    points.len() - 1
                })
            })
            .collect();
        let u = points.len();
        self.distinct_posterior(&points, &mut mean[..u], covariance, stride);
        if u < m {
            // Row `i` copies distinct row `slot[i] <= i`, and cell `j` reads
            // column `slot[j] <= j`: walking both downwards reads every
            // source before it is overwritten.
            for i in (0..m).rev() {
                mean[i] = mean[slot[i]];
                let (src, dst) = (slot[i] * stride, i * stride);
                for j in (0..m).rev() {
                    covariance[dst + j] = covariance[src + slot[j]];
                }
            }
        }
        for i in 0..m {
            let cell = &mut covariance[i * stride + i];
            *cell = cell.max(0.0);
        }
    }

    /// The posterior at pairwise distinct `points`, laid out as in
    /// [`GaussianProcess::predict_joint_into`] but with the diagonal not yet
    /// clamped at zero: the off-diagonal cell of two equal query points
    /// copies the unclamped value.
    fn distinct_posterior(
        &self,
        points: &[f64],
        mean: &mut [f64],
        covariance: &mut [f64],
        stride: usize,
    ) {
        let (m, n) = (points.len(), self.train_x.len());
        let panel_len = n * TILE;
        let panels = m.div_ceil(TILE);

        // Panel `p` holds points `p·TILE ..`, k-major: entry `k·TILE + c`
        // is K(x_k, x*_{p·TILE+c}), zero past the last point.
        let mut v = vec![0.0; panels * panel_len];
        for (panel, cols) in v.chunks_exact_mut(panel_len).zip(points.chunks(TILE)) {
            for (row, &t) in panel.chunks_exact_mut(TILE).zip(&self.train_x) {
                for (cell, &x) in row.iter_mut().zip(cols) {
                    *cell = self.kernel.eval(t, x);
                }
            }
        }

        let seed = dot_seed();
        let l = self.factor.factor();
        for (panel, out) in v.chunks_exact_mut(panel_len).zip(mean.chunks_mut(TILE)) {
            // Mean: target_mean + Σ_k K(x_k, x*) α_k, before the solve
            // overwrites the kernel column.
            let mut sums = [seed; TILE];
            for (row, &a) in panel.chunks_exact(TILE).zip(&self.alpha) {
                for (sum, &k) in sums.iter_mut().zip(row) {
                    *sum += k * a;
                }
            }
            for (value, sum) in out.iter_mut().zip(sums) {
                *value = self.target_mean + sum;
            }
            // Forward substitution L V = K, all of the panel's columns at once.
            for i in 0..n {
                let (solved, rest) = panel.split_at_mut(i * TILE);
                let row = &mut rest[..TILE];
                for (k, solved_row) in solved.chunks_exact(TILE).enumerate() {
                    let lik = l[(i, k)];
                    for (y, &yk) in row.iter_mut().zip(solved_row) {
                        *y -= lik * yk;
                    }
                }
                let pivot = l[(i, i)];
                for y in row.iter_mut() {
                    *y /= pivot;
                }
            }
        }

        for (pi, vi) in v.chunks_exact(panel_len).enumerate() {
            for (pj, vj) in v.chunks_exact(panel_len).enumerate().skip(pi) {
                let mut acc = [[seed; TILE]; TILE];
                // `as_chunks` gives the tile's rows a static length, so the
                // accumulators stay in registers.
                for (a, b) in vi.as_chunks::<TILE>().0.iter().zip(vj.as_chunks::<TILE>().0) {
                    for r in 0..TILE {
                        for c in 0..TILE {
                            acc[r][c] += a[r] * b[c];
                        }
                    }
                }
                let cols = pj * TILE..m.min(pj * TILE + TILE);
                for (r, acc_row) in acc.iter().enumerate() {
                    let i = pi * TILE + r;
                    for j in cols.start.max(i)..cols.end {
                        let value =
                            self.kernel.eval(points[i], points[j]) - acc_row[j - cols.start];
                        covariance[i * stride + j] = value;
                        covariance[j * stride + i] = value;
                    }
                }
            }
        }
    }

    /// Convenience wrapper returning `(mean, std_dev)` at a single point.
    pub fn predict(&self, x: f64) -> (f64, f64) {
        (self.predict_mean(x), self.predict_variance(x).sqrt())
    }
}

/// The diagonal term a training point adds to the covariance: its noise
/// variance plus a tiny jitter for numerical stability.
fn nugget(noise_variance: f64) -> f64 {
    noise_variance.max(0.0) + 1e-10
}

/// The two folds of held-out length-scale selection, split once per
/// selection: with the inputs sorted, fold `p` fits the points at even
/// (`p = 0`) or odd (`p = 1`) positions and is scored on the others.
struct HeldOutFolds {
    folds: [Fold; 2],
}

/// What every candidate scale reads of one fold: everything that does not
/// depend on the length scale is computed once.
struct Fold {
    /// [`nugget`] of each fit point.
    nuggets: Vec<f64>,
    /// Fit targets minus their mean, and the mean.
    centred: Vec<f64>,
    target_mean: f64,
    /// Squared distances between fit points, lower triangle (`j ≤ i`) in
    /// row-major order.
    fit_d2: Vec<f64>,
    /// Held-out targets, and one row of squared distances to every fit
    /// point per held-out point.
    held_y: Vec<f64>,
    held_d2: Vec<f64>,
}

impl HeldOutFolds {
    /// `None` when a fold has fewer than two fit points or no held-out point
    /// (fewer than four observations).
    fn split(xs: &[f64], ys: &[f64], noise_variances: &[f64]) -> Option<Self> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite inputs"));
        let fold = |parity: usize| -> Option<Fold> {
            let (mut fit, mut held) = (Vec::new(), Vec::new());
            for (position, &i) in order.iter().enumerate() {
                if position % 2 == parity {
                    fit.push(i);
                } else {
                    held.push(i);
                }
            }
            if fit.len() < 2 || held.is_empty() {
                return None;
            }
            let fy: Vec<f64> = fit.iter().map(|&i| ys[i]).collect();
            let target_mean = crate::descriptive::mean(&fy);
            let d2 = |a: f64, b: f64| (a - b) * (a - b);
            Some(Fold {
                nuggets: fit.iter().map(|&i| nugget(noise_variances[i])).collect(),
                centred: fy.iter().map(|y| y - target_mean).collect(),
                target_mean,
                fit_d2: (0..fit.len())
                    .flat_map(|i| (0..=i).map(move |j| (i, j)))
                    .map(|(i, j)| d2(xs[fit[i]], xs[fit[j]]))
                    .collect(),
                held_y: held.iter().map(|&h| ys[h]).collect(),
                held_d2: held
                    .iter()
                    .flat_map(|&h| fit.iter().map(move |&i| (h, i)))
                    .map(|(h, i)| d2(xs[h], xs[i]))
                    .collect(),
            })
        };
        Some(Self { folds: [fold(0)?, fold(1)?] })
    }

    /// Mean squared held-out error of `kernel` over both folds, or `None`
    /// when a fold's covariance is not positive definite. Each fold runs the
    /// arithmetic of a full fit — the lower triangle of `K + diag(nugget)`,
    /// [`cholesky_in_place`], the forward and back solve for `α` — then
    /// `target_mean + dot(k*, α)` per held-out point, in `scratch`.
    fn error(&self, kernel: &RbfKernel, scratch: &mut Vec<f64>) -> Option<f64> {
        let (mut total, mut count) = (0.0, 0usize);
        for fold in &self.folds {
            let n = fold.nuggets.len();
            scratch.resize(n * n + n, 0.0);
            let (l, alpha) = scratch.split_at_mut(n * n);
            let mut d2 = fold.fit_d2.iter();
            for i in 0..n {
                for (cell, &d2) in l[i * n..=i * n + i].iter_mut().zip(&mut d2) {
                    *cell = kernel.at(d2);
                }
                l[i * n + i] += fold.nuggets[i];
            }
            cholesky_in_place(l, n).ok()?;
            alpha.copy_from_slice(&fold.centred);
            forward_substitute_in_place(l, n, alpha);
            backward_substitute_in_place(l, n, alpha);
            for (row, &y) in fold.held_d2.chunks_exact(n).zip(&fold.held_y) {
                let mut sum = dot_seed();
                for (&d2, &a) in row.iter().zip(alpha.iter()) {
                    sum += kernel.at(d2) * a;
                }
                let err = y - (fold.target_mean + sum);
                total += err * err;
                count += 1;
            }
        }
        Some(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!((actual - expected).abs() <= tol, "expected {expected}, got {actual} (tol {tol})");
    }

    fn pinned(length_scale: f64) -> GpConfig {
        GpConfig { length_scale: Some(length_scale), ..GpConfig::default() }
    }

    /// Pins the quarter-range heuristic that selection centres its grid on.
    fn pinned_heuristic(xs: &[f64]) -> GpConfig {
        pinned(GaussianProcess::heuristic_length_scale(xs))
    }

    #[test]
    fn rbf_kernel_properties() {
        let k = RbfKernel::new(2.0, 0.5).unwrap();
        // Maximal at zero distance.
        assert_close(k.eval(0.3, 0.3), 2.0, 1e-12);
        // Symmetric.
        assert_close(k.eval(0.1, 0.7), k.eval(0.7, 0.1), 1e-15);
        // Decays with distance.
        assert!(k.eval(0.0, 0.1) > k.eval(0.0, 0.5));
        assert!(k.eval(0.0, 0.5) > k.eval(0.0, 2.0));
    }

    #[test]
    fn rbf_kernel_rejects_invalid_parameters() {
        assert!(RbfKernel::new(0.0, 1.0).is_err());
        assert!(RbfKernel::new(1.0, 0.0).is_err());
        assert!(RbfKernel::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn gp_requires_two_points() {
        assert!(GaussianProcess::fit(&[0.5], &[0.5], GpConfig::default()).is_err());
        // Two points are too few for held-out selection: pin the grid scale
        // with the highest log marginal likelihood on this data.
        let xs = [0.1, 0.9];
        let config = pinned(GaussianProcess::heuristic_length_scale(&xs) * 0.125);
        assert!(GaussianProcess::fit(&xs, &[0.0, 1.0], config).is_ok());
    }

    #[test]
    fn gp_rejects_mismatched_lengths() {
        assert!(GaussianProcess::fit(&[0.1, 0.2, 0.3], &[0.0, 1.0], GpConfig::default()).is_err());
    }

    #[test]
    fn gp_interpolates_training_points_with_small_noise() {
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let ys = [0.05, 0.2, 0.5, 0.8, 0.95];
        let config = GpConfig { noise_variance: 1e-8, ..pinned_heuristic(&xs) };
        let gp = GaussianProcess::fit(&xs, &ys, config).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert_close(gp.predict_mean(*x), *y, 1e-2);
        }
    }

    #[test]
    fn gp_posterior_variance_smaller_near_training_points() {
        let xs = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let ys = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        // Variance at a training point should be below variance far outside the data.
        assert!(gp.predict_variance(0.4) < gp.predict_variance(3.0));
    }

    #[test]
    fn gp_variance_nonnegative_everywhere() {
        let xs = [0.0, 0.1, 0.3, 0.55, 0.8, 1.0];
        let ys = [0.02, 0.05, 0.2, 0.5, 0.85, 0.97];
        // The grid scale with the highest log marginal likelihood here.
        let config = pinned(GaussianProcess::heuristic_length_scale(&xs) * 2.0);
        let gp = GaussianProcess::fit(&xs, &ys, config).unwrap();
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            assert!(gp.predict_variance(x) >= 0.0);
        }
    }

    #[test]
    fn gp_predicts_monotone_trend_between_points() {
        // A smooth increasing curve should stay roughly increasing between samples.
        let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 / (1.0 + (-10.0 * (x - 0.5)).exp())).collect();
        // The grid scale with the highest log marginal likelihood here.
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        let y_low = gp.predict_mean(0.25);
        let y_mid = gp.predict_mean(0.5);
        let y_high = gp.predict_mean(0.75);
        assert!(y_low < y_mid && y_mid < y_high);
    }

    #[test]
    fn gp_joint_covariance_is_symmetric_and_psd_on_diagonal() {
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let ys = [0.1, 0.3, 0.5, 0.7, 0.9];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        let query = [0.1, 0.4, 0.6, 0.9];
        let post = gp.predict_joint(&query);
        assert_eq!(post.mean.len(), 4);
        for i in 0..4 {
            assert!(post.covariance[(i, i)] >= 0.0);
            for j in 0..4 {
                assert_eq!(
                    post.covariance[(i, j)].to_bits(),
                    post.covariance[(j, i)].to_bits(),
                    "covariance ({i},{j}) is not bitwise symmetric"
                );
            }
        }
    }

    /// The dense posterior `predict_joint` computed before the tiled kernel:
    /// per-point means through `predict_mean`, one forward substitution per
    /// query column, and a `dot` per covariance cell. Kept as the reference
    /// the tiled kernel must match bit for bit.
    fn predict_joint_reference(gp: &GaussianProcess, query: &[f64]) -> GpPosterior {
        let m = query.len();
        let mean: Vec<f64> = query.iter().map(|&x| gp.predict_mean(x)).collect();
        let k_star = gp.kernel.matrix(&gp.train_x, query); // n × m
        let mut v_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
        for j in 0..m {
            let col: Vec<f64> = (0..gp.train_x.len()).map(|i| k_star[(i, j)]).collect();
            v_cols.push(gp.factor.forward_substitute(&col));
        }
        let covariance = Matrix::from_fn(m, m, |i, j| {
            let prior = gp.kernel.eval(query[i], query[j]);
            let reduction = dot(&v_cols[i], &v_cols[j]);
            let value = prior - reduction;
            if i == j {
                value.max(0.0)
            } else {
                value
            }
        });
        GpPosterior { mean, covariance }
    }

    /// A heteroscedastic fit on `n` random points with a random kernel, and
    /// `m` unsorted query points with duplicates and training inputs mixed
    /// in. `None` when the random training covariance cannot be factored.
    fn random_fit_and_query(n: usize, m: usize, seed: u64) -> Option<(GaussianProcess, Vec<f64>)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x + rng.gen_range(-0.1..0.1)).collect();
        let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..0.02)).collect();
        let config = GpConfig {
            signal_variance: rng.gen_range(0.01..2.0),
            length_scale: Some(rng.gen_range(0.02..1.0)),
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit_with_noise(&xs, &ys, &noise, config).ok()?;
        // Repeat an earlier point with probability 0, 1/4, 1/2 or 3/4.
        let repeats = rng.gen_range(0..4);
        let mut query: Vec<f64> = Vec::with_capacity(m);
        for _ in 0..m {
            let x = match rng.gen_range(0..8) {
                r if r < 2 * repeats && !query.is_empty() => query[rng.gen_range(0..query.len())],
                7 => xs[rng.gen_range(0..n)],
                _ => rng.gen_range(-0.2..1.2),
            };
            query.push(x);
        }
        Some((gp, query))
    }

    proptest::proptest! {
        // A case costs O(m²·n) twice in an unoptimized test build; 16 cases
        // keep the property at a few seconds.
        #![proptest_config(proptest::ProptestConfig {
            cases: 16,
            ..proptest::ProptestConfig::default()
        })]

        /// The tiled posterior is bit-identical to the dense reference: every
        /// mean and every covariance cell, for any training size, any query
        /// count (including empty and tile remainders), duplicate and
        /// unsorted query points, random kernels and heteroscedastic noise.
        #[test]
        fn predict_joint_is_bit_identical_to_the_dense_reference(
            n in 2usize..65,
            m in 0usize..901,
            seed in 0u64..1_000_000,
        ) {
            let Some((gp, query)) = random_fit_and_query(n, m, seed) else {
                proptest::prop_assume!(false);
                unreachable!()
            };
            let fast = gp.predict_joint(&query);
            let reference = predict_joint_reference(&gp, &query);
            for i in 0..m {
                proptest::prop_assert_eq!(fast.mean[i].to_bits(), reference.mean[i].to_bits());
                for j in 0..m {
                    let (a, b) = (fast.covariance[(i, j)], reference.covariance[(i, j)]);
                    proptest::prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "cell ({i},{j}): {a} vs reference {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_joint_into_writes_only_the_strided_block() {
        let xs = [0.0, 0.3, 0.6, 1.0];
        let ys = [0.0, 0.25, 0.65, 1.0];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        let query = [0.9, 0.15, 0.45, 0.15, 0.7];
        let (m, stride) = (query.len(), query.len() + 3);
        let mut mean = vec![0.0; m];
        let mut buffer = vec![f64::NAN; (m - 1) * stride + m + 2];
        gp.predict_joint_into(&query, &mut mean, &mut buffer, stride);
        let dense = gp.predict_joint(&query);
        for i in 0..m {
            assert_eq!(mean[i].to_bits(), dense.mean[i].to_bits());
            for j in 0..m {
                assert_eq!(buffer[i * stride + j].to_bits(), dense.covariance[(i, j)].to_bits());
            }
        }
        let outside = buffer
            .iter()
            .enumerate()
            .filter(|&(k, _)| k >= (m - 1) * stride + m || k % stride >= m)
            .map(|(_, v)| *v);
        assert!(outside.clone().count() > 0 && outside.into_iter().all(f64::is_nan));
    }

    #[test]
    fn gp_joint_mean_matches_pointwise_mean() {
        let xs = [0.0, 0.3, 0.6, 1.0];
        let ys = [0.0, 0.25, 0.65, 1.0];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        let query = [0.15, 0.45, 0.85];
        let post = gp.predict_joint(&query);
        for (i, &q) in query.iter().enumerate() {
            assert_close(post.mean[i], gp.predict_mean(q), 1e-12);
        }
    }

    #[test]
    fn gp_length_scale_optimization_picks_reasonable_fit() {
        // Data from a smooth sigmoid; the selected fit should track it closely.
        let xs: Vec<f64> = (0..21).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.95 / (1.0 + (-14.0 * (x - 0.55)).exp())).collect();
        let gp = GaussianProcess::fit(&xs, &ys, GpConfig::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((gp.predict_mean(*x) - y).abs() < 0.08, "poor fit at {x}");
        }
    }

    #[test]
    fn heteroscedastic_fit_trusts_low_noise_points_more() {
        // Two conflicting observations at nearly the same input: the one with the
        // smaller noise should pull the posterior mean towards itself.
        let xs = [0.0, 0.5, 0.5001, 1.0];
        let ys = [0.0, 0.2, 0.8, 1.0];
        let config = pinned_heuristic(&xs);
        let noisy_first = [1e-6, 1.0, 1e-6, 1e-6];
        let gp = GaussianProcess::fit_with_noise(&xs, &ys, &noisy_first, config).unwrap();
        assert!(gp.predict_mean(0.5) > 0.6, "posterior should side with the precise 0.8");
        let noisy_second = [1e-6, 1e-6, 1.0, 1e-6];
        let gp = GaussianProcess::fit_with_noise(&xs, &ys, &noisy_second, config).unwrap();
        assert!(gp.predict_mean(0.5) < 0.4, "posterior should side with the precise 0.2");
    }

    #[test]
    fn heteroscedastic_fit_validates_inputs() {
        // Two points are too few for held-out selection: pin the grid scale
        // with the highest log marginal likelihood on the valid fit below.
        let config = pinned(0.25 * 0.125);
        assert!(GaussianProcess::fit_with_noise(&[0.0, 1.0], &[0.0, 1.0], &[0.1], config).is_err());
        assert!(GaussianProcess::fit_with_noise(&[0.0, 1.0], &[0.0, 1.0], &[0.1, -0.1], config)
            .is_err());
        assert!(
            GaussianProcess::fit_with_noise(&[0.0, 1.0], &[0.0, 1.0], &[0.1, 0.1], config).is_ok()
        );
    }

    #[test]
    fn inflation_factor_is_monotone_and_at_least_one() {
        assert_close(posterior_inflation_factor(0.0, 0.1, 2.0), 1.0, 1e-12);
        let mut last = 1.0;
        for step in 1..=20 {
            let f = posterior_inflation_factor(step as f64 * 0.05, 0.1, 2.0);
            assert!(f >= last, "factor must not decrease with distance");
            last = f;
        }
        // Zero or negative strength degrades gracefully to no inflation.
        assert_close(posterior_inflation_factor(1.0, 0.1, 0.0), 1.0, 1e-12);
        assert_close(posterior_inflation_factor(1.0, 0.1, -3.0), 1.0, 1e-12);
    }

    #[test]
    fn inflating_variances_never_shrinks_them() {
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let ys = [0.1, 0.3, 0.5, 0.7, 0.9];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        let query = [0.1, 0.4, 0.6, 0.9];
        let mut post = gp.predict_joint(&query);
        let before = post.variances();
        // Factors below one are clamped, factors above one multiply.
        post.inflate_variances(&[0.2, 1.0, 2.0, 10.0]);
        let after = post.variances();
        for (b, a) in before.iter().zip(&after) {
            assert!(a >= b, "inflation shrank a variance: {b} -> {a}");
        }
        assert_close(after[2], before[2] * 2.0, 1e-12);
        assert_close(after[0], before[0], 1e-12);
    }

    #[test]
    fn distance_to_nearest_observation_is_zero_at_training_points() {
        let xs = [0.1, 0.4, 0.9];
        let ys = [0.0, 0.5, 1.0];
        let gp = GaussianProcess::fit(&xs, &ys, pinned_heuristic(&xs)).unwrap();
        assert_close(gp.distance_to_nearest_observation(0.4), 0.0, 1e-12);
        assert_close(gp.distance_to_nearest_observation(0.25), 0.15, 1e-12);
        assert_close(gp.distance_to_nearest_observation(1.0), 0.1, 1e-12);
    }

    /// The bits of a model's `α` weights: equal bits mean equal posteriors.
    fn alpha_bits(gp: &GaussianProcess) -> Vec<u64> {
        gp.alpha.iter().map(|a| a.to_bits()).collect()
    }

    /// A fit on the concatenated data with the extended model's exact kernel
    /// (fixed length scale, no re-selection) — the reference `extend` must
    /// reproduce bit-for-bit.
    fn refit_pinned(
        gp: &GaussianProcess,
        xs: &[f64],
        ys: &[f64],
        noise: &[f64],
    ) -> GaussianProcess {
        let config = GpConfig {
            signal_variance: gp.kernel().signal_variance,
            length_scale: Some(gp.kernel().length_scale),
            ..GpConfig::default()
        };
        GaussianProcess::fit_with_noise(xs, ys, noise, config).unwrap()
    }

    #[test]
    fn extend_is_bit_identical_to_pinned_refit() {
        let xs = [0.0, 0.3, 0.6, 1.0];
        let ys = [0.05, 0.2, 0.6, 0.95];
        let noise = [1e-3, 2e-3, 1e-3, 5e-4];
        // The grid scale with the highest log marginal likelihood here.
        let config = pinned(GaussianProcess::heuristic_length_scale(&xs) * 2.0);
        let mut gp = GaussianProcess::fit_with_noise(&xs, &ys, &noise, config).unwrap();
        let (new_x, new_y, new_n) = ([0.45, 0.8], [0.4, 0.85], [3e-3, 1e-3]);
        gp.extend_with_noise(&new_x, &new_y, &new_n).unwrap();

        let all_x = [&xs[..], &new_x[..]].concat();
        let all_y = [&ys[..], &new_y[..]].concat();
        let all_n = [&noise[..], &new_n[..]].concat();
        let scratch = refit_pinned(&gp, &all_x, &all_y, &all_n);

        assert_eq!(gp.training_size(), 6);
        assert_eq!(alpha_bits(&gp), alpha_bits(&scratch));
        assert_eq!(gp.noise_variance(), scratch.noise_variance());
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(gp.predict_mean(q), scratch.predict_mean(q));
            assert_eq!(gp.predict_variance(q), scratch.predict_variance(q));
        }
    }

    #[test]
    fn extend_one_at_a_time_matches_batch_extend() {
        let xs = [0.0, 0.5, 1.0];
        let ys = [0.1, 0.5, 0.9];
        let noise = [1e-3, 1e-3, 1e-3];
        let mut batch =
            GaussianProcess::fit_with_noise(&xs, &ys, &noise, pinned_heuristic(&xs)).unwrap();
        let mut stepwise = batch.clone();
        let (new_x, new_y, new_n) = ([0.25, 0.75], [0.3, 0.7], [2e-3, 2e-3]);
        batch.extend_with_noise(&new_x, &new_y, &new_n).unwrap();
        for i in 0..2 {
            stepwise.extend_with_noise(&new_x[i..=i], &new_y[i..=i], &new_n[i..=i]).unwrap();
        }
        assert_eq!(alpha_bits(&batch), alpha_bits(&stepwise));
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            assert_eq!(batch.predict_mean(q), stepwise.predict_mean(q));
            assert_eq!(batch.predict_variance(q), stepwise.predict_variance(q));
        }
    }

    #[test]
    fn empty_extend_is_a_noop() {
        let mut gp =
            GaussianProcess::fit(&[0.0, 0.5, 1.0], &[0.1, 0.5, 0.9], pinned(0.25)).unwrap();
        let before = alpha_bits(&gp);
        gp.extend_with_noise(&[], &[], &[]).unwrap();
        assert_eq!(gp.training_size(), 3);
        assert_eq!(alpha_bits(&gp), before);
    }

    #[test]
    fn failed_extend_leaves_the_model_unchanged() {
        let mut gp =
            GaussianProcess::fit(&[0.0, 0.5, 1.0], &[0.1, 0.5, 0.9], pinned(0.25)).unwrap();
        let before_alpha = alpha_bits(&gp);
        let before_mean = gp.predict_mean(0.3);
        assert!(gp.extend_with_noise(&[0.25], &[f64::NAN], &[1e-4]).is_err());
        assert!(gp.extend_with_noise(&[0.25], &[0.3], &[-1.0]).is_err());
        assert!(gp.extend_with_noise(&[0.25, 0.75], &[0.3], &[1e-4, 1e-4]).is_err());
        assert_eq!(gp.training_size(), 3);
        assert_eq!(alpha_bits(&gp), before_alpha);
        assert_eq!(gp.predict_mean(0.3).to_bits(), before_mean.to_bits());
    }

    /// A fit on one fold as it was built before the folds were split once:
    /// the full dense kernel matrix, [`Matrix::cholesky`] and
    /// [`Cholesky::solve`]. `None` where that fit failed.
    fn dense_fit(
        xs: &[f64],
        ys: &[f64],
        noise: &[f64],
        config: &GpConfig,
        length_scale: f64,
    ) -> Option<GaussianProcess> {
        let kernel = RbfKernel::new(config.signal_variance, length_scale).ok()?;
        let target_mean = crate::descriptive::mean(ys);
        let centred: Vec<f64> = ys.iter().map(|y| y - target_mean).collect();
        let mut k = kernel.matrix(xs, xs);
        for (i, noise) in noise.iter().enumerate() {
            k[(i, i)] += noise.max(0.0) + 1e-10;
        }
        let factor = k.cholesky().ok()?;
        let alpha = factor.solve(&centred);
        Some(GaussianProcess {
            kernel,
            train_x: xs.to_vec(),
            train_y: ys.to_vec(),
            train_noise: noise.to_vec(),
            target_mean,
            factor,
            alpha,
            noise_variance: crate::descriptive::mean(noise),
        })
    }

    /// The held-out error of one candidate as selection computed it before
    /// the folds were split once: per candidate, sort and split the inputs
    /// and read a dense fit's `predict_mean` at each held-out point.
    fn held_out_error_reference(
        xs: &[f64],
        ys: &[f64],
        noise_variances: &[f64],
        config: &GpConfig,
        length_scale: f64,
    ) -> Option<f64> {
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite inputs"));
        let mut total = 0.0;
        let mut count = 0usize;
        for parity in 0..2usize {
            let mut fit_idx: Vec<usize> = Vec::with_capacity(xs.len() / 2 + 1);
            let mut held_idx: Vec<usize> = Vec::with_capacity(xs.len() / 2 + 1);
            for (position, &i) in order.iter().enumerate() {
                if position % 2 == parity {
                    fit_idx.push(i);
                } else {
                    held_idx.push(i);
                }
            }
            if fit_idx.len() < 2 || held_idx.is_empty() {
                return None;
            }
            let fx: Vec<f64> = fit_idx.iter().map(|&i| xs[i]).collect();
            let fy: Vec<f64> = fit_idx.iter().map(|&i| ys[i]).collect();
            let fn_: Vec<f64> = fit_idx.iter().map(|&i| noise_variances[i]).collect();
            let gp = dense_fit(&fx, &fy, &fn_, config, length_scale)?;
            for &i in &held_idx {
                let err = ys[i] - gp.predict_mean(xs[i]);
                total += err * err;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(total / count as f64)
        }
    }

    /// The selection loop over [`held_out_error_reference`], and how many of
    /// the six candidates it skipped.
    fn select_reference(
        xs: &[f64],
        ys: &[f64],
        noise: &[f64],
        config: &GpConfig,
    ) -> (Result<f64>, usize) {
        let heuristic = GaussianProcess::heuristic_length_scale(xs);
        let mut best: Option<(f64, f64)> = None;
        let mut skipped = 0;
        for ls in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0].map(|f| heuristic * f) {
            match held_out_error_reference(xs, ys, noise, config, ls) {
                Some(error) => {
                    if best.map(|(e, _)| error < e).unwrap_or(true) {
                        best = Some((error, ls));
                    }
                }
                None => skipped += 1,
            }
        }
        let selected = best.map(|(_, ls)| ls).ok_or_else(|| {
            StatsError::Linalg("failed to fit GP for any candidate length scale".to_string())
        });
        (selected, skipped)
    }

    /// Random selection inputs: unsorted, often with repeated inputs or a
    /// tiny input range, zero noise in half the cases, and a signal variance
    /// that is sometimes invalid and sometimes so large that the `1e-10`
    /// jitter vanishes in round-off, so that wide candidates are not
    /// positive definite.
    fn selection_case(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, GpConfig) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let width = if rng.gen_range(0..4) == 0 { 1e-4 } else { 1.0 };
        let mut xs: Vec<f64> = Vec::with_capacity(n);
        for _ in 0..n {
            let x = if !xs.is_empty() && rng.gen_range(0..4) == 0 {
                xs[rng.gen_range(0..xs.len())]
            } else {
                rng.gen_range(0.0..width)
            };
            xs.push(x);
        }
        let ys: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        let noise: Vec<f64> = if rng.gen_range(0..2) == 0 {
            vec![0.0; n]
        } else {
            (0..n).map(|_| rng.gen_range(0.0..0.02)).collect()
        };
        let signal_variance = match rng.gen_range(0..8) {
            0 => [0.0, -1.0, f64::NAN, f64::INFINITY][rng.gen_range(0..4)],
            1..=3 => 10f64.powf(rng.gen_range(6.0..10.0)),
            _ => rng.gen_range(0.01..2.0),
        };
        (xs, ys, noise, GpConfig { signal_variance, ..GpConfig::default() })
    }

    /// Selection on `selection_case(n, seed)` against the reference: the
    /// same length-scale bits or the same error, and, when it selects, a fit
    /// at the selected scale with the same `α` bits as a dense fit.
    fn check_selection(n: usize, seed: u64) -> std::result::Result<(), String> {
        let (xs, ys, noise, config) = selection_case(n, seed);
        let lean = GaussianProcess::select_length_scale(&xs, &ys, &noise, &config);
        let (reference, _) = select_reference(&xs, &ys, &noise, &config);
        match (&lean, &reference) {
            (Ok(a), Ok(b)) if a.to_bits() == b.to_bits() => {}
            (Err(a), Err(b)) if a == b => {}
            _ => return Err(format!("n {n}, seed {seed}: {lean:?} vs reference {reference:?}")),
        }
        if let Ok(ls) = lean {
            let fitted = GaussianProcess::fit_with_scale(&xs, &ys, &noise, &config, ls).ok();
            let dense = dense_fit(&xs, &ys, &noise, &config, ls);
            if fitted.as_ref().map(alpha_bits) != dense.as_ref().map(alpha_bits) {
                return Err(format!(
                    "n {n}, seed {seed}: the fit at {ls} differs from a dense fit"
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Held-out selection on folds split once picks the same length
        /// scale, bit for bit, as fitting a dense GP per fold and candidate,
        /// or fails with the same error: too few points, an invalid signal
        /// variance, or no positive-definite candidate.
        #[test]
        fn held_out_selection_matches_the_dense_reference(
            n in 2usize..41,
            seed in 0u64..1_000_000,
        ) {
            let checked = check_selection(n, seed);
            proptest::prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    /// The generator reaches every branch the property above relies on: a
    /// clean selection, one with some candidates not positive definite, and
    /// each way selection fails.
    #[test]
    fn selection_cases_cover_skipped_candidates_and_failures() {
        let (mut clean, mut partly_skipped, mut failed) = (0, 0, 0);
        for seed in 0..200 {
            let n = 4 + (seed as usize % 37);
            let (xs, ys, noise, config) = selection_case(n, seed);
            match select_reference(&xs, &ys, &noise, &config) {
                (Ok(_), 0) => clean += 1,
                (Ok(_), _) => partly_skipped += 1,
                (Err(_), _) => failed += 1,
            }
            check_selection(n, seed).unwrap();
        }
        assert!(clean > 0 && partly_skipped > 0 && failed > 0, "{clean} {partly_skipped} {failed}");
        for n in 2..4 {
            let (xs, ys, noise, config) = selection_case(n, 1);
            assert!(GaussianProcess::select_length_scale(&xs, &ys, &noise, &config).is_err());
        }
    }
}
