//! Property tests for the tail-calibration primitives: Clopper–Pearson
//! one-sided limits and distance-dependent posterior inflation.

use er_stats::{
    clopper_pearson_lower, clopper_pearson_upper, detection_limit, detection_limit_lower,
    effective_sample_size, pooled_lower_limit, pooled_upper_limit, posterior_inflation_factor,
    GaussianProcess, GpConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// The upper limit is monotone in the number of observed positives.
    #[test]
    fn upper_limit_is_monotone_in_positives(
        n in 2usize..400,
        confidence in 0.5..0.999f64,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k1 = rng.gen_range(0..n);
        let k2 = rng.gen_range(k1 + 1..=n);
        let u1 = clopper_pearson_upper(n as f64, k1 as f64, confidence).unwrap();
        let u2 = clopper_pearson_upper(n as f64, k2 as f64, confidence).unwrap();
        prop_assert!(
            u1 <= u2 + 1e-12,
            "upper limit must grow with positives: n={n} k1={k1} k2={k2} -> {u1} > {u2}"
        );
    }

    /// For a fixed number of positives, more draws tighten the upper limit.
    #[test]
    fn upper_limit_is_monotone_in_sample_size(
        k in 0usize..50,
        extra in 1usize..300,
        confidence in 0.5..0.999f64,
    ) {
        let n1 = (k + 1) as f64;
        let n2 = (k + 1 + extra) as f64;
        let u1 = clopper_pearson_upper(n1, k as f64, confidence).unwrap();
        let u2 = clopper_pearson_upper(n2, k as f64, confidence).unwrap();
        prop_assert!(
            u2 <= u1 + 1e-12,
            "more draws must tighten the limit: k={k} n1={n1} n2={n2} -> {u2} > {u1}"
        );
    }

    /// The one-sided limits bracket the observed proportion and stay inside
    /// [0, 1]. (Only for confidence >= 1/2: below that the one-sided Beta
    /// quantiles legitimately cross the observed proportion, and the
    /// estimators never ask for such levels.)
    #[test]
    fn limits_bracket_the_observed_proportion(
        n in 1usize..500,
        frac in 0.0..=1.0f64,
        confidence in 0.5..0.999f64,
    ) {
        let k = ((n as f64 * frac).round() as usize).min(n);
        let u = clopper_pearson_upper(n as f64, k as f64, confidence).unwrap();
        let l = clopper_pearson_lower(n as f64, k as f64, confidence).unwrap();
        let observed = k as f64 / n as f64;
        prop_assert!((0.0..=1.0).contains(&u) && (0.0..=1.0).contains(&l));
        prop_assert!(l <= observed + 1e-12);
        prop_assert!(u >= observed - 1e-12);
        prop_assert!(l <= u + 1e-12);
    }

    /// Frequentist coverage: over simulated binomial experiments, the true
    /// proportion lies at or below the upper limit in at least a `confidence`
    /// fraction of trials (Clopper–Pearson is exact, hence conservative).
    #[test]
    fn upper_limit_covers_simulated_binomials(
        p in 0.001..0.5f64,
        n in 10usize..200,
        seed in 0u64..10_000,
    ) {
        const TRIALS: usize = 400;
        const CONFIDENCE: f64 = 0.9;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut covered = 0usize;
        for _ in 0..TRIALS {
            let k = (0..n).filter(|_| rng.gen_range(0.0..1.0) < p).count();
            let u = clopper_pearson_upper(n as f64, k as f64, CONFIDENCE).unwrap();
            if p <= u {
                covered += 1;
            }
        }
        // Binomial tolerance: the coverage indicator itself is a binomial with
        // success probability >= 0.9; 400 trials put its observed rate above
        // 0.9 - 4 sigma with overwhelming probability.
        let four_sigma = 4.0 * (CONFIDENCE * (1.0 - CONFIDENCE) / TRIALS as f64).sqrt();
        prop_assert!(
            covered as f64 / TRIALS as f64 >= CONFIDENCE - four_sigma,
            "coverage {}/{TRIALS} below {CONFIDENCE} for p={p}, n={n}",
            covered
        );
    }

    /// Posterior inflation never shrinks an interval: the factor is at least
    /// one and non-decreasing in the distance.
    #[test]
    fn inflation_factor_never_shrinks(
        d1 in 0.0..10.0f64,
        extra in 0.0..10.0f64,
        length_scale in 0.001..2.0f64,
        strength in -1.0..8.0f64,
    ) {
        let near = posterior_inflation_factor(d1, length_scale, strength);
        let far = posterior_inflation_factor(d1 + extra, length_scale, strength);
        prop_assert!(near >= 1.0, "inflation factor below one: {near}");
        prop_assert!(far >= near - 1e-12, "inflation decreased with distance: {near} -> {far}");
    }

    /// Inflating a real GP posterior's variances widens every pointwise
    /// interval, whatever the (possibly sub-unit) factors.
    #[test]
    fn inflating_gp_variances_never_narrows_intervals(
        raw_factor in 0.0..5.0f64,
        seed in 0u64..1_000,
    ) {
        let xs = [0.0, 0.2, 0.45, 0.7, 1.0];
        let ys = [0.05, 0.15, 0.5, 0.8, 0.97];
        // The quarter-range heuristic of `xs`, pinned.
        let config = GpConfig { length_scale: Some(0.25), ..GpConfig::default() };
        let gp = GaussianProcess::fit(&xs, &ys, config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let query: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut posterior = gp.predict_joint(&query);
        let before = posterior.variances();
        let factors: Vec<f64> = (0..query.len())
            .map(|_| raw_factor * rng.gen_range(0.0..1.0))
            .collect();
        posterior.inflate_variances(&factors);
        for (b, a) in before.iter().zip(posterior.variances()) {
            prop_assert!(a >= *b - 1e-15, "variance shrank under inflation: {b} -> {a}");
        }
    }

    /// Deflating the effective sample size with distance can only widen the
    /// detection limit.
    #[test]
    fn deflated_samples_widen_detection_limits(
        n in 2.0..500.0f64,
        d1 in 0.0..5.0f64,
        extra in 0.0..5.0f64,
        strength in 0.0..4.0f64,
    ) {
        let ls = 0.1;
        let near = effective_sample_size(n, d1, ls, strength);
        let far = effective_sample_size(n, d1 + extra, ls, strength);
        prop_assert!(far <= near + 1e-12 && near <= n + 1e-12 && far >= 1.0);
        let dl_near = detection_limit(near, 0.95).unwrap();
        let dl_far = detection_limit(far, 0.95).unwrap();
        prop_assert!(dl_far >= dl_near - 1e-12, "detection limit narrowed with distance");
    }

    /// The lower limit is monotone in the number of observed positives —
    /// the mirror of `upper_limit_is_monotone_in_positives`.
    #[test]
    fn lower_limit_is_monotone_in_positives(
        n in 2usize..400,
        confidence in 0.5..0.999f64,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k1 = rng.gen_range(0..n);
        let k2 = rng.gen_range(k1 + 1..=n);
        let l1 = clopper_pearson_lower(n as f64, k1 as f64, confidence).unwrap();
        let l2 = clopper_pearson_lower(n as f64, k2 as f64, confidence).unwrap();
        prop_assert!(
            l1 <= l2 + 1e-12,
            "lower limit must grow with positives: n={n} k1={k1} k2={k2} -> {l1} > {l2}"
        );
    }

    /// For a fixed number of *negatives*, more draws raise (tighten) the lower
    /// limit: a bigger pure-one-dominated sample certifies a higher proportion.
    #[test]
    fn lower_limit_is_monotone_in_sample_size(
        negatives in 0usize..50,
        extra in 1usize..300,
        confidence in 0.5..0.999f64,
    ) {
        let n1 = (negatives + 1) as f64;
        let n2 = (negatives + 1 + extra) as f64;
        let l1 = clopper_pearson_lower(n1, n1 - negatives as f64, confidence).unwrap();
        let l2 = clopper_pearson_lower(n2, n2 - negatives as f64, confidence).unwrap();
        prop_assert!(
            l2 >= l1 - 1e-12,
            "more draws must tighten the lower limit: negatives={negatives} n1={n1} n2={n2} \
             -> {l2} < {l1}"
        );
    }

    /// Frequentist coverage of the lower limit: the true proportion lies at or
    /// above it in at least a `confidence` fraction of simulated binomial
    /// experiments — the mirror of `upper_limit_covers_simulated_binomials`,
    /// run in the near-pure regime the saturated-run calibration lives in.
    #[test]
    fn lower_limit_covers_simulated_binomials(
        p in 0.5..0.999f64,
        n in 10usize..200,
        seed in 0u64..10_000,
    ) {
        const TRIALS: usize = 400;
        const CONFIDENCE: f64 = 0.9;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut covered = 0usize;
        for _ in 0..TRIALS {
            let k = (0..n).filter(|_| rng.gen_range(0.0..1.0) < p).count();
            let l = clopper_pearson_lower(n as f64, k as f64, CONFIDENCE).unwrap();
            if p >= l {
                covered += 1;
            }
        }
        let four_sigma = 4.0 * (CONFIDENCE * (1.0 - CONFIDENCE) / TRIALS as f64).sqrt();
        prop_assert!(
            covered as f64 / TRIALS as f64 >= CONFIDENCE - four_sigma,
            "lower-limit coverage {}/{TRIALS} below {CONFIDENCE} for p={p}, n={n}",
            covered
        );
    }

    /// Deflating the effective sample size with distance can only *lower*
    /// (widen) the lower detection limit — the mirror of
    /// `deflated_samples_widen_detection_limits`.
    #[test]
    fn deflated_samples_widen_lower_detection_limits(
        n in 2.0..500.0f64,
        d1 in 0.0..5.0f64,
        extra in 0.0..5.0f64,
        strength in 0.0..4.0f64,
    ) {
        let ls = 0.1;
        let near = effective_sample_size(n, d1, ls, strength);
        let far = effective_sample_size(n, d1 + extra, ls, strength);
        let dl_near = detection_limit_lower(near, 0.95).unwrap();
        let dl_far = detection_limit_lower(far, 0.95).unwrap();
        prop_assert!(
            dl_far <= dl_near + 1e-12,
            "lower detection limit rose with distance: {dl_near} -> {dl_far}"
        );
    }

    /// The pooled limits preserve the observed proportion under deflation and
    /// always bracket it: the deflated lower limit sits at or below, the
    /// deflated upper limit at or above.
    #[test]
    fn pooled_limits_bracket_the_observed_proportion(
        n in 2.0..500.0f64,
        frac in 0.0..=1.0f64,
        distance in 0.0..5.0f64,
        strength in 0.0..4.0f64,
        confidence in 0.5..0.999f64,
    ) {
        let k = (n * frac).min(n);
        let observed = k / n;
        let l = pooled_lower_limit(n, k, distance, 0.1, strength, confidence).unwrap();
        let u = pooled_upper_limit(n, k, distance, 0.1, strength, confidence).unwrap();
        prop_assert!((0.0..=1.0).contains(&l) && (0.0..=1.0).contains(&u));
        prop_assert!(l <= observed + 1e-9, "pooled lower {l} above observed {observed}");
        prop_assert!(u >= observed - 1e-9, "pooled upper {u} below observed {observed}");
        prop_assert!(l <= u + 1e-9);
    }

    /// Pooling several same-proportion samples certifies a tighter (higher)
    /// lower limit than any one of them alone — the property that makes the
    /// saturated-run form affordable where per-subset limits were severalfold
    /// too weak.
    #[test]
    fn pooling_tightens_the_lower_limit(
        per_sample in 5.0..100.0f64,
        copies in 2usize..12,
        confidence in 0.5..0.999f64,
    ) {
        let pooled_n = per_sample * copies as f64;
        let single = pooled_lower_limit(per_sample, per_sample, 0.0, 0.1, 1.0, confidence).unwrap();
        let pooled = pooled_lower_limit(pooled_n, pooled_n, 0.0, 0.1, 1.0, confidence).unwrap();
        prop_assert!(
            pooled >= single - 1e-12,
            "pooled pure-one limit {pooled} weaker than the single-sample limit {single}"
        );
    }
}
