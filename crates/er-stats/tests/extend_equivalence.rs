//! Property tests for the incremental-refit primitives: growing a Cholesky
//! factor row by row and appending observations to a fitted Gaussian process
//! must reproduce the from-scratch computation. These equivalences are what
//! lets the labeling sessions refit per probe in O(n²) without changing a
//! single emitted batch or bound.

use er_stats::{GaussianProcess, GpConfig, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random symmetric positive-definite matrix: `B·Bᵀ + n·I`.
fn random_spd(n: usize, rng: &mut StdRng) -> Matrix {
    let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    let mut a = b.matmul(&b.transpose());
    a.add_diagonal(n as f64);
    a
}

/// The leading `k × k` block of a matrix.
fn leading_block(a: &Matrix, k: usize) -> Matrix {
    Matrix::from_fn(k, k, |i, j| a[(i, j)])
}

proptest! {
    /// Growing the factor of the leading block row by row reproduces the
    /// from-scratch factorization of the full matrix.
    #[test]
    fn extend_row_matches_from_scratch_factorization(
        n in 2usize..24,
        grow in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = n + grow;
        let a = random_spd(total, &mut rng);

        let mut grown = leading_block(&a, n).cholesky().expect("SPD leading block");
        for k in n..total {
            let row: Vec<f64> = (0..k).map(|j| a[(k, j)]).collect();
            grown.extend_row(&row, a[(k, k)]).expect("SPD extension");
        }
        let scratch = a.cholesky().expect("SPD full matrix");

        prop_assert_eq!(grown.order(), total);
        for i in 0..total {
            for j in 0..=i {
                let g = grown.factor()[(i, j)];
                let s = scratch.factor()[(i, j)];
                prop_assert!(
                    (g - s).abs() <= 1e-12,
                    "factor entry ({i},{j}) diverged: grown {g} vs scratch {s}"
                );
            }
        }
        prop_assert!((grown.log_determinant() - scratch.log_determinant()).abs() <= 1e-9);
    }

    /// A failed extension reports the same pivot failure a from-scratch
    /// factorization would, and leaves the factor untouched.
    #[test]
    fn extend_row_rejects_non_spd_extensions(n in 2usize..16, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(n, &mut rng);
        let mut factor = a.cholesky().expect("SPD matrix");
        let before = factor.factor().data().to_vec();
        // A new row identical to an existing one with a *smaller* diagonal
        // forces the final Schur-complement pivot to −1, so the extension
        // cannot be positive definite and must be rejected.
        let dup: Vec<f64> = (0..n).map(|j| a[(0, j)]).collect();
        let result = factor.extend_row(&dup, a[(0, 0)] - 1.0);
        prop_assert!(result.is_err(), "duplicate-row extension must not be SPD");
        prop_assert_eq!(factor.order(), n);
        prop_assert_eq!(factor.factor().data(), &before[..]);
    }

    /// Appending observations to a fitted GP gives the same posterior as
    /// fitting the concatenated data from scratch with the same fixed
    /// hyperparameters — mean and variance alike.
    #[test]
    fn gp_extend_matches_fit_on_concatenated_data(
        initial in 2usize..12,
        appended in 1usize..8,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = initial + appended;
        let xs: Vec<f64> = (0..total).map(|i| i as f64 + rng.gen_range(0.0..0.5)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 3.0).sin() * 0.4 + rng.gen_range(-0.05..0.05)).collect();
        let noise: Vec<f64> = (0..total).map(|_| rng.gen_range(1e-5..1e-2)).collect();
        let config = GpConfig {
            signal_variance: 0.05,
            length_scale: Some(rng.gen_range(0.5..4.0)),
            noise_variance: 1e-4,
        };

        let mut grown = GaussianProcess::fit_with_noise(
            &xs[..initial], &ys[..initial], &noise[..initial], config,
        ).expect("initial fit succeeds");
        // Append in two chunks to also cover the one-at-a-time == batched path.
        let split = initial + appended / 2;
        grown.extend_with_noise(&xs[initial..split], &ys[initial..split], &noise[initial..split])
            .expect("first extension succeeds");
        grown.extend_with_noise(&xs[split..], &ys[split..], &noise[split..])
            .expect("second extension succeeds");

        let scratch = GaussianProcess::fit_with_noise(&xs, &ys, &noise, config)
            .expect("from-scratch fit succeeds");

        prop_assert_eq!(grown.training_size(), scratch.training_size());
        for q in 0..=20 {
            let x = total as f64 * q as f64 / 20.0;
            let (gm, gv) = grown.predict(x);
            let (sm, sv) = scratch.predict(x);
            prop_assert!(
                (gm - sm).abs() <= 1e-12,
                "posterior mean diverged at {x}: {gm} vs {sm}"
            );
            prop_assert!(
                (gv - sv).abs() <= 1e-12,
                "posterior variance diverged at {x}: {gv} vs {sv}"
            );
        }
    }
}
