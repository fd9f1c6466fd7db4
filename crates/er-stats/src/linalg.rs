//! Minimal dense linear algebra: row-major matrices, Cholesky factorization and
//! the triangular solves needed by Gaussian-process regression.
//!
//! The Gaussian process in [`crate::gp`] only needs to factor symmetric
//! positive-definite covariance matrices, solve linear systems against the
//! factor, and form quadratic products — all of which are provided here without
//! pulling in an external BLAS/LAPACK dependency.

use crate::{Result, StatsError};

/// A dense column vector (thin wrapper over `Vec<f64>` used for clarity in GP code).
pub type Vector = Vec<f64>;

/// Error returned when a Cholesky factorization fails because the matrix is not
/// (numerically) symmetric positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyError {
    /// The pivot index at which a non-positive diagonal was encountered.
    pub pivot: usize,
    /// The offending diagonal value.
    pub value: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite: pivot {} has value {}", self.pivot, self.value)
    }
}

impl std::error::Error for CholeskyError {}

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the identity matrix of the given order.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatsError::Linalg(format!(
                "expected {} elements for a {rows}x{cols} matrix, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vector {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Adds `value` to every diagonal entry (useful for jitter/nugget terms).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Computes the lower-triangular Cholesky factor `L` with `L * Lᵀ = self`.
    ///
    /// The matrix must be square and numerically symmetric positive definite.
    pub fn cholesky(&self) -> std::result::Result<Cholesky, CholeskyError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let row = i * n..=i * n + i;
            l.data[row.clone()].copy_from_slice(&self.data[row]);
        }
        cholesky_in_place(&mut l.data, n)?;
        Ok(Cholesky { l })
    }
}

/// Factors a symmetric positive-definite `n × n` row-major matrix in place:
/// on entry cell `(i, j)`, `j ≤ i`, holds `A_ij`; on success it holds `L_ij`.
/// Cells above the diagonal are neither read nor written, so a caller only
/// has to fill the lower triangle. This is the one Cholesky loop behind
/// [`Matrix::cholesky`] and the GP's held-out length-scale selection.
pub(crate) fn cholesky_in_place(a: &mut [f64], n: usize) -> std::result::Result<(), CholeskyError> {
    for i in 0..n {
        for j in 0..=i {
            // Cell `(i, j)` still holds `A_ij`; every `L` entry read below is
            // already computed (row `j < i` whole, row `i` left of `j`).
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(CholeskyError { pivot: i, value: sum });
                }
                a[i * n + j] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `L y = b` in place, with `L` the lower triangle of the row-major
/// `n × n` `l` (forward substitution).
pub(crate) fn forward_substitute_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * b[k];
        }
        b[i] = sum / l[i * n + i];
    }
}

/// Solves `Lᵀ x = y` in place, with `L` as in
/// [`forward_substitute_in_place`] (backward substitution).
pub(crate) fn backward_substitute_in_place(l: &[f64], n: usize, y: &mut [f64]) {
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

/// The lower-triangular Cholesky factor of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` where `A = L Lᵀ` is the factored matrix.
    pub fn solve(&self, b: &[f64]) -> Vector {
        let mut x = self.forward_substitute(b);
        backward_substitute_in_place(self.l.data(), self.order(), &mut x);
        x
    }

    /// Solves `L y = b` (forward substitution).
    pub fn forward_substitute(&self, b: &[f64]) -> Vector {
        let n = self.order();
        assert_eq!(b.len(), n, "solve dimension mismatch");
        let mut y = b.to_vec();
        forward_substitute_in_place(self.l.data(), n, &mut y);
        y
    }

    /// Solves `A X = B` column-by-column for a matrix right-hand side.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.order();
        assert_eq!(b.rows(), n, "solve_matrix dimension mismatch");
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
            let x = self.solve(&col);
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    /// Log-determinant of the factored matrix, `ln det(A) = 2 Σ ln L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.order()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Appends one row/column to the factored matrix in O(n²).
    ///
    /// Given the factor `L` of an `n × n` matrix `A`, extends it to the factor
    /// of the `(n+1) × (n+1)` matrix whose leading block is `A`, whose new
    /// off-diagonal row/column is `row` and whose new diagonal entry is
    /// `diagonal`. Because every entry of a Cholesky factor depends only on
    /// the leading submatrix, the grown factor is **bit-identical** to
    /// re-factorizing the extended matrix from scratch with
    /// [`Matrix::cholesky`] — at O(n²) cost instead of O(n³).
    ///
    /// Fails with the same [`CholeskyError`] (pivot `n`, the offending value)
    /// that a from-scratch factorization of the extended matrix would report
    /// at its last pivot; on failure `self` is left unchanged.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the current order.
    #[allow(clippy::needless_range_loop)] // mirrors cholesky(), clearest with indices
    pub fn extend_row(
        &mut self,
        row: &[f64],
        diagonal: f64,
    ) -> std::result::Result<(), CholeskyError> {
        let n = self.order();
        assert_eq!(row.len(), n, "extend_row dimension mismatch");
        // New off-diagonal entries y = L⁻¹ row, with the exact operand order
        // of `Matrix::cholesky` so the result is bit-identical to it.
        let mut y = vec![0.0; n];
        for j in 0..n {
            let mut sum = row[j];
            for k in 0..j {
                sum -= y[k] * self.l[(j, k)];
            }
            y[j] = sum / self.l[(j, j)];
        }
        let mut pivot = diagonal;
        for k in 0..n {
            pivot -= y[k] * y[k];
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(CholeskyError { pivot: n, value: pivot });
        }
        // Commit only after the pivot check: grow L row-major in place.
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = self.l[(i, j)];
            }
        }
        for j in 0..n {
            l[(n, j)] = y[j];
        }
        l[(n, n)] = pivot.sqrt();
        self.l = l;
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The value [`dot`] starts its left-to-right sum from (the identity of
/// `f64`'s `Sum`). Kernels that interleave many dot products and must match
/// [`dot`] bit for bit start every accumulator here.
pub(crate) fn dot_seed() -> f64 {
    std::iter::empty::<f64>().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!((actual - expected).abs() <= tol, "expected {expected}, got {actual} (tol {tol})");
    }

    fn spd_example() -> Matrix {
        Matrix::from_rows(3, 3, vec![4.0, 12.0, -16.0, 12.0, 37.0, -43.0, -16.0, -43.0, 98.0])
            .unwrap()
    }

    #[test]
    fn identity_times_matrix_is_matrix() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.matvec(&[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn cholesky_wikipedia_example() {
        // Classical example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let chol = spd_example().cholesky().unwrap();
        let l = chol.factor();
        assert_close(l[(0, 0)], 2.0, 1e-12);
        assert_close(l[(1, 0)], 6.0, 1e-12);
        assert_close(l[(1, 1)], 1.0, 1e-12);
        assert_close(l[(2, 0)], -8.0, 1e-12);
        assert_close(l[(2, 1)], 5.0, 1e-12);
        assert_close(l[(2, 2)], 3.0, 1e-12);
    }

    #[test]
    fn cholesky_reconstructs_original() {
        let a = spd_example();
        let chol = a.cholesky().unwrap();
        let l = chol.factor();
        let reconstructed = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert_close(reconstructed[(i, j)], a[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_example();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.cholesky().unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert_close(*xi, *ti, 1e-10);
        }
    }

    #[test]
    fn solve_matrix_against_identity_gives_inverse() {
        let a = spd_example();
        let inv = a.cholesky().unwrap().solve_matrix(&Matrix::identity(3));
        let product = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_close(product[(i, j)], expected, 1e-9);
            }
        }
    }

    #[test]
    fn log_determinant_matches_product_of_pivots() {
        let a = spd_example();
        // det = (2*1*3)^2 = 36.
        let chol = a.cholesky().unwrap();
        assert_close(chol.log_determinant(), 36.0_f64.ln(), 1e-10);
    }

    #[test]
    fn add_diagonal_adds_jitter() {
        let mut a = Matrix::identity(2);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn extend_row_is_bit_identical_to_refactorization() {
        let a = spd_example();
        // Factor the 2x2 leading block, then append A's last row.
        let leading = Matrix::from_fn(2, 2, |i, j| a[(i, j)]);
        let mut grown = leading.cholesky().unwrap();
        grown.extend_row(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)]).unwrap();
        let scratch = a.cholesky().unwrap();
        assert_eq!(grown.factor(), scratch.factor());
        // And grown solves behave like the from-scratch factor's.
        let b = vec![1.0, -2.0, 0.5];
        assert_eq!(grown.solve(&b), scratch.solve(&b));
    }

    #[test]
    fn extend_row_grows_from_an_empty_factor() {
        let a = spd_example();
        let mut chol = Matrix::zeros(0, 0).cholesky().unwrap();
        for i in 0..3 {
            let row: Vec<f64> = (0..i).map(|j| a[(i, j)]).collect();
            chol.extend_row(&row, a[(i, i)]).unwrap();
        }
        assert_eq!(chol.factor(), a.cholesky().unwrap().factor());
    }

    #[test]
    fn extend_row_rejects_non_spd_and_leaves_factor_unchanged() {
        // Extending the identity with a row making the matrix singular:
        // [[1, 2], [2, 4]] has a zero Schur complement.
        let mut chol = Matrix::identity(1).cholesky().unwrap();
        let before = chol.factor().clone();
        let err = chol.extend_row(&[2.0], 4.0).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value <= 0.0);
        assert_eq!(chol.factor(), &before);
        // The error matches what a from-scratch factorization reports.
        let scratch =
            Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap().cholesky().unwrap_err();
        assert_eq!(err, scratch);
    }
}
