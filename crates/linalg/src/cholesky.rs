//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! The GP predictor factorises its Gram matrix once per prediction and then
//! reuses the factor for: the predictive mean `c₀ᵀ C⁻¹ Y` (paper Eqn 16),
//! the predictive variance `c(x₀,x₀) − c₀ᵀ C⁻¹ c₀` (Eqn 17), the explicit
//! inverse needed by the leave-one-out likelihood (Eqn 19–20), and the
//! log-determinant used by the marginal-likelihood baselines.
//!
//! Gram matrices built from near-duplicate kNN segments can be numerically
//! semi-definite, so [`Cholesky::decompose_with_jitter`] retries with a
//! geometrically growing diagonal jitter — the standard GP-practice remedy.

#![allow(clippy::needless_range_loop)] // index loops mirror the factorisation maths

use crate::matrix::Matrix;

/// Error produced when a matrix cannot be factorised.
#[derive(Debug, Clone, PartialEq)]
pub enum CholeskyError {
    /// The matrix is not square.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A non-positive pivot was encountered at the given index, even after
    /// the maximum jitter was applied.
    NotPositiveDefinite {
        /// Pivot index at which factorisation failed.
        pivot: usize,
    },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotSquare { rows, cols } => {
                write!(f, "cannot factorise a non-square {rows}x{cols} matrix")
            }
            CholeskyError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that was added to the diagonal to achieve positive-definiteness.
    jitter: f64,
}

impl Cholesky {
    /// Factorise a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed, not
    /// checked.
    pub fn decompose(a: &Matrix) -> Result<Self, CholeskyError> {
        Self::decompose_impl(a, 0.0)
    }

    /// Factorise with automatic jitter escalation.
    ///
    /// Starting from `initial_jitter`, the jitter is multiplied by 10 until
    /// factorisation succeeds or it exceeds `max_jitter`. The jitter actually
    /// used is reported by [`Cholesky::jitter`]; callers that care about
    /// exactness can assert it is zero.
    pub fn decompose_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_jitter: f64,
    ) -> Result<Self, CholeskyError> {
        let mut c = Cholesky::empty();
        c.refactor_with_jitter(a, initial_jitter, max_jitter)?;
        Ok(c)
    }

    /// An empty `0×0` factor — reusable storage for
    /// [`Cholesky::refactor_with_jitter`].
    pub fn empty() -> Self {
        Cholesky { l: Matrix::zeros(0, 0), jitter: 0.0 }
    }

    /// Re-run [`Cholesky::decompose_with_jitter`] on a new matrix, reusing
    /// this factor's storage — the GP training loop refactorises one Gram
    /// matrix per objective probe and allocates nothing after the first.
    ///
    /// On error the factor's contents are unspecified (but the storage is
    /// intact and a later refactor is fine).
    pub fn refactor_with_jitter(
        &mut self,
        a: &Matrix,
        initial_jitter: f64,
        max_jitter: f64,
    ) -> Result<(), CholeskyError> {
        match Self::decompose_into(&mut self.l, a, 0.0) {
            Ok(()) => {
                self.jitter = 0.0;
                return Ok(());
            }
            Err(CholeskyError::NotSquare { rows, cols }) => {
                return Err(CholeskyError::NotSquare { rows, cols })
            }
            Err(CholeskyError::NotPositiveDefinite { .. }) => {}
        }
        let mut jitter = initial_jitter.max(f64::EPSILON);
        while jitter <= max_jitter {
            if Self::decompose_into(&mut self.l, a, jitter).is_ok() {
                self.jitter = jitter;
                return Ok(());
            }
            jitter *= 10.0;
        }
        Err(CholeskyError::NotPositiveDefinite { pivot: 0 })
    }

    fn decompose_impl(a: &Matrix, jitter: f64) -> Result<Self, CholeskyError> {
        let mut l = Matrix::zeros(0, 0);
        Self::decompose_into(&mut l, a, jitter)?;
        Ok(Cholesky { l, jitter })
    }

    /// The factorisation kernel, writing into reusable storage. The inner
    /// reduction `Σ_k L_ik L_jk` is a lane-decomposed dot over the two row
    /// prefixes; its decomposition depends only on `j`, so rows `0..k` of
    /// the factor still depend only on the leading `k×k` block of `A` — the
    /// shared-prefix property the GP ensemble relies on is preserved bit
    /// for bit.
    fn decompose_into(l: &mut Matrix, a: &Matrix, jitter: f64) -> Result<(), CholeskyError> {
        if !a.is_square() {
            return Err(CholeskyError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        l.reset_zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let dot = smiler_simd::dot(&l.row(i)[..j], &l.row(j)[..j]);
                let sum = a[(i, j)] + if i == j { jitter } else { 0.0 } - dot;
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(CholeskyError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter that was added to achieve factorisation.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L x = b` (forward substitution).
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "solve_lower dimension mismatch");
        let mut x = b.to_vec();
        self.solve_lower_in_place(&mut x);
        x
    }

    /// Forward substitution in place: on entry `x` holds `b`, on exit the
    /// solution of `L x = b`.
    ///
    /// `x` may be *shorter* than the factor: a `k`-length slice solves
    /// against the leading principal `k×k` block of `L`, which is exactly
    /// the Cholesky factor of the leading principal `k×k` submatrix of `A`
    /// — the shared-prefix property the GP ensemble exploits.
    ///
    /// # Panics
    /// Panics if `x.len() > self.dim()`.
    pub fn solve_lower_in_place(&self, x: &mut [f64]) {
        let n = x.len();
        assert!(n <= self.dim(), "solve_lower_in_place dimension mismatch");
        for i in 0..n {
            // The reduction over already-solved entries is a lane dot whose
            // decomposition depends only on `i`, so prefix solves through the
            // full factor still match the submatrix solve bit for bit.
            let (solved, rest) = x.split_at_mut(i);
            let row = self.l.row(i);
            rest[0] = (rest[0] - smiler_simd::dot(&row[..i], solved)) / row[i];
        }
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "solve_upper dimension mismatch");
        let mut x = b.to_vec();
        self.solve_upper_in_place(&mut x);
        x
    }

    /// Backward substitution in place: on entry `x` holds `b`, on exit the
    /// solution of `Lᵀ x = b`. As with [`Cholesky::solve_lower_in_place`], a
    /// shorter slice solves against the leading principal block.
    ///
    /// # Panics
    /// Panics if `x.len() > self.dim()`.
    pub fn solve_upper_in_place(&self, x: &mut [f64]) {
        let n = x.len();
        assert!(n <= self.dim(), "solve_upper_in_place dimension mismatch");
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solve `A x = b` in place (forward then backward substitution). A
    /// shorter slice solves against the leading principal block of `A`.
    ///
    /// # Panics
    /// Panics if `x.len() > self.dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        self.solve_lower_in_place(x);
        self.solve_upper_in_place(x);
    }

    /// Solve `A X = B` column by column.
    ///
    /// # Panics
    /// Panics if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "solve_matrix dimension mismatch");
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col);
            for i in 0..b.rows() {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    /// The explicit inverse `A⁻¹`.
    ///
    /// The leave-one-out likelihood (paper Eqn 19) needs the diagonal of the
    /// inverse Gram matrix and products with whole columns, so an explicit
    /// inverse is the right tool despite its O(n³) cost — `n = k ≤ 128` here.
    pub fn inverse(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let mut work = Vec::new();
        self.inverse_into(&mut out, &mut work);
        out
    }

    /// [`Cholesky::inverse`] into caller-owned storage — the GP training loop
    /// inverts one Gram matrix per objective probe and reuses the buffers.
    ///
    /// First `Z = L⁻¹`, one forward solve against `e_j` per column: rows
    /// above `j` of the solution are exactly zero, so the substitution
    /// starts at row `j` and halves the triangular work versus solving dense
    /// right-hand sides. Then `A⁻¹ = L⁻ᵀ Z`, back-substituted for every
    /// column at once in [`Matrix::matmul_into`]'s i-k-j order: row `i` is
    /// row `i` of `Z` minus `L[k][i]` times row `k` of the result for `k`
    /// ascending, divided by `L[i][i]`. Each column sees exactly the
    /// subtraction sequence of a per-column backward substitution, but the
    /// updates run along contiguous rows instead of one serial `sum -=`
    /// chain per column.
    pub fn inverse_into(&self, out: &mut Matrix, work: &mut Vec<f64>) {
        let n = self.dim();
        out.reset_zeros(n, n);
        work.clear();
        work.resize(n, 0.0);
        for j in 0..n {
            // Forward solve L z = e_j; z[..j] is identically zero.
            work[j] = 1.0 / self.l[(j, j)];
            for i in j + 1..n {
                let row = self.l.row(i);
                work[i] = -smiler_simd::dot(&row[j..i], &work[j..i]) / row[i];
            }
            for (i, &v) in work.iter().enumerate().skip(j) {
                out[(i, j)] = v;
            }
        }
        for i in (0..n).rev() {
            work.copy_from_slice(out.row(i));
            for k in i + 1..n {
                smiler_simd::axpy(-self.l[(k, i)], out.row(k), work);
            }
            let pivot = self.l[(i, i)];
            for (x, &acc) in out.row_mut(i).iter_mut().zip(work.iter()) {
                *x = acc / pivot;
            }
        }
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `bᵀ A⁻¹ b` computed stably via one triangular solve.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let z = self.solve_lower(b);
        z.iter().map(|v| v * v).sum()
    }

    /// [`Cholesky::quad_form`] scribbling over a caller-owned buffer that
    /// holds `b` on entry — no allocation. A shorter slice evaluates the
    /// quadratic form against the leading principal block of `A`.
    ///
    /// # Panics
    /// Panics if `x.len() > self.dim()`.
    pub fn quad_form_in_place(&self, x: &mut [f64]) -> f64 {
        self.solve_lower_in_place(x);
        x.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // Build B with deterministic pseudo-random entries, return B Bᵀ + n·I.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(n as f64);
        a
    }

    /// The per-column inverse the batched back substitution replaced, kept
    /// verbatim as a bitwise oracle.
    fn inverse_per_column_oracle(c: &Cholesky) -> Matrix {
        let n = c.dim();
        let mut out = Matrix::zeros(n, n);
        let mut work = vec![0.0; n];
        for j in 0..n {
            // Forward solve L z = e_j; z[..j] is identically zero.
            work[..j].fill(0.0);
            work[j] = 1.0 / c.l[(j, j)];
            for i in j + 1..n {
                let row = c.l.row(i);
                work[i] = -smiler_simd::dot(&row[j..i], &work[j..i]) / row[i];
            }
            c.solve_upper_in_place(&mut work);
            for (i, &v) in work.iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        out
    }

    #[test]
    fn reconstructs_matrix() {
        let a = spd(6, 1);
        let c = Cholesky::decompose(&a).unwrap();
        let l = c.factor();
        let back = l.matmul(&l.transpose());
        assert!(a.max_abs_diff(&back).unwrap() < 1e-10);
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd(8, 2);
        let c = Cholesky::decompose(&a).unwrap();
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let b = a.matvec(&x_true);
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(5, 3);
        let inv = Cholesky::decompose(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(5)).unwrap() < 1e-9);
    }

    #[test]
    fn log_determinant_of_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        a[(2, 2)] = 8.0;
        let c = Cholesky::decompose(&a).unwrap();
        assert!((c.log_determinant() - (64.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_explicit() {
        let a = spd(7, 4);
        let c = Cholesky::decompose(&a).unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64).sin()).collect();
        let explicit: f64 = {
            let x = c.solve(&b);
            b.iter().zip(&x).map(|(bi, xi)| bi * xi).sum()
        };
        assert!((c.quad_form(&b) - explicit).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&m),
            Err(CholeskyError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Matrix::identity(2);
        a[(1, 1)] = -1.0;
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(CholeskyError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-one matrix: ones everywhere.
        let a = Matrix::from_fn(4, 4, |_, _| 1.0);
        let c = Cholesky::decompose_with_jitter(&a, 1e-10, 1e-2).unwrap();
        assert!(c.jitter() > 0.0);
        // Factor must reproduce A + jitter·I.
        let mut aj = a.clone();
        aj.add_diagonal(c.jitter());
        let back = c.factor().matmul(&c.factor().transpose());
        assert!(aj.max_abs_diff(&back).unwrap() < 1e-8);
    }

    #[test]
    fn jitter_gives_up_beyond_max() {
        let mut a = Matrix::identity(2);
        a[(1, 1)] = -100.0;
        assert!(Cholesky::decompose_with_jitter(&a, 1e-10, 1e-6).is_err());
    }

    #[test]
    fn in_place_solves_match_allocating() {
        let a = spd(9, 11);
        let c = Cholesky::decompose(&a).unwrap();
        let b: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut x = b.clone();
        c.solve_lower_in_place(&mut x);
        assert_eq!(x, c.solve_lower(&b), "forward substitution diverged");
        let mut x = b.clone();
        c.solve_upper_in_place(&mut x);
        assert_eq!(x, c.solve_upper(&b), "backward substitution diverged");
        let mut x = b.clone();
        c.solve_in_place(&mut x);
        assert_eq!(x, c.solve(&b), "full solve diverged");
        let mut x = b.clone();
        assert_eq!(c.quad_form_in_place(&mut x), c.quad_form(&b));
    }

    #[test]
    fn leading_block_is_factor_of_principal_submatrix() {
        // The key invariant behind the shared-prefix GP: rows 0..k of L
        // depend only on the leading k×k block of A, so the truncated
        // factor IS the factor of the principal submatrix — bit for bit.
        let a = spd(10, 12);
        let full = Cholesky::decompose(&a).unwrap();
        for k in 1..=10usize {
            let sub = Matrix::from_fn(k, k, |i, j| a[(i, j)]);
            let c_sub = Cholesky::decompose(&sub).unwrap();
            for i in 0..k {
                for j in 0..=i {
                    assert_eq!(
                        full.factor()[(i, j)],
                        c_sub.factor()[(i, j)],
                        "L[{i}][{j}] differs at prefix {k}"
                    );
                }
            }
            // Prefix solves through the full factor match the submatrix.
            let b: Vec<f64> = (0..k).map(|i| (i as f64) - 1.5).collect();
            let mut x = b.clone();
            full.solve_in_place(&mut x);
            assert_eq!(x, c_sub.solve(&b), "prefix solve diverged at k={k}");
            let mut x = b.clone();
            assert_eq!(
                full.quad_form_in_place(&mut x),
                c_sub.quad_form(&b),
                "prefix quad form diverged at k={k}"
            );
        }
    }

    #[test]
    fn inverse_matches_dense_solve() {
        let a = spd(6, 21);
        let c = Cholesky::decompose(&a).unwrap();
        let dense = c.solve_matrix(&Matrix::identity(6));
        let structured = c.inverse();
        assert!(dense.max_abs_diff(&structured).unwrap() < 1e-10);
    }

    #[test]
    fn inverse_into_reused_matches_fresh() {
        let mut out = Matrix::zeros(0, 0);
        let mut work = Vec::new();
        for seed in [31u64, 32, 33] {
            let a = spd(7, seed);
            let c = Cholesky::decompose(&a).unwrap();
            c.inverse_into(&mut out, &mut work);
            let fresh = c.inverse();
            assert_eq!(out.max_abs_diff(&fresh), Some(0.0), "seed {seed}");
        }
    }

    #[test]
    fn batched_inverse_is_bitwise_the_per_column_inverse() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut out = Matrix::zeros(0, 0);
        let mut work = Vec::new();
        for n in 1..=48usize {
            // A well-conditioned factor, and one that needed jitter: a
            // rank-deficient Gram matrix nudged by a tiny diagonal.
            let low_rank = {
                let b = Matrix::from_fn(n, 2, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
                b.matmul(&b.transpose())
            };
            let factors = [
                Cholesky::decompose(&spd(n, 100 + n as u64)).unwrap(),
                Cholesky::decompose_with_jitter(&low_rank, 1e-10, 1.0).unwrap(),
            ];
            assert!(n < 3 || factors[1].jitter() > 0.0, "n = {n}: expected a jittered factor");
            for (which, c) in factors.iter().enumerate() {
                c.inverse_into(&mut out, &mut work);
                assert_eq!(
                    bits(&out),
                    bits(&inverse_per_column_oracle(c)),
                    "n = {n}, factor {which}"
                );
            }
        }
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh() {
        let mut c = Cholesky::decompose(&spd(5, 41)).unwrap();
        for seed in [42u64, 43] {
            let a = spd(5, seed);
            c.refactor_with_jitter(&a, 1e-10, 1e-2).unwrap();
            let fresh = Cholesky::decompose_with_jitter(&a, 1e-10, 1e-2).unwrap();
            assert_eq!(c.factor().max_abs_diff(fresh.factor()), Some(0.0), "seed {seed}");
            assert_eq!(c.jitter(), fresh.jitter());
        }
        // A rank-deficient refactor must still escalate jitter.
        let ones = Matrix::from_fn(5, 5, |_, _| 1.0);
        c.refactor_with_jitter(&ones, 1e-10, 1e-2).unwrap();
        assert!(c.jitter() > 0.0);
    }

    #[test]
    fn partitioned_inverse_identity_for_loo() {
        // The LOO shortcut relies on: removing row/col a from A and inverting
        // equals the Schur-complement identity on A⁻¹. Verify numerically:
        // (A_{-a,-a})⁻¹ = A⁻¹_{-a,-a} − A⁻¹_{-a,a} A⁻¹_{a,-a} / A⁻¹_{a,a}.
        let a = spd(6, 9);
        let inv = Cholesky::decompose(&a).unwrap().inverse();
        let r = 2usize;
        let minor_inv = Cholesky::decompose(&a.delete_row_col(r)).unwrap().inverse();
        let n = a.rows();
        let map = |i: usize| if i < r { i } else { i + 1 };
        for i in 0..n - 1 {
            for j in 0..n - 1 {
                let expect =
                    inv[(map(i), map(j))] - inv[(map(i), r)] * inv[(r, map(j))] / inv[(r, r)];
                assert!((minor_inv[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }
}
