//! The squared-exponential covariance function and its hyperparameters.

use smiler_linalg::{vector, Matrix};

/// Hyperparameters `Θ = {θ₀, θ₁, θ₂}` of the SE kernel (paper Eqn 18):
/// signal amplitude, characteristic length-scale and noise level. All three
/// are strictly positive; optimisation happens in log space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperparams {
    /// Signal standard deviation θ₀.
    pub theta0: f64,
    /// Characteristic length-scale θ₁ ("how relevant an input is",
    /// Appendix B.3).
    pub theta1: f64,
    /// Noise standard deviation θ₂.
    pub theta2: f64,
}

impl Hyperparams {
    /// Construct, validating positivity.
    ///
    /// # Panics
    /// Panics if any parameter is not strictly positive and finite.
    pub fn new(theta0: f64, theta1: f64, theta2: f64) -> Self {
        for (name, v) in [("theta0", theta0), ("theta1", theta1), ("theta2", theta2)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive and finite, got {v}");
        }
        Hyperparams { theta0, theta1, theta2 }
    }

    /// Log-space coordinates `[ln θ₀, ln θ₁, ln θ₂]` for the optimiser.
    pub fn to_log(self) -> [f64; 3] {
        [self.theta0.ln(), self.theta1.ln(), self.theta2.ln()]
    }

    /// Inverse of [`Hyperparams::to_log`], clamping to a sane range so a
    /// wild optimiser step cannot produce overflowing kernels. The bound
    /// e^±6 ≈ 403 is far beyond anything meaningful for z-normalised
    /// sensor data while still leaving the optimiser room to move.
    pub fn from_log(log: &[f64]) -> Self {
        assert_eq!(log.len(), 3, "three log-hyperparameters expected");
        let clamp = |v: f64| v.clamp(-6.0, 6.0).exp();
        Hyperparams { theta0: clamp(log[0]), theta1: clamp(log[1]), theta2: clamp(log[2]) }
    }

    /// Data-driven initialisation: θ₀ = std(y), θ₁ = median pairwise input
    /// distance, θ₂ = std(y)/10 — the standard GP folklore defaults that
    /// make the online training's cold start reasonable.
    pub fn heuristic(x: &Matrix, y: &[f64]) -> Self {
        let sd = smiler_linalg::stats::std_dev(y).max(1e-3);
        let n = x.rows();
        let mut dists = Vec::new();
        // Sample up to ~200 pairs for the median; exact for small n.
        let step = (n * n / 200).max(1);
        let mut c = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                if c % step == 0 {
                    dists.push(vector::squared_distance(x.row(i), x.row(j)).sqrt());
                }
                c += 1;
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        let median = if dists.is_empty() { 1.0 } else { dists[dists.len() / 2].max(1e-3) };
        Hyperparams::new(sd, median, sd / 10.0)
    }

    /// Covariance between two inputs (Eqn 18). `same_point` adds the noise
    /// term δ_ab θ₂².
    pub fn cov(&self, xa: &[f64], xb: &[f64], same_point: bool) -> f64 {
        let sq = vector::squared_distance(xa, xb);
        self.cov_from_sqdist(sq) + if same_point { self.theta2 * self.theta2 } else { 0.0 }
    }

    /// Noise-free covariance from a precomputed squared distance.
    pub fn cov_from_sqdist(&self, sq: f64) -> f64 {
        self.theta0 * self.theta0 * (-0.5 * sq / (self.theta1 * self.theta1)).exp()
    }

    /// Prior variance of a single observation: `c(x,x) = θ₀² + θ₂²`.
    pub fn prior_variance(&self) -> f64 {
        self.theta0 * self.theta0 + self.theta2 * self.theta2
    }
}

/// Pairwise squared-distance matrix of the rows of `x`, computed once per
/// fit and shared by the kernel and its derivatives.
pub fn squared_distances(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    squared_distances_into(x, &mut out);
    out
}

/// [`squared_distances`] into a caller-owned matrix. Only the upper
/// triangle is computed; the lower is mirrored, which is exact because
/// `squared_distance(a, b)` is bitwise-equal to `squared_distance(b, a)`
/// (see `smiler_linalg::vector`).
pub fn squared_distances_into(x: &Matrix, out: &mut Matrix) {
    let n = x.rows();
    out.reset_zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let sq = vector::squared_distance(x.row(i), x.row(j));
            out[(i, j)] = sq;
            out[(j, i)] = sq;
        }
    }
}

/// Gram matrix `C(X, X)` including the noise diagonal.
pub fn gram(sqdist: &Matrix, hyper: &Hyperparams) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    gram_into(sqdist, hyper, &mut out);
    out
}

/// [`gram`] into a caller-owned matrix. The exponential — the dominant
/// per-entry cost — is evaluated once per unordered pair and mirrored;
/// `sqdist` is symmetric (see [`squared_distances_into`]) so the mirrored
/// entry is the bitwise-same value the dense fill would produce.
pub fn gram_into(sqdist: &Matrix, hyper: &Hyperparams, out: &mut Matrix) {
    let n = sqdist.rows();
    let noise = hyper.theta2 * hyper.theta2;
    out.reset_zeros(n, n);
    for i in 0..n {
        out[(i, i)] = hyper.cov_from_sqdist(sqdist[(i, i)]) + noise;
        for j in i + 1..n {
            let c = hyper.cov_from_sqdist(sqdist[(i, j)]);
            out[(i, j)] = c;
            out[(j, i)] = c;
        }
    }
}

/// Derivatives of the Gram matrix with respect to the *log* hyperparameters
/// `s = ln θ`: `∂K/∂s₀ = 2·K_se`, `∂K/∂s₁ = K_se ∘ (‖·‖²/θ₁²)`,
/// `∂K/∂s₂ = 2θ₂²·I`.
pub fn gram_log_gradients(sqdist: &Matrix, hyper: &Hyperparams) -> [Matrix; 3] {
    let n = sqdist.rows();
    let l2 = hyper.theta1 * hyper.theta1;
    let d0 = Matrix::from_fn(n, n, |i, j| 2.0 * hyper.cov_from_sqdist(sqdist[(i, j)]));
    let d1 =
        Matrix::from_fn(n, n, |i, j| hyper.cov_from_sqdist(sqdist[(i, j)]) * sqdist[(i, j)] / l2);
    let noise2 = 2.0 * hyper.theta2 * hyper.theta2;
    let d2 = Matrix::from_fn(n, n, |i, j| if i == j { noise2 } else { 0.0 });
    [d0, d1, d2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hyper() -> Hyperparams {
        Hyperparams::new(2.0, 0.5, 0.1)
    }

    #[test]
    fn covariance_at_zero_distance() {
        let h = hyper();
        assert!((h.cov(&[1.0, 2.0], &[1.0, 2.0], false) - 4.0).abs() < 1e-12);
        assert!((h.cov(&[1.0, 2.0], &[1.0, 2.0], true) - 4.01).abs() < 1e-12);
        assert!((h.prior_variance() - 4.01).abs() < 1e-12);
    }

    #[test]
    fn covariance_decays_with_distance() {
        let h = hyper();
        let near = h.cov(&[0.0], &[0.1], false);
        let far = h.cov(&[0.0], &[2.0], false);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn log_round_trip() {
        let h = hyper();
        let back = Hyperparams::from_log(&h.to_log());
        assert!((back.theta0 - h.theta0).abs() < 1e-12);
        assert!((back.theta1 - h.theta1).abs() < 1e-12);
        assert!((back.theta2 - h.theta2).abs() < 1e-12);
    }

    #[test]
    fn from_log_clamps_extremes() {
        let h = Hyperparams::from_log(&[100.0, -100.0, 0.0]);
        assert!(h.theta0.is_finite());
        assert!(h.theta1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_non_positive() {
        Hyperparams::new(1.0, 0.0, 1.0);
    }

    #[test]
    fn gram_is_symmetric_with_noise_diagonal() {
        let x = Matrix::from_rows(3, 1, vec![0.0, 1.0, 3.0]);
        let sq = squared_distances(&x);
        let h = hyper();
        let g = gram(&sq, &h);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-14);
            }
            assert!((g[(i, i)] - h.prior_variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn log_gradients_match_finite_differences() {
        let x = Matrix::from_rows(4, 2, vec![0.0, 0.1, 1.0, -0.5, 0.3, 0.8, -1.0, 0.2]);
        let sq = squared_distances(&x);
        let h = hyper();
        let grads = gram_log_gradients(&sq, &h);
        let logs = h.to_log();
        let eps = 1e-6;
        for p in 0..3 {
            let mut lp = logs;
            lp[p] += eps;
            let gp = gram(&sq, &Hyperparams::from_log(&lp));
            let mut lm = logs;
            lm[p] -= eps;
            let gm = gram(&sq, &Hyperparams::from_log(&lm));
            for i in 0..4 {
                for j in 0..4 {
                    let fd = (gp[(i, j)] - gm[(i, j)]) / (2.0 * eps);
                    assert!(
                        (fd - grads[p][(i, j)]).abs() < 1e-6,
                        "param {p} entry ({i},{j}): fd {fd} vs analytic {}",
                        grads[p][(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn heuristic_is_positive_and_scales() {
        let x = Matrix::from_rows(3, 1, vec![0.0, 5.0, 10.0]);
        let y = [1.0, -1.0, 3.0];
        let h = Hyperparams::heuristic(&x, &y);
        assert!(h.theta0 > 0.0 && h.theta1 > 0.0 && h.theta2 > 0.0);
        assert!(h.theta1 >= 5.0, "median distance should drive θ₁, got {}", h.theta1);
    }
}
