//! Sparse Gaussian Process baselines: PSGP and VLGP.
//!
//! * **PSGP** — the Projected Sparse GP (Csató & Opper 2002; the C++ tool of
//!   Barillec et al. 2011 the paper used): all information is projected
//!   onto `m` "active points". Implemented as the projected-process / DTC
//!   approximation trained by maximising the approximate marginal
//!   likelihood.
//! * **VLGP** — Titsias' variational sparse GP (AISTATS 2009; GPy in the
//!   paper): the same inducing-point machinery trained with the variational
//!   free energy (marginal likelihood minus the `tr(K − Q)/2σ²` slack
//!   penalty).
//!
//! Both share the predictive equations
//!
//! ```text
//! A   = K_mm + σ⁻² K_mn K_nm
//! μ*  = σ⁻² k_m(x)ᵀ A⁻¹ K_mn y
//! σ*² = k(x,x) − k_m(x)ᵀ K_mm⁻¹ k_m(x) + k_m(x)ᵀ A⁻¹ k_m(x) + σ²
//! ```
//!
//! Training costs O(n·m²) per objective evaluation, which is the very
//! scaling Figure 13 demonstrates: past `m ≈ 32` the accuracy gain is
//! marginal while the training time explodes.
//!
//! One deliberate simplification, documented here and in DESIGN.md:
//! hyperparameters are trained on the 1-step-ahead targets and shared
//! across horizons (the per-horizon posterior weights are still exact for
//! each horizon). Gradients are central finite differences — with three
//! hyperparameters this costs 6 objective evaluations per CG step, well
//! within the O(n·m²) budget that dominates anyway.

#![allow(clippy::needless_range_loop)] // index loops mirror the linear-algebra notation

use crate::{training_pairs, SeriesPredictor};
use smiler_gp::kernel::Hyperparams;
use smiler_linalg::optimize::{minimize_cg, CgOptions};
use smiler_linalg::{Cholesky, Matrix};

/// Training objective selecting PSGP vs VLGP behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseObjective {
    /// DTC approximate marginal likelihood (PSGP).
    MarginalLikelihood,
    /// Variational free energy with the Titsias trace penalty (VLGP).
    VariationalFreeEnergy,
}

/// Configuration of a sparse-GP baseline.
#[derive(Debug, Clone)]
pub struct SparseGpConfig {
    /// Input window length `d`.
    pub window: usize,
    /// Horizons to fit posterior weights for.
    pub horizons: Vec<usize>,
    /// Number of active/inducing points `m`.
    pub active_points: usize,
    /// Training-pair stride (bounds `n`).
    pub stride: usize,
    /// CG iterations for hyperparameter training.
    pub train_iters: usize,
    /// PSGP or VLGP objective.
    pub objective: SparseObjective,
}

impl SparseGpConfig {
    /// The paper's PSGP defaults (32 active points, §6.3.1).
    pub fn psgp() -> Self {
        SparseGpConfig {
            window: 32,
            horizons: (1..=30).collect(),
            active_points: 32,
            stride: 1,
            train_iters: 10,
            objective: SparseObjective::MarginalLikelihood,
        }
    }

    /// The paper's VLGP defaults (32 inducing inputs).
    pub fn vlgp() -> Self {
        SparseGpConfig { objective: SparseObjective::VariationalFreeEnergy, ..Self::psgp() }
    }
}

/// Fitted state shared by predictions.
#[derive(Debug, Clone)]
struct Fitted {
    hyper: Hyperparams,
    inducing: Matrix,
    chol_kmm: Cholesky,
    chol_a: Cholesky,
    /// `σ⁻² A⁻¹ K_mn y` per horizon.
    weights: Vec<Vec<f64>>,
}

/// The sparse-GP forecaster (PSGP or VLGP depending on configuration).
#[derive(Debug, Clone)]
pub struct SparseGp {
    name: &'static str,
    config: SparseGpConfig,
    history: Vec<f64>,
    fitted: Option<Fitted>,
}

/// PSGP with the given configuration.
pub fn psgp(config: SparseGpConfig) -> SparseGp {
    SparseGp { name: "PSGP", config, history: Vec::new(), fitted: None }
}

/// VLGP with the given configuration.
pub fn vlgp(config: SparseGpConfig) -> SparseGp {
    SparseGp { name: "VLGP", config, history: Vec::new(), fitted: None }
}

/// Greedy max-min (farthest-point) selection of `m` row indices — a simple,
/// deterministic active-set choice that spreads inducing points over the
/// input manifold.
fn max_min_selection(xs: &[Vec<f64>], m: usize) -> Vec<usize> {
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let m = m.min(n);
    let mut chosen = vec![0usize];
    let mut dist: Vec<f64> =
        xs.iter().map(|x| smiler_linalg::vector::squared_distance(x, &xs[0])).collect();
    while chosen.len() < m {
        let (next, &best) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        if best <= 0.0 {
            // All remaining points duplicate chosen ones; pad round-robin.
            let fill = (0..n).find(|i| !chosen.contains(i));
            match fill {
                Some(i) => chosen.push(i),
                None => break,
            }
            continue;
        }
        chosen.push(next);
        for (i, di) in dist.iter_mut().enumerate() {
            let d = smiler_linalg::vector::squared_distance(&xs[i], &xs[next]);
            *di = di.min(d);
        }
    }
    chosen
}

/// Cross-covariance `K_nm` between data rows and inducing rows.
fn cross_cov(xs: &[Vec<f64>], inducing: &Matrix, hyper: &Hyperparams) -> Matrix {
    Matrix::from_fn(xs.len(), inducing.rows(), |i, j| hyper.cov(&xs[i], inducing.row(j), false))
}

fn inducing_gram(inducing: &Matrix, hyper: &Hyperparams) -> Matrix {
    let m = inducing.rows();
    let mut kmm = Matrix::from_fn(m, m, |i, j| hyper.cov(inducing.row(i), inducing.row(j), false));
    // Standard stabilising jitter on the inducing Gram.
    kmm.add_diagonal(1e-8 * hyper.prior_variance().max(1e-12));
    kmm
}

/// Negative objective (to minimise) at the given log-hyperparameters.
fn negative_objective(
    logs: &[f64],
    xs: &[Vec<f64>],
    y: &[f64],
    inducing: &Matrix,
    objective: SparseObjective,
) -> f64 {
    // Same hard box as smiler-gp's trainer: beyond |ln θ| = 6 the
    // parameters are clamped and the surface goes flat; reject outright.
    if logs.iter().any(|s| s.abs() > 6.0) {
        return f64::INFINITY;
    }
    let hyper = Hyperparams::from_log(logs);
    let n = xs.len();
    let m = inducing.rows();
    let noise = (hyper.theta2 * hyper.theta2).max(1e-10);
    let kmm = inducing_gram(inducing, &hyper);
    let Ok(chol_kmm) = Cholesky::decompose_with_jitter(&kmm, 1e-10, 1e-2) else {
        return f64::INFINITY;
    };
    let knm = cross_cov(xs, inducing, &hyper);
    // A = K_mm + σ⁻² K_mn K_nm.
    let mut a = knm.gram();
    a.scale(1.0 / noise);
    a.axpy(1.0, &kmm);
    let Ok(chol_a) = Cholesky::decompose_with_jitter(&a, 1e-10, 1e-2) else {
        return f64::INFINITY;
    };

    // log|Q + σ²I| = n·log σ² + log|A| − log|K_mm|.
    let logdet = n as f64 * noise.ln() + chol_a.log_determinant() - chol_kmm.log_determinant();
    // yᵀ(Q+σ²I)⁻¹y = σ⁻²‖y‖² − σ⁻⁴ yᵀK_nm A⁻¹ K_mn y   (Woodbury).
    let kmn_y = knm.matvec_t(y);
    let a_inv_kmn_y = chol_a.solve(&kmn_y);
    let yy: f64 = y.iter().map(|v| v * v).sum();
    let quad = yy / noise
        - kmn_y.iter().zip(&a_inv_kmn_y).map(|(a, b)| a * b).sum::<f64>() / (noise * noise);
    let mut nll = 0.5 * (logdet + quad + n as f64 * (2.0 * std::f64::consts::PI).ln());

    if objective == SparseObjective::VariationalFreeEnergy {
        // Titsias slack: tr(K_nn − Q_nn) / (2σ²) with
        // tr(Q_nn) = tr(K_mm⁻¹ K_mn K_nm) = Σ_i k_iᵀ K_mm⁻¹ k_i.
        let prior = hyper.theta0 * hyper.theta0;
        let mut tr_q = 0.0;
        for i in 0..n {
            tr_q += chol_kmm.quad_form(knm.row(i));
        }
        nll += (n as f64 * prior - tr_q).max(0.0) / (2.0 * noise);
        let _ = m;
    }
    nll
}

impl SeriesPredictor for SparseGp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_online(&self) -> bool {
        false
    }

    fn train(&mut self, history: &[f64]) {
        self.history = history.to_vec();
        let cfg = &self.config;
        let (xs, y1) = training_pairs(history, cfg.window, 1, cfg.stride);
        if xs.len() < cfg.active_points.max(4) {
            self.fitted = None;
            return;
        }
        // Inducing set: greedy max-min over the training inputs.
        let chosen = max_min_selection(&xs, cfg.active_points);
        let inducing = Matrix::from_fn(chosen.len(), cfg.window, |i, j| xs[chosen[i]][j]);

        // Hyperparameter training on 1-step targets with finite-difference
        // CG (see module docs).
        let x_mat = Matrix::from_fn(xs.len().min(64), cfg.window, |i, j| xs[i][j]);
        let mut init = Hyperparams::heuristic(&x_mat, &y1[..xs.len().min(64)]);
        if cfg.objective == SparseObjective::VariationalFreeEnergy {
            // The Titsias slack `tr(K−Q)/(2σ²)` is enormous at the
            // heuristic's small initial noise (the inducing set explains
            // only part of tr(K) before training), which stampedes the
            // optimiser into the pure-noise optimum. Start the noise at
            // half the signal scale — GPy's practice — so the penalty is
            // commensurate with the data-fit term.
            init = Hyperparams::new(init.theta0, init.theta1, (init.theta0 * 0.5).max(1e-3));
        }
        let objective = cfg.objective;
        let mut f = |logs: &[f64]| {
            let v = negative_objective(logs, &xs, &y1, &inducing, objective);
            let mut grad = vec![0.0; 3];
            let eps = 1e-4;
            for p in 0..3 {
                let mut lp = logs.to_vec();
                lp[p] += eps;
                let vp = negative_objective(&lp, &xs, &y1, &inducing, objective);
                lp[p] -= 2.0 * eps;
                let vm = negative_objective(&lp, &xs, &y1, &inducing, objective);
                grad[p] = (vp - vm) / (2.0 * eps);
            }
            (v, grad)
        };
        let opts = CgOptions { max_iters: cfg.train_iters, ..Default::default() };
        let report = minimize_cg(&mut f, &init.to_log(), &opts);
        let hyper = Hyperparams::from_log(&report.x);

        // Posterior weights per horizon at the trained hyperparameters.
        let noise = (hyper.theta2 * hyper.theta2).max(1e-10);
        let kmm = inducing_gram(&inducing, &hyper);
        let Ok(chol_kmm) = Cholesky::decompose_with_jitter(&kmm, 1e-10, 1e-2) else {
            self.fitted = None;
            return;
        };
        let knm = cross_cov(&xs, &inducing, &hyper);
        let mut a = knm.gram();
        a.scale(1.0 / noise);
        a.axpy(1.0, &kmm);
        let Ok(chol_a) = Cholesky::decompose_with_jitter(&a, 1e-10, 1e-2) else {
            self.fitted = None;
            return;
        };
        let mut weights = Vec::with_capacity(cfg.horizons.len());
        for &h in &cfg.horizons {
            let (xh, yh) = training_pairs(history, cfg.window, h, cfg.stride);
            let knm_h = if h == 1 { knm.clone() } else { cross_cov(&xh, &inducing, &hyper) };
            let kmn_y = knm_h.matvec_t(&yh);
            let mut w = chol_a.solve(&kmn_y);
            for wi in &mut w {
                *wi /= noise;
            }
            weights.push(w);
        }
        self.fitted = Some(Fitted { hyper, inducing, chol_kmm, chol_a, weights });
    }

    fn observe(&mut self, value: f64) {
        // Offline model: history grows but the model stays fixed (the
        // paper's "concept drift" critique of eager learners).
        self.history.push(value);
    }

    fn predict(&mut self, h: usize) -> (f64, f64) {
        smiler_obs::count("baseline.predict", self.name(), 1);
        let Some(f) = &self.fitted else {
            return (self.history.last().copied().unwrap_or(0.0), 1.0);
        };
        let d = self.config.window;
        if self.history.len() < d {
            return (self.history.last().copied().unwrap_or(0.0), 1.0);
        }
        let hi = self
            .config
            .horizons
            .iter()
            .position(|&hh| hh == h)
            .unwrap_or_else(|| panic!("horizon {h} not configured for {}", self.name));
        let x0 = &self.history[self.history.len() - d..];
        let m = f.inducing.rows();
        let mut km = Vec::with_capacity(m);
        for j in 0..m {
            km.push(f.hyper.cov(x0, f.inducing.row(j), false));
        }
        let mean: f64 = km.iter().zip(&f.weights[hi]).map(|(k, w)| k * w).sum();
        let noise = (f.hyper.theta2 * f.hyper.theta2).max(1e-10);
        let prior = f.hyper.theta0 * f.hyper.theta0;
        let var = (prior - f.chol_kmm.quad_form(&km) + f.chol_a.quad_form(&km) + noise).max(noise);
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * std::f64::consts::TAU / 48.0).sin()).collect()
    }

    fn quick_config(objective: SparseObjective) -> SparseGpConfig {
        SparseGpConfig {
            window: 8,
            horizons: vec![1, 4],
            active_points: 12,
            stride: 2,
            train_iters: 4,
            objective,
        }
    }

    #[test]
    fn psgp_learns_seasonal_pattern() {
        let data = seasonal(480);
        let mut m = psgp(quick_config(SparseObjective::MarginalLikelihood));
        m.train(&data);
        let (mean, var) = m.predict(1);
        let truth = (480.0 * std::f64::consts::TAU / 48.0).sin();
        assert!((mean - truth).abs() < 0.3, "mean {mean} vs {truth}");
        assert!(var > 0.0 && var.is_finite());
    }

    #[test]
    fn vlgp_learns_seasonal_pattern() {
        let data = seasonal(480);
        let mut m = vlgp(quick_config(SparseObjective::VariationalFreeEnergy));
        m.train(&data);
        let (mean, _) = m.predict(1);
        let truth = (480.0 * std::f64::consts::TAU / 48.0).sin();
        assert!((mean - truth).abs() < 0.3, "mean {mean} vs {truth}");
    }

    #[test]
    fn more_active_points_fit_at_least_as_well() {
        // The Fig 13 premise: accuracy saturates with m, cost grows.
        let data = seasonal(480);
        let mae = |m_points: usize| {
            let mut cfg = quick_config(SparseObjective::MarginalLikelihood);
            cfg.active_points = m_points;
            let mut model = psgp(cfg);
            m_train_and_score(&mut model, &data)
        };
        let coarse = mae(3);
        let fine = mae(24);
        assert!(fine <= coarse * 1.5, "m=24 MAE {fine} vs m=3 MAE {coarse}");
    }

    fn m_train_and_score(model: &mut SparseGp, data: &[f64]) -> f64 {
        let split = data.len() - 40;
        model.train(&data[..split]);
        let mut errs = Vec::new();
        for t in split..data.len() - 1 {
            let (mean, _) = model.predict(1);
            errs.push((mean - data[t]).abs());
            model.observe(data[t]);
        }
        smiler_linalg::stats::mean(&errs)
    }

    #[test]
    fn max_min_selection_is_spread_out() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let chosen = max_min_selection(&xs, 3);
        assert_eq!(chosen.len(), 3);
        // First point, farthest point, then the midpoint region.
        assert!(chosen.contains(&0));
        assert!(chosen.contains(&19));
    }

    #[test]
    fn max_min_handles_duplicates() {
        let xs: Vec<Vec<f64>> = vec![vec![1.0]; 5];
        let chosen = max_min_selection(&xs, 3);
        assert_eq!(chosen.len(), 3);
        let mut sorted = chosen.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "duplicates must still give distinct indices");
    }

    #[test]
    fn too_little_data_falls_back() {
        let mut m = psgp(quick_config(SparseObjective::MarginalLikelihood));
        m.train(&seasonal(10));
        let (mean, var) = m.predict(1);
        assert!(mean.is_finite() && var == 1.0);
    }

    #[test]
    fn vfe_penalty_makes_objective_larger() {
        let data = seasonal(200);
        let (xs, y) = training_pairs(&data, 8, 1, 2);
        let chosen = max_min_selection(&xs, 8);
        let inducing = Matrix::from_fn(chosen.len(), 8, |i, j| xs[chosen[i]][j]);
        let logs = Hyperparams::new(1.0, 2.0, 0.2).to_log();
        let ml = negative_objective(&logs, &xs, &y, &inducing, SparseObjective::MarginalLikelihood);
        let vfe =
            negative_objective(&logs, &xs, &y, &inducing, SparseObjective::VariationalFreeEnergy);
        assert!(vfe >= ml, "VFE {vfe} must dominate ML {ml}");
    }
}
