//! Hyperparameter training: full CG optimisation and the paper's online
//! warm-start variant.
//!
//! §5.2.2: *"we only use the fixed five-step gradient descent to update the
//! hyperparameters for the subsequential predictions … the energy paid for
//! the training process in previous steps is partially preserved."* —
//! [`train_online`] starts from the previous step's Θ and runs a fixed CG
//! budget; [`train_full`] is the initial-query optimisation run to
//! (approximate) convergence.

use crate::kernel::{self, Hyperparams};
use crate::loo;
use smiler_linalg::optimize::{minimize_cg, CgOptions, Objective};
use smiler_linalg::Matrix;

/// Training configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// CG iteration budget for the initial (cold) optimisation.
    pub full_iters: usize,
    /// CG iteration budget per online update (the paper uses five).
    pub online_steps: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { full_iters: 40, online_steps: 5 }
    }
}

/// Strength of the vague log-normal hyperprior. It contributes ~0.01·s²
/// to the negated likelihood — negligible for |ln θ| of order one, but it
/// stops the optimiser from drifting to the clamp boundary when a
/// degenerate neighbourhood makes the LOO surface flat (which would
/// otherwise produce astronomically wide predictive variances).
const LOG_PRIOR_WEIGHT: f64 = 0.01;

/// Objective adapter: negated LOO likelihood over log hyperparameters,
/// plus the weak log-normal hyperprior above. A singular Gram matrix
/// scores `+∞` so the line search backs away from degenerate regions
/// instead of crashing.
///
/// `X` is fixed for the whole optimisation run, so the O(k²·d) pairwise
/// distance matrix is computed once at construction, not per line-search
/// probe, and the scratch makes each probe after the first allocation-free.
/// Line-search probes come in through [`Objective::value`], which skips all
/// gradient work — rejected probes (most of them) throw the gradient away.
struct LooObjective<'a> {
    sq: Matrix,
    y: &'a [f64],
    scratch: loo::LooScratch,
    /// Log-point and raw LOO value of the most recent *successful*
    /// value-only probe; its factorisation still lives in `scratch`. When
    /// the optimiser accepts that probe and immediately asks for its
    /// gradient, only the gradient half runs — the factorisation would be
    /// recomputed bit-for-bit. (An exact `==` on the logs gates the reuse,
    /// so a NaN or any other point safely takes the full path.)
    last_probe: Option<(Vec<f64>, f64)>,
}

impl<'a> LooObjective<'a> {
    fn new(x: &Matrix, y: &'a [f64]) -> Self {
        LooObjective {
            sq: kernel::squared_distances(x),
            y,
            scratch: loo::LooScratch::new(),
            last_probe: None,
        }
    }

    /// Hard box: outside |ln θ| ≤ 6 the parameters are clamped by
    /// `from_log`, making the likelihood flat there. Reject such trial
    /// points outright so the line search stays inside the box instead of
    /// parking on its (gradient-less) boundary.
    fn out_of_box(logs: &[f64]) -> bool {
        logs.iter().any(|s| s.abs() > 6.0)
    }

    fn prior(logs: &[f64]) -> f64 {
        logs.iter().map(|s| LOG_PRIOR_WEIGHT * s * s).sum()
    }
}

impl Objective for LooObjective<'_> {
    fn value_and_gradient(&mut self, logs: &[f64]) -> (f64, Vec<f64>) {
        if Self::out_of_box(logs) {
            return (f64::INFINITY, vec![0.0; logs.len()]);
        }
        let hyper = Hyperparams::from_log(logs);
        let evaluated = match self.last_probe.take() {
            Some((probe, value)) if probe.as_slice() == logs => {
                let grad = loo::loo_log_gradient_from_factored(&self.sq, &hyper, &mut self.scratch);
                Some((value, grad))
            }
            _ => {
                loo::loo_value_and_log_gradient_scratch(&self.sq, self.y, &hyper, &mut self.scratch)
            }
        };
        match evaluated {
            Some((value, grad)) => {
                let g =
                    grad.iter().zip(logs).map(|(g, s)| -g + 2.0 * LOG_PRIOR_WEIGHT * s).collect();
                (-value + Self::prior(logs), g)
            }
            None => (f64::INFINITY, vec![0.0; logs.len()]),
        }
    }

    fn value(&mut self, logs: &[f64]) -> f64 {
        if Self::out_of_box(logs) {
            self.last_probe = None;
            return f64::INFINITY;
        }
        let hyper = Hyperparams::from_log(logs);
        match loo::loo_value_scratch(&self.sq, self.y, &hyper, &mut self.scratch) {
            Some(value) => {
                self.last_probe = Some((logs.to_vec(), value));
                -value + Self::prior(logs)
            }
            None => {
                self.last_probe = None;
                f64::INFINITY
            }
        }
    }
}

/// Full training from a heuristic cold start (the initial query of a
/// sensor). Returns the trained hyperparameters.
pub fn train_full(x: &Matrix, y: &[f64], config: &TrainConfig) -> Hyperparams {
    let init = Hyperparams::heuristic(x, y);
    let mut f = LooObjective::new(x, y);
    let opts = CgOptions { max_iters: config.full_iters, ..Default::default() };
    let report = traced_minimize("full", &mut f, &init.to_log(), &opts);
    Hyperparams::from_log(&report.x)
}

/// Online training: warm-start from the previous step's hyperparameters and
/// spend a fixed CG budget (paper §5.2.2, "fixed steps pursuit").
pub fn train_online(
    x: &Matrix,
    y: &[f64],
    previous: Hyperparams,
    config: &TrainConfig,
) -> Hyperparams {
    let mut f = LooObjective::new(x, y);
    let opts = CgOptions::fixed_steps(config.online_steps);
    let report = traced_minimize("online", &mut f, &previous.to_log(), &opts);
    Hyperparams::from_log(&report.x)
}

/// Event payload describing one hyperparameter optimisation run.
#[derive(serde::Serialize)]
struct TrainTrace {
    /// `"full"` or `"online"`.
    mode: String,
    /// CG iterations performed.
    iterations: usize,
    /// Objective evaluations (line-search probes included).
    evaluations: usize,
    /// Final negated-LOO objective value.
    final_value: f64,
    /// LOO log-likelihood at each finite objective evaluation, in
    /// evaluation order — the optimisation trajectory.
    loo_trajectory: Vec<f64>,
}

/// Run `minimize_cg` under a `gp.train` span, recording the CG iteration
/// count and the LOO likelihood trajectory when observability is on.
fn traced_minimize(
    mode: &'static str,
    f: &mut dyn Objective,
    start: &[f64],
    opts: &CgOptions,
) -> smiler_linalg::optimize::CgReport {
    let _span = smiler_obs::span("gp.train");
    if !smiler_obs::enabled() {
        return minimize_cg(f, start, opts);
    }
    /// Records every finite objective value — value-only probes and full
    /// evaluations alike — in evaluation order, and the gradient's max-norm
    /// at the start point (the first full evaluation).
    struct Traced<'a> {
        inner: &'a mut dyn Objective,
        trajectory: &'a mut Vec<f64>,
        start_grad_norm: Option<f64>,
    }
    impl Objective for Traced<'_> {
        fn value_and_gradient(&mut self, logs: &[f64]) -> (f64, Vec<f64>) {
            let (value, grad) = self.inner.value_and_gradient(logs);
            if self.start_grad_norm.is_none() {
                self.start_grad_norm = Some(smiler_linalg::vector::max_abs(&grad));
            }
            if value.is_finite() {
                // Store the LOO log-likelihood (objective sign flipped back).
                self.trajectory.push(-value);
            }
            (value, grad)
        }
        fn value(&mut self, logs: &[f64]) -> f64 {
            let value = self.inner.value(logs);
            if value.is_finite() {
                self.trajectory.push(-value);
            }
            value
        }
    }
    let mut trajectory: Vec<f64> = Vec::new();
    let (report, start_grad_norm) = {
        let mut wrapped = Traced { inner: f, trajectory: &mut trajectory, start_grad_norm: None };
        let report = minimize_cg(&mut wrapped, start, opts);
        (report, wrapped.start_grad_norm)
    };
    smiler_obs::count("gp.cg_iters", mode, report.iterations as u64);
    smiler_obs::count("gp.train_runs", mode, 1);
    smiler_obs::count("cg.line_search_rejections", mode, report.rejections as u64);
    if mode == "online" {
        // How far from converged each warm start is (ROADMAP item 3(a)).
        if let Some(norm) = start_grad_norm {
            smiler_obs::observe("gp.warm_start_grad_norm", "", norm);
        }
    }
    smiler_obs::event(
        "gp.train",
        mode,
        &TrainTrace {
            mode: mode.to_string(),
            iterations: report.iterations,
            evaluations: report.evaluations,
            final_value: report.value,
            loo_trajectory: trajectory,
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loo::loo_log_likelihood;
    use rand::Rng;
    use smiler_linalg::rng as srng;

    fn noisy_sine(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = srng::seeded(seed);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.35 + 0.05 * rng.gen::<f64>()).collect();
        let y: Vec<f64> =
            xs.iter().map(|x| (0.9 * x).sin() + 0.05 * srng::normal(&mut rng)).collect();
        (Matrix::from_rows(n, 1, xs), y)
    }

    #[test]
    fn full_training_improves_over_heuristic() {
        let (x, y) = noisy_sine(16, 1);
        let init = Hyperparams::heuristic(&x, &y);
        let trained = train_full(&x, &y, &TrainConfig::default());
        let before = loo_log_likelihood(&x, &y, &init).unwrap();
        let after = loo_log_likelihood(&x, &y, &trained).unwrap();
        assert!(after >= before, "training must not hurt: {before} → {after}");
    }

    #[test]
    fn online_training_improves_or_holds() {
        let (x, y) = noisy_sine(16, 2);
        let prev = Hyperparams::new(1.0, 1.0, 0.3);
        let updated = train_online(&x, &y, prev, &TrainConfig::default());
        let before = loo_log_likelihood(&x, &y, &prev).unwrap();
        let after = loo_log_likelihood(&x, &y, &updated).unwrap();
        assert!(after >= before - 1e-9, "online step regressed: {before} → {after}");
    }

    #[test]
    fn online_tracks_slow_drift() {
        // The data-generating process drifts; warm-started online training
        // must follow. Compare against *not* retraining at all.
        let config = TrainConfig::default();
        let (x0, y0) = noisy_sine(16, 3);
        let mut theta = train_full(&x0, &y0, &config);
        let frozen = theta;
        let mut online_wins = 0;
        for step in 1..6 {
            // Drifting amplitude.
            let mut rng = srng::seeded(100 + step);
            let scale = 1.0 + 0.4 * step as f64;
            let xs: Vec<f64> = (0..16).map(|i| i as f64 * 0.35).collect();
            let y: Vec<f64> = xs
                .iter()
                .map(|x| scale * (0.9 * x).sin() + 0.05 * srng::normal(&mut rng))
                .collect();
            let x = Matrix::from_rows(16, 1, xs);
            theta = train_online(&x, &y, theta, &config);
            let l_online = loo_log_likelihood(&x, &y, &theta).unwrap();
            let l_frozen = loo_log_likelihood(&x, &y, &frozen).unwrap();
            if l_online > l_frozen {
                online_wins += 1;
            }
        }
        assert!(online_wins >= 3, "online training should usually beat frozen Θ");
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = noisy_sine(12, 4);
        let a = train_full(&x, &y, &TrainConfig::default());
        let b = train_full(&x, &y, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn online_budget_is_cheap() {
        // The online path must evaluate the objective far fewer times than
        // the full path — the whole point of §5.2.2. Count evaluations via
        // a wrapper.
        let (x, y) = noisy_sine(16, 5);
        let count_evals = |iters: usize, warm: Hyperparams| {
            let mut evals = 0usize;
            let mut f = |logs: &[f64]| {
                evals += 1;
                let h = Hyperparams::from_log(logs);
                match loo::loo_value_and_log_gradient(&x, &y, &h) {
                    Some((v, g)) => (-v, g.iter().map(|gi| -gi).collect()),
                    None => (f64::INFINITY, vec![0.0; 3]),
                }
            };
            let opts = CgOptions::fixed_steps(iters);
            minimize_cg(&mut f, &warm.to_log(), &opts);
            evals
        };
        let warm = train_full(&x, &y, &TrainConfig::default());
        let online = count_evals(5, warm);
        let full = count_evals(40, Hyperparams::heuristic(&x, &y));
        assert!(online < full, "online {online} evals vs full {full}");
    }
}
