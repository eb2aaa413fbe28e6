//! Nonlinear conjugate-gradient minimisation.
//!
//! The paper trains GP hyperparameters by maximising the leave-one-out log
//! likelihood "with the Conjugate Gradient (CG) optimization" (§5.2.2), and
//! in continuous mode runs a *fixed* small number of CG steps from a warm
//! start. This module provides exactly that: Polak–Ribière+ nonlinear CG
//! with a backtracking Armijo line search and a configurable step budget.
//!
//! Conventions: the optimiser *minimises*; callers maximising a likelihood
//! pass its negation. Parameters live in an unconstrained space — the GP
//! crate optimises log-hyperparameters to keep them positive.

use crate::vector;

/// An objective function with analytic gradient.
pub trait Objective {
    /// Value and gradient at `x`. The gradient slice has `x.len()` entries.
    fn value_and_gradient(&mut self, x: &[f64]) -> (f64, Vec<f64>);

    /// Value alone, for line-search probes whose gradient would be thrown
    /// away (only the *accepted* trial's gradient feeds the CG update).
    /// Must return exactly `value_and_gradient(x).0` — the default does
    /// literally that; implementors override it when the gradient is the
    /// expensive part (the GP LOO objective skips a dense matrix product).
    fn value(&mut self, x: &[f64]) -> f64 {
        self.value_and_gradient(x).0
    }
}

impl<F> Objective for F
where
    F: FnMut(&[f64]) -> (f64, Vec<f64>),
{
    fn value_and_gradient(&mut self, x: &[f64]) -> (f64, Vec<f64>) {
        self(x)
    }
}

/// Options controlling [`minimize_cg`].
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Maximum number of CG iterations (each may take several function
    /// evaluations during the line search).
    pub max_iters: usize,
    /// Stop when the gradient infinity-norm drops below this.
    pub gradient_tolerance: f64,
    /// Stop when the objective improves by less than this between iterations.
    pub value_tolerance: f64,
}

/// Initial trial step of the line search.
const INITIAL_STEP: f64 = 1.0;
/// Armijo sufficient-decrease constant.
const ARMIJO_C: f64 = 1e-4;
/// Backtracking shrink factor.
const BACKTRACK: f64 = 0.5;
/// Maximum backtracking steps per line search.
const MAX_LINE_SEARCH: usize = 30;

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { max_iters: 100, gradient_tolerance: 1e-6, value_tolerance: 1e-10 }
    }
}

impl CgOptions {
    /// Options for the paper's online mode: a fixed budget of `steps` CG
    /// iterations from a warm start (§5.2.2 uses five).
    pub fn fixed_steps(steps: usize) -> Self {
        CgOptions { max_iters: steps, gradient_tolerance: 0.0, value_tolerance: 0.0 }
    }
}

/// Why the optimiser stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Gradient norm below tolerance.
    GradientConverged,
    /// Objective improvement below tolerance.
    ValueConverged,
    /// Iteration budget exhausted (expected in online mode).
    MaxIterations,
    /// Line search could not find a decreasing step.
    LineSearchFailed,
}

/// Result of a CG run.
#[derive(Debug, Clone)]
pub struct CgReport {
    /// Minimising point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Total objective evaluations.
    pub evaluations: usize,
    /// Line-search probes rejected (failed the Armijo test or were not
    /// finite).
    pub rejections: usize,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Minimise `f` starting from `x0` with Polak–Ribière+ nonlinear CG.
pub fn minimize_cg(f: &mut dyn Objective, x0: &[f64], opts: &CgOptions) -> CgReport {
    let n = x0.len();
    let mut x = x0.to_vec();
    let (mut fx, mut grad) = f.value_and_gradient(&x);
    let mut evaluations = 1;
    let mut rejections = 0;
    let mut direction: Vec<f64> = grad.iter().map(|g| -g).collect();
    let mut iterations = 0;
    let mut stop = StopReason::MaxIterations;

    while iterations < opts.max_iters {
        if vector::max_abs(&grad) < opts.gradient_tolerance {
            stop = StopReason::GradientConverged;
            break;
        }
        // Ensure descent: if the CG direction has lost descent, restart with
        // steepest descent (standard PR+ safeguard).
        let mut dir_dot_grad = vector::dot(&direction, &grad);
        if dir_dot_grad >= 0.0 {
            direction = grad.iter().map(|g| -g).collect();
            dir_dot_grad = vector::dot(&direction, &grad);
            if dir_dot_grad >= 0.0 {
                // Gradient is exactly zero.
                stop = StopReason::GradientConverged;
                break;
            }
        }

        // Backtracking Armijo line search along `direction`. Probes are
        // value-only — most get rejected and their gradients would be
        // discarded — and the accepted point is then re-evaluated with its
        // gradient. The objective is a deterministic function, so the
        // accept/reject sequence and every accepted iterate are identical
        // to evaluating the full gradient at every probe.
        let mut step = INITIAL_STEP;
        let mut accepted = None;
        for _ in 0..MAX_LINE_SEARCH {
            let mut trial = x.clone();
            vector::axpy(step, &direction, &mut trial);
            let ft = f.value(&trial);
            evaluations += 1;
            if ft.is_finite() && ft <= fx + ARMIJO_C * step * dir_dot_grad {
                accepted = Some(trial);
                break;
            }
            rejections += 1;
            step *= BACKTRACK;
        }
        let Some(new_x) = accepted else {
            stop = StopReason::LineSearchFailed;
            break;
        };
        let (new_f, new_grad) = f.value_and_gradient(&new_x);
        evaluations += 1;

        // Polak–Ribière+ beta with automatic restart when beta < 0.
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..n {
            num += new_grad[i] * (new_grad[i] - grad[i]);
            den += grad[i] * grad[i];
        }
        let beta = if den > 0.0 { (num / den).max(0.0) } else { 0.0 };
        for i in 0..n {
            direction[i] = -new_grad[i] + beta * direction[i];
        }

        let improvement = fx - new_f;
        x = new_x;
        fx = new_f;
        grad = new_grad;
        iterations += 1;

        if improvement.abs() < opts.value_tolerance && iterations > 1 {
            stop = StopReason::ValueConverged;
            break;
        }
    }

    smiler_obs::count("cg.iterations", "", iterations as u64);
    smiler_obs::count("cg.evaluations", "", evaluations as u64);
    CgReport { x, value: fx, iterations, evaluations, rejections, stop }
}

/// Central finite-difference gradient, for validating analytic gradients in
/// tests.
pub fn finite_difference_gradient(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x: &[f64],
    eps: f64,
) -> Vec<f64> {
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + eps;
        let fp = f(&xp);
        xp[i] = orig - eps;
        let fm = f(&xp);
        xp[i] = orig;
        grad[i] = (fp - fm) / (2.0 * eps);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> (f64, Vec<f64>) {
        // f(x) = Σ i·(x_i - i)², minimum at x_i = i.
        let mut v = 0.0;
        let mut g = vec![0.0; x.len()];
        for (i, xi) in x.iter().enumerate() {
            let w = (i + 1) as f64;
            let d = xi - i as f64;
            v += w * d * d;
            g[i] = 2.0 * w * d;
        }
        (v, g)
    }

    #[test]
    fn minimises_quadratic() {
        let mut f = quadratic;
        let report = minimize_cg(&mut f, &[5.0, -3.0, 10.0, 0.0], &CgOptions::default());
        for (i, xi) in report.x.iter().enumerate() {
            assert!((xi - i as f64).abs() < 1e-4, "x[{i}]={xi}");
        }
        assert!(report.value < 1e-8);
    }

    #[test]
    fn minimises_rosenbrock() {
        let mut f = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            let v = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
            let g = vec![-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)];
            (v, g)
        };
        let report = minimize_cg(
            &mut f,
            &[-1.2, 1.0],
            &CgOptions { max_iters: 5000, value_tolerance: 1e-14, ..Default::default() },
        );
        assert!(report.value < 1e-3, "value = {}", report.value);
    }

    #[test]
    fn fixed_steps_respects_budget() {
        let mut f = quadratic;
        let report = minimize_cg(&mut f, &[100.0, 100.0], &CgOptions::fixed_steps(3));
        assert!(report.iterations <= 3);
        // Either the budget ran out, or the quadratic was solved exactly
        // within it — both respect the fixed-step contract.
        assert!(matches!(report.stop, StopReason::MaxIterations | StopReason::GradientConverged));
        // It must still have made progress.
        assert!(report.value < quadratic(&[100.0, 100.0]).0);
    }

    #[test]
    fn stops_at_minimum_immediately() {
        let mut f = quadratic;
        let report = minimize_cg(&mut f, &[0.0, 1.0], &CgOptions::default());
        assert_eq!(report.stop, StopReason::GradientConverged);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn finite_difference_matches_analytic() {
        let x = [0.3, -1.7, 2.2];
        let fd = finite_difference_gradient(&mut |x| quadratic(x).0, &x, 1e-6);
        let (_, g) = quadratic(&x);
        for (a, b) in fd.iter().zip(&g) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn warm_start_beats_cold_start_under_budget() {
        // Mirrors the paper's online-training claim: one step from a warm
        // start reaches a better value than the same budget from far away.
        let mut f = quadratic;
        let cold = minimize_cg(&mut f, &[50.0, 50.0], &CgOptions::fixed_steps(1));
        let warm = minimize_cg(&mut f, &[0.1, 1.1], &CgOptions::fixed_steps(1));
        assert!(warm.value < cold.value, "warm {} vs cold {}", warm.value, cold.value);
    }
}
