//! Instantiations of the abstract semi-lazy predictor `f(·)` (paper
//! Def. 3.1): the Aggregation Regression predictor (§5.2.1) and the
//! Gaussian Process predictor with online-trained hyperparameters
//! (§5.2.2).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use smiler_gp::{train_full, train_online, Hyperparams, TrainConfig};
use smiler_linalg::{stats, Matrix};

/// The kNN data one abstract predictor consumes: neighbour segments
/// `X_{k,d}`, their `h`-step-ahead values `Y_h`, and the test input
/// `x_{0,d}` (the sensor's latest segment).
#[derive(Debug, Clone)]
pub struct KnnData {
    /// `k × d` matrix of neighbour segments.
    pub x: Matrix,
    /// The `h`-step-ahead value of each neighbour.
    pub y: Vec<f64>,
    /// The current query segment.
    pub x0: Vec<f64>,
}

impl KnnData {
    /// Number of neighbours `k`.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the kNN set is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Which instantiation of the abstract predictor a sensor uses —
/// SMiLer-AR vs SMiLer-GP in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Aggregation Regression (§5.2.1): mean/variance of the kNN labels.
    Aggregation,
    /// Gaussian Process (§5.2.2) with online LOO-CG hyperparameter
    /// training.
    GaussianProcess,
}

/// The simple aggregation predictor (paper Eqns 10–13): pseudo-mean and
/// pseudo-variance of the neighbour labels.
#[derive(Debug, Clone, Default)]
pub struct ArPredictor;

impl ArPredictor {
    /// Predict `N(ũ₀, σ̃₀²)` from the kNN labels. Returns `None` on empty
    /// kNN data.
    pub fn predict(&self, data: &KnnData) -> Option<(f64, f64)> {
        self.predict_labels(&data.y)
    }

    /// [`ArPredictor::predict`] from the labels alone — aggregation never
    /// reads the neighbour segments, so prefix-k ensemble cells can share
    /// one label vector.
    pub fn predict_labels(&self, y: &[f64]) -> Option<(f64, f64)> {
        if y.is_empty() {
            return None;
        }
        let mean = stats::mean(y);
        // Pseudo-variance floored: a degenerate neighbourhood (all labels
        // equal) still must not claim zero uncertainty.
        let var = stats::variance(y).max(1e-9);
        Some((mean, var))
    }
}

/// One GP cell of the ensemble matrix: carries its hyperparameters across
/// continuous-prediction steps so each step's training is a warm start
/// ("the energy paid for the training process in previous steps is
/// partially preserved", §5.2.2).
#[derive(Debug, Clone)]
pub struct GpCellPredictor {
    hyper: Option<Hyperparams>,
    train_config: TrainConfig,
    /// Retrain hyperparameters every `retrain_every` steps (1 = the paper's
    /// every-step online training; larger values trade accuracy for time).
    retrain_every: usize,
    steps_since_train: usize,
}

impl GpCellPredictor {
    /// New cell with the given training configuration.
    pub fn new(train_config: TrainConfig, retrain_every: usize) -> Self {
        GpCellPredictor {
            hyper: None,
            train_config,
            retrain_every: retrain_every.max(1),
            steps_since_train: 0,
        }
    }

    /// The cell's current hyperparameters, if trained.
    pub fn hyper(&self) -> Option<Hyperparams> {
        self.hyper
    }

    /// Reinstall previously trained hyperparameters (snapshot restore).
    pub fn set_hyper(&mut self, hyper: Option<Hyperparams>) {
        self.hyper = hyper;
        self.steps_since_train = 0;
    }

    /// Decide what this step's training looks like and advance the
    /// `retrain_every` bookkeeping. Splitting the (mutating, cheap)
    /// decision from the (pure, expensive) [`Self::compute_hyper`] lets
    /// independent ensemble columns run their training on worker threads
    /// while the cell state stays on the caller.
    pub fn plan_hyper(&mut self) -> HyperPlan {
        match self.hyper {
            None => {
                smiler_obs::count("gp.warm_start", "cold", 1);
                self.steps_since_train = 0;
                HyperPlan::Cold
            }
            Some(prev) => {
                self.steps_since_train += 1;
                if self.steps_since_train >= self.retrain_every {
                    smiler_obs::count("gp.warm_start", "online", 1);
                    self.steps_since_train = 0;
                    HyperPlan::Online(prev)
                } else {
                    smiler_obs::count("gp.warm_start", "hit", 1);
                    HyperPlan::Reuse(prev)
                }
            }
        }
    }

    /// The degraded-serving plan: reuse the stored hyperparameters without
    /// training and without advancing the retrain cadence. `None` when the
    /// cell has never been trained — under deadline pressure an untrained
    /// column is served by aggregation rather than paying for a cold start.
    pub fn plan_cached(&self) -> Option<HyperPlan> {
        self.hyper.map(HyperPlan::Reuse)
    }

    /// Execute a [`HyperPlan`] on the given training data. Pure: touches no
    /// cell state, so it may run on any thread.
    pub fn compute_hyper(
        plan: HyperPlan,
        x: &Matrix,
        centred_y: &[f64],
        config: &TrainConfig,
    ) -> Hyperparams {
        match plan {
            HyperPlan::Cold => train_full(x, centred_y, config),
            HyperPlan::Online(prev) => train_online(x, centred_y, prev, config),
            HyperPlan::Reuse(h) => h,
        }
    }

    /// Store the outcome of [`Self::compute_hyper`] back into the cell.
    pub fn install_hyper(&mut self, hyper: Hyperparams) {
        self.hyper = Some(hyper);
    }

    /// The cell's training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train_config
    }

    /// Steps since the last hyperparameter (re)training — the retrain
    /// cadence position. Snapshot plumbing: restoring this makes the
    /// restored cell retrain on exactly the same future step the original
    /// would have.
    pub fn steps_since_train(&self) -> usize {
        self.steps_since_train
    }

    /// Restore the retrain cadence position (snapshot plumbing). Must be
    /// called *after* [`GpCellPredictor::set_hyper`], which resets it.
    pub fn set_steps_since_train(&mut self, steps: usize) {
        self.steps_since_train = steps;
    }

    /// Regime override: make the *next* [`GpCellPredictor::plan_hyper`]
    /// call warm-start-retrain regardless of where the `retrain_every`
    /// cadence stands. After a changepoint the stored hyperparameters
    /// describe the old regime; waiting out a long cadence would serve
    /// stale lengthscales for up to `retrain_every − 1` more steps.
    pub fn force_retrain(&mut self) {
        // plan_hyper increments before comparing, so parking the counter at
        // the cadence makes the very next plan an Online retrain.
        self.steps_since_train = self.retrain_every;
    }
}

/// The outcome of [`GpCellPredictor::plan_hyper`]: what (if any) training
/// this step's hyperparameters need.
#[derive(Debug, Clone, Copy)]
pub enum HyperPlan {
    /// No previous hyperparameters: full training from a heuristic start.
    Cold,
    /// Warm-start online training from the previous step's optimum.
    Online(Hyperparams),
    /// Within the retrain cadence: reuse without training.
    Reuse(Hyperparams),
}

/// Capacity of the rolling model-quality window: enough steps to smooth
/// sensor noise, small enough that a drifting sensor shows up within a
/// minute of one-second observations.
const QUALITY_WINDOW: usize = 64;

/// Rolling one-step forecast-quality bookkeeping for a sensor: absolute
/// residuals of `h = 1` predictions scored against the observation that
/// arrives next, and whether that observation landed inside the predicted
/// 95% interval. Fixed-capacity rings — steady-state recording allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct QualityStats {
    residuals: std::collections::VecDeque<f64>,
    covered: std::collections::VecDeque<bool>,
    samples: u64,
}

impl Default for QualityStats {
    fn default() -> Self {
        QualityStats {
            residuals: std::collections::VecDeque::with_capacity(QUALITY_WINDOW),
            covered: std::collections::VecDeque::with_capacity(QUALITY_WINDOW),
            samples: 0,
        }
    }
}

impl QualityStats {
    /// Record one scored forecast: the absolute residual and whether the
    /// realised value fell inside the predicted 95% interval. Non-finite
    /// residuals are dropped (a NaN would poison the rolling mean).
    pub fn record(&mut self, residual_abs: f64, covered: bool) {
        if !residual_abs.is_finite() {
            return;
        }
        if self.residuals.len() == QUALITY_WINDOW {
            self.residuals.pop_front();
            self.covered.pop_front();
        }
        self.residuals.push_back(residual_abs);
        self.covered.push_back(covered);
        self.samples += 1;
    }

    /// The current rolling summary. Cheap (sums the ≤64-entry window).
    pub fn snapshot(&self) -> QualitySnapshot {
        let window = self.residuals.len() as u64;
        if window == 0 {
            return QualitySnapshot { samples: self.samples, ..QualitySnapshot::default() };
        }
        let mae = self.residuals.iter().sum::<f64>() / window as f64;
        let inside = self.covered.iter().filter(|&&c| c).count() as f64;
        QualitySnapshot { samples: self.samples, window, mae, coverage: inside / window as f64 }
    }
}

/// A point-in-time summary of [`QualityStats`], exposed per sensor through
/// the serving status report. All-zero until the first scored forecast.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct QualitySnapshot {
    /// Scored one-step forecasts over the sensor's lifetime.
    pub samples: u64,
    /// Scored forecasts currently in the rolling window (≤ 64).
    pub window: u64,
    /// Rolling mean absolute one-step residual (0.0 on an empty window).
    pub mae: f64,
    /// Fraction of realised values inside the predicted 95% interval
    /// (0.0 on an empty window; healthy GP sensors sit near 0.95).
    pub coverage: f64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn knn_data(labels: &[f64]) -> KnnData {
        let k = labels.len();
        let x = Matrix::from_fn(k, 4, |i, j| (i * 4 + j) as f64 * 0.1);
        KnnData { x, y: labels.to_vec(), x0: vec![0.05, 0.15, 0.25, 0.35] }
    }

    #[test]
    fn ar_matches_paper_equations() {
        let data = knn_data(&[1.0, 2.0, 3.0, 4.0]);
        let (mean, var) = ArPredictor.predict(&data).unwrap();
        assert_eq!(mean, 2.5);
        assert_eq!(var, 1.25); // population variance (Eqn 13)
    }

    #[test]
    fn ar_empty_returns_none() {
        let data = KnnData { x: Matrix::zeros(0, 4), y: vec![], x0: vec![0.0; 4] };
        assert!(ArPredictor.predict(&data).is_none());
    }

    #[test]
    fn ar_constant_labels_have_floored_variance() {
        let (_, var) = ArPredictor.predict(&knn_data(&[2.0, 2.0, 2.0])).unwrap();
        assert!(var > 0.0);
    }

    /// Drive one step of a cell the way an ensemble column does.
    fn train_step(cell: &mut GpCellPredictor, x: &Matrix, y: &[f64]) -> HyperPlan {
        let plan = cell.plan_hyper();
        let config = cell.train_config().clone();
        cell.install_hyper(GpCellPredictor::compute_hyper(plan, x, y, &config));
        plan
    }

    #[test]
    fn gp_first_call_trains_then_warm_starts() {
        let mut cell = GpCellPredictor::new(TrainConfig::default(), 1);
        assert!(cell.hyper().is_none());
        // Smooth structured neighbourhood, centred labels.
        let k = 10;
        let x = Matrix::from_fn(k, 3, |i, j| (i as f64 + j as f64) * 0.3);
        let y: Vec<f64> = (0..k).map(|i| (i as f64 * 0.3).sin()).collect();
        let mean = stats::mean(&y);
        let y: Vec<f64> = y.iter().map(|v| v - mean).collect();
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Cold));
        let h1 = cell.hyper().unwrap();
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Online(_)));
        let h2 = cell.hyper().unwrap();
        // Online step keeps hyperparameters near the previous optimum.
        assert!((h1.theta0.ln() - h2.theta0.ln()).abs() < 2.0);
    }

    #[test]
    fn gp_interpolates_structured_neighborhood() {
        // Neighbours on a sine curve: a GP under the cell's trained
        // hyperparameters must predict the test point far better than the
        // plain mean.
        let mut cell = GpCellPredictor::new(TrainConfig::default(), 1);
        let k = 12;
        let x = Matrix::from_fn(k, 1, |i, _| i as f64 * 0.4);
        let y: Vec<f64> = (0..k).map(|i| (i as f64 * 0.4).sin()).collect();
        let truth = 1.9f64.sin();
        let ar_mean = stats::mean(&y);
        let centred: Vec<f64> = y.iter().map(|v| v - ar_mean).collect();
        train_step(&mut cell, &x, &centred);
        let gp = smiler_gp::GpModel::fit(x, &centred, cell.hyper().unwrap()).unwrap();
        let gp_mean = gp.predict(&[1.9]).0 + ar_mean;
        assert!((gp_mean - truth).abs() < (ar_mean - truth).abs() / 2.0);
    }

    #[test]
    fn retrain_every_skips_training() {
        let mut cell = GpCellPredictor::new(TrainConfig::default(), 3);
        let k = 8;
        let x = Matrix::from_fn(k, 2, |i, j| (i + j) as f64 * 0.5);
        let y: Vec<f64> = (0..k).map(|i| i as f64 * 0.1 - 0.35).collect();
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Cold));
        let h1 = cell.hyper().unwrap();
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Reuse(_))); // step 1
        assert_eq!(cell.hyper().unwrap(), h1);
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Reuse(_))); // step 2
        assert_eq!(cell.hyper().unwrap(), h1);
        // Step 3: the retrain fires (the value may or may not move; the
        // counter must have reset).
        assert!(matches!(train_step(&mut cell, &x, &y), HyperPlan::Online(_)));
        assert_eq!(cell.steps_since_train, 0);
    }

    #[test]
    fn force_retrain_overrides_the_cadence() {
        let mut cell = GpCellPredictor::new(TrainConfig::default(), 8);
        let h = smiler_gp::Hyperparams::new(1.0, 1.0, 0.1);
        cell.install_hyper(h);
        // Mid-cadence the plan is Reuse...
        assert!(matches!(cell.plan_hyper(), HyperPlan::Reuse(_)));
        // ...until a regime fires, at which point the next plan retrains.
        cell.force_retrain();
        assert!(matches!(cell.plan_hyper(), HyperPlan::Online(_)));
        assert_eq!(cell.steps_since_train, 0, "retrain resets the cadence");
    }

    #[test]
    fn quality_stats_empty_snapshot_is_zero_not_nan() {
        let q = QualityStats::default();
        let s = q.snapshot();
        assert_eq!(s, QualitySnapshot::default());
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.coverage, 0.0);
    }

    #[test]
    fn quality_stats_window_rolls() {
        let mut q = QualityStats::default();
        for _ in 0..QUALITY_WINDOW {
            q.record(10.0, false);
        }
        // Overwrite the whole window with small, covered residuals.
        for _ in 0..QUALITY_WINDOW {
            q.record(1.0, true);
        }
        let s = q.snapshot();
        assert_eq!(s.samples, 2 * QUALITY_WINDOW as u64);
        assert_eq!(s.window, QUALITY_WINDOW as u64);
        assert!((s.mae - 1.0).abs() < 1e-12);
        assert_eq!(s.coverage, 1.0);
    }

    #[test]
    fn quality_stats_drops_non_finite() {
        let mut q = QualityStats::default();
        q.record(f64::NAN, true);
        q.record(f64::INFINITY, true);
        q.record(2.0, false);
        let s = q.snapshot();
        assert_eq!(s.samples, 1);
        assert_eq!(s.mae, 2.0);
        assert_eq!(s.coverage, 0.0);
    }
}
