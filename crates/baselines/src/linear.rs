//! Linear forecasting models trained with stochastic gradient descent.
//!
//! Four of the paper's competitors share this machinery (§6.3.1):
//!
//! * **SgdSVR** — linear ε-insensitive support vector regression, batch SGD
//!   over several epochs (Zhang 2004);
//! * **SgdRR** — linear robust regression with the Huber loss (Rousseeuw &
//!   Leroy), batch SGD;
//! * **OnlineSVR / OnlineRR** — the same losses "trained in a one-pass
//!   online fashion" (Bottou 1999): a single SGD step per arriving point.
//!
//! Each horizon gets its own weight vector (the model maps the last `d`
//! observations to the value `h` ahead). The predictive variance is the
//! running residual variance per horizon — the libSVM-style confidence
//! estimate the paper attaches to SVR outputs.

use crate::{training_pairs, SeriesPredictor};

/// Loss functions the SGD models support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// ε-insensitive (support vector regression).
    EpsilonInsensitive,
    /// Huber (robust regression).
    Huber,
}

impl Loss {
    /// Derivative of the loss with respect to the prediction residual
    /// `r = prediction − target`.
    fn dloss(&self, r: f64) -> f64 {
        match self {
            Loss::EpsilonInsensitive => {
                const EPS: f64 = 0.05;
                if r > EPS {
                    1.0
                } else if r < -EPS {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Huber => {
                const DELTA: f64 = 1.0;
                r.clamp(-DELTA, DELTA)
            }
        }
    }
}

/// Configuration shared by the SGD models.
#[derive(Debug, Clone)]
pub struct LinearConfig {
    /// Input window length `d`.
    pub window: usize,
    /// Horizons to support (1..=h_max typically).
    pub horizons: Vec<usize>,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Batch epochs (offline variants only).
    pub epochs: usize,
    /// Training-pair stride (offline variants only; bounds cost).
    pub stride: usize,
}

impl Default for LinearConfig {
    fn default() -> Self {
        LinearConfig {
            window: 32,
            horizons: (1..=30).collect(),
            learning_rate: 0.01,
            l2: 1e-5,
            epochs: 5,
            stride: 1,
        }
    }
}

/// One per-horizon linear regressor: weights + bias + residual tracker.
#[derive(Debug, Clone)]
struct HorizonModel {
    weights: Vec<f64>,
    bias: f64,
    /// Running residual moments for the variance estimate.
    resid_sum: f64,
    resid_sq_sum: f64,
    resid_n: f64,
}

impl HorizonModel {
    fn new(d: usize) -> Self {
        HorizonModel {
            weights: vec![0.0; d],
            bias: 0.0,
            resid_sum: 0.0,
            resid_sq_sum: 0.0,
            resid_n: 0.0,
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    fn sgd_step(&mut self, x: &[f64], y: f64, lr: f64, l2: f64, loss: Loss) {
        let pred = self.predict(x);
        let r = pred - y;
        let g = loss.dloss(r);
        for (w, &xi) in self.weights.iter_mut().zip(x) {
            *w -= lr * (g * xi + l2 * *w);
        }
        self.bias -= lr * g;
        // Exponentially forget old residuals so the variance tracks drift.
        let decay = 0.999;
        self.resid_sum = self.resid_sum * decay + r;
        self.resid_sq_sum = self.resid_sq_sum * decay + r * r;
        self.resid_n = self.resid_n * decay + 1.0;
    }

    fn variance(&self) -> f64 {
        if self.resid_n < 2.0 {
            return 1.0;
        }
        let mean = self.resid_sum / self.resid_n;
        (self.resid_sq_sum / self.resid_n - mean * mean).max(1e-6)
    }
}

/// The shared linear-SGD forecaster.
#[derive(Debug, Clone)]
pub struct LinearSgd {
    name: &'static str,
    online: bool,
    loss: Loss,
    config: LinearConfig,
    models: Vec<HorizonModel>,
    history: Vec<f64>,
}

impl LinearSgd {
    fn new(name: &'static str, online: bool, loss: Loss, config: LinearConfig) -> Self {
        let models = config.horizons.iter().map(|_| HorizonModel::new(config.window)).collect();
        LinearSgd { name, online, loss, config, models, history: Vec::new() }
    }

    fn horizon_index(&self, h: usize) -> usize {
        self.config
            .horizons
            .iter()
            .position(|&hh| hh == h)
            .unwrap_or_else(|| panic!("horizon {h} not configured for {}", self.name))
    }

    fn current_window(&self) -> Option<&[f64]> {
        let d = self.config.window;
        if self.history.len() < d {
            return None;
        }
        Some(&self.history[self.history.len() - d..])
    }

    /// One online update: the newest point is the realised target of the
    /// window ending `h` points earlier, for every configured horizon.
    fn online_update(&mut self) {
        let d = self.config.window;
        let n = self.history.len();
        let (lr, l2, loss) = (self.config.learning_rate, self.config.l2, self.loss);
        for (i, &h) in self.config.horizons.clone().iter().enumerate() {
            if n < d + h {
                continue;
            }
            let y = self.history[n - 1];
            let start = n - h - d;
            let x = self.history[start..start + d].to_vec();
            self.models[i].sgd_step(&x, y, lr, l2, loss);
        }
    }
}

impl SeriesPredictor for LinearSgd {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_online(&self) -> bool {
        self.online
    }

    fn train(&mut self, history: &[f64]) {
        self.history = history.to_vec();
        let (lr, l2, loss) = (self.config.learning_rate, self.config.l2, self.loss);
        if self.online {
            // One-pass initialisation over history, mirroring the paper's
            // "used the following data to sequentially update the model".
            let horizons = self.config.horizons.clone();
            for (i, &h) in horizons.iter().enumerate() {
                let (xs, ys) = training_pairs(history, self.config.window, h, 1);
                for (x, y) in xs.iter().zip(&ys) {
                    self.models[i].sgd_step(x, *y, lr, l2, loss);
                }
            }
        } else {
            let horizons = self.config.horizons.clone();
            for (i, &h) in horizons.iter().enumerate() {
                let (xs, ys) = training_pairs(history, self.config.window, h, self.config.stride);
                for _ in 0..self.config.epochs {
                    for (x, y) in xs.iter().zip(&ys) {
                        self.models[i].sgd_step(x, *y, lr, l2, loss);
                    }
                }
            }
        }
    }

    fn observe(&mut self, value: f64) {
        self.history.push(value);
        if self.online {
            self.online_update();
        }
    }

    fn predict(&mut self, h: usize) -> (f64, f64) {
        smiler_obs::count("baseline.predict", self.name(), 1);
        let i = self.horizon_index(h);
        match self.current_window() {
            Some(x) => (self.models[i].predict(x), self.models[i].variance()),
            None => (0.0, 1.0),
        }
    }
}

/// SgdSVR: batch linear ε-SVR (offline group).
pub fn sgd_svr(config: LinearConfig) -> LinearSgd {
    LinearSgd::new("SgdSVR", false, Loss::EpsilonInsensitive, config)
}

/// SgdRR: batch linear robust regression (offline group).
pub fn sgd_rr(config: LinearConfig) -> LinearSgd {
    LinearSgd::new("SgdRR", false, Loss::Huber, config)
}

/// OnlineSVR: one-pass linear ε-SVR (online group).
pub fn online_svr(config: LinearConfig) -> LinearSgd {
    LinearSgd::new("OnlineSVR", true, Loss::EpsilonInsensitive, config)
}

/// OnlineRR: one-pass linear robust regression (online group).
pub fn online_rr(config: LinearConfig) -> LinearSgd {
    LinearSgd::new("OnlineRR", true, Loss::Huber, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_series(n: usize) -> Vec<f64> {
        // Perfectly linear data: a linear model must nail it.
        (0..n).map(|i| 0.01 * i as f64).collect()
    }

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.2).sin()).collect()
    }

    fn small_config() -> LinearConfig {
        LinearConfig { window: 8, horizons: vec![1, 3], epochs: 30, ..Default::default() }
    }

    #[test]
    fn learns_linear_trend() {
        let mut m = sgd_svr(small_config());
        let data = linear_series(400);
        m.train(&data);
        let (pred, _) = m.predict(1);
        let expect = 0.01 * 400.0;
        assert!((pred - expect).abs() < 0.05, "pred {pred} vs {expect}");
    }

    #[test]
    fn huber_learns_despite_outliers() {
        let mut data = linear_series(400);
        // Inject gross outliers.
        for i in (50..400).step_by(50) {
            data[i] += 100.0;
        }
        let mut m = sgd_rr(small_config());
        m.train(&data);
        let (pred, _) = m.predict(1);
        assert!((pred - 4.0).abs() < 1.0, "robust pred {pred}");
    }

    #[test]
    fn online_variant_updates_with_observe() {
        let mut m = online_svr(small_config());
        m.train(&sine_series(50));
        let before = m.predict(1).0;
        // Feed a long stretch of constant data; predictions must drift
        // towards the constant.
        for _ in 0..600 {
            m.observe(2.0);
        }
        let after = m.predict(1).0;
        assert!((after - 2.0).abs() < (before - 2.0).abs());
    }

    #[test]
    fn offline_variant_ignores_observations_for_weights() {
        let mut m = sgd_svr(small_config());
        let data = linear_series(300);
        m.train(&data);
        let w_before = m.models[0].weights.clone();
        m.observe(1000.0);
        assert_eq!(m.models[0].weights, w_before, "offline weights must not change");
    }

    #[test]
    fn variance_reflects_fit_quality() {
        let cfg = small_config();
        let mut good = sgd_svr(cfg.clone());
        good.train(&linear_series(400));
        let mut bad = sgd_svr(cfg);
        // White-noise-like data a linear model cannot fit.
        let noisy: Vec<f64> = (0..400)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * ((i * 37 % 13) as f64))
            .collect();
        bad.train(&noisy);
        assert!(good.predict(1).1 < bad.predict(1).1);
    }

    #[test]
    #[should_panic(expected = "horizon 9 not configured")]
    fn unknown_horizon_panics() {
        let mut m = sgd_svr(small_config());
        m.train(&linear_series(100));
        m.predict(9);
    }

    #[test]
    fn short_history_predicts_prior() {
        let mut m = online_rr(small_config());
        m.train(&[1.0, 2.0]);
        assert_eq!(m.predict(1), (0.0, 1.0));
    }

    #[test]
    fn loss_derivatives() {
        assert_eq!(Loss::EpsilonInsensitive.dloss(0.01), 0.0);
        assert_eq!(Loss::EpsilonInsensitive.dloss(1.0), 1.0);
        assert_eq!(Loss::EpsilonInsensitive.dloss(-1.0), -1.0);
        assert_eq!(Loss::Huber.dloss(0.5), 0.5);
        assert_eq!(Loss::Huber.dloss(5.0), 1.0);
        assert_eq!(Loss::Huber.dloss(-5.0), -1.0);
    }
}
