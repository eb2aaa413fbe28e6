//! The auto-tuned ensemble matrix λ (paper §3.2.2, §5.1).
//!
//! A sensor's predictor is a mixture over an `m × n` matrix of abstract
//! predictors `f_{i,j}`, one per `(kᵢ ∈ EKV, dⱼ ∈ ELV)` pair (Eqn 2–3).
//! After each true value arrives, every awake cell is scored by its
//! Gaussian likelihood (Eqn 6–7), weights are bumped by the normalised
//! likelihoods (Eqn 8) and renormalised (Eqn 9) — an exponential smoothing
//! of each cell's posterior probability. Cells whose weight sinks below
//! `η = 1/(2nm)` are put to *sleep* (§5.1.2) to save computation; sleep
//! spans double for chronic under-performers and halve while a cell stays
//! awake.

/// Ensemble operating mode — the Fig 11 ablation axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EnsembleMode {
    /// Full SMiLer: ensemble + self-adaptive weights + sleep/recovery.
    Full,
    /// SMiLerNS: ensemble with *fixed uniform* weights (no self-adaptive
    /// tuning, no sleeping).
    NoSelfAdaptive,
}

/// Configuration of the ensemble matrix.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EnsembleConfig {
    /// Ensemble kNN Vector (paper default {8, 16, 32}).
    pub ekv: Vec<usize>,
    /// Ensemble Length Vector (paper default {32, 64, 96}).
    pub elv: Vec<usize>,
    /// Operating mode.
    pub mode: EnsembleMode,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig { ekv: vec![8, 16, 32], elv: vec![32, 64, 96], mode: EnsembleMode::Full }
    }
}

impl EnsembleConfig {
    /// SMiLerNE: a single predictor (k = 32, d = 64 in the paper's Fig 11).
    pub fn single(k: usize, d: usize) -> Self {
        EnsembleConfig { ekv: vec![k], elv: vec![d], mode: EnsembleMode::Full }
    }

    /// Number of cells `m·n`.
    pub fn cells(&self) -> usize {
        self.ekv.len() * self.elv.len()
    }

    /// The `(k, d)` of a flat cell index (row-major over `ekv × elv`).
    pub fn cell(&self, idx: usize) -> (usize, usize) {
        let n = self.elv.len();
        (self.ekv[idx / n], self.elv[idx % n])
    }
}

/// Adaptive state of an [`EnsembleMatrix`]: the weights and per-cell sleep
/// bookkeeping `(remaining, counter ς, just_recovered)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleState {
    /// Cell weights (0 for sleeping cells).
    pub lambda: Vec<f64>,
    /// Per-cell `(remaining, ς, just_recovered)`.
    pub sleep: Vec<(usize, usize, bool)>,
}

/// Per-cell sleep bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct SleepState {
    /// Steps left to sleep; 0 = awake.
    remaining: usize,
    /// The sleep counter ς (doubles on immediate re-sleep, halves while
    /// awake).
    counter: usize,
    /// Whether the cell recovered on the previous update.
    just_recovered: bool,
}

/// The ensemble matrix with its adaptive weights.
#[derive(Debug, Clone)]
pub struct EnsembleMatrix {
    config: EnsembleConfig,
    /// Cell weights; awake cells sum to 1, sleeping cells hold 0.
    lambda: Vec<f64>,
    sleep: Vec<SleepState>,
}

impl EnsembleMatrix {
    /// Uniform initial weights.
    pub fn new(config: EnsembleConfig) -> Self {
        assert!(!config.ekv.is_empty() && !config.elv.is_empty(), "empty ensemble");
        let cells = config.cells();
        EnsembleMatrix {
            config,
            lambda: vec![1.0 / cells as f64; cells],
            sleep: vec![SleepState { remaining: 0, counter: 1, just_recovered: false }; cells],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// The sleep threshold `η = 1/(2nm)` (§5.1.2).
    pub fn eta(&self) -> f64 {
        1.0 / (2.0 * self.config.cells() as f64)
    }

    /// Current weight of a cell (0 while sleeping).
    pub fn weight(&self, idx: usize) -> f64 {
        self.lambda[idx]
    }

    /// Whether the cell participates this step.
    pub fn is_awake(&self, idx: usize) -> bool {
        self.sleep[idx].remaining == 0
    }

    /// Number of awake cells.
    pub fn awake_count(&self) -> usize {
        self.sleep.iter().filter(|s| s.remaining == 0).count()
    }

    /// Fuse per-cell predictions into the ensemble's `N(u, σ²)` (Eqn 3),
    /// moment-matching the Gaussian mixture. Cells may be `None` (asleep or
    /// failed); returns `None` if no weighted prediction exists.
    pub fn fuse(&self, predictions: &[Option<(f64, f64)>]) -> Option<(f64, f64)> {
        assert_eq!(predictions.len(), self.lambda.len(), "one prediction slot per cell");
        let mut wsum = 0.0;
        for (idx, p) in predictions.iter().enumerate() {
            if p.is_some() && self.is_awake(idx) {
                wsum += self.lambda[idx];
            }
        }
        if wsum <= 0.0 {
            // All weight is on failed cells: fall back to an unweighted
            // average of whatever predictions exist.
            let avail: Vec<(f64, f64)> = predictions.iter().flatten().copied().collect();
            if avail.is_empty() {
                return None;
            }
            let w = 1.0 / avail.len() as f64;
            let mean: f64 = avail.iter().map(|(u, _)| w * u).sum();
            let var: f64 = avail.iter().map(|(u, v)| w * (v + u * u)).sum::<f64>() - mean * mean;
            return Some((mean, var.max(1e-9)));
        }
        let mut mean = 0.0;
        for (idx, p) in predictions.iter().enumerate() {
            if let Some((u, _)) = p {
                if self.is_awake(idx) {
                    mean += self.lambda[idx] / wsum * u;
                }
            }
        }
        let mut var = 0.0;
        for (idx, p) in predictions.iter().enumerate() {
            if let Some((u, v)) = p {
                if self.is_awake(idx) {
                    let w = self.lambda[idx] / wsum;
                    var += w * (v + (u - mean) * (u - mean));
                }
            }
        }
        Some((mean, var.max(1e-9)))
    }

    /// Score the step's predictions against the realised value and update
    /// weights (Eqns 6–9), then run the sleep/recovery schedule (§5.1.2).
    pub fn update(&mut self, truth: f64, predictions: &[Option<(f64, f64)>]) {
        assert_eq!(predictions.len(), self.lambda.len(), "one prediction slot per cell");
        if self.config.mode == EnsembleMode::NoSelfAdaptive {
            return;
        }

        // Eqn 6–7: likelihood of each awake cell's prediction.
        let mut likelihood = vec![0.0; self.lambda.len()];
        let mut lsum = 0.0;
        for (idx, p) in predictions.iter().enumerate() {
            if let Some((u, v)) = p {
                if self.is_awake(idx) {
                    let l = smiler_linalg::stats::gaussian_pdf(truth, *u, *v);
                    likelihood[idx] = l;
                    lsum += l;
                }
            }
        }
        // Eqn 8–9: bump by normalised likelihood, renormalise.
        if lsum > 0.0 {
            for (idx, l) in likelihood.iter().enumerate() {
                if self.is_awake(idx) {
                    self.lambda[idx] += l / lsum;
                }
            }
        }
        self.normalize_awake();

        // Sleep/recovery schedule.
        let eta = self.eta();

        // 1. Tick sleepers; collect recoveries.
        let mut recovered = Vec::new();
        for (idx, s) in self.sleep.iter_mut().enumerate() {
            if s.remaining > 0 {
                s.remaining -= 1;
                if s.remaining == 0 {
                    recovered.push(idx);
                }
            }
        }
        // 2. Recovered cells re-enter at weight η: assign η/(1−κη) then
        //    renormalise (the paper's bookkeeping, §5.1.2).
        if !recovered.is_empty() {
            let kappa = recovered.len() as f64;
            let w = eta / (1.0 - kappa * eta);
            for &idx in &recovered {
                self.lambda[idx] = w;
                self.sleep[idx].just_recovered = true;
                if smiler_obs::enabled() {
                    let (k, d) = self.config.cell(idx);
                    smiler_obs::count("ensemble.wakes", "", 1);
                    smiler_obs::event(
                        "ensemble.wake",
                        &format!("cell={idx}"),
                        &CellTransition { cell: idx, k, d, counter: self.sleep[idx].counter },
                    );
                }
            }
            self.normalize_awake();
        }

        // 3. Put under-performers to sleep — but never the last awake cell.
        let mut sleepers = Vec::new();
        for idx in 0..self.lambda.len() {
            if self.is_awake(idx) && self.lambda[idx] < eta {
                sleepers.push(idx);
            }
        }
        if sleepers.len() >= self.awake_count() {
            // Keep the single best of the would-be sleepers awake.
            let best = *sleepers
                .iter()
                .max_by(|&&a, &&b| {
                    self.lambda[a].partial_cmp(&self.lambda[b]).expect("weights are finite")
                })
                .expect("non-empty");
            sleepers.retain(|&i| i != best);
        }
        for idx in 0..self.lambda.len() {
            if !self.is_awake(idx) {
                continue;
            }
            // Cells that recovered *during this update* were not scored yet;
            // their first real test is the next update, so the
            // double-on-immediate-resleep flag must survive until then.
            if recovered.contains(&idx) {
                continue;
            }
            let s = &mut self.sleep[idx];
            if sleepers.contains(&idx) {
                if s.just_recovered {
                    // Slept again right after recovery: double ς.
                    s.counter *= 2;
                }
                s.remaining = s.counter;
                s.just_recovered = false;
                self.lambda[idx] = 0.0;
                if smiler_obs::enabled() {
                    let (k, d) = self.config.cell(idx);
                    let counter = self.sleep[idx].counter;
                    smiler_obs::count("ensemble.sleeps", "", 1);
                    smiler_obs::event(
                        "ensemble.sleep",
                        &format!("cell={idx}"),
                        &CellTransition { cell: idx, k, d, counter },
                    );
                }
            } else {
                // Survived a scored step awake: halve ς towards 1.
                s.counter = (s.counter / 2).max(1);
                s.just_recovered = false;
            }
        }
        self.normalize_awake();
        if smiler_obs::enabled() {
            smiler_obs::gauge_set("ensemble.awake_cells", "", self.awake_count() as f64);
            smiler_obs::event(
                "ensemble.lambda",
                "",
                &LambdaSnapshot { lambda: self.lambda.clone(), awake: self.awake_count() },
            );
        }
    }

    /// Regime reset: a declared changepoint means the accumulated weights
    /// and sleep schedule describe the *old* regime — the cells that were
    /// right then are not the cells that are right now, and benched cells
    /// may be exactly the ones the new regime needs. Wake everyone, return
    /// λ to uniform, and forget the doubling history (ς back to 1) so the
    /// schedule relearns from scratch.
    pub fn regime_reset(&mut self) {
        let cells = self.lambda.len();
        for l in self.lambda.iter_mut() {
            *l = 1.0 / cells as f64;
        }
        for s in self.sleep.iter_mut() {
            *s = SleepState { remaining: 0, counter: 1, just_recovered: false };
        }
        if smiler_obs::enabled() {
            smiler_obs::count("regime.ensemble_resets", "", 1);
            smiler_obs::gauge_set("ensemble.awake_cells", "", cells as f64);
        }
    }

    /// Capture the adaptive state for persistence.
    pub fn snapshot(&self) -> EnsembleState {
        EnsembleState {
            lambda: self.lambda.clone(),
            sleep: self.sleep.iter().map(|s| (s.remaining, s.counter, s.just_recovered)).collect(),
        }
    }

    /// Restore a matrix from a snapshot taken with the same configuration.
    ///
    /// # Panics
    /// Panics if the snapshot's cell count does not match `config`.
    pub fn restore(config: EnsembleConfig, state: EnsembleState) -> Self {
        assert_eq!(state.lambda.len(), config.cells(), "snapshot/config cell mismatch");
        assert_eq!(state.sleep.len(), config.cells(), "snapshot/config cell mismatch");
        EnsembleMatrix {
            config,
            lambda: state.lambda,
            sleep: state
                .sleep
                .into_iter()
                .map(|(remaining, counter, just_recovered)| SleepState {
                    remaining,
                    counter: counter.max(1),
                    just_recovered,
                })
                .collect(),
        }
    }

    fn normalize_awake(&mut self) {
        let sum: f64 = self
            .lambda
            .iter()
            .zip(&self.sleep)
            .filter(|(_, s)| s.remaining == 0)
            .map(|(l, _)| *l)
            .sum();
        if sum > 0.0 {
            for (l, s) in self.lambda.iter_mut().zip(&self.sleep) {
                if s.remaining == 0 {
                    *l /= sum;
                } else {
                    *l = 0.0;
                }
            }
        } else {
            // Degenerate: reset awake cells to uniform.
            let awake = self.awake_count().max(1);
            for (l, s) in self.lambda.iter_mut().zip(&self.sleep) {
                *l = if s.remaining == 0 { 1.0 / awake as f64 } else { 0.0 };
            }
        }
    }
}

/// Event payload for a cell falling asleep or waking up.
#[derive(serde::Serialize)]
struct CellTransition {
    /// Flat cell index in the ensemble matrix.
    cell: usize,
    /// Cell's neighbour count k.
    k: usize,
    /// Cell's item-query length d.
    d: usize,
    /// Sleep counter ς after the transition.
    counter: usize,
}

/// Event payload capturing the full λ-weight vector after an update.
#[derive(serde::Serialize)]
struct LambdaSnapshot {
    /// Per-cell weights (0 for sleeping cells).
    lambda: Vec<f64>,
    /// Number of awake cells.
    awake: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_2x2() -> EnsembleMatrix {
        EnsembleMatrix::new(EnsembleConfig {
            ekv: vec![4, 8],
            elv: vec![16, 32],
            mode: EnsembleMode::Full,
        })
    }

    #[test]
    fn initial_weights_uniform() {
        let m = matrix_2x2();
        for idx in 0..4 {
            assert!((m.weight(idx) - 0.25).abs() < 1e-12);
            assert!(m.is_awake(idx));
        }
        assert_eq!(m.eta(), 1.0 / 8.0);
        assert_eq!(m.config().cell(0), (4, 16));
        assert_eq!(m.config().cell(3), (8, 32));
    }

    #[test]
    fn good_predictor_gains_weight() {
        let mut m = matrix_2x2();
        // Cell 0 predicts perfectly; others are far off.
        let preds = vec![Some((1.0, 0.1)), Some((5.0, 0.1)), Some((5.0, 0.1)), Some((5.0, 0.1))];
        for _ in 0..5 {
            m.update(1.0, &preds);
        }
        // The losers cycle through sleep/recovery (re-entering at η each
        // time), so the winner's weight oscillates between 1 and 1 − 3η;
        // it must stay the dominant cell throughout.
        assert!(m.weight(0) >= 0.6, "winner weight {}", m.weight(0));
        for idx in 1..4 {
            assert!(m.weight(idx) < m.weight(0));
        }
        let sum: f64 = (0..4).map(|i| m.weight(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights must stay normalised");
    }

    #[test]
    fn hand_computed_single_update() {
        // Two cells, equal initial weight 0.5. Likelihoods l0, l1 →
        // λ̄ᵢ = 0.5 + lᵢ/(l0+l1); λᵢ = λ̄ᵢ/Σλ̄ (Eqns 8–9).
        let mut m = EnsembleMatrix::new(EnsembleConfig {
            ekv: vec![4],
            elv: vec![8, 16],
            mode: EnsembleMode::Full,
        });
        let preds = vec![Some((0.0, 1.0)), Some((2.0, 1.0))];
        let l0 = smiler_linalg::stats::gaussian_pdf(0.0, 0.0, 1.0);
        let l1 = smiler_linalg::stats::gaussian_pdf(0.0, 2.0, 1.0);
        let b0 = 0.5 + l0 / (l0 + l1);
        let b1 = 0.5 + l1 / (l0 + l1);
        m.update(0.0, &preds);
        assert!((m.weight(0) - b0 / (b0 + b1)).abs() < 1e-12);
        assert!((m.weight(1) - b1 / (b0 + b1)).abs() < 1e-12);
    }

    #[test]
    fn fuse_weights_means_and_variances() {
        let m = EnsembleMatrix::new(EnsembleConfig {
            ekv: vec![4],
            elv: vec![8, 16],
            mode: EnsembleMode::Full,
        });
        let (mean, var) = m.fuse(&[Some((0.0, 1.0)), Some((2.0, 1.0))]).unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
        // Mixture variance: E[v] + E[(u−mean)²] = 1 + 1 = 2.
        assert!((var - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fuse_skips_missing_cells() {
        let m = matrix_2x2();
        let (mean, _) = m.fuse(&[Some((3.0, 0.5)), None, None, None]).unwrap();
        assert_eq!(mean, 3.0);
        assert!(m.fuse(&[None, None, None, None]).is_none());
    }

    #[test]
    fn bad_cell_goes_to_sleep_and_recovers() {
        let mut m = matrix_2x2();
        let preds =
            vec![Some((1.0, 0.01)), Some((50.0, 0.01)), Some((1.0, 0.01)), Some((1.0, 0.01))];
        // Repeated truth = 1.0 crushes cell 1's weight below η = 1/8.
        let mut slept = false;
        for _ in 0..10 {
            m.update(1.0, &preds);
            if !m.is_awake(1) {
                slept = true;
                break;
            }
        }
        assert!(slept, "hopeless cell must fall asleep");
        assert_eq!(m.weight(1), 0.0);
        // ς = 1 initially → it recovers after one step.
        m.update(1.0, &preds);
        assert!(m.is_awake(1), "cell must recover after its sleep span");
        assert!((m.weight(1) - m.eta()).abs() < 1e-9, "recovered weight must equal η");
    }

    #[test]
    fn chronic_sleeper_doubles_its_span() {
        let mut m = matrix_2x2();
        let preds =
            vec![Some((1.0, 0.01)), Some((50.0, 0.01)), Some((1.0, 0.01)), Some((1.0, 0.01))];
        // Drive cell 1 through repeated sleep cycles.
        let mut spans = Vec::new();
        let mut current_sleep = 0usize;
        for _ in 0..40 {
            m.update(1.0, &preds);
            if !m.is_awake(1) {
                current_sleep += 1;
            } else if current_sleep > 0 {
                spans.push(current_sleep);
                current_sleep = 0;
            }
        }
        assert!(spans.len() >= 2, "need at least two completed sleep spans: {spans:?}");
        assert!(
            spans.windows(2).any(|w| w[1] >= w[0] * 2),
            "sleep spans must grow for chronic under-performers: {spans:?}"
        );
    }

    #[test]
    fn no_self_adaptive_mode_freezes_weights() {
        let mut m = EnsembleMatrix::new(EnsembleConfig {
            ekv: vec![4, 8],
            elv: vec![16, 32],
            mode: EnsembleMode::NoSelfAdaptive,
        });
        let preds =
            vec![Some((1.0, 0.01)), Some((99.0, 0.01)), Some((99.0, 0.01)), Some((99.0, 0.01))];
        for _ in 0..10 {
            m.update(1.0, &preds);
        }
        for idx in 0..4 {
            assert!((m.weight(idx) - 0.25).abs() < 1e-12);
            assert!(m.is_awake(idx));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under arbitrary prediction/truth streams the weights stay a
            /// probability distribution over awake cells and sleeping cells
            /// stay at zero.
            #[test]
            fn weights_remain_a_distribution(
                rounds in prop::collection::vec(
                    (prop::collection::vec(prop::option::of((-10.0f64..10.0, 0.01f64..5.0)), 6),
                     -10.0f64..10.0),
                    1..40,
                ),
            ) {
                let mut m = EnsembleMatrix::new(EnsembleConfig {
                    ekv: vec![4, 8],
                    elv: vec![8, 16, 32],
                    mode: EnsembleMode::Full,
                });
                for (preds, truth) in rounds {
                    m.update(truth, &preds);
                    let mut sum = 0.0;
                    for idx in 0..6 {
                        let w = m.weight(idx);
                        prop_assert!(w.is_finite());
                        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&w));
                        if !m.is_awake(idx) {
                            prop_assert_eq!(w, 0.0);
                        }
                        sum += w;
                    }
                    prop_assert!((sum - 1.0).abs() < 1e-6, "weights sum to {}", sum);
                    prop_assert!(m.awake_count() >= 1, "at least one cell stays awake");
                }
            }

            /// Fusing any prediction set yields a finite mean and positive
            /// variance whenever any prediction exists.
            #[test]
            fn fuse_is_well_formed(
                preds in prop::collection::vec(
                    prop::option::of((-100.0f64..100.0, 0.001f64..100.0)), 4),
            ) {
                let m = matrix_2x2();
                match m.fuse(&preds) {
                    Some((mean, var)) => {
                        prop_assert!(mean.is_finite());
                        prop_assert!(var > 0.0 && var.is_finite());
                    }
                    None => prop_assert!(preds.iter().all(Option::is_none)),
                }
            }
        }
    }

    #[test]
    fn regime_reset_wakes_everyone_at_uniform() {
        let mut m = matrix_2x2();
        let preds =
            vec![Some((1.0, 0.01)), Some((50.0, 0.01)), Some((50.0, 0.01)), Some((50.0, 0.01))];
        // Skew the weights and push cells into ever-longer sleep spans.
        for _ in 0..30 {
            m.update(1.0, &preds);
        }
        assert!(m.awake_count() < 4 || m.weight(0) > 0.5, "setup must skew the matrix");
        m.regime_reset();
        for idx in 0..4 {
            assert!(m.is_awake(idx), "cell {idx} must wake");
            assert!((m.weight(idx) - 0.25).abs() < 1e-12);
        }
        let snap = m.snapshot();
        assert!(snap.sleep.iter().all(|&(rem, counter, jr)| rem == 0 && counter == 1 && !jr));
    }

    #[test]
    fn never_sleeps_everyone() {
        let mut m = EnsembleMatrix::new(EnsembleConfig {
            ekv: vec![4],
            elv: vec![16],
            mode: EnsembleMode::Full,
        });
        // A single terrible cell must stay awake regardless.
        for _ in 0..20 {
            m.update(100.0, &[Some((0.0, 0.001))]);
            assert!(m.is_awake(0));
            assert!((m.weight(0) - 1.0).abs() < 1e-9);
        }
    }
}
