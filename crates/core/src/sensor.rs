//! The per-sensor SMiLer predictor: Search Step + Prediction Step (Fig. 3).
//!
//! One [`SensorPredictor`] owns the sensor's [`SmilerIndex`], an ensemble
//! matrix per horizon, and the per-cell GP hyperparameter state. Each
//! prediction step runs ONE suffix kNN search (shared by every ensemble
//! cell and horizon — the whole point of the Suffix kNN formulation), then
//! instantiates the abstract predictors on prefix-k subsets of the results.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::degrade::{
    DegradationLevel, ErrorState, PredictError, Prediction, RequestPolicy, GP_COOLDOWN_STEPS,
    GP_FAILURE_THRESHOLD,
};
use crate::ensemble::{EnsembleConfig, EnsembleMatrix};
use crate::predictor::{
    ArPredictor, GpCellPredictor, HyperPlan, KnnData, PredictorKind, QualitySnapshot, QualityStats,
};
use crate::regime::{Adaptation, Judgement, RegimeEvent};
use crate::system::SensorHealth;
use smiler_gp::{GpError, GpModel, GpScratch, Hyperparams, PrefixGp, TrainConfig};
use smiler_gpu::Device;
use smiler_index::{IndexParams, SearchError, SearchOutput, SmilerIndex, ThresholdStrategy};
use smiler_linalg::{stats, Matrix};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one SMiLer sensor predictor (paper Table 2 defaults).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SmilerConfig {
    /// Sakoe-Chiba warping width ρ.
    pub rho: usize,
    /// Window length ω.
    pub omega: usize,
    /// Ensemble configuration (EKV × ELV and mode).
    pub ensemble: EnsembleConfig,
    /// Largest horizon that will ever be requested; kNN candidates keep
    /// `h_max` labels of headroom so every neighbour is usable at every
    /// horizon.
    pub h_max: usize,
    /// GP hyperparameter training configuration.
    pub train: TrainConfig,
    /// Retrain GP hyperparameters every this many steps (1 = paper).
    pub retrain_every: usize,
    /// Filter threshold strategy of the index.
    pub threshold: ThresholdStrategy,
    /// Changepoint/outlier detection on the one-step residual stream.
    /// Disabled by default.
    pub regime: crate::regime::RegimeConfig,
    /// Robust (outlier-downweighted) GP likelihood. Disabled by default.
    pub robust: smiler_gp::RobustSpec,
}

impl Default for SmilerConfig {
    fn default() -> Self {
        SmilerConfig {
            rho: 8,
            omega: 16,
            ensemble: EnsembleConfig::default(),
            h_max: 30,
            train: TrainConfig::default(),
            retrain_every: 1,
            threshold: ThresholdStrategy::ExactKBest,
            regime: crate::regime::RegimeConfig::default(),
            robust: smiler_gp::RobustSpec::default(),
        }
    }
}

impl SmilerConfig {
    /// A small configuration for unit tests and doctests.
    pub fn small_for_tests() -> Self {
        SmilerConfig {
            rho: 3,
            omega: 4,
            ensemble: EnsembleConfig {
                ekv: vec![3, 5],
                elv: vec![8, 16],
                mode: crate::ensemble::EnsembleMode::Full,
            },
            h_max: 8,
            train: TrainConfig { full_iters: 10, online_steps: 2 },
            retrain_every: 1,
            threshold: ThresholdStrategy::ExactKBest,
            regime: crate::regime::RegimeConfig::default(),
            robust: smiler_gp::RobustSpec::default(),
        }
    }

    fn index_params(&self) -> IndexParams {
        IndexParams {
            rho: self.rho,
            omega: self.omega,
            lengths: self.ensemble.elv.clone(),
            // Zero only for an empty EKV, which `IndexParams::validate`
            // rejects at build time with a proper message.
            k_max: self.ensemble.ekv.iter().copied().max().unwrap_or_default(),
        }
    }
}

/// Per-cell predictions of one step: `None` for asleep or failed cells.
type CellPredictions = Vec<Option<(f64, f64)>>;

/// Per-cell predictor state.
#[derive(Debug, Clone)]
enum CellState {
    Ar,
    Gp(GpCellPredictor),
}

/// Ensemble + cell state for one horizon.
#[derive(Debug)]
struct HorizonState {
    ensemble: EnsembleMatrix,
    cells: Vec<CellState>,
    /// Predictions awaiting their realised value: (absolute target index,
    /// per-cell predictions) — consumed by the λ update when the value
    /// arrives.
    pending: VecDeque<(usize, CellPredictions)>,
}

/// Reusable buffers for the prediction step: GP triangular-solve scratch
/// and the per-cell centred-target vector. Lives on the predictor so the
/// steady-state predict loop performs no heap allocations in the GP math.
#[derive(Debug, Default)]
struct PredictScratch {
    gp: GpScratch,
    centred: Vec<f64>,
}

/// A fault the test harness can inject into a predictor to exercise the
/// fleet's isolation and degradation machinery.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the top of every prediction (worker-isolation tests).
    PanicOnPredict,
    /// Panic at the top of every observation.
    PanicOnObserve,
    /// Force non-finite hyperparameters into every GP column so the Gram
    /// matrix cannot be factorised (the non-PD Cholesky failure path).
    BadGram,
}

/// The per-sensor semi-lazy predictor.
#[derive(Debug)]
pub struct SensorPredictor {
    device: Arc<Device>,
    sensor_id: usize,
    config: SmilerConfig,
    kind: PredictorKind,
    index: SmilerIndex,
    /// Search result reused across horizons within one step.
    cache: Option<(usize, SearchOutput)>,
    horizons: HashMap<usize, HorizonState>,
    scratch: PredictScratch,
    /// Rolling error bookkeeping (degradation cooldown, health metrics).
    errors: ErrorState,
    /// Rolling one-step forecast quality (residual MAE, interval coverage).
    quality: QualityStats,
    /// Regime-side state and policy: detector, pending one-step forecast,
    /// outlier cleaning, bias corrector.
    adaptation: Adaptation,
    /// Whether the fleet's isolation boundary (`system::isolated`) has
    /// fenced this predictor off. Travels with the predictor through every
    /// handoff; only a rebuild from durable state clears it.
    pub(crate) health: SensorHealth,
    /// Test-harness fault injection; `None` in production.
    injected: Option<FaultKind>,
}

impl SensorPredictor {
    /// A predictor over a sensor's (normalised) history. Builds no index:
    /// the first search does ([`SmilerIndex::new`]).
    ///
    /// # Panics
    /// Panics if the history is shorter than the master query plus the
    /// horizon headroom.
    pub fn new(
        device: Arc<Device>,
        sensor_id: usize,
        history: Vec<f64>,
        config: SmilerConfig,
        kind: PredictorKind,
    ) -> Self {
        let params = config.index_params();
        let index = SmilerIndex::new(history, params).with_threshold(config.threshold);
        let adaptation = Adaptation::new(config.regime);
        SensorPredictor {
            device,
            sensor_id,
            config,
            kind,
            index,
            cache: None,
            horizons: HashMap::new(),
            scratch: PredictScratch::default(),
            errors: ErrorState::default(),
            quality: QualityStats::default(),
            adaptation,
            health: SensorHealth::Healthy,
            injected: None,
        }
    }

    /// The sensor's rolling one-step forecast-quality summary.
    pub fn quality_snapshot(&self) -> QualitySnapshot {
        self.quality.snapshot()
    }

    /// The sensor's regime-detector state (CUSUM statistics, lifetime
    /// changepoint/outlier counts). All-zero while the detector is
    /// disabled.
    pub fn regime_snapshot(&self) -> crate::regime::RegimeSnapshot {
        self.adaptation.snapshot()
    }

    /// Stand the regime detector down for at least `steps` scored
    /// residuals, voiding its accumulated statistics. The ingestion layer
    /// calls this when it fabricates values (gap fills, dropout
    /// missing-marks): residuals scored against data that never happened
    /// are transport artifacts, not evidence of a regime change. No-op
    /// while the detector is disabled.
    pub fn regime_holdoff(&mut self, steps: usize) {
        self.adaptation.holdoff(steps);
    }

    /// The sensor's rolling error state (cooldown, failure totals).
    pub fn error_state(&self) -> ErrorState {
        self.errors
    }

    /// Inject a fault for isolation/degradation tests.
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: FaultKind) {
        self.injected = Some(fault);
    }

    /// Sensor identifier.
    pub fn sensor_id(&self) -> usize {
        self.sensor_id
    }

    /// The sensor history (normalised).
    pub fn history(&self) -> &[f64] {
        self.index.series()
    }

    /// Device memory footprint of the sensor's index (Fig 12c).
    pub fn device_bytes(&self) -> usize {
        self.index.device_bytes()
    }

    /// The predictor configuration.
    pub fn config(&self) -> &SmilerConfig {
        &self.config
    }

    /// Which abstract predictor instantiates the cells.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Per-horizon adaptive state for [`crate::snapshot`], including the
    /// transient per-step state (pending predictions, retrain cadence) the
    /// durable checkpoint needs for bitwise restart continuation.
    pub(crate) fn horizon_snapshots(&self) -> Vec<crate::snapshot::HorizonSnapshot> {
        self.horizons
            .iter()
            .map(|(&h, state)| {
                let mut hypers = Vec::with_capacity(state.cells.len());
                let mut cadence = Vec::with_capacity(state.cells.len());
                for c in &state.cells {
                    match c {
                        CellState::Ar => {
                            hypers.push(None);
                            cadence.push(0);
                        }
                        CellState::Gp(cell) => {
                            hypers.push(cell.hyper());
                            cadence.push(cell.steps_since_train());
                        }
                    }
                }
                let pending = state
                    .pending
                    .iter()
                    .map(|(target, cells)| crate::snapshot::PendingPrediction {
                        target: *target,
                        cells: cells.clone(),
                    })
                    .collect();
                crate::snapshot::HorizonSnapshot {
                    horizon: h,
                    ensemble: state.ensemble.snapshot(),
                    gp_hypers: hypers,
                    pending,
                    gp_cadence: cadence,
                }
            })
            .collect()
    }

    /// Install restored adaptive state: per horizon the ensemble, GP
    /// hyperparameters, pending prediction rounds and retrain cadence, then
    /// the error counters. The cadence is installed *after*
    /// [`GpCellPredictor::set_hyper`] (which resets it), so the restored
    /// cell retrains on exactly the original schedule.
    pub(crate) fn install_state(
        &mut self,
        horizons: Vec<crate::snapshot::HorizonSnapshot>,
        errors: ErrorState,
    ) {
        for restored in horizons {
            let h = restored.horizon;
            let ensemble_config = self.config.ensemble.clone();
            let state = self.horizon_state(h);
            assert_eq!(
                restored.gp_hypers.len(),
                state.cells.len(),
                "snapshot cell count mismatch at horizon {h}"
            );
            state.ensemble = EnsembleMatrix::restore(ensemble_config, restored.ensemble);
            let mut cadence = restored.gp_cadence.into_iter();
            for (cell, hyper) in state.cells.iter_mut().zip(restored.gp_hypers) {
                let steps = cadence.next().unwrap_or(0);
                if let CellState::Gp(gp) = cell {
                    gp.set_hyper(hyper);
                    gp.set_steps_since_train(steps);
                }
            }
            state.pending = restored.pending.into_iter().map(|p| (p.target, p.cells)).collect();
        }
        self.errors = errors;
    }

    /// Candidate-end bound this sensor's searches use (`len − h_max`).
    pub fn search_max_end(&self) -> usize {
        self.index.series().len().saturating_sub(self.config.h_max)
    }

    /// Mutable access to the sensor's index (fleet-batched searching).
    pub(crate) fn index_mut(&mut self) -> &mut SmilerIndex {
        &mut self.index
    }

    /// Install an externally computed search result (from
    /// [`smiler_index::try_fleet_search`]) as this step's cached search.
    pub(crate) fn install_search(&mut self, out: SearchOutput) {
        let len = self.index.series().len();
        self.cache = Some((len, out));
    }

    /// Whether the cached search already matches the current series length
    /// (i.e. the next predict will not search again).
    pub(crate) fn has_current_search(&self) -> bool {
        matches!(&self.cache, Some((at, _)) if *at == self.index.series().len())
    }

    /// Run (or reuse) this step's suffix kNN search.
    fn try_ensure_search(&mut self) -> Result<SearchOutput, SearchError> {
        let len = self.index.series().len();
        if let Some((at, out)) = &self.cache {
            if *at == len {
                return Ok(out.clone());
            }
        }
        let max_end = len.saturating_sub(self.config.h_max);
        let out = self.index.try_search(&self.device, max_end)?;
        self.cache = Some((len, out.clone()));
        Ok(out)
    }

    fn horizon_state(&mut self, h: usize) -> &mut HorizonState {
        let config = &self.config;
        let kind = self.kind;
        self.horizons.entry(h).or_insert_with(|| {
            let ensemble = EnsembleMatrix::new(config.ensemble.clone());
            let cells = (0..config.ensemble.cells())
                .map(|_| match kind {
                    PredictorKind::Aggregation => CellState::Ar,
                    PredictorKind::GaussianProcess => CellState::Gp(GpCellPredictor::new(
                        config.train.clone(),
                        config.retrain_every,
                    )),
                })
                .collect();
            HorizonState { ensemble, cells, pending: VecDeque::new() }
        })
    }

    /// Assemble the kNN data of ensemble cell `(k, d)` at horizon `h` from
    /// the shared search output.
    fn knn_data(&self, search: &SearchOutput, k: usize, d_idx: usize, h: usize) -> KnnData {
        let d = self.config.ensemble.elv[d_idx];
        let series = self.index.series();
        let neighbors = &search.neighbors[d_idx];
        let take = k.min(neighbors.len());
        let mut rows = Vec::with_capacity(take);
        let mut y = Vec::with_capacity(take);
        for nb in &neighbors[..take] {
            let t = nb.start;
            // Labels exist by construction: t + d ≤ len − h_max ≤ len − h.
            rows.push(&series[t..t + d]);
            y.push(series[t + d - 1 + h]);
        }
        let x = Matrix::from_fn(take, d, |i, j| rows[i][j]);
        let x0 = series[series.len() - d..].to_vec();
        KnnData { x, y, x0 }
    }

    /// Predict `N(mean, variance)` for the value `h` steps past the last
    /// observation — the infallible convenience wrapper over
    /// [`SensorPredictor::try_predict`] for tests, benches and offline
    /// tools. Serving paths use the fallible API.
    ///
    /// # Panics
    /// Panics if `h` is zero or exceeds the configured `h_max`, or on any
    /// [`PredictError`].
    pub fn predict(&mut self, h: usize) -> (f64, f64) {
        assert!(h >= 1 && h <= self.config.h_max, "horizon {h} out of configured range");
        match self.try_predict(h) {
            Ok(p) => (p.mean, p.variance),
            Err(e) => panic!("sensor {}: prediction failed: {e}", self.sensor_id),
        }
    }

    /// Fallible prediction under the default [`RequestPolicy`]:
    /// bit-identical to [`SensorPredictor::predict`] on healthy data,
    /// degrading instead of panicking on poisoned data.
    pub fn try_predict(&mut self, h: usize) -> Result<Prediction, PredictError> {
        self.try_predict_with(h, &RequestPolicy::default())
    }

    /// Fallible prediction under a caller-supplied [`RequestPolicy`] — the
    /// serving path's entry point.
    ///
    /// Runs the Search Step once per time step (cached across horizons) and
    /// the Prediction Step per ensemble cell. Because a search's neighbour
    /// lists are distance-sorted, every EKV cell of a `(d, h)` column
    /// trains on a *prefix* of the same list, so the kNN data is assembled
    /// once per column at the largest awake `k` and GP cells share one
    /// hyperparameter set and one Gram factorisation ([`PrefixGp`]) instead
    /// of Σ O(k³) independent fits.
    ///
    /// Walks the degradation ladder (full ensemble → cached
    /// hyperparameters → aggregation → last-value hold) driven by the
    /// policy's deadline checkpoints and the sensor's recent error state;
    /// returns [`PredictError`] only when even the bottom rung cannot
    /// produce a forecast.
    pub fn try_predict_with(
        &mut self,
        h: usize,
        policy: &RequestPolicy,
    ) -> Result<Prediction, PredictError> {
        let result = self.predict_with_ladder(h, policy);
        // Remember the freshest one-step forecast so the next observation
        // can score it (rolling residual MAE / interval coverage). Pure
        // bookkeeping — no effect on the forecast itself.
        if h == 1 {
            if let Ok(p) = &result {
                self.adaptation.record_forecast(self.index.series().len(), p.mean, p.variance);
            }
        }
        result
    }

    /// [`Self::try_predict_with`] minus the quality bookkeeping: the
    /// degradation-ladder walk itself.
    fn predict_with_ladder(
        &mut self,
        h: usize,
        policy: &RequestPolicy,
    ) -> Result<Prediction, PredictError> {
        let started = Instant::now();
        if h < 1 || h > self.config.h_max {
            return Err(PredictError::HorizonOutOfRange { h, h_max: self.config.h_max });
        }
        if self.injected == Some(FaultKind::PanicOnPredict) {
            panic!("injected fault: sensor {} predict panicked", self.sensor_id);
        }

        // Stuck-at rung (dirty-input fix): a constant master window has no
        // structure — every DTW distance ties at zero, every GP label
        // neighbourhood is degenerate, and the jittered Cholesky fallback
        // plus the variance floor produce a meaninglessly tight envelope
        // around a value that is *by definition* suspect. Serve a typed
        // flat forecast with honest (wide) uncertainty instead.
        if let Some(stuck) = self.flat_suffix() {
            smiler_obs::count("health.flat_history", "", 1);
            smiler_obs::trace::mark_current("rung.flat_history");
            smiler_obs::trace::reason_current("flat_history");
            self.adaptation.forget_bias();
            return Ok(self.finish(
                stuck,
                1.0 + h as f64,
                DegradationLevel::LastValue,
                policy,
                started,
            ));
        }

        let mut level = policy.entry_level;
        // Error-state rung: repeated GP failures park the sensor on
        // aggregation until the cooldown drains.
        if self.errors.cooldown_remaining > 0 {
            self.errors.cooldown_remaining -= 1;
            level = level.at_least(DegradationLevel::Aggregation);
            smiler_obs::count("health.gp_cooldown", "", 1);
            smiler_obs::trace::mark_current("rung.gp_cooldown");
            smiler_obs::trace::reason_current("gp_cooldown");
        }
        // Entry checkpoint: a budget that is already gone buys only the
        // last-value hold.
        if let Some(deadline) = policy.deadline {
            if started.elapsed() >= deadline {
                level = DegradationLevel::LastValue;
                smiler_obs::trace::mark_current("rung.deadline_entry");
                smiler_obs::trace::reason_current("deadline_exhausted_at_entry");
            }
        }
        if level == DegradationLevel::LastValue {
            return self.finish_last_value(h, policy, started);
        }

        // Search Step — shared by every rung above the last-value hold.
        smiler_obs::trace::mark_current("search.start");
        let search = match self.try_ensure_search() {
            Ok(out) => {
                smiler_obs::trace::mark_current("search.done");
                out
            }
            Err(SearchError::NonFiniteQuery { .. }) => {
                // The query suffix itself is poisoned: nothing can be
                // ranked, so nothing can be aggregated either — hold.
                self.errors.total_search_errors += 1;
                smiler_obs::count("health.search_error", "nonfinite_query", 1);
                smiler_obs::trace::mark_current("rung.search_nonfinite");
                smiler_obs::trace::reason_current("search_nonfinite_query");
                return self.finish_last_value(h, policy, started);
            }
            Err(e) => {
                self.errors.total_search_errors += 1;
                smiler_obs::count("health.search_error", "fatal", 1);
                return Err(PredictError::Search(e));
            }
        };

        // Post-search checkpoints: budget overrun → aggregation; more than
        // half the budget spent → skip hyperparameter retraining.
        if let Some(deadline) = policy.deadline {
            let elapsed = started.elapsed();
            if elapsed >= deadline {
                level = level.at_least(DegradationLevel::Aggregation);
                smiler_obs::trace::mark_current("rung.deadline_post_search");
                smiler_obs::trace::reason_current("deadline_exhausted_post_search");
            } else if elapsed * 2 >= deadline {
                level = level.at_least(DegradationLevel::CachedHyper);
                smiler_obs::trace::mark_current("rung.deadline_half_budget");
                smiler_obs::trace::reason_current("deadline_half_budget");
            }
        }

        let (fused, gp_failures) = self.predict_core(h, &search, level);
        smiler_obs::trace::mark_current("predict.done");

        // Error-state update feeding the cooldown rung.
        if gp_failures > 0 {
            self.errors.total_gp_failures += gp_failures;
            self.errors.consecutive_gp_failures += 1;
            smiler_obs::count("health.gp_failure", "", gp_failures);
            if self.errors.consecutive_gp_failures >= GP_FAILURE_THRESHOLD {
                self.errors.consecutive_gp_failures = 0;
                self.errors.cooldown_remaining = GP_COOLDOWN_STEPS;
                smiler_obs::count("health.gp_cooldown_entered", "", 1);
            }
        } else if level < DegradationLevel::Aggregation {
            self.errors.consecutive_gp_failures = 0;
        }

        match fused {
            // Post-changepoint relocation: while the kNN neighbourhood still
            // reflects the old regime, the bias corrector re-centres the
            // fused forecast.
            Some((mean, variance)) => {
                Ok(self.finish(self.adaptation.debias(mean), variance, level, policy, started))
            }
            // Every cell asleep or failed: hold the last finite value.
            None => {
                smiler_obs::trace::mark_current("rung.cells_exhausted");
                smiler_obs::trace::reason_current("cells_exhausted");
                self.finish_last_value(h, policy, started)
            }
        }
    }

    /// The stuck-at detector: `Some(value)` when the entire master query
    /// window (the longest ELV suffix) is one constant finite value.
    /// `None` on any live signal, so healthy predictions are untouched.
    fn flat_suffix(&self) -> Option<f64> {
        let d_master = self.config.ensemble.elv.iter().copied().max().unwrap_or_default();
        let series = self.index.series();
        if d_master == 0 || series.len() < d_master {
            return None;
        }
        let window = &series[series.len() - d_master..];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in window {
            if !v.is_finite() {
                return None;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (hi - lo < 1e-12).then_some(window[0])
    }

    /// The bottom rung: hold the last finite observation with a wide,
    /// horizon-scaled variance.
    fn finish_last_value(
        &self,
        h: usize,
        policy: &RequestPolicy,
        started: Instant,
    ) -> Result<Prediction, PredictError> {
        let last = self
            .index
            .series()
            .iter()
            .rev()
            .copied()
            .find(|v| v.is_finite())
            .ok_or(PredictError::NoFiniteHistory)?;
        Ok(self.finish(last, 1.0 + h as f64, DegradationLevel::LastValue, policy, started))
    }

    /// Stamp a forecast with its serving metadata and health metrics.
    fn finish(
        &self,
        mean: f64,
        variance: f64,
        level: DegradationLevel,
        policy: &RequestPolicy,
        started: Instant,
    ) -> Prediction {
        let elapsed = started.elapsed();
        let deadline_missed = match policy.deadline {
            Some(d) if elapsed > d => {
                smiler_obs::count("health.deadline_miss", "", 1);
                smiler_obs::observe(
                    "health.deadline_overrun_ms",
                    "",
                    (elapsed - d).as_secs_f64() * 1e3,
                );
                true
            }
            _ => false,
        };
        if smiler_obs::enabled() {
            smiler_obs::count("health.predictions", level.as_str(), 1);
            if level != DegradationLevel::FullEnsemble {
                smiler_obs::count("health.degraded", level.as_str(), 1);
            }
        }
        Prediction { mean, variance, level, deadline_missed, elapsed }
    }

    /// One prediction step at a fixed degradation rung (at most
    /// aggregation; the last-value hold never reaches here). Returns the
    /// fused forecast and the number of GP cell failures encountered.
    fn predict_core(
        &mut self,
        h: usize,
        search: &SearchOutput,
        level: DegradationLevel,
    ) -> (Option<(f64, f64)>, u64) {
        let n_elv = self.config.ensemble.elv.len();
        let ekv = self.config.ensemble.ekv.clone();
        let target = self.index.series().len() - 1 + h;
        let n_cells = ekv.len() * n_elv;
        let bad_gram = self.injected == Some(FaultKind::BadGram);

        let awake: Vec<bool> = {
            let state = self.horizons.get(&h);
            (0..n_cells).map(|idx| state.map_or(true, |s| s.ensemble.is_awake(idx))).collect()
        };
        // One kNN assembly per ELV column at the largest awake k; `None`
        // when the whole column is asleep.
        let col_data: Vec<Option<KnnData>> = (0..n_elv)
            .map(|d_idx| {
                let k_col = ekv
                    .iter()
                    .enumerate()
                    .filter(|&(ci, _)| awake[ci * n_elv + d_idx])
                    .map(|(_, &k)| k)
                    .max()?;
                Some(self.knn_data(search, k_col, d_idx, h))
            })
            .collect();

        let robust_spec = self.config.robust;
        let mut scratch = std::mem::take(&mut self.scratch);
        let device = Arc::clone(&self.device);
        let state = self.horizon_state(h);
        let mut predictions: Vec<Option<(f64, f64)>> = vec![None; n_cells];

        // Phase 1 (serial): per column, pick the trainer cell, snapshot its
        // training inputs and advance the retrain-cadence bookkeeping. The
        // aggregation rung trains nothing.
        let jobs: Vec<ColumnTrainJob> = if level >= DegradationLevel::Aggregation {
            Vec::new()
        } else {
            col_data
                .iter()
                .enumerate()
                .filter_map(|(d_idx, data)| {
                    let data = data.as_ref()?;
                    let (take, idx) = column_trainer(state, &ekv, n_elv, d_idx, &awake, data)?;
                    let y = &data.y[..take];
                    let y_mean = stats::mean(y);
                    let centred: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
                    // Degenerate-column guard (dirty-input fix): identical
                    // labels leave the hyperparameter objective flat and
                    // the Gram matrix rank-one — skip training and let the
                    // column serve aggregation (a flat mean with a floored
                    // variance) instead of chasing a vacuous optimum.
                    if centred.iter().all(|v| v.abs() < 1e-12) {
                        smiler_obs::count("health.degenerate_column", "", 1);
                        return None;
                    }
                    // Robust likelihood: flag outlying labels (median/MAD)
                    // so a spike is explained as noise. `None` on clean
                    // labels or when disabled — the classic path, bitwise.
                    let robust = if bad_gram {
                        None
                    } else {
                        smiler_gp::robust::noise_scales(&centred, &robust_spec)
                    };
                    let (winsorized, robust) = match robust {
                        Some(w) => {
                            if smiler_obs::enabled() {
                                smiler_obs::count(
                                    "regime.robust_downweights",
                                    "",
                                    w.outliers as u64,
                                );
                            }
                            (smiler_gp::robust::winsorize(&centred, &robust_spec), Some(w.scales))
                        }
                        None => (None, None),
                    };
                    let x = if take == data.x.rows() {
                        data.x.clone()
                    } else {
                        Matrix::from_fn(take, data.x.cols(), |i, j| data.x[(i, j)])
                    };
                    let CellState::Gp(cell) = &mut state.cells[idx] else {
                        unreachable!("trainer is a GP cell")
                    };
                    let plan = if bad_gram {
                        // Injected fault: non-finite hyperparameters make
                        // the Gram matrix unfactorisable.
                        HyperPlan::Reuse(Hyperparams {
                            theta0: f64::NAN,
                            theta1: f64::NAN,
                            theta2: f64::NAN,
                        })
                    } else if level == DegradationLevel::CachedHyper {
                        // Degraded rung: reuse without retraining;
                        // never-trained columns fall to aggregation.
                        cell.plan_cached()?
                    } else {
                        cell.plan_hyper()
                    };
                    let config = cell.train_config().clone();
                    Some(ColumnTrainJob {
                        d_idx,
                        idx,
                        x,
                        centred,
                        winsorized,
                        robust,
                        plan,
                        config,
                    })
                })
                .collect()
        };

        // Phase 2: hyperparameter training + shared-prefix factorisation —
        // pure, column-independent computations, run on the device's host
        // threads and returned in column order.
        let fits = device.host_map(jobs, run_column_train);

        // Phase 3 (serial): install the trained hyperparameters (never
        // non-finite ones — a poisoned optimum must not outlive its step),
        // then predict every awake cell from its column's shared
        // factorisation.
        let mut gp_failures = 0u64;
        let mut column_gp: Vec<Option<ColumnGpFit>> = (0..n_elv).map(|_| None).collect();
        for fit in fits {
            let CellState::Gp(cell) = &mut state.cells[fit.idx] else {
                unreachable!("trainer is a GP cell")
            };
            if fit.hyper.theta0.is_finite()
                && fit.hyper.theta1.is_finite()
                && fit.hyper.theta2.is_finite()
            {
                cell.install_hyper(fit.hyper);
            }
            let d_idx = fit.d_idx;
            column_gp[d_idx] = Some(fit);
        }
        for (d_idx, data) in col_data.iter().enumerate() {
            if let Some(data) = data {
                gp_failures += predict_column(
                    state,
                    &ekv,
                    n_elv,
                    d_idx,
                    &awake,
                    data,
                    &column_gp[d_idx],
                    &mut scratch,
                    &mut predictions,
                );
            }
        }

        let fused = state.ensemble.fuse(&predictions);
        // λ updates only score undegraded cell outputs: an aggregation-rung
        // step must not attribute AR forecasts to GP cells. Replace any
        // stale pending entry for the same target (the caller predicted
        // this horizon twice in one step).
        if level < DegradationLevel::Aggregation {
            state.pending.retain(|(t, _)| *t != target);
            state.pending.push_back((target, predictions));
        }
        self.scratch = scratch;
        (fused, gp_failures)
    }

    /// Absorb the newly observed value: judge it against the pending
    /// one-step forecast, learn from it (quality, bias, the λ update of
    /// Eqn 8–9, the changepoint response), then append what the judgement
    /// entered to the history (the index catches up at the next search).
    pub fn observe(&mut self, value: f64) {
        if self.injected == Some(FaultKind::PanicOnObserve) {
            panic!("injected fault: sensor {} observe panicked", self.sensor_id);
        }
        let judgement = self.adaptation.judge(self.index.series().len(), value);
        self.learn(&judgement);
        self.append(judgement.entered);
    }

    /// Everything an arriving value teaches, in order: forecast quality on
    /// the raw residual, the bias corrector, each horizon's λ update on the
    /// entered (cleaned) value — a spike must not mass-punish every cell
    /// for one glitch — and the changepoint response.
    fn learn(&mut self, judgement: &Judgement) {
        if let Some((mean, variance)) = judgement.scored {
            let residual = (judgement.raw - mean).abs();
            // 95% two-sided normal interval: mean ± 1.96σ.
            let covered = residual <= 1.96 * variance.max(0.0).sqrt();
            self.quality.record(residual, covered);
            if smiler_obs::enabled() {
                smiler_obs::observe("quality.residual_abs", "", residual);
                smiler_obs::count(
                    "quality.interval",
                    if covered { "covered" } else { "missed" },
                    1,
                );
            }
        }
        self.adaptation.steer_bias(judgement);
        let arriving = self.index.series().len();
        for state in self.horizons.values_mut() {
            // Drop stale entries, score the matching one. A non-finite
            // "truth" (a gap's missing-mark) scores nothing: its entry is
            // consumed without benching cells over a value that never
            // happened.
            let due = state.pending.iter().take_while(|(t, _)| *t <= arriving).count();
            for (target, preds) in state.pending.drain(..due) {
                if target == arriving && judgement.entered.is_finite() {
                    let _span = smiler_obs::span("ensemble.update");
                    state.ensemble.update(judgement.entered, &preds);
                }
            }
        }
        if let Some(RegimeEvent::Changepoint { statistic }) = judgement.event {
            self.apply_changepoint(statistic);
        }
    }

    /// The only place the index hears of a value: one history append, no
    /// device work. The window index catches up at the next search.
    fn append(&mut self, entered: f64) {
        self.index.append(entered);
        self.cache = None;
    }

    /// The regime response: a declared changepoint obsoletes everything the
    /// ensemble learned — λ weights, sleep spans, GP hyperparameters and
    /// in-flight λ updates all describe the old regime. Reset the matrix to
    /// uniform with every cell awake, force the next GP step to
    /// warm-start-retrain regardless of the `retrain_every` cadence, and
    /// drop pending λ updates (their predictions came from the old model).
    /// Also arms the bias corrector: a kNN system's neighbours stay stale
    /// until the new regime fills the history, so while it relocates, the
    /// served mean is re-centred by an integral controller over the
    /// one-step residuals.
    fn apply_changepoint(&mut self, statistic: f64) {
        self.adaptation.arm_bias();
        for state in self.horizons.values_mut() {
            state.ensemble.regime_reset();
            state.pending.clear();
            for cell in state.cells.iter_mut() {
                if let CellState::Gp(gp) = cell {
                    gp.force_retrain();
                }
            }
        }
        if smiler_obs::enabled() {
            smiler_obs::count("regime.changepoints", "", 1);
            smiler_obs::event(
                "regime.changepoint",
                &format!("sensor={}", self.sensor_id),
                &RegimeChangeEvent { sensor: self.sensor_id, statistic },
            );
        }
    }

    /// Current ensemble weights at horizon `h` (diagnostics; `None` if the
    /// horizon has not been predicted yet).
    pub fn weights(&self, h: usize) -> Option<Vec<f64>> {
        self.horizons
            .get(&h)
            .map(|s| (0..s.ensemble.config().cells()).map(|i| s.ensemble.weight(i)).collect())
    }
}

/// Event payload for a declared changepoint.
#[derive(serde::Serialize)]
struct RegimeChangeEvent {
    /// Sensor that fired.
    sensor: usize,
    /// CUSUM statistic at firing time.
    statistic: f64,
}

/// One column's hyperparameter-training inputs, snapshotted on the calling
/// thread so the expensive pure computation can run on any thread.
struct ColumnTrainJob {
    d_idx: usize,
    idx: usize,
    x: Matrix,
    centred: Vec<f64>,
    /// Outlier-clipped labels for hyperparameter training (robust path).
    winsorized: Option<Vec<f64>>,
    /// Per-label noise-variance scales (robust path); `None` = classic.
    robust: Option<Vec<f64>>,
    plan: HyperPlan,
    config: TrainConfig,
}

/// The trained hyperparameters and (for the classic path) shared-prefix
/// factorisation of one `(d, h)` ensemble column.
struct ColumnGpFit {
    d_idx: usize,
    idx: usize,
    hyper: Hyperparams,
    /// `None` on the robust path, which fits per cell with scaled noise.
    fit: Option<Result<PrefixGp, GpError>>,
    robust: Option<Vec<f64>>,
}

/// Execute one column's [`HyperPlan`] and fit the column-wide
/// [`PrefixGp`] factorisation. On the robust path the hyperparameter
/// trainer sees the winsorized labels — a spike cannot drag the LOO
/// optimum — and the factorisation is skipped: per-point noise scales
/// break the shared-prefix identity, so each cell fits independently in
/// [`predict_column`].
fn run_column_train(job: ColumnTrainJob) -> ColumnGpFit {
    let _span = smiler_obs::span("gp.predict");
    let train_y = job.winsorized.as_deref().unwrap_or(&job.centred);
    let hyper = GpCellPredictor::compute_hyper(job.plan, &job.x, train_y, &job.config);
    if job.robust.is_some() {
        return ColumnGpFit {
            d_idx: job.d_idx,
            idx: job.idx,
            hyper,
            fit: None,
            robust: job.robust,
        };
    }
    let fit = PrefixGp::fit(job.x, hyper);
    ColumnGpFit { d_idx: job.d_idx, idx: job.idx, hyper, fit: Some(fit), robust: None }
}

/// The trainer of a `(d, h)` column: the awake GP cell with the most
/// neighbours, whose hyperparameters and factorisation are shared
/// column-wide. Returns `(take, cell idx)`, or `None` when no awake GP
/// cell has a trainable (k ≥ 3) neighbourhood.
fn column_trainer(
    state: &HorizonState,
    ekv: &[usize],
    n_elv: usize,
    d_idx: usize,
    awake: &[bool],
    data: &KnnData,
) -> Option<(usize, usize)> {
    let mut trainer: Option<(usize, usize)> = None; // (take, cell idx)
    for (ci, &k) in ekv.iter().enumerate() {
        let idx = ci * n_elv + d_idx;
        let take = k.min(data.len());
        if awake[idx]
            && take >= 3
            && matches!(state.cells[idx], CellState::Gp(_))
            && trainer.map_or(true, |(t, _)| take > t)
        {
            trainer = Some((take, idx));
        }
    }
    trainer
}

/// Predict every awake cell of one `(d, h)` ensemble column from the
/// column's shared kNN data (`data` holds the largest awake cell's
/// neighbours; smaller cells read prefixes of it).
///
/// GP cells share one hyperparameter set — trained through the largest
/// cell's warm-start schedule, see [`run_column_train`] — and one Gram
/// factorisation whose leading principal blocks serve every prefix
/// length. When the factorisation needed jitter the prefix identity no
/// longer holds and each cell falls back to an independent fit with the
/// shared hyperparameters.
///
/// Returns the number of cells whose GP posterior failed outright (the
/// cell served an aggregation fallback instead) — the health signal that
/// feeds the sensor's cooldown bookkeeping.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the cell grid
fn predict_column(
    state: &HorizonState,
    ekv: &[usize],
    n_elv: usize,
    d_idx: usize,
    awake: &[bool],
    data: &KnnData,
    column_gp: &Option<ColumnGpFit>,
    scratch: &mut PredictScratch,
    predictions: &mut [Option<(f64, f64)>],
) -> u64 {
    let _gp_span = column_gp.is_some().then(|| smiler_obs::span("gp.predict"));
    let mut gp_failures = 0u64;
    for (ci, &k) in ekv.iter().enumerate() {
        let idx = ci * n_elv + d_idx;
        if !awake[idx] {
            continue;
        }
        let take = k.min(data.len());
        let y = &data.y[..take];
        predictions[idx] = match (&state.cells[idx], column_gp) {
            (CellState::Ar, _) => ArPredictor.predict_labels(y),
            // Degenerate neighbourhoods (k < 3) cannot support GP
            // hyperparameters; aggregate instead.
            (CellState::Gp(_), _) if take < 3 => ArPredictor.predict_labels(y),
            (CellState::Gp(_), Some(model)) => {
                let y_mean = stats::mean(y);
                scratch.centred.clear();
                scratch.centred.extend(y.iter().map(|v| v - y_mean));
                let posterior = match (&model.fit, &model.robust) {
                    // Robust path: per-cell fit with the flagged labels'
                    // noise inflated. The trainer's scales are indexed by
                    // neighbour rank, which every prefix shares.
                    (_, Some(scales)) => {
                        let sub = Matrix::from_fn(take, data.x.cols(), |i, j| data.x[(i, j)]);
                        GpModel::fit_scaled_noise(
                            sub,
                            &scratch.centred,
                            model.hyper,
                            &scales[..take.min(scales.len())],
                        )
                        .map(|gp| gp.predict(&data.x0))
                    }
                    (Some(Ok(pg)), None) if pg.exact() => {
                        Ok(pg.predict_prefix(take, &scratch.centred, &data.x0, &mut scratch.gp))
                    }
                    // Jittered factorisation: the prefix identity is gone,
                    // fit this cell independently (shared hyperparameters).
                    (Some(Ok(pg)), None) => {
                        pg.oracle_fit(take, &scratch.centred).map(|gp| gp.predict(&data.x0))
                    }
                    (Some(Err(_)), None) | (None, None) => {
                        let sub = Matrix::from_fn(take, data.x.cols(), |i, j| data.x[(i, j)]);
                        GpModel::fit(sub, &scratch.centred, model.hyper)
                            .map(|gp| gp.predict(&data.x0))
                    }
                };
                match posterior {
                    Ok((mean, var)) => Some((mean + y_mean, var)),
                    // Pathological Gram matrix even cell-by-cell: aggregate.
                    Err(_) => {
                        gp_failures += 1;
                        ArPredictor.predict_labels(y)
                    }
                }
            }
            // No trainable cell in the column (all prefixes degenerate).
            (CellState::Gp(_), None) => ArPredictor.predict_labels(y),
        };
    }
    gp_failures
}

/// Adapter: a [`SensorPredictor`] as a [`smiler_baselines::SeriesPredictor`]
/// so the evaluation harness drives SMiLer and the competitors through one
/// interface.
pub struct SmilerForecaster {
    device: Arc<Device>,
    config: SmilerConfig,
    kind: PredictorKind,
    inner: Option<SensorPredictor>,
    fallback_history: Vec<f64>,
}

impl SmilerForecaster {
    /// SMiLer with the GP predictor.
    pub fn gp(device: Arc<Device>, config: SmilerConfig) -> Self {
        SmilerForecaster {
            device,
            config,
            kind: PredictorKind::GaussianProcess,
            inner: None,
            fallback_history: Vec::new(),
        }
    }

    /// SMiLer with the aggregation predictor.
    pub fn ar(device: Arc<Device>, config: SmilerConfig) -> Self {
        SmilerForecaster {
            device,
            config,
            kind: PredictorKind::Aggregation,
            inner: None,
            fallback_history: Vec::new(),
        }
    }
}

impl smiler_baselines::SeriesPredictor for SmilerForecaster {
    fn name(&self) -> &'static str {
        match self.kind {
            PredictorKind::GaussianProcess => "SMiLer-GP",
            PredictorKind::Aggregation => "SMiLer-AR",
        }
    }

    fn is_online(&self) -> bool {
        true
    }

    fn train(&mut self, history: &[f64]) {
        let d_master = self.config.ensemble.elv.iter().copied().max().unwrap_or_default();
        if history.len() < d_master + self.config.h_max + 1 {
            self.inner = None;
            self.fallback_history = history.to_vec();
            return;
        }
        self.inner = Some(SensorPredictor::new(
            Arc::clone(&self.device),
            0,
            history.to_vec(),
            self.config.clone(),
            self.kind,
        ));
    }

    fn observe(&mut self, value: f64) {
        match &mut self.inner {
            Some(p) => p.observe(value),
            None => self.fallback_history.push(value),
        }
    }

    fn predict(&mut self, h: usize) -> (f64, f64) {
        match &mut self.inner {
            Some(p) => p.predict(h),
            None => (self.fallback_history.last().copied().unwrap_or(0.0), 1.0),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn periodic_history(n: usize) -> Vec<f64> {
        // Periodic base plus deterministic noise: exact periodicity would
        // make every ensemble cell predict identically (and weights would
        // rightly stay uniform), so the noise is what differentiates cells.
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state % 1000) as f64 / 1000.0 - 0.5;
                (i as f64 * std::f64::consts::TAU / 24.0).sin()
                    + 0.3 * (i as f64 * std::f64::consts::TAU / 8.0).sin()
                    + 0.15 * noise
            })
            .collect()
    }

    fn make(kind: PredictorKind) -> (SensorPredictor, Vec<f64>) {
        let device = Arc::new(Device::default_gpu());
        let history = periodic_history(400);
        let p =
            SensorPredictor::new(device, 7, history.clone(), SmilerConfig::small_for_tests(), kind);
        (p, history)
    }

    #[test]
    fn ar_predicts_periodic_series() {
        let (mut p, _) = make(PredictorKind::Aggregation);
        for h in [1usize, 4, 8] {
            let (mean, var) = p.predict(h);
            let truth = ((399 + h) as f64 * std::f64::consts::TAU / 24.0).sin()
                + 0.3 * (((399 + h) as f64) * std::f64::consts::TAU / 8.0).sin();
            assert!((mean - truth).abs() < 0.4, "h={h}: {mean} vs {truth}");
            assert!(var > 0.0);
        }
    }

    #[test]
    fn gp_predicts_periodic_series() {
        let (mut p, _) = make(PredictorKind::GaussianProcess);
        let (mean, var) = p.predict(1);
        let truth = (400.0 * std::f64::consts::TAU / 24.0).sin()
            + 0.3 * (400.0 * std::f64::consts::TAU / 8.0).sin();
        assert!((mean - truth).abs() < 0.4, "{mean} vs {truth}");
        assert!(var > 0.0 && var.is_finite());
    }

    #[test]
    fn search_is_cached_across_horizons() {
        let (mut p, _) = make(PredictorKind::Aggregation);
        p.predict(1);
        let launches_after_first = p.device.kernel_launches();
        p.predict(2);
        p.predict(3);
        assert_eq!(
            p.device.kernel_launches(),
            launches_after_first,
            "additional horizons must reuse the cached search"
        );
        // A new observation launches nothing and invalidates the cache.
        p.observe(0.1);
        assert_eq!(p.device.kernel_launches(), launches_after_first, "observe only appends");
        p.predict(1);
        assert!(p.device.kernel_launches() > launches_after_first);
    }

    #[test]
    fn continuous_prediction_updates_weights() {
        let (mut p, history) = make(PredictorKind::Aggregation);
        let mut future = periodic_history(420);
        future.drain(..history.len());
        assert!(p.weights(1).is_none());
        for &v in future.iter().take(10) {
            p.predict(1);
            p.observe(v);
        }
        let w = p.weights(1).expect("weights exist after predictions");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Self-adaptive tuning must have moved the weights off uniform.
        let uniform = 1.0 / w.len() as f64;
        assert!(w.iter().any(|&wi| (wi - uniform).abs() > 1e-6));
    }

    #[test]
    fn pending_predictions_consumed_in_order() {
        let (mut p, _) = make(PredictorKind::Aggregation);
        // Predict h=2 now; its λ update must fire exactly when the value
        // two steps ahead arrives.
        p.predict(2);
        let before = p.weights(2).unwrap();
        p.observe(0.0); // target not yet realised
        assert_eq!(p.weights(2).unwrap(), before);
        p.observe(0.0); // target realises now
        let after = p.weights(2).unwrap();
        assert_ne!(after, before);
    }

    #[test]
    #[should_panic(expected = "out of configured range")]
    fn horizon_zero_rejected() {
        let (mut p, _) = make(PredictorKind::Aggregation);
        p.predict(0);
    }

    #[test]
    fn stuck_at_history_serves_a_flat_rung() {
        let device = Arc::new(Device::default_gpu());
        let history = vec![1.5; 400];
        let mut p = SensorPredictor::new(
            device,
            1,
            history,
            SmilerConfig::small_for_tests(),
            PredictorKind::GaussianProcess,
        );
        for h in [1usize, 4, 8] {
            let pred = p.try_predict(h).expect("flat history must still forecast");
            assert_eq!(pred.mean, 1.5, "h={h}: hold the stuck value");
            assert_eq!(pred.level, DegradationLevel::LastValue);
            assert!(pred.variance >= 1.0, "h={h}: stuck-at uncertainty must stay wide");
        }
        // Still alive after more stuck observations.
        p.observe(1.5);
        let pred = p.try_predict(1).unwrap();
        assert_eq!(pred.mean, 1.5);
    }

    #[test]
    fn sustained_shift_fires_changepoint_and_resets_weights() {
        let device = Arc::new(Device::default_gpu());
        let mut config = SmilerConfig::small_for_tests();
        config.regime.enabled = true;
        let history = periodic_history(400);
        let mut p = SensorPredictor::new(device, 2, history, config, PredictorKind::Aggregation);
        // Normal operation first: weights move off uniform.
        let mut future = periodic_history(412);
        future.drain(..400);
        for &v in &future {
            p.predict(1);
            p.observe(v);
        }
        assert_eq!(p.regime_snapshot().changepoints, 0, "clean stream must not fire");
        let w = p.weights(1).unwrap();
        let uniform = 1.0 / w.len() as f64;
        assert!(w.iter().any(|&wi| (wi - uniform).abs() > 1e-6), "setup: weights skewed");
        // Sustained level shift: every observation lands 5σ above the
        // forecast. Clipped at z_outlier the CUSUM still accumulates.
        let mut fired = false;
        for _ in 0..30 {
            let pred = p.try_predict(1).unwrap();
            p.observe(pred.mean + 5.0 * pred.variance.max(0.0).sqrt());
            if p.regime_snapshot().changepoints > 0 {
                fired = true;
                break;
            }
        }
        assert!(fired, "sustained shift must fire a changepoint");
        // The regime response returned λ to uniform with everyone awake.
        let w = p.weights(1).unwrap();
        for &wi in &w {
            assert!((wi - uniform).abs() < 1e-12, "post-reset weights {w:?}");
        }
    }

    #[test]
    fn changepoint_arms_bias_corrector_and_bias_bleeds_off() {
        let device = Arc::new(Device::default_gpu());
        let mut config = SmilerConfig::small_for_tests();
        config.regime.enabled = true;
        let history = periodic_history(400);
        let mut p = SensorPredictor::new(device, 3, history, config, PredictorKind::Aggregation);
        assert_eq!(p.adaptation.bias(), 0.0, "no bias before any changepoint");
        // Sustained +5σ shift until the detector declares a changepoint.
        // Every shifted step is outlier-flagged, so the (still-disarmed)
        // corrector must not move yet.
        for _ in 0..30 {
            let pred = p.try_predict(1).unwrap();
            p.observe(pred.mean + 5.0 * pred.variance.max(0.0).sqrt());
            if p.regime_snapshot().changepoints > 0 {
                break;
            }
        }
        assert!(p.regime_snapshot().changepoints > 0, "setup: changepoint must fire");
        assert_eq!(p.adaptation.bias(), 0.0, "outlier steps must not steer the bias");
        // Moderate (sub-outlier) positive residuals now steer the armed
        // corrector toward the new level.
        for _ in 0..8 {
            let pred = p.try_predict(1).unwrap();
            p.observe(pred.mean + 2.0 * pred.variance.max(0.0).sqrt());
        }
        assert!(p.adaptation.bias() > 0.0, "armed corrector must absorb the shift");
        // Once forecasts land on target again the correction bleeds off to
        // exactly zero — no permanent drift from a transient regime shift.
        for _ in 0..250 {
            let pred = p.try_predict(1).unwrap();
            p.observe(pred.mean);
        }
        assert_eq!(p.adaptation.bias(), 0.0, "bias must decay to exactly zero");
    }

    #[test]
    fn isolated_spike_is_cleaned_out_of_the_query_suffix() {
        let device = Arc::new(Device::default_gpu());
        let all = periodic_history(425);
        let history: Vec<f64> = all[..400].to_vec();
        let mut fixed = SensorPredictor::new(
            Arc::clone(&device),
            4,
            history.clone(),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        let mut config = SmilerConfig::small_for_tests();
        config.regime.enabled = true;
        let mut adaptive =
            SensorPredictor::new(device, 5, history, config, PredictorKind::Aggregation);
        for (i, &v) in all[400..424].iter().enumerate() {
            fixed.predict(1);
            adaptive.predict(1);
            // One wild glitch mid-stream; the sensor then recovers.
            let observed = if i == 12 { v + 60.0 } else { v };
            fixed.observe(observed);
            adaptive.observe(observed);
        }
        let snap = adaptive.regime_snapshot();
        assert!(snap.outliers >= 1, "the glitch must be flagged");
        assert_eq!(snap.changepoints, 0, "one glitch is not a regime change");
        // The glitch sits inside both master query suffixes. Cleaned, it no
        // longer drags the adaptive forecast; raw, it poisons the fixed one.
        let truth = all[424];
        let (fixed_mean, _) = fixed.predict(1);
        let (adaptive_mean, _) = adaptive.predict(1);
        assert!(
            (adaptive_mean - truth).abs() < (fixed_mean - truth).abs(),
            "cleaned suffix must forecast better: adaptive {adaptive_mean} vs \
             fixed {fixed_mean}, truth {truth}"
        );
    }

    #[test]
    fn stuck_repeats_pass_raw_so_the_flat_rung_sees_the_truth() {
        let device = Arc::new(Device::default_gpu());
        let mut config = SmilerConfig::small_for_tests();
        config.regime.enabled = true;
        let history = periodic_history(400);
        let mut p = SensorPredictor::new(device, 6, history, config, PredictorKind::Aggregation);
        // The sensor freezes at a wildly out-of-band value. The first
        // reading is a plausible glitch (and may be cleaned); every repeat
        // is a stuck-at signature and must enter history raw, so the
        // flat-history rung can see — and hold — the true stuck value.
        for _ in 0..24 {
            p.predict(1);
            p.observe(50.0);
        }
        let pred = p.try_predict(1).unwrap();
        assert_eq!(pred.level, DegradationLevel::LastValue);
        assert_eq!(pred.mean, 50.0, "flat rung must hold the exact stuck value");
        assert_eq!(p.adaptation.bias(), 0.0, "flat rung disarms the bias corrector");
    }

    #[test]
    fn disabled_detector_stays_all_zero() {
        let (mut p, history) = make(PredictorKind::Aggregation);
        let mut future = periodic_history(410);
        future.drain(..history.len());
        for &v in &future {
            p.predict(1);
            // Wild values: the default-disabled detector must stay inert.
            p.observe(v + 100.0);
        }
        assert_eq!(p.regime_snapshot(), crate::regime::RegimeSnapshot::default());
    }

    #[test]
    fn forecaster_adapter_handles_short_history() {
        use smiler_baselines::SeriesPredictor as _;
        let device = Arc::new(Device::default_gpu());
        let mut f = SmilerForecaster::ar(device, SmilerConfig::small_for_tests());
        f.train(&[1.0, 2.0, 3.0]);
        assert_eq!(f.predict(1), (3.0, 1.0));
        f.observe(4.0);
        assert_eq!(f.predict(1), (4.0, 1.0));
    }

    #[test]
    fn forecaster_adapter_names() {
        use smiler_baselines::SeriesPredictor as _;
        let device = Arc::new(Device::default_gpu());
        assert_eq!(
            SmilerForecaster::gp(Arc::clone(&device), SmilerConfig::small_for_tests()).name(),
            "SMiLer-GP"
        );
        assert_eq!(
            SmilerForecaster::ar(device, SmilerConfig::small_for_tests()).name(),
            "SMiLer-AR"
        );
    }
}
