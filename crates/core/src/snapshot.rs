//! Snapshot & restore: persist a sensor predictor's *learned* state across
//! restarts.
//!
//! SMiLer has no trained model to save — that is the point of semi-lazy
//! learning — but during continuous operation it accumulates adaptive state
//! worth keeping: the ensemble weights λ (and their sleep schedules,
//! §5.1.2) and the warm-started GP hyperparameters per cell and horizon
//! (§5.2.2). A restart that discards those re-pays the cold-start cost and
//! forgets which `(k, d)` cells were working. A [`SensorSnapshot`] holds
//! all of it (the durable checkpoint codec, `durable::encode_fleet`, writes
//! it as raw bits); the index itself is deterministic in the history and is
//! rebuilt on restore.
//!
//! Snapshots also carry the *transient* per-step state — pending
//! (not-yet-scored) predictions, the GP retrain-cadence position and the
//! degradation error counters — so that a predictor restored from a
//! checkpoint continues **bitwise-identically** to one that never stopped.
//! Pending entries are safe to restore even when the stream diverges after
//! the snapshot: [`SensorPredictor::observe`] drops entries whose target
//! already passed, so a stale pending list decays harmlessly instead of
//! corrupting the weights.

use crate::degrade::ErrorState;
use crate::ensemble::EnsembleState;
use crate::predictor::PredictorKind;
use crate::sensor::{SensorPredictor, SmilerConfig};
use smiler_gp::Hyperparams;
use smiler_gpu::Device;
use std::sync::Arc;

/// One not-yet-scored prediction round of one horizon: the per-cell
/// forecasts issued for history position `target`, awaiting the true value
/// so the λ update can score them.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingPrediction {
    /// History index the forecasts were issued for.
    pub target: usize,
    /// Per-cell `(mean, variance)`; `None` for cells that sat out.
    pub cells: Vec<Option<(f64, f64)>>,
}

/// Adaptive state of one horizon's ensemble.
#[derive(Debug, Clone)]
pub struct HorizonSnapshot {
    /// The horizon `h`.
    pub horizon: usize,
    /// Ensemble weights and sleep schedules.
    pub ensemble: EnsembleState,
    /// Per-cell GP hyperparameters (`None` for untrained or AR cells).
    pub gp_hypers: Vec<Option<Hyperparams>>,
    /// Not-yet-scored prediction rounds.
    pub pending: Vec<PendingPrediction>,
    /// Per-cell steps-since-retrain cadence position.
    pub gp_cadence: Vec<usize>,
}

/// Everything needed to reconstruct a [`SensorPredictor`] with its learned
/// state.
#[derive(Debug, Clone)]
pub struct SensorSnapshot {
    /// Sensor identifier.
    pub sensor_id: usize,
    /// Full normalised history (the index is rebuilt from it).
    pub history: Vec<f64>,
    /// Predictor configuration.
    pub config: SmilerConfig,
    /// AR or GP.
    pub kind: PredictorKind,
    /// Per-horizon adaptive state.
    pub horizons: Vec<HorizonSnapshot>,
    /// Degradation error counters.
    pub errors: ErrorState,
}

impl SensorPredictor {
    /// Capture a restorable snapshot of this predictor.
    pub fn snapshot(&self) -> SensorSnapshot {
        let mut horizons = self.horizon_snapshots();
        horizons.sort_by_key(|h| h.horizon);
        SensorSnapshot {
            sensor_id: self.sensor_id(),
            history: self.history().to_vec(),
            config: self.config().clone(),
            kind: self.kind(),
            horizons,
            errors: self.error_state(),
        }
    }

    /// Reconstruct a predictor from a snapshot: rebuild the index over the
    /// saved history, then reinstall the adaptive state.
    ///
    /// # Panics
    /// Panics if the snapshot is internally inconsistent (cell counts not
    /// matching its own configuration).
    pub fn restore(device: Arc<Device>, snapshot: SensorSnapshot) -> Self {
        let mut predictor = SensorPredictor::new(
            device,
            snapshot.sensor_id,
            snapshot.history,
            snapshot.config,
            snapshot.kind,
        );
        predictor.install_state(snapshot.horizons, snapshot.errors);
        predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> Vec<f64> {
        let mut state = 0xABCD_EF01u64;
        (0..420)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (i as f64 * std::f64::consts::TAU / 24.0).sin() + (state % 100) as f64 / 200.0
            })
            .collect()
    }

    fn run_steps(p: &mut SensorPredictor, n: usize) {
        for i in 0..n {
            p.predict(1);
            p.predict(3);
            p.observe((i as f64 * 0.37).sin());
        }
    }

    #[test]
    fn restored_predictor_matches_original() {
        let device = Arc::new(Device::default_gpu());
        let mut original = SensorPredictor::new(
            Arc::clone(&device),
            0,
            history(),
            SmilerConfig::small_for_tests(),
            PredictorKind::GaussianProcess,
        );
        run_steps(&mut original, 8);
        let snap = original.snapshot();

        let mut restored = SensorPredictor::restore(Arc::new(Device::default_gpu()), snap);
        // Weights must be identical immediately.
        assert_eq!(original.weights(1), restored.weights(1));
        assert_eq!(original.weights(3), restored.weights(3));
        // And predictions must coincide (same history, same hyper state;
        // the original's pending entries don't affect predict()).
        let (m0, v0) = original.predict(1);
        let (m1, v1) = restored.predict(1);
        assert!((m0 - m1).abs() < 1e-9, "{m0} vs {m1}");
        assert!((v0 - v1).abs() < 1e-9, "{v0} vs {v1}");
    }

    #[test]
    fn restored_predictor_keeps_learning() {
        let device = Arc::new(Device::default_gpu());
        let mut p = SensorPredictor::new(
            Arc::clone(&device),
            0,
            history(),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        run_steps(&mut p, 5);
        let snap = p.snapshot();
        let mut restored = SensorPredictor::restore(device, snap);
        let before = restored.weights(1).unwrap();
        run_steps(&mut restored, 8);
        let after = restored.weights(1).unwrap();
        assert_ne!(before, after, "adaptation must continue after restore");
        assert!((after.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fresh_predictor_snapshot_is_empty_of_state() {
        let device = Arc::new(Device::default_gpu());
        let p = SensorPredictor::new(
            device,
            9,
            history(),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        let snap = p.snapshot();
        assert!(snap.horizons.is_empty());
        assert_eq!(snap.sensor_id, 9);
    }
}
