//! Multi-sensor orchestration: one device, many per-sensor predictors.
//!
//! The paper's Fig. 3 shows n sensors sharing one GPU: each has its own
//! SMiLer index and predictor matrix, and "the SMiLer Index can easily
//! scale up with multiple sensors, where we only need to create multiple
//! SMiLer Indexes and invoke more blocks" (§4.4). [`SmilerSystem`] is that
//! arrangement; it also enforces the device-memory budget that bounds the
//! number of resident sensors (the Fig 12c capacity experiment).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::degrade::{PredictError, Prediction, RequestPolicy};
use crate::predictor::PredictorKind;
use crate::sensor::{SensorPredictor, SmilerConfig};
use crate::snapshot::SensorSnapshot;
use smiler_gpu::Device;
use smiler_index::{try_fleet_search, SmilerIndex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Error returned when a sensor's index does not fit in device memory.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct OutOfDeviceMemory {
    /// Sensor that failed to fit.
    pub sensor_id: usize,
    /// Bytes the sensor's index needs.
    pub needed: usize,
    /// Bytes still available on the device.
    pub available: usize,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sensor {} needs {} bytes but only {} remain on the device",
            self.sensor_id, self.needed, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Health of one resident sensor, as tracked by the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SensorHealth {
    /// Serving normally.
    Healthy,
    /// The sensor's predictor panicked and is fenced off until it is
    /// rebuilt from durable state (DESIGN §8, "Quarantine & recovery
    /// lifecycle").
    Quarantined {
        /// The panic message that caused the quarantine.
        message: String,
    },
}

/// Why a sensor produced no forecast during a robust fleet pass.
#[derive(Debug, Clone)]
pub enum SensorFault {
    /// The predictor panicked during this pass; the sensor is now
    /// quarantined.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The sensor was already quarantined when the pass started.
    Quarantined {
        /// The panic message that caused the quarantine.
        message: String,
    },
    /// The fallible serving path returned a typed error.
    Predict(PredictError),
}

impl std::fmt::Display for SensorFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensorFault::Panicked { message } => write!(f, "predictor panicked: {message}"),
            SensorFault::Quarantined { message } => {
                write!(f, "sensor is quarantined (cause: {message})")
            }
            SensorFault::Predict(e) => write!(f, "prediction failed: {e}"),
        }
    }
}

impl std::error::Error for SensorFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SensorFault::Predict(e) => Some(e),
            _ => None,
        }
    }
}

/// Stringify a panic payload for quarantine bookkeeping.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fleet's one search routine: a single [`try_fleet_search`] over the
/// healthy sensors among `wanted` whose cached search is stale — one
/// launch per phase serves all their suffix queries (§4.4) — installing
/// each `Ok` slot as that sensor's cached search. An error slot is simply
/// not installed: that sensor re-searches (and degrades, or reports its
/// typed error) through its own `try_predict_with` path, and so does a
/// lone stale sensor, whose solo search is already a fleet search of one.
/// A panic inside the launch falls back the same way; quarantine happens
/// at the per-sensor boundary ([`isolated`]), never here.
pub(crate) fn search_stale(
    device: &Device,
    sensors: &mut [SensorPredictor],
    health: &[SensorHealth],
    wanted: impl Fn(usize) -> bool,
) {
    let mut locals = Vec::new();
    let mut max_ends = Vec::new();
    let mut indexes: Vec<&mut SmilerIndex> = Vec::new();
    for (local, sensor) in sensors.iter_mut().enumerate() {
        if wanted(local) && health[local] == SensorHealth::Healthy && !sensor.has_current_search() {
            locals.push(local);
            max_ends.push(sensor.search_max_end());
            indexes.push(sensor.index_mut());
        }
    }
    if locals.len() < 2 {
        return;
    }
    let searched =
        panic::catch_unwind(AssertUnwindSafe(|| try_fleet_search(device, &mut indexes, &max_ends)));
    for (local, slot) in locals.into_iter().zip(searched.unwrap_or_default()) {
        if let Ok(out) = slot {
            sensors[local].install_search(out);
        }
    }
}

/// The fleet's one isolation boundary: run `work` on a healthy sensor
/// behind `catch_unwind`. A quarantined sensor is never touched; a panic
/// may have torn the predictor mid-update, so it **quarantines** the
/// sensor ([`SensorHealth::Quarantined`]) and both read as a typed
/// [`SensorFault`].
pub(crate) fn isolated<T>(
    sensor: &mut SensorPredictor,
    state: &mut SensorHealth,
    work: impl FnOnce(&mut SensorPredictor) -> T,
) -> Result<T, SensorFault> {
    if let SensorHealth::Quarantined { message } = state {
        return Err(SensorFault::Quarantined { message: message.clone() });
    }
    panic::catch_unwind(AssertUnwindSafe(|| work(sensor))).map_err(|payload| {
        let message = panic_message(payload);
        *state = SensorHealth::Quarantined { message: message.clone() };
        smiler_obs::count("health.sensor_panic", "", 1);
        SensorFault::Panicked { message }
    })
}

/// One sensor's isolated prediction: the fallible, degradation-aware path
/// ([`SensorPredictor::try_predict_with`]) behind the [`isolated`]
/// boundary.
pub(crate) fn predict_isolated(
    sensor: &mut SensorPredictor,
    state: &mut SensorHealth,
    h: usize,
    policy: &RequestPolicy,
) -> Result<Prediction, SensorFault> {
    isolated(sensor, state, |s| s.try_predict_with(h, policy))?.map_err(SensorFault::Predict)
}

/// A fleet of per-sensor SMiLer predictors sharing one device.
pub struct SmilerSystem {
    device: Arc<Device>,
    sensors: Vec<SensorPredictor>,
    health: Vec<SensorHealth>,
}

impl SmilerSystem {
    /// Build the system, admitting sensors until device memory runs out.
    ///
    /// Returns the system and, if some sensors did not fit, the error for
    /// the first rejected one (sensors after it are also not admitted —
    /// mirroring a fixed resident set).
    pub fn new(
        device: Arc<Device>,
        histories: Vec<Vec<f64>>,
        config: SmilerConfig,
        kind: PredictorKind,
    ) -> (Self, Option<OutOfDeviceMemory>) {
        let built = histories.into_iter().enumerate().map(|(id, history)| {
            SensorPredictor::new(Arc::clone(&device), id, history, config.clone(), kind)
        });
        Self::admit(&device, built)
    }

    /// The admission loop: reserve device memory for each predictor in
    /// turn — built fresh ([`SmilerSystem::new`]) or restored from durable
    /// state (checkpoint decode) — until one does not fit. `predictors` is
    /// consumed lazily, so nothing past the first rejection is ever built.
    pub(crate) fn admit(
        device: &Arc<Device>,
        predictors: impl Iterator<Item = SensorPredictor>,
    ) -> (Self, Option<OutOfDeviceMemory>) {
        let mut sensors = Vec::new();
        let mut rejection = None;
        for predictor in predictors {
            let needed = predictor.device_bytes();
            if device.try_reserve_memory(needed) {
                sensors.push(predictor);
            } else {
                let oom = OutOfDeviceMemory {
                    sensor_id: predictor.sensor_id(),
                    needed,
                    available: device.memory_capacity() - device.memory_used(),
                };
                if smiler_obs::enabled() {
                    smiler_obs::event("admission.oom", &format!("sensor={}", oom.sensor_id), &oom);
                }
                rejection = Some(oom);
                break;
            }
        }
        if smiler_obs::enabled() {
            smiler_obs::gauge_set("sensors.resident", "", sensors.len() as f64);
        }
        let health = vec![SensorHealth::Healthy; sensors.len()];
        let device = Arc::clone(device);
        (SmilerSystem { device, sensors, health }, rejection)
    }

    /// Number of resident sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether no sensor is resident.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// The shared device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Shared access to one sensor's predictor.
    pub fn sensor(&self, idx: usize) -> &SensorPredictor {
        &self.sensors[idx]
    }

    /// Mutable access to one sensor's predictor.
    pub fn sensor_mut(&mut self, idx: usize) -> &mut SensorPredictor {
        &mut self.sensors[idx]
    }

    /// One fleet search ([`search_stale`]) for every healthy sensor whose
    /// cached search is stale; each driver below then predicts off the
    /// installed results.
    fn search_all_stale(&mut self) {
        search_stale(&self.device, &mut self.sensors, &self.health, |_| true);
    }

    /// Predict horizon `h` for every resident sensor.
    pub fn predict_all(&mut self, h: usize) -> Vec<(f64, f64)> {
        self.search_all_stale();
        self.sensors.iter_mut().map(|s| s.predict(h)).collect()
    }

    /// Predict horizon `h` for every sensor with full fault isolation: the
    /// fleet's serving entry point.
    ///
    /// After the shared search, each sensor runs the fallible,
    /// degradation-aware path ([`SensorPredictor::try_predict_with`])
    /// behind the panic boundary ([`isolated`]). A panicking sensor is
    /// **quarantined** (DESIGN §8, "Quarantine & recovery lifecycle") and
    /// reported as a [`SensorFault`]; the other sensors' forecasts are
    /// exactly what a fault-free pass would have produced (each sensor owns
    /// its index and ensemble, and a search slot is independent of the
    /// fleet it was searched in).
    pub fn predict_all_robust(
        &mut self,
        h: usize,
        policy: &RequestPolicy,
    ) -> Vec<Result<Prediction, SensorFault>> {
        self.search_all_stale();
        let results = self
            .sensors
            .iter_mut()
            .zip(&mut self.health)
            .map(|(sensor, state)| predict_isolated(sensor, state, h, policy))
            .collect();
        if smiler_obs::enabled() {
            smiler_obs::gauge_set("health.quarantined", "", self.quarantined().len() as f64);
        }
        results
    }

    /// Health of one resident sensor.
    pub fn health(&self, idx: usize) -> &SensorHealth {
        &self.health[idx]
    }

    /// Indices of currently quarantined sensors.
    pub fn quarantined(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, SensorHealth::Quarantined { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Rebuild sensor `idx` from `snapshot` (assembled by
    /// [`crate::DurableSystem::recover_all`] from checkpoint + WAL) behind
    /// a panic boundary and mark it healthy. `false` if the rebuild
    /// panicked; the sensor then stays quarantined.
    pub(crate) fn restore_into(&mut self, idx: usize, snapshot: SensorSnapshot) -> bool {
        let device = Arc::clone(&self.device);
        match panic::catch_unwind(AssertUnwindSafe(|| SensorPredictor::restore(device, snapshot))) {
            Ok(predictor) => {
                self.sensors[idx] = predictor;
                self.health[idx] = SensorHealth::Healthy;
                smiler_obs::count("health.sensor_recovered", "", 1);
                true
            }
            Err(_) => false,
        }
    }

    /// One full continuous-prediction step for the whole fleet: predict
    /// horizon `h` for every resident sensor, then absorb the realised
    /// `observations` (same order as construction). Returns the fused
    /// `(mean, variance)` forecasts made *before* the observations were
    /// seen.
    ///
    /// Each sensor's predict + observe runs behind the fleet's isolation
    /// boundary ([`isolated`]): a sensor that panics is quarantined, a
    /// quarantined one is never touched, and both report `(NaN, ∞)` while
    /// the rest of the round completes.
    ///
    /// With observability on, the step runs under a `step` span, records a
    /// per-sensor latency histogram (`step.sensor_seconds`), and updates
    /// the `sensors.resident` / `cells.active` / `cells.sleeping` gauges.
    ///
    /// # Panics
    /// Panics if the observation count differs from the sensor count.
    pub fn step(&mut self, h: usize, observations: &[f64]) -> Vec<(f64, f64)> {
        assert_eq!(observations.len(), self.sensors.len(), "one observation per sensor");
        let _span = smiler_obs::span("step");
        let obs_on = smiler_obs::enabled();
        let mut predictions = Vec::with_capacity(self.sensors.len());
        self.search_all_stale();
        // Sensors are independent, so interleaving predict/observe per
        // sensor is equivalent to predict_all followed by observe_all.
        for ((sensor, state), &v) in self.sensors.iter_mut().zip(&mut self.health).zip(observations)
        {
            let started = if obs_on { Some(std::time::Instant::now()) } else { None };
            let served = isolated(sensor, state, |s| {
                let prediction = s.predict(h);
                s.observe(v);
                prediction
            });
            if let (Ok(_), Some(started)) = (&served, started) {
                smiler_obs::observe("step.sensor_seconds", "", started.elapsed().as_secs_f64());
            }
            predictions.push(served.unwrap_or((f64::NAN, f64::INFINITY)));
        }
        if obs_on {
            smiler_obs::gauge_set("sensors.resident", "", self.sensors.len() as f64);
            let (mut active, mut sleeping) = (0usize, 0usize);
            for s in &self.sensors {
                if let Some(weights) = s.weights(h) {
                    // λ is zero exactly for sleeping cells.
                    active += weights.iter().filter(|w| **w > 0.0).count();
                    sleeping += weights.iter().filter(|w| **w == 0.0).count();
                }
            }
            smiler_obs::gauge_set("cells.active", "", active as f64);
            smiler_obs::gauge_set("cells.sleeping", "", sleeping as f64);
        }
        predictions
    }

    /// Feed one new observation per sensor (same order as construction),
    /// each behind the isolation boundary ([`SmilerSystem::observe_one`]).
    ///
    /// # Panics
    /// Panics if the observation count differs from the sensor count.
    pub fn observe_all(&mut self, observations: &[f64]) {
        assert_eq!(observations.len(), self.sensors.len(), "one observation per sensor");
        for (idx, &v) in observations.iter().enumerate() {
            self.observe_one(idx, v);
        }
    }

    /// Feed one observation to sensor `idx` behind the isolation boundary
    /// ([`isolated`]): a quarantined sensor drops it, a panicking one is
    /// quarantined.
    pub(crate) fn observe_one(&mut self, idx: usize, value: f64) {
        let _ = isolated(&mut self.sensors[idx], &mut self.health[idx], |s| s.observe(value));
    }

    /// Dismantle the fleet into its sensors (e.g. to hand them to the
    /// sharded serving frontend).
    pub fn into_sensors(self) -> Vec<SensorPredictor> {
        self.sensors
    }

    /// Total device bytes the resident indexes occupy.
    pub fn resident_bytes(&self) -> usize {
        self.sensors.iter().map(|s| s.device_bytes()).sum()
    }

    /// How many sensors of `bytes_per_sensor` fit on a device with
    /// `capacity` bytes — the Fig 12c headline number.
    pub fn capacity_in_sensors(capacity: usize, bytes_per_sensor: usize) -> usize {
        if bytes_per_sensor == 0 {
            return usize::MAX;
        }
        capacity / bytes_per_sensor
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smiler_gpu::GpuSpec;

    fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|s| {
                (0..n).map(|i| ((i + s * 13) as f64 * std::f64::consts::TAU / 24.0).sin()).collect()
            })
            .collect()
    }

    #[test]
    fn all_sensors_fit_on_default_device() {
        let device = Arc::new(Device::default_gpu());
        let (mut system, rejected) = SmilerSystem::new(
            device,
            histories(3, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        assert!(rejected.is_none());
        assert_eq!(system.len(), 3);
        let preds = system.predict_all(1);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|(m, v)| m.is_finite() && *v > 0.0));
        system.observe_all(&[0.0, 0.1, 0.2]);
        assert_eq!(system.predict_all(1).len(), 3);
    }

    #[test]
    fn tiny_device_rejects_overflow() {
        let spec = GpuSpec { memory_bytes: 100_000, ..Default::default() };
        let device = Arc::new(Device::gpu(spec));
        let (system, rejected) = SmilerSystem::new(
            device,
            histories(10, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        let err = rejected.expect("must reject some sensor");
        assert!(system.len() < 10);
        assert_eq!(err.sensor_id, system.len());
        assert!(err.needed > err.available);
    }

    /// Admission counts every index at its full footprint although none
    /// is built yet: 300 points × (history + two envelope rows) plus
    /// 13 sliding × 75 disjoint windows × two posting entries, 8 bytes
    /// each. A device that fits exactly three admits three.
    #[test]
    fn admission_reserves_unbuilt_indexes_at_full_size() {
        const PER_SENSOR: usize = 300 * 8 * 3 + 13 * 75 * 2 * 8;
        let spec = GpuSpec { memory_bytes: 3 * PER_SENSOR, ..Default::default() };
        let device = Arc::new(Device::gpu(spec));
        let (system, rejected) = SmilerSystem::new(
            Arc::clone(&device),
            histories(5, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        assert_eq!(system.len(), 3);
        assert_eq!(system.resident_bytes(), 3 * PER_SENSOR);
        let oom = OutOfDeviceMemory { sensor_id: 3, needed: PER_SENSOR, available: 0 };
        assert_eq!(rejected, Some(oom));
        assert_eq!(device.kernel_launches(), 0, "admission builds nothing");
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let fleet = |host_threads: usize| {
            SmilerSystem::new(
                Arc::new(Device::default_gpu().with_host_threads(host_threads)),
                histories(5, 300),
                SmilerConfig::small_for_tests(),
                PredictorKind::GaussianProcess,
            )
            .0
        };
        let (mut serial, mut parallel) = (fleet(1), fleet(4));
        let bits = |out: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
            out.iter().map(|(m, v)| (m.to_bits(), v.to_bits())).collect()
        };
        let future = histories(5, 304);
        for round in 300..304 {
            let observations: Vec<f64> = future.iter().map(|h| h[round]).collect();
            let a = bits(serial.step(1, &observations));
            assert!(a.iter().all(|&(m, _)| f64::from_bits(m).is_finite()), "round {round}");
            assert_eq!(a, bits(parallel.step(1, &observations)), "round {round}");
        }
    }

    #[test]
    fn capacity_arithmetic() {
        assert_eq!(SmilerSystem::capacity_in_sensors(6_000_000, 6_000), 1000);
        assert_eq!(SmilerSystem::capacity_in_sensors(5, 10), 0);
    }

    #[test]
    fn step_skips_quarantined_sensors() {
        use crate::sensor::FaultKind;
        let device = Arc::new(Device::default_gpu());
        let (mut system, _) = SmilerSystem::new(
            device,
            histories(3, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        system.sensor_mut(1).inject_fault(FaultKind::PanicOnPredict);
        let results = system.predict_all_robust(1, &RequestPolicy::default());
        assert!(results[1].is_err());
        assert!(matches!(system.health(1), SensorHealth::Quarantined { .. }));
        let history_before = system.sensor(1).history().len();

        // Regression: step() used to drive the quarantined predictor
        // anyway, re-panicking on the injected fault. It must skip it (NaN
        // marker) and leave the torn predictor untouched.
        for round in 0..20 {
            let preds = system.step(1, &[0.1, 0.2, 0.3 + round as f64 * 0.01]);
            assert!(preds[0].0.is_finite() && preds[2].0.is_finite());
            assert!(preds[1].0.is_nan() && preds[1].1.is_infinite());
        }
        assert_eq!(system.sensor(1).history().len(), history_before);
        assert_eq!(system.quarantined(), vec![1]);
    }

    #[test]
    fn resident_bytes_match_reservations() {
        let device = Arc::new(Device::default_gpu());
        let (system, _) = SmilerSystem::new(
            Arc::clone(&device),
            histories(2, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        assert_eq!(system.resident_bytes(), device.memory_used());
    }
}
