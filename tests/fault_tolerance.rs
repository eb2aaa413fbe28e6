//! Fault-injection tests for the fleet's isolation and graceful-degradation
//! layer: one poisoned sensor (NaN history, non-PD Gram matrix, or an
//! injected worker panic) must never change a healthy sensor's forecast or
//! take the fleet down, and the poisoned sensor must come back through
//! typed errors, degraded rungs, and checkpoint + WAL recovery.

use smiler_core::{
    DegradationLevel, DurableSystem, FaultKind, PredictorKind, RequestPolicy, SensorFault,
    SensorHealth, SensorPredictor, SmilerConfig, SmilerSystem,
};
use smiler_gpu::Device;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn lock_obs() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    smiler_obs::reset();
    smiler_obs::set_enabled(true);
    g
}

fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let t = (i + s * 13) as f64;
                    (t * std::f64::consts::TAU / 24.0).sin() + 0.05 * (t * 0.7).cos()
                })
                .collect()
        })
        .collect()
}

fn fleet(count: usize, kind: PredictorKind) -> SmilerSystem {
    let (system, rejected) = SmilerSystem::new(
        Arc::new(Device::default_gpu()),
        histories(count, 300),
        SmilerConfig::small_for_tests(),
        kind,
    );
    assert!(rejected.is_none());
    system
}

/// A fault-free fleet's forecasts as `(mean, variance)` pairs — the
/// reference the faulty fleets' healthy sensors are compared against.
fn healthy_forecasts(system: &mut SmilerSystem, h: usize) -> Vec<(f64, f64)> {
    system
        .predict_all_robust(h, &RequestPolicy::default())
        .into_iter()
        .map(|r| {
            let p = r.expect("fault-free fleet must predict");
            (p.mean, p.variance)
        })
        .collect()
}

/// An injected worker panic quarantines exactly the faulty sensor; every
/// healthy sensor's forecast is bitwise identical to a fault-free run.
#[test]
fn worker_panic_quarantines_one_sensor_not_the_fleet() {
    let _g = lock_obs();
    let mut healthy = fleet(5, PredictorKind::Aggregation);
    let mut faulty = fleet(5, PredictorKind::Aggregation);
    faulty.sensor_mut(2).inject_fault(FaultKind::PanicOnPredict);

    let expected = healthy_forecasts(&mut healthy, 1);
    let got = faulty.predict_all_robust(1, &RequestPolicy::default());
    assert_eq!(got.len(), 5);
    for (i, r) in got.iter().enumerate() {
        if i == 2 {
            assert!(matches!(r, Err(SensorFault::Panicked { .. })), "sensor 2: {r:?}");
        } else {
            let p = r.as_ref().expect("healthy sensor must predict");
            assert_eq!(p.mean.to_bits(), expected[i].0.to_bits(), "sensor {i} mean changed");
            assert_eq!(p.variance.to_bits(), expected[i].1.to_bits(), "sensor {i} var changed");
            assert!(!p.degraded());
        }
    }
    assert_eq!(faulty.quarantined(), vec![2]);
    assert!(matches!(faulty.health(2), SensorHealth::Quarantined { .. }));

    // A second pass skips the quarantined sensor without re-running it,
    // and the healthy sensors stay bitwise in lockstep.
    let expected = healthy_forecasts(&mut healthy, 2);
    let got = faulty.predict_all_robust(2, &RequestPolicy::default());
    for (i, r) in got.iter().enumerate() {
        if i == 2 {
            assert!(matches!(r, Err(SensorFault::Quarantined { .. })), "sensor 2: {r:?}");
        } else {
            let p = r.as_ref().expect("healthy sensor must predict");
            assert_eq!(p.mean.to_bits(), expected[i].0.to_bits(), "sensor {i} mean changed");
        }
    }

    // Observability: the quarantine is exported.
    let snap = smiler_obs::metrics_snapshot();
    let panics =
        snap.counters.iter().find(|c| c.name == "health.sensor_panic").map_or(0, |c| c.value);
    assert!(panics >= 1, "sensor panic counter must be nonzero");
    let gauge = snap.gauges.iter().find(|g| g.name == "health.quarantined");
    assert_eq!(gauge.map(|g| g.value), Some(1.0));
}

/// A durable fleet's WAL keeps logging a quarantined sensor's values, so
/// `DurableSystem::recover_all` rebuilds it from checkpoint + WAL with a
/// current history and the sensor serves again.
#[test]
fn quarantined_sensor_recovers_from_snapshot_with_current_history() {
    let dir = std::env::temp_dir().join(format!("smiler_fault_recover_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut durable, _) = DurableSystem::create(
        Arc::new(Device::default_gpu()),
        histories(3, 300),
        SmilerConfig::small_for_tests(),
        PredictorKind::Aggregation,
        &dir,
        smiler_store::StoreConfig::default(),
        /* checkpoint_every */ 0,
    )
    .expect("create");
    durable.step(1, &[0.4, 0.5, 0.6]).expect("step");
    durable.system_mut().sensor_mut(1).inject_fault(FaultKind::PanicOnPredict);
    let _ = durable.system_mut().predict_all_robust(1, &RequestPolicy::default());
    assert_eq!(durable.system().quarantined(), vec![1]);

    let len_before = durable.system().sensor(1).history().len();
    for i in 0..5 {
        durable.observe_all(&[0.1 * i as f64, 0.2, 0.3]).expect("observe");
    }
    assert_eq!(durable.recover_all().expect("recover"), vec![1]);
    assert!(durable.system().quarantined().is_empty());
    // The rebuilt sensor saw the observations that arrived while fenced.
    assert_eq!(durable.system().sensor(1).history().len(), len_before + 5);
    // And it serves again — the injected fault died with the old instance.
    let got = durable.system_mut().predict_all_robust(1, &RequestPolicy::default());
    assert!(got.iter().all(|r| r.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One panicking sensor costs only its own share of a fleet round: `step`
/// and `observe_all` return, the sensor is quarantined and reports
/// `(NaN, ∞)`, and every other sensor is bitwise what a fault-free fleet
/// computes.
#[test]
fn a_sensor_panicking_mid_round_is_quarantined_not_the_round() {
    let mut healthy = fleet(3, PredictorKind::Aggregation);
    let mut faulty = fleet(3, PredictorKind::Aggregation);
    faulty.sensor_mut(1).inject_fault(FaultKind::PanicOnObserve);
    for round in 0..5 {
        let values = [0.1 * round as f64, 0.2, 0.3];
        if round == 2 {
            faulty.sensor_mut(2).inject_fault(FaultKind::PanicOnObserve);
            healthy.observe_all(&values);
            faulty.observe_all(&values);
            continue;
        }
        let expected = healthy.step(1, &values);
        let got = faulty.step(1, &values);
        for (s, (g, e)) in got.iter().zip(&expected).enumerate() {
            if *faulty.health(s) == SensorHealth::Healthy {
                assert_eq!((g.0.to_bits(), g.1.to_bits()), (e.0.to_bits(), e.1.to_bits()));
            } else {
                assert!(g.0.is_nan() && g.1.is_infinite(), "round {round} sensor {s}: {g:?}");
            }
        }
    }
    assert_eq!(faulty.quarantined(), vec![1, 2]);
}

/// A non-PD Gram matrix (injected via non-finite hyperparameters) is a
/// degradable fault: the sensor serves an aggregation fallback instead of
/// panicking, healthy sensors are unaffected, and repeated failures trip
/// the cooldown rung.
#[test]
fn bad_gram_degrades_and_trips_cooldown() {
    let _g = lock_obs();
    let mut healthy = fleet(3, PredictorKind::GaussianProcess);
    let mut faulty = fleet(3, PredictorKind::GaussianProcess);
    faulty.sensor_mut(1).inject_fault(FaultKind::BadGram);

    let expected = healthy_forecasts(&mut healthy, 1);
    let got = faulty.predict_all_robust(1, &RequestPolicy::default());
    for (i, r) in got.iter().enumerate() {
        let p = r.as_ref().expect("bad Gram must degrade, not fail");
        assert!(p.mean.is_finite() && p.variance > 0.0, "sensor {i}");
        if i != 1 {
            assert_eq!(p.mean.to_bits(), expected[i].0.to_bits(), "sensor {i} mean changed");
        }
    }
    assert!(faulty.quarantined().is_empty(), "degradable faults must not quarantine");
    let errors = faulty.sensor_mut(1).error_state();
    assert!(errors.total_gp_failures > 0, "GP failures must be recorded");

    // Three consecutive failing steps (the default threshold) park the
    // sensor on the aggregation rung for the cooldown.
    let policy = RequestPolicy::default();
    for step in 0..3 {
        faulty.observe_all(&[0.1, 0.2, 0.3]);
        let _ = faulty.predict_all_robust(1, &policy);
        let _ = step;
    }
    assert!(faulty.sensor_mut(1).error_state().cooling_down(), "cooldown must be armed");
    faulty.observe_all(&[0.1, 0.2, 0.3]);
    let got = faulty.predict_all_robust(1, &policy);
    let p = got[1].as_ref().expect("cooldown serves degraded, not error");
    assert_eq!(p.level, DegradationLevel::Aggregation);
    assert!(p.degraded());

    let snap = smiler_obs::metrics_snapshot();
    let gp_failures =
        snap.counters.iter().find(|c| c.name == "health.gp_failure").map_or(0, |c| c.value);
    assert!(gp_failures > 0, "gp failure counter must be nonzero");
    let degraded: u64 =
        snap.counters.iter().filter(|c| c.name == "health.degraded").map(|c| c.value).sum();
    assert!(degraded > 0, "degradation counter must be nonzero");
}

/// A NaN observation poisons the query suffix: the sensor serves the
/// last-value hold (typed, finite) instead of panicking, and recovers on
/// its own once the NaN leaves the master window.
#[test]
fn nan_observation_degrades_to_last_value_hold() {
    let device = Arc::new(Device::default_gpu());
    let history = histories(1, 300).remove(0);
    let mut p = SensorPredictor::new(
        device,
        0,
        history,
        SmilerConfig::small_for_tests(),
        PredictorKind::Aggregation,
    );
    p.observe(f64::NAN);
    let pred = p.try_predict(1).expect("NaN history must degrade, not error");
    assert_eq!(pred.level, DegradationLevel::LastValue);
    assert!(pred.mean.is_finite() && pred.variance > 0.0);
    assert!(p.error_state().total_search_errors > 0);

    // Healthy values push the NaN out of the query suffix; the sensor
    // climbs back to the full pipeline without intervention.
    let mut recovered = false;
    for i in 0..200 {
        p.observe((i as f64 * std::f64::consts::TAU / 24.0).sin());
        if let Ok(pred) = p.try_predict(1) {
            if pred.level == DegradationLevel::FullEnsemble {
                recovered = true;
                break;
            }
        }
    }
    assert!(recovered, "sensor must climb back to the full pipeline");
}

/// The deadline ladder: an exhausted budget at entry buys only the
/// last-value hold; a forced entry level is honoured; the default policy
/// reports the full pipeline.
#[test]
fn deadline_and_entry_level_drive_the_ladder() {
    let device = Arc::new(Device::default_gpu());
    let history = histories(1, 300).remove(0);
    let mut p = SensorPredictor::new(
        device,
        0,
        history,
        SmilerConfig::small_for_tests(),
        PredictorKind::GaussianProcess,
    );

    let full = p.try_predict(1).expect("healthy predict");
    assert_eq!(full.level, DegradationLevel::FullEnsemble);
    assert!(!full.degraded());

    let zero = RequestPolicy::with_deadline(Duration::ZERO);
    let held = p.try_predict_with(1, &zero).expect("hold");
    assert_eq!(held.level, DegradationLevel::LastValue);
    assert!(held.mean.is_finite());

    let cheap =
        RequestPolicy { entry_level: DegradationLevel::Aggregation, ..RequestPolicy::default() };
    let agg = p.try_predict_with(1, &cheap).expect("aggregation rung");
    assert_eq!(agg.level, DegradationLevel::Aggregation);

    // Out-of-range horizons are typed errors on the fallible path.
    assert!(p.try_predict(0).is_err());
    assert!(p.try_predict(10_000).is_err());
}

/// Stuck-at regression: a sensor whose entire history is one constant
/// (zero-variance znorm, degenerate Gram matrix) used to be able to take
/// its GP down with NaNs. It must instead serve the flat-forecast rung —
/// the exact stuck value with wide variance — while every healthy sensor
/// in the fleet keeps its full-pipeline forecast bitwise unchanged.
#[test]
fn stuck_at_history_degrades_typed_without_poisoning_the_fleet() {
    let _g = lock_obs();
    let mut healthy = fleet(4, PredictorKind::GaussianProcess);

    let mut mixed_histories = histories(4, 300);
    mixed_histories[2] = vec![7.25; 300];
    let (mut stuck_fleet, rejected) = SmilerSystem::new(
        Arc::new(Device::default_gpu()),
        mixed_histories,
        SmilerConfig::small_for_tests(),
        PredictorKind::GaussianProcess,
    );
    assert!(rejected.is_none(), "a constant history is degraded, not rejected");

    let expected = healthy_forecasts(&mut healthy, 1);
    let got = stuck_fleet.predict_all_robust(1, &RequestPolicy::default());
    assert_eq!(got.len(), 4);
    for (i, r) in got.iter().enumerate() {
        let p = r.as_ref().expect("stuck-at is a degrade, never a fault");
        if i == 2 {
            assert_eq!(p.level, DegradationLevel::LastValue, "stuck sensor rung");
            assert_eq!(p.mean, 7.25, "flat rung must hold the exact stuck value");
            assert!(p.variance >= 1.0, "stuck-at uncertainty must stay wide");
        } else {
            assert_eq!(p.mean.to_bits(), expected[i].0.to_bits(), "sensor {i} mean changed");
            assert_eq!(p.variance.to_bits(), expected[i].1.to_bits(), "sensor {i} var changed");
            assert!(!p.degraded(), "healthy sensor {i} must stay on the full pipeline");
        }
    }
    // Nobody was quarantined: zero-variance input is a served degrade.
    assert!(stuck_fleet.quarantined().is_empty());

    // More stuck readings keep the rung alive instead of crashing the GP,
    // and the flat-history degrade is exported for operators.
    stuck_fleet.sensor_mut(2).observe(7.25);
    let again = stuck_fleet.predict_all_robust(1, &RequestPolicy::default());
    let p = again[2].as_ref().expect("still served");
    assert_eq!(p.mean, 7.25);
    let snap = smiler_obs::metrics_snapshot();
    let flat =
        snap.counters.iter().find(|c| c.name == "health.flat_history").map_or(0, |c| c.value);
    assert!(flat >= 1, "flat-history degrade must be counted");
}
