//! Integration tests for the sharded serving frontend (`smiler_core::serve`):
//! micro-batched serving must answer exactly what per-sensor serving
//! answers while spending strictly fewer simulated GPU launches; a
//! saturated queue must shed typed errors while everything already
//! admitted completes; a quarantined sensor must never stall its shard;
//! and shutdown must drain cleanly.

use smiler_core::serve::{ServeConfig, ServeError, ServeHandle, SmilerServer};
use smiler_core::{
    DegradationLevel, FaultKind, PredictorKind, RequestPolicy, SensorFault, SensorPredictor,
    SmilerConfig, SmilerSystem,
};
use smiler_gpu::Device;
use smiler_store::{SharedStore, Store, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

fn fleet(device: &Arc<Device>, count: usize) -> Vec<SensorPredictor> {
    histories(count, 300)
        .into_iter()
        .enumerate()
        .map(|(id, h)| {
            SensorPredictor::new(
                Arc::clone(device),
                id,
                h,
                SmilerConfig::small_for_tests(),
                PredictorKind::Aggregation,
            )
        })
        .collect()
}

/// A store-backed server over `sensors`, plus the store handle the tests
/// park its workers on ([`submit_parked`]) and the store's directory (the
/// caller removes it).
fn store_backed(
    device: &Arc<Device>,
    sensors: Vec<SensorPredictor>,
    config: ServeConfig,
    name: &str,
) -> (SmilerServer, SharedStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("smiler_serving_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open(&dir, StoreConfig::default()).expect("fresh store");
    let store = smiler_store::shared(store);
    let server = SmilerServer::start_with_store(Arc::clone(device), sensors, config, store.clone());
    (server, store, dir)
}

/// Value of the observation that parks a shard's worker.
const PARKING_VALUE: f64 = 0.25;

/// Run `submit` while every shard worker is parked: with the store mutex
/// held, one observation per shard (sensor `s` lives on shard `s`) stops
/// its worker at the WAL append, so everything `submit` enqueues is in the
/// queue before any worker can dequeue it — batch sizes are exact, not
/// likely. Returns `submit`'s result once the workers are released and
/// the parking observations absorbed.
fn submit_parked<T>(
    handle: &ServeHandle,
    store: &SharedStore,
    shards: usize,
    submit: impl FnOnce() -> T,
) -> T {
    let guard = store.lock();
    let parked: Vec<_> =
        (0..shards).map(|s| handle.submit_observe(s, PARKING_VALUE).expect("admitted")).collect();
    let out = submit();
    drop(guard);
    for p in parked {
        p.wait().expect("parking observation absorbed");
    }
    out
}

/// Micro-batched serving answers bitwise what solo prediction answers, and
/// at ≥ 2 shards the batched run spends strictly fewer simulated GPU
/// launches than serving the same trace per request.
#[test]
fn batched_serving_matches_sequential_with_fewer_launches() {
    const SENSORS: usize = 6;
    const SHARDS: usize = 2;

    // Batched run: every forecast is queued before a worker can dequeue.
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, SENSORS);
    let config = ServeConfig { shards: SHARDS, queue_capacity: 64, ..ServeConfig::default() };
    let (server, store, dir) = store_backed(&device, sensors, config, "batched");
    let handle = server.handle();
    device.reset_clock();
    let pending: Vec<_> = submit_parked(&handle, &store, SHARDS, || {
        (0..SENSORS).map(|s| handle.submit_forecast(s, 1, None).expect("queue has room")).collect()
    });
    let served: Vec<_> = pending.into_iter().map(|p| p.wait().expect("served")).collect();
    let batched_launches = device.kernel_launches();
    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(stats.served, SENSORS as u64);
    assert_eq!(stats.batched_forecasts, SENSORS as u64);
    assert_eq!(stats.batches, SHARDS as u64, "each shard serves its queue as one batch");

    // Sequential reference: the same fleet served one sensor at a time.
    let solo_device = Arc::new(Device::default_gpu());
    let mut solo = fleet(&solo_device, SENSORS);
    solo_device.reset_clock();
    for sensor in &mut solo[..SHARDS] {
        sensor.observe(PARKING_VALUE);
    }
    let policy = RequestPolicy::default();
    for (s, sensor) in solo.iter_mut().enumerate() {
        let expect = sensor.try_predict_with(1, &policy).expect("solo predict");
        let got = &served[s];
        assert_eq!(got.mean.to_bits(), expect.mean.to_bits(), "sensor {s} mean");
        assert_eq!(got.variance.to_bits(), expect.variance.to_bits(), "sensor {s} variance");
        assert_eq!(got.level, DegradationLevel::FullEnsemble, "sensor {s} rung");
        assert!(!got.deadline_missed);
    }
    let solo_launches = solo_device.kernel_launches();
    assert!(
        batched_launches < solo_launches,
        "micro-batching must amortise launches: batched {batched_launches} vs solo {solo_launches}"
    );
}

/// Saturating a shard's queue sheds requests with a typed `Overloaded`
/// error — mapped onto the degradation ladder — while every admitted
/// request still completes. No panics, no deadlocks, no lost replies.
#[test]
fn overload_sheds_typed_errors_while_admitted_requests_complete() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 4);
    let config = ServeConfig { shards: 1, queue_capacity: 2, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    for i in 0..10_000 {
        match handle.submit_forecast(i % 4, 1, None) {
            Ok(pending) => admitted.push(pending),
            Err(err) => {
                let ServeError::Overloaded { shard, depth, capacity } = &err else {
                    panic!("expected Overloaded, got {err}");
                };
                assert_eq!(*shard, 0);
                assert_eq!(*capacity, 2);
                assert!(*depth <= *capacity);
                assert_eq!(err.shed_level(), Some(DegradationLevel::LastValue));
                sheds += 1;
                if sheds >= 3 {
                    break;
                }
            }
        }
    }
    assert!(sheds >= 3, "a 2-deep queue under a tight submit loop must shed");

    let total = admitted.len();
    let served = admitted.into_iter().map(|p| p.wait()).collect::<Vec<_>>();
    assert!(served.iter().all(|r| r.is_ok()), "every admitted request completes");
    let stats = server.shutdown();
    assert_eq!(stats.served, total as u64);
    assert!(stats.shed >= sheds as u64);
}

/// A sensor that panics is quarantined shard-locally: it answers typed
/// faults from then on while its shard keeps serving every other sensor.
#[test]
fn quarantined_sensor_never_stalls_its_shard() {
    let device = Arc::new(Device::default_gpu());
    let mut sensors = fleet(&device, 4);
    sensors[0].inject_fault(FaultKind::PanicOnPredict);
    let config = ServeConfig { shards: 2, queue_capacity: 16, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    // The first request trips the panic and quarantines sensor 0.
    match handle.forecast(0, 1) {
        Err(ServeError::Fault(SensorFault::Panicked { .. })) => {}
        other => panic!("expected a panic fault, got {other:?}"),
    }
    // Its shard-mate (sensor 2 also lives on shard 0) keeps being served.
    let p = handle.forecast(2, 1).expect("healthy shard-mate served");
    assert!(p.mean.is_finite());
    // The quarantined sensor now answers a typed quarantine fault at once.
    match handle.forecast(0, 1) {
        Err(ServeError::Fault(SensorFault::Quarantined { .. })) => {}
        other => panic!("expected quarantine, got {other:?}"),
    }
    match handle.observe(0, 0.5) {
        Err(ServeError::Fault(SensorFault::Quarantined { .. })) => {}
        other => panic!("expected quarantine on observe, got {other:?}"),
    }
    // A mixed batch: the quarantined sensor faults, the healthy one serves.
    let bad = handle.submit_forecast(0, 1, None).expect("admitted");
    let good = handle.submit_forecast(2, 1, None).expect("admitted");
    assert!(matches!(bad.wait(), Err(ServeError::Fault(_))));
    assert!(good.wait().is_ok());
    handle.observe(2, 0.5).expect("healthy observe");

    let stats = server.shutdown();
    assert!(stats.faults >= 3);
    assert_eq!(stats.observed, 1);
}

/// Shutdown drains: everything already queued completes with a real
/// answer, then late requests get a typed `ShuttingDown`.
#[test]
fn shutdown_drains_queued_requests_cleanly() {
    const SENSORS: usize = 6;
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, SENSORS);
    let config = ServeConfig { shards: 2, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();
    let pending: Vec<_> =
        (0..SENSORS).map(|s| handle.submit_forecast(s, 1, None).expect("queue has room")).collect();
    let stats = server.shutdown();
    assert_eq!(stats.served, SENSORS as u64, "drain serves everything queued");
    for p in pending {
        let served = p.wait().expect("queued request completed during drain");
        assert!(served.mean.is_finite());
    }
    // Workers are gone: the leftover handle gets a typed shutdown error.
    assert!(matches!(handle.forecast(0, 1), Err(ServeError::ShuttingDown)));
    assert!(matches!(handle.observe(0, 0.5), Err(ServeError::ShuttingDown)));
}

/// Deadlines are measured from submission: a request whose budget is
/// already gone when a worker picks it up degrades to the last-value hold
/// instead of blowing the budget, and is flagged.
#[test]
fn exhausted_deadline_degrades_to_last_value() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 2);
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();
    let served = handle.forecast_with_deadline(0, 1, Duration::ZERO).expect("still served");
    assert_eq!(served.level, DegradationLevel::LastValue);
    assert!(served.deadline_missed);
    assert!(served.mean.is_finite());
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
}

/// Requests outside the fleet are rejected at the handle, typed.
#[test]
fn unknown_sensor_is_rejected_at_admission() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 2);
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();
    assert!(matches!(
        handle.forecast(7, 1),
        Err(ServeError::UnknownSensor { sensor: 7, fleet: 2 })
    ));
    server.shutdown();
}

/// Chaos feeds served end-to-end with the adaptation layer armed: every
/// delivered observation of every chaos scenario flows through the
/// server, forecasts ride along, and the ledger closes exactly — every
/// request is served or typed, nothing panics, nothing hangs.
#[test]
fn chaos_feeds_serve_cleanly_with_adaptation_armed() {
    use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};

    let device = Arc::new(Device::default_gpu());
    let spec = ChaosSpec::smoke(11);
    let scenarios: Vec<_> = ChaosKind::all().iter().map(|&k| spec.scenario(k)).collect();
    let config = SmilerConfig {
        regime: smiler_core::RegimeConfig::enabled(),
        ..SmilerConfig::small_for_tests()
    };
    let sensors: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(id, s)| {
            SensorPredictor::new(
                Arc::clone(&device),
                id,
                s.history.clone(),
                config.clone(),
                PredictorKind::Aggregation,
            )
        })
        .collect();
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();

    let mut forecasts = 0u64;
    let mut observed = 0u64;
    for t in 0..scenarios[0].live_len() {
        for (id, s) in scenarios.iter().enumerate() {
            if let Some(v) = s.observed[t] {
                handle.observe(id, v).expect("chaos observation must be absorbed");
                observed += 1;
            }
            if t % 8 == 0 {
                let p = handle.forecast(id, 1).expect("chaos forecast must serve");
                assert!(p.mean.is_finite(), "{}: non-finite mean at tick {t}", s.name);
                assert!(p.variance.is_finite() && p.variance > 0.0);
                forecasts += 1;
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, forecasts, "every forecast must be accounted served");
    assert_eq!(stats.observed, observed, "every observation must be accounted");
    assert_eq!(stats.shed, 0, "a blocking caller never overruns the queue");
    assert_eq!(stats.faults, 0, "dirty data is a degrade, never a fault");
}

/// A load spike riding on a dirty feed: a tiny queue under a burst sheds
/// typed `Overloaded` errors (never panics, never hangs), everything
/// admitted completes, and the server serves normally once the spike
/// passes — request-side chaos composes with data-side chaos.
#[test]
fn load_spike_on_a_dirty_feed_sheds_typed_and_recovers() {
    use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};

    let device = Arc::new(Device::default_gpu());
    let scenario = ChaosSpec::smoke(13).scenario(ChaosKind::SpikeStorm);
    let config = SmilerConfig {
        regime: smiler_core::RegimeConfig::enabled(),
        ..SmilerConfig::small_for_tests()
    };
    let sensor = SensorPredictor::new(
        Arc::clone(&device),
        0,
        scenario.history.clone(),
        config,
        PredictorKind::Aggregation,
    );
    let serve_config = ServeConfig { shards: 1, queue_capacity: 2, ..ServeConfig::default() };
    let server = SmilerServer::start(device, vec![sensor], serve_config);
    let handle = server.handle();

    // Feed the dirty stream, then slam the queue mid-storm.
    for t in 0..scenario.live_len() / 2 {
        if let Some(v) = scenario.observed[t] {
            handle.observe(0, v).expect("observe");
        }
    }
    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    let mut attempts = 0usize;
    for _ in 0..10_000 {
        attempts += 1;
        match handle.submit_forecast(0, 1, None) {
            Ok(pending) => admitted.push(pending),
            Err(err) => {
                assert!(
                    matches!(err, ServeError::Overloaded { .. }),
                    "spike overload must shed typed, got {err}"
                );
                assert_eq!(err.shed_level(), Some(DegradationLevel::LastValue));
                sheds += 1;
                if sheds >= 3 {
                    break;
                }
            }
        }
    }
    assert!(sheds >= 3, "a 2-deep queue under a burst must shed");
    assert_eq!(admitted.len() + sheds, attempts, "exactly one terminal per attempt");
    for p in admitted {
        let served = p.wait().expect("every admitted request completes");
        assert!(served.mean.is_finite());
    }

    // The spike passed: the rest of the feed and a final forecast serve.
    for t in scenario.live_len() / 2..scenario.live_len() {
        if let Some(v) = scenario.observed[t] {
            handle.observe(0, v).expect("observe after spike");
        }
    }
    let after = handle.forecast(0, 1).expect("server must recover after the spike");
    assert!(after.mean.is_finite());
    let stats = server.shutdown();
    assert!(stats.shed >= 3);
    assert_eq!(stats.faults, 0);
}

/// A panic on the **observe** path goes through the same boundary as one
/// on the predict path: the sensor is quarantined, the fault is counted,
/// the status row says so at once — not only after a forecast happens to
/// hit the sensor — and the shard keeps serving its other sensors.
#[test]
fn observe_panic_quarantines_and_shows_in_status() {
    let device = Arc::new(Device::default_gpu());
    let mut sensors = fleet(&device, 4);
    sensors[0].inject_fault(FaultKind::PanicOnObserve);
    let config = ServeConfig { shards: 2, queue_capacity: 16, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    match handle.observe(0, 0.5) {
        Err(ServeError::Fault(SensorFault::Panicked { .. })) => {}
        other => panic!("expected a panic fault, got {other:?}"),
    }
    let report = handle.status_report();
    assert_eq!(report.stats.faults, 1);
    assert_eq!(report.stats.observed, 0);
    assert!(report.sensors[0].quarantined, "the status row must show the quarantine");
    assert_eq!(report.sensors[0].faults, 1);
    assert!(report.sensors[1..].iter().all(|row| !row.quarantined && row.faults == 0));
    assert!(report.render_line().contains("quarantined 1"));

    // Its shard-mate (sensor 2 also lives on shard 0) keeps being served.
    handle.observe(2, 0.5).expect("healthy shard-mate absorbs");
    assert!(handle.forecast(2, 1).expect("healthy shard-mate served").mean.is_finite());
    assert!(matches!(
        handle.forecast(0, 1),
        Err(ServeError::Fault(SensorFault::Quarantined { .. }))
    ));
    let stats = server.shutdown();
    assert_eq!((stats.faults, stats.observed, stats.served), (2, 1, 1));
}

/// `/status` tells the truth from the first request: a sensor handed over
/// already quarantined reads as quarantined before any request reaches it.
#[test]
fn status_shows_a_handed_over_quarantine_before_any_request() {
    let device = Arc::new(Device::default_gpu());
    let (mut system, _) = SmilerSystem::new(
        Arc::clone(&device),
        histories(3, 300),
        SmilerConfig::small_for_tests(),
        PredictorKind::Aggregation,
    );
    system.sensor_mut(1).inject_fault(FaultKind::PanicOnObserve);
    system.observe_all(&[0.1, 0.2, 0.3]);
    assert_eq!(system.quarantined(), vec![1]);

    let server = SmilerServer::start(device, system.into_sensors(), ServeConfig::default());
    let report = server.status_report();
    assert!(report.sensors[1].quarantined, "the handed-over quarantine must show at once");
    assert!(!report.sensors[0].quarantined && !report.sensors[2].quarantined);
    assert_eq!(report.stats.faults, 0, "no request has reached the server");
    server.shutdown();
}

/// A replicated observation is never shed: against a full shard queue
/// `apply_replicated_observe` blocks until the worker makes room, so a
/// follower's live history never falls a point behind its log, while
/// client requests on the same queue keep shedding typed errors.
#[test]
fn replicated_observes_wait_out_a_full_queue_instead_of_being_shed() {
    const CAPACITY: usize = 2;
    let burst: Vec<f64> = (0..8).map(|i| 0.1 + 0.05 * i as f64).collect();
    let device = Arc::new(Device::default_gpu());
    let config = ServeConfig { shards: 1, queue_capacity: CAPACITY, ..ServeConfig::default() };
    let (server, store, dir) = store_backed(&device, fleet(&device, 2), config, "replicated");
    let handle = server.handle();

    // Park the worker at the WAL append and flood sensor 1 until the queue
    // holds CAPACITY forecasts: by then the parking observation has been
    // dequeued, and nothing else can be until the store is released.
    let guard = store.lock();
    let parked = handle.submit_observe(0, PARKING_VALUE).expect("admitted");
    let mut flood = Vec::new();
    let mut client_sheds = 0u64;
    while flood.len() < CAPACITY {
        match handle.submit_forecast(1, 1, None) {
            Ok(pending) => flood.push(pending),
            Err(ServeError::Overloaded { .. }) => {
                client_sheds += 1;
                std::thread::yield_now();
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    for _ in 0..3 {
        match handle.submit_forecast(1, 1, None) {
            Err(ServeError::Overloaded { .. }) => client_sheds += 1,
            other => panic!("a full queue admits no client, got {:?}", other.map(|_| ())),
        }
    }

    // The burst arrives while the queue is full and the worker parked; the
    // store is released only once the replication thread is running.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let applied = std::thread::scope(|scope| {
        let replication = scope.spawn(|| {
            started_tx.send(()).expect("test alive");
            burst.iter().map(|&v| handle.apply_replicated_observe(0, v)).collect::<Vec<_>>()
        });
        started_rx.recv().expect("replication thread started");
        drop(guard);
        replication.join().expect("replication thread")
    });
    parked.wait().expect("parking observation absorbed");
    for pending in applied {
        pending.expect("a replicated observe is never shed").wait().expect("absorbed");
    }
    for pending in flood {
        pending.wait().expect("every admitted forecast completes");
    }
    let served = handle.forecast(0, 1).expect("served");
    let stats = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(stats.shed, client_sheds, "only client requests count as shed");
    assert_eq!(stats.observed, 1 + burst.len() as u64);

    // Control: the same sensor fed the same points with nothing in its way.
    let mut control = fleet(&Arc::new(Device::default_gpu()), 1).remove(0);
    control.observe(PARKING_VALUE);
    for &v in &burst {
        control.observe(v);
    }
    let expect = control.try_predict_with(1, &RequestPolicy::default()).expect("control predict");
    assert_eq!(served.mean.to_bits(), expect.mean.to_bits(), "a point was lost");
    assert_eq!(served.variance.to_bits(), expect.variance.to_bits());
}

/// Shutdown with a mixed queue — observe, forecasts, observe, forecast,
/// then the drain marker — answers every request, in per-shard order: each
/// forecast sees exactly the observations queued ahead of it.
#[test]
fn shutdown_answers_a_mixed_queue_in_order() {
    let device = Arc::new(Device::default_gpu());
    let config = ServeConfig { shards: 2, queue_capacity: 16, ..ServeConfig::default() };
    let (server, store, dir) = store_backed(&device, fleet(&device, 4), config, "mixed");
    let handle = server.handle();

    // Park shard 0 (sensors 0 and 2) and queue the mixed run behind it.
    let guard = store.lock();
    let parked = handle.submit_observe(0, PARKING_VALUE).expect("admitted");
    let first = handle.submit_observe(0, 0.4).expect("admitted");
    let after_first = handle.submit_forecast(0, 1, None).expect("admitted");
    let mate = handle.submit_forecast(2, 1, None).expect("admitted");
    let second = handle.submit_observe(0, -0.3).expect("admitted");
    let after_second = handle.submit_forecast(0, 1, None).expect("admitted");

    // Shutdown sends the drain markers in shard order, so once shard 1
    // (idle, not parked) has seen its marker and gone, shard 0's marker is
    // queued behind the run above.
    let stopper = std::thread::spawn(move || server.shutdown());
    let mut probes = 0u64;
    loop {
        match handle.submit_forecast(1, 1, None).map(|p| p.wait()) {
            Err(ServeError::ShuttingDown) | Ok(Err(ServeError::ShuttingDown)) => break,
            Ok(Ok(_)) => probes += 1,
            other => panic!("unexpected probe answer: {other:?}"),
        }
        std::thread::yield_now();
    }
    drop(guard);
    let stats = stopper.join().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    parked.wait().expect("parking observation absorbed");
    first.wait().expect("first observation absorbed");
    second.wait().expect("second observation absorbed");
    assert_eq!(stats.observed, 3);
    assert_eq!(stats.served, 3 + probes);

    let reference_device = Arc::new(Device::default_gpu());
    let mut reference = fleet(&reference_device, 4);
    let policy = RequestPolicy::default();
    let bits = |p: &smiler_core::Prediction| (p.mean.to_bits(), p.variance.to_bits());
    let mut expect = |sensor: usize, values: &[f64]| {
        for &v in values {
            reference[sensor].observe(v);
        }
        bits(&reference[sensor].try_predict_with(1, &policy).expect("reference"))
    };
    let got = |p: smiler_core::serve::PendingForecast| bits(&p.wait().expect("answered"));
    assert_eq!(got(after_first), expect(0, &[PARKING_VALUE, 0.4]), "after the first observe");
    assert_eq!(got(mate), expect(2, &[]), "shard-mate, batched with it");
    assert_eq!(got(after_second), expect(0, &[-0.3]), "after the second observe");
}

/// The in-process fleet drivers share one search: `step` and
/// `predict_all_robust` answer bit for bit what per-sensor
/// `try_predict_with` answers, with strictly fewer kernel launches; and a
/// quarantined or search-erroring sensor never blocks the others' slots.
#[test]
fn fleet_drivers_match_per_sensor_prediction_with_fewer_launches() {
    const SENSORS: usize = 4;
    let policy = RequestPolicy::default();
    let build = || {
        let device = Arc::new(Device::default_gpu());
        let (system, rejected) = SmilerSystem::new(
            Arc::clone(&device),
            histories(SENSORS, 300),
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        );
        assert!(rejected.is_none());
        device.reset_clock();
        (device, system)
    };

    // Reference: every sensor searches and predicts on its own, twice
    // (two steps, one observation in between).
    let values = [0.1, -0.2, 0.3, 0.05];
    let (solo_device, mut solo) = build();
    let mut want = Vec::new();
    for step in 0..2 {
        for (s, &v) in values.iter().enumerate() {
            let p = solo.sensor_mut(s).try_predict_with(1, &policy).expect("solo predict");
            want.push((p.mean.to_bits(), p.variance.to_bits()));
            if step == 0 {
                solo.sensor_mut(s).observe(v);
            }
        }
    }
    let solo_launches = solo_device.kernel_launches();

    let (step_device, mut stepped) = build();
    let mut got: Vec<_> =
        stepped.step(1, &values).iter().map(|p| (p.0.to_bits(), p.1.to_bits())).collect();
    for p in stepped.predict_all_robust(1, &policy) {
        let p = p.expect("healthy sensor");
        got.push((p.mean.to_bits(), p.variance.to_bits()));
    }
    assert_eq!(got, want, "shared search must not move a forecast by a bit");
    assert!(
        step_device.kernel_launches() < solo_launches,
        "one fleet search per pass must amortise launches: {} vs {solo_launches}",
        step_device.kernel_launches()
    );

    // Sensor 1 is quarantined, sensor 2's query suffix is poisoned (its
    // search slot is a typed error): the other two still get their slots
    // from the shared search and answer exactly as before.
    let (_, mut faulty) = build();
    faulty.sensor_mut(1).inject_fault(FaultKind::PanicOnPredict);
    assert!(faulty.predict_all_robust(1, &policy)[1].is_err());
    faulty.observe_all(&[values[0], 0.0, f64::NAN, values[3]]);
    let results = faulty.predict_all_robust(1, &policy);
    assert!(matches!(results[1], Err(SensorFault::Quarantined { .. })));
    let held = results[2].as_ref().expect("a poisoned query degrades, never faults");
    assert_eq!(held.level, DegradationLevel::LastValue);
    for s in [0, 3] {
        let p = results[s].as_ref().expect("healthy sensor");
        assert_eq!((p.mean.to_bits(), p.variance.to_bits()), want[SENSORS + s], "sensor {s}");
    }
    let stepped = faulty.step(1, &[0.0; SENSORS]);
    assert!(stepped[1].0.is_nan() && stepped[0].0.is_finite() && stepped[3].0.is_finite());
}
