//! Integration tests for request-level tracing and the fleet status
//! surface: every admitted request must yield exactly one terminal trace
//! record (served / shed / faulted) across shards, micro-batching, panics,
//! and shutdown drain — no drops, no duplicates; tracing must not change
//! predictions by a single bit; micro-batch members must share the batch
//! id of their single fleet-search launch; and `status_report` must expose
//! windowed tail latency, rung mix, SLO burn, and per-sensor model
//! quality.

use smiler_core::serve::{ServeConfig, ServeError, SmilerServer};
use smiler_core::{DegradationLevel, FaultKind, PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_obs::trace::{self, validate_trace_line, TraceConfig};
use smiler_store::{Store, StoreConfig};
use std::sync::Arc;
use std::time::Duration;

/// The trace sink is process-global: serialise tests that install one and
/// start each from a clean slate.
fn lock_tracing() -> parking_lot::MutexGuard<'static, ()> {
    static GUARD: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    let g = GUARD.lock();
    smiler_obs::reset();
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

fn field_u64(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn outcome_of(line: &str) -> &'static str {
    for outcome in ["served", "shed", "fault", "error", "abandoned"] {
        if line.contains(&format!("\"outcome\":\"{outcome}\"")) {
            return outcome;
        }
    }
    panic!("trace line without an outcome: {line}");
}

/// Every submission — admitted, shed at the queue, answered by a fault, or
/// served after a panic quarantined its sensor — must yield exactly one
/// schema-valid terminal trace record. No drops, no duplicates.
#[test]
fn every_request_yields_exactly_one_terminal_trace() {
    let _g = lock_tracing();
    let device = Arc::new(Device::default_gpu());
    let mut sensors = fleet(&device, 4);
    sensors[1].inject_fault(FaultKind::PanicOnPredict);
    let config = ServeConfig { shards: 2, queue_capacity: 4, ..ServeConfig::default() };
    trace::install_memory_sink(TraceConfig::default());
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    const SUBMITS: usize = 40;
    let mut pending = Vec::new();
    let mut shed = 0u64;
    for i in 0..SUBMITS {
        match handle.submit_forecast(i % 4, 1, None) {
            Ok(p) => pending.push(p),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    for p in pending {
        let _ = p.wait(); // served or a typed fault — both are terminals
    }
    let stats = server.shutdown();
    let lines = trace::take_memory_lines();
    trace::clear_sink();

    assert_eq!(
        lines.len(),
        SUBMITS,
        "one terminal trace per submission: served {} shed {} faults {}",
        stats.served,
        stats.shed,
        stats.faults
    );
    for line in &lines {
        validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let mut ids: Vec<u64> =
        lines.iter().map(|l| field_u64(l, "trace_id").expect("trace_id")).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), SUBMITS, "trace ids must be unique");

    // The terminal outcomes partition the submissions exactly as the
    // serving counters do.
    let count = |o: &str| lines.iter().filter(|l| outcome_of(l) == o).count() as u64;
    assert_eq!(count("served"), stats.served);
    assert_eq!(count("shed"), stats.shed);
    assert_eq!(count("fault"), stats.faults);
    assert_eq!(count("error") + count("abandoned"), 0);
    assert_eq!(stats.shed, shed);
    assert!(stats.faults > 0, "the panicking sensor must surface faults");
    // The panic itself is flagged on its trace.
    assert!(
        lines.iter().any(|l| l.contains("\"aborted\":true") && l.contains("\"reason\":\"panic\"")),
        "the quarantining panic must be visible in the trace stream"
    );
}

/// Tracing must never change what is predicted: the same fleet served with
/// a sink installed and without one answers bitwise-identical forecasts.
#[test]
fn tracing_does_not_change_predictions() {
    let _g = lock_tracing();
    let run = |traced: bool| -> Vec<(u64, u64)> {
        if traced {
            trace::install_memory_sink(TraceConfig::default());
        }
        let device = Arc::new(Device::default_gpu());
        let sensors = fleet(&device, 3);
        // One blocking caller: sequential, deterministic serving order.
        let config = ServeConfig { shards: 1, queue_capacity: 16, ..ServeConfig::default() };
        let server = SmilerServer::start(device, sensors, config);
        let handle = server.handle();
        let mut bits = Vec::new();
        for step in 0..5 {
            for s in 0..3 {
                let p = handle.forecast(s, 1).expect("served");
                bits.push((p.mean.to_bits(), p.variance.to_bits()));
                handle.observe(s, (step as f64 * 0.4).sin()).expect("absorbed");
            }
        }
        server.shutdown();
        if traced {
            let lines = trace::take_memory_lines();
            trace::clear_sink();
            assert_eq!(lines.len(), 15, "the traced run must still record its terminals");
        }
        bits
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain, traced, "tracing must be bitwise invisible to predictions");
}

/// Requests coalesced into one micro-batch share one batch id — the link
/// from member traces to their single fleet-search launch — and carry the
/// batch-search milestones.
#[test]
fn batched_members_share_a_batch_id() {
    let _g = lock_tracing();
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 4);
    let config = ServeConfig { shards: 1, queue_capacity: 16, ..ServeConfig::default() };
    let dir = std::env::temp_dir().join(format!("smiler_tracing_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = Store::open(&dir, StoreConfig::default()).expect("fresh store");
    let store = smiler_store::shared(store);
    trace::install_memory_sink(TraceConfig::default());
    let server = SmilerServer::start_with_store(device, sensors, config, store.clone());
    let handle = server.handle();
    // Park the worker at a WAL append (the store mutex is held), so all
    // four forecasts are queued before it can dequeue one: a batch of
    // exactly four, not probably four.
    let guard = store.lock();
    let parked = handle.submit_observe(0, 0.25).expect("admitted");
    let pending: Vec<_> =
        (0..4).map(|s| handle.submit_forecast(s, 1, None).expect("queue has room")).collect();
    drop(guard);
    parked.wait().expect("parking observation absorbed");
    for p in pending {
        p.wait().expect("served");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let lines = trace::take_memory_lines();
    trace::clear_sink();

    assert_eq!(lines.len(), 4);
    let batch_ids: Vec<u64> = lines
        .iter()
        .map(|l| field_u64(l, "batch_id").expect("served trace has batch_id"))
        .collect();
    assert!(
        batch_ids.iter().all(|&id| id == batch_ids[0]),
        "concurrent requests must coalesce into one batch: {batch_ids:?}"
    );
    for line in &lines {
        validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(field_u64(line, "batch_size"), Some(4));
        assert!(line.contains("batch_search.start") && line.contains("batch_search.done"));
        assert!(line.contains("\"l\":\"dequeue\""), "members must carry the dequeue milestone");
    }
}

/// The status report exposes windowed tail latency (ordered quantiles),
/// the per-rung breakdown, SLO burn against the configured target, and
/// per-sensor rolling model quality fed by observations.
#[test]
fn status_report_exposes_windowed_tails_and_quality() {
    let _g = lock_tracing();
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 4);
    let config = ServeConfig {
        shards: 2,
        queue_capacity: 16,
        // A zero-latency target: every served request burns error budget,
        // so the burn rate must read positive.
        slo_target: Duration::ZERO,
        slo_budget: 0.5,
    };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    for step in 0..3 {
        for s in 0..4 {
            handle.forecast(s, 1).expect("served");
            handle.observe(s, (step as f64 * 0.7).cos()).expect("absorbed");
        }
    }
    // An already-expired budget forces the last-value rung.
    for s in 0..4 {
        let p = handle.forecast_with_deadline(s, 1, Duration::ZERO).expect("served degraded");
        assert_eq!(p.level, DegradationLevel::LastValue);
    }

    let report = handle.status_report();
    server.shutdown();

    assert_eq!(report.fleet, 4);
    assert_eq!(report.shards, 2);
    assert_eq!(report.queue_depths.len(), 2);
    assert_eq!(report.stats.served, 16);
    assert_eq!(report.stats.observed, 12);

    let q = report.latency;
    assert_eq!(q.count, 16);
    assert!(q.p50 > 0.0);
    assert!(
        q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.p999,
        "quantiles must be ordered: {q:?}"
    );

    let rung = |level: DegradationLevel| {
        report.latency_by_rung.iter().find(|r| r.rung == level).expect("all rungs are reported")
    };
    assert_eq!(rung(DegradationLevel::FullEnsemble).served, 12);
    assert_eq!(rung(DegradationLevel::LastValue).served, 4);
    assert!(rung(DegradationLevel::FullEnsemble).latency.p50 > 0.0);

    assert_eq!(report.slo.target_ms, 0.0);
    assert_eq!(report.slo.violations, 16, "a zero target makes every request a violation");
    assert!(report.slo.burn_rate > 0.0);

    // No store attached: durability telemetry is absent, not zeroed.
    assert!(report.wal_append.is_none());
    assert!(report.store.is_none());

    // Each sensor saw h=1 forecasts scored by the following observation.
    assert_eq!(report.sensors.len(), 4);
    for row in &report.sensors {
        assert!(!row.quarantined);
        assert_eq!(row.served, 4);
        assert!(row.quality.window >= 1, "sensor {} quality never scored", row.sensor);
        assert!(row.quality.mae.is_finite());
        assert_eq!(row.last_rung, Some(DegradationLevel::LastValue));
    }

    // The human status line mentions the essentials.
    let line = report.render_line();
    for needle in ["smiler up", "served 16", "p95", "slo", "rungs", "full_ensemble:12"] {
        assert!(line.contains(needle), "status line missing `{needle}`: {line}");
    }
}
