//! Invariants of the observability instrumentation: the metrics recorded
//! by the search pipeline must agree with the pipeline's own statistics,
//! and the hierarchical span aggregates must be self-consistent.
//!
//! Observability state is process-global, so every test takes the shared
//! lock, resets, and enables recording before driving the pipeline.

use smiler_core::stream::SensorStream;
use smiler_core::{DurableError, DurableSystem, PredictorKind, RegimeConfig, SmilerSystem};
use smiler_gpu::{Device, GpuSpec};
use smiler_index::{try_fleet_search, IndexParams, SmilerIndex};
use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock_obs() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    smiler_obs::reset();
    smiler_obs::set_enabled(true);
    g
}

fn road_sensor(days: usize, seed: u64) -> Vec<f64> {
    SyntheticSpec { kind: DatasetKind::Road, sensors: 1, days, seed }
        .generate()
        .sensors
        .remove(0)
        .values()
        .to_vec()
}

fn counter(snap: &smiler_obs::MetricsSnapshot, name: &str, label: &str) -> Option<u64> {
    snap.counters.iter().find(|c| c.name == name && c.label == label).map(|c| c.value)
}

/// The verified population can never exceed the candidate population, the
/// recorded counters must match the pipeline's own `SearchStats`, and
/// every recorded pruning ratio must be a valid fraction.
#[test]
fn search_metrics_agree_with_search_stats() {
    let _g = lock_obs();
    let series = road_sensor(10, 3);
    let device = Device::default_gpu();
    let params = IndexParams::default();
    let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
    let out = index.search(&device, series.len() - 30);

    assert_eq!(out.stats.candidates.len(), out.stats.unfiltered.len());
    for (i, (&cand, &unf)) in out.stats.candidates.iter().zip(&out.stats.unfiltered).enumerate() {
        assert!(unf <= cand, "item {i}: verified {unf} of {cand} candidates");
    }

    let snap = smiler_obs::metrics_snapshot();
    for (i, &d) in params.lengths.iter().enumerate() {
        let label = format!("d={d}");
        assert_eq!(
            counter(&snap, "search.candidates", &label),
            Some(out.stats.candidates[i] as u64),
            "candidate counter for {label}"
        );
        assert_eq!(
            counter(&snap, "search.verified", &label),
            Some(out.stats.unfiltered[i] as u64),
            "verified counter for {label}"
        );
    }
    for h in snap.histograms.iter().filter(|h| h.name == "search.pruning_ratio") {
        assert!(h.count > 0);
        assert!((0.0..=1.0).contains(&h.min), "{}: min {}", h.label, h.min);
        assert!((0.0..=1.0).contains(&h.max), "{}: max {}", h.label, h.max);
    }
}

/// The pipeline reports the same telemetry whatever the fleet size: after
/// one `try_fleet_search` of three sensors the per-length counters are the
/// sums of the slots' own `SearchStats`, every filter survivor that was not
/// a threshold probe is accounted for by exactly one cascade rung, and each
/// phase ran once under the one `search` span.
#[test]
fn fleet_search_metrics_agree_with_slot_stats() {
    let _g = lock_obs();
    let device = Device::default_gpu();
    let params = IndexParams::default();
    let mut fleet: Vec<SmilerIndex> = (0..3)
        .map(|s| SmilerIndex::build(&device, road_sensor(10, 7 + s), params.clone()))
        .collect();
    let max_ends: Vec<usize> = fleet.iter().map(|i| i.series().len() - 30).collect();
    let mut refs: Vec<&mut SmilerIndex> = fleet.iter_mut().collect();
    let outs: Vec<_> = try_fleet_search(&device, &mut refs, &max_ends)
        .into_iter()
        .map(|slot| slot.expect("clean road sensors search"))
        .collect();

    let snap = smiler_obs::metrics_snapshot();
    for (i, &d) in params.lengths.iter().enumerate() {
        let label = format!("d={d}");
        let candidates: usize = outs.iter().map(|o| o.stats.candidates[i]).sum();
        let survived: usize = outs.iter().map(|o| o.stats.unfiltered[i]).sum();
        assert_eq!(counter(&snap, "search.candidates", &label), Some(candidates as u64));
        assert_eq!(counter(&snap, "search.verified", &label), Some(survived as u64));
        let ratios = snap
            .histograms
            .iter()
            .find(|h| h.name == "search.pruning_ratio" && h.label == label)
            .expect("pruning ratio recorded per length");
        assert_eq!(ratios.count, outs.len() as u64, "{label}: one ratio per sensor");
    }
    // A cold ExactKBest task probes its k best lower bounds; the cascade
    // walks every other survivor, and each leaves through exactly one rung.
    let survived: usize = outs.iter().flat_map(|o| &o.stats.unfiltered).sum();
    let probes = outs.len() * params.lengths.len() * params.k_max;
    let rungs: u64 = ["kim_pruned", "keogh_pruned", "dtw_abandoned", "dtw_full"]
        .iter()
        .map(|rung| counter(&snap, "verify.cascade", rung).expect("every rung is reported"))
        .sum();
    assert_eq!(rungs, (survived - probes) as u64);

    let spans = smiler_obs::span_snapshot();
    for path in ["search", "search/lb", "search/filter", "search/verify", "search/select"] {
        let row = spans.iter().find(|s| s.path == path);
        assert_eq!(row.map(|s| s.count), Some(1), "span {path}; have {spans:?}");
    }
}

/// Observations defer the index work to the next search, and that search
/// reports what it paid: six observations record nothing, then one search
/// catches up with one rebuild at lag 6 under one `index.catch_up` span.
/// An eager `advance` is a catch-up at lag 1 through the rotation, and an
/// index built by nothing but `new` pays one rebuild over its whole history
/// at its first search.
#[test]
fn deferred_index_work_is_reported_by_the_search_that_pays_it() {
    let _g = lock_obs();
    let device = Device::default_gpu();
    let mut index = SmilerIndex::build(&device, road_sensor(4, 9), IndexParams::default());
    // `build` is `new` plus that first catch-up, and reports it as such.
    let snap = smiler_obs::metrics_snapshot();
    assert_eq!(counter(&snap, "index.catch_up", "rebuild"), Some(1));
    smiler_obs::reset();
    for v in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6] {
        index.append(v);
    }
    let snap = smiler_obs::metrics_snapshot();
    assert!(snap.counters.iter().all(|c| c.name != "index.catch_up"), "appends record nothing");
    assert!(smiler_obs::span_snapshot().is_empty(), "appends open no span");

    index.search(&device, index.series().len() - 30);
    let snap = smiler_obs::metrics_snapshot();
    assert_eq!(counter(&snap, "index.catch_up", "rebuild"), Some(1));
    assert_eq!(counter(&snap, "index.catch_up", "rotate"), None);
    let lag = snap.histograms.iter().find(|h| h.name == "index.catch_up_lag");
    assert_eq!(lag.map(|h| (h.count, h.min, h.max)), Some((1, 6.0, 6.0)));
    let spans = smiler_obs::span_snapshot();
    let row = spans.iter().find(|s| s.path == "index.catch_up");
    assert_eq!(row.map(|s| s.count), Some(1), "span index.catch_up; have {spans:?}");

    // Caught up: a second search pays nothing; an advance rotates once.
    index.search(&device, index.series().len() - 30);
    index.advance(&device, 0.7);
    let snap = smiler_obs::metrics_snapshot();
    assert_eq!(counter(&snap, "index.catch_up", "rebuild"), Some(1));
    assert_eq!(counter(&snap, "index.catch_up", "rotate"), Some(1));
    let lag = snap.histograms.iter().find(|h| h.name == "index.catch_up_lag");
    assert_eq!(lag.map(|h| (h.count, h.min)), Some((2, 1.0)));

    smiler_obs::reset();
    let history = road_sensor(4, 10);
    let len = history.len();
    let mut unbuilt = SmilerIndex::new(history, IndexParams::default());
    let snap = smiler_obs::metrics_snapshot();
    assert!(snap.counters.iter().all(|c| c.name != "index.catch_up"), "new records nothing");
    unbuilt.search(&device, len - 30);
    let snap = smiler_obs::metrics_snapshot();
    assert_eq!(counter(&snap, "index.catch_up", "rebuild"), Some(1));
    assert_eq!(counter(&snap, "index.catch_up", "rotate"), None);
    let lag = snap.histograms.iter().find(|h| h.name == "index.catch_up_lag");
    assert_eq!(lag.map(|h| (h.count, h.min, h.max)), Some((1, len as f64, len as f64)));
}

/// A parent span's total wall time must cover the sum of its direct
/// children (both are measured by the same clock, so the slack is pure
/// bookkeeping outside the children).
#[test]
fn span_totals_cover_their_children() {
    let _g = lock_obs();
    let series = road_sensor(10, 4);
    let device = Arc::new(Device::default_gpu());
    let histories = vec![series.clone(), road_sensor(10, 5)];
    let config = smiler_core::sensor::SmilerConfig { h_max: 3, ..Default::default() };
    let (mut system, rejected) =
        SmilerSystem::new(device, histories, config, PredictorKind::GaussianProcess);
    assert!(rejected.is_none());
    for step in 0..3 {
        let obs = vec![0.1 * step as f64; 2];
        let preds = system.step(1, &obs);
        assert_eq!(preds.len(), 2);
    }

    let spans = smiler_obs::span_snapshot();
    assert!(!spans.is_empty());
    for parent in &spans {
        let prefix = format!("{}/", parent.path);
        let child_sum: f64 = spans
            .iter()
            .filter(|s| s.path.starts_with(&prefix) && !s.path[prefix.len()..].contains('/'))
            .map(|s| s.total_seconds)
            .sum();
        // Timer granularity leaves each child's measurement a hair over or
        // under; tolerate a relative + absolute float slack.
        assert!(
            parent.total_seconds >= child_sum * (1.0 - 1e-6) - 1e-6,
            "span {} total {}s < children sum {}s",
            parent.path,
            parent.total_seconds,
            child_sum
        );
    }
    // The continuous step must have produced the full phase breakdown.
    let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
    for phase in [
        "step",
        "step/search",
        "step/search/filter",
        "step/search/verify",
        "step/search/select",
        "step/gp.predict",
        "step/gp.predict/gp.train",
        "step/ensemble.update",
    ] {
        assert!(paths.contains(&phase), "missing span {phase}; have {paths:?}");
    }
}

/// Sensors stepped on host-thread workers record their spans under the
/// `step` span, the same paths and counts as when the calling thread steps
/// them all, and each parent's total still covers its children's.
#[test]
fn a_parallel_step_records_every_sensor_under_the_step_span() {
    let _g = lock_obs();
    let histories: Vec<Vec<f64>> = (0..4).map(|s| road_sensor(10, 20 + s)).collect();
    let config = smiler_core::sensor::SmilerConfig { h_max: 3, ..Default::default() };
    let mut counts = Vec::new();
    for threads in [1, 2] {
        let device = Arc::new(Device::default_gpu().with_host_threads(threads));
        let (mut system, rejected) = SmilerSystem::new(
            device,
            histories.clone(),
            config.clone(),
            PredictorKind::GaussianProcess,
        );
        assert!(rejected.is_none());
        smiler_obs::reset();
        for step in 0..3 {
            system.step(1, &[0.1 * step as f64; 4]);
        }
        let spans = smiler_obs::span_snapshot();
        for parent in &spans {
            assert!(
                parent.path == "step" || parent.path.starts_with("step/"),
                "{threads} threads: span {} outside the step",
                parent.path
            );
            let prefix = format!("{}/", parent.path);
            let child_sum: f64 = spans
                .iter()
                .filter(|s| s.path.starts_with(&prefix) && !s.path[prefix.len()..].contains('/'))
                .map(|s| s.total_seconds)
                .sum();
            assert!(
                parent.total_seconds >= child_sum * (1.0 - 1e-6) - 1e-6,
                "{threads} threads: span {} total {}s < children sum {}s",
                parent.path,
                parent.total_seconds,
                child_sum
            );
        }
        counts.push(spans.into_iter().map(|s| (s.path, s.count)).collect::<Vec<_>>());
    }
    assert!(counts[0].iter().any(|(path, n)| path == "step/gp.predict" && *n > 0));
    assert_eq!(counts[0], counts[1], "span paths and counts on 1 vs 2 host threads");
}

/// Every GP training run reports its rejected line-search probes under its
/// mode, and every online (warm-started) run the gradient's max-norm at
/// its start point.
#[test]
fn online_training_reports_rejections_and_warm_start_gradient() {
    let _g = lock_obs();
    let device = Arc::new(Device::default_gpu());
    let histories = vec![road_sensor(10, 8), road_sensor(10, 9)];
    let config = smiler_core::sensor::SmilerConfig { h_max: 2, ..Default::default() };
    let (mut system, rejected) =
        SmilerSystem::new(device, histories, config, PredictorKind::GaussianProcess);
    assert!(rejected.is_none());
    for step in 0..4 {
        system.step(1, &[0.1 * step as f64; 2]);
    }
    let snap = smiler_obs::metrics_snapshot();
    for mode in ["full", "online"] {
        assert!(counter(&snap, "gp.train_runs", mode).is_some_and(|runs| runs > 0), "{mode} runs");
        assert!(counter(&snap, "cg.line_search_rejections", mode).is_some(), "{mode} rejections");
    }
    let norms = snap
        .histograms
        .iter()
        .find(|h| h.name == "gp.warm_start_grad_norm")
        .expect("warm-start gradient norms recorded");
    assert_eq!(Some(norms.count), counter(&snap, "gp.train_runs", "online"));
}

/// With the switch off, driving the pipeline must leave no trace at all.
#[test]
fn disabled_pipeline_records_nothing() {
    let _g = lock_obs();
    smiler_obs::set_enabled(false);
    let series = road_sensor(8, 6);
    let device = Device::default_gpu();
    let mut index = SmilerIndex::build(&device, series.clone(), IndexParams::default());
    let _ = index.search(&device, series.len() - 30);
    smiler_obs::set_enabled(true);
    let snap = smiler_obs::metrics_snapshot();
    assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    assert!(smiler_obs::span_snapshot().is_empty());
    assert!(smiler_obs::events_snapshot().is_empty());
}

/// A fleet restored from durable state is admitted through the same loop
/// as a fresh one, so it reports the same telemetry: the resident-sensor
/// gauge, and an `admission.oom` event when the device is too small.
#[test]
fn restored_fleet_reports_admission_telemetry() {
    let _g = lock_obs();
    let dir = std::env::temp_dir().join(format!("smiler_obs_restore_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let histories: Vec<_> = (0..3).map(|s| road_sensor(4, 20 + s)).collect();
    let config = smiler_core::sensor::SmilerConfig { h_max: 3, ..Default::default() };
    let store_config = smiler_store::StoreConfig::default;
    let device = Arc::new(Device::default_gpu());
    let (fleet, rejected) = DurableSystem::create(
        Arc::clone(&device),
        histories,
        config,
        PredictorKind::Aggregation,
        &dir,
        store_config(),
        0,
    )
    .expect("create");
    assert!(rejected.is_none());
    drop(fleet);

    let resident = || {
        let snap = smiler_obs::metrics_snapshot();
        snap.gauges.iter().find(|g| g.name == "sensors.resident").map(|g| g.value)
    };
    smiler_obs::reset();
    smiler_obs::set_enabled(true);
    DurableSystem::open(Arc::new(Device::default_gpu()), &dir, store_config(), 0).expect("restore");
    assert_eq!(resident(), Some(3.0), "a restored fleet must report its resident set");
    assert!(smiler_obs::events_snapshot().iter().all(|e| e.kind != "admission.oom"));

    // Room for two of the three sensors: the restore fails typed, and the
    // rejection is on the event log exactly as for a fresh fleet.
    let per_sensor = device.memory_used() / 3;
    let small = GpuSpec { memory_bytes: per_sensor * 2 + per_sensor / 2, ..Default::default() };
    match DurableSystem::open(Arc::new(Device::gpu(small)), &dir, store_config(), 0) {
        Err(DurableError::OutOfMemory(oom)) => assert_eq!(oom.sensor_id, 2),
        Err(e) => panic!("expected OutOfMemory, got {e}"),
        Ok(_) => panic!("expected OutOfMemory, got a restored fleet"),
    }
    assert_eq!(resident(), Some(2.0));
    let events = smiler_obs::events_snapshot();
    let oom: Vec<_> = events.iter().filter(|e| e.kind == "admission.oom").collect();
    assert_eq!(oom.len(), 1);
    assert_eq!(oom[0].label, "sensor=2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every adaptation series README "Chaos & regimes" names is emitted by a
/// regime-armed predictor fed a drift (changepoint, ensemble reset, bias)
/// and a spike storm (outliers, cleaning), and the changepoint series agree
/// with the predictors' own regime snapshots.
#[test]
fn regime_armed_predictor_emits_every_adaptation_series() {
    let _g = lock_obs();
    let config = smiler_core::sensor::SmilerConfig {
        regime: RegimeConfig::enabled(),
        ..smiler_core::sensor::SmilerConfig::small_for_tests()
    };
    let (mut changepoints, mut outliers) = (0, 0);
    for (id, kind) in [ChaosKind::Drift, ChaosKind::SpikeStorm].into_iter().enumerate() {
        let scenario = ChaosSpec::smoke(7).scenario(kind);
        let last_ts = scenario.history.len() as u64;
        let mut stream = SensorStream::new(
            Arc::new(Device::default_gpu()),
            id,
            &scenario.history,
            last_ts,
            1,
            config.clone(),
            PredictorKind::Aggregation,
        );
        for (t, value) in scenario.observed.iter().enumerate() {
            let value = value.expect("drift and spike feeds drop no tick");
            stream.forecast(1);
            stream.ingest(last_ts + t as u64 + 1, value).expect("chaos feed is well-formed");
        }
        let snap = stream.predictor().regime_snapshot();
        changepoints += snap.changepoints;
        outliers += snap.outliers;
    }
    assert!(
        changepoints > 0 && outliers > 0,
        "setup: {changepoints} changepoints, {outliers} outliers"
    );

    let snap = smiler_obs::metrics_snapshot();
    assert_eq!(counter(&snap, "regime.changepoints", ""), Some(changepoints));
    for name in ["regime.outliers", "regime.cleaned", "regime.ensemble_resets"] {
        assert!(counter(&snap, name, "").is_some_and(|n| n > 0), "counter {name}");
    }
    // An outlier that also tips the CUSUM over is reported as the
    // changepoint: the detector counts it, the outlier series does not.
    let flagged = counter(&snap, "regime.outliers", "").unwrap_or_default();
    assert!(flagged <= outliers, "{flagged} outlier events of {outliers} outliers");
    assert!(snap.gauges.iter().any(|g| g.name == "regime.bias"), "gauge regime.bias");
    let z = snap.histograms.iter().find(|h| h.name == "regime.outlier_z");
    assert_eq!(z.map(|h| h.count), Some(flagged), "one outlier_z sample per outlier event");
    let events = smiler_obs::events_snapshot();
    let fired = events.iter().filter(|e| e.kind == "regime.changepoint").count();
    assert_eq!(fired as u64, changepoints, "one regime.changepoint event per changepoint");
}
