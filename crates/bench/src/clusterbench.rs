//! Replication snapshot: WAL-shipping throughput, follower lag, failover.
//!
//! `expt bench-cluster` measures the three numbers that decide whether
//! the cluster design holds up in practice:
//!
//! 1. **Replication throughput** — how fast a cold follower bootstraps
//!    (checkpoint + raw segment images) and how fast the streaming tail
//!    keeps up with a primary appending at full speed, in records/s.
//! 2. **Follower lag distribution** — while the primary streams, the
//!    harness samples `primary head − follower applied` on a fixed
//!    cadence and reports the quantiles a staleness SLO would be written
//!    against.
//! 3. **Failover time** — kill a primary serving a real GP fleet
//!    mid-run, promote the follower through the recovery ladder, and
//!    clock kill → first served forecast; the promoted forecasts are
//!    also checked bitwise against a control recovery of the dead
//!    primary's own directory, tying the benchmark to the headline
//!    invariant.

use serde::Serialize;
use smiler_cluster::{Follower, FollowerConfig, PrimaryConfig, ReplicationPrimary};
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::{DurableSystem, PredictorKind, SmilerConfig};
use smiler_gpu::Device;
use smiler_linalg::stats::nearest_rank;
use smiler_store::{FlushPolicy, Store, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale of one bench-cluster run.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterBenchScale {
    /// Records pre-filled before the cold-follower bootstrap.
    pub bootstrap_records: u64,
    /// Records streamed live while lag is sampled.
    pub stream_records: u64,
    /// Sensors in the failover GP fleet.
    pub sensors: usize,
    /// History length per sensor in the failover fleet.
    pub history: usize,
    /// Observation rounds replicated before the kill.
    pub rounds: usize,
}

impl ClusterBenchScale {
    /// Default scale: long enough streams for stable quantiles.
    pub fn default_scale() -> Self {
        ClusterBenchScale {
            bootstrap_records: 20_000,
            stream_records: 20_000,
            sensors: 6,
            history: 420,
            rounds: 12,
        }
    }

    /// CI-sized smoke scale.
    pub fn smoke() -> Self {
        ClusterBenchScale {
            bootstrap_records: 2_000,
            stream_records: 2_000,
            sensors: 3,
            history: 420,
            rounds: 6,
        }
    }
}

/// Throughput of one replication phase.
#[derive(Debug, Clone, Serialize)]
pub struct ReplPhaseReport {
    /// Records transferred.
    pub records: u64,
    /// Wall-clock seconds for the phase.
    pub seconds: f64,
    /// Records per second.
    pub records_per_sec: f64,
}

/// Quantiles of the sampled follower lag, in records behind the head.
#[derive(Debug, Clone, Serialize)]
pub struct LagReport {
    /// Lag samples taken.
    pub samples: usize,
    /// Median lag.
    pub p50_records: u64,
    /// 95th-percentile lag.
    pub p95_records: u64,
    /// 99th-percentile lag.
    pub p99_records: u64,
    /// Worst sampled lag.
    pub max_records: u64,
}

/// The kill/promote measurement.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverReport {
    /// Sensors in the promoted fleet.
    pub sensors: usize,
    /// WAL head sequence at the kill.
    pub head_seq: u64,
    /// Kill → promotion complete (recovery ladder), seconds.
    pub promote_seconds: f64,
    /// Kill → first forecast served by the promoted node, seconds.
    pub first_forecast_seconds: f64,
    /// Whether every promoted forecast matched the control recovery of
    /// the dead primary's directory bit for bit.
    pub bitwise_identical: bool,
}

/// Everything bench-cluster measures.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterBenchReport {
    /// The scale the run used.
    pub scale: ClusterBenchScale,
    /// Cold-follower bootstrap (checkpoint + segment images).
    pub bootstrap: ReplPhaseReport,
    /// Streaming tail while the primary appends at full speed.
    pub streaming: ReplPhaseReport,
    /// Follower lag quantiles sampled during the streaming phase.
    pub lag: LagReport,
    /// Kill/promote timing and the bitwise check.
    pub failover: FailoverReport,
}

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smiler_bench_cluster_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create control dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

/// Run the full bench-cluster suite at `scale`.
pub fn run(scale: ClusterBenchScale) -> ClusterBenchReport {
    let (bootstrap, streaming, lag) = replication_phases(&scale);
    let failover = failover_phase(&scale);
    ClusterBenchReport { scale, bootstrap, streaming, lag, failover }
}

/// Bootstrap + streaming throughput and the lag distribution, against a
/// store-only primary so the numbers isolate the replication path.
fn replication_phases(scale: &ClusterBenchScale) -> (ReplPhaseReport, ReplPhaseReport, LagReport) {
    let dir_primary = tmpdir("repl_primary");
    let dir_follower = tmpdir("repl_follower");
    let store_config = StoreConfig::default();
    let (mut store, _) = Store::open(&dir_primary, store_config.clone()).expect("open primary");
    for i in 0..scale.bootstrap_records {
        store.append_observe((i % 16) as u32, i as f64 * 0.125).expect("prefill");
    }
    store.checkpoint(b"bench-cluster-bootstrap").expect("checkpoint");
    store.sync().expect("sync prefill");
    let store = smiler_store::shared(store);
    let repl = ReplicationPrimary::start(
        Arc::clone(&store),
        None,
        PrimaryConfig { tail_poll: Duration::from_micros(200), ..PrimaryConfig::default() },
    )
    .expect("bind replication listener");

    let mut follower_config = FollowerConfig::new("bench", &repl.addr().to_string(), &dir_follower);
    follower_config.store_config = store_config;
    follower_config.poll = Duration::from_millis(1);
    let device = Arc::new(Device::default_gpu());
    let bootstrap_started = Instant::now();
    let follower =
        Follower::start(Arc::clone(&device), follower_config, None).expect("start follower");
    let bootstrapped = follower
        .wait_applied(scale.bootstrap_records, Duration::from_secs(120))
        .then(|| bootstrap_started.elapsed())
        .expect("bootstrap must complete");
    let bootstrap = ReplPhaseReport {
        records: scale.bootstrap_records,
        seconds: bootstrapped.as_secs_f64(),
        records_per_sec: scale.bootstrap_records as f64 / bootstrapped.as_secs_f64().max(1e-9),
    };

    // Streaming: append at full speed on a writer thread while this
    // thread samples the follower's lag on a fixed cadence.
    let head_target = scale.bootstrap_records + scale.stream_records;
    let writer_store = Arc::clone(&store);
    let stream_records = scale.stream_records;
    let stream_started = Instant::now();
    let writer = std::thread::spawn(move || {
        for i in 0..stream_records {
            writer_store
                .lock()
                .append_observe((i % 16) as u32, i as f64 * 0.5)
                .expect("stream append");
        }
        writer_store.lock().sync().expect("stream sync");
    });
    let mut lag_samples: Vec<u64> = Vec::with_capacity(4096);
    while follower.applied_seq() < head_target {
        let head = store.lock().last_seq();
        lag_samples.push(head.saturating_sub(follower.applied_seq()));
        assert!(
            stream_started.elapsed() < Duration::from_secs(300),
            "streaming stalled at seq {} of {head_target}",
            follower.applied_seq()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let streamed = stream_started.elapsed();
    writer.join().expect("writer thread");
    let streaming = ReplPhaseReport {
        records: scale.stream_records,
        seconds: streamed.as_secs_f64(),
        records_per_sec: scale.stream_records as f64 / streamed.as_secs_f64().max(1e-9),
    };
    lag_samples.sort_unstable();
    let lag = LagReport {
        samples: lag_samples.len(),
        p50_records: nearest_rank(&lag_samples, 0.50),
        p95_records: nearest_rank(&lag_samples, 0.95),
        p99_records: nearest_rank(&lag_samples, 0.99),
        max_records: lag_samples.last().copied().unwrap_or(0),
    };
    drop(follower);
    repl.shutdown();
    let _ = std::fs::remove_dir_all(&dir_primary);
    let _ = std::fs::remove_dir_all(&dir_follower);
    (bootstrap, streaming, lag)
}

/// Kill a GP-serving primary mid-run, promote the follower, and clock
/// the failover — with the bitwise control check.
fn failover_phase(scale: &ClusterBenchScale) -> FailoverReport {
    let dir_primary = tmpdir("fo_primary");
    let dir_follower = tmpdir("fo_follower");
    let dir_control = tmpdir("fo_control");
    let device = Arc::new(Device::default_gpu());
    let store_config = StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() };
    let serve_config = ServeConfig::default();
    let histories: Vec<Vec<f64>> = (0..scale.sensors)
        .map(|s| {
            (0..scale.history)
                .map(|i| ((i + s * 29) as f64 * std::f64::consts::TAU / 24.0).sin())
                .collect()
        })
        .collect();
    let (durable, _) = DurableSystem::create(
        Arc::clone(&device),
        histories,
        SmilerConfig::small_for_tests(),
        PredictorKind::GaussianProcess,
        &dir_primary,
        store_config.clone(),
        0,
    )
    .expect("create failover fleet");
    let (system, store) = durable.into_parts();
    let store = smiler_store::shared(store);
    let server = SmilerServer::start_with_store(
        Arc::clone(&device),
        system.into_sensors(),
        serve_config,
        Arc::clone(&store),
    );
    let handle = server.handle();
    let repl = ReplicationPrimary::start(
        Arc::clone(&store),
        Some(handle.clone()),
        PrimaryConfig { tail_poll: Duration::from_millis(1), ..PrimaryConfig::default() },
    )
    .expect("bind replication listener");
    let mut follower_config =
        FollowerConfig::new("bench-fo", &repl.addr().to_string(), &dir_follower);
    follower_config.store_config = store_config.clone();
    follower_config.poll = Duration::from_millis(1);
    let follower = Follower::start(Arc::clone(&device), follower_config, Some(serve_config))
        .expect("start failover follower");

    for round in 0..scale.rounds {
        for sensor in 0..scale.sensors {
            handle
                .observe(sensor, ((round * 7 + sensor * 13) as f64 * 0.21).sin())
                .expect("primary observe");
        }
    }
    let head_seq = store.lock().last_seq();
    assert!(
        follower.wait_applied(head_seq, Duration::from_secs(120)),
        "follower stalled before the kill"
    );

    // The kill: replication stops and the server is abandoned without
    // its graceful shutdown checkpoint.
    drop(repl);
    store.lock().sync().expect("final sync");
    copy_dir(&dir_primary, &dir_control);
    drop(handle);
    drop(server);

    let kill = Instant::now();
    let promotion =
        follower.into_promoted(Arc::clone(&device), serve_config, 1).expect("promote follower");
    let promote_seconds = kill.elapsed().as_secs_f64();
    let promoted = promotion.server.handle();
    let first = promoted.forecast(0, 1).expect("first promoted forecast");
    let first_forecast_seconds = kill.elapsed().as_secs_f64();

    let (control, _) = DurableSystem::open(Arc::clone(&device), &dir_control, store_config, 0)
        .expect("recover control");
    let (control_system, control_store) = control.into_parts();
    let control_server = SmilerServer::start_with_store(
        Arc::clone(&device),
        control_system.into_sensors(),
        serve_config,
        smiler_store::shared(control_store),
    );
    let control_handle = control_server.handle();
    // The control replays the promoted node's request stream exactly
    // (forecasting is semi-lazy and mutates caches).
    let control_first = control_handle.forecast(0, 1).expect("control forecast");
    let mut bitwise_identical = first.mean.to_bits() == control_first.mean.to_bits()
        && first.variance.to_bits() == control_first.variance.to_bits();
    for sensor in 0..scale.sensors {
        let a = promoted.forecast(sensor, 1).expect("promoted forecast");
        let b = control_handle.forecast(sensor, 1).expect("control forecast");
        bitwise_identical &=
            a.mean.to_bits() == b.mean.to_bits() && a.variance.to_bits() == b.variance.to_bits();
    }
    promotion.server.shutdown();
    control_server.shutdown();
    for dir in [&dir_primary, &dir_follower, &dir_control] {
        let _ = std::fs::remove_dir_all(dir);
    }
    FailoverReport {
        sensors: scale.sensors,
        head_seq,
        promote_seconds,
        first_forecast_seconds,
        bitwise_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_sane_report() {
        let report = run(ClusterBenchScale::smoke());
        assert_eq!(report.bootstrap.records, 2_000);
        assert!(report.bootstrap.records_per_sec > 0.0);
        assert!(report.streaming.records_per_sec > 0.0);
        assert!(report.lag.samples > 0);
        assert!(report.lag.p50_records <= report.lag.max_records);
        assert!(report.failover.first_forecast_seconds >= report.failover.promote_seconds);
        assert!(report.failover.bitwise_identical, "failover must stay bitwise identical");
        let json = serde_json::to_string(&report).expect("report serialises");
        assert!(json.contains("\"bitwise_identical\":true"), "{json}");
    }
}
