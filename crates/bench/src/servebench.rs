//! Serving-throughput snapshot: the repo's load-serving trajectory tracker.
//!
//! `expt bench-serve` builds a synthetic road fleet, serves a closed-loop
//! trace through `smiler_core::serve` — forecasts already queued on a
//! shard share one fleet search; a worker never waits for more — and
//! writes `BENCH_serve.json` with the run's throughput, latency
//! percentiles, achieved batch size and simulated GPU launch counts. The
//! committed snapshot is the baseline against which serving-path PRs are
//! judged.

use serde::Serialize;
use smiler_core::serve::{run_load, LoadGen, LoadReport, ServeConfig, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::sync::Arc;

/// Scale of one bench-serve run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServeBenchScale {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Days of road history per sensor.
    pub days: usize,
    /// Shard workers.
    pub shards: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Forecasts per client.
    pub requests_per_client: usize,
}

impl ServeBenchScale {
    /// Default scale: enough concurrency that shard queues actually hold
    /// several requests at once, small enough for CLI time.
    pub fn default_scale() -> Self {
        ServeBenchScale { sensors: 12, days: 4, shards: 2, clients: 8, requests_per_client: 24 }
    }

    /// CI-sized smoke scale.
    pub fn smoke() -> Self {
        ServeBenchScale { sensors: 6, days: 2, shards: 2, clients: 4, requests_per_client: 6 }
    }
}

/// The committed `BENCH_serve.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// Record identifier.
    pub bench: String,
    /// Measurement provenance notes.
    pub lineage: String,
    /// The run's scale parameters.
    pub scale: ServeBenchScale,
    /// The load generator's view of the run.
    pub load: LoadReport,
    /// Mean micro-batch size actually achieved.
    pub mean_batch_size: f64,
    /// Requests shed at admission (server-side counter).
    pub shed: u64,
    /// Simulated GPU kernel launches over the whole run.
    pub kernel_launches: u64,
    /// Total blocks across those launches (grid widths summed).
    pub blocks_launched: u64,
}

fn build_fleet(device: &Arc<Device>, scale: &ServeBenchScale) -> Vec<SensorPredictor> {
    let dataset = SyntheticSpec {
        kind: DatasetKind::Road,
        sensors: scale.sensors,
        days: scale.days,
        seed: 2015,
    }
    .generate();
    let config = SmilerConfig { h_max: 4, ..Default::default() };
    dataset
        .sensors
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let (normalised, _) = smiler_timeseries::normalize::z_normalize(s.values());
            SensorPredictor::new(
                Arc::clone(device),
                id,
                normalised,
                config.clone(),
                PredictorKind::Aggregation,
            )
        })
        .collect()
}

/// Run the serving benchmark and return the report.
pub fn run(scale: ServeBenchScale) -> ServeBenchReport {
    let device = Arc::new(Device::default_gpu());
    let fleet = build_fleet(&device, &scale);
    device.reset_clock();
    let config = ServeConfig { shards: scale.shards, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(Arc::clone(&device), fleet, config);
    let handle = server.handle();
    let gen = LoadGen {
        clients: scale.clients,
        requests_per_client: scale.requests_per_client,
        horizon: 1,
        qps: None,
        deadline: None,
    };
    let load = run_load(&handle, &gen);
    let stats = server.shutdown();
    ServeBenchReport {
        bench: "serve".to_string(),
        lineage: "closed-loop in-process harness; qps-paced latencies are measured from each \
                  request's scheduled issue time. One run: a shard worker batches the \
                  forecasts already queued and never waits for more, so the batched-vs-\
                  per-request comparison of earlier snapshots (3.0k vs 10.8k req/s, the \
                  batched side waiting out a fixed 2 ms window per batch - ROADMAP anomaly \
                  2(a)) no longer has two sides. The trace has no observes, so only each \
                  sensor's first forecast searches; kernel_launches falls between the old \
                  batched (24) and per-request (72) figures with how many of those first \
                  forecasts happen to be queued together."
            .to_string(),
        scale,
        load,
        mean_batch_size: stats.mean_batch_size(),
        shed: stats.shed,
        kernel_launches: device.kernel_launches(),
        blocks_launched: device.blocks_launched(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_sane_report() {
        let scale = ServeBenchScale::smoke();
        let report = run(scale);
        assert_eq!(report.bench, "serve");
        let total = (scale.clients * scale.requests_per_client) as u64;
        assert_eq!(report.load.ok + report.load.shed + report.load.errors, total);
        assert!(report.load.throughput_rps > 0.0);
        assert!(report.mean_batch_size >= 1.0);
        assert!(report.kernel_launches > 0);
    }
}
