//! Wire-serving snapshot: open-loop throughput/latency/shed curves.
//!
//! `expt bench-net` builds a synthetic road fleet, puts the `smiler-net`
//! TCP frontend in front of it on a loopback socket, probes the fleet's
//! saturation throughput, then sweeps offered load (fractions of
//! saturation, up to 2×) × connection count with the open-loop Poisson
//! harness. Latency percentiles are measured from each request's
//! *scheduled* issue time, so the curves show the queueing delay a real
//! client population would see — including the overload region, where
//! typed sheds (not hangs) must absorb the excess.

use serde::Serialize;
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_net::{run_net_load, NetConfig, NetLoadGen, NetLoadReport, NetServer};
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::sync::Arc;
use std::time::Duration;

/// Scale of one bench-net run.
#[derive(Debug, Clone, Serialize)]
pub struct NetBenchScale {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Days of road history per sensor.
    pub days: usize,
    /// Shard workers.
    pub shards: usize,
    /// Connection counts to sweep.
    pub connections: Vec<usize>,
    /// Offered load as fractions of the probed saturation rate.
    pub load_fractions: Vec<f64>,
    /// Requests per sweep point.
    pub requests_per_point: usize,
    /// Requests in the saturation probe.
    pub probe_requests: usize,
}

impl NetBenchScale {
    /// Default scale: enough points to draw curves, small enough for CLI
    /// time.
    pub fn default_scale() -> Self {
        NetBenchScale {
            sensors: 12,
            days: 4,
            shards: 2,
            connections: vec![1, 4, 16],
            load_fractions: vec![0.25, 0.5, 1.0, 2.0],
            requests_per_point: 400,
            probe_requests: 400,
        }
    }

    /// CI-sized smoke scale.
    pub fn smoke() -> Self {
        NetBenchScale {
            sensors: 6,
            days: 2,
            shards: 2,
            connections: vec![2],
            load_fractions: vec![0.5, 2.0],
            requests_per_point: 80,
            probe_requests: 80,
        }
    }
}

/// One sweep point: offered load × connections → what the wire saw.
#[derive(Debug, Clone, Serialize)]
pub struct NetBenchPoint {
    /// Connections driving this point.
    pub connections: usize,
    /// Offered load as a fraction of probed saturation.
    pub load_fraction: f64,
    /// The open-loop harness's measurements.
    pub report: NetLoadReport,
}

/// The committed `BENCH_net.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct NetBenchReport {
    /// Record identifier.
    pub bench: String,
    /// Measurement provenance notes.
    pub lineage: String,
    /// The run's scale parameters.
    pub scale: NetBenchScale,
    /// Saturation throughput (req/s) from the closed-ish probe (offered
    /// far past capacity; achieved rate ≈ capacity).
    pub saturation_rps: f64,
    /// The sweep, in (connections, load_fraction) order.
    pub points: Vec<NetBenchPoint>,
}

fn build_fleet(device: &Arc<Device>, scale: &NetBenchScale) -> Vec<SensorPredictor> {
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

/// Run the open-loop wire benchmark and return the report.
pub fn run(scale: NetBenchScale) -> NetBenchReport {
    let device = Arc::new(Device::default_gpu());
    let fleet = build_fleet(&device, &scale);
    let serve_config =
        ServeConfig { shards: scale.shards, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(device, fleet, serve_config);
    let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default())
        .expect("loopback bind");
    let addr = net.local_addr();

    // Saturation probe: offer far more than the fleet can serve; the
    // achieved rate approximates capacity.
    let probe = NetLoadGen {
        connections: 4,
        requests: scale.probe_requests,
        rps: 1.0e6,
        horizon: 1,
        deadline: Some(Duration::from_millis(100)),
        tenant: 0,
        seed: 0xBE_AC4E,
    };
    let probe_report = run_net_load(addr, scale.sensors, &probe).expect("saturation probe");
    let saturation = probe_report.achieved_rps.max(1.0);

    let mut points = Vec::new();
    for &connections in &scale.connections {
        for &fraction in &scale.load_fractions {
            let gen = NetLoadGen {
                connections,
                requests: scale.requests_per_point,
                rps: saturation * fraction,
                horizon: 1,
                deadline: Some(Duration::from_millis(100)),
                tenant: 0,
                seed: 0xBE_AC4E ^ (connections as u64) << 8 ^ (fraction * 100.0) as u64,
            };
            let report = run_net_load(addr, scale.sensors, &gen).expect("sweep point");
            points.push(NetBenchPoint { connections, load_fraction: fraction, report });
        }
    }

    net.shutdown();
    server.shutdown();
    NetBenchReport {
        bench: "net".to_string(),
        lineage: "open-loop Poisson arrivals over loopback TCP; latency measured from each \
                  request's scheduled issue time (coordinated omission excluded by construction)"
            .to_string(),
        scale,
        saturation_rps: saturation,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_sane_report() {
        let report = run(NetBenchScale::smoke());
        assert_eq!(report.bench, "net");
        assert!(report.saturation_rps > 0.0);
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            let answered =
                point.report.ok + point.report.shed + point.report.throttled + point.report.errors;
            assert_eq!(answered as usize, point.report.requests);
            assert!(point.report.p99_ms >= point.report.p50_ms);
        }
        // The 2x-saturation point must answer everything without hanging
        // (the harness would time out otherwise) and typically sheds.
        let overload = &report.points[1];
        assert!(overload.load_fraction > 1.0);
        assert!(overload.report.ok > 0);
    }
}
