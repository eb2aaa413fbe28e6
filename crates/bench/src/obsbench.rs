//! Observability-overhead snapshot: what request tracing costs.
//!
//! `expt bench-obs` serves an identical closed-loop trace through
//! `smiler_core::serve` repeatedly in two modes — tracing off, and a JSONL
//! file sink capturing every terminal trace — interleaving the repeats so
//! machine drift hits both modes equally, and writes `BENCH_obs.json` with
//! the median throughput/latency of each mode and the derived overhead
//! percentages. The report also audits the trace stream itself (one
//! schema-valid terminal record per submission, no write errors) and
//! proves tracing is bitwise invisible to predictions. The committed
//! snapshot is the budget observability PRs are judged against: overhead
//! must stay under five percent of a served request — a GP forecast, the
//! system's unit of work. (A cached-search AR forecast costs ~0.09 ms,
//! less than twenty trace records: that traffic is for `--trace-sample`,
//! not for this budget.)

use serde::Serialize;
use smiler_core::serve::{run_load, LoadGen, LoadReport, ServeConfig, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_obs::trace::{self, validate_trace_line, TraceConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Overhead the tracing path is allowed to add, in percent.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Scale of one bench-obs run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ObsBenchScale {
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
    /// Measured repeats per mode (after one discarded warmup).
    pub repeats: usize,
}

impl ObsBenchScale {
    /// Default scale: enough load that per-request trace cost would show
    /// up in the tails if it were material.
    pub fn default_scale() -> Self {
        ObsBenchScale {
            sensors: 12,
            days: 4,
            shards: 2,
            clients: 8,
            requests_per_client: 24,
            repeats: 5,
        }
    }

    /// CI-sized smoke scale: a GP fleet trains cold on every run, so the
    /// fleet and the repeat count are as small as the audit allows.
    pub fn smoke() -> Self {
        ObsBenchScale {
            sensors: 2,
            days: 2,
            shards: 2,
            clients: 2,
            requests_per_client: 8,
            repeats: 2,
        }
    }
}

/// Median measurements of one serving mode across the repeats.
#[derive(Debug, Clone, Serialize)]
pub struct ObsModeReport {
    /// Whether a trace sink was installed for these runs.
    pub traced: bool,
    /// Measured runs (warmup excluded).
    pub runs: usize,
    /// Median served predictions per second.
    pub median_throughput_rps: f64,
    /// Median of the runs' median latencies, milliseconds.
    pub median_latency_p50_ms: f64,
    /// Median of the runs' p95 latencies, milliseconds.
    pub median_latency_p95_ms: f64,
    /// Best (highest) throughput across the repeats. Machine noise is
    /// one-sided — it only slows a run down — so best-of-N is the robust
    /// estimate of what the mode can do, and the overhead gate rides on it.
    pub best_throughput_rps: f64,
    /// Best (lowest) per-run median latency across the repeats.
    pub best_latency_p50_ms: f64,
    /// Requests served across all runs.
    pub total_ok: u64,
    /// Requests shed at admission across all runs.
    pub total_shed: u64,
    /// Requests answered with typed errors across all runs.
    pub total_errors: u64,
}

/// Cost of tracing relative to the plain runs (positive = tracing slower).
///
/// Two views are reported. The A/B serving comparison (`*_pct`) is
/// context only: on a shared machine its run-to-run variance (easily
/// ±20%) swamps a microsecond-scale true cost, in either direction. The
/// *gate* rides on the direct measurement — a tight loop timing one full
/// trace lifecycle (begin, milestone marks, finish, serialise, submit
/// through a real file sink) — expressed as a fraction of the plain
/// mode's best per-request median latency. That ratio is what "tracing
/// overhead" actually means per served request, and it is stable enough
/// to enforce in CI.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadReport {
    /// Throughput lost to tracing, percent (best-of-N vs best-of-N A/B;
    /// context only).
    pub throughput_pct: f64,
    /// Median-latency inflation, percent (best-of-N vs best-of-N A/B;
    /// context only).
    pub latency_p50_pct: f64,
    /// Median-latency inflation of the median runs, percent (context
    /// only).
    pub median_latency_p50_pct: f64,
    /// Direct cost of one full trace lifecycle, nanoseconds per record.
    pub trace_ns_per_record: f64,
    /// `trace_ns_per_record` as a percentage of the plain mode's best
    /// per-request median latency — the gated number.
    pub direct_pct: f64,
    /// Whether [`OverheadReport::direct_pct`] stays under
    /// [`OVERHEAD_BUDGET_PCT`].
    pub within_budget: bool,
}

/// Audit of the trace stream the traced runs produced.
#[derive(Debug, Clone, Serialize)]
pub struct TraceAuditReport {
    /// Traced runs audited.
    pub runs: usize,
    /// Terminal trace records written across those runs.
    pub records: u64,
    /// Every record passed [`validate_trace_line`].
    pub schema_valid: bool,
    /// Every run wrote exactly one terminal per submission
    /// (`emitted + sampled_out == requests`).
    pub complete: bool,
    /// Records lost to I/O errors across all runs.
    pub write_errors: u64,
}

/// The committed `BENCH_obs.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ObsBenchReport {
    /// Record identifier.
    pub bench: String,
    /// The run's scale parameters.
    pub scale: ObsBenchScale,
    /// Runs with tracing off.
    pub plain: ObsModeReport,
    /// Runs with a JSONL file sink capturing every terminal.
    pub traced: ObsModeReport,
    /// Derived tracing cost.
    pub overhead: OverheadReport,
    /// Trace-stream audit.
    pub trace: TraceAuditReport,
    /// A traced and an untraced sequential run answered bit-identical
    /// forecasts.
    pub predictions_bitwise_identical: bool,
}

fn build_fleet(device: &Arc<Device>, sensors: usize, days: usize) -> Vec<SensorPredictor> {
    let dataset = smiler_timeseries::synthetic::SyntheticSpec {
        kind: smiler_timeseries::synthetic::DatasetKind::Road,
        sensors,
        days,
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
                PredictorKind::GaussianProcess,
            )
        })
        .collect()
}

fn run_once(scale: &ObsBenchScale) -> LoadReport {
    let device = Arc::new(Device::default_gpu());
    let fleet = build_fleet(&device, scale.sensors, scale.days);
    let config = ServeConfig { shards: scale.shards, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(device, fleet, config);
    let handle = server.handle();
    let gen = LoadGen {
        clients: scale.clients,
        requests_per_client: scale.requests_per_client,
        horizon: 1,
        qps: None,
        deadline: None,
    };
    let load = run_load(&handle, &gen);
    server.shutdown();
    load
}

/// One traced run: serve through a file sink, then audit the file.
struct TracedRun {
    load: LoadReport,
    records: u64,
    schema_valid: bool,
    complete: bool,
    write_errors: u64,
}

fn run_once_traced(scale: &ObsBenchScale, path: &PathBuf) -> TracedRun {
    let installed = trace::install_file_sink(path, TraceConfig::default()).is_ok();
    let load = run_once(scale);
    trace::flush_sink();
    let stats = trace::sink_stats().unwrap_or_default();
    trace::clear_sink();
    let lines: Vec<String> =
        std::fs::read_to_string(path).unwrap_or_default().lines().map(str::to_string).collect();
    let _ = std::fs::remove_file(path);
    let schema_valid =
        installed && !lines.is_empty() && lines.iter().all(|l| validate_trace_line(l).is_ok());
    // Default sampling keeps everything, so the file itself must carry one
    // terminal per submission; `sampled_out` is counted for completeness
    // anyway so a future sampled bench keeps the invariant meaningful.
    let complete = installed
        && stats.write_errors == 0
        && stats.emitted + stats.sampled_out == load.requests
        && lines.len() as u64 == stats.emitted;
    TracedRun {
        load,
        records: stats.emitted,
        schema_valid,
        complete,
        write_errors: stats.write_errors,
    }
}

/// Tight-loop measurement of the full per-request trace cost: allocate a
/// trace, stamp the serving milestones a served request accrues, finish
/// it, and submit it through a real file sink (JSON serialisation and
/// buffered write included).
fn trace_path_ns_per_record(path: &PathBuf) -> f64 {
    const RECORDS: u32 = 4096;
    if trace::install_file_sink(path, TraceConfig::default()).is_err() {
        return 0.0;
    }
    let started = std::time::Instant::now();
    for i in 0..RECORDS {
        let mut t = trace::RequestTrace::begin(i as usize % 16, 1, 0);
        t.mark("queue");
        t.mark("dequeue");
        t.set_batch(u64::from(i), 4);
        t.mark("batch_search.start");
        t.mark("batch_search.done");
        t.mark("predict.done");
        t.finish_served("full_ensemble", false);
        trace::submit(t);
    }
    trace::flush_sink();
    let elapsed = started.elapsed();
    trace::clear_sink();
    let _ = std::fs::remove_file(path);
    elapsed.as_nanos() as f64 / f64::from(RECORDS)
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[sorted.len() / 2]
}

/// Percent by which `traced` exceeds `plain` (0 when `plain` is not a
/// usable baseline).
fn inflation_pct(plain: f64, traced: f64) -> f64 {
    if plain > 0.0 && traced.is_finite() {
        (traced / plain - 1.0) * 100.0
    } else {
        0.0
    }
}

fn summarise(traced: bool, runs: &[LoadReport]) -> ObsModeReport {
    let pick = |f: fn(&LoadReport) -> f64| {
        let samples: Vec<f64> = runs.iter().map(f).collect();
        median(&samples)
    };
    let best = |better: fn(f64, f64) -> f64, f: fn(&LoadReport) -> f64| {
        runs.iter().map(f).filter(|v| v.is_finite()).fold(None, |acc: Option<f64>, v| {
            Some(match acc {
                Some(a) => better(a, v),
                None => v,
            })
        })
    };
    ObsModeReport {
        traced,
        runs: runs.len(),
        median_throughput_rps: pick(|l| l.throughput_rps),
        median_latency_p50_ms: pick(|l| l.latency_p50_ms),
        median_latency_p95_ms: pick(|l| l.latency_p95_ms),
        best_throughput_rps: best(f64::max, |l| l.throughput_rps).unwrap_or(0.0),
        best_latency_p50_ms: best(f64::min, |l| l.latency_p50_ms).unwrap_or(0.0),
        total_ok: runs.iter().map(|l| l.ok).sum(),
        total_shed: runs.iter().map(|l| l.shed).sum(),
        total_errors: runs.iter().map(|l| l.errors).sum(),
    }
}

/// Serve the same sequential request stream with and without a trace sink
/// and compare the raw bits of every answered forecast.
fn predictions_bitwise_identical(scale: &ObsBenchScale) -> bool {
    let sensors = scale.sensors.clamp(1, 3);
    let run = |traced: bool| -> Vec<(u64, u64)> {
        if traced {
            trace::install_memory_sink(TraceConfig::default());
        }
        let device = Arc::new(Device::default_gpu());
        let fleet = build_fleet(&device, sensors, scale.days);
        let config = ServeConfig { shards: 1, queue_capacity: 16, ..ServeConfig::default() };
        let server = SmilerServer::start(device, fleet, config);
        let handle = server.handle();
        let mut bits = Vec::new();
        for step in 0..5 {
            for s in 0..sensors {
                if let Ok(p) = handle.forecast(s, 1) {
                    bits.push((p.mean.to_bits(), p.variance.to_bits()));
                }
                let _ = handle.observe(s, (step as f64 * 0.4).sin());
            }
        }
        server.shutdown();
        if traced {
            trace::clear_sink();
        }
        bits
    };
    let plain = run(false);
    let traced = run(true);
    !plain.is_empty() && plain == traced
}

/// Run the observability benchmark and return the report.
pub fn run(scale: ObsBenchScale) -> ObsBenchReport {
    let trace_path = std::env::temp_dir().join(format!(
        "smiler-bench-obs-{}-{}.jsonl",
        std::process::id(),
        scale.repeats
    ));
    // One discarded warmup per mode: first-touch allocation and page
    // faults land outside the measured repeats.
    let _ = run_once(&scale);
    let _ = run_once_traced(&scale, &trace_path);

    let mut plain_runs = Vec::new();
    let mut traced_runs = Vec::new();
    for _ in 0..scale.repeats.max(1) {
        // Interleave so clock drift and thermal state hit both modes.
        plain_runs.push(run_once(&scale));
        traced_runs.push(run_once_traced(&scale, &trace_path));
    }

    let plain = summarise(false, &plain_runs);
    let traced_loads: Vec<LoadReport> = traced_runs.iter().map(|r| r.load.clone()).collect();
    let traced = summarise(true, &traced_loads);

    let throughput_pct = inflation_pct(traced.best_throughput_rps, plain.best_throughput_rps);
    let latency_p50_pct = inflation_pct(plain.best_latency_p50_ms, traced.best_latency_p50_ms);
    let median_latency_p50_pct =
        inflation_pct(plain.median_latency_p50_ms, traced.median_latency_p50_ms);
    let trace_ns_per_record = trace_path_ns_per_record(&trace_path);
    let per_request_ns = plain.best_latency_p50_ms * 1_000_000.0;
    let direct_pct = if per_request_ns > 0.0 && trace_ns_per_record.is_finite() {
        trace_ns_per_record / per_request_ns * 100.0
    } else {
        0.0
    };
    let overhead = OverheadReport {
        throughput_pct,
        latency_p50_pct,
        median_latency_p50_pct,
        trace_ns_per_record,
        direct_pct,
        within_budget: direct_pct <= OVERHEAD_BUDGET_PCT,
    };

    let audit = TraceAuditReport {
        runs: traced_runs.len(),
        records: traced_runs.iter().map(|r| r.records).sum(),
        schema_valid: traced_runs.iter().all(|r| r.schema_valid),
        complete: traced_runs.iter().all(|r| r.complete),
        write_errors: traced_runs.iter().map(|r| r.write_errors).sum(),
    };

    ObsBenchReport {
        bench: "obs".to_string(),
        scale,
        plain,
        traced,
        overhead,
        trace: audit,
        predictions_bitwise_identical: predictions_bitwise_identical(&scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_audits_traces_and_stays_bitwise_identical() {
        let scale = ObsBenchScale::smoke();
        let report = run(scale);
        assert_eq!(report.bench, "obs");
        let per_run = (scale.clients * scale.requests_per_client) as u64;
        assert_eq!(report.trace.runs, scale.repeats);
        // `>=`, not `==`: the trace sink is process-global, and sibling
        // bench tests that serve traffic (e.g. servebench's smoke) may run
        // concurrently and land extra terminals in our sink. Their records
        // are still schema-valid; strict completeness is asserted by the
        // single-purpose `expt bench-obs` process in CI instead.
        assert!(report.trace.records >= per_run * scale.repeats as u64);
        assert!(report.trace.schema_valid, "trace records must validate");
        assert_eq!(report.trace.write_errors, 0);
        assert!(report.predictions_bitwise_identical);
        assert!(report.plain.median_throughput_rps > 0.0);
        assert!(report.traced.median_throughput_rps > 0.0);
        // Overhead percentages must at least be computable (finite).
        assert!(report.overhead.throughput_pct.is_finite());
        assert!(report.overhead.latency_p50_pct.is_finite());
        // The gated number: a full trace lifecycle costs microseconds
        // against a multi-millisecond request — orders of magnitude under
        // the budget even on a noisy machine.
        assert!(report.overhead.trace_ns_per_record > 0.0);
        assert!(report.overhead.direct_pct.is_finite() && report.overhead.direct_pct >= 0.0);
        assert!(report.overhead.within_budget, "overhead: {:?}", report.overhead);
    }

    #[test]
    fn median_is_nan_safe() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN]), 0.0);
        assert_eq!(median(&[2.0, f64::NAN, 1.0, 3.0]), 2.0);
        assert_eq!(inflation_pct(0.0, 5.0), 0.0);
        assert_eq!(inflation_pct(10.0, 11.0), 10.000000000000009);
    }
}
