//! Observability-overhead snapshot: what request tracing costs.
//!
//! `expt bench-obs` serves the same one-in-flight request stream through
//! `smiler_core::serve` twice — tracing off, then a JSONL file sink
//! capturing every terminal trace — and writes `BENCH_obs.json`. The
//! untraced run gives the denominator (the median latency of one served GP
//! forecast, the system's unit of work), the traced run gives the trace
//! audit (one schema-valid terminal record per submission, no write
//! errors), and the two together prove tracing is bitwise invisible to
//! predictions. The numerator is a tight loop timing one full trace
//! lifecycle through a real file sink. The committed snapshot is the
//! budget observability PRs are judged against: the trace path must stay
//! under five percent of a served request. (A cached-search AR forecast
//! costs ~0.09 ms, less than twenty trace records: that traffic is for
//! `--trace-sample`, not for this budget. Tracing's effect on loaded
//! throughput is the benchmark's `loadgen.trace_overhead_share`.)

use serde::Serialize;
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_obs::trace::{self, validate_trace_line, TraceConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Overhead the tracing path is allowed to add, in percent.
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// The `lineage` note of every report: what the denominator is, and what
/// the committed default-scale snapshot read under the method it replaced.
const LINEAGE: &str = "direct_pct = trace_ns_per_record / overhead.request_median_ms, the median \
    one-in-flight GP-forecast latency of the untraced run (no queue wait). Through PR 14 the \
    denominator was the best 8-client closed-loop p50 (16.16 ms at default scale, queue wait \
    included), which read direct_pct = 0.0447.";

/// Scale of one bench-obs run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ObsBenchScale {
    /// Sensors in the fleet.
    pub sensors: usize,
    /// Days of road history per sensor.
    pub days: usize,
    /// Forecast-then-observe rounds over the whole fleet, per run.
    pub rounds: usize,
}

impl ObsBenchScale {
    /// Default scale: a few hundred GP forecasts per run, so the median
    /// is not one sensor's cold start.
    pub fn default_scale() -> Self {
        ObsBenchScale { sensors: 12, days: 4, rounds: 16 }
    }

    /// CI-sized smoke scale: a GP fleet trains cold on every run, so the
    /// fleet is as small as the audit allows.
    pub fn smoke() -> Self {
        ObsBenchScale { sensors: 2, days: 2, rounds: 5 }
    }

    /// Forecasts one run submits.
    fn requests(&self) -> u64 {
        (self.sensors * self.rounds) as u64
    }
}

/// Cost of tracing relative to a served request.
///
/// A tight loop times one full trace lifecycle (begin, milestone marks,
/// finish, serialise, submit through a real file sink); the gate is that
/// cost as a fraction of the untraced run's median request latency. With
/// one request in flight there is no queueing in the denominator, so it is
/// the smallest latency a GP forecast is ever served at.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadReport {
    /// Median submit-to-answer latency of the untraced run's forecasts,
    /// milliseconds.
    pub request_median_ms: f64,
    /// Direct cost of one full trace lifecycle, nanoseconds per record.
    pub trace_ns_per_record: f64,
    /// `trace_ns_per_record` as a percentage of `request_median_ms` — the
    /// gated number.
    pub direct_pct: f64,
    /// Whether [`OverheadReport::direct_pct`] stays under
    /// [`OVERHEAD_BUDGET_PCT`].
    pub within_budget: bool,
}

/// Audit of the trace stream the traced run produced.
#[derive(Debug, Clone, Serialize)]
pub struct TraceAuditReport {
    /// Terminal trace records written.
    pub records: u64,
    /// Every record passed [`validate_trace_line`].
    pub schema_valid: bool,
    /// Exactly one terminal per submission
    /// (`emitted + sampled_out == requests`), all of them in the file.
    pub complete: bool,
    /// Records lost to I/O errors.
    pub write_errors: u64,
}

/// The committed `BENCH_obs.json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ObsBenchReport {
    /// Record identifier.
    pub bench: String,
    /// How the gated ratio is formed, and what it read under the method
    /// this one replaced.
    pub lineage: String,
    /// The run's scale parameters.
    pub scale: ObsBenchScale,
    /// Derived tracing cost.
    pub overhead: OverheadReport,
    /// Trace-stream audit of the traced run.
    pub trace: TraceAuditReport,
    /// Both runs answered every forecast, with bit-identical predictions.
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

/// What one sequential served run answered and how fast.
struct SequentialRun {
    /// Raw bits of every answered forecast, in submission order.
    bits: Vec<(u64, u64)>,
    /// Submit-to-answer latency of every answered forecast, milliseconds.
    latencies_ms: Vec<f64>,
}

/// Serve `scale.rounds` forecast-then-observe rounds over the fleet with
/// one request in flight. Every forecast follows an observation of its
/// sensor, so each one is a full search + GP fit, never a cached answer.
fn serve_sequentially(scale: &ObsBenchScale) -> SequentialRun {
    let device = Arc::new(Device::default_gpu());
    let fleet = build_fleet(&device, scale.sensors, scale.days);
    let server = SmilerServer::start(device, fleet, ServeConfig::default());
    let handle = server.handle();
    let mut run = SequentialRun { bits: Vec::new(), latencies_ms: Vec::new() };
    for round in 0..scale.rounds {
        for s in 0..scale.sensors {
            let submitted = Instant::now();
            if let Ok(p) = handle.forecast(s, 1) {
                run.latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                run.bits.push((p.mean.to_bits(), p.variance.to_bits()));
            }
            let _ = handle.observe(s, (round as f64 * 0.4).sin());
        }
    }
    server.shutdown();
    run
}

/// The same run through a file sink, and the audit of the file it wrote.
fn serve_sequentially_traced(
    scale: &ObsBenchScale,
    path: &Path,
) -> (SequentialRun, TraceAuditReport) {
    let installed = trace::install_file_sink(path, TraceConfig::default()).is_ok();
    let run = serve_sequentially(scale);
    trace::flush_sink();
    let stats = trace::sink_stats().unwrap_or_default();
    trace::clear_sink();
    let contents = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    let lines: Vec<&str> = contents.lines().collect();
    let schema_valid =
        installed && !lines.is_empty() && lines.iter().all(|l| validate_trace_line(l).is_ok());
    // Default sampling keeps everything, so the file itself must carry one
    // terminal per submission; `sampled_out` is counted for completeness
    // anyway so a future sampled bench keeps the invariant meaningful.
    let complete = installed
        && stats.write_errors == 0
        && stats.emitted + stats.sampled_out == scale.requests()
        && lines.len() as u64 == stats.emitted;
    let write_errors = stats.write_errors;
    (run, TraceAuditReport { records: stats.emitted, schema_valid, complete, write_errors })
}

/// Tight-loop measurement of the full per-request trace cost: allocate a
/// trace, stamp the serving milestones a served request accrues, finish
/// it, and submit it through a real file sink (JSON serialisation and
/// buffered write included).
fn trace_path_ns_per_record(path: &Path) -> f64 {
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

/// Run the observability benchmark and return the report.
pub fn run(scale: ObsBenchScale) -> ObsBenchReport {
    let trace_path =
        std::env::temp_dir().join(format!("smiler-bench-obs-{}.jsonl", std::process::id()));
    let plain = serve_sequentially(&scale);
    let (traced, audit) = serve_sequentially_traced(&scale, &trace_path);

    let request_median_ms = median(&plain.latencies_ms);
    let trace_ns_per_record = trace_path_ns_per_record(&trace_path);
    let direct_pct = if request_median_ms > 0.0 {
        trace_ns_per_record / (request_median_ms * 1e6) * 100.0
    } else {
        0.0
    };
    let overhead = OverheadReport {
        request_median_ms,
        trace_ns_per_record,
        direct_pct,
        within_budget: direct_pct <= OVERHEAD_BUDGET_PCT,
    };

    ObsBenchReport {
        bench: "obs".to_string(),
        lineage: LINEAGE.to_string(),
        scale,
        overhead,
        trace: audit,
        predictions_bitwise_identical: plain.bits.len() as u64 == scale.requests()
            && plain.bits == traced.bits,
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
        assert!(report.overhead.request_median_ms > 0.0);
        // `>=`, not `==`: the trace sink is process-global, and sibling
        // bench tests that serve traffic (clusterbench's smoke) may run
        // concurrently and land extra terminals in our sink. Their records
        // are still schema-valid; strict completeness is asserted by the
        // single-purpose `expt bench-obs` process in CI instead.
        assert!(report.trace.records >= scale.requests());
        assert!(report.trace.schema_valid, "trace records must validate");
        assert_eq!(report.trace.write_errors, 0);
        assert!(report.predictions_bitwise_identical);
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
    }
}
