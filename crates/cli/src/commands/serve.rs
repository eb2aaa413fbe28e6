//! `smiler serve`: sharded load-serving over a synthetic fleet.

use super::store::{open_or_create, store_config_from_args};
use super::{dataset_kind, predictor_kind, synthetic_histories, with_adaptation, CliError, Run};
use crate::args::{any, at_least_one, positive, ArgError, Args};
use smiler_core::sensor::SmilerConfig;
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::SensorPredictor;
use smiler_gpu::Device;
use smiler_timeseries::synthetic::SyntheticSpec;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `smiler serve`: sharded load-serving over a synthetic fleet.
pub(super) fn serve(args: &mut Args) -> Result<Run, CliError> {
    let shards: usize = args.get_or("shards", 2, at_least_one)?;
    let sensors: usize = args.get_or("sensors", 8, at_least_one)?;
    let clients: usize = args.get_or("clients", 4, at_least_one)?;
    let requests: usize = args.get_or("requests", 64, at_least_one)?;
    let total_requests = clients.checked_mul(requests).ok_or_else(|| ArgError::Invalid {
        flag: "requests".to_string(),
        value: requests.to_string(),
    })?;
    let horizon: u32 = args.get_or("horizon", 1, at_least_one)?;
    let queue: usize = args.get_or("queue", 64, at_least_one)?;
    let days: usize = args.get_or("days", 2, at_least_one)?;
    let seed: u64 = args.get_or("seed", 7, any)?;
    // The offered rate must also leave the run a schedulable span.
    let schedulable = |qps: f64| {
        positive(qps).filter(|&q| Duration::try_from_secs_f64(total_requests as f64 / q).is_ok())
    };
    let qps = args.get_or("qps", clients as f64 * 250.0, schedulable)?;
    let deadline = args.get_parsed("deadline-ms", any)?.map(Duration::from_millis);
    let slo_ms: u64 = args.get_or("slo-ms", 50, any)?;
    let listen = args.get("listen")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    // A bucket holding less than one token never admits a request.
    let whole_token = |b: f64| (b.is_finite() && b >= 1.0).then_some(b);
    let qos = match (
        args.get_parsed("qos-rate", positive)?,
        args.get_parsed("qos-burst", whole_token)?,
    ) {
        (Some(rate), burst) => {
            Some(smiler_net::qos::QosConfig { rate, burst: burst.unwrap_or(rate * 2.0) })
        }
        (None, None) => None,
        (None, Some(_)) => return Err(CliError::Other("--qos-burst needs --qos-rate".to_string())),
    };
    let trace_requests_out = args.get("trace-requests-out")?.map(std::path::PathBuf::from);
    let trace_sample: u64 = args.get_or("trace-sample", 1, at_least_one)?;
    // A period that is not a positive, representable number of seconds
    // turns the ticker off.
    let status_every = args
        .get_parsed("status-every", any)?
        .and_then(|seconds: f64| Duration::try_from_secs_f64(seconds).ok())
        .filter(|period| !period.is_zero());
    let predictor_kind = predictor_kind(args, "ar")?;
    let kind = dataset_kind(args.get("dataset")?.as_deref().unwrap_or("road"))?;
    let data_dir = args.get("data-dir")?.map(std::path::PathBuf::from);
    let store_config = store_config_from_args(args)?;
    let config =
        with_adaptation(args, SmilerConfig { h_max: horizon as usize, ..Default::default() });
    Ok(Box::new(move || {
        let device = Arc::new(Device::default_gpu());
        let mut durability_note = String::new();
        let spec = SyntheticSpec { kind, sensors, days, seed };
        let (fleet, store) = match data_dir {
            Some(dir) => {
                let (fleet, store, report) = open_or_create(
                    &device,
                    &dir,
                    store_config,
                    config.clone(),
                    predictor_kind,
                    || synthetic_histories(spec),
                )?;
                let _ = match report {
                    Some(report) => writeln!(
                        durability_note,
                        "restored {} sensors from {} (checkpoint seq {}, replayed {} rounds + \
                         {} observes in {:.3}s)",
                        report.sensors,
                        dir.display(),
                        report.checkpoint_seq,
                        report.replayed_rounds,
                        report.replayed_observes,
                        report.open_seconds + report.rebuild_seconds + report.replay_seconds,
                    ),
                    None => writeln!(durability_note, "created durable state at {}", dir.display()),
                };
                (fleet, Some(store))
            }
            None => {
                let predictor = |(id, history)| {
                    SensorPredictor::new(
                        Arc::clone(&device),
                        id,
                        history,
                        config.clone(),
                        predictor_kind,
                    )
                };
                (synthetic_histories(spec).into_iter().enumerate().map(predictor).collect(), None)
            }
        };
        let sensors = fleet.len();

        let serve_config = ServeConfig {
            shards,
            queue_capacity: queue,
            slo_target: Duration::from_millis(slo_ms),
            ..ServeConfig::default()
        };
        // Request tracing rides the whole serving run: install the sink before
        // the server starts so admission sees it active from the first request.
        if let Some(path) = &trace_requests_out {
            let trace_config =
                smiler_obs::trace::TraceConfig { sample_every: trace_sample, ..Default::default() };
            smiler_obs::trace::install_file_sink(path, trace_config).map_err(|e| {
                CliError::Other(format!("cannot open trace sink {}: {e}", path.display()))
            })?;
        }
        device.reset_clock();
        let server = match store {
            Some(store) => SmilerServer::start_with_store(
                Arc::clone(&device),
                fleet,
                serve_config,
                smiler_store::shared(store),
            ),
            None => SmilerServer::start(Arc::clone(&device), fleet, serve_config),
        };
        let handle = server.handle();
        // Live status ticker: a line to stderr every --status-every seconds
        // while the load runs (stderr so it never mixes into the report).
        let ticker_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ticker = status_every.map(|period| {
            let handle = handle.clone();
            let stop = Arc::clone(&ticker_stop);
            std::thread::spawn(move || {
                let mut last = std::time::Instant::now();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25).min(period));
                    if last.elapsed() >= period {
                        eprintln!("{}", handle.status_report().render_line());
                        last = std::time::Instant::now();
                    }
                }
            })
        });
        // The fleet is always served over a real socket (port 0 = any free
        // port) and driven by the open-loop wire harness.
        let net_config = smiler_net::NetConfig { qos, ..smiler_net::NetConfig::default() };
        let net = smiler_net::NetServer::bind(listen.as_str(), handle.clone(), net_config)
            .map_err(|e| CliError::Other(format!("cannot listen on {listen}: {e}")))?;
        let bound = net.local_addr();
        let gen = smiler_net::NetLoadGen {
            connections: clients,
            requests: total_requests,
            rps: qps,
            horizon,
            deadline,
            tenant: 0,
            seed,
        };
        let report = smiler_net::run_net_load(bound, sensors, &gen)
            .map_err(|e| CliError::Other(format!("wire load failed: {e}")))?;
        net.shutdown();
        let status = handle.status_report();
        ticker_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(ticker) = ticker {
            let _ = ticker.join();
        }
        let stats = server.shutdown();
        let trace_stats = trace_requests_out.as_ref().map(|path| {
            smiler_obs::trace::flush_sink();
            let stats = smiler_obs::trace::sink_stats().unwrap_or_default();
            // Drop the sink: commands run in-process (tests, library use), so
            // tracing must not leak past this serve run.
            smiler_obs::trace::clear_sink();
            (path.clone(), stats)
        });

        let mut out = String::new();
        out.push_str(&durability_note);
        let _ = writeln!(out, "served {} sensors across {shards} shards (queue {queue})", sensors);
        let _ = writeln!(out, "listened on {bound} (SMLRNET binary protocol + HTTP/JSON gateway)");
        let _ = writeln!(
            out,
            "open-loop wire load: {} connections, {} requests offered at {:.1} req/s",
            gen.connections, report.requests, report.offered_rps
        );
        let _ = writeln!(
            out,
            "requests: {} ok, {} shed, {} throttled, {} errors, {} deadline-missed",
            report.ok, report.shed, report.throttled, report.errors, report.deadline_missed
        );
        let _ = writeln!(
            out,
            "achieved: {:.1} req/s over {:.2} s",
            report.achieved_rps, report.elapsed_seconds
        );
        let _ = writeln!(
            out,
            "latency ms (from scheduled issue): p50 {:.2}  p95 {:.2}  p99 {:.2}  p999 {:.2}  \
             max {:.2}",
            report.p50_ms, report.p95_ms, report.p99_ms, report.p999_ms, report.max_ms
        );
        let _ = writeln!(
            out,
            "micro-batching: {} batches, mean size {:.2}, {} timeouts",
            stats.batches,
            stats.mean_batch_size(),
            stats.timeouts
        );
        let _ = writeln!(
            out,
            "device: {} kernel launches, {} blocks",
            device.kernel_launches(),
            device.blocks_launched()
        );
        if let Some((path, t)) = trace_stats {
            let _ = writeln!(
                out,
                "request traces: {} emitted, {} sampled out, {} write errors -> {}",
                t.emitted,
                t.sampled_out,
                t.write_errors,
                path.display()
            );
        }
        let _ = writeln!(out, "status: {}", status.render_line());
        Ok(out)
    }))
}
