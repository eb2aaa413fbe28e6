//! CLI command implementations. Each command returns its report as a
//! `String` so the logic is unit-testable; `main` only prints.

use crate::args::{ArgError, Args};
use smiler_baselines::holtwinters::HoltWinters;
use smiler_baselines::lazyknn::{LazyKnn, LazyKnnConfig};
use smiler_baselines::linear::{self, LinearConfig};
use smiler_baselines::SeriesPredictor;
use smiler_cluster::{
    rebalance_plan, Follower, FollowerConfig, Placement, PrimaryConfig, ReplicationPrimary,
};
use smiler_core::eval::{evaluate, EvalConfig};
use smiler_core::sensor::{SmilerConfig, SmilerForecaster};
use smiler_core::serve::{ServeConfig, SmilerServer};
use smiler_core::{DurableError, DurableSystem, PredictorKind, RequestPolicy, SensorPredictor};
use smiler_gpu::Device;
use smiler_store::{FlushPolicy, StoreConfig};
use smiler_timeseries::io;
use smiler_timeseries::normalize::ZNorm;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::fmt::Write as _;
use std::sync::Arc;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgError),
    /// Series I/O problem.
    Io(io::IoError),
    /// Anything else worth explaining.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<io::IoError> for CliError {
    fn from(e: io::IoError) -> Self {
        CliError::Io(e)
    }
}

impl From<DurableError> for CliError {
    fn from(e: DurableError) -> Self {
        CliError::Other(e.to_string())
    }
}

/// Usage text.
pub const USAGE: &str = "\
smiler — semi-lazy time series prediction for sensors (SIGMOD'15 reproduction)

USAGE:
  smiler forecast --input <file> [--column <name>] [--horizons 1,6]
                  [--predictor gp|ar] [--warmup 16] [--interval]
                  [--deadline-ms <ms>] [--regime] [--robust]
  smiler evaluate --input <file> [--column <name>] [--steps 50]
                  [--horizons 1,5,10] [--models smiler-gp,smiler-ar,lazyknn,...]
  smiler generate --dataset road|mall|net [--days 14] [--seed 7]
  smiler serve --shards <N> [--qps <rate>] [--sensors 8] [--clients 4]
               [--requests 64] [--horizon 1] [--deadline-ms <ms>]
               [--queue 64] [--predictor gp|ar]
               [--dataset road|mall|net] [--days 2] [--seed 7]
               [--data-dir <dir>] [--flush always|every-<n>|interval-<ms>]
               [--trace-requests-out <path>] [--trace-sample <n>]
               [--status-every <s>] [--slo-ms <ms>]
               [--listen <addr>] [--qos-rate <r> [--qos-burst <b>]]
               [--regime] [--robust]
  smiler checkpoint --data-dir <dir> [--flush <policy>]
  smiler restore --data-dir <dir> [--flush <policy>]
  smiler cluster --role primary --data-dir <dir> [--listen <addr>]
                 [--sensors 4] [--rounds 32] [--round-ms 50]
                 [--wait-followers <n>] [--epoch 0]
  smiler cluster --role follower --peers <addr[,addr]> --data-dir <dir>
                 [--node-id <name>] [--duration-s 5] [--on-loss exit|promote]
  smiler cluster --role demo [--sensors 4] [--rounds 8] [--data-dir <dir>]
  smiler cluster --role plan --peers <n1,n2,...> [--sensors 64]
                 [--add-node <name>] [--remove-node <name>]
  smiler info

Series files are one-value-per-line or CSV (use --column for a named CSV
column). Forecasts are printed in the input's units.

LOAD SERVING (serve):
  Partitions a synthetic sensor fleet across --shards worker threads, puts
  the smiler-net TCP frontend in front of it, and drives it with the
  open-loop wire harness: Poisson arrivals at the aggregate --qps
  (default 250 per client) over --clients connections, latency measured
  from each request's scheduled issue time. Forecasts already queued on a
  shard are micro-batched into one fleet search — one simulated GPU
  launch per phase serves many sensors; a worker never waits for more. A
  full shard queue sheds requests with a typed Overloaded error.
  --listen <addr>        where the frontend listens (default 127.0.0.1:0;
                         port 0 picks a free port). The same listener
                         speaks the SMLRNET binary protocol and an
                         HTTP/JSON gateway (GET /forecast, POST
                         /observe, GET /status, GET /healthz) — try
                         curl 'http://<addr>/forecast?sensor=0&h=3'.
  --qos-rate <r>         per-tenant token-bucket admission: sustained
                         requests/second per tenant (tenant id travels in
                         the frame header / ?tenant= query parameter)
  --qos-burst <b>        bucket capacity in tokens (default 2×rate)

SERVING (forecast):
  --deadline-ms <ms>     per-request latency budget; requests degrade down
                         the ladder (full ensemble → cached hyperparameters
                         → aggregation → last-value hold) instead of blowing
                         the budget. Each forecast line reports the rung
                         that served it.

PERSISTENCE:
  serve --data-dir <dir> makes the fleet durable: every observation is
  WAL-logged before the sensor absorbs it, and shutdown checkpoints the
  drained fleet. Restarting with the same --data-dir restores from the
  newest valid checkpoint plus WAL-tail replay — bitwise-identical to a
  fleet that never stopped. `smiler checkpoint` folds the WAL tail into a
  fresh checkpoint (bounding restart time); `smiler restore` runs recovery
  and reports what it found (use --metrics-out for the store.* series).
  --flush picks the group-commit fsync cadence (default every-32).

ADAPTATION (forecast, serve):
  --regime               arm the online regime detector: a CUSUM over
                         standardized one-step residuals declares
                         changepoints (λ reset + forced retrain + residual
                         bias correction) and flags/cleans isolated
                         outliers before they enter the history. Off by
                         default; a detector that never fires leaves
                         forecasts bitwise unchanged.
  --robust               fit GP cells with an outlier-downweighted
                         (median/MAD winsorized) likelihood, robust to
                         dirty neighbourhoods. Off by default.

OBSERVABILITY (any command):
  --metrics-out <path>   write end-of-run metrics as JSON lines (includes
                         the health.* serving counters: degradation rungs,
                         deadline misses, GP failures)
  --trace-out <path>     write the event/span trace as JSON lines
  --quiet                suppress the human-readable summary table

CLUSTERING (cluster):
  A primary ships its WAL (segments + checkpoint for bootstrap, then a
  streaming tail) to followers over the SMLRREPL protocol; followers tail
  the log into their own --data-dir and serve slightly-stale forecasts,
  shedding writes with a typed NotPrimary error that names the leader.
  --role primary        run a durable fleet, replicate to connecting
                        followers, and drive --rounds of observations
                        (the primary prints its replication address to
                        stderr as soon as it binds)
  --role follower       bootstrap from --peers, tail the log for
                        --duration-s seconds; --on-loss promote runs the
                        recovery ladder over the follower's own directory
                        when the primary dies and serves a first forecast
  --role demo           single-process kill/promote walkthrough: primary +
                        follower, kill the primary mid-run, promote, and
                        verify the promoted forecasts are bitwise
                        identical to the dead primary's
  --role plan           rendezvous-placement dry run: sensor ownership per
                        node, and the minimal migration plan for
                        --add-node / --remove-node

REQUEST TRACING & STATUS (serve):
  --trace-requests-out <path>  write one JSON line per finished request
                         (trace id, shard, batch id, rung, degradation
                         reason, queue/total latency, event timeline).
                         Tail-sampled: slow, degraded, shed, or faulted
                         requests are always kept.
  --trace-sample <n>     keep 1-in-<n> fast healthy full-ensemble traces
                         (default 1 = keep all; the tail is always kept)
  --status-every <s>     print a live fleet status line to stderr every
                         <s> seconds (tail latency, rung mix, SLO burn)
  --slo-ms <ms>          end-to-end latency SLO target for error-budget
                         accounting in the status line (default 50)
";

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    if args.switch("help") {
        return Ok(USAGE.to_string());
    }
    let metrics_out = args.get("metrics-out").map(std::path::PathBuf::from);
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    let observing = metrics_out.is_some() || trace_out.is_some();
    if observing {
        smiler_obs::reset();
        smiler_obs::set_enabled(true);
    }
    let mut output = match args.command.as_deref() {
        Some("forecast") => forecast(args),
        Some("evaluate") => evaluate_cmd(args),
        Some("generate") => generate(args),
        Some("serve") => serve(args),
        Some("checkpoint") => checkpoint_cmd(args),
        Some("restore") => restore_cmd(args),
        Some("cluster") => cluster(args),
        Some("info") => Ok(info()),
        Some(other) => Err(CliError::Other(format!("unknown command {other:?}\n\n{USAGE}"))),
        None => Ok(USAGE.to_string()),
    }?;
    if observing {
        if let Some(path) = &metrics_out {
            smiler_obs::write_metrics_jsonl(path).map_err(|e| {
                CliError::Other(format!("cannot write metrics to {}: {e}", path.display()))
            })?;
        }
        if let Some(path) = &trace_out {
            smiler_obs::write_trace_jsonl(path).map_err(|e| {
                CliError::Other(format!("cannot write trace to {}: {e}", path.display()))
            })?;
        }
        if !args.switch("quiet") {
            let table = smiler_obs::summary_table();
            if !table.is_empty() {
                output.push_str("\n-- observability summary --\n");
                output.push_str(&table);
            }
        }
    }
    Ok(output)
}

fn load_series(args: &Args) -> Result<Vec<f64>, CliError> {
    let path = args.require("input")?;
    Ok(io::read_series_file(path, args.get("column"))?)
}

/// The adaptation switches shared by `forecast` and `serve`: `--regime`
/// arms the changepoint/outlier detector (λ reset, forced retrain, bias
/// correction, outlier cleaning on fire), `--robust` the
/// outlier-downweighted GP likelihood. Both default off — the
/// paper-faithful fixed schedule, bit for bit.
fn with_adaptation(args: &Args, mut config: SmilerConfig) -> SmilerConfig {
    if args.switch("regime") {
        config.regime = smiler_core::RegimeConfig::enabled();
    }
    if args.switch("robust") {
        config.robust = smiler_core::RobustSpec::enabled();
    }
    config
}

/// `smiler forecast`: multi-horizon forecasts off the end of a series.
fn forecast(args: &Args) -> Result<String, CliError> {
    let raw = load_series(args)?;
    let horizons = args.get_list("horizons", &[1, 6])?;
    let h_max = *horizons.iter().max().expect("non-empty horizons");
    let predictor_kind = match args.get("predictor").unwrap_or("gp") {
        "gp" => PredictorKind::GaussianProcess,
        "ar" => PredictorKind::Aggregation,
        other => return Err(CliError::Other(format!("unknown predictor {other:?} (gp|ar)"))),
    };

    let config = with_adaptation(args, SmilerConfig { h_max, ..Default::default() });
    let d_master = *config.ensemble.elv.iter().max().expect("non-empty ELV");
    let needed = d_master + h_max + 1;
    if raw.len() < needed {
        return Err(CliError::Other(format!(
            "need at least {needed} observations for the default configuration, got {}",
            raw.len()
        )));
    }

    // Normalise in, de-normalise out: users think in sensor units.
    let znorm = ZNorm::fit(&raw);
    let normalised = znorm.apply_all(&raw);
    let device = Arc::new(Device::default_gpu());

    // Warm-up replay: hold back the last `warmup` observations, then feed
    // them through predict/observe so the ensemble weights (and, for GP,
    // the hyperparameters) adapt to the series before the real forecast —
    // the same continuous loop the paper's system runs. Clamped so the
    // held-back prefix still supports the configuration.
    let warmup = args.get_or("warmup", 16usize)?.min(normalised.len() - needed);
    let split = normalised.len() - warmup;
    let mut predictor =
        SensorPredictor::new(device, 0, normalised[..split].to_vec(), config, predictor_kind);
    for &v in &normalised[split..] {
        let _ = predictor.predict(1);
        predictor.observe(v);
    }

    let deadline_ms: Option<u64> = match args.get("deadline-ms") {
        Some(s) => {
            Some(s.parse().map_err(|_| CliError::Other(format!("invalid --deadline-ms {s:?}")))?)
        }
        None => None,
    };
    let policy = match deadline_ms {
        Some(ms) => RequestPolicy::with_deadline(std::time::Duration::from_millis(ms)),
        None => RequestPolicy::default(),
    };

    let mut out = String::new();
    let _ = writeln!(out, "forecasts from t = {} ({} observations read):", raw.len(), raw.len());
    let want_interval = args.switch("interval");
    let mut missed = 0usize;
    for &h in &horizons {
        let pred = predictor
            .try_predict_with(h, &policy)
            .map_err(|e| CliError::Other(format!("prediction failed: {e}")))?;
        let mean = znorm.invert(pred.mean);
        let sd = znorm.invert_variance(pred.variance).max(0.0).sqrt();
        if want_interval {
            let _ = write!(
                out,
                "t+{h:<4} {mean:12.4}   95% [{:.4}, {:.4}]",
                mean - 1.96 * sd,
                mean + 1.96 * sd
            );
        } else {
            let _ = write!(out, "t+{h:<4} {mean:12.4}");
        }
        if deadline_ms.is_some() {
            let _ = write!(out, "   served={}", pred.level.as_str());
            if pred.deadline_missed {
                missed += 1;
                let _ = write!(out, " (deadline missed)");
            }
        }
        out.push('\n');
    }
    if let Some(ms) = deadline_ms {
        let _ = writeln!(
            out,
            "serving health: deadline {ms} ms, {missed}/{} deadline misses",
            horizons.len()
        );
    }
    Ok(out)
}

/// Model factory for `smiler evaluate`.
fn make_model(
    name: &str,
    device: &Arc<Device>,
    horizons: &[usize],
    period: usize,
) -> Result<Box<dyn SeriesPredictor>, CliError> {
    let h_max = *horizons.iter().max().expect("non-empty");
    let lin = LinearConfig { window: 32, horizons: horizons.to_vec(), ..Default::default() };
    Ok(match name {
        "smiler-gp" => Box::new(SmilerForecaster::gp(
            Arc::clone(device),
            SmilerConfig { h_max, ..Default::default() },
        )),
        "smiler-ar" => Box::new(SmilerForecaster::ar(
            Arc::clone(device),
            SmilerConfig { h_max, ..Default::default() },
        )),
        "lazyknn" => Box::new(LazyKnn::new(LazyKnnConfig::default())),
        "holtwinters" => Box::new(HoltWinters::full(period)),
        "onlinesvr" => Box::new(linear::online_svr(lin)),
        "onlinerr" => Box::new(linear::online_rr(lin)),
        other => {
            return Err(CliError::Other(format!(
            "unknown model {other:?} (smiler-gp|smiler-ar|lazyknn|holtwinters|onlinesvr|onlinerr)"
        )))
        }
    })
}

/// `smiler evaluate`: continuous-prediction comparison on a user series.
fn evaluate_cmd(args: &Args) -> Result<String, CliError> {
    let raw = load_series(args)?;
    let horizons = args.get_list("horizons", &[1, 5, 10])?;
    let steps: usize = args.get_or("steps", 50)?;
    let period: usize = args.get_or("period", 144)?;
    let model_list = args
        .get("models")
        .unwrap_or("smiler-gp,smiler-ar,lazyknn")
        .split(',')
        .map(|s| s.trim().to_lowercase())
        .collect::<Vec<_>>();

    let h_max = *horizons.iter().max().expect("non-empty");
    if raw.len() <= steps + h_max + 1 {
        return Err(CliError::Other(format!(
            "series of {} too short for {steps} steps at horizon {h_max}",
            raw.len()
        )));
    }
    let (normalised, _) = smiler_timeseries::normalize::z_normalize(&raw);

    let config = EvalConfig { horizons: horizons.clone(), steps };
    let device = Arc::new(Device::default_gpu());
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>10} {:>10}   per-horizon MAE", "model", "MAE", "MNLPD");
    for name in &model_list {
        let mut model = make_model(name, &device, &horizons, period)?;
        let r = evaluate(model.as_mut(), &normalised, &config);
        let avg_mae: f64 = r.mae.values().sum::<f64>() / r.mae.len() as f64;
        let avg_nlpd: f64 = r.mnlpd.values().sum::<f64>() / r.mnlpd.len() as f64;
        let detail: Vec<String> = r.mae.iter().map(|(h, m)| format!("h{h}:{m:.3}")).collect();
        let _ =
            writeln!(out, "{:<12} {avg_mae:>10.4} {avg_nlpd:>10.4}   {}", r.name, detail.join(" "));
    }
    Ok(out)
}

/// `smiler generate`: emit a synthetic sensor series to stdout.
fn generate(args: &Args) -> Result<String, CliError> {
    let kind = match args.require("dataset")? {
        "road" => DatasetKind::Road,
        "mall" => DatasetKind::Mall,
        "net" => DatasetKind::Net,
        other => return Err(CliError::Other(format!("unknown dataset {other:?} (road|mall|net)"))),
    };
    let days: usize = args.get_or("days", 14)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let dataset = SyntheticSpec { kind, sensors: 1, days, seed }.generate();
    let mut out = String::with_capacity(dataset.sensors[0].len() * 8);
    let _ = writeln!(out, "# {} synthetic sensor, {days} days, seed {seed}", dataset.name);
    for v in dataset.sensors[0].values() {
        let _ = writeln!(out, "{v}");
    }
    Ok(out)
}

/// `smiler serve`: sharded load-serving over a synthetic fleet.
fn serve(args: &Args) -> Result<String, CliError> {
    let shards: usize = args.get_or("shards", 2)?;
    let sensors: usize = args.get_or("sensors", 8)?;
    let clients: usize = args.get_or("clients", 4)?;
    let requests: usize = args.get_or("requests", 64)?;
    let horizon: usize = args.get_or("horizon", 1)?;
    let queue: usize = args.get_or("queue", 64)?;
    let days: usize = args.get_or("days", 2)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let qps: Option<f64> = match args.get("qps") {
        Some(s) => Some(s.parse().map_err(|_| CliError::Other(format!("invalid --qps {s:?}")))?),
        None => None,
    };
    let deadline = match args.get("deadline-ms") {
        Some(s) => Some(std::time::Duration::from_millis(
            s.parse().map_err(|_| CliError::Other(format!("invalid --deadline-ms {s:?}")))?,
        )),
        None => None,
    };
    let slo_ms: u64 = args.get_or("slo-ms", 50)?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:0");
    let qos = match args.get("qos-rate") {
        Some(s) => {
            let rate: f64 =
                s.parse().map_err(|_| CliError::Other(format!("invalid --qos-rate {s:?}")))?;
            let burst: f64 = match args.get("qos-burst") {
                Some(b) => {
                    b.parse().map_err(|_| CliError::Other(format!("invalid --qos-burst {b:?}")))?
                }
                None => rate * 2.0,
            };
            Some(smiler_net::qos::QosConfig { rate, burst })
        }
        None => None,
    };
    let trace_requests_out = args.get("trace-requests-out").map(std::path::PathBuf::from);
    let trace_sample: u64 = args.get_or("trace-sample", 1)?;
    let status_every = match args.get("status-every") {
        Some(s) => {
            let seconds: f64 =
                s.parse().map_err(|_| CliError::Other(format!("invalid --status-every {s:?}")))?;
            (seconds > 0.0).then(|| std::time::Duration::from_secs_f64(seconds))
        }
        None => None,
    };
    let predictor_kind = match args.get("predictor").unwrap_or("ar") {
        "gp" => PredictorKind::GaussianProcess,
        "ar" => PredictorKind::Aggregation,
        other => return Err(CliError::Other(format!("unknown predictor {other:?} (gp|ar)"))),
    };
    let kind = match args.get("dataset").unwrap_or("road") {
        "road" => DatasetKind::Road,
        "mall" => DatasetKind::Mall,
        "net" => DatasetKind::Net,
        other => return Err(CliError::Other(format!("unknown dataset {other:?} (road|mall|net)"))),
    };

    let config =
        with_adaptation(args, SmilerConfig { h_max: horizon.max(1), ..Default::default() });
    let device = Arc::new(Device::default_gpu());
    let mut durability_note = String::new();
    let (fleet, store) = match args.get("data-dir").map(std::path::PathBuf::from) {
        Some(dir) => {
            let store_config = store_config_from_args(args)?;
            // Warm restart if the directory holds fleet state; cold-start a
            // synthetic fleet into it otherwise. Serving checkpoints on
            // drain, so the in-run checkpoint cadence stays 0.
            match DurableSystem::open(Arc::clone(&device), &dir, store_config.clone(), 0) {
                Ok((durable, report)) => {
                    let _ = writeln!(
                        durability_note,
                        "restored {} sensors from {} (checkpoint seq {}, replayed {} rounds + \
                         {} observes in {:.3}s)",
                        report.sensors,
                        dir.display(),
                        report.checkpoint_seq,
                        report.replayed_rounds,
                        report.replayed_observes,
                        report.open_seconds + report.rebuild_seconds + report.replay_seconds,
                    );
                    let (system, store) = durable.into_parts();
                    (system.into_sensors(), Some(store))
                }
                Err(DurableError::NoState) => {
                    let dataset = SyntheticSpec { kind, sensors, days, seed }.generate();
                    let histories: Vec<Vec<f64>> = dataset
                        .sensors
                        .iter()
                        .map(|s| smiler_timeseries::normalize::z_normalize(s.values()).0)
                        .collect();
                    let (durable, _) = DurableSystem::create(
                        Arc::clone(&device),
                        histories,
                        config.clone(),
                        predictor_kind,
                        &dir,
                        store_config,
                        0,
                    )?;
                    let _ = writeln!(durability_note, "created durable state at {}", dir.display());
                    let (system, store) = durable.into_parts();
                    (system.into_sensors(), Some(store))
                }
                Err(e) => return Err(e.into()),
            }
        }
        None => {
            let dataset = SyntheticSpec { kind, sensors, days, seed }.generate();
            let fleet: Vec<SensorPredictor> = dataset
                .sensors
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let (normalised, _) = smiler_timeseries::normalize::z_normalize(s.values());
                    SensorPredictor::new(
                        Arc::clone(&device),
                        id,
                        normalised,
                        config.clone(),
                        predictor_kind,
                    )
                })
                .collect();
            (fleet, None)
        }
    };
    let sensors = fleet.len();

    let serve_config = ServeConfig {
        shards,
        queue_capacity: queue,
        slo_target: std::time::Duration::from_millis(slo_ms),
        ..ServeConfig::default()
    };
    // Request tracing rides the whole serving run: install the sink before
    // the server starts so admission sees it active from the first request.
    if let Some(path) = &trace_requests_out {
        let trace_config = smiler_obs::trace::TraceConfig {
            sample_every: trace_sample.max(1),
            ..Default::default()
        };
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
                std::thread::sleep(std::time::Duration::from_millis(25).min(period));
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
    let net = smiler_net::NetServer::bind(listen, handle.clone(), net_config)
        .map_err(|e| CliError::Other(format!("cannot listen on {listen}: {e}")))?;
    let bound = net.local_addr();
    let connections = clients.max(1);
    let gen = smiler_net::NetLoadGen {
        connections,
        requests: connections * requests,
        rps: qps.unwrap_or((connections * 250) as f64),
        horizon: horizon.max(1) as u32,
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
}

fn store_config_from_args(args: &Args) -> Result<StoreConfig, CliError> {
    let flush = match args.get("flush") {
        Some(s) => s.parse::<FlushPolicy>().map_err(CliError::Other)?,
        None => FlushPolicy::default(),
    };
    Ok(StoreConfig { flush, ..StoreConfig::default() })
}

fn restore_report_lines(out: &mut String, report: &smiler_core::RestoreReport) {
    let _ = writeln!(
        out,
        "restored {} sensors from checkpoint seq {}",
        report.sensors, report.checkpoint_seq
    );
    let _ = writeln!(
        out,
        "replayed {} fleet rounds + {} observations from the WAL tail",
        report.replayed_rounds, report.replayed_observes
    );
    let _ = writeln!(
        out,
        "repairs: {} checkpoint(s) quarantined, {} WAL segment(s) quarantined, \
         {} torn byte(s) truncated",
        report.quarantined_checkpoints, report.quarantined_segments, report.truncated_bytes
    );
    let _ = writeln!(
        out,
        "timings: open {:.3}s, restore {:.3}s, replay {:.3}s",
        report.open_seconds, report.rebuild_seconds, report.replay_seconds
    );
}

/// `smiler checkpoint`: fold the WAL tail into a fresh checkpoint so the
/// next restart replays (almost) nothing, then prune covered WAL segments.
fn checkpoint_cmd(args: &Args) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let device = Arc::new(Device::default_gpu());
    let (mut durable, report) =
        DurableSystem::open(device, &dir, store_config_from_args(args)?, 0)?;
    let mut out = String::new();
    restore_report_lines(&mut out, &report);
    let seq = durable.checkpoint()?;
    let _ = writeln!(out, "checkpointed {} at seq {seq}", dir.display());
    Ok(out)
}

/// `smiler restore`: run the recovery ladder and report what it found —
/// a dry-run restart that doubles as an integrity check.
fn restore_cmd(args: &Args) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let device = Arc::new(Device::default_gpu());
    let (durable, report) = DurableSystem::open(device, &dir, store_config_from_args(args)?, 0)?;
    let mut out = String::new();
    restore_report_lines(&mut out, &report);
    let quarantined = durable.system().quarantined();
    if quarantined.is_empty() {
        let _ = writeln!(out, "fleet healthy: {} sensors ready", report.sensors);
    } else {
        let _ = writeln!(out, "quarantined sensors: {quarantined:?}");
    }
    Ok(out)
}

/// `smiler cluster`: replication roles, the kill/promote demo, and
/// placement dry runs.
fn cluster(args: &Args) -> Result<String, CliError> {
    match args.require("role")? {
        "primary" => cluster_primary(args),
        "follower" => cluster_follower(args),
        "demo" => cluster_demo(args),
        "plan" => cluster_plan(args),
        other => {
            Err(CliError::Other(format!("unknown role {other:?} (primary|follower|demo|plan)")))
        }
    }
}

/// Synthetic z-normalised histories for a cluster fleet, shared by the
/// primary and demo roles so both sides of a comparison see identical
/// data.
fn cluster_histories(args: &Args, sensors: usize) -> Result<Vec<Vec<f64>>, CliError> {
    let days: usize = args.get_or("days", 1)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let dataset = SyntheticSpec { kind: DatasetKind::Road, sensors, days, seed }.generate();
    Ok(dataset
        .sensors
        .iter()
        .map(|s| smiler_timeseries::normalize::z_normalize(s.values()).0)
        .collect())
}

/// Deterministic live observation for cluster runs: round- and
/// sensor-dependent, so replicas and controls replay identical streams.
fn cluster_obs(round: usize, sensor: usize) -> f64 {
    ((round * 7 + sensor * 13) as f64 * 0.21).sin() * 0.8
}

/// `--role primary`: run a durable fleet, accept followers, drive rounds.
fn cluster_primary(args: &Args) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let sensors: usize = args.get_or("sensors", 4)?;
    let rounds: usize = args.get_or("rounds", 32)?;
    let round_ms: u64 = args.get_or("round-ms", 50)?;
    let wait_followers: usize = args.get_or("wait-followers", 0)?;
    let epoch: u64 = args.get_or("epoch", 0)?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:7979").to_string();
    let device = Arc::new(Device::default_gpu());
    let store_config = store_config_from_args(args)?;
    let config = with_adaptation(args, SmilerConfig::default());

    let mut out = String::new();
    let (system, store) =
        match DurableSystem::open(Arc::clone(&device), &dir, store_config.clone(), 0) {
            Ok((durable, report)) => {
                let _ = writeln!(out, "restored {} sensors from {}", report.sensors, dir.display());
                durable.into_parts()
            }
            Err(DurableError::NoState) => {
                let histories = cluster_histories(args, sensors)?;
                let (durable, _) = DurableSystem::create(
                    Arc::clone(&device),
                    histories,
                    config,
                    PredictorKind::GaussianProcess,
                    &dir,
                    store_config,
                    0,
                )?;
                let _ = writeln!(out, "created durable state at {}", dir.display());
                durable.into_parts()
            }
            Err(e) => return Err(e.into()),
        };
    let fleet = system.into_sensors();
    let sensors = fleet.len();
    let store = smiler_store::shared(store);
    let server = SmilerServer::start_with_store(
        Arc::clone(&device),
        fleet,
        ServeConfig::default(),
        Arc::clone(&store),
    );
    let handle = server.handle();
    let repl = ReplicationPrimary::start(
        Arc::clone(&store),
        Some(handle.clone()),
        PrimaryConfig { listen, epoch, ..PrimaryConfig::default() },
    )
    .map_err(|e| CliError::Other(format!("cannot bind replication listener: {e}")))?;
    // To stderr immediately, so a second terminal can attach before the
    // run completes.
    eprintln!("replication listening on {}", repl.addr());

    if wait_followers > 0 {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while repl.followers().len() < wait_followers {
            if std::time::Instant::now() > deadline {
                return Err(CliError::Other(format!(
                    "timed out waiting for {wait_followers} follower(s)"
                )));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    for round in 0..rounds {
        for sensor in 0..sensors {
            handle
                .observe(sensor, cluster_obs(round, sensor))
                .map_err(|e| CliError::Other(format!("primary observe failed: {e}")))?;
        }
        let _ = handle.forecast(round % sensors.max(1), 1);
        if round_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(round_ms));
        }
    }
    // Give attached followers a bounded window to drain the tail, then
    // report their lag from the same cluster status /status would show.
    let head = store.lock().last_seq();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let followers = repl.followers();
        if followers.is_empty() || followers.iter().all(|(_, acked)| *acked >= head) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = writeln!(out, "drove {rounds} rounds over {sensors} sensors (WAL head seq {head})");
    if let Some(cluster) = handle.status_report().cluster {
        let _ = writeln!(out, "role: {} (epoch {})", cluster.role.as_str(), epoch);
        for f in &cluster.followers {
            let _ = writeln!(
                out,
                "follower {}: acked seq {} (lag {} records, {:.1} ms)",
                f.follower, f.acked_seq, f.lag_records, f.lag_ms
            );
        }
        if cluster.followers.is_empty() {
            let _ = writeln!(out, "no followers attached");
        }
    }
    repl.shutdown();
    server.shutdown();
    Ok(out)
}

/// `--role follower`: bootstrap from the primary, tail its log, and
/// optionally promote when the primary dies.
fn cluster_follower(args: &Args) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let peers: Vec<String> =
        args.require("peers")?.split(',').map(|p| p.trim().to_string()).collect();
    let primary =
        peers.first().cloned().filter(|p| !p.is_empty()).ok_or_else(|| {
            CliError::Other("--peers needs at least one primary address".to_string())
        })?;
    let node_id = args.get("node-id").unwrap_or("follower").to_string();
    let duration =
        std::time::Duration::from_secs_f64(args.get_or::<f64>("duration-s", 5.0)?.max(0.0));
    let on_loss = args.get("on-loss").unwrap_or("exit").to_string();
    if on_loss != "exit" && on_loss != "promote" {
        return Err(CliError::Other(format!("unknown --on-loss {on_loss:?} (exit|promote)")));
    }
    let epoch: u64 = args.get_or("epoch", 1)?;
    let device = Arc::new(Device::default_gpu());
    let serve_config = ServeConfig::default();
    let mut follower_config = FollowerConfig::new(&node_id, &primary, &dir);
    follower_config.store_config = store_config_from_args(args)?;
    let mut follower = Follower::start(Arc::clone(&device), follower_config, Some(serve_config))
        .map_err(|e| CliError::Other(format!("follower cannot start: {e}")))?;
    eprintln!("follower {node_id} tailing {primary} into {}", dir.display());

    let started = std::time::Instant::now();
    while started.elapsed() < duration && follower.connected() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let mut out = String::new();
    let applied = follower.applied_seq();
    let _ = writeln!(
        out,
        "follower {node_id}: applied seq {applied}, primary head seen {}, lag {} records",
        follower.primary_seq(),
        follower.lag_records()
    );
    let lost = !follower.connected();
    if lost {
        let _ = writeln!(
            out,
            "primary connection lost ({})",
            follower.last_error().unwrap_or_else(|| "clean disconnect".to_string())
        );
    }
    if lost && on_loss == "promote" {
        let promotion = follower
            .into_promoted(Arc::clone(&device), serve_config, epoch)
            .map_err(|e| CliError::Other(format!("promotion failed: {e}")))?;
        let promoted = promotion.server.handle();
        let first = promoted
            .forecast(0, 1)
            .map_err(|e| CliError::Other(format!("promoted forecast failed: {e}")))?;
        let _ = writeln!(
            out,
            "promoted to primary (epoch {}): recovered {} sensors, first forecast mean {:.6}",
            promotion.epoch, promotion.report.sensors, first.mean
        );
        promotion.server.shutdown();
    } else {
        follower.stop();
    }
    Ok(out)
}

/// `--role demo`: the kill/promote walkthrough in one process — and a
/// live check that the promoted node serves bitwise-identical forecasts.
fn cluster_demo(args: &Args) -> Result<String, CliError> {
    let sensors: usize = args.get_or("sensors", 4)?;
    let rounds: usize = args.get_or("rounds", 8)?;
    let base = match args.get("data-dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("smiler_cluster_demo_{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&base);
    let dir_primary = base.join("primary");
    let dir_follower = base.join("follower");
    let dir_control = base.join("control");
    let device = Arc::new(Device::default_gpu());
    let store_config = StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() };
    let config = with_adaptation(args, SmilerConfig::default());
    let serve_config = ServeConfig::default();

    let (durable, _) = DurableSystem::create(
        Arc::clone(&device),
        cluster_histories(args, sensors)?,
        config,
        PredictorKind::GaussianProcess,
        &dir_primary,
        store_config.clone(),
        0,
    )?;
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
        PrimaryConfig {
            tail_poll: std::time::Duration::from_millis(1),
            ..PrimaryConfig::default()
        },
    )
    .map_err(|e| CliError::Other(format!("cannot bind replication listener: {e}")))?;
    let mut follower_config =
        FollowerConfig::new("demo-follower", &repl.addr().to_string(), &dir_follower);
    follower_config.store_config = store_config.clone();
    follower_config.poll = std::time::Duration::from_millis(2);
    let follower = Follower::start(Arc::clone(&device), follower_config, Some(serve_config))
        .map_err(|e| CliError::Other(format!("demo follower cannot start: {e}")))?;

    for round in 0..rounds {
        for sensor in 0..sensors {
            handle
                .observe(sensor, cluster_obs(round, sensor))
                .map_err(|e| CliError::Other(format!("primary observe failed: {e}")))?;
        }
    }
    let head = store.lock().last_seq();
    if !follower.wait_applied(head, std::time::Duration::from_secs(30)) {
        return Err(CliError::Other(format!(
            "follower stalled at seq {} of {head}",
            follower.applied_seq()
        )));
    }

    // Kill the primary mid-run: replication stops, the server is
    // abandoned without its graceful shutdown checkpoint. The control
    // copy of its directory is "what the dead primary would have served".
    drop(repl);
    store.lock().sync().map_err(|e| CliError::Other(format!("final sync failed: {e}")))?;
    copy_dir_recursive(&dir_primary, &dir_control)
        .map_err(|e| CliError::Other(format!("cannot snapshot control copy: {e}")))?;
    drop(handle);
    drop(server);

    let failover_started = std::time::Instant::now();
    let promotion = follower
        .into_promoted(Arc::clone(&device), serve_config, 1)
        .map_err(|e| CliError::Other(format!("promotion failed: {e}")))?;
    let promoted = promotion.server.handle();
    let first = promoted
        .forecast(0, 1)
        .map_err(|e| CliError::Other(format!("promoted forecast failed: {e}")))?;
    let failover = failover_started.elapsed();

    let (control, _) = DurableSystem::open(Arc::clone(&device), &dir_control, store_config, 0)?;
    let (control_system, control_store) = control.into_parts();
    let control_server = SmilerServer::start_with_store(
        Arc::clone(&device),
        control_system.into_sensors(),
        serve_config,
        smiler_store::shared(control_store),
    );
    let control_handle = control_server.handle();
    // Forecasting is semi-lazy (it trains and caches), so the control
    // replays the promoted node's request stream exactly — starting with
    // the first post-failover forecast above.
    let _ = control_handle
        .forecast(0, 1)
        .map_err(|e| CliError::Other(format!("control forecast failed: {e}")))?;
    let mut identical = 0usize;
    for sensor in 0..sensors {
        let a = promoted
            .forecast(sensor, 1)
            .map_err(|e| CliError::Other(format!("promoted forecast failed: {e}")))?;
        let b = control_handle
            .forecast(sensor, 1)
            .map_err(|e| CliError::Other(format!("control forecast failed: {e}")))?;
        if a.mean.to_bits() == b.mean.to_bits() && a.variance.to_bits() == b.variance.to_bits() {
            identical += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replicated {rounds} rounds over {sensors} sensors (WAL head seq {head}), \
         then killed the primary"
    );
    let _ = writeln!(
        out,
        "promoted follower in {:.1} ms (epoch {}, {} sensors recovered), \
         first forecast mean {:.6}",
        failover.as_secs_f64() * 1e3,
        promotion.epoch,
        promotion.report.sensors,
        first.mean
    );
    let _ = writeln!(
        out,
        "bitwise identical to the dead primary: {identical}/{sensors} sensors{}",
        if identical == sensors { "" } else { "  ** MISMATCH **" }
    );
    promotion.server.shutdown();
    control_server.shutdown();
    if args.get("data-dir").is_none() {
        let _ = std::fs::remove_dir_all(&base);
    }
    if identical != sensors {
        return Err(CliError::Other(format!(
            "failover demo FAILED: only {identical}/{sensors} sensors bitwise identical"
        )));
    }
    Ok(out)
}

/// `--role plan`: rendezvous-placement ownership and migration dry run.
fn cluster_plan(args: &Args) -> Result<String, CliError> {
    let peers: Vec<String> = args
        .require("peers")?
        .split(',')
        .map(|p| p.trim().to_string())
        .filter(|p| !p.is_empty())
        .collect();
    if peers.is_empty() {
        return Err(CliError::Other("--peers needs at least one node".to_string()));
    }
    let fleet: u64 = args.get_or("sensors", 64)?;
    let placement = Placement::new(peers);
    let mut out = String::new();
    let _ = writeln!(out, "placement over {} node(s), {fleet} sensors:", placement.len());
    for node in placement.nodes() {
        let owned = placement.owned_by(node, fleet);
        let _ = writeln!(out, "  {node}: {} sensors", owned.len());
    }
    let changed = match (args.get("add-node"), args.get("remove-node")) {
        (Some(node), None) => Some((placement.with_node(node), format!("adding {node}"))),
        (None, Some(node)) => Some((placement.without_node(node), format!("removing {node}"))),
        (None, None) => None,
        (Some(_), Some(_)) => {
            return Err(CliError::Other("use --add-node or --remove-node, not both".to_string()))
        }
    };
    if let Some((new_placement, what)) = changed {
        let plan = rebalance_plan(&placement, &new_placement, fleet);
        let _ = writeln!(
            out,
            "{what} migrates {} of {fleet} sensors (~1/{} expected):",
            plan.len(),
            placement.len().max(new_placement.len())
        );
        for m in plan.iter().take(8) {
            let _ = writeln!(
                out,
                "  sensor {} : {} -> {}",
                m.sensor,
                m.from.as_deref().unwrap_or("(none)"),
                m.to.as_deref().unwrap_or("(none)")
            );
        }
        if plan.len() > 8 {
            let _ = writeln!(out, "  ... and {} more", plan.len() - 8);
        }
    }
    Ok(out)
}

/// Recursive directory copy, for snapshotting a dead primary's state.
fn copy_dir_recursive(src: &std::path::Path, dst: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir_recursive(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// `smiler info`: defaults and provenance.
fn info() -> String {
    let c = SmilerConfig::default();
    format!(
        "SMiLer (Zhou & Tung, SIGMOD 2015) — semi-lazy GP prediction\n\
         defaults (paper Table 2):\n\
         \x20 warping width ρ     : {}\n\
         \x20 window length ω     : {}\n\
         \x20 EKV (neighbours)    : {:?}\n\
         \x20 ELV (segment len)   : {:?}\n\
         \x20 max horizon         : {}\n\
         device: simulated GTX TITAN (14 SMX, 6 GB) — no GPU required\n",
        c.rho, c.omega, c.ensemble.ekv, c.ensemble.elv, c.h_max
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn write_temp_series(name: &str, n: usize) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let values: Vec<f64> = (0..n)
            .map(|i| 500.0 + 120.0 * (i as f64 * std::f64::consts::TAU / 48.0).sin())
            .collect();
        io::write_series(std::fs::File::create(&path).unwrap(), &values).unwrap();
        path
    }

    #[test]
    fn no_command_prints_usage() {
        assert!(run(&args(&[])).unwrap().contains("USAGE"));
        assert!(run(&args(&["--help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn info_mentions_paper_defaults() {
        let s = run(&args(&["info"])).unwrap();
        assert!(s.contains("ρ"));
        assert!(s.contains("[32, 64, 96]"));
    }

    #[test]
    fn generate_emits_values() {
        let s = run(&args(&["generate", "--dataset", "road", "--days", "4"])).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("# ROAD"));
        assert_eq!(lines.len() - 1, 4 * 144);
        assert!(lines[1].parse::<f64>().is_ok());
    }

    #[test]
    fn forecast_end_to_end() {
        let path = write_temp_series("smiler_cli_forecast.csv", 400);
        let s = run(&args(&[
            "forecast",
            "--input",
            path.to_str().unwrap(),
            "--horizons",
            "1,6",
            "--predictor",
            "ar",
            "--interval",
        ]))
        .unwrap();
        assert!(s.contains("t+1"), "{s}");
        assert!(s.contains("t+6"));
        assert!(s.contains("95%"));
        // Forecast must be in raw units (hundreds, not z-scores).
        let value: f64 = s
            .lines()
            .find(|l| l.starts_with("t+1"))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(value > 300.0 && value < 700.0, "raw-unit forecast, got {value}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn forecast_with_observability_writes_jsonl() {
        let path = write_temp_series("smiler_cli_obs.csv", 400);
        let metrics = std::env::temp_dir().join("smiler_cli_obs_metrics.jsonl");
        let trace = std::env::temp_dir().join("smiler_cli_obs_trace.jsonl");
        let s = run(&args(&[
            "forecast",
            "--input",
            path.to_str().unwrap(),
            "--predictor",
            "gp",
            "--horizons",
            "1",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(s.contains("observability summary"), "{s}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        for needle in [
            "search/filter",
            "search/verify",
            "search/select",
            "gp.train",
            "ensemble.update",
            "search.pruning_ratio",
            "health.predictions",
        ] {
            assert!(m.contains(needle), "metrics file missing {needle}:\n{m}");
        }
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.lines().count() > 0);
        assert!(t.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "{t}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(metrics);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn forecast_with_deadline_reports_serving_rung() {
        let path = write_temp_series("smiler_cli_deadline.csv", 400);
        // A generous budget: the full pipeline fits comfortably.
        let s = run(&args(&[
            "forecast",
            "--input",
            path.to_str().unwrap(),
            "--predictor",
            "ar",
            "--horizons",
            "1",
            "--deadline-ms",
            "10000",
        ]))
        .unwrap();
        assert!(s.contains("served=full_ensemble"), "{s}");
        assert!(s.contains("serving health: deadline 10000 ms"), "{s}");
        // A zero budget: every request degrades to the last-value hold —
        // and still produces a finite raw-unit forecast.
        let s = run(&args(&[
            "forecast",
            "--input",
            path.to_str().unwrap(),
            "--predictor",
            "ar",
            "--horizons",
            "1",
            "--deadline-ms",
            "0",
        ]))
        .unwrap();
        assert!(s.contains("served=last_value"), "{s}");
        let value: f64 = s
            .lines()
            .find(|l| l.starts_with("t+1"))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(value.is_finite());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_deadline_is_reported() {
        let path = write_temp_series("smiler_cli_baddl.csv", 400);
        let err =
            run(&args(&["forecast", "--input", path.to_str().unwrap(), "--deadline-ms", "soon"]))
                .unwrap_err();
        assert!(err.to_string().contains("invalid --deadline-ms"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn forecast_rejects_short_series() {
        let path = write_temp_series("smiler_cli_short.csv", 20);
        let err = run(&args(&["forecast", "--input", path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("need at least"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn serve_reports_throughput_and_batching() {
        let s = run(&args(&[
            "serve",
            "--shards",
            "2",
            "--sensors",
            "4",
            "--clients",
            "2",
            "--requests",
            "6",
            "--days",
            "1",
        ]))
        .unwrap();
        assert!(s.contains("2 shards"), "{s}");
        assert!(s.contains("listened on 127.0.0.1:"), "{s}");
        assert!(s.contains("open-loop wire load: 2 connections, 12 requests"), "{s}");
        assert!(s.contains("achieved"), "{s}");
        assert!(s.contains("micro-batching"), "{s}");
        assert!(s.contains("kernel launches"), "{s}");
    }

    #[test]
    fn serve_listen_drives_open_loop_wire_load() {
        let s = run(&args(&[
            "serve",
            "--shards",
            "2",
            "--sensors",
            "4",
            "--clients",
            "2",
            "--requests",
            "6",
            "--days",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--qps",
            "400",
        ]))
        .unwrap();
        assert!(s.contains("listened on 127.0.0.1:"), "{s}");
        assert!(s.contains("offered at 400.0 req/s"), "{s}");
        assert!(s.contains("from scheduled issue"), "{s}");
        assert!(s.contains("12 ok") || s.contains("shed"), "{s}");
    }

    #[test]
    fn serve_with_request_tracing_writes_terminal_traces() {
        let path =
            std::env::temp_dir().join(format!("smiler_cli_traces_{}.jsonl", std::process::id()));
        let s = run(&args(&[
            "serve",
            "--shards",
            "2",
            "--sensors",
            "4",
            "--clients",
            "2",
            "--requests",
            "8",
            "--days",
            "1",
            "--status-every",
            "0.05",
            "--trace-requests-out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(s.contains("request traces:"), "{s}");
        assert!(s.contains("status: smiler up"), "{s}");
        assert!(s.contains("slo"), "{s}");
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents.lines().collect();
        // Other tests in this binary share the process-global sink, so the
        // file may carry their requests too; every admitted request of THIS
        // run must be there and every line must be schema-valid.
        assert!(lines.len() >= 16, "expected ≥16 terminal traces, got {}", lines.len());
        for line in &lines {
            smiler_obs::trace::validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(lines.iter().any(|l| l.contains("\"outcome\":\"served\"")), "{contents}");
    }

    #[test]
    fn restore_requires_existing_state() {
        let dir = std::env::temp_dir().join(format!("smiler_cli_nostate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = run(&args(&["restore", "--data-dir", dir.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("no recoverable fleet state"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_data_dir_cold_start_then_restore_then_checkpoint() {
        let dir = std::env::temp_dir().join(format!("smiler_cli_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serve_args = [
            "serve",
            "--shards",
            "1",
            "--sensors",
            "2",
            "--clients",
            "1",
            "--requests",
            "4",
            "--days",
            "1",
            "--data-dir",
            dir.to_str().unwrap(),
        ];

        // First run creates the durable directory and checkpoints on drain.
        let s = run(&args(&serve_args)).unwrap();
        assert!(s.contains("created durable state"), "{s}");

        // A restart from the same directory restores instead of recreating.
        let s = run(&args(&serve_args)).unwrap();
        assert!(s.contains("restored 2 sensors"), "{s}");

        // Offline recovery report, then WAL compaction.
        let s = run(&args(&["restore", "--data-dir", dir.to_str().unwrap()])).unwrap();
        assert!(s.contains("restored 2 sensors"), "{s}");
        assert!(s.contains("fleet healthy"), "{s}");
        let s = run(&args(&["checkpoint", "--data-dir", dir.to_str().unwrap()])).unwrap();
        assert!(s.contains("checkpointed"), "{s}");

        // Bad flush policies are argument errors, not panics.
        let err =
            run(&args(&["restore", "--data-dir", dir.to_str().unwrap(), "--flush", "sometimes"]))
                .unwrap_err();
        assert!(err.to_string().contains("flush policy"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_requires_a_role() {
        let err = run(&args(&["cluster"])).unwrap_err();
        assert!(err.to_string().contains("--role is required"), "{err}");
        let err = run(&args(&["cluster", "--role", "overlord"])).unwrap_err();
        assert!(err.to_string().contains("unknown role"), "{err}");
    }

    #[test]
    fn cluster_plan_reports_ownership_and_minimal_migration() {
        let s = run(&args(&[
            "cluster",
            "--role",
            "plan",
            "--peers",
            "alpha,bravo,charlie",
            "--sensors",
            "90",
            "--add-node",
            "delta",
        ]))
        .unwrap();
        assert!(s.contains("placement over 3 node(s), 90 sensors"), "{s}");
        assert!(s.contains("alpha:"), "{s}");
        assert!(s.contains("adding delta migrates"), "{s}");
        // Minimal movement: adding a 4th node must not re-home even half
        // the fleet.
        let moved: u64 = s
            .lines()
            .find(|l| l.contains("migrates"))
            .and_then(|l| l.split_whitespace().nth(3))
            .unwrap()
            .parse()
            .unwrap();
        assert!(moved < 45, "added node re-homed {moved} of 90 sensors:\n{s}");
    }

    #[test]
    fn cluster_demo_proves_bitwise_failover() {
        let s = run(&args(&[
            "cluster",
            "--role",
            "demo",
            "--sensors",
            "3",
            "--rounds",
            "4",
            "--days",
            "1",
        ]))
        .unwrap();
        assert!(s.contains("killed the primary"), "{s}");
        assert!(s.contains("promoted follower"), "{s}");
        assert!(s.contains("bitwise identical to the dead primary: 3/3"), "{s}");
    }

    #[test]
    fn cluster_primary_and_follower_roles_connect_over_the_wire() {
        // Reserve an ephemeral port for the primary, then run the two
        // roles exactly as the two-terminal walkthrough does.
        let port = {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let base = std::env::temp_dir().join(format!("smiler_cli_cluster_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir_p = base.join("primary");
        let dir_f = base.join("follower");

        let primary_args: Vec<String> = [
            "cluster",
            "--role",
            "primary",
            "--data-dir",
            dir_p.to_str().unwrap(),
            "--listen",
            &addr,
            "--sensors",
            "2",
            "--rounds",
            "6",
            "--round-ms",
            "20",
            "--days",
            "1",
            "--wait-followers",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let primary = std::thread::spawn(move || run(&Args::parse(primary_args).unwrap()));
        let follower_out = run(&args(&[
            "cluster",
            "--role",
            "follower",
            "--peers",
            &addr,
            "--data-dir",
            dir_f.to_str().unwrap(),
            "--node-id",
            "walkthrough",
            "--duration-s",
            "20",
            "--on-loss",
            "promote",
        ]))
        .unwrap();
        let primary_out = primary.join().unwrap().unwrap();
        assert!(primary_out.contains("drove 6 rounds"), "{primary_out}");
        assert!(primary_out.contains("follower walkthrough: acked seq"), "{primary_out}");
        assert!(primary_out.contains("lag 0 records"), "{primary_out}");
        // The primary exits after its rounds; the follower sees the loss
        // and promotes through the recovery ladder.
        assert!(follower_out.contains("primary connection lost"), "{follower_out}");
        assert!(follower_out.contains("promoted to primary (epoch 1)"), "{follower_out}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn evaluate_compares_models() {
        let path = write_temp_series("smiler_cli_eval.csv", 500);
        let s = run(&args(&[
            "evaluate",
            "--input",
            path.to_str().unwrap(),
            "--steps",
            "10",
            "--horizons",
            "1,3",
            "--models",
            "smiler-ar,lazyknn",
            "--period",
            "48",
        ]))
        .unwrap();
        assert!(s.contains("SMiLer-AR"), "{s}");
        assert!(s.contains("LazyKNN"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unknown_model_is_reported() {
        let path = write_temp_series("smiler_cli_badmodel.csv", 500);
        let err =
            run(&args(&["evaluate", "--input", path.to_str().unwrap(), "--models", "nonsense"]))
                .unwrap_err();
        assert!(err.to_string().contains("unknown model"));
        let _ = std::fs::remove_file(path);
    }
}
