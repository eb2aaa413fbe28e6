//! CLI command implementations, one module per verb group. Each command
//! returns its report as a `String` so the logic is unit-testable; `main`
//! only prints.

mod cluster;
mod forecast;
mod serve;
mod store;

use crate::args::{any, at_least_one, ArgError, Args};
use smiler_core::sensor::SmilerConfig;
use smiler_core::{DurableError, PredictorKind};
use smiler_timeseries::io;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::fmt::Write as _;

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
                  [--period 144]
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
                 [--wait-followers <n>] [--epoch 0] [--days 1] [--seed 7]
                 [--flush <policy>] [--regime] [--robust]
  smiler cluster --role follower --peers <addr[,addr]> --data-dir <dir>
                 [--node-id <name>] [--duration-s 5] [--on-loss exit|promote]
                 [--epoch 1] [--flush <policy>]
  smiler cluster --role plan --peers <n1,n2,...> [--sensors 64]
                 [--add-node <name>] [--remove-node <name>]
  smiler info
  smiler --help

Series files are one-value-per-line or CSV (use --column for a named CSV
column). Forecasts are printed in the input's units. A flag the command
does not accept is an error. Flag values are checked before a command
runs: a value outside its flag's domain (a count below 1, a rate that is
not a finite number above 0) is an error that names the flag.

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
  --qos-burst <b>        bucket capacity in tokens, at least 1 (default
                         2×rate)

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

ADAPTATION (forecast, serve, cluster --role primary):
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
  --role plan           rendezvous-placement dry run: sensor ownership per
                        node, and the minimal migration plan for
                        --add-node / --remove-node
  The single-process failover walkthrough is `expt bench-cluster`.

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

/// A verb's run stage: everything it does once its flags are read.
type Run = Box<dyn FnOnce() -> Result<String, CliError>>;

/// A verb's read stage: it reads every flag the verb accepts, each with
/// its domain, and does no I/O, binds, spawns or sleeps; these reads are
/// the verb's whole grammar. It returns the run stage.
type Read = fn(&mut Args) -> Result<Run, CliError>;

/// Every verb but `cluster`, whose roles are [`cluster::ROLES`].
const VERBS: &[(&str, Read)] = &[
    ("forecast", forecast::forecast),
    ("evaluate", forecast::evaluate_cmd),
    ("generate", generate),
    ("serve", serve::serve),
    ("checkpoint", store::checkpoint_cmd),
    ("restore", store::restore_cmd),
    ("info", info),
];

/// The read stage of the verb a command line names (of its role, for
/// `cluster`), run over the rest of the line.
fn read_verb(args: &mut Args) -> Result<Run, CliError> {
    let find = |table: &[(&str, Read)], name: &str| {
        table.iter().find(|(verb, _)| *verb == name).map(|(_, read)| *read)
    };
    let read = match args.command() {
        None => return Ok(Box::new(|| Ok(USAGE.to_string()))),
        Some(name) if name == "cluster" => {
            let role = args.require("role")?;
            find(cluster::ROLES, &role).ok_or_else(|| {
                CliError::Other(format!("unknown role {role:?} (--role primary|follower|plan)"))
            })?
        }
        Some(name) => find(VERBS, &name)
            .ok_or_else(|| CliError::Other(format!("unknown command {name:?}\n\n{USAGE}")))?,
    };
    read(args)
}

/// Dispatch a command line: read every flag, refuse any token no read
/// consumed, and only then run the verb.
pub fn run(args: &mut Args) -> Result<String, CliError> {
    if args.switch("help") {
        return Ok(USAGE.to_string());
    }
    let quiet = args.switch("quiet");
    let metrics_out = args.get("metrics-out")?.map(std::path::PathBuf::from);
    let trace_out = args.get("trace-out")?.map(std::path::PathBuf::from);
    let run_verb = read_verb(args)?;
    args.finish()?;
    let observing = metrics_out.is_some() || trace_out.is_some();
    if observing {
        smiler_obs::reset();
        smiler_obs::set_enabled(true);
    }
    let mut output = run_verb()?;
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
        if !quiet {
            let table = smiler_obs::summary_table();
            if !table.is_empty() {
                output.push_str("\n-- observability summary --\n");
                output.push_str(&table);
            }
        }
    }
    Ok(output)
}

/// `--input` and `--column`: the user series, loaded when the returned
/// loader is called.
fn series(args: &mut Args) -> Result<impl FnOnce() -> Result<Vec<f64>, CliError>, CliError> {
    let path = args.require("input")?;
    let column = args.get("column")?;
    Ok(move || Ok(io::read_series_file(&path, column.as_deref())?))
}

/// The adaptation switches shared by `forecast`, `serve` and the cluster
/// primary: `--regime` arms the changepoint/outlier detector (λ reset,
/// forced retrain, bias correction, outlier cleaning on fire), `--robust`
/// the outlier-downweighted GP likelihood. Both default off — the
/// paper-faithful fixed schedule, bit for bit.
fn with_adaptation(args: &mut Args, mut config: SmilerConfig) -> SmilerConfig {
    if args.switch("regime") {
        config.regime = smiler_core::RegimeConfig::enabled();
    }
    if args.switch("robust") {
        config.robust = smiler_core::RobustSpec::enabled();
    }
    config
}

/// The `--predictor` a command runs, `default` when the flag is absent.
fn predictor_kind(args: &mut Args, default: &str) -> Result<PredictorKind, CliError> {
    match args.get("predictor")?.as_deref().unwrap_or(default) {
        "gp" => Ok(PredictorKind::GaussianProcess),
        "ar" => Ok(PredictorKind::Aggregation),
        other => Err(CliError::Other(format!("unknown --predictor {other:?} (gp|ar)"))),
    }
}

/// The synthetic dataset a `--dataset` value names.
fn dataset_kind(name: &str) -> Result<DatasetKind, CliError> {
    match name {
        "road" => Ok(DatasetKind::Road),
        "mall" => Ok(DatasetKind::Mall),
        "net" => Ok(DatasetKind::Net),
        other => Err(CliError::Other(format!("unknown --dataset {other:?} (road|mall|net)"))),
    }
}

/// One z-normalised history per sensor of the synthetic dataset `spec`.
fn synthetic_histories(spec: SyntheticSpec) -> Vec<Vec<f64>> {
    let dataset = spec.generate();
    dataset
        .sensors
        .iter()
        .map(|s| smiler_timeseries::normalize::z_normalize(s.values()).0)
        .collect()
}

/// `smiler generate`: emit a synthetic sensor series to stdout.
fn generate(args: &mut Args) -> Result<Run, CliError> {
    let kind = dataset_kind(&args.require("dataset")?)?;
    let days: usize = args.get_or("days", 14, at_least_one)?;
    let seed: u64 = args.get_or("seed", 7, any)?;
    Ok(Box::new(move || {
        let dataset = SyntheticSpec { kind, sensors: 1, days, seed }.generate();
        let mut out = String::with_capacity(dataset.sensors[0].len() * 8);
        let _ = writeln!(out, "# {} synthetic sensor, {days} days, seed {seed}", dataset.name);
        for v in dataset.sensors[0].values() {
            let _ = writeln!(out, "{v}");
        }
        Ok(out)
    }))
}

/// `smiler info`: defaults and provenance.
fn info(_: &mut Args) -> Result<Run, CliError> {
    let c = SmilerConfig::default();
    Ok(Box::new(move || {
        Ok(format!(
            "SMiLer (Zhou & Tung, SIGMOD 2015) — semi-lazy GP prediction\n\
         defaults (paper Table 2):\n\
         \x20 warping width ρ     : {}\n\
         \x20 window length ω     : {}\n\
         \x20 EKV (neighbours)    : {:?}\n\
         \x20 ELV (segment len)   : {:?}\n\
         \x20 max horizon         : {}\n\
         device: simulated GTX TITAN (14 SMX, 6 GB) — no GPU required\n",
            c.rho, c.omega, c.ensemble.ekv, c.ensemble.elv, c.h_max
        ))
    }))
}

#[cfg(test)]
mod tests;
