//! `expt` — reproduce the SMiLer paper's tables and figures, plus the three
//! snapshots no `benchmark/` workload reaches (`bench-obs`, `bench-chaos`,
//! `bench-cluster`).
//!
//! ```text
//! cargo run -p smiler-bench --release --bin expt -- <id>... [--smoke]
//! ```
//!
//! Run without arguments for the id list (generated from [`IDS`]). Every id
//! is validated before anything runs; ids then run in the order given. A
//! paper id prints its table and writes `results/<id>.jsonl` for
//! EXPERIMENTS.md (with observability on, the phase-span aggregates ride
//! along as extra `obs.*` rows); a `bench-<x>` id writes one report to
//! `results/BENCH_<x>.json`. Speed is not measured here: that is
//! `benchmark/`'s job.

use smiler_bench::chaosbench::{self, ChaosBenchScale};
use smiler_bench::clusterbench::{self, ClusterBenchScale};
use smiler_bench::experiments::{ablation, predict, scale as scale_expts, search};
use smiler_bench::obsbench::{self, ObsBenchScale};
use smiler_bench::{report, ExptScale, Measurement};
use std::path::{Path, PathBuf};

/// What an id runs.
#[derive(Clone, Copy)]
enum Run {
    /// A paper table or figure: its rows go to `results/<id>.jsonl`.
    Paper(fn(&ExptScale) -> Vec<Measurement>),
    /// A snapshot: one report goes to `--out` (default
    /// `results/BENCH_<x>.json`); `Err` is a failed gate and exits 1.
    Snapshot(fn(&Invocation, &Path) -> Result<(), String>),
}

/// One runnable id.
struct Id {
    name: &'static str,
    what: &'static str,
    run: Run,
}

/// Every id `expt` accepts: the usage text, dispatch, `all` (the paper ids,
/// in this order) and the results-have-a-producer test all read this table.
const IDS: &[Id] = &[
    Id { name: "table3", what: "LBen effectiveness", run: Run::Paper(search::table3) },
    Id { name: "fig7", what: "suffix kNN time vs k", run: Run::Paper(search::fig7) },
    Id { name: "fig8", what: "index vs direct LBen", run: Run::Paper(search::fig8) },
    Id { name: "fig9", what: "offline competitors", run: Run::Paper(predict::fig9) },
    Id { name: "fig10", what: "online competitors", run: Run::Paper(predict::fig10) },
    Id { name: "fig11", what: "auto-tuning ablation", run: Run::Paper(predict::fig11) },
    Id { name: "table4", what: "running times", run: Run::Paper(predict::table4) },
    Id { name: "fig12", what: "scalability", run: Run::Paper(fig12) },
    Id { name: "fig13", what: "PSGP sweep", run: Run::Paper(scale_expts::fig13) },
    Id { name: "ablation", what: "design-choice ablations", run: Run::Paper(ablation::run) },
    Id {
        name: "bench-obs",
        what: "request-tracing overhead; --enforce-budget makes it a gate",
        run: Run::Snapshot(bench_obs),
    },
    Id { name: "bench-chaos", what: "accuracy under chaos", run: Run::Snapshot(bench_chaos) },
    Id { name: "bench-cluster", what: "replication + failover", run: Run::Snapshot(bench_cluster) },
];

fn fig12(scale: &ExptScale) -> Vec<Measurement> {
    let mut rows = scale_expts::fig12_cost(scale);
    rows.extend(scale_expts::fig12_capacity());
    rows
}

fn usage() -> String {
    let mut text = String::from(
        "usage: expt <id>... [--smoke] [--out <path>] [--enforce-budget] \
         [--metrics-out <path>] [--trace-out <path>]\n  ids (run in the order given):\n",
    );
    for id in IDS {
        text.push_str(&format!("    {:<14} {}\n", id.name, id.what));
    }
    text.push_str(
        "    all            every paper id above\n\
         \x20 --smoke              tiny datasets (CI-sized), same code paths\n\
         \x20 --out <path>         where the one bench-* id given writes its report\n\
         \x20 --metrics-out <path> enable observability for paper ids; write metrics as JSONL\n\
         \x20 --trace-out <path>   enable observability for paper ids; write the event trace",
    );
    text
}

/// A validated command line.
#[derive(Default)]
struct Invocation {
    smoke: bool,
    enforce_budget: bool,
    out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// What to run, in order (`all` already expanded).
    ids: Vec<&'static Id>,
}

impl Invocation {
    /// The `--smoke` or the default scale of whatever is about to run.
    fn scale<T>(&self, smoke: fn() -> T, default_scale: fn() -> T) -> T {
        if self.smoke {
            smoke()
        } else {
            default_scale()
        }
    }
}

/// Parse and validate the whole command line; nothing has run when this
/// returns `Err`.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => inv.smoke = true,
            "--enforce-budget" => inv.enforce_budget = true,
            "--out" | "--metrics-out" | "--trace-out" => {
                let path = args.next().ok_or_else(|| format!("{arg} requires a path"))?;
                let slot = match arg.as_str() {
                    "--out" => &mut inv.out,
                    "--metrics-out" => &mut inv.metrics_out,
                    _ => &mut inv.trace_out,
                };
                *slot = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            "all" => inv.ids.extend(IDS.iter().filter(|id| matches!(id.run, Run::Paper(_)))),
            name => match IDS.iter().find(|id| id.name == name) {
                Some(id) => inv.ids.push(id),
                None => return Err(format!("unknown id '{name}'")),
            },
        }
    }
    if inv.ids.is_empty() {
        return Err("no id given".to_string());
    }
    let snapshots = inv.ids.iter().filter(|id| matches!(id.run, Run::Snapshot(_))).count();
    if inv.out.is_some() && snapshots != 1 {
        return Err("--out names one report: give exactly one bench-* id with it".to_string());
    }
    Ok(inv)
}

/// `results/BENCH_<x>.json` for `bench-<x>`.
fn default_snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(format!("results/BENCH_{}.json", name.trim_start_matches("bench-")))
}

/// Serialise `report` to `path`, creating its directory. A snapshot that
/// cannot be written is fatal.
fn write_snapshot<T: serde::Serialize>(path: &Path, report: &T) {
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, format!("{json}\n")) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// What request tracing itself costs: the trace path against one served
/// GP forecast, a trace-stream audit and a bitwise prediction-invariance
/// proof. With `--enforce-budget` a violated budget or audit is an error.
fn bench_obs(inv: &Invocation, path: &Path) -> Result<(), String> {
    let scale = inv.scale(ObsBenchScale::smoke, ObsBenchScale::default_scale);
    let report = obsbench::run(scale);
    write_snapshot(path, &report);
    println!(
        "bench-obs: trace path {:.2} us/record = {:.4}% of a {:.2} ms request (budget {:.1}%); \
         {} trace records, schema_valid={} complete={} bitwise_identical={} -> {}",
        report.overhead.trace_ns_per_record / 1_000.0,
        report.overhead.direct_pct,
        report.overhead.request_median_ms,
        obsbench::OVERHEAD_BUDGET_PCT,
        report.trace.records,
        report.trace.schema_valid,
        report.trace.complete,
        report.predictions_bitwise_identical,
        path.display()
    );
    let ok = report.overhead.within_budget
        && report.trace.schema_valid
        && report.trace.complete
        && report.trace.write_errors == 0
        && report.predictions_bitwise_identical;
    if inv.enforce_budget && !ok {
        return Err(format!("observability budget violated, see {}", path.display()));
    }
    Ok(())
}

/// The dirty-feed scenarios through adaptive and fixed-schedule
/// predictors: accuracy deltas and the clean-workload bitwise-invariance
/// proof.
fn bench_chaos(inv: &Invocation, path: &Path) -> Result<(), String> {
    let scale = inv.scale(ChaosBenchScale::smoke, ChaosBenchScale::default_scale);
    let report = chaosbench::run(scale);
    write_snapshot(path, &report);
    for s in &report.scenarios {
        println!(
            "bench-chaos: {:<14} fixed MAE {:>7.2} / adaptive MAE {:>7.2} ({:+.1}%)  \
             cov95 {:.2}->{:.2}  changepoints={} outliers={}",
            s.scenario,
            s.fixed.mae,
            s.adaptive.mae,
            s.mae_improvement_pct,
            s.fixed.coverage95,
            s.adaptive.coverage95,
            s.adaptive.changepoints,
            s.adaptive.outliers
        );
    }
    println!(
        "bench-chaos: clean-workload bitwise invariance = {} -> {}",
        report.clean_bitwise_identical,
        path.display()
    );
    if !report.clean_bitwise_identical {
        return Err("quiescent detector changed clean-workload forecasts".to_string());
    }
    Ok(())
}

/// WAL-shipping replication: bootstrap and streaming throughput, follower
/// lag quantiles, and the kill/promote failover time — with the bitwise
/// control check the headline invariant demands.
fn bench_cluster(inv: &Invocation, path: &Path) -> Result<(), String> {
    let scale = inv.scale(ClusterBenchScale::smoke, ClusterBenchScale::default_scale);
    let report = clusterbench::run(scale);
    write_snapshot(path, &report);
    println!(
        "bench-cluster: bootstrap {:.0} rec/s ({} records), streaming {:.0} rec/s",
        report.bootstrap.records_per_sec,
        report.bootstrap.records,
        report.streaming.records_per_sec
    );
    println!(
        "bench-cluster: follower lag p50={} p95={} p99={} max={} records ({} samples)",
        report.lag.p50_records,
        report.lag.p95_records,
        report.lag.p99_records,
        report.lag.max_records,
        report.lag.samples
    );
    println!(
        "bench-cluster: failover promote {:.1} ms, first forecast {:.1} ms, \
         bitwise_identical={} -> {}",
        report.failover.promote_seconds * 1e3,
        report.failover.first_forecast_seconds * 1e3,
        report.failover.bitwise_identical,
        path.display()
    );
    if !report.failover.bitwise_identical {
        return Err("promoted forecasts diverged from the dead primary".to_string());
    }
    Ok(())
}

fn main() {
    let inv = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    let observing = inv.metrics_out.is_some() || inv.trace_out.is_some();
    let scale = inv.scale(ExptScale::smoke, ExptScale::default_scale);
    if inv.ids.iter().any(|id| matches!(id.run, Run::Paper(_))) {
        println!(
            "SMiLer experiment harness — {} sensors/dataset, {} days, seed {}",
            scale.sensors, scale.days, scale.seed
        );
    }
    // Accumulated across experiments: each experiment runs against freshly
    // reset observability state, and its rows are appended here.
    let mut metrics_doc = String::new();
    let mut trace_doc = String::new();

    for id in &inv.ids {
        match id.run {
            Run::Paper(experiment) => {
                // Observability is for the paper ids only: a snapshot
                // measures the system as shipped, switch off.
                if observing {
                    smiler_obs::reset();
                    smiler_obs::set_enabled(true);
                }
                let t0 = std::time::Instant::now();
                let mut records = experiment(&scale);
                eprintln!("[{}] finished in {:.1}s", id.name, t0.elapsed().as_secs_f64());
                if observing {
                    smiler_obs::set_enabled(false);
                    records.extend(obs_measurements(id.name));
                    metrics_doc.push_str(&smiler_obs::metrics_jsonl_string());
                    trace_doc.push_str(&smiler_obs::trace_jsonl_string());
                    let table = smiler_obs::summary_table();
                    if !table.is_empty() {
                        eprintln!("[{}] observability summary:\n{table}", id.name);
                    }
                }
                report::write_records(Path::new("results"), id.name, &records);
            }
            Run::Snapshot(snapshot) => {
                let path = inv.out.clone().unwrap_or_else(|| default_snapshot_path(id.name));
                if let Err(e) = snapshot(&inv, &path) {
                    eprintln!("{}: {e}", id.name);
                    std::process::exit(1);
                }
            }
        }
    }

    for (doc, path, what) in
        [(&metrics_doc, &inv.metrics_out, "metrics"), (&trace_doc, &inv.trace_out, "trace")]
    {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("[obs] could not write {what} to {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[obs] {what} -> {}", path.display());
        }
    }
}

/// Fold the observability aggregates into the experiment's record rows so
/// `results/<id>.jsonl` carries the phase breakdown next to the headline
/// numbers.
fn obs_measurements(id: &str) -> Vec<Measurement> {
    let mut extra = Vec::new();
    let mut row = |method: &str, parameter: String, metric: &str, value: f64| {
        extra.push(Measurement::new(id, None, method, Some(parameter), metric, value));
    };
    for s in smiler_obs::span_snapshot() {
        row("obs.span", s.path.clone(), "total_seconds", s.total_seconds);
        row("obs.span", s.path, "count", s.count as f64);
    }
    let snap = smiler_obs::metrics_snapshot();
    for c in &snap.counters {
        row("obs.counter", format!("{}{{{}}}", c.name, c.label), "value", c.value as f64);
    }
    for h in &snap.histograms {
        // 0.0, not NaN: NaN serialises to `null` and poisons downstream
        // aggregation of the results rows.
        let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
        row("obs.histogram", format!("{}{{{}}}", h.name, h.label), "mean", mean);
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<Invocation, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    fn names(inv: &Invocation) -> Vec<&'static str> {
        inv.ids.iter().map(|id| id.name).collect()
    }

    #[test]
    fn mixed_paper_and_bench_ids_all_run_in_the_order_given() {
        let inv = parse_words("fig7 bench-obs --smoke table3 bench-chaos").unwrap();
        assert_eq!(names(&inv), ["fig7", "bench-obs", "table3", "bench-chaos"]);
        assert!(inv.smoke);
        let inv = parse_words("bench-cluster all").unwrap();
        assert_eq!(names(&inv)[..3], ["bench-cluster", "table3", "fig7"]);
        assert_eq!(inv.ids.len(), 11, "`all` is the ten paper ids");
    }

    #[test]
    fn an_unknown_id_rejects_the_whole_line_before_anything_runs() {
        // `parse` returns no ids at all, so `main` has nothing to run.
        assert_eq!(parse_words("fig7 fig99").err().unwrap(), "unknown id 'fig99'");
        assert_eq!(parse_words("fig7 --backend sim").err().unwrap(), "unknown flag --backend");
        assert!(parse_words("--smoke").is_err());
        assert!(parse_words("bench-obs --out").is_err());
        // One --out cannot name two reports, or none.
        assert!(parse_words("bench-obs bench-chaos --out x.json").is_err());
        assert!(parse_words("fig7 --out x.json").is_err());
        assert!(parse_words("fig7 bench-obs --out x.json").is_ok());
    }

    #[test]
    fn usage_lists_every_id() {
        let text = usage();
        for id in IDS {
            assert!(text.contains(id.name), "{} missing from usage", id.name);
        }
    }

    /// A number no current code path can reproduce is not a measurement:
    /// every file under `results/` must be the default output of an id.
    #[test]
    fn every_committed_result_has_a_producer() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("results/ exists") {
            let path = entry.expect("readable entry").path();
            let file = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name");
            if file.ends_with(".log") {
                continue; // .gitignore keeps these out of the tree
            }
            let produced = IDS.iter().any(|id| match id.run {
                Run::Paper(_) => file == format!("{}.jsonl", id.name),
                Run::Snapshot(_) => {
                    Path::new("results").join(file) == default_snapshot_path(id.name)
                }
            });
            assert!(produced, "results/{file} has no producing id in expt's table");
            seen += 1;
        }
        assert!(seen > 0, "no results found under {}", dir.display());
    }
}
