//! Metric registry, result records, environment stamp and output.
//!
//! The registry below is the single list of metric names, units,
//! directions and bounds; `BENCHMARK.json` at the repo root repeats it for
//! the driver, and a unit test keeps the two in step.

use crate::stats::Summary;
use crate::Res;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["fleet_step", "wire_step", "wire_read", "ingest_recover"];

/// One metric of the registry. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen before it counts as a
/// regression; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: None }
}

/// End-to-end metrics: measured with tracing off, on every workload.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
];

/// Per-layer metrics: measured by the traced run. A layer a workload never
/// calls reports 0 for that workload.
pub const PER_LAYER: [MetricDef; 65] = [
    layer("timeseries.generate_ms", "ms", false),
    layer("index.build_ms", "ms", false),
    layer("index.advance_us", "us", false),
    layer("index.search_us", "us", false),
    layer("index.search_p95_us", "us", false),
    layer("index.candidates_per_search", "count", false),
    layer("index.pruned_share", "ratio", true),
    layer("index.sim_s_per_search", "sim-s", false),
    layer("dtw.lb_kim_ns", "ns", false),
    layer("dtw.lb_keogh_ns", "ns", false),
    layer("dtw.lb_improved_ns", "ns", false),
    layer("dtw.early_abandon_ns", "ns", false),
    layer("dtw.full_ns", "ns", false),
    layer("dtw.lb_kim_pruned_share", "ratio", true),
    layer("dtw.lb_keogh_pruned_share", "ratio", true),
    layer("dtw.lb_improved_pruned_share", "ratio", true),
    layer("dtw.abandoned_share", "ratio", true),
    layer("dtw.lb_violations", "count", false),
    layer("gpu.launches_per_step", "count", false),
    layer("gpu.blocks_per_step", "count", false),
    layer("gp.train_full_ms", "ms", false),
    layer("gp.train_online_us", "us", false),
    layer("gp.fit_us", "us", false),
    layer("gp.predict_us", "us", false),
    layer("gp.fit_failures", "count", false),
    layer("linalg.cholesky_us", "us", false),
    layer("core.observe_us", "us", false),
    layer("core.observe_p99_us", "us", false),
    layer("core.predict_us", "us", false),
    layer("core.predict_cached_us", "us", false),
    layer("core.step_ms", "ms", false),
    layer("core.unattributed_share", "ratio", false),
    layer("core.degraded_share", "ratio", false),
    layer("core.resident_bytes", "bytes", false),
    layer("serve.overhead_us", "us", false),
    layer("serve.observe_us", "us", false),
    layer("serve.mean_batch_size", "count", true),
    layer("serve.batches", "count", false),
    layer("serve.shed", "count", false),
    layer("serve.timeouts", "count", false),
    layer("serve.faults", "count", false),
    layer("net.ping_rtt_us", "us", false),
    layer("net.overhead_us", "us", false),
    layer("net.encode_ns", "ns", false),
    layer("net.decode_ns", "ns", false),
    layer("net.server_share", "ratio", true),
    layer("net.latency_p95_ms", "ms", false),
    layer("net.latency_p99_ms", "ms", false),
    layer("store.append_us", "us", false),
    layer("store.append_p99_us", "us", false),
    layer("store.checkpoint_ms", "ms", false),
    layer("store.wal_bytes_per_round", "bytes", false),
    layer("durable.restore_s", "s", false),
    layer("durable.open_s", "s", false),
    layer("durable.rebuild_s", "s", false),
    layer("durable.replay_s", "s", false),
    layer("durable.replay_rounds_per_s", "1/s", true),
    layer("durable.replay_linearity", "ratio", true),
    layer("loadgen.late_p99_ms", "ms", false),
    layer("loadgen.late_max_ms", "ms", false),
    layer("loadgen.backlog_growth", "count", false),
    layer("loadgen.trace_overhead_share", "ratio", false),
    layer("quality.mae", "z-units", false),
    layer("quality.mnlpd", "nats", false),
    layer("quality.failed_share", "ratio", false),
];

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
}

/// A set of registry metrics being filled in. Every metric of the set
/// starts at 0 — what a layer that is never called reports — and setting a
/// name outside the set is a bug in the benchmark, caught at once.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    /// All zeros over `defs`.
    pub fn zeros(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet { defs, values: vec![0.0; defs.len()] }
    }

    /// Set `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the set's registry.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.values[idx] = value;
    }

    /// The set as named values with units, in registry order.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, value)| Metric { name: d.name.into(), unit: d.unit.into(), value })
            .collect()
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted over all phases.
    pub attempted: u64,
    /// Operations that failed: typed errors, sheds, forecasts served below
    /// the full ensemble, missed deadlines, bitwise-check mismatches.
    pub failed: u64,
    /// The registry metrics (end-to-end with tracing off, per-layer with
    /// tracing on).
    pub metrics: Vec<Metric>,
    /// Extra figures for the JSON file only: supported tail percentiles,
    /// sample and operation counts. Never gated.
    pub info: Vec<Metric>,
    /// Conditions under which the run measured the scheduler, not the
    /// program.
    pub warnings: Vec<String>,
}

impl WorkloadResult {
    /// A result with its registry metrics and nothing extra yet.
    pub fn new(
        name: &str,
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: MetricSet,
    ) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            correct,
            attempted,
            failed,
            metrics: metrics.into_metrics(),
            info: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Add the median, supported tail and sample count of a timing to
    /// `info`, under `prefix`.
    pub fn add_summary(&mut self, prefix: &str, unit: &str, scale: f64, samples: &[f64]) {
        let Some(s) = Summary::of(samples) else { return };
        let mut add = |suffix: String, unit: &str, value: f64| {
            self.info.push(Metric { name: format!("{prefix}.{suffix}"), unit: unit.into(), value });
        };
        add("samples".into(), "count", s.count as f64);
        add("p50".into(), unit, s.p50 * scale);
        if let Some((level, value)) = s.tail {
            // 0.95 → "p95", 0.999 → "p99.9": two decimals, trailing zeros cut.
            add(format!("p{}", (level * 1e4).round() / 100.0), unit, value * scale);
        }
        add("max".into(), unit, s.max * scale);
    }

    /// Add one figure to `info`.
    pub fn add_info(&mut self, name: &str, unit: &str, value: f64) {
        self.info.push(Metric { name: name.into(), unit: unit.into(), value });
    }
}

/// Where and on what the run happened; stamped into every result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Env {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Cores available to the process.
    pub nproc: u64,
    /// 1-minute load average when the run started.
    pub load_start: f64,
    /// 1-minute load average when the run ended.
    pub load_end: f64,
    /// Launch-timing backend of the device (`sim` or `native`).
    pub backend: String,
    /// `smiler_simd::dispatch_label()`.
    pub simd_dispatch: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average, 0 where `/proc/loadavg` does not exist.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

impl Env {
    /// Capture the environment at the start of a run.
    pub fn capture() -> Env {
        let load = load_average();
        Env {
            // Only where this directory is itself a work tree: git would
            // otherwise go looking through the directories above it.
            git_commit: if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
            rustc: command_line("rustc", &["-V"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            load_start: load,
            load_end: load,
            backend: smiler_gpu::Device::default_gpu().backend_kind().to_string(),
            simd_dispatch: smiler_simd::dispatch_label().into(),
        }
    }
}

/// One result file: `benchmark/out/<run>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunFile {
    /// `run` (tracing off, end-to-end metrics) or `trace` (per-layer).
    pub mode: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: f64,
    /// Whether this was a `--smoke` run (never comparable to a full one).
    pub smoke: bool,
    /// Environment stamp.
    pub env: Env,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadResult>,
}

/// The benchmark's output directory, `benchmark/out` under the current
/// directory — the root of the checkout, which is where the driver and
/// the README run the benchmark from.
pub fn out_dir() -> Res<PathBuf> {
    let base = Path::new("benchmark");
    if !base.join("Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".into());
    }
    let dir = base.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory under `benchmark/out/`, empty and unique to this
/// process and call, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `benchmark/out/tmp-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> Res<ScratchDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir()?.join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl RunFile {
    /// Write under `benchmark/out/` and return the path.
    pub fn write(&self) -> Res<PathBuf> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let which = match self.workloads.as_slice() {
            [one] => one.name.clone(),
            _ => "all".into(),
        };
        let path = out_dir()?.join(format!(
            "{}-{which}-seed{}-{stamp}-{}.json",
            self.mode,
            self.seed,
            std::process::id()
        ));
        let json = serde_json::to_string_pretty(self).map_err(|e| format!("encode: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Read a result file back.
    pub fn read(path: &Path) -> Res<RunFile> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// The driver's contract: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`, as the last line of stdout.
pub fn contract_line(result: &WorkloadResult) -> String {
    use serde::Content;
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let entry = Content::Map(vec![
                ("value".into(), Content::F64(m.value)),
                ("unit".into(), Content::Str(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = Content::Map(vec![
        ("correct".into(), Content::Bool(result.correct)),
        ("attempted".into(), Content::U64(result.attempted)),
        ("failed".into(), Content::U64(result.failed)),
        ("metrics".into(), Content::Map(metrics)),
    ]);
    serde_json::to_string(&Raw(line)).expect("content trees always encode")
}

/// A ready-made content tree, for JSON whose keys are data.
struct Raw(serde::Content);

impl Serialize for Raw {
    fn to_content(&self) -> serde::Content {
        self.0.clone()
    }
}

/// Print a workload's metrics by name with their units.
pub fn print_result(result: &WorkloadResult) {
    println!(
        "{}: correct={} attempted={} failed={} ({:.4} of attempted)",
        result.name,
        result.correct,
        result.attempted,
        result.failed,
        result.failed_share()
    );
    for m in &result.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &result.info {
        println!("    info {:<31} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for w in &result.warnings {
        eprintln!("  warning: {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        let ok = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(m.name, "_.-") && m.name.len() <= 64, "name {}", m.name);
            assert!(ok(m.unit, "_/%.-") && m.unit.len() <= 16, "unit {}", m.unit);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && !m.higher_is_better));
    }

    #[test]
    fn benchmark_json_repeats_the_registry() {
        // Runs from the package directory; the contract file is one up.
        let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
            return; // package checked out on its own: nothing to compare
        };
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w} missing");
        }
        // Nothing there that the registry does not know either.
        assert_eq!(text.matches("\"why\":").count(), WORKLOADS.len());
        assert_eq!(text.matches("\"bound\":").count(), END_TO_END.len());
        assert_eq!(text.matches("\"better\":").count(), END_TO_END.len() + PER_LAYER.len());
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
        for m in END_TO_END {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.bound.unwrap()
            );
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for m in PER_LAYER {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut set = MetricSet::zeros(&END_TO_END);
        set.set("setup_s", 0.8127);
        set.set("latency_p50_ms", 1.25);
        let result = WorkloadResult::new("fleet_step", true, 1000, 0, set);
        let line = contract_line(&result);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn setting_an_unregistered_metric_is_a_bug() {
        MetricSet::zeros(&END_TO_END).set("latency_p51_ms", 1.0);
    }

    #[test]
    fn summary_info_names_the_supported_tail() {
        let mut r = WorkloadResult::new("x", true, 1, 0, MetricSet::zeros(&END_TO_END));
        let samples: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        r.add_summary("paced.latency", "ms", 1e3, &samples);
        let names: Vec<&str> = r.info.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "paced.latency.samples",
                "paced.latency.p50",
                "paced.latency.p95",
                "paced.latency.max"
            ]
        );
    }
}
