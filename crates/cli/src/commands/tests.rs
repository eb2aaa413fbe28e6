//! Tests of the `smiler` commands, each run through [`run`] as `main`
//! runs it.

use super::*;
use crate::args::Args;

fn args(tokens: &[&str]) -> Args {
    Args::new(tokens.iter().map(|s| s.to_string()))
}

/// One valid command line per verb and role, its data directory `dir`:
/// the lines the grammar tests read.
fn valid_lines(dir: &str) -> Vec<Vec<String>> {
    let lines: &[&[&str]] = &[
        &["forecast", "--input", "s.csv"],
        &["evaluate", "--input", "s.csv"],
        &["generate", "--dataset", "road"],
        &["serve"],
        &["checkpoint", "--data-dir", dir],
        &["restore", "--data-dir", dir],
        &["info"],
        &["cluster", "--role", "primary", "--data-dir", dir],
        &["cluster", "--role", "follower", "--peers", "127.0.0.1:1", "--data-dir", dir],
        &["cluster", "--role", "plan", "--peers", "a"],
    ];
    let lines: Vec<Vec<String>> =
        lines.iter().map(|line| line.iter().map(|s| s.to_string()).collect()).collect();
    let covered: std::collections::BTreeSet<&str> = lines
        .iter()
        .map(|line| if line[0] == "cluster" { &line[2] } else { &line[0] })
        .map(String::as_str)
        .collect();
    let every = VERBS.iter().chain(cluster::ROLES).map(|(name, _)| *name).collect();
    assert_eq!(covered, every, "one valid line per verb and role");
    lines
}

/// The flags a valid command line's read stage asks for, with whether
/// each takes a value.
fn grammar(line: &[String]) -> Vec<(String, bool)> {
    let mut args = Args::new(line.to_vec());
    if let Err(e) = read_verb(&mut args) {
        panic!("{line:?} is valid: {e}");
    }
    args.finish().unwrap_or_else(|e| panic!("{line:?} is valid: {e}"));
    args.asked
}

fn write_temp_series(name: &str, n: usize) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let values: Vec<f64> =
        (0..n).map(|i| 500.0 + 120.0 * (i as f64 * std::f64::consts::TAU / 48.0).sin()).collect();
    io::write_series(std::fs::File::create(&path).unwrap(), &values).unwrap();
    path
}

#[test]
fn no_command_prints_usage() {
    assert!(run(&mut args(&[])).unwrap().contains("USAGE"));
    assert!(run(&mut args(&["--help"])).unwrap().contains("USAGE"));
}

#[test]
fn unknown_command_is_an_error() {
    assert!(run(&mut args(&["frobnicate"])).is_err());
}

#[test]
fn misspelt_flag_is_rejected() {
    let err = run(&mut args(&["generate", "--dataset", "road", "--dayz", "1"])).unwrap_err();
    assert!(err.to_string().contains("--dayz"), "{err}");
    // A cluster role accepts its own flags only.
    let err = run(&mut args(&["cluster", "--role", "plan", "--peers", "a", "--rounds", "3"]))
        .unwrap_err();
    assert!(err.to_string().contains("--rounds"), "{err}");
}

#[test]
fn usage_lists_exactly_the_accepted_flags() {
    // The flags `run` itself reads, then every verb's and role's.
    let mut info = args(&["info"]);
    run(&mut info).unwrap();
    let accepted: std::collections::BTreeSet<String> = valid_lines("d")
        .iter()
        .flat_map(|line| grammar(line))
        .chain(info.asked)
        .map(|(flag, _)| flag)
        .collect();
    let accepted: std::collections::BTreeSet<&str> = accepted.iter().map(String::as_str).collect();
    let documented: std::collections::BTreeSet<&str> = USAGE
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .collect();
    assert_eq!(accepted, documented);
}

#[test]
fn hostile_argv_gets_a_typed_error_naming_the_flag() {
    let with = |base: &[&str], extra: &[&str]| -> Vec<String> {
        base.iter().chain(extra).map(|s| s.to_string()).collect()
    };
    let serve = [
        "serve",
        "--shards",
        "1",
        "--sensors",
        "2",
        "--clients",
        "1",
        "--requests",
        "4",
        "--predictor",
        "ar",
        "--days",
        "2",
    ];
    let follower = ["cluster", "--role", "follower", "--peers", "127.0.0.1:1", "--data-dir", "d"];
    // The series file does not exist: each probe must be refused before
    // anything reads it, binds, spawns or sleeps.
    let forecast = ["forecast", "--input", "no-such-series.csv"];
    let evaluate = ["evaluate", "--input", "no-such-series.csv"];
    let probes = [
        (with(&serve, &["--qps", "0"]), "invalid --qps \"0\""),
        (with(&serve, &["--qps", "-1"]), "invalid --qps \"-1\""),
        (with(&serve, &["--qps", "nan"]), "invalid --qps \"nan\""),
        (with(&serve, &["--qos-rate", "nan"]), "invalid --qos-rate \"nan\""),
        (with(&serve, &["--qos-burst", "4"]), "--qos-burst needs --qos-rate"),
        (with(&serve, &["--shards", "0"]), "invalid --shards \"0\""),
        (with(&serve, &["--sensors", "0"]), "invalid --sensors \"0\""),
        (with(&serve, &["--qps", "1e-30"]), "invalid --qps \"1e-30\""),
        (with(&serve, &["--horizon", "0"]), "invalid --horizon \"0\""),
        (with(&serve, &["--horizon", "4294967296"]), "invalid --horizon \"4294967296\""),
        (with(&follower, &["--duration-s", "inf"]), "invalid --duration-s \"inf\""),
        (with(&forecast, &["--intervall"]), "unknown flag --intervall"),
        (with(&forecast, &["--intervall", "--horizons", "1"]), "unknown flag --intervall"),
        (with(&forecast, &["--horizons", "0"]), "invalid --horizons \"0\""),
        (
            with(&evaluate, &["--horizons", "0", "--steps", "5", "--models", "smiler-ar"]),
            "invalid --horizons \"0\"",
        ),
        (with(&evaluate, &["--period", "0", "--models", "holtwinters"]), "invalid --period \"0\""),
        (with(&evaluate, &["--steps", "0"]), "invalid --steps \"0\""),
        (with(&["generate", "--dataset", "road"], &["--days", "0"]), "invalid --days \"0\""),
    ];
    for (line, expected) in probes {
        let err = run(&mut Args::new(line.clone())).unwrap_err();
        assert_eq!(err.to_string(), expected, "{line:?}");
    }
}

#[test]
fn junk_values_get_ok_or_an_error_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("smiler_cli_junk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for line in valid_lines(dir.to_str().unwrap()) {
        for (flag, _) in grammar(&line).into_iter().filter(|(_, valued)| *valued) {
            for junk in ["inf", "nan", "-1", "0", "1e309", "", "x"] {
                let mut argv = line.clone();
                argv.extend([format!("--{flag}"), junk.to_string()]);
                let read = std::panic::catch_unwind(|| read_verb(&mut Args::new(argv)).map(drop));
                match read {
                    Err(_) => panic!("{line:?} --{flag} {junk:?}: the read stage panicked"),
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        assert!(e.to_string().contains(&format!("--{flag}")), "{line:?}: {e}")
                    }
                }
            }
        }
    }
    assert!(!dir.exists(), "a read stage touched {}", dir.display());
}

#[test]
fn info_mentions_paper_defaults() {
    let s = run(&mut args(&["info"])).unwrap();
    assert!(s.contains("ρ"));
    assert!(s.contains("[32, 64, 96]"));
}

#[test]
fn generate_emits_values() {
    let s = run(&mut args(&["generate", "--dataset", "road", "--days", "4"])).unwrap();
    let lines: Vec<&str> = s.lines().collect();
    assert!(lines[0].starts_with("# ROAD"));
    assert_eq!(lines.len() - 1, 4 * 144);
    assert!(lines[1].parse::<f64>().is_ok());
}

#[test]
fn forecast_end_to_end() {
    let path = write_temp_series("smiler_cli_forecast.csv", 400);
    let s = run(&mut args(&[
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
    let s = run(&mut args(&[
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
    let s = run(&mut args(&[
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
    let s = run(&mut args(&[
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
        run(&mut args(&["forecast", "--input", path.to_str().unwrap(), "--deadline-ms", "soon"]))
            .unwrap_err();
    assert!(err.to_string().contains("invalid --deadline-ms"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn forecast_rejects_short_series() {
    let path = write_temp_series("smiler_cli_short.csv", 20);
    let err = run(&mut args(&["forecast", "--input", path.to_str().unwrap()])).unwrap_err();
    assert!(err.to_string().contains("need at least"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn serve_reports_throughput_and_batching() {
    let s = run(&mut args(&[
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
    let s = run(&mut args(&[
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
    let path = std::env::temp_dir().join(format!("smiler_cli_traces_{}.jsonl", std::process::id()));
    let s = run(&mut args(&[
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
fn serve_ignores_an_unrepresentable_status_period() {
    let s = run(&mut args(&[
        "serve",
        "--shards",
        "1",
        "--sensors",
        "1",
        "--clients",
        "1",
        "--requests",
        "1",
        "--days",
        "1",
        "--status-every",
        "inf",
    ]))
    .unwrap();
    assert!(s.contains("1 requests offered"), "{s}");
}

#[test]
fn restore_requires_existing_state() {
    let dir = std::env::temp_dir().join(format!("smiler_cli_nostate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = run(&mut args(&["restore", "--data-dir", dir.to_str().unwrap()])).unwrap_err();
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
    let s = run(&mut args(&serve_args)).unwrap();
    assert!(s.contains("created durable state"), "{s}");

    // A restart from the same directory restores instead of recreating.
    let s = run(&mut args(&serve_args)).unwrap();
    assert!(s.contains("restored 2 sensors"), "{s}");

    // Offline recovery report, then WAL compaction.
    let s = run(&mut args(&["restore", "--data-dir", dir.to_str().unwrap()])).unwrap();
    assert!(s.contains("restored 2 sensors"), "{s}");
    assert!(s.contains("fleet healthy"), "{s}");
    let s = run(&mut args(&["checkpoint", "--data-dir", dir.to_str().unwrap()])).unwrap();
    assert!(s.contains("checkpointed"), "{s}");

    // Bad flush policies are argument errors, not panics.
    let err =
        run(&mut args(&["restore", "--data-dir", dir.to_str().unwrap(), "--flush", "sometimes"]))
            .unwrap_err();
    assert!(err.to_string().contains("flush policy"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_requires_a_role() {
    let err = run(&mut args(&["cluster"])).unwrap_err();
    assert!(err.to_string().contains("--role is required"), "{err}");
    let err = run(&mut args(&["cluster", "--role", "overlord"])).unwrap_err();
    assert!(err.to_string().contains("unknown role"), "{err}");
}

#[test]
fn cluster_plan_reports_ownership_and_minimal_migration() {
    let s = run(&mut args(&[
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
    let primary = std::thread::spawn(move || run(&mut Args::new(primary_args)));
    let follower_out = run(&mut args(&[
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
    let s = run(&mut args(&[
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
        run(&mut args(&["evaluate", "--input", path.to_str().unwrap(), "--models", "nonsense"]))
            .unwrap_err();
    assert!(err.to_string().contains("unknown model"));
    let _ = std::fs::remove_file(path);
}
