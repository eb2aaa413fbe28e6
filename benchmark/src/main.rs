//! The repo's benchmark: four workloads over the whole forecast path,
//! end-to-end metrics with tracing off, per-layer metrics from a separate
//! traced pass. See `benchmark/README.md`.
//!
//! ```text
//! smiler-benchmark run     --seed <u64> [--seconds <s>] [--smoke]
//! smiler-benchmark trace   --seed <u64> [--seconds <s>] [--smoke]
//! smiler-benchmark compare <dirA> <dirB>
//! smiler-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is the driver's: one workload, and as the last line of
//! stdout one JSON object with `correct`, `attempted`, `failed`, `metrics`.
//! Metrics go to stdout, by name with their units; warnings and the path of
//! the result file go to stderr.

mod check;
mod compare;
mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod wire;
mod workloads;

use report::{Env, RunFile, WorkloadResult, WORKLOADS};
use workloads::Scale;

/// The benchmark's error type: a message for the person running it.
pub type Res<T> = Result<T, String>;

/// Seconds each workload measures for unless `--seconds` says otherwise;
/// `BENCHMARK.json` passes the same figure.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` budget per workload.
const SMOKE_SECONDS: f64 = 0.5;
/// A paced phase whose generator ran later than this measured the
/// scheduler, not the program.
const LATE_WARN_MS: f64 = 5.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Res<Args> {
    let mut out = Args { workload: None, seed: 0, seconds: None, trace: false, smoke: false };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed <u64> is required: the workloads are made from it".into());
    }
    Ok(out)
}

fn scale_of(args: &Args) -> Scale {
    let default = if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
    Scale { seconds: args.seconds.unwrap_or(default), smoke: args.smoke }
}

/// Run `names` in one mode, print every metric by name with its unit,
/// write the result file (and span files), and return the results.
fn execute(names: &[&str], args: &Args) -> Res<Vec<WorkloadResult>> {
    let scale = scale_of(args);
    let mut env = Env::capture();
    let mut results = Vec::new();
    for &name in names {
        let mut result = if args.trace {
            let (result, tracer) = workloads::trace(name, args.seed, &scale)?;
            let path = report::out_dir()?.join(format!("trace-{name}.jsonl"));
            tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
            result
        } else {
            workloads::run(name, args.seed, &scale)?
        };
        let late = result
            .info
            .iter()
            .chain(&result.metrics)
            .find(|m| m.name == "loadgen.late_p99_ms")
            .map_or(0.0, |m| m.value);
        if late > LATE_WARN_MS {
            result.warnings.push(format!(
                "the load generator ran {late:.1} ms late at p99 (> {LATE_WARN_MS} ms): \
                 this run measured the scheduler"
            ));
        }
        report::print_result(&result);
        results.push(result);
    }
    env.load_end = report::load_average();
    // Only the load the run found: by its end it has added its own threads.
    if env.load_start > env.nproc as f64 {
        eprintln!(
            "warning: load average {:.2} exceeded the {} cores when the run started: it shared \
             them with something else",
            env.load_start, env.nproc
        );
    }
    let file = RunFile {
        mode: if args.trace { "trace" } else { "run" }.into(),
        seed: args.seed,
        seconds: scale.seconds,
        smoke: scale.smoke,
        env,
        workloads: results.clone(),
    };
    eprintln!("wrote {}", file.write()?.display());
    Ok(results)
}

fn all_ok(results: &[WorkloadResult]) -> Res<()> {
    for r in results {
        if !r.correct {
            return Err(format!("{}: an output check failed", r.name));
        }
        if r.failed_share() > 0.01 {
            return Err(format!("{}: {:.4} of operations failed", r.name, r.failed_share()));
        }
    }
    Ok(())
}

fn main_inner() -> Res<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") | Some("trace") => {
            let mut flags = parse_flags(&args[1..])?;
            flags.trace = args[0] == "trace";
            if flags.workload.is_some() {
                return Err("run and trace execute every workload; drop --workload".into());
            }
            all_ok(&execute(&WORKLOADS, &flags)?)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <dirA> <dirB>".into()),
        },
        Some(_) => {
            let flags = parse_flags(&args)?;
            let name = flags.workload.clone().ok_or("--workload <name> is required")?;
            let results = execute(&[name.as_str()], &flags)?;
            // The driver reads the verdict from this line, not the exit code.
            println!("{}", report::contract_line(&results[0]));
            Ok(())
        }
        None => Err("usage: run|trace --seed <u64> [--seconds <s>] [--smoke] | compare <dirA> \
                     <dirB> | --workload <name> --seed <u64> --seconds <s> --trace <0|1>"
            .into()),
    }
}

fn main() {
    if let Err(message) = main_inner() {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
