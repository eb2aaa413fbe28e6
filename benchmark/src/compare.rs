//! `compare <dirA> <dirB>`: two sets of `run` result files, side by side.
//!
//! Per workload row and end-to-end metric: each side's median and
//! quartiles, the change of the median, and a verdict against the bound
//! the registry fixes for that metric. A is the parent, B the change.

use crate::report::{MetricDef, RunFile, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Res;
use std::path::Path;

/// What the two sets of runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of the run pairs and the medians differ
    /// by more than A's own run-to-run spread.
    Improved,
    /// B's median is no worse than A's by more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side exceeds the bound, so neither
    /// "unchanged" nor "regressed" can be read off the medians — unless
    /// every run of B beats every run of A, which reads as improved.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A. Runs are in the order they were made, so run `i` of
/// A pairs with run `i` of B.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    // Orient so that larger is worse.
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    let worse: Vec<f64> = a.iter().map(|v| sign * v).collect();
    let worse_b: Vec<f64> = b.iter().map(|v| sign * v).collect();
    let (med_a, med_b) = (median(&worse), median(&worse_b));
    let scale = med_a.abs().max(f64::MIN_POSITIVE);
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let b_always_better = worse_b.iter().all(|y| worse.iter().all(|x| y < x));
    if iqr(&worse) / scale > bound || iqr(&worse_b) / med_b.abs().max(f64::MIN_POSITIVE) > bound {
        return if b_always_better { Verdict::Improved } else { Verdict::Unresolved };
    }
    if (med_b - med_a) / scale > bound {
        return Verdict::Regressed;
    }
    let pairs = worse.iter().zip(&worse_b).filter(|(x, y)| x != y).count();
    let wins = worse.iter().zip(&worse_b).filter(|(x, y)| y < x).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && med_a - med_b > iqr(&worse) {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// Values of every end-to-end metric per workload, from the `run`-mode
/// result files of `dir`, in file-name (hence time) order.
fn load(dir: &Path) -> Res<Vec<RunFile>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let files: Vec<RunFile> = paths
        .iter()
        .map(|p| RunFile::read(p))
        .collect::<Res<Vec<_>>>()?
        .into_iter()
        .filter(|f| f.mode == "run" && !f.smoke)
        .collect();
    if files.is_empty() {
        return Err(format!("{} holds no full `run` result files", dir.display()));
    }
    Ok(files)
}

fn values(files: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| &f.workloads)
        .filter(|w| w.name == workload)
        .flat_map(|w| &w.metrics)
        .filter(|m| m.name == metric)
        .map(|m| m.value)
        .collect()
}

/// Print the comparison; an error when any metric regressed or could not
/// be resolved, so the command can gate a change.
pub fn run(dir_a: &Path, dir_b: &Path) -> Res<()> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let seconds: Vec<f64> = a.iter().chain(&b).map(|f| f.seconds).collect();
    if seconds.iter().any(|&s| s != seconds[0]) {
        return Err("the runs measured for different --seconds; they are not comparable".into());
    }
    println!(
        "A = {} ({} files)   B = {} ({} files)",
        dir_a.display(),
        a.len(),
        dir_b.display(),
        b.len()
    );
    println!(
        "{:<15} {:<17} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound"
    );
    if a.len().min(b.len()) < 10 {
        println!(
            "note: fewer than ten runs a side; with so few the quartiles sit near the extremes \
             and rows read `unresolved` that more runs would resolve"
        );
    }
    let mut bad = Vec::new();
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (values(&a, workload, def.name), values(&b, workload, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.5} [{:.5}, {:.5}] {}", median(v), q1, q3, v.len())
            };
            let change = (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE);
            let verdict = verdict(def, &va, &vb);
            println!(
                "{:<15} {:<17} {:>36} {:>36} {:>+7.1}% {:>5.0}%  {}",
                workload,
                def.name,
                side(&va),
                side(&vb),
                change * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                bad.push(format!("{workload} {} {}", def.name, verdict.as_str()));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef =
        MetricDef { name: "latency", unit: "ms", higher_is_better: false, bound: Some(0.10) };
    const HIGHER: MetricDef =
        MetricDef { name: "rate", unit: "1/s", higher_is_better: true, bound: Some(0.10) };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [10.0, 10.2, 9.9, 10.1];
        assert_eq!(verdict(&LOWER, &a, &[10.3, 10.4, 10.1, 10.2]), Verdict::Unchanged);
        assert_eq!(verdict(&LOWER, &a, &[11.5, 11.6, 11.4, 11.7]), Verdict::Regressed);
        assert_eq!(verdict(&LOWER, &a, &[9.0, 9.1, 8.9, 9.2]), Verdict::Improved);
        // The same numbers as a rate: lower is now the worse direction.
        assert_eq!(verdict(&HIGHER, &a, &[9.0, 9.1, 8.9, 9.2]), Verdict::Unchanged);
        assert_eq!(verdict(&HIGHER, &a, &[8.0, 8.1, 7.9, 8.2]), Verdict::Regressed);
        assert_eq!(verdict(&HIGHER, &a, &[11.5, 11.6, 11.4, 11.7]), Verdict::Improved);
        // Identical values (a deterministic metric) are unchanged.
        assert_eq!(verdict(&LOWER, &[0.25; 3], &[0.25; 3]), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [8.0, 12.0, 9.0, 11.5];
        assert_eq!(verdict(&LOWER, &noisy, &[10.0, 10.1, 9.9, 10.2]), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &[10.0, 10.1, 9.9, 10.2], &noisy), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(verdict(&LOWER, &noisy, &[5.0, 5.1, 4.9, 5.2]), Verdict::Improved);
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_more_than_the_parents_spread() {
        // B is better on the median but loses two of four pairs.
        let a = [10.0, 10.4, 10.0, 10.4];
        assert_eq!(verdict(&LOWER, &a, &[10.2, 9.6, 10.2, 9.6]), Verdict::Unchanged);
        // B wins every pair but by less than A's own spread.
        assert_eq!(verdict(&LOWER, &a, &[9.9, 10.3, 9.9, 10.3]), Verdict::Unchanged);
    }
}
