//! `ingest_recover`: the write path and restart, in isolation.
//!
//! One *cycle*: `DurableSystem::create` (4 AR ROAD sensors, 60 days,
//! `checkpoint_every = 0`), a fixed number of `observe_all` rounds and a
//! `sync`, drop without a final checkpoint (the kill), then
//! `DurableSystem::open` three times over, each replaying the whole tail
//! (nothing is observed in between, so every restart does the same work).
//! Cycles repeat for the run's duration; the ingest rate is the median
//! over blocks of consecutive rounds and the restart latency the median
//! over restarts. Store append/fsync, `core::durable` replay, index
//! advance and λ update do the work; nothing searches and there is no GP.
//! It is the workload ROADMAP item 3 (superlinear replay) will be claimed
//! on: `latency_p50_ms` here is the restart latency.
//!
//! Output check: every restored fleet's `predict_all(1)`, and then the
//! last one's forecasts over a further 300 rounds, must equal a
//! never-stopped in-memory control bit for bit. Those forecasts are what
//! `mae` scores.

use super::{device, smiler_config, Scale};
use crate::check::Quality;
use crate::inputs::Feed;
use crate::probes;
use crate::report::{MetricSet, ScratchDir, WorkloadResult, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{block_rates, median};
use crate::Res;
use smiler_core::{DurableSystem, PredictorKind, RestoreReport, SmilerSystem};
use smiler_store::StoreConfig;
use smiler_timeseries::synthetic::DatasetKind;
use std::path::Path;
use std::time::Instant;

const SENSORS: usize = 4;
const HISTORY_DAYS: usize = 60;
/// Rounds ingested and then replayed per cycle: fixed, because replay
/// time is not linear in it.
const ROUNDS: usize = 2000;
/// Rounds the restored fleet and the control keep forecasting for: two
/// days, so that `mae` averages over the ROAD generator's congestion
/// incidents (one per 2.5 days per sensor) instead of hinging on whether
/// the window caught one.
const CONTINUATION_ROUNDS: usize = 300;
/// Share of `--seconds` the cycles' timed parts may add up to; the control
/// fleet and the continuation check take about as long as the rest.
const CYCLES_SHARE: f64 = 0.7;
const STREAM_DAYS: usize = (ROUNDS + CONTINUATION_ROUNDS) / 144 + 2;
/// Cycles a full run never does fewer of.
const MIN_CYCLES: usize = 3;
/// Restarts timed per cycle. A restart is one indivisible ~1.4 s sample and
/// on the reference box about one in four comes out 20–50 % slow, so the
/// median needs more of them than a run has time to ingest for.
const RESTARTS_PER_CYCLE: usize = 3;
/// `throughput_ops_s` is the median rate over blocks of this many
/// consecutive rounds (`stats::median_rate`), all cycles pooled.
const ROUNDS_PER_BLOCK: usize = 100;

fn feed(seed: u64, scale: &Scale) -> Feed {
    Feed::generate(&[(DatasetKind::Road, SENSORS)], scale.days(HISTORY_DAYS), STREAM_DAYS, seed)
}

/// What one cycle measured.
struct Cycle {
    setup_s: f64,
    round_s: Vec<f64>,
    /// When each round ended, seconds from the start of the first.
    round_end_s: Vec<f64>,
    ingest_wall_s: f64,
    wal_bytes: u64,
    /// Seconds each restart took.
    restore_s: Vec<f64>,
    /// The last restart's report.
    report: RestoreReport,
}

/// What one cycle left behind: the restored fleet and the inputs it was fed.
struct Restored {
    fleet: DurableSystem,
    feed: Feed,
    /// Dropped last: `fleet` keeps its store open in here.
    _dir: ScratchDir,
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One create → ingest `rounds` → kill → open (`restarts` times) cycle;
/// returns the fleet the last restart restored.
fn cycle(
    seed: u64,
    scale: &Scale,
    rounds: usize,
    restarts: usize,
    tracer: &mut Tracer,
) -> Res<(Cycle, Restored)> {
    let started = Instant::now();
    let feed = feed(seed, scale);
    let scratch = ScratchDir::new("ingest")?;
    let dir = scratch.path();
    let (mut durable, rejected) = DurableSystem::create(
        device(),
        feed.history.clone(),
        smiler_config(),
        PredictorKind::Aggregation,
        dir,
        StoreConfig::default(),
        0,
    )
    .map_err(|e| format!("create durable fleet: {e}"))?;
    if let Some(oom) = rejected {
        return Err(format!("fleet does not fit the device: {oom}"));
    }
    let setup_s = started.elapsed().as_secs_f64();
    // Whatever the data directory grows by from here on is the log.
    let bytes_at_create = dir_bytes(dir);

    let mut round_s = Vec::with_capacity(rounds);
    let mut round_end_s = Vec::with_capacity(rounds);
    let started = Instant::now();
    for r in 0..rounds {
        let values = feed.round(r);
        let (done, secs) =
            tracer.time("durable.observe_all", None, r as u64, || durable.observe_all(&values));
        done.map_err(|e| format!("round {r}: {e}"))?;
        round_s.push(secs);
        round_end_s.push(started.elapsed().as_secs_f64());
    }
    durable.sync().map_err(|e| format!("sync: {e}"))?;
    let ingest_wall_s = started.elapsed().as_secs_f64();
    let wal_bytes = dir_bytes(dir).saturating_sub(bytes_at_create);
    drop(durable); // the kill: no final checkpoint

    let mut restore_s = Vec::with_capacity(restarts);
    let mut restored = None;
    for _ in 0..restarts {
        // The previous restart's fleet goes first: it holds the store open.
        drop(restored.take());
        let (opened, secs) = tracer.time("durable.open", None, rounds as u64, || {
            DurableSystem::open(device(), dir, StoreConfig::default(), 0)
        });
        let (fleet, report) = opened.map_err(|e| format!("restore: {e}"))?;
        if report.replayed_rounds != rounds {
            return Err(format!("replayed {} of {rounds} rounds", report.replayed_rounds));
        }
        restore_s.push(secs);
        restored = Some((fleet, report));
    }
    let (fleet, report) = restored.ok_or("a cycle needs at least one restart")?;
    let times =
        Cycle { setup_s, round_s, round_end_s, ingest_wall_s, wal_bytes, restore_s, report };
    Ok((times, Restored { fleet, feed, _dir: scratch }))
}

/// The never-stopped fleet the restored one must agree with.
fn control(feed: &Feed, rounds: usize) -> Res<SmilerSystem> {
    let (mut system, rejected) = SmilerSystem::new(
        device(),
        feed.history.clone(),
        smiler_config(),
        PredictorKind::Aggregation,
    );
    if let Some(oom) = rejected {
        return Err(format!("control fleet does not fit the device: {oom}"));
    }
    for r in 0..rounds {
        system.observe_all(&feed.round(r));
    }
    Ok(system)
}

fn same_bits(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// Bitwise mismatches and scored forecasts of the restart check.
#[derive(Default)]
struct Checked {
    forecasts: u64,
    mismatches: u64,
    quality: Quality,
}

impl Checked {
    fn compare(&mut self, restored: &[(f64, f64)], control: &[(f64, f64)]) {
        self.forecasts += control.len() as u64;
        if !same_bits(restored, control) {
            self.mismatches += control.len() as u64;
        }
    }

    /// Keep both fleets forecasting from round `from`, comparing and
    /// scoring every forecast.
    fn continue_both(
        &mut self,
        restored: &mut Restored,
        control: &mut SmilerSystem,
        from: usize,
        rounds: usize,
    ) -> Res<()> {
        for r in from..(from + rounds).min(restored.feed.rounds()) {
            let observed = restored.feed.round(r);
            let want = control.step(1, &observed);
            let got =
                restored.fleet.step(1, &observed).map_err(|e| format!("continuation: {e}"))?;
            self.compare(&got, &want);
            for (sensor, (&(mean, variance), &realised)) in want.iter().zip(&observed).enumerate() {
                self.quality.push(((r - from) * SENSORS + sensor) as u64, realised, mean, variance);
            }
        }
        Ok(())
    }
}

/// Tracing off: the end-to-end metrics.
pub fn run(seed: u64, scale: &Scale) -> Res<WorkloadResult> {
    let rounds = scale.count(ROUNDS);
    let min_cycles = if scale.smoke { 1 } else { MIN_CYCLES };
    let mut control_fleet = control(&feed(seed, scale), rounds)?;
    let control_forecast = control_fleet.predict_all(1);
    let mut checked = Checked::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut timed_s = 0.0;
    let mut last = loop {
        let (c, mut restored) =
            cycle(seed, scale, rounds, RESTARTS_PER_CYCLE, &mut Tracer::new(false))?;
        timed_s += c.ingest_wall_s + c.restore_s.iter().sum::<f64>();
        checked.compare(&restored.fleet.system_mut().predict_all(1), &control_forecast);
        cycles.push(c);
        if cycles.len() >= min_cycles && timed_s >= scale.seconds * CYCLES_SHARE {
            break restored;
        }
    };
    let continuation = scale.count(CONTINUATION_ROUNDS);
    checked.continue_both(&mut last, &mut control_fleet, rounds, continuation)?;

    let per_cycle = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: fn(&Cycle) -> Vec<f64>| cycles.iter().flat_map(f).collect::<Vec<f64>>();
    let setup_s = per_cycle(|c| c.setup_s);
    let restore_s = pooled(|c| c.restore_s.clone());
    let rates = pooled(|c| block_rates(&c.round_end_s, c.round_end_s.len() / ROUNDS_PER_BLOCK));
    let mut metrics = MetricSet::zeros(&END_TO_END);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("throughput_ops_s", median(&rates));
    metrics.set("latency_p50_ms", median(&restore_s) * 1e3);
    let ingested = (cycles.len() * rounds) as u64;
    let mut result = WorkloadResult::new(
        "ingest_recover",
        checked.mismatches == 0,
        ingested + checked.forecasts,
        checked.mismatches,
        metrics,
    );
    result.add_summary("observe_round", "us", 1e6, &pooled(|c| c.round_s.clone()));
    result.add_summary("restore", "s", 1.0, &restore_s);
    result.add_summary("setup", "s", 1.0, &setup_s);
    result.add_info("cycles", "count", cycles.len() as f64);
    result.add_info("rounds_per_cycle", "count", rounds as f64);
    result.add_info("replay_s", "s", median(&per_cycle(|c| c.report.replay_seconds)));
    result.add_info("mae", "z-units", checked.quality.mae());
    result.add_info("mnlpd", "nats", checked.quality.mnlpd());
    result.add_info("scored_forecasts", "count", checked.quality.len() as f64);
    Ok(result)
}

/// Tracing on: a quarter-length cycle without spans (the base for replay
/// linearity and for what the spans cost), a full cycle under spans, then
/// the store and layer probes.
pub fn trace(seed: u64, scale: &Scale) -> Res<(WorkloadResult, Tracer)> {
    let rounds = scale.count(ROUNDS);
    let quarter = (rounds / 4).max(1);
    let mut tracer = Tracer::new(true);
    let mut metrics = MetricSet::zeros(&PER_LAYER);

    let (short, mut short_restored) = cycle(seed, scale, quarter, 1, &mut Tracer::new(false))?;
    let started = Instant::now();
    short_restored.fleet.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = started.elapsed().as_secs_f64();
    drop(short_restored);
    let (full, mut restored) = cycle(seed, scale, rounds, 1, &mut tracer)?;

    let mut checked = Checked::default();
    let mut control_fleet = control(&restored.feed, rounds)?;
    checked.compare(&restored.fleet.system_mut().predict_all(1), &control_fleet.predict_all(1));
    let continuation = scale.count(CONTINUATION_ROUNDS);
    checked.continue_both(&mut restored, &mut control_fleet, rounds, continuation)?;

    metrics.set("timeseries.generate_ms", restored.feed.generate_ms);
    metrics.set("core.resident_bytes", restored.fleet.system().resident_bytes() as f64);
    metrics.set("store.checkpoint_ms", checkpoint_s * 1e3);
    metrics.set("store.wal_bytes_per_round", full.wal_bytes as f64 / rounds as f64);
    metrics.set("durable.restore_s", full.restore_s[0]);
    metrics.set("durable.open_s", full.report.open_seconds);
    metrics.set("durable.rebuild_s", full.report.rebuild_seconds);
    metrics.set("durable.replay_s", full.report.replay_seconds);
    let replay_rate = |c: &Cycle| c.report.replayed_rounds as f64 / c.report.replay_seconds;
    metrics.set("durable.replay_rounds_per_s", replay_rate(&full));
    metrics.set("durable.replay_linearity", replay_rate(&full) / replay_rate(&short));
    // Like for like: the same first rounds, without and with spans.
    let first: f64 = full.round_s[..quarter].iter().sum();
    metrics.set("loadgen.trace_overhead_share", 1.0 - short.round_s.iter().sum::<f64>() / first);
    metrics.set("quality.mae", checked.quality.mae());
    metrics.set("quality.mnlpd", checked.quality.mnlpd());
    let attempted = (quarter + rounds) as u64 + checked.forecasts;
    metrics.set("quality.failed_share", checked.mismatches as f64 / attempted as f64);

    probes::store(scale, &mut tracer, &mut metrics)?;
    let violations = probes::layers(
        &restored.feed,
        PredictorKind::Aggregation,
        seed,
        scale,
        &mut tracer,
        &mut metrics,
    )?;
    let result = WorkloadResult::new(
        "ingest_recover",
        checked.mismatches == 0 && violations == 0,
        attempted,
        checked.mismatches,
        metrics,
    );
    Ok((result, tracer))
}
