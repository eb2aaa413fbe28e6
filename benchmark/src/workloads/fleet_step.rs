//! `fleet_step`: the paper's continuous-prediction setting, in process.
//!
//! `SmilerSystem::step(1, obs)` over 8 GP sensors (4 ROAD + 4 MALL, 28
//! days of history), one driver thread, no serve, net or store. Index
//! search, the DTW cascade, simulated-GPU launches and GP train/fit do
//! nearly all the work here (paper Table 4 / Fig 12), so this is the
//! workload a search or GP optimisation is claimed on — and the one a
//! reactor or batch-window change must leave unchanged.

use super::{device, repeat_setup, smiler_config, Scale};
use crate::check::Quality;
use crate::inputs::Feed;
use crate::probes;
use crate::report::{MetricSet, WorkloadResult, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{median, median_rate};
use crate::Res;
use smiler_core::{PredictorKind, SmilerSystem};
use smiler_gpu::Device;
use smiler_timeseries::synthetic::DatasetKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUPS: [(DatasetKind, usize); 2] = [(DatasetKind::Road, 4), (DatasetKind::Mall, 4)];
const HISTORY_DAYS: usize = 28;
/// Observations kept ready beyond the history: a phase that outruns them
/// ends early, which at ~25 rounds/s takes 40 s of stepping.
const STREAM_DAYS: usize = 7;
const WARMUP_ROUNDS: usize = 3;
/// Rounds whose forecasts are scored: a fixed count, so `mae` repeats
/// exactly for a seed. The timed phase never stops before reaching it.
const QUALITY_ROUNDS: usize = 300;
/// `throughput_ops_s` is the median rate over this many blocks of the
/// timed phase's rounds (`stats::median_rate`).
const RATE_BLOCKS: usize = 25;

struct Fleet {
    system: SmilerSystem,
    device: Arc<Device>,
    feed: Feed,
    next_round: usize,
}

fn setup(seed: u64, scale: &Scale) -> Res<Fleet> {
    let feed = Feed::generate(&GROUPS, scale.days(HISTORY_DAYS), STREAM_DAYS, seed);
    let device = device();
    let (mut system, rejected) = SmilerSystem::new(
        Arc::clone(&device),
        feed.history.clone(),
        smiler_config(),
        PredictorKind::GaussianProcess,
    );
    if let Some(oom) = rejected {
        return Err(format!("fleet does not fit the device: {oom}"));
    }
    // The first steps pay the cold 40-iteration GP training; that is
    // set-up, never part of a timed phase.
    for round in 0..WARMUP_ROUNDS {
        system.step(1, &feed.round(round));
    }
    Ok(Fleet { system, device, feed, next_round: WARMUP_ROUNDS })
}

#[derive(Default)]
struct Steps {
    round_s: Vec<f64>,
    round_end_s: Vec<f64>,
    failed: u64,
}

impl Steps {
    fn sensor_steps(&self, fleet: &Fleet) -> usize {
        self.round_s.len() * fleet.feed.sensors()
    }

    /// Sensor-steps per second, as the median over `RATE_BLOCKS` blocks.
    fn rate(&self, fleet: &Fleet) -> f64 {
        median_rate(&self.round_end_s, RATE_BLOCKS) * fleet.feed.sensors() as f64
    }
}

/// Step the fleet for `seconds` (and at least `min_rounds`), scoring the
/// forecasts of the first `scored_rounds` rounds.
fn steps(
    fleet: &mut Fleet,
    tracer: &mut Tracer,
    seconds: f64,
    min_rounds: usize,
    scored_rounds: usize,
    quality: &mut Quality,
) -> Steps {
    let mut out = Steps::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let sensors = fleet.feed.sensors();
    while fleet.next_round < fleet.feed.rounds() {
        let done = out.round_s.len();
        if done >= min_rounds && started.elapsed() >= budget {
            break;
        }
        let observed = fleet.feed.round(fleet.next_round);
        let (forecasts, secs) =
            tracer.time("core.step", None, done as u64, || fleet.system.step(1, &observed));
        out.round_s.push(secs);
        out.round_end_s.push(started.elapsed().as_secs_f64());
        fleet.next_round += 1;
        // `step` forecasts h = 1 before it absorbs `observed`, so each
        // forecast is of the value passed in the same call.
        for (sensor, (&(mean, variance), &realised)) in forecasts.iter().zip(&observed).enumerate()
        {
            if !(mean.is_finite() && variance.is_finite() && variance > 0.0) {
                out.failed += 1;
            } else if done < scored_rounds {
                quality.push((done * sensors + sensor) as u64, realised, mean, variance);
            }
        }
    }
    out
}

/// Tracing off: the end-to-end metrics.
pub fn run(seed: u64, scale: &Scale) -> Res<WorkloadResult> {
    let (mut fleet, setup_s) = repeat_setup(scale, || setup(seed, scale))?;
    let scored = scale.count(QUALITY_ROUNDS);
    let mut quality = Quality::default();
    let phase =
        steps(&mut fleet, &mut Tracer::new(false), scale.seconds, scored, scored, &mut quality);
    if phase.round_s.len() < scored {
        return Err(format!("observation stream ran out after {} rounds", phase.round_s.len()));
    }

    let mut metrics = MetricSet::zeros(&END_TO_END);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("throughput_ops_s", phase.rate(&fleet));
    metrics.set("latency_p50_ms", median(&phase.round_s) * 1e3);
    let attempted = phase.sensor_steps(&fleet) as u64;
    let mut result = WorkloadResult::new("fleet_step", true, attempted, phase.failed, metrics);
    result.add_summary("step_round", "ms", 1e3, &phase.round_s);
    result.add_summary("setup", "s", 1.0, &setup_s);
    result.add_info("mae", "z-units", quality.mae());
    result.add_info("mnlpd", "nats", quality.mnlpd());
    result.add_info("scored_forecasts", "count", quality.len() as f64);
    result.add_info("sensor_steps", "count", phase.sensor_steps(&fleet) as f64);
    Ok(result)
}

/// Tracing on: the same stepping under spans, then the layer probes.
pub fn trace(seed: u64, scale: &Scale) -> Res<(WorkloadResult, Tracer)> {
    let mut fleet = setup(seed, scale)?;
    let mut tracer = Tracer::new(true);
    let mut quality = Quality::default();
    let share = scale.seconds * 0.2;
    let scored = scale.count(QUALITY_ROUNDS) / 4;
    let plain = steps(&mut fleet, &mut Tracer::new(false), share, scored, scored, &mut quality);
    let launches = (fleet.device.kernel_launches(), fleet.device.blocks_launched());
    let traced = steps(&mut fleet, &mut tracer, share, 2, 0, &mut Quality::default());
    let per_step = |after: u64, before: u64| {
        (after - before) as f64 / traced.sensor_steps(&fleet).max(1) as f64
    };

    let mut metrics = MetricSet::zeros(&PER_LAYER);
    metrics.set("timeseries.generate_ms", fleet.feed.generate_ms);
    metrics.set("core.step_ms", median(&traced.round_s) * 1e3);
    metrics.set("gpu.launches_per_step", per_step(fleet.device.kernel_launches(), launches.0));
    metrics.set("gpu.blocks_per_step", per_step(fleet.device.blocks_launched(), launches.1));
    metrics.set("core.resident_bytes", fleet.system.resident_bytes() as f64);
    metrics.set("loadgen.trace_overhead_share", 1.0 - traced.rate(&fleet) / plain.rate(&fleet));
    metrics.set("quality.mae", quality.mae());
    metrics.set("quality.mnlpd", quality.mnlpd());
    let attempted = plain.sensor_steps(&fleet) + traced.sensor_steps(&fleet);
    let failed = plain.failed + traced.failed;
    metrics.set("quality.failed_share", failed as f64 / attempted.max(1) as f64);

    let violations = probes::layers(
        &fleet.feed,
        PredictorKind::GaussianProcess,
        seed,
        scale,
        &mut tracer,
        &mut metrics,
    )?;
    let result =
        WorkloadResult::new("fleet_step", violations == 0, attempted as u64, failed, metrics);
    Ok((result, tracer))
}
