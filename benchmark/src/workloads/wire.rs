//! `wire_step` and `wire_read`: a fleet behind `NetServer` on loopback.
//!
//! **`wire_step`** — a durable GP fleet (8 ROAD sensors, 14 days,
//! `start_with_store`). Each *step* is `Observe(s, v_t)` then
//! `Forecast(s, 1)` written together; every sensor belongs to exactly one
//! connection, so per-sensor order is fixed. This is the realistic mix and
//! the "same layer used two ways" workload: writes (WAL append → index
//! advance → λ update) travel the same shard queue as reads (search + GP),
//! so a gain for one use that costs the other shows here.
//!
//! **`wire_read`** — 16 AR (`Aggregation`) ROAD sensors, 14 days, no
//! store. Every 16th request is an `Observe`, the other 15 are
//! `Forecast(s, h)` for a seeded-random sensor and `h ∈ 1..=4`: dashboard
//! polling between observations. At least 15 in 16 forecasts hit the
//! cached search and there is no GP, so frame codec, reactor, admission,
//! queue wait and the micro-batch window are nearly all of the latency.
//! An index, DTW or GP optimisation must show *no change* here; a
//! reactor-sleep, batch-window or forecast-cache change shows here first.
//!
//! Both run three phases: a closed-loop *check* prefix whose forecasts are
//! replayed in process and must match bit for bit; a *paced* open-loop
//! phase (latency at roughly a quarter of capacity, timed from scheduled
//! send); and a *saturated* phase of two closed-loop connections, each
//! owning a contiguous half of the sensors (capacity).

use super::{build_sensors, device, repeat_setup, smiler_config, Scale};
use crate::check::{ForecastDigest, Quality};
use crate::inputs::{poisson_schedule, rng_for, Feed};
use crate::probes;
use crate::report::{MetricSet, ScratchDir, WorkloadResult, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{median, percentile_or_zero};
use crate::wire::{run_closed, run_paced, Action, Asked, Op, Phase, Until};
use crate::Res;
use rand::Rng;
use smiler_core::{DurableSystem, PredictorKind, ServeConfig, SmilerServer};
use smiler_gpu::Device;
use smiler_net::{NetConfig, NetServer};
use smiler_store::StoreConfig;
use smiler_timeseries::synthetic::DatasetKind;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Which of the two wire workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `wire_step`.
    Step,
    /// `wire_read`.
    Read,
}

const HISTORY_DAYS: usize = 14;
const STREAM_DAYS: usize = 7;
const WARMUP_STEPS_PER_SENSOR: usize = 3;
/// Closed-loop operations served over the socket and replayed in process.
const CHECK_OPS: usize = 200;
/// In `wire_read`, one request in this many is an `Observe`.
const OBSERVE_EVERY: usize = 16;
/// Share of `--seconds` the paced phase takes; the saturated phase takes
/// the rest.
const PACED_SHARE: f64 = 0.5;
/// `throughput_ops_s` is the median rate over this many blocks of the
/// saturated phase's completions (`stats::median_rate`).
const RATE_BLOCKS: usize = 20;

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Step => "wire_step",
            Kind::Read => "wire_read",
        }
    }

    fn sensors(self) -> usize {
        match self {
            Kind::Step => 8,
            Kind::Read => 16,
        }
    }

    fn predictor(self) -> PredictorKind {
        match self {
            Kind::Step => PredictorKind::GaussianProcess,
            Kind::Read => PredictorKind::Aggregation,
        }
    }

    /// Operations each saturated-phase connection keeps in flight.
    ///
    /// A `wire_step` costs ~5 ms of search and GP, so one step in flight
    /// per connection already keeps both shard workers busy. A cached
    /// `wire_read` forecast costs ~0.07 ms, and with one request in flight
    /// per connection the loop is bistable: the reply lands just before or
    /// just after the reactor's escalating idle sleep, 0.9 ms or 1.9 ms a
    /// request, and which one holds for a run is chance (run-to-run spread
    /// of 40 % on the reference box). Eight pollers per connection keep
    /// the reactor awake, so the phase measures capacity (spread 7 %); the
    /// one-in-flight round trip is still reported, as `net.overhead_us`.
    fn pollers_per_connection(self) -> usize {
        match self {
            Kind::Step => 1,
            Kind::Read => 8,
        }
    }

    /// Operations per connection of the saturated phase whose forecasts are
    /// scored; the phase never stops before sending them (about 4 s of
    /// `wire_step`, under 1 s of `wire_read`, on the reference box).
    fn saturated_scored(self) -> usize {
        match self {
            Kind::Step => 400,
            Kind::Read => 2000,
        }
    }

    /// Open-loop arrival rate, operations per second: roughly a quarter of
    /// what the saturated phase reaches on the 2-core reference box.
    fn paced_rate(self) -> f64 {
        match self {
            Kind::Step => 60.0,
            Kind::Read => 500.0,
        }
    }
}

/// A fleet being served, its inputs, and how far each sensor's
/// observation stream has been consumed.
struct Served {
    kind: Kind,
    feed: Feed,
    cursor: Vec<usize>,
    /// The warm-up plan set-up served, kept for the in-process replay.
    warm: Vec<Op>,
    device: Arc<Device>,
    server: Option<SmilerServer>,
    net: Option<NetServer>,
    addr: SocketAddr,
    /// Dropped last: the store's files live here while the fleet serves.
    _dir: Option<ScratchDir>,
}

impl Drop for Served {
    fn drop(&mut self) {
        // Reactor first, then the shard workers; both join their threads.
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(kind: Kind, seed: u64, scale: &Scale) -> Res<Served> {
    let groups = [(DatasetKind::Road, kind.sensors())];
    let feed = Feed::generate(&groups, scale.days(HISTORY_DAYS), STREAM_DAYS, seed);
    let device = device();
    let serve = ServeConfig { shards: 2, ..Default::default() };
    let (server, dir) = match kind {
        Kind::Step => {
            let dir = ScratchDir::new("wire")?;
            let (durable, rejected) = DurableSystem::create(
                Arc::clone(&device),
                feed.history.clone(),
                smiler_config(),
                kind.predictor(),
                dir.path(),
                StoreConfig::default(),
                0,
            )
            .map_err(|e| format!("create durable fleet: {e}"))?;
            if let Some(oom) = rejected {
                return Err(format!("fleet does not fit the device: {oom}"));
            }
            let (system, store) = durable.into_parts();
            let server = SmilerServer::start_with_store(
                Arc::clone(&device),
                system.into_sensors(),
                serve,
                smiler_store::shared(store),
            );
            (server, Some(dir))
        }
        Kind::Read => {
            let sensors = build_sensors(&device, &feed, kind.predictor());
            (SmilerServer::start(Arc::clone(&device), sensors, serve), None)
        }
    };
    let net_config = NetConfig { inflight_window: 256, ..Default::default() };
    let net = NetServer::bind("127.0.0.1:0", server.handle(), net_config)
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut served = Served {
        kind,
        cursor: vec![0; feed.sensors()],
        warm: Vec::new(),
        feed,
        device,
        addr: net.local_addr(),
        server: Some(server),
        net: Some(net),
        _dir: dir,
    };
    // Warm-up pays the cold GP training and fills the search caches; it is
    // set-up, never part of a timed phase.
    let warm = served.step_plan(0..kind.sensors(), WARMUP_STEPS_PER_SENSOR * kind.sensors());
    let plans = [warm];
    let phase = run_closed(served.addr, &plans, Until::plan_exhausted(), &mut off())?;
    let [warm] = plans;
    served.commit(&warm, &phase, 0);
    served.warm = warm;
    Ok(served)
}

fn off() -> Tracer {
    Tracer::new(false)
}

impl Served {
    /// `count` steps round-robin over `sensors`, continuing each sensor's
    /// stream from the cursor (which only [`Served::commit`] advances).
    fn step_plan(&self, sensors: Range<usize>, count: usize) -> Vec<Op> {
        let mut cursor = self.cursor.clone();
        let width = sensors.len();
        (0..count)
            .map_while(|i| {
                let s = sensors.start + i % width;
                let at = cursor[s];
                let stream = &self.feed.stream[s];
                let (value, realised) = (*stream.get(at)?, *stream.get(at + 1)?);
                cursor[s] += 1;
                let asked = Asked { sensor: s as u64, step: at as u64, realised };
                Some(Op::new(i, Action::Step { sensor: s as u64, value, h: 1 }, Some(asked)))
            })
            .collect()
    }

    /// `count` dashboard requests over `sensors`: every 16th an `Observe`
    /// (round-robin sensor, next value), the rest `Forecast(s, h)` with
    /// seeded-random `s` and `h ∈ 1..=4`.
    fn read_plan(&self, sensors: Range<usize>, count: usize, rng: &mut impl Rng) -> Vec<Op> {
        let mut cursor = self.cursor.clone();
        let width = sensors.len();
        let mut observes = 0;
        (0..count)
            .map_while(|i| {
                if i % OBSERVE_EVERY == OBSERVE_EVERY - 1 {
                    let s = sensors.start + observes % width;
                    observes += 1;
                    let value = *self.feed.stream[s].get(cursor[s])?;
                    cursor[s] += 1;
                    return Some(Op::new(i, Action::Observe { sensor: s as u64, value }, None));
                }
                let s = rng.gen_range(sensors.clone());
                let h = rng.gen_range(1..=4u32);
                // `h` steps past the last value the sensor has absorbed.
                let realised = *self.feed.stream[s].get(cursor[s] + h as usize - 1)?;
                let asked = Asked { sensor: s as u64, step: i as u64, realised };
                Some(Op::new(i, Action::Forecast { sensor: s as u64, h }, Some(asked)))
            })
            .collect()
    }

    fn plan(&self, sensors: Range<usize>, count: usize, rng: &mut impl Rng) -> Vec<Op> {
        match self.kind {
            Kind::Step => self.step_plan(sensors, count),
            Kind::Read => self.read_plan(sensors, count, rng),
        }
    }

    /// Advance the stream cursors past what connection `conn` of `phase`
    /// actually executed of `plan`.
    fn commit(&mut self, plan: &[Op], phase: &Phase, conn: usize) {
        for done in &phase.done[conn] {
            if let (Some((sensor, _)), _) = plan[done.op].action.parts() {
                self.cursor[sensor as usize] += 1;
            }
        }
    }
}

/// Failures and scored forecasts of every phase of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    degraded: u64,
    forecasts: u64,
    quality: Quality,
}

impl Tally {
    /// Count a phase's operations and score its forecasts. `scored` is the
    /// phase's number and how many operations per connection, from the
    /// start of the plan, are scored: only operations the plan — never the
    /// clock — decides on, so the quality metrics repeat exactly for a seed.
    fn absorb(&mut self, plans: &[Vec<Op>], phase: &Phase, scored: Option<(u64, usize)>) {
        for (conn, done) in phase.done.iter().enumerate() {
            for d in done {
                self.attempted += 1;
                let asked = plans[conn][d.op].asked;
                let served_full = match (asked, d.forecast) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(asked), Some(f)) => {
                        self.forecasts += 1;
                        if f.rung != 0 {
                            self.degraded += 1;
                        }
                        if let Some((id, _)) = scored.filter(|&(_, prefix)| d.op < prefix) {
                            let key = (id << 48) | ((conn as u64) << 40) | d.op as u64;
                            self.quality.push(key, asked.realised, f.mean, f.variance);
                        }
                        f.rung == 0 && !f.deadline_missed
                    }
                };
                if d.errors > 0 || !served_full {
                    self.failed += 1;
                }
            }
        }
    }
}

/// Replay the warm-up and then `check` on a fresh in-process fleet and
/// digest the forecasts of `check`.
fn replay_digest(served: &Served, check: &[Op]) -> Res<ForecastDigest> {
    let mut sensors = build_sensors(&device(), &served.feed, served.kind.predictor());
    let mut digest = ForecastDigest::default();
    for (ops, scored) in [(&served.warm[..], false), (check, true)] {
        for op in ops {
            let (observe, forecast) = op.action.parts();
            if let Some((sensor, value)) = observe {
                sensors[sensor as usize].observe(value);
            }
            if let Some((sensor, h)) = forecast {
                let p = sensors[sensor as usize]
                    .try_predict(h as usize)
                    .map_err(|e| format!("replay sensor {sensor}: {e}"))?;
                if let (true, Some(asked)) = (scored, op.asked) {
                    digest.push(asked.sensor, asked.step, p.mean, p.variance);
                }
            }
        }
    }
    Ok(digest)
}

fn wire_digest(plan: &[Op], phase: &Phase) -> ForecastDigest {
    let mut digest = ForecastDigest::default();
    for d in phase.all() {
        if let (Some(asked), Some(f)) = (plan[d.op].asked, d.forecast) {
            digest.push(asked.sensor, asked.step, f.mean, f.variance);
        }
    }
    digest
}

/// Latencies (seconds) of the operations that asked for a forecast.
fn forecast_latencies(plans: &[Vec<Op>], phase: &Phase) -> Vec<f64> {
    phase
        .done
        .iter()
        .enumerate()
        .flat_map(|(conn, done)| {
            done.iter().filter(move |d| plans[conn][d.op].asked.is_some()).map(|d| d.latency_s)
        })
        .collect()
}

/// Two closed-loop plans, one per contiguous half of the sensors, long
/// enough that the phase's duration — not the plan — ends it: room for
/// ten times the rate the reference box reaches.
fn saturated_plans(served: &Served, seed: u64, seconds: f64) -> Vec<Vec<Op>> {
    let n = served.kind.sensors();
    let per_conn = (seconds * 10.0 * served.kind.paced_rate() * 4.0).ceil() as usize;
    [(0..n / 2, 5), (n / 2..n, 6)]
        .into_iter()
        .map(|(half, purpose)| served.plan(half, per_conn, &mut rng_for(seed, purpose)))
        .collect()
}

/// The saturated phase: two closed-loop connections for `seconds`, and for
/// at least `min_ops` operations each.
fn saturate(
    served: &mut Served,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    tracer: &mut Tracer,
) -> Res<(Vec<Vec<Op>>, Phase)> {
    let plans = saturated_plans(served, seed, seconds);
    let until = Until {
        duration: Duration::from_secs_f64(seconds),
        min_ops,
        window: served.kind.pollers_per_connection(),
    };
    let phase = run_closed(served.addr, &plans, until, tracer)?;
    for (conn, plan) in plans.iter().enumerate() {
        served.commit(plan, &phase, conn);
    }
    Ok((plans, phase))
}

fn pace(
    served: &mut Served,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Res<(Vec<Op>, Phase)> {
    let schedule = poisson_schedule(seed, served.kind.paced_rate(), seconds);
    let plan = served.plan(0..served.kind.sensors(), schedule.len(), &mut rng_for(seed, 4));
    let phase = run_paced(served.addr, &plan, &schedule[..plan.len()], tracer)?;
    served.commit(&plan, &phase, 0);
    Ok((plan, phase))
}

/// Tracing off: the end-to-end metrics.
pub fn run(kind: Kind, seed: u64, scale: &Scale) -> Res<WorkloadResult> {
    let (mut served, setup_s) = repeat_setup(scale, || setup(kind, seed, scale))?;
    let mut tally = Tally::default();
    let sensors = 0..kind.sensors();

    // Output check: the same operations over the socket and in process.
    let check = [served.plan(sensors, scale.count(CHECK_OPS), &mut rng_for(seed, 2))];
    let checked = run_closed(served.addr, &check, Until::plan_exhausted(), &mut off())?;
    served.commit(&check[0], &checked, 0);
    tally.absorb(&check, &checked, Some((0, usize::MAX)));
    let over_wire = wire_digest(&check[0], &checked);
    let in_process = replay_digest(&served, &check[0])?;
    let correct = over_wire.len() == in_process.len() && over_wire.finish() == in_process.finish();
    if !correct {
        // Every forecast of the prefix is suspect; charge them all.
        tally.failed += over_wire.len().max(in_process.len()) as u64;
    }

    let (paced_plan, paced) = pace(&mut served, seed, scale.seconds * PACED_SHARE, &mut off())?;
    let paced_plan = [paced_plan];
    tally.absorb(&paced_plan, &paced, Some((1, usize::MAX)));
    let prefix = scale.count(kind.saturated_scored());
    let (sat_plans, saturated) =
        saturate(&mut served, seed, scale.seconds * (1.0 - PACED_SHARE), prefix, &mut off())?;
    tally.absorb(&sat_plans, &saturated, Some((2, prefix)));

    let latencies = forecast_latencies(&paced_plan, &paced);
    let mut metrics = MetricSet::zeros(&END_TO_END);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("throughput_ops_s", saturated.median_rate(RATE_BLOCKS));
    metrics.set("latency_p50_ms", median(&latencies) * 1e3);
    let mut result =
        WorkloadResult::new(kind.name(), correct, tally.attempted, tally.failed, metrics);
    result.add_summary("paced.latency", "ms", 1e3, &latencies);
    result.add_summary("saturated.latency", "ms", 1e3, &forecast_latencies(&sat_plans, &saturated));
    result.add_summary("setup", "s", 1.0, &setup_s);
    result.add_info("loadgen.late_p99_ms", "ms", percentile_or_zero(&paced.late_s, 0.99) * 1e3);
    result.add_info("loadgen.late_max_ms", "ms", percentile_or_zero(&paced.late_s, 1.0) * 1e3);
    result.add_info("loadgen.backlog_growth", "count", paced.backlog_growth as f64);
    result.add_info("mae", "z-units", tally.quality.mae());
    result.add_info("mnlpd", "nats", tally.quality.mnlpd());
    result.add_info("scored_forecasts", "count", tally.quality.len() as f64);
    result.add_info("check.ops", "count", checked.completed() as f64);
    result.add_info("paced.ops", "count", paced.completed() as f64);
    result.add_info("saturated.ops", "count", saturated.completed() as f64);
    result.add_info("degraded_forecasts", "count", tally.degraded as f64);
    Ok(result)
}

/// Tracing on: the same phases under spans, then the serve/net/store and
/// layer probes.
pub fn trace(kind: Kind, seed: u64, scale: &Scale) -> Res<(WorkloadResult, Tracer)> {
    let mut served = setup(kind, seed, scale)?;
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut metrics = MetricSet::zeros(&PER_LAYER);
    metrics.set("timeseries.generate_ms", served.feed.generate_ms);

    // Capacity with and without spans: the difference is what tracing costs.
    let share = scale.seconds * 0.15;
    let (plans, plain) = saturate(&mut served, seed, share, 1, &mut off())?;
    tally.absorb(&plans, &plain, None);
    let launches = (served.device.kernel_launches(), served.device.blocks_launched());
    let forecasts_before = tally.forecasts;
    let (plans, traced) = saturate(&mut served, seed, share, 1, &mut tracer)?;
    tally.absorb(&plans, &traced, None);
    let rate = |p: &Phase| p.median_rate(RATE_BLOCKS);
    metrics.set("loadgen.trace_overhead_share", 1.0 - rate(&traced) / rate(&plain));
    let forecasts = (tally.forecasts - forecasts_before).max(1) as f64;
    metrics.set(
        "gpu.launches_per_step",
        (served.device.kernel_launches() - launches.0) as f64 / forecasts,
    );
    metrics.set(
        "gpu.blocks_per_step",
        (served.device.blocks_launched() - launches.1) as f64 / forecasts,
    );

    // Latency at a quarter of capacity, split into server and the rest.
    let (plan, paced) = pace(&mut served, seed, scale.seconds * 0.3, &mut tracer)?;
    let plan = [plan];
    tally.absorb(&plan, &paced, Some((1, usize::MAX)));
    let latencies = forecast_latencies(&plan, &paced);
    let server_s: Vec<f64> =
        paced.all().filter_map(|d| d.forecast).map(|f| f.elapsed_us as f64 * 1e-6).collect();
    let wire_p50 = percentile_or_zero(&latencies, 0.5);
    if wire_p50 > 0.0 {
        metrics.set("net.server_share", percentile_or_zero(&server_s, 0.5) / wire_p50);
    }
    metrics.set("net.latency_p95_ms", percentile_or_zero(&latencies, 0.95) * 1e3);
    metrics.set("net.latency_p99_ms", percentile_or_zero(&latencies, 0.99) * 1e3);
    metrics.set("loadgen.late_p99_ms", percentile_or_zero(&paced.late_s, 0.99) * 1e3);
    metrics.set("loadgen.late_max_ms", percentile_or_zero(&paced.late_s, 1.0) * 1e3);
    metrics.set("loadgen.backlog_growth", paced.backlog_growth as f64);

    // Last use of the server, so what this plan consumes is not committed.
    let probe_plan =
        served.plan(0..kind.sensors(), scale.count(2 * CHECK_OPS), &mut rng_for(seed, 7));
    let handle = served.server.as_ref().expect("still serving").handle();
    probes::serve_and_net(served.addr, &handle, &probe_plan, &mut tracer, &mut metrics)?;
    drop(handle);

    // Stop serving before the layer probes: they must not share the cores
    // with idle-polling reactor and shard threads.
    if let Some(net) = served.net.take() {
        net.shutdown();
    }
    if let Some(server) = served.server.take() {
        let stats = server.shutdown();
        metrics.set("serve.mean_batch_size", stats.mean_batch_size());
        metrics.set("serve.batches", stats.batches as f64);
        metrics.set("serve.shed", stats.shed as f64);
        metrics.set("serve.timeouts", stats.timeouts as f64);
        metrics.set("serve.faults", stats.faults as f64);
    }
    if kind == Kind::Step {
        probes::store(scale, &mut tracer, &mut metrics)?;
    }
    metrics.set("core.degraded_share", tally.degraded as f64 / tally.forecasts.max(1) as f64);
    metrics.set("quality.mae", tally.quality.mae());
    metrics.set("quality.mnlpd", tally.quality.mnlpd());
    metrics.set("quality.failed_share", tally.failed as f64 / tally.attempted.max(1) as f64);
    let violations =
        probes::layers(&served.feed, kind.predictor(), seed, scale, &mut tracer, &mut metrics)?;

    let result =
        WorkloadResult::new(kind.name(), violations == 0, tally.attempted, tally.failed, metrics);
    Ok((result, tracer))
}
