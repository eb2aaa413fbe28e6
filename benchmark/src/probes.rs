//! Layer probes: one sensor-step taken apart into public layer calls.
//!
//! For a seeded sample of sensor-steps the benchmark performs the step
//! itself — `SmilerIndex::try_search` → kNN matrix assembly →
//! `train_online` → `PrefixGp::fit` → `predict_prefix` → `advance` — each
//! call under its own span with the step as parent, next to a span around
//! `SensorPredictor::try_predict` on an identically-fed sensor. Times come
//! from these spans only; counts are read from counters the program
//! already publishes (`SearchStats`). Simulated-GPU seconds are reported
//! as such and never added to wall-clock sums.

use crate::inputs::{rng_for, Feed};
use crate::report::{MetricSet, ScratchDir};
use crate::spans::Tracer;
use crate::stats::{mean_or_zero, percentile_or_zero};
use crate::wire::{run_closed, Action, Op, Until};
use crate::workloads::{device, smiler_config, Scale};
use crate::Res;
use rand::Rng;
use smiler_core::{PredictorKind, SensorPredictor, ServeHandle};
use smiler_dtw::{DtwScratch, LbImprovedScratch};
use smiler_gp::{GpScratch, Hyperparams, PrefixGp};
use smiler_gpu::Device;
use smiler_index::{IndexParams, Neighbor, SmilerIndex};
use smiler_linalg::{Cholesky, Matrix};
use smiler_net::frame::{self, Request, Response, WireForecast};
use smiler_store::{Store, StoreConfig};
use smiler_timeseries::Envelope;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Sensor-steps the layer probe samples per workload.
const PROBE_STEPS: usize = 200;
/// Seeded-random history segments each DTW probe compares the query with,
/// besides the neighbours the search returned.
const DTW_CANDIDATES: usize = 256;

/// Per-call seconds of each probed layer call, one entry per sampled step.
#[derive(Default)]
struct Samples {
    search: Vec<f64>,
    advance: Vec<f64>,
    assembly: Vec<f64>,
    train_online: Vec<f64>,
    train_full: Vec<f64>,
    fit: Vec<f64>,
    gp_predict: Vec<f64>,
    cholesky: Vec<f64>,
    predict: Vec<f64>,
    predict_cached: Vec<f64>,
    observe: Vec<f64>,
    build: Vec<f64>,
}

/// Candidate and survivor counts read from `SearchStats`.
#[derive(Default)]
struct SearchCounts {
    searches: u64,
    candidates: u64,
    unfiltered: u64,
    sim_seconds: f64,
}

/// Totals of one rung of the DTW cascade over every probed candidate.
#[derive(Default)]
struct Rung {
    seconds: f64,
    calls: u64,
    pruned: u64,
}

impl Rung {
    fn ns_per_call(&self) -> f64 {
        self.seconds * 1e9 / self.calls.max(1) as f64
    }

    fn pruned_share(&self) -> f64 {
        self.pruned as f64 / self.calls.max(1) as f64
    }
}

#[derive(Default)]
struct DtwProbe {
    kim: Rung,
    keogh: Rung,
    improved: Rung,
    early_abandon: Rung,
    full: Rung,
    violations: u64,
}

/// kNN matrix assembly as `SensorPredictor` does it: neighbour segments as
/// rows, their `h`-ahead values as labels, the current suffix as the query.
fn assemble(series: &[f64], neighbors: &[Neighbor], d: usize, h: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(neighbors.len(), d, |i, j| series[neighbors[i].start + j]);
    let y = neighbors.iter().map(|nb| series[nb.start + d - 1 + h]).collect();
    (x, y)
}

fn centred(y: &[f64]) -> Vec<f64> {
    let mean = y.iter().sum::<f64>() / y.len().max(1) as f64;
    y.iter().map(|v| v - mean).collect()
}

/// Each rung of the cascade on its own, over the same candidates: cost per
/// call, share of candidates it would prune at the k-th neighbour's
/// distance, and whether any bound exceeded the DTW it bounds.
fn probe_dtw(
    probe: &mut DtwProbe,
    series: &[f64],
    neighbors: &[Neighbor],
    d: usize,
    rho: usize,
    h_max: usize,
    rng: &mut impl Rng,
) {
    let Some(threshold) = neighbors.last().map(|nb| nb.distance) else { return };
    let query = &series[series.len() - d..];
    let envelope = Envelope::compute(query, rho);
    let last_start = series.len() - h_max - d;
    let starts: Vec<usize> = (0..DTW_CANDIDATES)
        .map(|_| rng.gen_range(0..=last_start))
        .chain(neighbors.iter().map(|nb| nb.start))
        .collect();
    let cand = |t: usize| &series[t..t + d];

    // One timed loop per rung: a single call is tens of nanoseconds, far
    // below what two clock reads can resolve.
    let run = |rung: &mut Rung, f: &mut dyn FnMut(&[f64]) -> f64| -> Vec<f64> {
        let started = Instant::now();
        let values: Vec<f64> = starts.iter().map(|&t| f(black_box(cand(t)))).collect();
        rung.seconds += started.elapsed().as_secs_f64();
        rung.calls += starts.len() as u64;
        rung.pruned += values.iter().filter(|&&v| v > threshold).count() as u64;
        values
    };
    let mut lb_scratch = LbImprovedScratch::new();
    let mut dtw_scratch = DtwScratch::with_rho(rho);
    let kim = run(&mut probe.kim, &mut |c| smiler_dtw::lb_kim_fl(query, c));
    let keogh = run(&mut probe.keogh, &mut |c| smiler_dtw::lb_keogh_env(c, &envelope));
    let improved = run(&mut probe.improved, &mut |c| {
        smiler_dtw::lb_improved(query, c, &envelope, &mut lb_scratch)
    });
    // An abandoned candidate reads as +∞, i.e. pruned.
    run(&mut probe.early_abandon, &mut |c| {
        smiler_dtw::dtw_early_abandon_with(query, c, rho, threshold, &mut dtw_scratch)
            .unwrap_or(f64::INFINITY)
    });
    let full = run(&mut probe.full, &mut |c| {
        smiler_dtw::dtw_compressed_with(query, c, rho, &mut dtw_scratch)
    });
    for bounds in [&kim, &keogh, &improved] {
        // Relative slack for the different summation orders of bound and DTW.
        probe.violations += bounds
            .iter()
            .zip(&full)
            .filter(|(lb, dtw)| **lb > **dtw * (1.0 + 1e-9) + 1e-12)
            .count() as u64;
    }
}

/// Probe `PROBE_STEPS` sensor-steps of `feed` (two seeded-random sensors,
/// consecutive steps each) and fill in the `timeseries`, `index`, `dtw`,
/// `gp`, `linalg` and `core` layer metrics. Returns the number of lower
/// bounds that exceeded their DTW, which must be zero.
pub fn layers(
    feed: &Feed,
    kind: PredictorKind,
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut MetricSet,
) -> Res<u64> {
    let config = smiler_config();
    let elv = config.ensemble.elv.clone();
    let ekv = config.ensemble.ekv.clone();
    let k_max = ekv.iter().copied().max().unwrap_or_default();
    let d_master = elv.iter().copied().max().unwrap_or_default();
    let params = IndexParams { rho: config.rho, omega: config.omega, lengths: elv.clone(), k_max };
    let mut rng = rng_for(seed, 3);
    let first = rng.gen_range(0..feed.sensors());
    let second = (first + 1 + rng.gen_range(0..feed.sensors().max(2) - 1)) % feed.sensors();
    let sampled = if second == first { vec![first] } else { vec![first, second] };
    let steps_each = (scale.count(PROBE_STEPS) / sampled.len()).min(feed.rounds());

    let mut samples = Samples::default();
    let mut counts = SearchCounts::default();
    let mut dtw = DtwProbe::default();
    let mut fit_failures = 0u64;
    let mut gp_scratch = GpScratch::new();
    // Seconds of warm steps: the layer calls the probe reproduces, and the
    // `core` forecasts they are measured against.
    let (mut attributed_s, mut predict_s) = (0.0, 0.0);

    for &sensor in &sampled {
        let history = &feed.history[sensor];
        let mut whole =
            SensorPredictor::new(device(), sensor, history.clone(), config.clone(), kind);
        let probe_device = Device::default_gpu();
        let started = Instant::now();
        let mut index = SmilerIndex::build(&probe_device, history.clone(), params.clone())
            .with_threshold(config.threshold);
        samples.build.push(started.elapsed().as_secs_f64());
        let mut hypers: Vec<Option<Hyperparams>> = vec![None; elv.len()];

        for step in 0..steps_each {
            let value = feed.stream[sensor][step];
            let op = ((sensor as u64) << 32) | step as u64;
            // The first step trains from cold; it is reported on its own
            // (`gp.train_full_ms`) and kept out of the steady-state medians.
            let warm = step > 0;

            // The whole step through `core`, on the identically-fed sensor.
            let (served, secs) = tracer.time("core.predict", None, op, || whole.try_predict(1));
            served.map_err(|e| format!("probe sensor {sensor}: {e}"))?;
            if warm {
                samples.predict.push(secs);
                predict_s += secs;
            }
            // Horizon 2 while the search is current: everything but the search.
            let (served, secs) =
                tracer.time("core.predict_cached", None, op, || whole.try_predict(2));
            served.map_err(|e| format!("probe sensor {sensor}: {e}"))?;
            if warm {
                samples.predict_cached.push(secs);
            }
            let ((), secs) = tracer.time("core.observe", None, op, || whole.observe(value));
            samples.observe.push(secs);

            // The same step, layer by layer.
            let root = tracer.open("probe.step", op);
            let max_end = index.series().len() - config.h_max;
            let (found, secs) =
                tracer.time("index.search", root, op, || index.try_search(&probe_device, max_end));
            let found = found.map_err(|e| format!("probe sensor {sensor}: {e}"))?;
            samples.search.push(secs);
            let mut step_s = secs;
            counts.searches += 1;
            counts.candidates += found.stats.candidates.iter().sum::<usize>() as u64;
            counts.unfiltered += found.stats.unfiltered.iter().sum::<usize>() as u64;
            counts.sim_seconds += found.stats.total_sim_seconds;

            if kind == PredictorKind::GaussianProcess {
                for (column, &d) in elv.iter().enumerate() {
                    let neighbors = &found.neighbors[column];
                    if neighbors.len() < 3 {
                        continue;
                    }
                    let ((x, y), secs) = tracer.time("core.knn_assembly", root, op, || {
                        assemble(index.series(), neighbors, d, 1)
                    });
                    samples.assembly.push(secs);
                    let labels = centred(&y);
                    let hyper = match hypers[column] {
                        None => {
                            let (hyper, secs) = tracer.time("gp.train_full", root, op, || {
                                smiler_gp::train_full(&x, &labels, &config.train)
                            });
                            samples.train_full.push(secs);
                            hyper
                        }
                        Some(previous) => {
                            let (hyper, secs) = tracer.time("gp.train_online", root, op, || {
                                smiler_gp::train_online(&x, &labels, previous, &config.train)
                            });
                            samples.train_online.push(secs);
                            step_s += secs;
                            hyper
                        }
                    };
                    hypers[column] = Some(hyper);

                    if d == d_master {
                        let gram = smiler_gp::kernel::gram(
                            &smiler_gp::kernel::squared_distances(&x),
                            &hyper,
                        );
                        let started = Instant::now();
                        let factor = Cholesky::decompose_with_jitter(
                            black_box(&gram),
                            1e-10,
                            1e-4 * hyper.prior_variance(),
                        );
                        samples.cholesky.push(started.elapsed().as_secs_f64());
                        black_box(factor.is_ok());
                    }

                    let x0 = index.series()[index.series().len() - d..].to_vec();
                    let (fit, secs) =
                        tracer.time("gp.fit", root, op, || PrefixGp::fit(x.clone(), hyper));
                    samples.fit.push(secs);
                    step_s += secs;
                    match fit {
                        Ok(model) => {
                            let ((), secs) = tracer.time("gp.predict", root, op, || {
                                for &k in &ekv {
                                    let k = k.min(model.len());
                                    let labels = centred(&y[..k]);
                                    black_box(model.predict_prefix(
                                        k,
                                        &labels,
                                        &x0,
                                        &mut gp_scratch,
                                    ));
                                }
                            });
                            samples.gp_predict.push(secs);
                            step_s += secs;
                        }
                        Err(_) => fit_failures += 1,
                    }
                }
            }

            if let Some(master) = elv.iter().position(|&d| d == d_master) {
                probe_dtw(
                    &mut dtw,
                    index.series(),
                    &found.neighbors[master],
                    d_master,
                    config.rho,
                    config.h_max,
                    &mut rng,
                );
            }
            let ((), secs) =
                tracer.time("index.advance", root, op, || index.advance(&probe_device, value));
            samples.advance.push(secs);
            tracer.close(root);
            if warm {
                attributed_s += step_s;
            }
        }
    }

    let median_us = |v: &[f64]| percentile_or_zero(v, 0.5) * 1e6;
    metrics.set("index.build_ms", percentile_or_zero(&samples.build, 0.5) * 1e3);
    metrics.set("index.advance_us", median_us(&samples.advance));
    metrics.set("index.search_us", median_us(&samples.search));
    metrics.set("index.search_p95_us", percentile_or_zero(&samples.search, 0.95) * 1e6);
    let searches = counts.searches.max(1) as f64;
    metrics.set("index.candidates_per_search", counts.candidates as f64 / searches);
    metrics.set(
        "index.pruned_share",
        1.0 - counts.unfiltered as f64 / counts.candidates.max(1) as f64,
    );
    metrics.set("index.sim_s_per_search", counts.sim_seconds / searches);

    metrics.set("dtw.lb_kim_ns", dtw.kim.ns_per_call());
    metrics.set("dtw.lb_keogh_ns", dtw.keogh.ns_per_call());
    metrics.set("dtw.lb_improved_ns", dtw.improved.ns_per_call());
    metrics.set("dtw.early_abandon_ns", dtw.early_abandon.ns_per_call());
    metrics.set("dtw.full_ns", dtw.full.ns_per_call());
    metrics.set("dtw.lb_kim_pruned_share", dtw.kim.pruned_share());
    metrics.set("dtw.lb_keogh_pruned_share", dtw.keogh.pruned_share());
    metrics.set("dtw.lb_improved_pruned_share", dtw.improved.pruned_share());
    metrics.set("dtw.abandoned_share", dtw.early_abandon.pruned_share());
    metrics.set("dtw.lb_violations", dtw.violations as f64);

    metrics.set("gp.train_full_ms", mean_or_zero(&samples.train_full) * 1e3);
    metrics.set("gp.train_online_us", median_us(&samples.train_online));
    metrics.set("gp.fit_us", median_us(&samples.fit));
    metrics.set("gp.predict_us", median_us(&samples.gp_predict));
    metrics.set("gp.fit_failures", fit_failures as f64);
    metrics.set("linalg.cholesky_us", median_us(&samples.cholesky));

    metrics.set("core.observe_us", median_us(&samples.observe));
    metrics.set("core.observe_p99_us", percentile_or_zero(&samples.observe, 0.99) * 1e6);
    metrics.set("core.predict_us", median_us(&samples.predict));
    metrics.set("core.predict_cached_us", median_us(&samples.predict_cached));
    // What `core` spends on a forecast beyond the layer calls the probe
    // reproduces (kNN assembly, ensemble fuse, clones, thread hand-off), as
    // a share of the forecast, over the same warm steps. The probe runs a
    // step's GP columns one after another while `core` spreads them over
    // the spare cores, so on a multi-core host the share can be negative.
    if predict_s > 0.0 {
        metrics.set("core.unattributed_share", 1.0 - attributed_s / predict_s);
    }
    Ok(dtw.violations)
}

/// Pings sent for `net.ping_rtt_us`.
const PINGS: usize = 200;
/// Frames encoded and decoded for `net.encode_ns` / `net.decode_ns`.
const CODEC_FRAMES: usize = 20_000;
/// Appends timed for `store.append_us`.
const STORE_APPENDS: usize = 4096;

/// Serve and net layers, on a fleet that is being served: the first half
/// of `plan` goes over the socket, the second half straight through the
/// in-process `ServeHandle`, closed loop both times, so the difference is
/// what the wire adds to the same request mix.
pub fn serve_and_net(
    addr: SocketAddr,
    handle: &ServeHandle,
    plan: &[Op],
    tracer: &mut Tracer,
    metrics: &mut MetricSet,
) -> Res<()> {
    let (over_wire, in_process) = plan.split_at(plan.len() / 2);
    let plans = [over_wire.to_vec()];
    let phase = run_closed(addr, &plans, Until::plan_exhausted(), tracer)?;
    let wire_s: Vec<f64> =
        phase.all().filter(|d| over_wire[d.op].asked.is_some()).map(|d| d.latency_s).collect();

    let (mut handle_s, mut overhead_s, mut observe_s) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in in_process.iter().enumerate() {
        let (observe, forecast) = op.action.parts();
        let root = tracer.open("serve.op", i as u64);
        let mut op_s = 0.0;
        if let Some((sensor, value)) = observe {
            let (done, secs) = tracer
                .time("serve.observe", root, i as u64, || handle.observe(sensor as usize, value));
            done.map_err(|e| format!("in-process observe: {e}"))?;
            observe_s.push(secs);
            op_s += secs;
        }
        if let Some((sensor, h)) = forecast {
            let (served, secs) = tracer.time("serve.forecast", root, i as u64, || {
                handle.forecast(sensor as usize, h as usize)
            });
            let served = served.map_err(|e| format!("in-process forecast: {e}"))?;
            // Admission, queue wait, batch window and the reply hop: what
            // the handle took beyond the prediction itself.
            overhead_s.push(secs - served.elapsed.as_secs_f64());
            op_s += secs;
            handle_s.push(op_s);
        }
        tracer.close(root);
    }
    let median_us = |v: &[f64]| percentile_or_zero(v, 0.5) * 1e6;
    metrics.set("serve.overhead_us", median_us(&overhead_s));
    metrics.set("serve.observe_us", median_us(&observe_s));
    metrics.set("net.overhead_us", median_us(&wire_s) - median_us(&handle_s));

    let pings = [(0..PINGS).map(|i| Op::new(i, Action::Ping, None)).collect::<Vec<_>>()];
    let phase = run_closed(addr, &pings, Until::plan_exhausted(), &mut Tracer::new(false))?;
    let rtt: Vec<f64> = phase.all().map(|d| d.latency_s).collect();
    metrics.set("net.ping_rtt_us", median_us(&rtt));

    // Codec alone: a forecast request out, a forecast response back.
    let request = Request::Forecast { request_id: 7, tenant: 0, sensor: 3, h: 1, deadline_us: 0 };
    let mut buf = Vec::with_capacity(64 * CODEC_FRAMES);
    let started = Instant::now();
    for _ in 0..CODEC_FRAMES {
        black_box(&request).encode(&mut buf);
    }
    metrics.set("net.encode_ns", started.elapsed().as_secs_f64() * 1e9 / CODEC_FRAMES as f64);
    let forecast =
        WireForecast { mean: 0.25, variance: 0.5, rung: 0, deadline_missed: false, elapsed_us: 9 };
    buf.clear();
    for _ in 0..CODEC_FRAMES {
        Response::Forecast { request_id: 7, forecast }.encode(&mut buf);
    }
    let mut rest = &buf[..];
    let started = Instant::now();
    while !rest.is_empty() {
        let (used, payload) = frame::try_frame(black_box(rest))
            .map_err(|e| format!("codec probe: {e}"))?
            .ok_or("codec probe: truncated frame")?;
        black_box(Response::decode(payload).map_err(|e| format!("codec probe: {e}"))?);
        rest = &rest[used..];
    }
    metrics.set("net.decode_ns", started.elapsed().as_secs_f64() * 1e9 / CODEC_FRAMES as f64);
    Ok(())
}

/// Store layer alone: `Store::append_observe` under the default flush
/// policy (`every-32`, so one append in 32 pays the fsync and shows in
/// the p99).
pub fn store(scale: &Scale, tracer: &mut Tracer, metrics: &mut MetricSet) -> Res<()> {
    let dir = ScratchDir::new("store")?;
    let (mut store, _) = Store::open(dir.path(), StoreConfig::default())
        .map_err(|e| format!("open probe store: {e}"))?;
    let mut append_s = Vec::new();
    for i in 0..scale.count(STORE_APPENDS) {
        let value = (i as f64 * 0.37).sin();
        let (done, secs) = tracer
            .time("store.append", None, i as u64, || store.append_observe((i % 16) as u32, value));
        done.map_err(|e| format!("probe append: {e}"))?;
        append_s.push(secs);
    }
    store.sync().map_err(|e| format!("probe sync: {e}"))?;
    drop(store);
    metrics.set("store.append_us", percentile_or_zero(&append_s, 0.5) * 1e6);
    metrics.set("store.append_p99_us", percentile_or_zero(&append_s, 0.99) * 1e6);
    Ok(())
}
