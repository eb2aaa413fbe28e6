//! Numeric equivalence of the optimised hot paths against their allocating
//! oracles, at the paper's default scale (`d = 96`, `ρ = 8`):
//!
//! * workspace DTW variants vs. the allocating entry points,
//! * the shared-prefix GP factorisation vs. independent per-k fits,
//! * one host thread vs two and four — bitwise-identical predictions and
//!   kNN sets and the same grids over full continuous steps, for one
//!   sensor and for a fleet whose sensors step in parallel, and simulated
//!   clocks that reproduce bit for bit run to run on one host thread;
//! * a sensor that panics inside a parallel fleet step is quarantined
//!   alone and leaves every other forecast as a fault-free step makes it.

use smiler_core::sensor::{SensorPredictor, SmilerConfig};
use smiler_core::{FaultKind, PredictorKind, SmilerSystem};
use smiler_dtw::DtwScratch;
use smiler_gp::{GpScratch, Hyperparams, PrefixGp};
use smiler_gpu::Device;
use smiler_index::{try_fleet_search, IndexParams, SmilerIndex};
use smiler_linalg::Matrix;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::sync::Arc;

fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as f64 * 0.11).sin() * 1.5 + (state % 1000) as f64 / 700.0
        })
        .collect()
}

#[test]
fn workspace_dtw_matches_allocating_oracle() {
    let series = pseudo_series(600, 5);
    let d = 96;
    let rho = 8;
    let query = &series[series.len() - d..];
    let mut scratch = DtwScratch::new();
    for t in (0..series.len() - d).step_by(11) {
        let cand = &series[t..t + d];
        let fresh = smiler_dtw::dtw_compressed(query, cand, rho);
        let reused = smiler_dtw::dtw_compressed_with(query, cand, rho, &mut scratch);
        assert_eq!(fresh, reused, "workspace DTW diverged at t={t}");
        let abandon = smiler_dtw::dtw_early_abandon_with(query, cand, rho, fresh, &mut scratch);
        assert_eq!(abandon, Some(fresh), "inclusive threshold must keep the exact distance");
    }
}

#[test]
fn prefix_gp_matches_independent_fits() {
    let k_max = 32;
    let d = 24;
    let x = Matrix::from_fn(k_max, d, |i, j| ((i * d + j) as f64 * 0.29).sin() * 1.3);
    let y: Vec<f64> = (0..k_max).map(|i| (i as f64 * 0.43).cos()).collect();
    let x0: Vec<f64> = (0..d).map(|j| (j as f64 * 0.17).cos() * 0.8).collect();
    let pg = PrefixGp::fit(x, Hyperparams::new(1.0, 1.5, 0.12)).expect("fit");
    assert!(pg.exact());
    let mut scratch = GpScratch::new();
    for k in 1..=k_max {
        let mean_k = y[..k].iter().sum::<f64>() / k as f64;
        let centred: Vec<f64> = y[..k].iter().map(|v| v - mean_k).collect();
        let (mean, var) = pg.predict_prefix(k, &centred, &x0, &mut scratch);
        let (o_mean, o_var) = pg.oracle_fit(k, &centred).expect("oracle fit").predict(&x0);
        assert!((mean - o_mean).abs() < 1e-9, "k={k}: mean {mean} vs {o_mean}");
        assert!((var - o_var).abs() < 1e-9, "k={k}: var {var} vs {o_var}");
    }
}

/// Everything `full_steps_bitwise` observes, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct StepsOutcome {
    preds: Vec<(u64, u64)>,
    knn: Vec<Vec<Vec<(usize, u64)>>>,
    /// `(kernel_launches, blocks_launched)` of the predictor's device and
    /// of the bare index's device.
    grids: [(u64, u64); 2],
    /// Cumulative `(elapsed_seconds, saturated_seconds)` of the same two.
    clocks: [(u64, u64); 2],
}

/// Run `steps` full predict(1)+observe steps and continuous index searches
/// on devices restricted to `host_threads`.
fn full_steps_bitwise(host_threads: usize, series: &[f64], steps: usize) -> StepsOutcome {
    let split = series.len() - steps;
    let grid = |device: &Device| (device.kernel_launches(), device.blocks_launched());
    let clock = |device: &Device| {
        (device.elapsed_seconds().to_bits(), device.saturated_seconds().to_bits())
    };

    let fleet_device = Arc::new(Device::default_gpu().with_host_threads(host_threads));
    let config = SmilerConfig { h_max: 10, ..Default::default() };
    let mut predictor = SensorPredictor::new(
        Arc::clone(&fleet_device),
        0,
        series[..split].to_vec(),
        config,
        PredictorKind::GaussianProcess,
    );
    let mut preds = Vec::with_capacity(steps);
    for &v in &series[split..] {
        let (mean, var) = predictor.predict(1);
        predictor.observe(v);
        preds.push((mean.to_bits(), var.to_bits()));
    }

    let device = Device::default_gpu().with_host_threads(host_threads);
    let mut index = SmilerIndex::build(&device, series[..split].to_vec(), IndexParams::default());
    let mut knn = Vec::with_capacity(steps);
    for &v in &series[split..] {
        let max_end = index.series().len() - 10;
        let out = index.search(&device, max_end);
        index.advance(&device, v);
        knn.push(
            out.neighbors
                .iter()
                .map(|ns| ns.iter().map(|n| (n.start, n.distance.to_bits())).collect())
                .collect(),
        );
    }
    StepsOutcome {
        preds,
        knn,
        grids: [grid(&fleet_device), grid(&device)],
        clocks: [clock(&fleet_device), clock(&device)],
    }
}

#[test]
fn host_threads_change_no_result_and_serial_clocks_reproduce() {
    let series = pseudo_series(700, 7);
    let steps = 4;
    let serial = full_steps_bitwise(1, &series, steps);
    // One host thread trains the GP columns serially; two and four train
    // them in parallel, as they run the kernel blocks.
    for threads in [2, 4] {
        let parallel = full_steps_bitwise(threads, &series, steps);
        assert_eq!(serial.preds, parallel.preds, "GP predictions diverged on {threads} threads");
        assert_eq!(serial.knn, parallel.knn, "kNN results diverged on {threads} threads");
        assert_eq!(serial.grids, parallel.grids, "launch grids diverged on {threads} threads");
    }
    // Simulated seconds are a pure function of the costs the blocks report,
    // so a serial run reproduces them bit for bit. Across thread counts
    // they are NOT pinned: how much a cascade block prunes depends on how
    // far its sibling blocks have tightened the shared running τ
    // (`smiler_index`'s `SharedBest`), so the reported DTW work — never the
    // answer — moves with the interleaving.
    assert_eq!(serial, full_steps_bitwise(1, &series, steps), "a serial run must reproduce");
}

/// Rounds each fleet run steps through.
const FLEET_ROUNDS: usize = 4;

/// Four ROAD and four MALL sensors: five days of history each, then
/// [`FLEET_ROUNDS`] observations per sensor.
fn fleet_series() -> Vec<Vec<f64>> {
    [DatasetKind::Road, DatasetKind::Mall]
        .into_iter()
        .flat_map(|kind| {
            let spec = SyntheticSpec { kind, sensors: 4, days: 6, seed: 11 };
            let keep = 5 * kind.samples_per_day() + FLEET_ROUNDS;
            spec.generate().sensors.into_iter().map(move |s| s.values()[..keep].to_vec())
        })
        .collect()
}

/// One search's neighbours per query length, as `(start, distance bits)`.
type KnnBits = Vec<Vec<(usize, u64)>>;

/// Everything `fleet_steps_bitwise` observes, floats as bit patterns.
#[derive(Debug, PartialEq)]
struct FleetOutcome {
    /// Per round, every sensor's `(mean, variance)` forecast.
    preds: Vec<Vec<(u64, u64)>>,
    /// Per round, the fleet search's neighbours for every sensor and
    /// query length.
    knn: Vec<Vec<KnnBits>>,
    /// `(kernel_launches, blocks_launched)` of the fleet's device.
    grids: (u64, u64),
    quarantined: Vec<usize>,
}

/// Step an 8-sensor GP fleet through [`FLEET_ROUNDS`] rounds on a device
/// restricted to `host_threads`, with sensor `panics` (if any) made to
/// panic in the middle of round 1's step — after its forecast, inside its
/// observe. The kNN sets come from the same fleet search over indexes
/// mirroring the sensors', on a device of the same width.
fn fleet_steps_bitwise(host_threads: usize, panics: Option<usize>) -> FleetOutcome {
    let series = fleet_series();
    let split = series[0].len() - FLEET_ROUNDS;
    let config = SmilerConfig { h_max: 6, ..Default::default() };
    let device = Arc::new(Device::default_gpu().with_host_threads(host_threads));
    let histories: Vec<Vec<f64>> = series.iter().map(|s| s[..split].to_vec()).collect();
    let (mut system, rejected) = SmilerSystem::new(
        Arc::clone(&device),
        histories.clone(),
        config.clone(),
        PredictorKind::GaussianProcess,
    );
    assert!(rejected.is_none());
    let params = IndexParams {
        rho: config.rho,
        omega: config.omega,
        lengths: config.ensemble.elv.clone(),
        k_max: config.ensemble.ekv.iter().copied().max().unwrap_or_default(),
    };
    let index_device = Device::default_gpu().with_host_threads(host_threads);
    let mut indexes: Vec<SmilerIndex> =
        histories.into_iter().map(|h| SmilerIndex::new(h, params.clone())).collect();

    let mut preds = Vec::with_capacity(FLEET_ROUNDS);
    let mut knn = Vec::with_capacity(FLEET_ROUNDS);
    for round in 0..FLEET_ROUNDS {
        if let (1, Some(sensor)) = (round, panics) {
            system.sensor_mut(sensor).inject_fault(FaultKind::PanicOnObserve);
        }
        let observed: Vec<f64> = series.iter().map(|s| s[split + round]).collect();
        preds.push(
            system
                .step(1, &observed)
                .into_iter()
                .map(|(mean, var)| (mean.to_bits(), var.to_bits()))
                .collect(),
        );
        let max_ends: Vec<usize> =
            indexes.iter().map(|ix| ix.series().len() - config.h_max).collect();
        let mut refs: Vec<&mut SmilerIndex> = indexes.iter_mut().collect();
        knn.push(
            try_fleet_search(&index_device, &mut refs, &max_ends)
                .into_iter()
                .map(|slot| {
                    slot.expect("fleet search")
                        .neighbors
                        .iter()
                        .map(|ns| ns.iter().map(|n| (n.start, n.distance.to_bits())).collect())
                        .collect()
                })
                .collect(),
        );
        for (index, &v) in indexes.iter_mut().zip(&observed) {
            index.append(v);
        }
    }
    FleetOutcome {
        preds,
        knn,
        grids: (device.kernel_launches(), device.blocks_launched()),
        quarantined: system.quarantined(),
    }
}

#[test]
fn a_fleet_step_is_bitwise_the_same_on_one_two_and_four_host_threads() {
    let serial = fleet_steps_bitwise(1, None);
    assert!(serial.quarantined.is_empty());
    assert!(
        serial.preds.iter().flatten().all(|&(mean, _)| f64::from_bits(mean).is_finite()),
        "every sensor forecasts"
    );
    // Two and four threads step the sensors in parallel; each trains its
    // GP columns on the worker that owns it.
    for threads in [2, 4] {
        let parallel = fleet_steps_bitwise(threads, None);
        assert_eq!(serial.preds, parallel.preds, "forecasts diverged on {threads} threads");
        assert_eq!(serial.knn, parallel.knn, "kNN sets diverged on {threads} threads");
        assert_eq!(serial.grids, parallel.grids, "launch grids diverged on {threads} threads");
        assert!(parallel.quarantined.is_empty());
    }
}

#[test]
fn a_sensor_panicking_in_a_parallel_step_is_quarantined_alone() {
    const FAULTY: usize = 3;
    let control = fleet_steps_bitwise(2, None);
    let faulted = fleet_steps_bitwise(2, Some(FAULTY));
    assert_eq!(faulted.quarantined, vec![FAULTY]);
    for (round, (want, got)) in control.preds.iter().zip(&faulted.preds).enumerate() {
        for (sensor, (w, g)) in want.iter().zip(got).enumerate() {
            if sensor == FAULTY && round >= 1 {
                // The panic tore the round's predict+observe: no forecast,
                // then and in every later round.
                assert!(f64::from_bits(g.0).is_nan() && f64::from_bits(g.1).is_infinite());
            } else {
                assert_eq!(w, g, "round {round}, sensor {sensor}");
            }
        }
    }
}
