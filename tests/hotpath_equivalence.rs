//! Numeric equivalence of the optimised hot paths against their allocating
//! oracles, at the paper's default scale (`d = 96`, `ρ = 8`):
//!
//! * workspace DTW variants vs. the allocating entry points,
//! * the shared-prefix GP factorisation vs. independent per-k fits,
//! * one host thread vs two and four — bitwise-identical predictions and
//!   kNN sets and the same grids over full continuous steps, and simulated
//!   clocks that reproduce bit for bit run to run on one host thread.

use smiler_core::sensor::{SensorPredictor, SmilerConfig};
use smiler_core::PredictorKind;
use smiler_dtw::DtwScratch;
use smiler_gp::{GpScratch, Hyperparams, PrefixGp};
use smiler_gpu::Device;
use smiler_index::{IndexParams, SmilerIndex};
use smiler_linalg::Matrix;
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
