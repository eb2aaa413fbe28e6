//! Benchmarks of the allocation-free hot paths: the full continuous step,
//! the continuous suffix kNN search, and the shared-prefix GP
//! factorisation vs. independent per-k fits.

use criterion::{criterion_group, criterion_main, Criterion};
use smiler_core::sensor::{SensorPredictor, SmilerConfig};
use smiler_core::PredictorKind;
use smiler_gp::{GpModel, GpScratch, Hyperparams, PrefixGp};
use smiler_gpu::Device;
use smiler_index::{IndexParams, SmilerIndex};
use smiler_linalg::Matrix;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::sync::Arc;

fn road_series(days: usize) -> Vec<f64> {
    SyntheticSpec { kind: DatasetKind::Road, sensors: 1, days, seed: 7 }
        .generate()
        .sensors
        .remove(0)
        .values()
        .to_vec()
}

/// One full continuous step (suffix kNN search + GP ensemble predict +
/// observe) — the latency the paper's Fig 9 reports per prediction.
fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("step");
    group.sample_size(20);
    let series = road_series(14);
    let split = series.len() - 400;
    let device = Arc::new(Device::default_gpu());
    let config = SmilerConfig { h_max: 10, ..Default::default() };
    let mut predictor = SensorPredictor::new(
        Arc::clone(&device),
        0,
        series[..split].to_vec(),
        config,
        PredictorKind::GaussianProcess,
    );
    let mut feed = series[split..].iter().cycle();
    group.bench_function("predict_observe", |b| {
        b.iter(|| {
            let out = predictor.predict(1);
            predictor.observe(*feed.next().expect("cyclic feed"));
            out
        })
    });
    group.finish();
}

/// Continuous search (advance + cascaded suffix kNN), paper-default
/// parameters.
fn bench_verify_cascade(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_cascade");
    group.sample_size(20);
    let series = road_series(14);
    let split = series.len() - 400;
    let device = Device::default_gpu();
    let mut index = SmilerIndex::build(&device, series[..split].to_vec(), IndexParams::default());
    let mut feed = series[split..].iter().cycle();
    group.bench_function("cascade", |b| {
        b.iter(|| {
            index.advance(&device, *feed.next().expect("cyclic feed"));
            let max_end = index.series().len() - 10;
            index.search(&device, max_end)
        })
    });
    group.finish();
}

/// Predictions for every prefix k of one ensemble column: one shared
/// factorisation vs. an independent `GpModel` fit per k.
fn bench_gp_prefix(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_prefix");
    let k_max = 32;
    let d = 32;
    let x = Matrix::from_fn(k_max, d, |i, j| ((i * d + j) as f64 * 0.23).sin() * 1.2);
    let y: Vec<f64> = (0..k_max).map(|i| (i as f64 * 0.41).cos()).collect();
    let x0: Vec<f64> = (0..d).map(|j| (j as f64 * 0.19).sin()).collect();
    let hyper = Hyperparams::new(1.0, 1.5, 0.1);
    let ks: Vec<usize> = vec![4, 8, 16, 32];
    group.bench_function("shared_prefix", |b| {
        let mut scratch = GpScratch::new();
        b.iter(|| {
            let pg = PrefixGp::fit(x.clone(), hyper).expect("fit");
            let mut acc = 0.0;
            for &k in &ks {
                let mean_k = y[..k].iter().sum::<f64>() / k as f64;
                let centred: Vec<f64> = y[..k].iter().map(|v| v - mean_k).collect();
                let (m, v) = pg.predict_prefix(k, &centred, &x0, &mut scratch);
                acc += m + v;
            }
            acc
        })
    });
    group.bench_function("independent_fits", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &k in &ks {
                let mean_k = y[..k].iter().sum::<f64>() / k as f64;
                let centred: Vec<f64> = y[..k].iter().map(|v| v - mean_k).collect();
                let sub = Matrix::from_fn(k, d, |i, j| x[(i, j)]);
                let gp = GpModel::fit(sub, &centred, hyper).expect("fit");
                let (m, v) = gp.predict(&x0);
                acc += m + v;
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_step, bench_verify_cascade, bench_gp_prefix);
criterion_main!(benches);
