//! Ablations of SMiLer's design choices (beyond the paper's own Fig 11 /
//! Table 3 ablations). Each section isolates one decision DESIGN.md calls
//! out:
//!
//! 1. **Filter threshold strategy** — the paper's k-th-lower-bound probe
//!    vs the exact max-of-k-best probe vs continuous reuse: recall against
//!    brute force and verification counts.
//! 2. **Remark 1 (continuous maintenance)** — incremental `advance` vs
//!    from-scratch rebuild, across history sizes.
//! 3. **§4.4 phase separation** — the simulated cost of fusing filtering
//!    and verification into one divergent kernel vs SMiLer's two phases.
//! 4. **Fleet batching** — kernel launches and device time for per-sensor
//!    searches vs the fleet-batched pipeline.
//! 5. **Ensemble size** — prediction error for 1×1 / 2×2 / 3×3 matrices.
//! 6. **Retrieval distance measure** — §4's choice of DTW over Euclidean:
//!    kNN-regression accuracy with each measure on noisy traffic data.

use crate::report::{fmt_seconds, print_table};
use crate::{ExptScale, Measurement};
use smiler_core::ensemble::EnsembleConfig;
use smiler_core::eval::{evaluate, EvalConfig};
use smiler_core::sensor::{SmilerConfig, SmilerForecaster};
use smiler_gpu::Device;
use smiler_index::{try_fleet_search, IndexParams, SmilerIndex, ThresholdStrategy};
use smiler_timeseries::synthetic::DatasetKind;

/// Run the full ablation suite.
pub fn run(scale: &ExptScale) -> Vec<Measurement> {
    let mut records = Vec::new();
    records.extend(threshold_strategies(scale));
    records.extend(incremental_maintenance(scale));
    records.extend(phase_separation(scale));
    records.extend(fleet_batching(scale));
    records.extend(ensemble_size(scale));
    records.extend(distance_measure(scale));
    records
}

fn road_series(scale: &ExptScale, sensor: usize) -> Vec<f64> {
    let ds = scale.dataset(DatasetKind::Road);
    ds.sensors[sensor % ds.sensors.len()].values().to_vec()
}

/// 1. Threshold strategy: recall vs brute force + verified counts.
fn threshold_strategies(scale: &ExptScale) -> Vec<Measurement> {
    let series = road_series(scale, 0);
    let params = IndexParams::default();
    let max_end = series.len() - 30;
    // Brute-force reference distances per item length.
    let reference: Vec<Vec<f64>> = params
        .lengths
        .iter()
        .map(|&d| {
            let query = &series[series.len() - d..];
            let mut dists: Vec<f64> = (0..=max_end - d)
                .map(|t| smiler_dtw::dtw_banded(query, &series[t..t + d], params.rho))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            dists.truncate(params.k_max);
            dists
        })
        .collect();

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, strategy) in [
        ("ExactKBest", ThresholdStrategy::ExactKBest),
        ("PaperKthLb", ThresholdStrategy::PaperKthLb),
    ] {
        let device = Device::default_gpu();
        let mut index =
            SmilerIndex::build(&device, series.clone(), params.clone()).with_threshold(strategy);
        let out = index.search(&device, max_end);
        let mut hits = 0usize;
        let mut total = 0usize;
        for (i, ref_d) in reference.iter().enumerate() {
            total += ref_d.len();
            hits += out.neighbors[i]
                .iter()
                .filter(|n| ref_d.iter().any(|&r| (r - n.distance).abs() < 1e-9))
                .count();
        }
        let recall = hits as f64 / total as f64;
        let verified: usize = out.stats.unfiltered.iter().sum();
        rows.push(vec![name.to_string(), format!("{recall:.3}"), verified.to_string()]);
        records.push(Measurement::new("ablation", None, name, None, "recall", recall));
        records.push(Measurement::new("ablation", None, name, None, "verified", verified as f64));
    }
    print_table(
        "Ablation 1: filter threshold strategy (ROAD sensor 0, k=32)",
        &["strategy".into(), "recall@k".into(), "candidates verified".into()],
        &rows,
    );
    records
}

/// 2. Remark 1: incremental advance vs rebuild across history sizes.
fn incremental_maintenance(scale: &ExptScale) -> Vec<Measurement> {
    let series = road_series(scale, 1);
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &frac in &[4usize, 2, 1] {
        let n = series.len() / frac;
        let history = series[..n].to_vec();
        let dev_adv = Device::default_gpu();
        let dev_build = Device::default_gpu();
        let mut index = SmilerIndex::build(&dev_adv, history.clone(), IndexParams::default());
        dev_adv.reset_clock();
        index.advance(&dev_adv, 0.1);
        let adv = dev_adv.saturated_seconds();
        let mut grown = history;
        grown.push(0.1);
        dev_build.reset_clock();
        SmilerIndex::build(&dev_build, grown, IndexParams::default());
        let build = dev_build.saturated_seconds();
        rows.push(vec![
            n.to_string(),
            fmt_seconds(adv),
            fmt_seconds(build),
            format!("{:.1}x", build / adv.max(1e-15)),
        ]);
        records.push(Measurement::new(
            "ablation",
            None,
            "advance",
            Some(format!("n={n}")),
            "time_s",
            adv,
        ));
        records.push(Measurement::new(
            "ablation",
            None,
            "rebuild",
            Some(format!("n={n}")),
            "time_s",
            build,
        ));
    }
    print_table(
        "Ablation 2: Remark-1 incremental maintenance vs rebuild",
        &["history".into(), "advance".into(), "rebuild".into(), "speedup".into()],
        &rows,
    );
    records
}

/// 3. §4.4: two-phase filter→verify vs one fused divergent kernel.
///
/// The fused kernel runs the LB scan on all lanes, then the surviving
/// lanes' DTW serialises against the SIMD width (divergence): every
/// surviving lane's DTW work is issued while its warp-mates idle. The
/// two-phase pipeline pays an extra pass over the candidates but keeps
/// both kernels converged.
fn phase_separation(scale: &ExptScale) -> Vec<Measurement> {
    let series = road_series(scale, 2);
    let params = IndexParams::default();
    let device = Device::default_gpu();
    let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
    let max_end = series.len() - 30;
    let out = index.search(&device, max_end);

    let d = 96usize;
    let dtw_ops = smiler_dtw::dtw_ops_estimate(d, params.rho);
    let candidates: usize = out.stats.candidates.iter().sum();
    let survivors: usize = out.stats.unfiltered.iter().sum();
    let survive_rate = survivors as f64 / candidates.max(1) as f64;
    const LANES: u64 = 256;

    // Two-phase: a converged LB kernel over every candidate, then a
    // converged verify kernel over the survivors only.
    let lb_pass = device
        .launch(candidates.div_ceil(LANES as usize), |ctx| {
            ctx.read_global(LANES * d as u64);
            ctx.flops(LANES * 6 * d as u64);
        })
        .stats
        .saturated_seconds;
    let verify_pass = device
        .launch(survivors.div_ceil(LANES as usize).max(1), |ctx| {
            ctx.read_global(LANES * d as u64);
            ctx.flops(LANES * dtw_ops);
        })
        .stats
        .saturated_seconds;
    let two_phase = lb_pass + verify_pass;

    // Fused: one kernel over all candidates; the LB part stays converged
    // but each block's surviving lanes execute their DTW divergently —
    // serialising against the warp (§4.4's "threads doing different
    // processing need to wait for each other").
    let fused = device
        .launch(candidates.div_ceil(LANES as usize), |ctx| {
            ctx.read_global(LANES * d as u64);
            ctx.flops(LANES * 6 * d as u64);
            let surviving_lanes = (LANES as f64 * survive_rate).ceil() as u64;
            ctx.diverge(surviving_lanes * dtw_ops);
        })
        .stats
        .saturated_seconds;

    let rows = vec![vec![
        format!("{survive_rate:.3}"),
        fmt_seconds(two_phase),
        fmt_seconds(fused),
        format!("{:.1}x", fused / two_phase.max(1e-15)),
    ]];
    print_table(
        "Ablation 3: §4.4 two-phase filter/verify vs fused divergent kernel",
        &["survivor rate".into(), "two-phase".into(), "fused (divergent)".into(), "penalty".into()],
        &rows,
    );
    vec![
        Measurement::new("ablation", None, "two_phase", None, "time_s", two_phase),
        Measurement::new("ablation", None, "fused_divergent", None, "time_s", fused),
    ]
}

/// 4. Fleet batching vs per-sensor searches.
fn fleet_batching(scale: &ExptScale) -> Vec<Measurement> {
    let dataset = scale.dataset(DatasetKind::Road);
    let params = IndexParams::default();
    let build = |device: &Device| -> Vec<SmilerIndex> {
        dataset
            .sensors
            .iter()
            .map(|s| SmilerIndex::build(device, s.values().to_vec(), params.clone()))
            .collect()
    };
    let max_ends: Vec<usize> = dataset.sensors.iter().map(|s| s.len() - 30).collect();

    let dev_solo = Device::default_gpu();
    let mut solo = build(&dev_solo);
    dev_solo.reset_clock();
    for (index, &me) in solo.iter_mut().zip(&max_ends) {
        index.search(&dev_solo, me);
    }
    let (solo_launches, solo_time) = (dev_solo.kernel_launches(), dev_solo.elapsed_seconds());

    let dev_fleet = Device::default_gpu();
    let mut fleet = build(&dev_fleet);
    dev_fleet.reset_clock();
    let mut refs: Vec<&mut SmilerIndex> = fleet.iter_mut().collect();
    for slot in try_fleet_search(&dev_fleet, &mut refs, &max_ends) {
        slot.expect("synthetic road sensors search cleanly");
    }
    let (fleet_launches, fleet_time) = (dev_fleet.kernel_launches(), dev_fleet.elapsed_seconds());

    let rows = vec![
        vec!["per-sensor".into(), solo_launches.to_string(), fmt_seconds(solo_time)],
        vec!["fleet-batched".into(), fleet_launches.to_string(), fmt_seconds(fleet_time)],
    ];
    print_table(
        &format!("Ablation 4: fleet batching ({} sensors, makespan time)", dataset.sensors.len()),
        &["pipeline".into(), "kernel launches".into(), "device time".into()],
        &rows,
    );
    vec![
        Measurement::new("ablation", None, "per_sensor", None, "launches", solo_launches as f64),
        Measurement::new("ablation", None, "per_sensor", None, "time_s", solo_time),
        Measurement::new("ablation", None, "fleet", None, "launches", fleet_launches as f64),
        Measurement::new("ablation", None, "fleet", None, "time_s", fleet_time),
    ]
}

/// 6. Retrieval distance: DTW vs Euclidean kNN regression — paper §4:
///    "Euclidean distance is simple but sensitive to noise (e.g. shifting
///    and scaling) ... DTW is a simple but effective one which is robust".
fn distance_measure(scale: &ExptScale) -> Vec<Measurement> {
    let series = road_series(scale, 3);
    let (d, k, h, rho) = (32usize, 16usize, 3usize, 8usize);
    let steps = scale.eval_steps.min(40);
    let split = series.len() - steps - h;

    let knn_forecast = |use_dtw: bool| -> f64 {
        let mut history = series[..split].to_vec();
        let mut err = 0.0;
        for step in 0..steps {
            let n = history.len();
            let query = &history[n - d..];
            // k nearest by the chosen measure, leaving room for labels.
            let mut best: Vec<(usize, f64)> = Vec::new();
            for t in 0..=n - d - h {
                let cand = &history[t..t + d];
                let dist = if use_dtw {
                    smiler_dtw::dtw_banded(query, cand, rho)
                } else {
                    smiler_linalg::vector::squared_distance(query, cand)
                };
                best.push((t, dist));
            }
            best.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
            best.truncate(k);
            let mean: f64 =
                best.iter().map(|&(t, _)| history[t + d - 1 + h]).sum::<f64>() / k as f64;
            let truth = series[split + step + h - 1];
            err += (mean - truth).abs();
            history.push(series[split + step]);
        }
        err / steps as f64
    };

    let dtw_mae = knn_forecast(true);
    let euclid_mae = knn_forecast(false);
    print_table(
        &format!("Ablation 6: retrieval measure (ROAD, kNN regression, h={h})"),
        &["measure".into(), "MAE".into()],
        &[
            vec!["DTW (ρ=8)".into(), format!("{dtw_mae:.4}")],
            vec!["Euclidean".into(), format!("{euclid_mae:.4}")],
        ],
    );
    vec![
        Measurement::new("ablation", Some("ROAD"), "knn-dtw", None, "mae", dtw_mae),
        Measurement::new("ablation", Some("ROAD"), "knn-euclidean", None, "mae", euclid_mae),
    ]
}

/// 5. Ensemble matrix size: 1×1 vs 2×2 vs 3×3 on the MALL dataset.
fn ensemble_size(scale: &ExptScale) -> Vec<Measurement> {
    let dataset = scale.dataset(DatasetKind::Mall);
    let series = dataset.sensors[0].values();
    let config = EvalConfig { horizons: vec![1, 5, 10], steps: scale.eval_steps.min(40) };
    let variants: Vec<(&str, EnsembleConfig)> = vec![
        ("1x1 (k=32,d=64)", EnsembleConfig::single(32, 64)),
        ("2x2", EnsembleConfig { ekv: vec![16, 32], elv: vec![32, 64], ..Default::default() }),
        ("3x3 (paper)", EnsembleConfig::default()),
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, ensemble) in variants {
        let device = std::sync::Arc::new(Device::default_gpu());
        let cfg = SmilerConfig { h_max: 10, ensemble, ..Default::default() };
        let mut model = SmilerForecaster::ar(device, cfg);
        let r = evaluate(&mut model, series, &config);
        let avg: f64 = r.mae.values().sum::<f64>() / r.mae.len() as f64;
        rows.push(vec![name.to_string(), format!("{avg:.4}"), format!("{:.2}", r.predict_ms)]);
        records.push(Measurement::new("ablation", Some("MALL"), name, None, "mae", avg));
        records.push(Measurement::new(
            "ablation",
            Some("MALL"),
            name,
            None,
            "predict_ms",
            r.predict_ms,
        ));
    }
    print_table(
        "Ablation 5: ensemble matrix size (MALL, SMiLer-AR, mean MAE over h∈{1,5,10})",
        &["matrix".into(), "MAE".into(), "predict ms".into()],
        &rows,
    );
    records
}
