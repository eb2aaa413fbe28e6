//! `smiler forecast` and `smiler evaluate`: forecasts off the end of a
//! user series, and a continuous-prediction comparison of models on it.

use super::{predictor_kind, series, with_adaptation, CliError, Run};
use crate::args::{any, at_least_one, horizon, Args};
use smiler_baselines::holtwinters::HoltWinters;
use smiler_baselines::lazyknn::{LazyKnn, LazyKnnConfig};
use smiler_baselines::linear::{self, LinearConfig};
use smiler_baselines::SeriesPredictor;
use smiler_core::eval::{evaluate, EvalConfig};
use smiler_core::sensor::{SmilerConfig, SmilerForecaster};
use smiler_core::{RequestPolicy, SensorPredictor};
use smiler_gpu::Device;
use smiler_timeseries::normalize::ZNorm;
use std::fmt::Write as _;
use std::sync::Arc;

/// `smiler forecast`: multi-horizon forecasts off the end of a series.
pub(super) fn forecast(args: &mut Args) -> Result<Run, CliError> {
    let load = series(args)?;
    let horizons = args.get_list("horizons", &[1, 6], horizon)?;
    let predictor_kind = predictor_kind(args, "gp")?;
    let warmup: usize = args.get_or("warmup", 16, any)?;
    let deadline_ms: Option<u64> = args.get_parsed("deadline-ms", any)?;
    let want_interval = args.switch("interval");
    let h_max = *horizons.iter().max().expect("a list flag holds at least one entry");
    let config = with_adaptation(args, SmilerConfig { h_max, ..Default::default() });
    Ok(Box::new(move || {
        let raw = load()?;
        let d_master = *config.ensemble.elv.iter().max().expect("non-empty ELV");
        let needed = d_master + h_max + 1;
        if raw.len() < needed {
            return Err(CliError::Other(format!(
                "need at least {needed} observations for the default configuration, got {}",
                raw.len()
            )));
        }

        // Normalise in, de-normalise out: users think in sensor units.
        let znorm = ZNorm::fit(&raw);
        let normalised = znorm.apply_all(&raw);
        let device = Arc::new(Device::default_gpu());

        // Warm-up replay: hold back the last `warmup` observations, then
        // feed them through predict/observe so the ensemble weights (and,
        // for GP, the hyperparameters) adapt to the series before the real
        // forecast — the same continuous loop the paper's system runs.
        // Clamped so the held-back prefix still supports the configuration.
        let warmup = warmup.min(normalised.len() - needed);
        let split = normalised.len() - warmup;
        let mut predictor =
            SensorPredictor::new(device, 0, normalised[..split].to_vec(), config, predictor_kind);
        for &v in &normalised[split..] {
            let _ = predictor.predict(1);
            predictor.observe(v);
        }

        let policy = deadline_ms.map_or_else(RequestPolicy::default, |ms| {
            RequestPolicy::with_deadline(std::time::Duration::from_millis(ms))
        });

        let mut out = String::new();
        let _ =
            writeln!(out, "forecasts from t = {} ({} observations read):", raw.len(), raw.len());
        let mut missed = 0usize;
        for &h in &horizons {
            let pred = predictor
                .try_predict_with(h, &policy)
                .map_err(|e| CliError::Other(format!("prediction failed: {e}")))?;
            let mean = znorm.invert(pred.mean);
            let sd = znorm.invert_variance(pred.variance).max(0.0).sqrt();
            if want_interval {
                let _ = write!(
                    out,
                    "t+{h:<4} {mean:12.4}   95% [{:.4}, {:.4}]",
                    mean - 1.96 * sd,
                    mean + 1.96 * sd
                );
            } else {
                let _ = write!(out, "t+{h:<4} {mean:12.4}");
            }
            if deadline_ms.is_some() {
                let _ = write!(out, "   served={}", pred.level.as_str());
                if pred.deadline_missed {
                    missed += 1;
                    let _ = write!(out, " (deadline missed)");
                }
            }
            out.push('\n');
        }
        if let Some(ms) = deadline_ms {
            let _ = writeln!(
                out,
                "serving health: deadline {ms} ms, {missed}/{} deadline misses",
                horizons.len()
            );
        }
        Ok(out)
    }))
}

/// Model factory for `smiler evaluate`.
fn make_model(
    name: &str,
    device: &Arc<Device>,
    horizons: &[usize],
    period: usize,
) -> Result<Box<dyn SeriesPredictor>, CliError> {
    let h_max = *horizons.iter().max().expect("non-empty");
    let lin = LinearConfig { window: 32, horizons: horizons.to_vec(), ..Default::default() };
    Ok(match name {
        "smiler-gp" => Box::new(SmilerForecaster::gp(
            Arc::clone(device),
            SmilerConfig { h_max, ..Default::default() },
        )),
        "smiler-ar" => Box::new(SmilerForecaster::ar(
            Arc::clone(device),
            SmilerConfig { h_max, ..Default::default() },
        )),
        "lazyknn" => Box::new(LazyKnn::new(LazyKnnConfig::default())),
        "holtwinters" => Box::new(HoltWinters::full(period)),
        "onlinesvr" => Box::new(linear::online_svr(lin)),
        "onlinerr" => Box::new(linear::online_rr(lin)),
        other => {
            return Err(CliError::Other(format!(
                "unknown model {other:?} in --models \
                 (smiler-gp|smiler-ar|lazyknn|holtwinters|onlinesvr|onlinerr)"
            )))
        }
    })
}

/// `smiler evaluate`: continuous-prediction comparison on a user series.
pub(super) fn evaluate_cmd(args: &mut Args) -> Result<Run, CliError> {
    let load = series(args)?;
    let horizons = args.get_list("horizons", &[1, 5, 10], horizon)?;
    let steps: usize = args.get_or("steps", 50, at_least_one)?;
    let period: usize = args.get_or("period", 144, at_least_one)?;
    let model_list = args.get("models")?;
    let device = Arc::new(Device::default_gpu());
    let models = model_list
        .as_deref()
        .unwrap_or("smiler-gp,smiler-ar,lazyknn")
        .split(',')
        .map(|name| make_model(&name.trim().to_lowercase(), &device, &horizons, period))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Box::new(move || {
        let raw = load()?;
        let h_max = *horizons.iter().max().expect("a list flag holds at least one entry");
        if raw.len().saturating_sub(h_max + 1) <= steps {
            return Err(CliError::Other(format!(
                "series of {} too short for {steps} steps at horizon {h_max}",
                raw.len()
            )));
        }
        let (normalised, _) = smiler_timeseries::normalize::z_normalize(&raw);

        let config = EvalConfig { horizons, steps };
        let mut out = String::new();
        let _ = writeln!(out, "{:<12} {:>10} {:>10}   per-horizon MAE", "model", "MAE", "MNLPD");
        for mut model in models {
            let r = evaluate(model.as_mut(), &normalised, &config);
            let avg_mae: f64 = r.mae.values().sum::<f64>() / r.mae.len() as f64;
            let avg_nlpd: f64 = r.mnlpd.values().sum::<f64>() / r.mnlpd.len() as f64;
            let detail: Vec<String> = r.mae.iter().map(|(h, m)| format!("h{h}:{m:.3}")).collect();
            let _ = writeln!(
                out,
                "{:<12} {avg_mae:>10.4} {avg_nlpd:>10.4}   {}",
                r.name,
                detail.join(" ")
            );
        }
        Ok(out)
    }))
}
