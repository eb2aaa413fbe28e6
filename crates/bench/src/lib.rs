//! Experiment infrastructure reproducing the SMiLer paper's evaluation
//! (§6). The `expt` binary exposes one subcommand per table/figure; this
//! library holds the shared pieces: experiment-scale dataset construction,
//! result records, and table formatting.
//!
//! **Scale note.** The paper ran 963–1024 sensors with up to 61M points on
//! a GTX TITAN. This reproduction runs synthetic stand-ins at a reduced
//! scale (configurable via [`ExptScale`]) so every experiment finishes in
//! CLI time on a laptop; search *running times* are the simulated device
//! seconds of `smiler-gpu`, which is what makes the Fig 7/8 comparisons
//! hardware-faithful. Prediction-quality experiments (Fig 9–11, 13) use
//! real wall-clock and real models.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use smiler_timeseries::SensorDataset;

pub mod chaosbench;
pub mod clusterbench;
pub mod experiments;
pub mod obsbench;
pub mod report;

/// How large to make each experiment's dataset.
#[derive(Debug, Clone, Copy)]
pub struct ExptScale {
    /// Sensors per dataset.
    pub sensors: usize,
    /// Days of history per sensor.
    pub days: usize,
    /// Continuous steps for search experiments (paper: 100).
    pub search_steps: usize,
    /// Continuous steps for prediction experiments (paper: 200).
    pub eval_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExptScale {
    /// The default reduced scale (finishes each experiment in minutes).
    pub fn default_scale() -> Self {
        ExptScale { sensors: 6, days: 30, search_steps: 3, eval_steps: 60, seed: 2015 }
    }

    /// An even smaller scale for smoke tests.
    pub fn smoke() -> Self {
        ExptScale { sensors: 2, days: 8, search_steps: 2, eval_steps: 10, seed: 2015 }
    }

    /// Generate one of the paper's three datasets at this scale.
    pub fn dataset(&self, kind: DatasetKind) -> SensorDataset {
        let days = match kind {
            // NET samples twice as fast; halve days for comparable points.
            DatasetKind::Net => (self.days / 2).max(4),
            _ => self.days,
        };
        SyntheticSpec { kind, sensors: self.sensors, days, seed: self.seed }.generate()
    }
}

/// One measured cell of an experiment, serialised into the JSON record so
/// EXPERIMENTS.md tables can be regenerated mechanically.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Experiment id ("fig7", "table3", …).
    pub experiment: String,
    /// Dataset name, if per-dataset.
    pub dataset: Option<String>,
    /// Method / competitor name.
    pub method: String,
    /// Free-form key for the swept parameter ("k=32", "h=5", "m=64", …).
    pub parameter: Option<String>,
    /// Metric name ("time_s", "mae", "mnlpd", "unfiltered", …).
    pub metric: String,
    /// Measured value.
    pub value: f64,
}

impl Measurement {
    /// Construct a measurement row.
    pub fn new(
        experiment: &str,
        dataset: Option<&str>,
        method: &str,
        parameter: Option<String>,
        metric: &str,
        value: f64,
    ) -> Self {
        Measurement {
            experiment: experiment.to_string(),
            dataset: dataset.map(str::to_string),
            method: method.to_string(),
            parameter,
            metric: metric.to_string(),
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_generate_all_datasets() {
        let scale = ExptScale::smoke();
        for kind in DatasetKind::all() {
            let ds = scale.dataset(kind);
            assert_eq!(ds.sensors.len(), 2);
            assert!(ds.sensors[0].len() >= 4 * 144);
        }
    }

    #[test]
    fn measurement_serialises() {
        let m = Measurement::new(
            "fig7",
            Some("ROAD"),
            "SMiLer-Idx",
            Some("k=16".into()),
            "time_s",
            1.25,
        );
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"fig7\""));
        assert!(json.contains("1.25"));
    }
}
