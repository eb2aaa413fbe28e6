//! **SMiLer** — a semi-lazy time series prediction system for sensors.
//!
//! Reproduction of Zhou & Tung, SIGMOD 2015. The system predicts the
//! `h`-step-ahead value of a sensor by (1) retrieving the k nearest
//! historical segments of the sensor's own time series under banded DTW —
//! accelerated by a two-level inverted-like index on a (simulated) GPU —
//! and (2) fitting a small, query-dependent Gaussian Process on just those
//! neighbours. An ensemble over several `(k, d)` choices is auto-tuned
//! online so no per-sensor parameters need manual configuration.
//!
//! ```
//! use smiler_core::{SensorPredictor, SmilerConfig, PredictorKind};
//! use smiler_gpu::Device;
//! use std::sync::Arc;
//!
//! // A toy periodic sensor history (normally: a real, z-normalised trace).
//! let history: Vec<f64> = (0..600)
//!     .map(|i| (i as f64 * std::f64::consts::TAU / 48.0).sin())
//!     .collect();
//!
//! let device = Arc::new(Device::default_gpu());
//! let config = SmilerConfig::small_for_tests();
//! let mut predictor =
//!     SensorPredictor::new(device, 0, history, config, PredictorKind::Aggregation);
//!
//! let (mean, variance) = predictor.predict(1);
//! assert!(mean.is_finite() && variance > 0.0);
//!
//! // Continuous prediction: feed the observed value, predict again.
//! predictor.observe(0.5);
//! let _ = predictor.predict(1);
//! ```
//!
//! Crate layout: [`predictor`] instantiates the abstract predictor `f(·)`
//! (paper Def. 3.1) as AR (§5.2.1) or GP (§5.2.2); [`ensemble`] implements
//! the auto-tuned ensemble matrix λ with sleep/recovery (§5.1);
//! [`sensor`] wires index + ensemble into the per-sensor predictor of
//! Fig. 3; [`system`] scales to many sensors on one device; [`eval`] is the
//! continuous-prediction evaluation loop producing the paper's MAE/MNLPD
//! measures.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod degrade;
pub mod durable;
pub mod ensemble;
pub mod eval;
pub mod predictor;
pub mod regime;
pub mod sensor;
pub mod serve;
pub mod snapshot;
pub mod stream;
pub mod system;

pub use degrade::{DegradationLevel, ErrorState, PredictError, Prediction, RequestPolicy};
pub use durable::{store_status, DurableError, DurableSystem, RestoreReport, StoreStatus};
pub use ensemble::{EnsembleConfig, EnsembleMatrix, EnsembleMode};
pub use predictor::{
    ArPredictor, GpCellPredictor, KnnData, PredictorKind, QualitySnapshot, QualityStats,
};
pub use regime::{RegimeConfig, RegimeDetector, RegimeEvent, RegimeSnapshot};
pub use sensor::{FaultKind, SensorPredictor, SmilerConfig};
pub use serve::{
    ClusterRole, ClusterStatus, FollowerLag, PendingForecast, RungStatus, SensorStatusRow,
    ServeConfig, ServeError, ServeHandle, ServeStatsSnapshot, SmilerServer, StatusReport,
};
pub use smiler_gp::RobustSpec;
pub use snapshot::{HorizonSnapshot, SensorSnapshot};
pub use stream::{Forecast, SensorStream, StreamError};
pub use system::{SensorFault, SensorHealth, SmilerSystem};
