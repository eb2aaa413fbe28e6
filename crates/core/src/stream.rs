//! Raw-stream ingestion: the adoption layer between real sensor feeds and
//! the normalised, fixed-rate series SMiLer operates on.
//!
//! The paper assumes each sensor delivers a fixed-rate, z-normalised
//! series (§3.1 + §6.1.2), noting that users "can easily re-interpolate
//! data if the sample rate is changed". Real feeds drop samples, repeat
//! timestamps and arrive in engineering units. [`SensorStream`] owns that
//! gap: it fits normalisation statistics on the training history, fills
//! missing ticks by linear interpolation, rejects stale input, and returns
//! forecasts in the sensor's raw units with calibrated intervals.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::predictor::PredictorKind;
use crate::sensor::{SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_timeseries::normalize::ZNorm;
use std::sync::Arc;

/// Errors raised by stream ingestion.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The observation's timestamp is not newer than the last accepted one.
    StaleTimestamp {
        /// Timestamp of the rejected observation.
        got: u64,
        /// Newest timestamp already ingested.
        newest: u64,
    },
    /// The value is not a finite number.
    NotFinite,
    /// After nearest-tick snapping the observation lands on the
    /// already-ingested head tick — a jittered duplicate. (Absorbing it
    /// used to silently re-time the sample one full tick late.)
    DuplicateTick {
        /// Timestamp of the rejected observation.
        got: u64,
        /// The head tick it snapped onto.
        head: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::StaleTimestamp { got, newest } => {
                write!(f, "timestamp {got} is not newer than {newest}")
            }
            StreamError::NotFinite => write!(f, "observation is not a finite number"),
            StreamError::DuplicateTick { got, head } => {
                write!(f, "timestamp {got} snaps onto the already-ingested tick at {head}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A forecast in the sensor's raw units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive standard deviation.
    pub std_dev: f64,
    /// 95% interval (mean ± 1.96 σ).
    pub interval95: (f64, f64),
}

/// A raw-unit, wall-clock-timestamped front end over a [`SensorPredictor`].
pub struct SensorStream {
    predictor: SensorPredictor,
    znorm: ZNorm,
    /// Sampling interval in timestamp units.
    interval: u64,
    /// Timestamp of the newest ingested sample.
    newest: u64,
    /// Raw value of the newest ingested sample (interpolation anchor).
    newest_value: f64,
    /// Longest gap (in ticks) that will be linearly filled.
    max_gap: usize,
}

impl SensorStream {
    /// Create a stream from raw history sampled at `interval` units ending
    /// at timestamp `last_timestamp`.
    ///
    /// # Panics
    /// Panics if the history is too short for the configuration (same
    /// requirement as [`SensorPredictor::new`]) or `interval` is zero.
    pub fn new(
        device: Arc<Device>,
        sensor_id: usize,
        raw_history: &[f64],
        last_timestamp: u64,
        interval: u64,
        config: SmilerConfig,
        kind: PredictorKind,
    ) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(!raw_history.is_empty(), "history must not be empty");
        let znorm = ZNorm::fit(raw_history);
        let normalised = znorm.apply_all(raw_history);
        // Non-empty was asserted above; the fallback is unreachable.
        let newest_value = raw_history.last().copied().unwrap_or_default();
        let predictor = SensorPredictor::new(device, sensor_id, normalised, config, kind);
        SensorStream {
            predictor,
            znorm,
            interval,
            newest: last_timestamp,
            newest_value,
            max_gap: 16,
        }
    }

    /// The normalisation parameters in use.
    pub fn znorm(&self) -> ZNorm {
        self.znorm
    }

    /// Ingest one raw observation. Off-grid timestamps snap to the
    /// **nearest** tick, keeping `newest` on the sampling grid; the return
    /// value is the number of samples absorbed.
    ///
    /// Short gaps (≤ `max_gap` missing ticks) are filled by linear
    /// interpolation. A dropout burst longer than that is **not**
    /// interpolated — fabricated history is exactly what the kNN index
    /// would then retrieve as neighbours — it is marked *missing* (NaN
    /// sentinels the search layer refuses to match) and the clock resyncs
    /// to the new reading. Burst marks are capped at the longest span any
    /// search window can straddle; a month-long outage costs the same as a
    /// window-sized one.
    pub fn ingest(&mut self, timestamp: u64, raw_value: f64) -> Result<usize, StreamError> {
        if !raw_value.is_finite() {
            return Err(StreamError::NotFinite);
        }
        if timestamp <= self.newest {
            return Err(StreamError::StaleTimestamp { got: timestamp, newest: self.newest });
        }
        let elapsed = timestamp - self.newest;
        // Nearest-tick snap. Floor rounding re-times late-jittered samples
        // one tick early; the error accumulates until it exceeds one
        // interval and then surfaces as a spurious interpolated fill.
        let ticks = ((elapsed + self.interval / 2) / self.interval) as usize;
        if ticks == 0 {
            // The nearest tick is the head we already ingested: a jittered
            // duplicate. Forcing it one tick forward (the old behaviour)
            // mis-times the sample and, under a jitter storm, double-counts
            // the same reading across adjacent ticks.
            return Err(StreamError::DuplicateTick { got: timestamp, head: self.newest });
        }
        let missing = ticks - 1;
        let values: Vec<f64> = if missing > self.max_gap {
            let marks = missing.min(self.missing_cap());
            smiler_obs::count("ingest.dropout_burst", "", 1);
            smiler_obs::observe("ingest.dropout_ticks", "", missing as f64);
            std::iter::repeat(f64::NAN)
                .take(marks)
                .chain(std::iter::once(self.znorm.apply(raw_value)))
                .collect()
        } else {
            // Linear fill from the previous raw value to this one.
            (1..=ticks)
                .map(|i| {
                    let frac = i as f64 / ticks as f64;
                    self.znorm.apply(self.newest_value * (1.0 - frac) + raw_value * frac)
                })
                .collect()
        };
        // Fabricated values (interpolated fills, missing-marks) produce
        // residuals against data that never happened; stand the regime
        // detector down while they and their immediate wake pass through.
        if missing > 0 {
            self.predictor.regime_holdoff(values.len() + 4);
        }
        for &v in &values {
            self.predictor.observe(v);
        }
        self.newest += ticks as u64 * self.interval;
        self.newest_value = raw_value;
        Ok(values.len())
    }

    /// The longest missing-mark run worth materialising: one master query
    /// window plus the horizon headroom. No search window can straddle a
    /// seam wider than that, so extra marks would only bloat the index.
    fn missing_cap(&self) -> usize {
        let cfg = self.predictor.config();
        let d_master = cfg.ensemble.elv.iter().copied().max().unwrap_or_default();
        d_master + cfg.h_max
    }

    /// Forecast `h` ticks ahead, in raw units.
    pub fn forecast(&mut self, h: usize) -> Forecast {
        let (mean_z, var_z) = self.predictor.predict(h);
        let mean = self.znorm.invert(mean_z);
        let var = self.znorm.invert_variance(var_z);
        let sd = var.max(0.0).sqrt();
        Forecast { mean, std_dev: sd, interval95: (mean - 1.96 * sd, mean + 1.96 * sd) }
    }

    /// Borrow the underlying predictor (diagnostics).
    pub fn predictor(&self) -> &SensorPredictor {
        &self.predictor
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn raw_history(n: usize) -> Vec<f64> {
        // A ~400-unit seasonal raw signal (e.g. car-park lots).
        (0..n).map(|i| 400.0 + 150.0 * (i as f64 * std::f64::consts::TAU / 24.0).sin()).collect()
    }

    fn stream() -> SensorStream {
        let device = Arc::new(Device::default_gpu());
        SensorStream::new(
            device,
            0,
            &raw_history(400),
            /* last ts */ 4000,
            /* interval */ 10,
            SmilerConfig::small_for_tests(),
            PredictorKind::Aggregation,
        )
    }

    /// A stream that interpolates at most two missing ticks.
    fn short_gap_stream() -> SensorStream {
        SensorStream { max_gap: 2, ..stream() }
    }

    #[test]
    fn forecasts_come_back_in_raw_units() {
        let mut s = stream();
        let f = s.forecast(1);
        assert!(f.mean > 200.0 && f.mean < 600.0, "raw-unit mean, got {}", f.mean);
        assert!(f.std_dev >= 0.0);
        assert!(f.interval95.0 <= f.mean && f.mean <= f.interval95.1);
    }

    #[test]
    fn ingest_advances_clock_and_counts_ticks() {
        let mut s = stream();
        assert_eq!(s.ingest(4010, 420.0), Ok(1));
        assert_eq!(s.newest, 4010);
        // A 3-tick jump fills 2 missing samples.
        assert_eq!(s.ingest(4040, 450.0), Ok(3));
        assert_eq!(s.newest, 4040);
    }

    #[test]
    fn gap_interpolation_is_linear() {
        let mut s = stream();
        let len_before = s.predictor.history().len();
        s.ingest(4030, 700.0).unwrap(); // 3 ticks from 4000
        let hist = s.predictor.history();
        assert_eq!(hist.len(), len_before + 3);
        // The filled values climb monotonically toward the new reading.
        let z = s.znorm();
        let raw: Vec<f64> = hist[hist.len() - 3..].iter().map(|&v| z.invert(v)).collect();
        assert!(raw[0] < raw[1] && raw[1] < raw[2]);
        assert!((raw[2] - 700.0).abs() < 1e-9);
    }

    #[test]
    fn stale_and_bad_input_rejected() {
        let mut s = stream();
        s.ingest(4010, 400.0).unwrap();
        assert_eq!(
            s.ingest(4010, 401.0),
            Err(StreamError::StaleTimestamp { got: 4010, newest: 4010 })
        );
        assert_eq!(
            s.ingest(3990, 401.0).unwrap_err(),
            StreamError::StaleTimestamp { got: 3990, newest: 4010 }
        );
        assert_eq!(s.ingest(4020, f64::NAN), Err(StreamError::NotFinite));
        // Errors must not corrupt the clock.
        assert_eq!(s.newest, 4010);
    }

    #[test]
    fn oversized_gap_becomes_missing_marks_not_fabricated_history() {
        let mut s = short_gap_stream();
        let len_before = s.predictor.history().len();
        // 9 missing ticks > max_gap 2: absorb as marks + the real reading.
        let absorbed = s.ingest(4000 + 10 * 10, 430.0).unwrap();
        assert_eq!(absorbed, 10);
        // The clock resyncs to the new reading — the stream stays live.
        assert_eq!(s.newest, 4100);
        let hist = s.predictor.history();
        assert_eq!(hist.len(), len_before + 10);
        let added = &hist[len_before..];
        assert!(added[..9].iter().all(|v| v.is_nan()), "gap must be marked missing");
        let z = s.znorm();
        assert!((z.invert(added[9]) - 430.0).abs() < 1e-9, "the reading itself is real");
        // Ingestion continues normally after the seam.
        assert_eq!(s.ingest(4110, 435.0), Ok(1));
    }

    #[test]
    fn month_long_outage_is_capped_at_the_window_span() {
        let mut s = short_gap_stream();
        let len_before = s.predictor.history().len();
        // 10_000 missing ticks; the cap is d_master + h_max = 16 + 8 = 24.
        let absorbed = s.ingest(4000 + 10 * 10_001, 430.0).unwrap();
        assert_eq!(absorbed, 24 + 1);
        assert_eq!(s.newest, 4000 + 10 * 10_001);
        assert_eq!(s.predictor.history().len(), len_before + 25);
    }

    #[test]
    fn forecasts_survive_a_dropout_burst() {
        let mut s = short_gap_stream();
        s.ingest(4100, 430.0).unwrap(); // 9-tick burst → missing marks
                                        // The suffix now straddles the seam: the predictor must degrade
                                        // (typed, finite) rather than panic or forecast from NaN.
        let f = s.forecast(1);
        assert!(f.mean.is_finite() && f.std_dev.is_finite());
        // Refill past the master window; forecasting recovers fully.
        for i in 1..=40u64 {
            let t = 4100 + i * 10;
            let v = 400.0 + 150.0 * ((410 + i) as f64 * std::f64::consts::TAU / 24.0).sin();
            s.ingest(t, v).unwrap();
        }
        let f = s.forecast(1);
        assert!(f.mean.is_finite() && f.mean > 100.0 && f.mean < 700.0);
    }

    #[test]
    fn jittered_duplicate_ticks_rejected_typed() {
        let mut s = stream();
        assert_eq!(s.ingest(4010, 420.0), Ok(1));
        // 2 units past the head snaps back onto the head tick: duplicate.
        assert_eq!(
            s.ingest(4012, 421.0),
            Err(StreamError::DuplicateTick { got: 4012, head: 4010 })
        );
        // The rejection leaves the clock and history untouched...
        assert_eq!(s.newest, 4010);
        // ...and the next on-grid arrival lands exactly one tick.
        assert_eq!(s.ingest(4020, 422.0), Ok(1));
        assert_eq!(s.newest, 4020);
    }

    #[test]
    fn jitter_storm_never_double_counts_or_drifts() {
        // Regression: a flaky transport re-delivering each reading several
        // times with timestamp jitter. Exactly one sample per true tick
        // must land; every duplicate must be rejected with a typed error.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut s = stream();
        let len_start = s.predictor.history().len();
        let mut accepted = 0usize;
        for i in 1..=100u64 {
            let base = 4000 + i * 10;
            let deliveries = 1 + (next() % 3); // 1–3 deliveries per tick
            for _ in 0..deliveries {
                let jitter = (next() % 9) as i64 - 4; // [-4, 4]
                let t = (base as i64 + jitter).max(0) as u64;
                match s.ingest(t, 400.0 + (i % 7) as f64) {
                    Ok(n) => accepted += n,
                    Err(StreamError::DuplicateTick { .. })
                    | Err(StreamError::StaleTimestamp { .. }) => {}
                    Err(e) => panic!("tick {i}: unexpected error {e}"),
                }
            }
            assert_eq!(s.newest, base, "clock drifted at tick {i}");
        }
        assert_eq!(accepted, 100, "exactly one sample per true tick");
        assert_eq!(s.predictor.history().len(), len_start + 100);
        // No duplicate ever fabricated history: every accepted sample is
        // finite (jitter never opened a gap wider than one tick).
        assert!(s.predictor.history()[len_start..].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn off_grid_arrivals_do_not_drift_the_clock() {
        // Property: a stream arriving once per true tick, with bounded
        // random timestamp jitter, must absorb exactly one sample per
        // arrival (no spurious interpolation) and keep `newest` on the
        // sampling grid.
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _case in 0..8 {
            let mut s = stream();
            for i in 1..=200u64 {
                let jitter = (next() % 9) as i64 - 4; // [-4, 4] on interval 10
                let t = (4000 + i * 10) as i64 + jitter;
                let absorbed = s.ingest(t as u64, 400.0 + (i % 7) as f64).unwrap();
                assert_eq!(absorbed, 1, "arrival {i} at t={t} caused spurious fills");
                assert_eq!(s.newest, 4000 + i * 10, "clock drifted at arrival {i}");
            }
        }
    }

    #[test]
    fn off_grid_gap_snaps_to_nearest_tick() {
        let mut s = stream();
        // 18 units past the newest tick is nearest to 2 ticks, not 1.
        assert_eq!(s.ingest(4018, 420.0), Ok(2));
        assert_eq!(s.newest, 4020);
        // 4 units short of the next tick still counts as that tick.
        assert_eq!(s.ingest(4026, 430.0), Ok(1));
        assert_eq!(s.newest, 4030);
    }

    #[test]
    fn continuous_operation_tracks_signal() {
        let mut s = stream();
        let mut err = 0.0;
        let mut steps = 0;
        for i in 0..24usize {
            let t = 4000 + (i as u64 + 1) * 10;
            let truth = 400.0 + 150.0 * ((400 + i) as f64 * std::f64::consts::TAU / 24.0).sin();
            let f = s.forecast(1);
            err += (f.mean - truth).abs();
            steps += 1;
            s.ingest(t, truth).unwrap();
        }
        let mae = err / steps as f64;
        assert!(mae < 40.0, "raw-unit MAE {mae} too high for a clean seasonal signal");
    }
}
