//! Deterministic synthetic stand-ins for the paper's evaluation datasets.
//!
//! The paper evaluates on three real traces (§6.1.2): **ROAD** (963 PeMS
//! traffic-occupancy sensors, 10-minute rate), **MALL** (Singapore car-park
//! availability, 10-minute rate, duplicated ×40) and **NET** (one backbone
//! internet-traffic series, 5-minute rate, duplicated ×1024). ROAD is public
//! but large; MALL is proprietary. Per the substitution policy in
//! DESIGN.md §2 we generate synthetic equivalents that preserve the
//! *characteristics the evaluation depends on*:
//!
//! * ROAD — dynamic, incident-laden traffic where simple averaging
//!   (SMiLer-AR) clearly trails the GP (paper §6.3.2 explains the ROAD gap
//!   by its dynamics);
//! * MALL — strongly seasonal, smooth series where AR ≈ GP;
//! * NET — periodic multi-harmonic traffic, one mother series duplicated
//!   with small perturbations exactly as the paper duplicated its trace.
//!
//! Every generator is a pure function of a seed, so experiments are
//! reproducible bit-for-bit.

pub mod chaos;

use crate::normalize;
use crate::series::TimeSeries;
use rand::Rng;
use smiler_linalg::rng as srng;

/// Which of the paper's three datasets to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Traffic-occupancy sensors (dynamic; incidents).
    Road,
    /// Car-park availability (smooth; strong daily/weekly seasonality).
    Mall,
    /// Backbone internet traffic (multi-harmonic diurnal; duplicated clones).
    Net,
}

impl DatasetKind {
    /// Paper name of the dataset.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Road => "ROAD",
            DatasetKind::Mall => "MALL",
            DatasetKind::Net => "NET",
        }
    }

    /// Samples per day at the paper's sampling rate (10 min for ROAD/MALL,
    /// 5 min for NET).
    pub fn samples_per_day(self) -> usize {
        match self {
            DatasetKind::Road | DatasetKind::Mall => 144,
            DatasetKind::Net => 288,
        }
    }

    /// All three kinds, in the order the paper's tables list them.
    pub fn all() -> [DatasetKind; 3] {
        [DatasetKind::Road, DatasetKind::Mall, DatasetKind::Net]
    }
}

/// Specification of a synthetic dataset instance.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticSpec {
    /// Which dataset to emulate.
    pub kind: DatasetKind,
    /// Number of sensors to generate.
    pub sensors: usize,
    /// Number of days of history per sensor.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A small instance suitable for unit/integration tests.
    pub fn small(kind: DatasetKind, seed: u64) -> Self {
        SyntheticSpec { kind, sensors: 4, days: 14, seed }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> SensorDataset {
        let n = self.days * self.kind.samples_per_day();
        let mut rng = srng::seeded(self.seed ^ (self.kind as u64).wrapping_mul(0x9E37));
        let sensors = match self.kind {
            DatasetKind::Road => (0..self.sensors).map(|id| road_sensor(id, n, &mut rng)).collect(),
            DatasetKind::Mall => (0..self.sensors).map(|id| mall_sensor(id, n, &mut rng)).collect(),
            DatasetKind::Net => net_sensors(self.sensors, n, &mut rng),
        };
        SensorDataset {
            name: self.kind.name().to_string(),
            kind: self.kind,
            samples_per_day: self.kind.samples_per_day(),
            sensors,
        }
    }
}

/// A generated multi-sensor dataset. All series are z-normalised, matching
/// the paper's preprocessing (§6.1.2).
#[derive(Debug, Clone)]
pub struct SensorDataset {
    /// Dataset name ("ROAD", "MALL" or "NET").
    pub name: String,
    /// Dataset kind.
    pub kind: DatasetKind,
    /// Samples per day (defines the seasonal period used by HoltWinters).
    pub samples_per_day: usize,
    /// One z-normalised series per sensor.
    pub sensors: Vec<TimeSeries>,
}

fn finish(id: usize, raw: Vec<f64>) -> TimeSeries {
    let (z, _) = normalize::z_normalize(&raw);
    TimeSeries::new(id, z)
}

/// Fraction of the day in [0, 1) for sample index `i`.
fn day_frac(i: usize, per_day: usize) -> f64 {
    (i % per_day) as f64 / per_day as f64
}

fn is_weekend(i: usize, per_day: usize) -> bool {
    matches!((i / per_day) % 7, 5 | 6)
}

fn gaussian_bump(x: f64, centre: f64, width: f64) -> f64 {
    let d = x - centre;
    (-d * d / (2.0 * width * width)).exp()
}

/// One ROAD sensor: double-peak commuter occupancy with AR(1) noise and
/// exponential-decay congestion incidents.
fn road_sensor(id: usize, n: usize, rng: &mut impl Rng) -> TimeSeries {
    let per_day = DatasetKind::Road.samples_per_day();
    // Sensor-specific commute profile.
    let am_peak = 0.33 + 0.03 * srng::normal(rng); // ~ 8:00
    let pm_peak = 0.74 + 0.03 * srng::normal(rng); // ~ 17:45
    let am_amp = 0.35 + 0.1 * rng.gen::<f64>();
    let pm_amp = 0.30 + 0.1 * rng.gen::<f64>();
    let base = 0.05 + 0.05 * rng.gen::<f64>();
    let phi = 0.75 + 0.15 * rng.gen::<f64>(); // AR(1) coefficient
    let noise_sd = 0.015 + 0.01 * rng.gen::<f64>();
    let incident_rate = 1.0 / (2.5 * per_day as f64); // ~1 incident / 2.5 days

    let mut values = Vec::with_capacity(n);
    let mut ar = 0.0;
    let mut incident = 0.0f64;
    // Rush hours shift from day to day (weather, events): a per-day phase
    // jitter of ~±20 minutes. This is what makes DTW's warping robustness
    // matter for traffic data (paper §4).
    let mut day_shift = 0.0;
    for i in 0..n {
        if i % per_day == 0 {
            day_shift = 0.015 * srng::normal(rng);
        }
        let x = day_frac(i, per_day);
        let weekday = if is_weekend(i, per_day) { 0.45 } else { 1.0 };
        let profile = base
            + weekday
                * (am_amp * gaussian_bump(x, am_peak + day_shift, 0.055)
                    + pm_amp * gaussian_bump(x, pm_peak + day_shift, 0.065));
        ar = phi * ar + noise_sd * srng::normal(rng);
        // Incidents: rare onset, multiplicative decay — produces the sharp
        // congestion transients that make ROAD "dynamic".
        if rng.gen::<f64>() < incident_rate {
            incident += 0.25 + 0.35 * rng.gen::<f64>();
        }
        incident *= 0.94;
        values.push((profile + ar + incident).clamp(0.0, 1.0));
    }
    finish(id, values)
}

/// One MALL sensor: car-park availability with opening-hours ramps, weekend
/// crowds and little noise.
fn mall_sensor(id: usize, n: usize, rng: &mut impl Rng) -> TimeSeries {
    let per_day = DatasetKind::Mall.samples_per_day();
    let capacity = 300.0 + 700.0 * rng.gen::<f64>();
    let open = 10.0 / 24.0;
    let close = 22.0 / 24.0;
    let lunch = 13.0 / 24.0;
    let dinner = 19.0 / 24.0;
    let noise_sd = 0.01 + 0.005 * rng.gen::<f64>();
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let x = day_frac(i, per_day);
        let weekend_boost = if is_weekend(i, per_day) { 1.35 } else { 1.0 };
        // Occupancy: zero outside opening hours, two meal-time peaks inside.
        let occupancy = if x < open || x > close {
            0.03
        } else {
            let ramp_in = ((x - open) / 0.04).min(1.0);
            let ramp_out = ((close - x) / 0.04).min(1.0);
            let meals =
                0.55 * gaussian_bump(x, lunch, 0.07) + 0.65 * gaussian_bump(x, dinner, 0.08);
            (0.15 + weekend_boost * meals) * ramp_in * ramp_out
        };
        let available =
            capacity * (1.0 - occupancy.clamp(0.0, 0.97)) + capacity * noise_sd * srng::normal(rng);
        values.push(available.max(0.0));
    }
    finish(id, values)
}

/// NET: one mother series, duplicated with small perturbations — the same
/// construction the paper used (its single backbone trace ×1024).
fn net_sensors(count: usize, n: usize, rng: &mut impl Rng) -> Vec<TimeSeries> {
    let per_day = DatasetKind::Net.samples_per_day();
    // Mother series: diurnal fundamental + two harmonics + weekly modulation
    // + slow growth trend + AR noise.
    let mut mother = Vec::with_capacity(n);
    let mut ar = 0.0;
    for i in 0..n {
        let x = day_frac(i, per_day) * std::f64::consts::TAU;
        let week = ((i / per_day) % 7) as f64 / 7.0 * std::f64::consts::TAU;
        ar = 0.7 * ar + 0.03 * srng::normal(rng);
        let v = 1.0
            + 0.45 * (x - 1.1).sin()
            + 0.18 * (2.0 * x + 0.4).sin()
            + 0.07 * (3.0 * x).cos()
            + 0.10 * (week).sin()
            + 0.0002 * i as f64 // slow traffic growth
            + ar;
        mother.push(v.max(0.0));
    }
    (0..count)
        .map(|id| {
            let perturbed: Vec<f64> =
                mother.iter().map(|&v| v + 0.02 * srng::normal(rng)).collect();
            finish(id, perturbed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smiler_linalg::stats;

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::small(DatasetKind::Road, 11);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.sensors, b.sensors);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSpec::small(DatasetKind::Road, 1).generate();
        let b = SyntheticSpec::small(DatasetKind::Road, 2).generate();
        assert_ne!(a.sensors[0], b.sensors[0]);
    }

    #[test]
    fn sizes_match_spec() {
        for kind in DatasetKind::all() {
            let spec = SyntheticSpec { kind, sensors: 3, days: 5, seed: 7 };
            let ds = spec.generate();
            assert_eq!(ds.sensors.len(), 3);
            let expect = 5 * kind.samples_per_day();
            assert!(ds.sensors.iter().all(|s| s.len() == expect));
        }
    }

    #[test]
    fn series_are_z_normalized() {
        for kind in DatasetKind::all() {
            let ds = SyntheticSpec::small(kind, 5).generate();
            for s in &ds.sensors {
                assert!(stats::mean(s.values()).abs() < 1e-9, "{} mean", ds.name);
                assert!((stats::variance(s.values()) - 1.0).abs() < 1e-6, "{} var", ds.name);
            }
        }
    }

    #[test]
    fn road_has_daily_structure() {
        // Autocorrelation at a 1-day lag should be clearly positive.
        let ds =
            SyntheticSpec { kind: DatasetKind::Road, sensors: 1, days: 20, seed: 3 }.generate();
        let v = ds.sensors[0].values();
        let lag = DatasetKind::Road.samples_per_day();
        let n = v.len() - lag;
        let ac: f64 = (0..n).map(|i| v[i] * v[i + lag]).sum::<f64>() / n as f64;
        assert!(ac > 0.3, "daily autocorrelation too weak: {ac}");
    }

    #[test]
    fn net_clones_are_similar_but_not_identical() {
        let ds = SyntheticSpec { kind: DatasetKind::Net, sensors: 3, days: 6, seed: 9 }.generate();
        let a = ds.sensors[0].values();
        let b = ds.sensors[1].values();
        assert_ne!(a, b);
        // Correlation between clones should be very high.
        let corr: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>() / a.len() as f64;
        assert!(corr > 0.9, "clone correlation too weak: {corr}");
    }

    #[test]
    fn mall_weekends_are_busier() {
        // More cars on weekend => fewer available lots => lower mean value on
        // weekends in the raw series; after z-normalisation the sign of the
        // difference is preserved.
        let ds =
            SyntheticSpec { kind: DatasetKind::Mall, sensors: 1, days: 28, seed: 13 }.generate();
        let v = ds.sensors[0].values();
        let per_day = DatasetKind::Mall.samples_per_day();
        let (mut we, mut wd) = (Vec::new(), Vec::new());
        for (i, &x) in v.iter().enumerate() {
            if is_weekend(i, per_day) {
                we.push(x);
            } else {
                wd.push(x);
            }
        }
        assert!(stats::mean(&we) < stats::mean(&wd));
    }
}
