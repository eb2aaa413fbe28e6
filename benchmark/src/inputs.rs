//! Workload inputs, made from the seed alone.
//!
//! Every workload feeds the program a fleet of z-normalised sensor
//! histories and then, one value at a time, the observations that follow
//! them. Both come from the repo's synthetic ROAD/MALL generators; the
//! normalisation is fitted on the history only, so the stream is data the
//! fleet has never seen in any form.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smiler_timeseries::normalize::ZNorm;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::time::Instant;

/// One fleet's inputs.
pub struct Feed {
    /// Normalised history per sensor (what the fleet is built from).
    pub history: Vec<Vec<f64>>,
    /// Normalised observations per sensor that follow the history.
    pub stream: Vec<Vec<f64>>,
    /// Wall-clock milliseconds the generators took (`timeseries.generate_ms`).
    pub generate_ms: f64,
}

impl Feed {
    /// Generate `groups` of `(kind, sensors)` with `history_days` of history
    /// and `stream_days` of following observations each.
    pub fn generate(
        groups: &[(DatasetKind, usize)],
        history_days: usize,
        stream_days: usize,
        seed: u64,
    ) -> Feed {
        let started = Instant::now();
        let mut raw = Vec::new();
        for &(kind, sensors) in groups {
            let spec = SyntheticSpec { kind, sensors, days: history_days + stream_days, seed };
            let split = history_days * kind.samples_per_day();
            raw.extend(spec.generate().sensors.into_iter().map(|s| (s, split)));
        }
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut feed = Feed { history: Vec::new(), stream: Vec::new(), generate_ms };
        for (series, split) in raw {
            let (head, tail) = series.values().split_at(split);
            let norm = ZNorm::fit(head);
            feed.history.push(norm.apply_all(head));
            feed.stream.push(norm.apply_all(tail));
        }
        feed
    }

    /// Number of sensors.
    pub fn sensors(&self) -> usize {
        self.history.len()
    }

    /// Observation round `r`: one value per sensor.
    pub fn round(&self, r: usize) -> Vec<f64> {
        self.stream.iter().map(|s| s[r]).collect()
    }

    /// Rounds the stream can supply.
    pub fn rounds(&self) -> usize {
        self.stream.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Independent RNG streams from one workload seed: `purpose` separates the
/// arrival schedule from the request mix from the probe sample.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Offsets (seconds from phase start) of a Poisson arrival stream at `rate`
/// per second, up to `duration` seconds. The same seed gives the same
/// schedule, so an open-loop phase sends the same requests on every run
/// however fast the program answers.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = rng_for(seed, 1);
    let mut offsets = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut at = 0.0;
    loop {
        let u: f64 = rng.gen();
        // Clamp away from ln(0) so no draw yields an infinite gap.
        at += -(1.0 - u).max(1e-12).ln() / rate;
        if at >= duration {
            return offsets;
        }
        offsets.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 200.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 200.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 200.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals ascend");
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 400 expected; Poisson sd is 20, so ±5 sd is a safe sanity band.
        assert!((300..500).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn feed_is_a_function_of_the_seed_and_splits_history_from_stream() {
        let groups = [(DatasetKind::Road, 2), (DatasetKind::Mall, 1)];
        let a = Feed::generate(&groups, 3, 1, 11);
        let b = Feed::generate(&groups, 3, 1, 11);
        let c = Feed::generate(&groups, 3, 1, 12);
        assert_eq!(a.history, b.history);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.history, c.history);
        assert_eq!(a.sensors(), 3);
        assert!(a.history.iter().all(|h| h.len() == 3 * 144));
        assert_eq!(a.rounds(), 144);
        assert_eq!(a.round(5), vec![a.stream[0][5], a.stream[1][5], a.stream[2][5]]);
        // Normalisation is fitted on the history alone.
        let mean = a.history[0].iter().sum::<f64>() / a.history[0].len() as f64;
        assert!(mean.abs() < 1e-9, "history mean {mean}");
    }
}
