//! Deterministic random sampling helpers.
//!
//! Experiments must be reproducible from a printed seed, so every stochastic
//! component in the workspace draws from a seeded [`rand::rngs::StdRng`]
//! through these helpers. Normal deviates use Box–Muller rather than pulling
//! in `rand_distr` (the approved offline crate list has `rand` only).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create a seeded RNG. All workspace randomness flows through `StdRng` so
/// results are stable across platforms.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A standard-normal deviate via the Box–Muller transform.
pub fn normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<f64> = {
            let mut r = seeded(42);
            (0..5).map(|_| r.gen()).collect()
        };
        let b: Vec<f64> = {
            let mut r = seeded(42);
            (0..5).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }
}
