//! Z-normalisation.
//!
//! The paper normalises "the time series of each sensor" with
//! z-normalisation before indexing and prediction (§6.1.2). Normalising the
//! whole series once (rather than per segment) is what makes the suffix-kNN
//! index sound: every segment is compared in the same normalised space.

use smiler_linalg::stats;

/// Parameters of a z-normalisation, kept so predictions can be mapped back
/// to sensor units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZNorm {
    /// Mean of the original series.
    pub mean: f64,
    /// Standard deviation of the original series (floored to avoid division
    /// by zero on constant series).
    pub std_dev: f64,
}

impl ZNorm {
    /// Fit normalisation parameters to `values`.
    pub fn fit(values: &[f64]) -> Self {
        ZNorm { mean: stats::mean(values), std_dev: stats::std_dev(values).max(1e-12) }
    }

    /// Normalise one value.
    pub fn apply(&self, v: f64) -> f64 {
        (v - self.mean) / self.std_dev
    }

    /// Map a normalised value back to sensor units.
    pub fn invert(&self, z: f64) -> f64 {
        z * self.std_dev + self.mean
    }

    /// Map a normalised *variance* back to sensor units.
    pub fn invert_variance(&self, var: f64) -> f64 {
        var * self.std_dev * self.std_dev
    }

    /// Normalise a whole slice into a new vector.
    pub fn apply_all(&self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.apply(v)).collect()
    }
}

/// Fit-and-apply convenience: returns the normalised series and the fitted
/// parameters.
pub fn z_normalize(values: &[f64]) -> (Vec<f64>, ZNorm) {
    let z = ZNorm::fit(values);
    (z.apply_all(values), z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smiler_linalg::stats;

    #[test]
    fn normalized_series_has_zero_mean_unit_variance() {
        let values: Vec<f64> = (0..100).map(|i| 3.0 + 2.0 * (i as f64 * 0.31).sin()).collect();
        let (z, _) = z_normalize(&values);
        assert!(stats::mean(&z).abs() < 1e-10);
        assert!((stats::variance(&z) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn round_trip() {
        let values = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0];
        let (z, params) = z_normalize(&values);
        for (orig, zi) in values.iter().zip(&z) {
            assert!((params.invert(*zi) - orig).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let values = [5.0; 10];
        let (z, params) = z_normalize(&values);
        assert!(z.iter().all(|v| v.is_finite()));
        assert!((params.invert(z[0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn variance_inversion_scales_quadratically() {
        let params = ZNorm { mean: 10.0, std_dev: 3.0 };
        assert!((params.invert_variance(2.0) - 18.0).abs() < 1e-12);
    }
}
