//! Robust (outlier-downweighted) GP likelihood support.
//!
//! A single spiked label in the kNN neighbourhood poisons both the
//! hyperparameter optimum (the LOO likelihood chases the spike with an
//! inflated signal variance) and the posterior itself (the spike drags the
//! predictive mean). The robust variant follows the streaming-GP
//! regimes-and-outliers treatment: identify outlying labels with a
//! median/MAD rule — robust against the very contamination it hunts —
//! then (a) clip the labels the hyperparameter trainer sees and (b) fit
//! the posterior with per-point noise inflated on the flagged points, so
//! the spike is *explained as noise* instead of bending the latent
//! function.
//!
//! Everything here is exactly-quiescent on clean data: when no label
//! exceeds the z-clip, [`noise_scales`] and [`winsorize`] return `None`
//! and the caller keeps the uniform-noise path bit for bit.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Configuration of the robust likelihood variant.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RobustSpec {
    /// Whether the robust path is active at all (`false` = the classic
    /// uniform-noise likelihood, bitwise-unchanged).
    pub enabled: bool,
    /// Robust z-score (median/MAD) beyond which a label counts as an
    /// outlier.
    pub z_clip: f64,
    /// Multiplier on the noise *variance* θ₂² of flagged points — the
    /// downweighting: 25 ⇒ an outlier's label carries 5× the noise σ.
    pub noise_inflation: f64,
}

impl Default for RobustSpec {
    fn default() -> Self {
        RobustSpec { enabled: false, z_clip: 3.0, noise_inflation: 25.0 }
    }
}

impl RobustSpec {
    /// The robust variant with default thresholds switched on.
    pub fn enabled() -> Self {
        RobustSpec { enabled: true, ..Default::default() }
    }
}

/// Per-point noise downweighting computed from one label vector.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustWeights {
    /// Noise-variance multiplier per label (1.0 for inliers).
    pub scales: Vec<f64>,
    /// Number of labels flagged as outliers.
    pub outliers: usize,
}

/// Median of a slice (averaging the middle pair for even lengths).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Robust location/scale of the labels: `(median, σ̂)` with
/// `σ̂ = 1.4826 · MAD`, floored so a constant neighbourhood with one spike
/// still flags the spike instead of dividing by zero.
fn robust_location_scale(y: &[f64]) -> (f64, f64) {
    let mut buf: Vec<f64> = y.to_vec();
    let med = median(&mut buf);
    for v in buf.iter_mut() {
        *v = (*v - med).abs();
    }
    let mad = median(&mut buf);
    (med, (1.4826 * mad).max(1e-12))
}

/// Per-point noise-variance scales for `y` under `spec`, or `None` when no
/// label exceeds the z-clip — the caller must then take the classic
/// uniform-noise path, which keeps clean-data predictions bitwise
/// identical.
pub fn noise_scales(y: &[f64], spec: &RobustSpec) -> Option<RobustWeights> {
    if !spec.enabled || y.len() < 3 {
        return None;
    }
    let (med, sigma) = robust_location_scale(y);
    let mut scales = vec![1.0; y.len()];
    let mut outliers = 0usize;
    for (s, &v) in scales.iter_mut().zip(y) {
        let z = (v - med) / sigma;
        if !z.is_finite() || z.abs() > spec.z_clip {
            *s = spec.noise_inflation.max(1.0);
            outliers += 1;
        }
    }
    // All-outlier neighbourhoods carry no inlier consensus to anchor on:
    // downweighting everything equally is the uniform likelihood again,
    // so report quiescence and let the classic path serve.
    if outliers == 0 || outliers == y.len() {
        return None;
    }
    Some(RobustWeights { scales, outliers })
}

/// Clip outlying labels to the `median ± z_clip·σ̂` band — what the
/// hyperparameter trainer should see, so a spike cannot drag the LOO
/// optimum. Returns `None` when nothing needed clipping (clean data stays
/// bitwise-identical).
pub fn winsorize(y: &[f64], spec: &RobustSpec) -> Option<Vec<f64>> {
    if !spec.enabled || y.len() < 3 {
        return None;
    }
    let (med, sigma) = robust_location_scale(y);
    let lo = med - spec.z_clip * sigma;
    let hi = med + spec.z_clip * sigma;
    let mut clipped = false;
    let out: Vec<f64> = y
        .iter()
        .map(|&v| {
            if v < lo {
                clipped = true;
                lo
            } else if v > hi {
                clipped = true;
                hi
            } else {
                v
            }
        })
        .collect();
    clipped.then_some(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn spec() -> RobustSpec {
        RobustSpec::enabled()
    }

    #[test]
    fn clean_labels_are_quiescent() {
        let y = [0.1, 0.2, 0.15, 0.18, 0.12, 0.22];
        assert!(noise_scales(&y, &spec()).is_none());
        assert!(winsorize(&y, &spec()).is_none());
    }

    #[test]
    fn disabled_spec_is_quiescent_even_on_spikes() {
        let y = [0.1, 0.2, 50.0, 0.18];
        assert!(noise_scales(&y, &RobustSpec::default()).is_none());
        assert!(winsorize(&y, &RobustSpec::default()).is_none());
    }

    #[test]
    fn single_spike_is_downweighted_and_clipped() {
        let y = [0.1, 0.2, 0.15, 50.0, 0.12, 0.22];
        let w = noise_scales(&y, &spec()).expect("spike must be flagged");
        assert_eq!(w.outliers, 1);
        assert_eq!(w.scales[3], spec().noise_inflation);
        assert!(w.scales.iter().enumerate().all(|(i, &s)| i == 3 || s == 1.0));
        let clipped = winsorize(&y, &spec()).expect("spike must be clipped");
        assert!(clipped[3] < 1.0, "clipped to the inlier band, got {}", clipped[3]);
        assert_eq!(&clipped[..3], &y[..3]);
    }

    #[test]
    fn spike_in_constant_neighbourhood_is_flagged() {
        // MAD is zero; the floor must still isolate the spike.
        let y = [2.0, 2.0, 2.0, 2.0, 9.0];
        let w = noise_scales(&y, &spec()).expect("flag the spike");
        assert_eq!(w.outliers, 1);
        assert_eq!(w.scales[4], spec().noise_inflation);
    }

    #[test]
    fn all_outliers_fall_back_to_uniform() {
        // Two clusters, MAD sees half the points as far — if *every* point
        // flags, downweighting is meaningless and the result is None.
        let y = [0.0, 0.0, 0.0];
        assert!(noise_scales(&y, &spec()).is_none());
    }

    #[test]
    fn tiny_neighbourhoods_are_quiescent() {
        assert!(noise_scales(&[0.0, 9.0], &spec()).is_none());
        assert!(winsorize(&[0.0, 9.0], &spec()).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
