//! Descriptive statistics and Gaussian densities.
//!
//! The evaluation measures of the paper live here: MAE is a mean of absolute
//! errors, and MNLPD averages [`negative_log_predictive_density`] over test
//! points (§6.3.1). The predictor-weighting rule (Eqn 6–7) uses the same
//! Gaussian likelihood.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by n, matching the paper's pseudo-variance,
/// Eqn 13); 0 for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Standard deviation (population).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Gaussian probability density of `y` under `N(mean, var)`.
///
/// This is the likelihood `l(y, u, σ²)` of paper Eqn (7) used to score each
/// ensemble predictor after the true value arrives. Variance is floored at
/// a tiny positive value to keep the density finite for degenerate
/// predictors.
pub fn gaussian_pdf(y: f64, mean: f64, var: f64) -> f64 {
    let var = var.max(1e-12);
    let d = y - mean;
    (-d * d / (2.0 * var)).exp() / (2.0 * std::f64::consts::PI * var).sqrt()
}

/// Negative log predictive density of `y` under `N(mean, var)`.
///
/// One term of the paper's MNLPD measure. Computed in log space directly so
/// extremely unlikely observations do not underflow to `-ln 0`.
pub fn negative_log_predictive_density(y: f64, mean: f64, var: f64) -> f64 {
    let var = var.max(1e-12);
    let d = y - mean;
    0.5 * (2.0 * std::f64::consts::PI * var).ln() + d * d / (2.0 * var)
}

/// Mean absolute error between predictions and truths.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mean_absolute_error(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "MAE length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    predicted.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / predicted.len() as f64
}

/// Mean negative log predictive density over `(mean, var)` predictions.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mean_nlpd(means: &[f64], vars: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(means.len(), vars.len(), "MNLPD length mismatch");
    assert_eq!(means.len(), truth.len(), "MNLPD length mismatch");
    if means.is_empty() {
        return 0.0;
    }
    means
        .iter()
        .zip(vars)
        .zip(truth)
        .map(|((m, v), t)| negative_log_predictive_density(*t, *m, *v))
        .sum::<f64>()
        / means.len() as f64
}

/// Nearest-rank percentile of a *sorted* slice, `q ∈ [0, 1]`: the element
/// at index `round(q · (n − 1))`, never an interpolated value — what every
/// load and lag report in the repo quotes as p50/p95/p99. The default
/// value (zero) for an empty slice.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    let idx = (sorted.len().saturating_sub(1) as f64 * q).round() as usize;
    sorted.get(idx).or(sorted.last()).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(variance(&xs), 1.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn gaussian_pdf_peak() {
        // Standard normal at 0 is 1/sqrt(2π).
        let p = gaussian_pdf(0.0, 0.0, 1.0);
        assert!((p - 0.3989422804014327).abs() < 1e-12);
        // Symmetry.
        assert!((gaussian_pdf(1.0, 0.0, 2.0) - gaussian_pdf(-1.0, 0.0, 2.0)).abs() < 1e-15);
    }

    #[test]
    fn nlpd_is_negative_log_of_pdf() {
        let (y, m, v) = (0.7, 0.2, 1.3);
        let direct = -gaussian_pdf(y, m, v).ln();
        assert!((negative_log_predictive_density(y, m, v) - direct).abs() < 1e-12);
    }

    #[test]
    fn nlpd_finite_for_extreme_observation() {
        let v = negative_log_predictive_density(1e6, 0.0, 1.0);
        assert!(v.is_finite());
        assert!(v > 0.0);
    }

    #[test]
    fn mae_basic() {
        assert_eq!(mean_absolute_error(&[1.0, 2.0], &[2.0, 0.0]), 1.5);
        assert_eq!(mean_absolute_error(&[], &[]), 0.0);
    }

    #[test]
    fn mnlpd_prefers_honest_uncertainty() {
        // An overconfident wrong prediction is punished more than a
        // well-calibrated one — the property Fig 9/10(b,d,f) measures.
        let truth = [1.0];
        let overconfident = mean_nlpd(&[0.0], &[0.01], &truth);
        let calibrated = mean_nlpd(&[0.0], &[1.0], &truth);
        assert!(overconfident > calibrated);
    }

    #[test]
    fn nearest_rank_picks_an_element() {
        let xs = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&xs, 0.0), 10);
        assert_eq!(nearest_rank(&xs, 0.5), 30); // round(1.5) = 2
        assert_eq!(nearest_rank(&xs, 0.99), 40);
        assert_eq!(nearest_rank(&xs, 1.0), 40);
        assert_eq!(nearest_rank::<f64>(&[], 0.5), 0.0);
    }
}
