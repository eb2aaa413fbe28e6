//! Small vector helpers shared across the workspace.
//!
//! These are free functions over `&[f64]` rather than a newtype: the rest of
//! the workspace passes plain slices around (time-series segments, GP
//! targets), and wrapping them would add friction without safety.

/// Dot product of two equal-length slices.
///
/// Accumulated with the fixed 4-lane decomposition from `smiler-simd`, so
/// the result is identical under the lane and scalar kernel variants.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    smiler_simd::dot(a, b)
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Accumulated with the fixed 4-lane decomposition from `smiler-simd`.
/// Note `squared_distance(a, b)` is bitwise-equal to
/// `squared_distance(b, a)`: `(x−y)² = (y−x)²` exactly, and the summation
/// order is the same — symmetric Gram assembly relies on this.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    smiler_simd::squared_distance(a, b)
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`, element-wise.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    smiler_simd::axpy(alpha, x, y)
}

/// Element-wise scale in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// `a - b` as a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Maximum absolute element, 0 for an empty slice.
pub fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn squared_distance_symmetric() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.0, 2.0];
        assert_eq!(squared_distance(&a, &b), squared_distance(&b, &a));
        assert_eq!(squared_distance(&a, &a), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn sub_and_max_abs() {
        assert_eq!(sub(&[3.0, 1.0], &[1.0, 4.0]), vec![2.0, -3.0]);
        assert_eq!(max_abs(&[-5.0, 2.0]), 5.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
