//! Output checks and forecast-quality accounting.

/// Order-independent digest over `(sensor, step, mean bits, variance bits)`
/// forecast records: entries are sorted before hashing, so a fleet served
/// over the wire (interleaved across sensors) and one replayed in-process
/// (sensor by sensor) agree exactly when every forecast is bitwise equal.
#[derive(Debug, Default, Clone)]
pub struct ForecastDigest {
    entries: Vec<(u64, u64, u64, u64)>,
}

impl ForecastDigest {
    /// Add one forecast.
    pub fn push(&mut self, sensor: u64, step: u64, mean: f64, variance: f64) {
        self.entries.push((sensor, step, mean.to_bits(), variance.to_bits()));
    }

    /// Forecasts recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// FNV-1a (64-bit) over the sorted entries' little-endian bytes.
    pub fn finish(&self) -> u64 {
        let mut entries = self.entries.clone();
        entries.sort_unstable();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (a, b, c, d) in entries {
            for word in [a, b, c, d] {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }
}

/// Forecasts paired with the value that was later realised. Entries carry
/// a key fixed by the workload's plan (never by timing) and the means are
/// summed in key order, so `mae` and `mnlpd` repeat bit for bit for a seed.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    entries: Vec<(u64, f64, f64, f64)>,
}

impl Quality {
    /// Record the forecast `N(mean, variance)` of a value that turned out
    /// to be `realised`. Non-finite forecasts are the caller's to count as
    /// failures; they are left out of the quality means.
    pub fn push(&mut self, key: u64, realised: f64, mean: f64, variance: f64) {
        if mean.is_finite() && variance.is_finite() && variance > 0.0 {
            self.entries.push((key, realised, mean, variance));
        }
    }

    /// Forecasts scored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    fn mean_of(&self, f: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|e| e.0);
        let sum: f64 = entries.iter().map(|&(_, y, m, v)| f(y, m, v)).sum();
        sum / entries.len().max(1) as f64
    }

    /// Mean absolute error of the forecast means, in z-units.
    pub fn mae(&self) -> f64 {
        self.mean_of(|y, m, _| (y - m).abs())
    }

    /// Mean negative log predictive density (the paper's second quality
    /// measure); can be negative.
    pub fn mnlpd(&self) -> f64 {
        self.mean_of(|y, m, v| {
            0.5 * (std::f64::consts::TAU * v).ln() + (y - m) * (y - m) / (2.0 * v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_a_single_bit() {
        let mut a = ForecastDigest::default();
        a.push(0, 0, 1.5, 0.25);
        a.push(1, 0, -2.0, 0.5);
        a.push(0, 1, 1.75, 0.25);
        let mut b = ForecastDigest::default();
        b.push(0, 1, 1.75, 0.25);
        b.push(0, 0, 1.5, 0.25);
        b.push(1, 0, -2.0, 0.5);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(a.len(), 3);

        let mut c = ForecastDigest::default();
        c.push(0, 0, 1.5, 0.25);
        c.push(1, 0, -2.0, 0.5);
        c.push(0, 1, f64::from_bits(1.75f64.to_bits() + 1), 0.25);
        assert_ne!(a.finish(), c.finish());
        // 0.0 and -0.0 compare equal as floats but are different forecasts.
        let (mut p, mut n) = (ForecastDigest::default(), ForecastDigest::default());
        p.push(0, 0, 0.0, 1.0);
        n.push(0, 0, -0.0, 1.0);
        assert_ne!(p.finish(), n.finish());
    }

    #[test]
    fn quality_means_are_exact_and_order_free() {
        let mut q = Quality::default();
        q.push(2, 1.0, 0.0, 1.0);
        q.push(1, 0.0, 0.5, 1.0);
        q.push(3, 2.0, f64::NAN, 1.0); // dropped
        assert_eq!(q.len(), 2);
        assert_eq!(q.mae(), 0.75);
        let nlpd_unit = 0.5 * std::f64::consts::TAU.ln();
        let want = ((nlpd_unit + 0.125) + (nlpd_unit + 0.5)) / 2.0;
        assert_eq!(q.mnlpd(), want);

        let mut r = Quality::default();
        r.push(1, 0.0, 0.5, 1.0);
        r.push(2, 1.0, 0.0, 1.0);
        assert_eq!(q.mae().to_bits(), r.mae().to_bits());
        assert_eq!(q.mnlpd().to_bits(), r.mnlpd().to_bits());
    }
}
