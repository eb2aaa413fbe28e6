//! DTW envelopes under a Sakoe-Chiba band.
//!
//! The envelope of a series `C` with warping width `ρ` (paper Def. B.1) is
//! the pair of sequences `U_i = max(c_{i−ρ} … c_{i+ρ})` and
//! `L_i = min(c_{i−ρ} … c_{i+ρ})` (clamped at the boundaries). `LB_Keogh`
//! and therefore the whole SMiLer index are built on envelopes, so they are
//! computed with the O(n) van Herk–Gil–Werman block scan rather than the
//! naive O(nρ) window scan (a monotonic deque is also O(n) but its
//! data-dependent branches cost ~3× more per element on the verify hot
//! path), and support the incremental tail update the continuous query
//! needs (paper §4.3.1 Remark 1: appending one point only changes the last
//! `ρ` envelope entries).

use smiler_simd::{fmax, fmin};

/// Upper/lower DTW envelope of a series for a fixed warping width.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Envelope {
    rho: usize,
    /// `U_i = max_{|r|≤ρ} c_{i+r}` (indices clamped to the series).
    pub upper: Vec<f64>,
    /// `L_i = min_{|r|≤ρ} c_{i+r}` (indices clamped to the series).
    pub lower: Vec<f64>,
}

/// Reusable workspace for [`Envelope::compute_into`] — the padded series
/// copies and per-block suffix scans of the van Herk–Gil–Werman sweep — so
/// the continuous-query loop and the LB_Improved second pass recompute
/// envelopes without allocating.
#[derive(Debug, Clone, Default)]
pub struct EnvelopeScratch {
    pad_hi: Vec<f64>,
    pad_lo: Vec<f64>,
    sfx_hi: Vec<f64>,
    sfx_lo: Vec<f64>,
}

impl EnvelopeScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        EnvelopeScratch::default()
    }
}

impl Envelope {
    /// Compute the envelope of `values` with warping width `rho`.
    pub fn compute(values: &[f64], rho: usize) -> Self {
        let mut env = Envelope { rho, upper: Vec::new(), lower: Vec::new() };
        env.compute_into(values, rho, &mut EnvelopeScratch::new());
        env
    }

    /// Recompute this envelope in place from `values` with width `rho`,
    /// reusing both the envelope's own buffers and the caller's
    /// [`EnvelopeScratch`] — zero allocations once buffers have grown.
    ///
    /// Uses the van Herk–Gil–Werman sliding min/max: pad the series with ρ
    /// identity values on each side, split into blocks of the window width
    /// `w = 2ρ+1`, and combine each block's suffix scan with the next
    /// block's running prefix — 3 branch-free min/max per element per
    /// bound. [`fmin`]/[`fmax`] ignore NaNs exactly like the naive
    /// reference ([`envelope_naive`]), so the two stay bitwise-identical
    /// on every input.
    pub fn compute_into(&mut self, values: &[f64], rho: usize, scratch: &mut EnvelopeScratch) {
        let n = values.len();
        self.rho = rho;
        self.upper.clear();
        self.upper.resize(n, 0.0);
        self.lower.clear();
        self.lower.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let w = 2 * rho + 1;
        let np = n + 2 * rho;
        let ph = &mut scratch.pad_hi;
        ph.clear();
        ph.resize(np, f64::NEG_INFINITY);
        ph[rho..rho + n].copy_from_slice(values);
        let pl = &mut scratch.pad_lo;
        pl.clear();
        pl.resize(np, f64::INFINITY);
        pl[rho..rho + n].copy_from_slice(values);
        // Per-block suffix scans, blocks of width w starting at 0.
        let sh = &mut scratch.sfx_hi;
        sh.clear();
        sh.resize(np, 0.0);
        let sl = &mut scratch.sfx_lo;
        sl.clear();
        sl.resize(np, 0.0);
        let mut bpos = (np - 1) % w; // position within block, counting down
        sh[np - 1] = ph[np - 1];
        sl[np - 1] = pl[np - 1];
        for k in (0..np - 1).rev() {
            if bpos == 0 {
                // k is the last element of its block.
                sh[k] = ph[k];
                sl[k] = pl[k];
                bpos = w - 1;
            } else {
                sh[k] = fmax(ph[k], sh[k + 1]);
                sl[k] = fmin(pl[k], sl[k + 1]);
                bpos -= 1;
            }
        }
        // Forward pass: running block prefix; window [i, i+w-1] in padded
        // coordinates is the ±ρ window of envelope index i.
        let mut rh = f64::NEG_INFINITY;
        let mut rl = f64::INFINITY;
        let mut bpos = 0usize;
        for k in 0..np {
            if bpos == 0 {
                rh = ph[k];
                rl = pl[k];
                bpos = w - 1;
            } else {
                rh = fmax(rh, ph[k]);
                rl = fmin(rl, pl[k]);
                bpos -= 1;
            }
            if k + 1 >= w && k + 1 - w < n {
                let i = k + 1 - w;
                self.upper[i] = fmax(sh[i], rh);
                self.lower[i] = fmin(sl[i], rl);
            }
        }
    }

    /// Warping width this envelope was computed with.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// Envelope length (equal to the series length).
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Whether the envelope is empty.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }

    /// Grow the envelope after `values` gained new observations at the end.
    ///
    /// `values` must be the *full* series including the new points. Only the
    /// entries whose ±ρ window now contains a new point are recomputed —
    /// the incremental update that keeps continuous queries cheap
    /// (paper Remark 1). The affected region is tiny (≤ ρ + appended count),
    /// so a direct window scan is used — except from an empty envelope,
    /// where every entry is new and the O(n) sweep of
    /// [`Envelope::compute`] runs instead.
    ///
    /// # Panics
    /// Panics if `values` is shorter than the current envelope.
    pub fn extend_to(&mut self, values: &[f64]) {
        let old_n = self.upper.len();
        let n = values.len();
        assert!(n >= old_n, "series must not shrink");
        if n == old_n {
            return;
        }
        if old_n == 0 {
            self.compute_into(values, self.rho, &mut EnvelopeScratch::new());
            return;
        }
        self.upper.resize(n, 0.0);
        self.lower.resize(n, 0.0);
        // Entries at i >= old_n - ρ see at least one appended point.
        let from = old_n.saturating_sub(self.rho);
        for i in from..n {
            let left = i.saturating_sub(self.rho);
            let right = (i + self.rho).min(n - 1);
            let (mn, mx) = smiler_simd::min_max(&values[left..=right]);
            self.upper[i] = mx;
            self.lower[i] = mn;
        }
    }

    /// Check the defining envelope invariant `L_i ≤ c_i ≤ U_i`.
    pub fn contains_series(&self, values: &[f64]) -> bool {
        values.len() == self.len()
            && values.iter().enumerate().all(|(i, &v)| self.lower[i] <= v && v <= self.upper[i])
    }
}

/// Naive reference envelope (O(nρ)); used by tests and kept public so other
/// crates' property tests can cross-check against it.
pub fn envelope_naive(values: &[f64], rho: usize) -> Envelope {
    let n = values.len();
    let mut upper = vec![0.0; n];
    let mut lower = vec![0.0; n];
    for i in 0..n {
        let left = i.saturating_sub(rho);
        let right = (i + rho).min(n.saturating_sub(1));
        let (mn, mx) = smiler_simd::min_max(&values[left..=right]);
        upper[i] = mx;
        lower[i] = mn;
    }
    Envelope { rho, upper, lower }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_envelope() {
        let v = [1.0, 3.0, 2.0, 5.0, 4.0];
        let e = Envelope::compute(&v, 1);
        assert_eq!(e.upper, vec![3.0, 3.0, 5.0, 5.0, 5.0]);
        assert_eq!(e.lower, vec![1.0, 1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn rho_zero_is_identity() {
        let v = [2.0, -1.0, 0.5];
        let e = Envelope::compute(&v, 0);
        assert_eq!(e.upper, v.to_vec());
        assert_eq!(e.lower, v.to_vec());
    }

    #[test]
    fn rho_larger_than_series_is_global_minmax() {
        let v = [2.0, -1.0, 0.5];
        let e = Envelope::compute(&v, 10);
        assert!(e.upper.iter().all(|&u| u == 2.0));
        assert!(e.lower.iter().all(|&l| l == -1.0));
    }

    #[test]
    fn empty_series() {
        let e = Envelope::compute(&[], 4);
        assert!(e.is_empty());
        assert!(e.contains_series(&[]));
    }

    #[test]
    fn extend_matches_full_recompute() {
        let mut v: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut e = Envelope::compute(&v, 8);
        for step in 0..20 {
            v.push(((step * 13) % 7) as f64 * if step % 2 == 0 { 1.0 } else { -1.0 });
            e.extend_to(&v);
            assert_eq!(e, Envelope::compute(&v, 8), "mismatch after step {step}");
        }
    }

    #[test]
    fn extend_multiple_points_at_once() {
        let mut v: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut e = Envelope::compute(&v, 5);
        v.extend((0..7).map(|i| (i as f64 * 1.3).cos()));
        e.extend_to(&v);
        assert_eq!(e, Envelope::compute(&v, 5));
    }

    #[test]
    fn extend_from_empty_is_bitwise_compute() {
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let ties = [2.0, 2.0, -1.0, 2.0, -1.0, -1.0, 0.5, 2.0, 0.5];
        let runs = [0.0, 0.0, 0.0, -0.0, 3.0, 3.0, 3.0, 3.0, 1.0, 1.0];
        let noisy: Vec<f64> = (0..40).map(|i| ((i * 37) % 11) as f64 * 0.3 - 1.5).collect();
        for values in [&ties[..], &runs[..], &noisy[..], &[7.0][..]] {
            for rho in [0, 1, 3, values.len() - 1, values.len(), values.len() + 5] {
                let mut grown = Envelope::compute(&[], rho);
                grown.extend_to(values);
                let fresh = Envelope::compute(values, rho);
                let what = format!("n={} rho={rho}", values.len());
                assert_eq!(grown.rho(), rho, "{what}");
                assert_eq!(bits(&grown.upper), bits(&fresh.upper), "{what}: upper");
                assert_eq!(bits(&grown.lower), bits(&fresh.lower), "{what}: lower");
            }
        }
    }

    proptest! {
        #[test]
        fn deque_matches_naive(values in prop::collection::vec(-100.0f64..100.0, 0..200), rho in 0usize..20) {
            let fast = Envelope::compute(&values, rho);
            let slow = envelope_naive(&values, rho);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn compute_into_with_reused_scratch_matches_fresh(
            series in prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, 0..120),
                1..5,
            ),
            rho in 0usize..12,
        ) {
            // One envelope + scratch reused across different inputs must
            // match a fresh computation every time.
            let mut env = Envelope::compute(&[0.0; 4], 1);
            let mut scratch = EnvelopeScratch::new();
            for values in &series {
                env.compute_into(values, rho, &mut scratch);
                prop_assert_eq!(&env, &Envelope::compute(values, rho));
            }
        }

        #[test]
        fn envelope_contains_series(values in prop::collection::vec(-50.0f64..50.0, 1..100), rho in 0usize..10) {
            let e = Envelope::compute(&values, rho);
            prop_assert!(e.contains_series(&values));
        }

        #[test]
        fn envelope_widens_with_rho(values in prop::collection::vec(-50.0f64..50.0, 1..100), rho in 0usize..8) {
            let narrow = Envelope::compute(&values, rho);
            let wide = Envelope::compute(&values, rho + 1);
            for i in 0..values.len() {
                prop_assert!(wide.upper[i] >= narrow.upper[i]);
                prop_assert!(wide.lower[i] <= narrow.lower[i]);
            }
        }
    }
}
