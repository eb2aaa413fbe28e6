//! Banded DTW distance: reference, compressed-buffer and early-abandoning
//! implementations.

/// Per-cell cost: squared difference, as in the UCR suite.
#[inline]
fn cell(a: f64, b: f64) -> f64 {
    let d = a - b;
    d * d
}

fn check_inputs(q: &[f64], c: &[f64]) -> usize {
    assert_eq!(q.len(), c.len(), "banded DTW requires equal-length sequences");
    assert!(!q.is_empty(), "banded DTW of empty sequences is undefined");
    q.len()
}

/// Reusable buffers for the banded-DTW recurrence (see [`dtw_compressed_with`]):
/// the compressed warping matrix — `2ρ+3` cells split by the parity of
/// their diagonal offset — and the candidate reversed.
///
/// One scratch per verification lane: the `_with` functions reset and grow
/// it as needed, so a caller that loops over candidates of the same length
/// and band width performs **zero heap allocations** after the first call —
/// the workspace contract of the hot verification path.
#[derive(Debug, Clone, Default)]
pub struct DtwScratch {
    /// Cells at even diagonal offsets `w = 0, 2, …, 2ρ+2` (`ρ+2` cells).
    even: Vec<f64>,
    /// Cells at odd diagonal offsets `w = 1, 3, …, 2ρ+1` (`ρ+1` cells).
    odd: Vec<f64>,
    /// The candidate back to front, so one anti-diagonal reads it forwards.
    reversed: Vec<f64>,
}

impl DtwScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        DtwScratch::default()
    }

    /// A scratch pre-sized for warping width `rho` (the reversed candidate
    /// still grows on first use).
    pub fn with_rho(rho: usize) -> Self {
        DtwScratch {
            even: vec![f64::INFINITY; rho + 2],
            odd: vec![f64::INFINITY; rho + 1],
            reversed: Vec::new(),
        }
    }
}

/// Reference banded DTW: the full `(d+1)×(d+1)` warping matrix with the
/// Sakoe-Chiba constraint `|i−j| ≤ ρ` (paper Eqns 21–24).
///
/// Kept as the oracle the compressed and early-abandoning variants are
/// property-tested against; production paths use [`dtw_compressed`].
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_banded(q: &[f64], c: &[f64], rho: usize) -> f64 {
    smiler_obs::count("dtw.evals", "banded", 1);
    let d = check_inputs(q, c);
    let inf = f64::INFINITY;
    // gamma[i][j] with 1-based sequence indices; gamma[0][0] = 0 border.
    let mut gamma = vec![vec![inf; d + 1]; d + 1];
    gamma[0][0] = 0.0;
    for i in 1..=d {
        let lo = i.saturating_sub(rho).max(1);
        let hi = (i + rho).min(d);
        for j in lo..=hi {
            let best = gamma[i - 1][j].min(gamma[i][j - 1]).min(gamma[i - 1][j - 1]);
            gamma[i][j] = cell(q[i - 1], c[j - 1]) + best;
        }
    }
    gamma[d][d]
}

/// Banded DTW with the paper's compressed warping matrix (Appendix E,
/// Algorithm 2): `2ρ+3` cells, sized to live in GPU shared memory, swept
/// one anti-diagonal at a time (see [`dtw_compressed_with`]).
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_compressed(q: &[f64], c: &[f64], rho: usize) -> f64 {
    dtw_compressed_with(q, c, rho, &mut DtwScratch::new())
}

/// [`dtw_compressed`] writing into a caller-owned [`DtwScratch`] —
/// allocation-free after the scratch has grown to the sequence length.
///
/// The cells of one anti-diagonal `s = i + j` depend only on the two
/// anti-diagonals before it, so the sweep has no loop-carried dependency
/// inside an anti-diagonal (a column sweep waits on the cell above at every
/// row). Each cell is still `cell(q_i, c_j) + min(diag, left, above)` over
/// the same predecessor values, so every cell — and the distance — is
/// bitwise the column recurrence's.
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_compressed_with(q: &[f64], c: &[f64], rho: usize, scratch: &mut DtwScratch) -> f64 {
    smiler_obs::count("dtw.evals", "compressed", 1);
    wavefront(q, c, rho, f64::INFINITY, scratch).0
}

/// Early-abandoning banded DTW: the exact distance when it is at most
/// `threshold`, else `None` (the candidate cannot be a kNN). Also reports
/// how many warping-matrix cells were evaluated — the work measure the
/// verification cost models are fed (abandoning early is exactly what
/// makes FastCPUScan faster than a full scan).
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_early_abandon_counted(
    q: &[f64],
    c: &[f64],
    rho: usize,
    threshold: f64,
) -> (Option<f64>, u64) {
    dtw_early_abandon_counted_with(q, c, rho, threshold, &mut DtwScratch::new())
}

/// [`dtw_early_abandon_counted_with`] without the cell count.
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_early_abandon_with(
    q: &[f64],
    c: &[f64],
    rho: usize,
    threshold: f64,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    dtw_early_abandon_counted_with(q, c, rho, threshold, scratch).0
}

/// [`dtw_early_abandon_counted`] writing into a caller-owned
/// [`DtwScratch`] — allocation-free after the scratch has grown to the
/// sequence length.
///
/// The sweep abandons once two consecutive anti-diagonals hold no cell at
/// or below `threshold`: a warping path steps from one anti-diagonal to the
/// next or the one after, so it crosses one of the two, and cumulative cost
/// never decreases along it. Abandoning only cuts the sweep short; the
/// distance it returns is the full recurrence's, bit for bit, and it is
/// returned exactly when it is `≤ threshold`. A threshold of `+∞` never
/// abandons (a `+∞` distance is within it).
pub fn dtw_early_abandon_counted_with(
    q: &[f64],
    c: &[f64],
    rho: usize,
    threshold: f64,
    scratch: &mut DtwScratch,
) -> (Option<f64>, u64) {
    let (dist, cells) = wavefront(q, c, rho, threshold, scratch);
    ((dist <= threshold).then_some(dist), cells)
}

/// The banded-DTW recurrence, one anti-diagonal at a time. Returns the
/// distance and the cells evaluated; unless `tau` is `+∞`, it stops as
/// soon as two consecutive anti-diagonals hold no cell `≤ tau` and reports
/// `+∞` (the distance is provably not `≤ tau`).
///
/// Cell `(i, j)` lives at diagonal offset `w = i − j + ρ + 1`, in `1..=2ρ+1`
/// for every in-band cell; offsets `0` and `2ρ+2` are permanent `+∞`
/// sentinels. On anti-diagonal `s` every cell has the parity of `s + ρ + 1`,
/// so splitting the offsets by parity puts one anti-diagonal in one
/// contiguous run of its parity's buffer: the diagonal predecessor
/// `(i−1, j−1)` (anti-diagonal `s − 2`) is the cell's own slot, overwritten
/// in place, and `above` `(i−1, j)` and `left` `(i, j−1)` (anti-diagonal
/// `s − 1`) are the two neighbouring slots of the other buffer. Along the
/// run `i` rises and `j` falls, so the query is read forwards and the
/// candidate from its reversed copy. Each run is clipped to the matrix, so
/// a slot no in-matrix cell has reached still holds its initial `+∞` — the
/// `i = 0` / `j = 0` borders — and `γ(0, 0) = 0` seeds the first run.
fn wavefront(q: &[f64], c: &[f64], rho: usize, tau: f64, scratch: &mut DtwScratch) -> (f64, u64) {
    let d = check_inputs(q, c);
    let inf = f64::INFINITY;
    let DtwScratch { even, odd, reversed } = scratch;
    even.clear();
    even.resize(rho + 2, inf);
    odd.clear();
    odd.resize(rho + 1, inf);
    reversed.clear();
    reversed.extend(c.iter().rev());
    // γ(0, 0) and γ(d, d) sit at offset ρ+1: slot ⌈ρ/2⌉ of the even
    // buffer when ρ is odd, of the odd buffer when ρ is even.
    let corner = rho.div_ceil(2);
    if rho % 2 == 1 {
        even[corner] = 0.0;
    } else {
        odd[corner] = 0.0;
    }
    let armed = tau != inf;
    let mut cells = 0u64;
    // Anti-diagonal 1 holds no matrix cell, so none at or below τ.
    let mut prev_live = false;
    for s in 2..=2 * d {
        // Rows of anti-diagonal s inside the matrix and the band |2i − s| ≤ ρ.
        let i_lo = s.saturating_sub(d).max(1).max(s.saturating_sub(rho).div_ceil(2));
        let i_hi = (s - 1).min(d).min((s + rho) / 2);
        let mut live = false;
        if i_lo <= i_hi {
            let n = i_hi - i_lo + 1;
            let p = (s + rho + 1) % 2;
            // Slot k of parity p holds offset w = 2k + p = 2i + ρ + 1 − s.
            let k_lo = (2 * i_lo + rho + 1 - s - p) / 2;
            let (run, other) =
                if p == 0 { (&mut even[..], &odd[..]) } else { (&mut odd[..], &even[..]) };
            // Offset w − 1 (above) is slot k − 1 + p of the other parity,
            // offset w + 1 (left) slot k + p.
            let above = &other[k_lo + p - 1..k_lo + p - 1 + n];
            let left = &other[k_lo + p..k_lo + p + n];
            let qs = &q[i_lo - 1..i_hi];
            // c_j with j = s − i is reversed[d − j].
            let cs = &reversed[d + i_lo - s..d + i_hi + 1 - s];
            for ((((g, &up), &lf), &qi), &cj) in
                run[k_lo..k_lo + n].iter_mut().zip(above).zip(left).zip(qs).zip(cs)
            {
                let v = cell(qi, cj) + g.min(lf).min(up);
                *g = v;
                live |= v <= tau;
            }
            cells += n as u64;
        }
        if armed && !live && !prev_live {
            return (inf, cells);
        }
        prev_live = live;
    }
    let last = if rho % 2 == 1 { even[corner] } else { odd[corner] };
    (last, cells)
}

/// Analytic operation count of one banded DTW evaluation, used by the GPU /
/// CPU cost models: cells in the band × (1 cell cost + 3-way min + add).
pub fn dtw_ops_estimate(d: usize, rho: usize) -> u64 {
    let band_width = (2 * rho + 1).min(d) as u64;
    d as u64 * band_width * 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's original compressed DTW with per-cell `rem_euclid`
    /// modulus addressing, kept verbatim as a bitwise oracle: the
    /// diagonal-offset column layout must not change a single bit of any
    /// warping cell.
    fn dtw_compressed_modulus_oracle(q: &[f64], c: &[f64], rho: usize) -> f64 {
        let d = q.len();
        let m = 2 * rho + 2;
        let inf = f64::INFINITY;
        let mut buf = vec![[inf; 2]; m];
        buf[0][0] = 0.0;
        let idx = |i: isize| -> usize { i.rem_euclid(m as isize) as usize };
        for j in 1..=d {
            let parity = j % 2;
            let prev = 1 - parity;
            buf[idx(j as isize - rho as isize - 1)][parity] = inf;
            buf[idx(j as isize + rho as isize)][prev] = inf;
            if j <= rho + 1 {
                buf[0][parity] = inf;
            }
            let lo = j.saturating_sub(rho).max(1);
            let hi = (j + rho).min(d);
            for i in lo..=hi {
                let s = idx(i as isize);
                let s1 = idx(i as isize - 1);
                let best = buf[s1][parity].min(buf[s][prev]).min(buf[s1][prev]);
                buf[s][parity] = cell(q[i - 1], c[j - 1]) + best;
            }
        }
        buf[idx(d as isize)][d % 2]
    }

    /// The column-sweep compressed DTW the wavefront replaced, kept verbatim
    /// (its two columns allocated here instead of borrowed from a scratch)
    /// as a bitwise oracle.
    fn dtw_compressed_column_oracle(q: &[f64], c: &[f64], rho: usize) -> f64 {
        let d = check_inputs(q, c);
        let inf = f64::INFINITY;
        let (mut prev, mut cur) = (vec![inf; 2 * rho + 3], vec![inf; 2 * rho + 3]);
        // Border column j = 0: gamma(0,0) = 0 at row 0's offset, rest infinity.
        prev[rho + 1] = 0.0;
        for j in 1..=d {
            let base = j as isize - rho as isize - 1;
            let lo = j.saturating_sub(rho).max(1);
            let hi = (j + rho).min(d);
            let o_lo = (lo as isize - base) as usize;
            let o_hi = (hi as isize - base) as usize;
            let cj = c[j - 1];
            cur.fill(inf);
            let mut above = inf; // gamma(i−1, j): the border for i = lo
            for ((cv, (&diag, &left)), &qi) in cur[o_lo..=o_hi]
                .iter_mut()
                .zip(prev[o_lo..=o_hi].iter().zip(&prev[o_lo + 1..=o_hi + 1]))
                .zip(&q[lo - 1..hi])
            {
                let v = cell(qi, cj) + diag.min(left).min(above);
                *cv = v;
                above = v;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        // Row d in column d sits at offset d − base_d = ρ + 1.
        prev[rho + 1]
    }

    /// The column-sweep early-abandoning DTW (PrunedDTW within columns) the
    /// wavefront replaced, kept verbatim as a bitwise oracle.
    fn dtw_early_abandon_column_oracle(
        q: &[f64],
        c: &[f64],
        rho: usize,
        threshold: f64,
    ) -> Option<f64> {
        let d = check_inputs(q, c);
        let inf = f64::INFINITY;
        let (mut prev, mut cur) = (vec![inf; 2 * rho + 3], vec![inf; 2 * rho + 3]);
        prev[rho + 1] = 0.0;
        let mut plo: usize = 0;
        let mut phi: usize = 0;
        for j in 1..=d {
            let base = j as isize - rho as isize - 1;
            let blo = j.saturating_sub(rho).max(1);
            let bhi = (j + rho).min(d);
            let lo = blo.max(plo);
            let o_lo = (lo as isize - base) as usize;
            let o_hi = (bhi as isize - base) as usize;
            let cj = c[j - 1];
            cur.fill(inf);
            let mut tlo = usize::MAX;
            let mut thi = 0usize;
            let mut above = inf;
            for ((k, (cv, (&diag, &left))), &qi) in cur[o_lo..=o_hi]
                .iter_mut()
                .zip(prev[o_lo..=o_hi].iter().zip(&prev[o_lo + 1..=o_hi + 1]))
                .enumerate()
                .zip(&q[lo - 1..bhi])
            {
                let i = lo + k;
                if i > phi + 1 && above > threshold {
                    break;
                }
                let v = cell(qi, cj) + diag.min(left).min(above);
                *cv = v;
                above = v;
                if v <= threshold {
                    if tlo == usize::MAX {
                        tlo = i;
                    }
                    thi = i;
                }
            }
            if tlo == usize::MAX {
                return None;
            }
            plo = tlo;
            phi = thi;
            std::mem::swap(&mut prev, &mut cur);
        }
        let result = prev[rho + 1];
        (result <= threshold).then_some(result)
    }

    /// Bits of a distance, every NaN folded onto one pattern (the payload
    /// of a NaN is not part of any contract).
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Finite values salted with NaN, ±∞ and −0.
    fn salted() -> impl Strategy<Value = f64> {
        (-10.0f64..10.0, 0u8..16).prop_map(|(v, pick)| match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => v,
        })
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let q = [0.5, 1.0, -2.0, 3.0];
        assert_eq!(dtw_banded(&q, &q, 2), 0.0);
        assert_eq!(dtw_compressed(&q, &q, 2), 0.0);
    }

    #[test]
    fn rho_zero_is_euclidean() {
        let q = [1.0, 2.0, 3.0];
        let c = [2.0, 2.0, 5.0];
        let expect = 1.0 + 0.0 + 4.0;
        assert_eq!(dtw_banded(&q, &c, 0), expect);
        assert_eq!(dtw_compressed(&q, &c, 0), expect);
    }

    #[test]
    fn warping_helps_shifted_series() {
        // A one-step shifted copy should match almost perfectly with ρ ≥ 1.
        let q: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5).sin()).collect();
        let c: Vec<f64> = (0..20).map(|i| ((i + 1) as f64 * 0.5).sin()).collect();
        let rigid = dtw_banded(&q, &c, 0);
        let warped = dtw_banded(&q, &c, 2);
        assert!(warped < rigid * 0.5, "warped {warped} rigid {rigid}");
    }

    #[test]
    fn known_small_example() {
        // Hand-checked 3-point example, ρ = 1:
        // q = [0, 1, 2], c = [0, 2, 2].
        // Optimal path: (1,1)=0, then (2,2)=1, then (3,2)->(3,3) or diag:
        // gamma(2,2)=1, gamma(3,3)=min(g(2,3),g(3,2),g(2,2)) + 0 = 1.
        let q = [0.0, 1.0, 2.0];
        let c = [0.0, 2.0, 2.0];
        assert_eq!(dtw_banded(&q, &c, 1), 1.0);
        assert_eq!(dtw_compressed(&q, &c, 1), 1.0);
    }

    #[test]
    fn wider_band_never_increases_distance() {
        let q: Vec<f64> = (0..30).map(|i| ((i * 7) % 13) as f64).collect();
        let c: Vec<f64> = (0..30).map(|i| ((i * 5) % 11) as f64).collect();
        let mut prev = f64::INFINITY;
        for rho in 0..8 {
            let d = dtw_banded(&q, &c, rho);
            assert!(d <= prev + 1e-12, "rho {rho}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn early_abandon_none_when_over_threshold() {
        let q = [0.0; 16];
        let c = [10.0; 16];
        assert_eq!(dtw_early_abandon_counted(&q, &c, 4, 1.0).0, None);
    }

    #[test]
    fn early_abandon_exact_when_under_threshold() {
        let q: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).cos()).collect();
        let c: Vec<f64> = (0..16).map(|i| (i as f64 * 0.31).cos()).collect();
        let exact = dtw_banded(&q, &c, 4);
        assert_eq!(dtw_early_abandon_counted(&q, &c, 4, exact + 1.0).0, Some(exact));
        // Threshold exactly at the distance is inclusive.
        assert_eq!(dtw_early_abandon_counted(&q, &c, 4, exact).0, Some(exact));
    }

    #[test]
    fn ops_estimate_scales_with_band() {
        assert!(dtw_ops_estimate(64, 8) > dtw_ops_estimate(64, 2));
        assert!(dtw_ops_estimate(128, 8) > dtw_ops_estimate(64, 8));
        // Band clipped to sequence length.
        assert_eq!(dtw_ops_estimate(4, 100), 4 * 4 * 6);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn unequal_lengths_panic() {
        dtw_banded(&[1.0], &[1.0, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sequences_panic() {
        dtw_banded(&[], &[], 1);
    }

    proptest! {
        #[test]
        fn compressed_matches_reference(
            (q, c) in (2usize..40).prop_flat_map(|n| (
                prop::collection::vec(-10.0f64..10.0, n),
                prop::collection::vec(-10.0f64..10.0, n),
            )),
            rho in 0usize..10,
        ) {
            let full = dtw_banded(&q, &c, rho);
            let compressed = dtw_compressed(&q, &c, rho);
            prop_assert!((full - compressed).abs() < 1e-9,
                "full {} vs compressed {}", full, compressed);
        }

        #[test]
        fn restructured_addressing_is_bitwise_identical(
            (q, c) in (2usize..48).prop_flat_map(|n| (
                prop::collection::vec(-10.0f64..10.0, n),
                prop::collection::vec(-10.0f64..10.0, n),
            )),
            rho in 0usize..10,
        ) {
            let oracle = dtw_compressed_modulus_oracle(&q, &c, rho);
            let fast = dtw_compressed(&q, &c, rho);
            prop_assert_eq!(oracle.to_bits(), fast.to_bits(),
                "oracle {} vs restructured {}", oracle, fast);
            // The early-abandoning variant shares the recurrence: with an
            // infinite threshold it must produce the same bits too.
            let (ea, _) = dtw_early_abandon_counted(&q, &c, rho, f64::INFINITY);
            prop_assert_eq!(ea.map(f64::to_bits), Some(oracle.to_bits()));
        }

        #[test]
        fn wavefront_is_bitwise_the_column_sweep(
            (q, c) in (1usize..49, 0u8..2).prop_flat_map(|(n, salt)| (
                prop::collection::vec(salted(), n),
                prop::collection::vec(salted(), n),
                Just(salt == 1),
            )).prop_map(|(q, c, salt): (Vec<f64>, Vec<f64>, bool)| {
                // Half the cases keep only finite values.
                let keep = |v: f64| if salt || v.is_finite() { v } else { 0.5 };
                let q: Vec<f64> = q.into_iter().map(keep).collect();
                let c: Vec<f64> = c.into_iter().map(keep).collect();
                (q, c)
            }),
            // Narrow bands, the paper's, and bands at least the length.
            (band, narrow, wide) in (0u8..3, 0usize..12, 48usize..60),
            (tau_pick, tau_value) in (0u8..4, 0.0f64..400.0),
        ) {
            let rho = match band { 0 => narrow % 4, 1 => narrow, _ => wide };
            let random_tau = match tau_pick { 2 => f64::NAN, 3 => -1.0, _ => tau_value };
            let oracle = dtw_compressed_column_oracle(&q, &c, rho);
            let fast = dtw_compressed(&q, &c, rho);
            prop_assert_eq!(bits(fast), bits(oracle), "compressed: oracle {} vs wavefront {}", oracle, fast);
            let mut scratch = DtwScratch::new();
            for tau in [f64::INFINITY, oracle, random_tau] {
                let (got, _) = dtw_early_abandon_counted_with(&q, &c, rho, tau, &mut scratch);
                let expect = dtw_early_abandon_column_oracle(&q, &c, rho, tau);
                if tau == f64::INFINITY && !oracle.is_finite() {
                    // A non-finite distance against τ = +∞: the column sweep
                    // abandoned on a column of NaN cells (its pruning decided
                    // which), the wavefront answers by the contract.
                    prop_assert_eq!(got.map(bits), (oracle <= tau).then_some(oracle).map(bits));
                } else {
                    prop_assert_eq!(got.map(bits), expect.map(bits), "tau {}", tau);
                }
            }
        }

        #[test]
        fn early_abandon_agrees_with_reference(
            (q, c) in (2usize..32).prop_flat_map(|n| (
                prop::collection::vec(-5.0f64..5.0, n),
                prop::collection::vec(-5.0f64..5.0, n),
            )),
            rho in 0usize..6,
            threshold in 0.0f64..500.0,
        ) {
            let full = dtw_banded(&q, &c, rho);
            match dtw_early_abandon_counted(&q, &c, rho, threshold).0 {
                Some(d) => {
                    prop_assert!((d - full).abs() < 1e-9);
                    prop_assert!(full <= threshold + 1e-9);
                }
                None => prop_assert!(full > threshold - 1e-9),
            }
        }

        #[test]
        fn reused_scratch_matches_fresh(
            pairs in prop::collection::vec(
                (2usize..40).prop_flat_map(|n| (
                    prop::collection::vec(-10.0f64..10.0, n),
                    prop::collection::vec(-10.0f64..10.0, n),
                    0usize..10,
                )),
                1..6,
            ),
            threshold in 0.0f64..500.0,
        ) {
            // One scratch reused across calls of varying length/band must
            // behave exactly like a fresh allocation per call.
            let mut scratch = DtwScratch::new();
            for (q, c, rho) in &pairs {
                let fresh = dtw_compressed(q, c, *rho);
                let reused = dtw_compressed_with(q, c, *rho, &mut scratch);
                prop_assert!((fresh - reused).abs() < 1e-12,
                    "fresh {} vs reused {}", fresh, reused);
                let (fresh_ea, fresh_cells) =
                    dtw_early_abandon_counted(q, c, *rho, threshold);
                let (reused_ea, reused_cells) =
                    dtw_early_abandon_counted_with(q, c, *rho, threshold, &mut scratch);
                prop_assert_eq!(fresh_ea, reused_ea);
                prop_assert_eq!(fresh_cells, reused_cells);
            }
        }

        #[test]
        fn symmetry(
            (q, c) in (2usize..24).prop_flat_map(|n| (
                prop::collection::vec(-5.0f64..5.0, n),
                prop::collection::vec(-5.0f64..5.0, n),
            )),
            rho in 0usize..6,
        ) {
            // Squared-cost DTW with a symmetric band is symmetric.
            prop_assert!((dtw_banded(&q, &c, rho) - dtw_banded(&c, &q, rho)).abs() < 1e-9);
        }
    }
}
