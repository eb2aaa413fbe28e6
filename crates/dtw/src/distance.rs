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

/// Reusable warping buffer for the compressed-matrix DTW variants: two
/// flat columns in diagonal-offset coordinates (see [`dtw_compressed_with`]).
///
/// One scratch per verification lane: the `_with` functions reset and grow
/// it as needed, so a caller that loops over candidates of the same band
/// width performs **zero heap allocations** after the first call — the
/// workspace contract of the hot verification path.
#[derive(Debug, Clone, Default)]
pub struct DtwScratch {
    col_a: Vec<f64>,
    col_b: Vec<f64>,
}

impl DtwScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        DtwScratch::default()
    }

    /// A scratch pre-sized for warping width `rho` (no allocation on use).
    pub fn with_rho(rho: usize) -> Self {
        DtwScratch {
            col_a: vec![f64::INFINITY; 2 * rho + 3],
            col_b: vec![f64::INFINITY; 2 * rho + 3],
        }
    }

    /// Reset (and grow if needed) both columns to `cap` infinity cells.
    fn columns(&mut self, cap: usize) -> (&mut Vec<f64>, &mut Vec<f64>) {
        self.col_a.clear();
        self.col_a.resize(cap, f64::INFINITY);
        self.col_b.clear();
        self.col_b.resize(cap, f64::INFINITY);
        (&mut self.col_a, &mut self.col_b)
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
/// Algorithm 2): two rolling columns of `2ρ+3` cells, sized to live in GPU
/// shared memory. Cells are addressed by their diagonal offset `i − j`
/// (shifted to stay positive) rather than the paper's
/// `(i mod (2ρ+2), j mod 2)` modulus scheme — the same compressed
/// footprint, but predecessors sit at fixed strides so the inner loop
/// carries no ring arithmetic or bounds checks.
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_compressed(q: &[f64], c: &[f64], rho: usize) -> f64 {
    dtw_compressed_with(q, c, rho, &mut DtwScratch::new())
}

/// [`dtw_compressed`] writing into a caller-owned [`DtwScratch`] —
/// allocation-free after the scratch has grown to the band width.
///
/// # Panics
/// Panics if the sequences differ in length or are empty.
pub fn dtw_compressed_with(q: &[f64], c: &[f64], rho: usize, scratch: &mut DtwScratch) -> f64 {
    smiler_obs::count("dtw.evals", "compressed", 1);
    let d = check_inputs(q, c);
    let inf = f64::INFINITY;
    // Two flat columns in diagonal-offset coordinates: cell (i, j) lives at
    // offset `o = i − base_j` with `base_j = j − ρ − 1`, so o ∈ [1, 2ρ+1]
    // for every in-band row and the predecessors become fixed strides —
    // diagonal (i−1, j−1) at `prev[o]`, left (i, j−1) at `prev[o+1]`,
    // vertical (i−1, j) in a register. Offsets 0 and 2ρ+2 are permanent
    // infinity sentinels, so out-of-band reads need no per-column
    // invalidation and the inner loop is three zipped slices the compiler
    // proves in-bounds (no ring arithmetic, no bounds checks).
    let (mut prev, mut cur) = scratch.columns(2 * rho + 3);
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

/// Early-abandoning banded DTW for the CPU scan baseline: computes columns
/// left to right and abandons as soon as the minimum of the current column
/// exceeds `threshold`, returning `None` (the candidate cannot be a kNN).
/// Also reports how many warping-matrix cells were actually evaluated — the
/// work measure the CPU-scan baseline feeds its cost model (abandoning
/// early is exactly what makes FastCPUScan faster than a full scan).
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
/// band width.
///
/// Beyond the per-column abandon, this prunes *within* columns
/// (Silva & Batista's PrunedDTW adapted to the band): cumulative cost is
/// non-decreasing along any path, so a cell all of whose predecessors
/// exceed `threshold` must exceed it too and can be skipped. Skipping is
/// value-preserving, not approximate — any cell whose true cumulative cost
/// is ≤ `threshold` has its minimal predecessor ≤ `threshold` as well, so
/// that predecessor is always among the kept cells and the computed values
/// (and the returned distance) are bitwise-identical to the unpruned
/// recurrence. Only the evaluated-cell count changes.
pub fn dtw_early_abandon_counted_with(
    q: &[f64],
    c: &[f64],
    rho: usize,
    threshold: f64,
    scratch: &mut DtwScratch,
) -> (Option<f64>, u64) {
    let d = check_inputs(q, c);
    let mut cells: u64 = 0;
    let inf = f64::INFINITY;
    // Same diagonal-offset column layout as [`dtw_compressed_with`]: cell
    // (i, j) at offset `i − (j − ρ − 1)`, predecessors at fixed strides.
    // Each column starts as all-infinity, so rows skipped below `plo` or
    // cut off by the break simply stay infinite — no explicit invalidation.
    let (mut prev, mut cur) = scratch.columns(2 * rho + 3);
    prev[rho + 1] = 0.0;
    // Rows of the previous column that can still seed a ≤ threshold path:
    // `plo` is the first, `phi` the last (column 0 is the single cell
    // gamma(0,0) = 0).
    let mut plo: usize = 0;
    let mut phi: usize = 0;

    for j in 1..=d {
        let base = j as isize - rho as isize - 1;
        let blo = j.saturating_sub(rho).max(1);
        let bhi = (j + rho).min(d);
        // Rows below `plo` have every predecessor over the threshold: skip.
        let lo = blo.max(plo);
        let o_lo = (lo as isize - base) as usize;
        let o_hi = (bhi as isize - base) as usize;
        let cj = c[j - 1];
        cur.fill(inf);
        let mut tlo = usize::MAX;
        let mut thi = 0usize;
        let mut evaluated = 0u64;
        let mut above = inf; // gamma(i−1, j): the border for i = lo
        for ((k, (cv, (&diag, &left))), &qi) in cur[o_lo..=o_hi]
            .iter_mut()
            .zip(prev[o_lo..=o_hi].iter().zip(&prev[o_lo + 1..=o_hi + 1]))
            .enumerate()
            .zip(&q[lo - 1..bhi])
        {
            let i = lo + k;
            // Above `phi + 1` the left and diagonal predecessors are over
            // the threshold (or outside the band); once the vertical chain
            // exceeds it too, every remaining cell in the column must.
            if i > phi + 1 && above > threshold {
                break;
            }
            // Diagonal/left first: both come from the previous column, so
            // only the `above` min and the final add sit on the serial
            // dependency chain of the recurrence.
            let v = cell(qi, cj) + diag.min(left).min(above);
            *cv = v;
            above = v;
            if v <= threshold {
                if tlo == usize::MAX {
                    tlo = i;
                }
                thi = i;
            }
            evaluated += 1;
        }
        cells += evaluated;
        // No cell of this column can reach the threshold: abandon.
        if tlo == usize::MAX {
            return (None, cells);
        }
        plo = tlo;
        phi = thi;
        std::mem::swap(&mut prev, &mut cur);
    }
    let result = prev[rho + 1];
    ((result <= threshold).then_some(result), cells)
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
