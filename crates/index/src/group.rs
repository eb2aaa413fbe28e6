//! Group-level index: shift-summing window posting lists into per-candidate
//! lower bounds for every item query (paper §4.3.2, Algorithm 1).
//!
//! One GPU block processes one CSG class `b ∈ [0, ω)`. For each rightmost
//! disjoint window `DW_r` the block walks the group's sliding windows
//! `SW_b, SW_{b+ω}, …` right-to-left, keeping running sums of `LBEQ` and
//! `LBEC` contributions. After `m` terms the sums are exactly the windowed
//! bounds of the item query whose CSG has `m` windows (Theorem 4.3), for
//! the candidate segment ending at `e = (r+1)ω + b` — so *one pass* yields
//! the bounds of **every** item query against **every** candidate
//! (Remark 2: the suffix-sharing reuse). A block returns its sums as one
//! dense row per item query; the host lays each sensor's rows out per
//! candidate start.

use crate::csg;
use crate::search::BoundMode;
use crate::window::WindowIndex;
use smiler_gpu::Device;

/// Windowed lower bounds for all item queries: `eq[i][t]` / `ec[i][t]` hold
/// the summed `LBEQ` / `LBEC` contributions between item query `i` and the
/// candidate starting at `t`. Candidates without a full alignment keep 0.0
/// (a vacuous but valid lower bound).
#[derive(Debug, Clone)]
pub struct GroupBounds {
    /// Item-query lengths this structure was computed for (ascending).
    pub lengths: Vec<usize>,
    /// Summed `LBEQ` per item query per candidate start.
    pub eq: Vec<Vec<f64>>,
    /// Summed `LBEC` per item query per candidate start.
    pub ec: Vec<Vec<f64>>,
}

impl GroupBounds {
    /// `LBw = max(ΣLBEQ, ΣLBEC)` (Theorem 4.3) for item query `i`,
    /// candidate start `t`.
    pub fn lbw(&self, i: usize, t: usize) -> f64 {
        self.eq[i][t].max(self.ec[i][t])
    }

    /// The per-candidate filter bounds of every item query under the chosen
    /// [`BoundMode`] (Table 3 ablation): `Eq`/`Ec` alone or the enhanced
    /// `max` of both, folded in place so resolving the mode allocates
    /// nothing.
    pub fn into_filter_bounds(self, mode: BoundMode) -> Vec<Vec<f64>> {
        match mode {
            BoundMode::Eq => self.eq,
            BoundMode::Ec => self.ec,
            BoundMode::En => {
                let mut eq = self.eq;
                for (row, ec) in eq.iter_mut().zip(&self.ec) {
                    for (a, &b) in row.iter_mut().zip(ec) {
                        *a = a.max(b);
                    }
                }
                eq
            }
        }
    }

    /// Number of candidates of item query `i`.
    pub fn candidates(&self, i: usize) -> usize {
        self.eq[i].len()
    }
}

/// Compute group-level bounds for item queries of the given `lengths`
/// (ascending suffix lengths of the master query) over candidates whose end
/// `t + d` does not exceed `max_end`: the same launch as the search
/// pipeline's [`fleet_filter_bounds`] over one sensor, with both sums kept.
///
/// # Panics
/// Panics if `lengths` is empty, unsorted, or exceeds the master query.
pub fn compute_group_bounds(
    device: &Device,
    windex: &WindowIndex,
    lengths: &[usize],
    max_end: usize,
) -> GroupBounds {
    assert!(!lengths.is_empty(), "at least one item query");
    assert!(lengths.windows(2).all(|w| w[0] < w[1]), "lengths must be strictly ascending");
    let d_master = windex.d_master();
    assert!(*lengths.last().expect("non-empty") <= d_master, "item query longer than master query");
    let classes = launch_classes(device, &[(windex, lengths, max_end)]).swap_remove(0);
    let omega = windex.omega();
    GroupBounds {
        lengths: lengths.to_vec(),
        eq: assemble(lengths, max_end, omega, &classes, |eq, _| eq),
        ec: assemble(lengths, max_end, omega, &classes, |_, ec| ec),
    }
}

/// The filter bounds of every item query of every `(window index, lengths,
/// max_end)` sensor under its [`BoundMode`] (`modes[s]`): what
/// [`GroupBounds::into_filter_bounds`] returns for [`compute_group_bounds`],
/// from ONE launch over the whole fleet. Each sensor's class rows are then
/// laid out as one item of a [`Device::host_map`] over the sensors, so no
/// pass over the fleet's candidates runs on the calling thread.
pub(crate) fn fleet_filter_bounds(
    device: &Device,
    sensors: &[(&WindowIndex, &[usize], usize)],
    modes: &[BoundMode],
) -> Vec<Vec<Vec<f64>>> {
    let classes = launch_classes(device, sensors);
    let items: Vec<_> = sensors.iter().zip(modes).zip(classes).collect();
    device.host_map(items, |((&(windex, lengths, max_end), &mode), classes)| {
        assemble(lengths, max_end, windex.omega(), &classes, |eq, ec| match mode {
            BoundMode::Eq => eq,
            BoundMode::Ec => ec,
            BoundMode::En => eq.max(ec),
        })
    })
}

/// One CSG class's sums against one item query. The candidates a class
/// aligns start `ω` apart, so `eq[j]` / `ec[j]` belong to the candidate
/// starting at `first + j·ω`.
#[derive(Debug, Default)]
struct ClassRow {
    first: usize,
    eq: Vec<f64>,
    ec: Vec<f64>,
}

/// The Algorithm-1 launch: one block per (sensor, CSG class), each
/// returning one [`ClassRow`] per item query. Returns them per sensor, per
/// class. The bijection of Theorem 4.2 guarantees a sensor's classes
/// cover disjoint candidates.
fn launch_classes(
    device: &Device,
    sensors: &[(&WindowIndex, &[usize], usize)],
) -> Vec<Vec<Vec<ClassRow>>> {
    let class_count = |windex: &WindowIndex| windex.omega().min(windex.sw_count());
    let blocks: Vec<(usize, usize)> = sensors
        .iter()
        .enumerate()
        .flat_map(|(s, (windex, _, _))| (0..class_count(windex)).map(move |b| (s, b)))
        .collect();
    let report = device.launch(blocks.len(), |ctx| {
        let (s, b) = blocks[ctx.block_id()];
        let (windex, lengths, max_end) = sensors[s];
        class_pass(ctx, windex, lengths, max_end, b)
    });
    let mut rows = report.results.into_iter();
    sensors.iter().map(|(windex, _, _)| rows.by_ref().take(class_count(windex)).collect()).collect()
}

/// One sensor's class rows laid out as dense per-item rows of
/// `value(ΣLBEQ, ΣLBEC)` over every candidate start `t ≤ max_end − d`. A
/// candidate no class aligns keeps 0.0 (a vacuous but valid bound).
fn assemble(
    lengths: &[usize],
    max_end: usize,
    omega: usize,
    classes: &[Vec<ClassRow>],
    value: impl Fn(f64, f64) -> f64,
) -> Vec<Vec<f64>> {
    lengths
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut row = vec![0.0; (max_end + 1).saturating_sub(d)];
            for ClassRow { first, eq, ec } in classes.iter().map(|class| &class[i]) {
                let slots = row[*first..].iter_mut().step_by(omega);
                for ((slot, &eq), &ec) in slots.zip(eq).zip(ec) {
                    *slot = value(eq, ec);
                }
            }
            row
        })
        .collect()
}

/// The Algorithm-1 pass of ONE CSG class `b`: walk every rightmost disjoint
/// window, shift-sum the class's posting lists, and append `ΣLBEQ` and
/// `ΣLBEC` to an item query's row whenever a sum completes its CSG.
fn class_pass(
    ctx: &mut smiler_gpu::BlockCtx,
    windex: &WindowIndex,
    lengths: &[usize],
    max_end: usize,
    b: usize,
) -> Vec<ClassRow> {
    let omega = windex.omega();
    let dw_count = windex.dw_count();
    let sw_count = windex.sw_count();
    // Map CSG size m → item queries completed at that size.
    let ms: Vec<usize> = lengths.iter().map(|&d| csg::csg_len(d, b, omega)).collect();
    let m_max = ms.iter().copied().max().unwrap_or(0);
    if m_max == 0 {
        return lengths.iter().map(|_| ClassRow::default()).collect();
    }
    // A row holds at most one sum per disjoint window.
    let mut rows: Vec<ClassRow> = lengths
        .iter()
        .map(|_| ClassRow {
            first: 0,
            eq: Vec::with_capacity(dw_count),
            ec: Vec::with_capacity(dw_count),
        })
        .collect();
    // The pass touches ~dw_count·m_max posting terms, so the inner loop is
    // kept to pure slice arithmetic: the class's posting lists are resolved
    // once up front (no ring-buffer indexing per term), and the "which item
    // completes at CSG size m" scan becomes an m-indexed table (empty for
    // almost every m, and two item queries may share a CSG size).
    let lists: Vec<(&[f64], &[f64])> = (0..m_max)
        .map(|j| b + j * omega)
        .take_while(|&sw| sw < sw_count)
        .map(|sw| {
            let list = windex.posting(sw);
            (list.lbeq.as_slice(), list.lbec.as_slice())
        })
        .collect();
    let mut completes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m_max + 1];
    for (i, (&mi, &d)) in ms.iter().zip(lengths).enumerate() {
        completes[mi].push((i, d));
    }
    // Cost accounting is hoisted out of the inner loop into running totals
    // (one BlockCtx call per pass instead of two per posting-list term) —
    // the aggregate BlockCost is identical, the hot loop stays arithmetic.
    // An item's candidate end `e` grows by ω per disjoint window, so its
    // row fills densely from the first window that completes it in range.
    let mut terms: u64 = 0;
    for r in 0..dw_count {
        let e = csg::alignment_end(b, r, omega);
        let mut sum_eq = 0.0;
        let mut sum_ec = 0.0;
        let steps = lists.len().min(r + 1);
        for (j, &(lbeq, lbec)) in lists[..steps].iter().enumerate() {
            sum_eq += lbeq[r - j];
            sum_ec += lbec[r - j];
            for &(i, d) in &completes[j + 1] {
                if e <= max_end {
                    if let Some(t) = e.checked_sub(d) {
                        let row = &mut rows[i];
                        if row.eq.is_empty() {
                            row.first = t;
                        }
                        row.eq.push(sum_eq);
                        row.ec.push(sum_ec);
                    }
                }
            }
        }
        terms += steps as u64;
    }
    let written: usize = rows.iter().map(|row| row.eq.len()).sum();
    ctx.read_global(2 * terms);
    ctx.flops(2 * terms);
    ctx.write_global(2 * written as u64);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowIndex;
    use smiler_gpu::Device;
    use smiler_timeseries::Envelope;

    const OMEGA: usize = 4;
    const RHO: usize = 2;
    const D: usize = 13; // deliberately not a multiple of ω

    fn make_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 997) as f64 / 100.0 - 5.0
            })
            .collect()
    }

    fn setup(n: usize, seed: u64) -> (Vec<f64>, WindowIndex, Device) {
        let device = Device::default_gpu();
        let series = make_series(n, seed);
        let series_env = Envelope::compute(&series, RHO);
        let query = series[series.len() - D..].to_vec();
        let query_env = Envelope::compute(&query, RHO);
        let windex =
            WindowIndex::build(&device, &series, &series_env, &query, &query_env, OMEGA, RHO);
        (series, windex, device)
    }

    #[test]
    fn bounds_never_exceed_dtw() {
        let (series, windex, device) = setup(60, 1);
        let lengths = [8usize, 11, 13];
        let max_end = series.len() - 2;
        let gb = compute_group_bounds(&device, &windex, &lengths, max_end);
        for (i, &d) in lengths.iter().enumerate() {
            let query = &series[series.len() - d..];
            for t in 0..gb.candidates(i) {
                let cand = &series[t..t + d];
                let dtw = smiler_dtw::dtw_banded(query, cand, RHO);
                let lbw = gb.lbw(i, t);
                assert!(
                    lbw <= dtw + 1e-9,
                    "LBw {lbw} > DTW {dtw} for item {i} (d={d}) candidate t={t}"
                );
            }
        }
    }

    #[test]
    fn sums_match_manual_window_sums() {
        let (series, windex, device) = setup(48, 2);
        let lengths = [9usize, 13];
        let gb = compute_group_bounds(&device, &windex, &lengths, series.len());
        // Pick a candidate with a known alignment and recompute the sums by
        // hand from the posting lists.
        for (i, &d) in lengths.iter().enumerate() {
            for t in 0..gb.candidates(i) {
                if let Some(a) = csg::alignment_of(t, d, OMEGA) {
                    if a.r >= windex.dw_count() {
                        continue;
                    }
                    let mut eq = 0.0;
                    let mut ec = 0.0;
                    for j in 0..a.m {
                        let list = windex.posting(a.b + j * OMEGA);
                        eq += list.lbeq[a.r - j];
                        ec += list.lbec[a.r - j];
                    }
                    assert!((gb.eq[i][t] - eq).abs() < 1e-12, "eq mismatch i={i} t={t}");
                    assert!((gb.ec[i][t] - ec).abs() < 1e-12, "ec mismatch i={i} t={t}");
                }
            }
        }
    }

    #[test]
    fn max_end_excludes_late_candidates() {
        let (series, windex, device) = setup(40, 3);
        let lengths = [9usize];
        let max_end = series.len() - 6;
        let gb = compute_group_bounds(&device, &windex, &lengths, max_end);
        assert_eq!(gb.candidates(0), max_end - 9 + 1);
    }

    #[test]
    fn every_coverable_candidate_gets_a_bound() {
        // With d ≥ 2ω−1 every candidate inside the DW region must receive a
        // positive-information bound (non-zero with overwhelming likelihood
        // on random data, but we check alignment-coverage, not value).
        let (series, windex, device) = setup(64, 4);
        let d = 2 * OMEGA - 1 + 2; // 9
        let gb = compute_group_bounds(&device, &windex, &[d], series.len());
        let dw_span = windex.dw_count() * OMEGA;
        for t in 0..gb.candidates(0) {
            let e = t + d;
            if e >= OMEGA && e < dw_span + OMEGA {
                let a = csg::alignment_of(t, d, OMEGA);
                if let Some(a) = a {
                    if a.r < windex.dw_count() {
                        // The scatter must have written this entry: a zero
                        // bound here would mean a missed alignment. Random
                        // data makes an exactly-zero true bound implausible,
                        // but to stay deterministic check alignment arithmetic
                        // instead: start computed from the alignment maps
                        // back to t.
                        assert_eq!(csg::candidate_start(d, a.b, a.r, OMEGA), Some(t));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_lengths() {
        let (_, windex, device) = setup(40, 5);
        compute_group_bounds(&device, &windex, &[13, 9], 40);
    }
}
