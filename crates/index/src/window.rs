//! Window-level index: posting lists of `LBEQ`/`LBEC` between every sliding
//! window of the master query and every disjoint window of the history.
//!
//! Construction launches one GPU block per sliding window (paper §4.3.1).
//! During continuous prediction the index is *rotated*, not rebuilt
//! (Remark 1, Fig. 6): the new step's master query shares all but one
//! window with the previous one, so the oldest posting list is dropped, a
//! fresh list is computed for the newest window, and `LBEQ` is refreshed
//! for the `ρ` lists whose query envelope gained the new point. Appending
//! history is also incremental: a new disjoint window extends every posting
//! list by one entry, and `LBEC` entries near the series tail are refreshed
//! when the series envelope shifts.

use crate::csg;
use smiler_gpu::Device;
use smiler_timeseries::Envelope;
use std::collections::VecDeque;

/// Posting list of one sliding window: lower-bound contributions against
/// every disjoint window of the history.
#[derive(Debug, Clone, PartialEq)]
pub struct PostingList {
    /// `LBEQ(SW, DW_r)` — distance of the history points in `DW_r` to the
    /// master query's envelope over the window.
    pub lbeq: Vec<f64>,
    /// `LBEC(SW, DW_r)` — distance of the query points in `SW` to the
    /// history envelope over `DW_r`.
    pub lbec: Vec<f64>,
}

/// The window-level index of one sensor.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    omega: usize,
    rho: usize,
    /// Length `D` of the master query.
    d_master: usize,
    /// Number of complete disjoint windows currently indexed.
    dw_count: usize,
    /// Posting lists; `lists[b]` belongs to sliding window `SW_b`
    /// (front = `SW_0`, the newest). A `VecDeque` realises the ring-buffer
    /// rotation of Fig. 6.
    lists: VecDeque<PostingList>,
}

/// One sliding window's contribution computed against all disjoint windows.
fn build_posting_list(
    series: &[f64],
    series_env: &Envelope,
    query: &[f64],
    query_env: &Envelope,
    b: usize,
    omega: usize,
    dw_count: usize,
) -> PostingList {
    let d_master = query.len();
    let sw_start = csg::sliding_window_start(d_master, b, omega);
    let mut lbeq = Vec::with_capacity(dw_count);
    let mut lbec = Vec::with_capacity(dw_count);
    for r in 0..dw_count {
        let dw_start = r * omega;
        lbeq.push(smiler_dtw::lb_keogh(
            &series[dw_start..dw_start + omega],
            &query_env.upper[sw_start..sw_start + omega],
            &query_env.lower[sw_start..sw_start + omega],
        ));
        lbec.push(smiler_dtw::lb_keogh(
            &query[sw_start..sw_start + omega],
            &series_env.upper[dw_start..dw_start + omega],
            &series_env.lower[dw_start..dw_start + omega],
        ));
    }
    PostingList { lbeq, lbec }
}

/// Simulated cost of computing one posting-list entry pair: 2ω envelope
/// comparisons plus the window reads.
fn posting_entry_cost(ctx: &mut smiler_gpu::BlockCtx, omega: usize, entries: usize) {
    ctx.read_global((2 * omega * entries) as u64);
    ctx.flops((6 * omega * entries) as u64);
    ctx.write_global(2 * entries as u64);
}

impl WindowIndex {
    /// Build the index from scratch: one block per sliding window.
    ///
    /// `series` is the full normalised history; `query` the current master
    /// query (its last `D` points); both envelopes use warping width `ρ`.
    ///
    /// # Panics
    /// Panics if the query is shorter than one window or envelopes are
    /// inconsistent with their series.
    pub fn build(
        device: &Device,
        series: &[f64],
        series_env: &Envelope,
        query: &[f64],
        query_env: &Envelope,
        omega: usize,
        rho: usize,
    ) -> Self {
        assert_eq!(series.len(), series_env.len(), "series envelope mismatch");
        assert_eq!(query.len(), query_env.len(), "query envelope mismatch");
        let d_master = query.len();
        let sw_count = csg::sliding_window_count(d_master, omega);
        let dw_count = csg::disjoint_window_count(series.len(), omega);

        let report = device.launch(sw_count, |ctx| {
            let b = ctx.block_id();
            posting_entry_cost(ctx, omega, dw_count);
            build_posting_list(series, series_env, query, query_env, b, omega, dw_count)
        });
        WindowIndex { omega, rho, d_master, dw_count, lists: report.results.into() }
    }

    /// Window length ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Master-query length `D`.
    pub fn d_master(&self) -> usize {
        self.d_master
    }

    /// Number of complete disjoint windows indexed.
    pub fn dw_count(&self) -> usize {
        self.dw_count
    }

    /// Number of sliding windows (posting lists).
    pub fn sw_count(&self) -> usize {
        self.lists.len()
    }

    /// The posting list of sliding window `SW_b`.
    pub fn posting(&self, b: usize) -> &PostingList {
        &self.lists[b]
    }

    /// Device memory the index occupies once it covers a history of
    /// `series_len` points (for the Fig 12c capacity model): two f64
    /// posting entries per (sliding window × disjoint window).
    pub fn device_bytes(&self, series_len: usize) -> usize {
        let dw_count = csg::disjoint_window_count(series_len, self.omega);
        self.lists.len() * dw_count * 2 * std::mem::size_of::<f64>()
    }

    /// Advance one continuous-prediction step (Remark 1, Fig. 6).
    ///
    /// `series`/`series_env` must already include the newly observed point
    /// and `query`/`query_env` must be the new master query (shifted by
    /// one). The rotation: drop the oldest posting list, compute the new
    /// `SW_0`, refresh `LBEQ` of the ρ envelope-affected lists, and — when
    /// a new disjoint window completed — append its column and refresh
    /// `LBEC` near the series tail.
    pub fn advance(
        &mut self,
        device: &Device,
        series: &[f64],
        series_env: &Envelope,
        query: &[f64],
        query_env: &Envelope,
    ) {
        assert_eq!(query.len(), self.d_master, "master query length must stay fixed");
        assert_eq!(series.len(), series_env.len(), "series envelope mismatch");
        let omega = self.omega;
        let rho = self.rho;
        let old_dw = self.dw_count;
        let new_dw = csg::disjoint_window_count(series.len(), omega);

        // 1. Rotate (Fig. 6): the previous step's SW_b becomes this step's
        //    SW_{b+1} — its window covers the same absolute observations, so
        //    its posting list stays valid. The oldest list is evicted and
        //    its memory recycled for the fresh SW_0. The rotation itself is
        //    host-side bookkeeping; all recomputation fans out below.
        let recycled = self.lists.pop_back().expect("index has at least one list");
        self.lists.push_front(recycled);
        let sw_count = self.lists.len();

        // The four refresh phases — fresh SW_0 (2), history growth (3),
        // query-envelope refresh (4), series-envelope drift (5) — touch
        // disjoint inputs (series/query and their envelopes, never the
        // posting lists), so they fuse into ONE multi-block launch: each
        // block is a phase-tagged descriptor, and one device pass (one
        // host-thread spin-up instead of up to four) covers the whole
        // advance. Descriptors are a fixed function of the index geometry
        // — never of worker count — so the work→block assignment, the
        // per-block arithmetic, and the block-order merge are the same on
        // every host.
        enum Job {
            /// Fresh SW_0 posting list.
            Fresh,
            /// Append the new disjoint-window columns to list `b`.
            Grow(usize),
            /// Recompute the whole `LBEQ` row of list `b`.
            RefreshEq(usize),
            /// Refresh tail `LBEC` columns of list `b`.
            RefreshEc(usize),
        }
        enum Out {
            Fresh(PostingList),
            Grow(Vec<(f64, f64)>),
            RefreshEq(Vec<f64>),
            RefreshEc(Vec<f64>),
        }

        let mut jobs: Vec<Job> = vec![Job::Fresh];
        // 2. History growth: when a new disjoint window completed, append
        //    its column (both bounds) to every pre-existing list.
        if new_dw > old_dw {
            jobs.extend((1..sw_count).map(Job::Grow));
        }
        // 3. Query-envelope refresh (Remark 1: "re-calculate LBEQ for these
        //    affected sliding windows"). Appending the newest point changes
        //    the query envelope at the last ρ query positions — lists
        //    b ≤ ρ. Dropping the *oldest* point moves the clamped left
        //    boundary, changing the envelope of the first ρ positions too —
        //    lists b ≥ sw_count − ρ — a case the paper glosses over but a
        //    from-scratch rebuild exposes. Only LBEQ depends on the query
        //    envelope; LBEC rows stay valid.
        jobs.extend((1..sw_count).filter(|&b| b <= rho || b + rho >= sw_count).map(Job::RefreshEq));
        // 4. Series-envelope drift: the appended observation changes the
        //    series envelope at the last ρ positions, which invalidates the
        //    LBEC entries of the disjoint windows containing them. Refresh
        //    those columns for every pre-existing list.
        let tail_from = series.len().saturating_sub(1 + rho) / omega;
        if tail_from < new_dw {
            jobs.extend((1..sw_count).map(Job::RefreshEc));
        }

        let d_master = self.d_master;
        let report = device.launch(jobs.len(), |ctx| match jobs[ctx.block_id()] {
            Job::Fresh => {
                posting_entry_cost(ctx, omega, new_dw);
                Out::Fresh(build_posting_list(
                    series, series_env, query, query_env, 0, omega, new_dw,
                ))
            }
            Job::Grow(b) => {
                posting_entry_cost(ctx, omega, new_dw - old_dw);
                let sw_start = csg::sliding_window_start(d_master, b, omega);
                Out::Grow(
                    (old_dw..new_dw)
                        .map(|r| {
                            let dw_start = r * omega;
                            let eq = smiler_dtw::lb_keogh(
                                &series[dw_start..dw_start + omega],
                                &query_env.upper[sw_start..sw_start + omega],
                                &query_env.lower[sw_start..sw_start + omega],
                            );
                            let ec = smiler_dtw::lb_keogh(
                                &query[sw_start..sw_start + omega],
                                &series_env.upper[dw_start..dw_start + omega],
                                &series_env.lower[dw_start..dw_start + omega],
                            );
                            (eq, ec)
                        })
                        .collect(),
                )
            }
            Job::RefreshEq(b) => {
                ctx.read_global((omega * new_dw) as u64);
                ctx.flops((3 * omega * new_dw) as u64);
                ctx.write_global(new_dw as u64);
                let sw_start = csg::sliding_window_start(d_master, b, omega);
                Out::RefreshEq(
                    (0..new_dw)
                        .map(|r| {
                            let dw_start = r * omega;
                            smiler_dtw::lb_keogh(
                                &series[dw_start..dw_start + omega],
                                &query_env.upper[sw_start..sw_start + omega],
                                &query_env.lower[sw_start..sw_start + omega],
                            )
                        })
                        .collect(),
                )
            }
            Job::RefreshEc(b) => {
                posting_entry_cost(ctx, omega, new_dw - tail_from);
                let sw_start = csg::sliding_window_start(d_master, b, omega);
                Out::RefreshEc(
                    (tail_from..new_dw)
                        .map(|r| {
                            let dw_start = r * omega;
                            smiler_dtw::lb_keogh(
                                &query[sw_start..sw_start + omega],
                                &series_env.upper[dw_start..dw_start + omega],
                                &series_env.lower[dw_start..dw_start + omega],
                            )
                        })
                        .collect(),
                )
            }
        });

        // Merge in block order — descriptors were built in phase order, so
        // this replays exactly the former phase-by-phase application (the
        // fresh list lands before any growth, growth extends rows before
        // the EC patch indexes them, and the EQ refresh rows already cover
        // the grown columns because they were computed with `new_dw`).
        for (job, out) in jobs.iter().zip(report.results) {
            match (job, out) {
                (Job::Fresh, Out::Fresh(fresh)) => {
                    let sw0 = &mut self.lists[0];
                    sw0.lbeq.clear();
                    sw0.lbec.clear();
                    sw0.lbeq.extend_from_slice(&fresh.lbeq);
                    sw0.lbec.extend_from_slice(&fresh.lbec);
                }
                (&Job::Grow(b), Out::Grow(cols)) => {
                    for (eq, ec) in cols {
                        self.lists[b].lbeq.push(eq);
                        self.lists[b].lbec.push(ec);
                    }
                }
                (&Job::RefreshEq(b), Out::RefreshEq(row)) => {
                    self.lists[b].lbeq = row;
                }
                (&Job::RefreshEc(b), Out::RefreshEc(vals)) => {
                    for (r, v) in (tail_from..new_dw).zip(vals) {
                        self.lists[b].lbec[r] = v;
                    }
                }
                _ => unreachable!("block result phase matches its descriptor"),
            }
        }

        self.dw_count = new_dw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smiler_gpu::Device;

    const OMEGA: usize = 4;
    const RHO: usize = 2;
    const D: usize = 12;

    fn make_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 100.0 - 5.0
            })
            .collect()
    }

    fn build_index(series: &[f64], device: &Device) -> (WindowIndex, Envelope, Envelope) {
        let series_env = Envelope::compute(series, RHO);
        let query = series[series.len() - D..].to_vec();
        let query_env = Envelope::compute(&query, RHO);
        let idx = WindowIndex::build(device, series, &series_env, &query, &query_env, OMEGA, RHO);
        (idx, series_env, query_env)
    }

    #[test]
    fn build_shapes() {
        let device = Device::default_gpu();
        let series = make_series(40, 1);
        let (idx, _, _) = build_index(&series, &device);
        assert_eq!(idx.sw_count(), D - OMEGA + 1);
        assert_eq!(idx.dw_count(), 10);
        assert_eq!(idx.posting(0).lbeq.len(), 10);
        assert_eq!(idx.device_bytes(series.len()), (D - OMEGA + 1) * 10 * 2 * 8);
    }

    #[test]
    fn posting_entries_match_direct_lb_keogh() {
        let device = Device::default_gpu();
        let series = make_series(32, 2);
        let (idx, series_env, query_env) = build_index(&series, &device);
        let query = &series[series.len() - D..];
        // Check SW_1 vs DW_2 by hand.
        let b = 1;
        let r = 2;
        let sw_start = csg::sliding_window_start(D, b, OMEGA);
        let dw_start = r * OMEGA;
        let expect_eq = smiler_dtw::lb_keogh(
            &series[dw_start..dw_start + OMEGA],
            &query_env.upper[sw_start..sw_start + OMEGA],
            &query_env.lower[sw_start..sw_start + OMEGA],
        );
        let expect_ec = smiler_dtw::lb_keogh(
            &query[sw_start..sw_start + OMEGA],
            &series_env.upper[dw_start..dw_start + OMEGA],
            &series_env.lower[dw_start..dw_start + OMEGA],
        );
        assert_eq!(idx.posting(b).lbeq[r], expect_eq);
        assert_eq!(idx.posting(b).lbec[r], expect_ec);
    }

    #[test]
    fn advance_equals_rebuild() {
        let device = Device::default_gpu();
        let mut series = make_series(40, 3);
        let (mut idx, _, _) = build_index(&series, &device);

        // Drive 9 continuous steps — crossing a disjoint-window boundary —
        // and compare against a from-scratch rebuild each time, bit for bit:
        // the lazy index's catch-up switches between the two.
        let future = make_series(9, 99);
        for (step, &v) in future.iter().enumerate() {
            series.push(v);
            let series_env = Envelope::compute(&series, RHO);
            let query = series[series.len() - D..].to_vec();
            let query_env = Envelope::compute(&query, RHO);
            idx.advance(&device, &series, &series_env, &query, &query_env);

            let rebuilt =
                WindowIndex::build(&device, &series, &series_env, &query, &query_env, OMEGA, RHO);
            assert_eq!(idx.dw_count(), rebuilt.dw_count(), "step {step}");
            for b in 0..idx.sw_count() {
                for r in 0..idx.dw_count() {
                    let (a, e) = (idx.posting(b).lbeq[r], rebuilt.posting(b).lbeq[r]);
                    assert_eq!(a.to_bits(), e.to_bits(), "step {step} LBEQ b={b} r={r}");
                    let (a, e) = (idx.posting(b).lbec[r], rebuilt.posting(b).lbec[r]);
                    assert_eq!(a.to_bits(), e.to_bits(), "step {step} LBEC b={b} r={r}");
                }
            }
        }
    }

    #[test]
    fn advance_is_cheaper_than_rebuild() {
        // Paper-scale proportions: with D ≫ ω the rotation touches only
        // 1 + 2ρ of the D − ω + 1 posting lists.
        const BIG_D: usize = 96;
        const BIG_OMEGA: usize = 16;
        const BIG_RHO: usize = 8;
        let dev_adv = Device::default_gpu().with_host_threads(1);
        let dev_build = Device::default_gpu().with_host_threads(1);
        let mut series = make_series(4000, 5);
        let series_env = Envelope::compute(&series, BIG_RHO);
        let query = series[series.len() - BIG_D..].to_vec();
        let query_env = Envelope::compute(&query, BIG_RHO);
        let mut idx = WindowIndex::build(
            &dev_adv,
            &series,
            &series_env,
            &query,
            &query_env,
            BIG_OMEGA,
            BIG_RHO,
        );
        dev_adv.reset_clock();

        series.push(0.5);
        let series_env = Envelope::compute(&series, BIG_RHO);
        let query = series[series.len() - BIG_D..].to_vec();
        let query_env = Envelope::compute(&query, BIG_RHO);
        idx.advance(&dev_adv, &series, &series_env, &query, &query_env);
        let adv_cost = dev_adv.elapsed_seconds();

        WindowIndex::build(
            &dev_build,
            &series,
            &series_env,
            &query,
            &query_env,
            BIG_OMEGA,
            BIG_RHO,
        );
        let build_cost = dev_build.elapsed_seconds();
        assert!(
            adv_cost < build_cost,
            "advance ({adv_cost}) should be cheaper than rebuild ({build_cost})"
        );
    }
}
