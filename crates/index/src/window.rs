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
//!
//! Both are planned as block descriptors, run, then applied in block order,
//! so a fleet's builds (or its rotations of one step) share one launch:
//! `launch` runs every sensor's blocks as one grid.

use crate::csg;
use smiler_gpu::Device;
use smiler_timeseries::Envelope;
use std::collections::VecDeque;
use std::ops::Range;

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

/// Simulated cost of computing one posting-list entry pair: 2ω envelope
/// comparisons plus the window reads.
fn posting_entry_cost(ctx: &mut smiler_gpu::BlockCtx, omega: usize, entries: usize) {
    ctx.read_global((2 * omega * entries) as u64);
    ctx.flops((6 * omega * entries) as u64);
    ctx.write_global(2 * entries as u64);
}

/// One sensor's inputs to a posting-list launch, as they stand at the step
/// being indexed: the history, the master query (its last `D` points) and
/// both envelopes under width ρ.
#[derive(Clone, Copy)]
pub(crate) struct Inputs<'a> {
    pub(crate) series: &'a [f64],
    pub(crate) series_env: &'a Envelope,
    pub(crate) query: &'a [f64],
    pub(crate) query_env: &'a Envelope,
}

impl Inputs<'_> {
    /// `LBEQ(SW_b, DW_r)` for every `r` in `dws`: the history points of
    /// each disjoint window against the master query's envelope over
    /// `SW_b`.
    fn lbeq_row(&self, b: usize, omega: usize, dws: Range<usize>) -> Vec<f64> {
        let sw = csg::sliding_window_start(self.query.len(), b, omega);
        let upper = &self.query_env.upper[sw..sw + omega];
        let lower = &self.query_env.lower[sw..sw + omega];
        dws.map(|r| smiler_dtw::lb_keogh(&self.series[r * omega..(r + 1) * omega], upper, lower))
            .collect()
    }

    /// `LBEC(SW_b, DW_r)` for every `r` in `dws`: the query points of
    /// `SW_b` against the history envelope over each disjoint window.
    fn lbec_row(&self, b: usize, omega: usize, dws: Range<usize>) -> Vec<f64> {
        let sw = csg::sliding_window_start(self.query.len(), b, omega);
        let (query, env) = (&self.query[sw..sw + omega], self.series_env);
        dws.map(|r| {
            let dw = r * omega..(r + 1) * omega;
            smiler_dtw::lb_keogh(query, &env.upper[dw.clone()], &env.lower[dw])
        })
        .collect()
    }

    /// Both rows of sliding window `SW_b` over the disjoint windows `dws`.
    fn entries(&self, b: usize, omega: usize, dws: Range<usize>) -> PostingList {
        PostingList {
            lbeq: self.lbeq_row(b, omega, dws.clone()),
            lbec: self.lbec_row(b, omega, dws),
        }
    }
}

/// One block of a posting-list launch, tagged with what it computes.
/// Descriptors are a fixed function of the index geometry — never of
/// worker count — so the work→block assignment, the per-block arithmetic
/// and the block-order merge are the same on every host.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Posting list `b` from scratch: every list of a build, SW_0 of a
    /// rotation.
    Build(usize),
    /// Append the new disjoint-window columns to list `b`.
    Grow(usize),
    /// Recompute the whole `LBEQ` row of list `b`.
    RefreshEq(usize),
    /// Refresh tail `LBEC` columns of list `b`.
    RefreshEc(usize),
}

/// What one [`Job`] block returns: posting-list entries (both rows) for
/// [`Job::Build`] and [`Job::Grow`], one row for the refreshes.
pub(crate) enum Out {
    List(PostingList),
    Row(Vec<f64>),
}

/// The blocks that bring one index to a history of `len` points: a build
/// (one block per sliding window) or one Remark 1 rotation.
#[derive(Debug)]
pub(crate) struct Plan {
    jobs: Vec<Job>,
    rebuild: bool,
    omega: usize,
    d_master: usize,
    len: usize,
    old_dw: usize,
    new_dw: usize,
    /// First disjoint window whose `LBEC` the series-envelope drift touches.
    tail_from: usize,
}

impl Plan {
    /// History length the index covers once the plan is applied.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Run one block of the plan against its sensor's inputs.
    fn run(&self, ctx: &mut smiler_gpu::BlockCtx, job: Job, inputs: &Inputs) -> Out {
        let Plan { omega, old_dw, new_dw, tail_from, .. } = *self;
        match job {
            Job::Build(b) => {
                posting_entry_cost(ctx, omega, new_dw);
                Out::List(inputs.entries(b, omega, 0..new_dw))
            }
            Job::Grow(b) => {
                posting_entry_cost(ctx, omega, new_dw - old_dw);
                Out::List(inputs.entries(b, omega, old_dw..new_dw))
            }
            Job::RefreshEq(b) => {
                ctx.read_global((omega * new_dw) as u64);
                ctx.flops((3 * omega * new_dw) as u64);
                ctx.write_global(new_dw as u64);
                Out::Row(inputs.lbeq_row(b, omega, 0..new_dw))
            }
            Job::RefreshEc(b) => {
                posting_entry_cost(ctx, omega, new_dw - tail_from);
                Out::Row(inputs.lbec_row(b, omega, tail_from..new_dw))
            }
        }
    }
}

/// Run every sensor's plan in ONE launch: the grid is each plan's blocks
/// in sensor order, and each block reads only its own sensor's inputs, so
/// the fused launch returns bitwise what one launch per sensor would.
/// Returns each sensor's block results, in its plan's job order.
pub(crate) fn launch(device: &Device, fleet: &[(&Plan, Inputs)]) -> Vec<Vec<Out>> {
    for (plan, inputs) in fleet {
        assert_eq!(inputs.series.len(), plan.len, "inputs stand at the planned step");
        assert_eq!(inputs.series_env.len(), plan.len, "series envelope mismatch");
        assert_eq!(inputs.query.len(), plan.d_master, "master query length must stay fixed");
        assert_eq!(inputs.query_env.len(), plan.d_master, "query envelope mismatch");
    }
    let blocks: Vec<(usize, Job)> = fleet
        .iter()
        .enumerate()
        .flat_map(|(s, (plan, _))| plan.jobs.iter().map(move |&job| (s, job)))
        .collect();
    let report = device.launch(blocks.len(), |ctx| {
        let (s, job) = blocks[ctx.block_id()];
        let (plan, inputs) = &fleet[s];
        plan.run(ctx, job, inputs)
    });
    let mut results = report.results.into_iter();
    fleet.iter().map(|(plan, _)| results.by_ref().take(plan.jobs.len()).collect()).collect()
}

impl WindowIndex {
    /// An index over no history yet: the geometry and no posting lists.
    /// The first plan applied to it must be a build.
    pub(crate) fn empty(omega: usize, rho: usize, d_master: usize) -> Self {
        WindowIndex { omega, rho, d_master, dw_count: 0, lists: VecDeque::new() }
    }

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
        let mut index = WindowIndex::empty(omega, rho, query.len());
        let plan = index.plan(series.len(), true);
        let inputs = Inputs { series, series_env, query, query_env };
        let outs = launch(device, &[(&plan, inputs)]).pop().unwrap_or_default();
        index.apply(&plan, outs);
        index
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
    /// posting entries per (sliding window × disjoint window). Derived from
    /// the geometry, so an index not built yet reports its full footprint.
    pub fn device_bytes(&self, series_len: usize) -> usize {
        let sw_count = csg::sliding_window_count(self.d_master, self.omega);
        let dw_count = csg::disjoint_window_count(series_len, self.omega);
        sw_count * dw_count * 2 * std::mem::size_of::<f64>()
    }

    /// Plan the blocks that bring the index to a history of `len` points:
    /// with `rebuild`, one [`Job::Build`] per sliding window; otherwise one
    /// continuous-prediction step (Remark 1, Fig. 6) from `len − 1`.
    ///
    /// The rotation: the previous step's SW_b becomes this step's
    /// SW_{b+1} — its window covers the same absolute observations, so its
    /// posting list stays valid — and the oldest list is evicted, its
    /// memory recycled for the fresh SW_0 ([`WindowIndex::apply`] does this
    /// host-side bookkeeping). The four refresh phases — fresh SW_0, history
    /// growth, query-envelope refresh, series-envelope drift — touch
    /// disjoint inputs (series/query and their envelopes, never the posting
    /// lists), so they fuse into one launch of phase-tagged blocks.
    pub(crate) fn plan(&self, len: usize, rebuild: bool) -> Plan {
        let (omega, rho) = (self.omega, self.rho);
        let sw_count = csg::sliding_window_count(self.d_master, omega);
        let old_dw = self.dw_count;
        let new_dw = csg::disjoint_window_count(len, omega);
        let tail_from = len.saturating_sub(1 + rho) / omega;
        let jobs = if rebuild {
            (0..sw_count).map(Job::Build).collect()
        } else {
            assert_eq!(self.lists.len(), sw_count, "a rotation needs a built index");
            let mut jobs = vec![Job::Build(0)];
            // History growth: when a new disjoint window completed, append
            // its column (both bounds) to every pre-existing list.
            if new_dw > old_dw {
                jobs.extend((1..sw_count).map(Job::Grow));
            }
            // Query-envelope refresh (Remark 1: "re-calculate LBEQ for
            // these affected sliding windows"). Appending the newest point
            // changes the query envelope at the last ρ query positions —
            // lists b ≤ ρ. Dropping the *oldest* point moves the clamped
            // left boundary, changing the envelope of the first ρ positions
            // too — lists b ≥ sw_count − ρ — a case the paper glosses over
            // but a from-scratch rebuild exposes. Only LBEQ depends on the
            // query envelope; LBEC rows stay valid.
            jobs.extend(
                (1..sw_count).filter(|&b| b <= rho || b + rho >= sw_count).map(Job::RefreshEq),
            );
            // Series-envelope drift: the appended observation changes the
            // series envelope at the last ρ positions, which invalidates the
            // LBEC entries of the disjoint windows containing them. Refresh
            // those columns for every pre-existing list.
            if tail_from < new_dw {
                jobs.extend((1..sw_count).map(Job::RefreshEc));
            }
            jobs
        };
        Plan { jobs, rebuild, omega, d_master: self.d_master, len, old_dw, new_dw, tail_from }
    }

    /// Apply a plan's block results, in block order. Descriptors were built
    /// in phase order, so this replays exactly the phase-by-phase
    /// application: the fresh list lands before any growth, growth extends
    /// rows before the EC patch indexes them, and the EQ refresh rows
    /// already cover the grown columns because they were computed with
    /// the new window count.
    pub(crate) fn apply(&mut self, plan: &Plan, outs: Vec<Out>) {
        if plan.rebuild {
            self.lists.clear();
        } else if let Some(recycled) = self.lists.pop_back() {
            self.lists.push_front(recycled);
        }
        let (tail_from, new_dw) = (plan.tail_from, plan.new_dw);
        for (job, out) in plan.jobs.iter().zip(outs) {
            match (job, out) {
                (_, Out::List(list)) if plan.rebuild => self.lists.push_back(list),
                (&Job::Build(b), Out::List(fresh)) => {
                    let recycled = &mut self.lists[b];
                    recycled.lbeq.clear();
                    recycled.lbec.clear();
                    recycled.lbeq.extend_from_slice(&fresh.lbeq);
                    recycled.lbec.extend_from_slice(&fresh.lbec);
                }
                (&Job::Grow(b), Out::List(cols)) => {
                    self.lists[b].lbeq.extend_from_slice(&cols.lbeq);
                    self.lists[b].lbec.extend_from_slice(&cols.lbec);
                }
                (&Job::RefreshEq(b), Out::Row(row)) => {
                    self.lists[b].lbeq = row;
                }
                (&Job::RefreshEc(b), Out::Row(vals)) => {
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

    /// One continuous-prediction step in its own launch: the plan of one
    /// rotation, run and applied.
    fn rotate(
        idx: &mut WindowIndex,
        device: &Device,
        series: &[f64],
        series_env: &Envelope,
        query: &[f64],
        query_env: &Envelope,
    ) {
        let plan = idx.plan(series.len(), false);
        let inputs = Inputs { series, series_env, query, query_env };
        let outs = launch(device, &[(&plan, inputs)]).pop().expect("one sensor");
        idx.apply(&plan, outs);
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
            rotate(&mut idx, &device, &series, &series_env, &query, &query_env);

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
        rotate(&mut idx, &dev_adv, &series, &series_env, &query, &query_env);
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
