//! The SMiLer index: suffix kNN search with filtering, verification and
//! selection (paper §4.3.3), plus continuous maintenance.
//!
//! A [`SmilerIndex`] owns one sensor's normalised history, its envelope and
//! the window-level index. [`SmilerIndex::search`] answers the Suffix kNN
//! Search for every item-query length at once, carrying the previous answer
//! forward as the next filter threshold (the continuous-reuse threshold of
//! §4.3.3). The index is lazy: [`SmilerIndex::new`] builds nothing,
//! [`SmilerIndex::append`] only grows the history, and the next search
//! first catches the envelope and the window level up — one Remark 1
//! rotation per missing step, or one build once the lag reaches
//! `REBUILD_LAG` or when nothing was built yet.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::window::{self, Inputs, Plan, WindowIndex};
use smiler_gpu::Device;
use smiler_timeseries::{Envelope, EnvelopeScratch};
use std::sync::Arc;

/// Errors raised by the suffix kNN search instead of panicking — the
/// request path must degrade, not crash, when malformed data reaches it
/// (one sensor's NaN must never take a fleet down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The item query (the history suffix itself) contains a non-finite
    /// value, so no candidate can be ranked: every DTW distance and lower
    /// bound against it is NaN. Callers should fall back to a predictor
    /// that needs no neighbours (aggregation over past labels, last-value
    /// hold).
    NonFiniteQuery {
        /// Length of the poisoned item query.
        length: usize,
    },
    /// `max_end` exceeds the history length (caller bookkeeping bug,
    /// reported instead of panicking in the serving path).
    MaxEndBeyondHistory {
        /// The requested candidate-end bound.
        max_end: usize,
        /// The history length.
        len: usize,
    },
    /// A kernel's working set exceeded the device's shared-memory budget
    /// (configuration too large for the device).
    SharedMemOverflow {
        /// Bytes the kernel requested.
        requested: usize,
        /// The per-block shared-memory capacity.
        capacity: usize,
    },
    /// A device launch returned an unexpected result shape.
    Device(&'static str),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::NonFiniteQuery { length } => {
                write!(f, "item query of length {length} contains a non-finite value")
            }
            SearchError::MaxEndBeyondHistory { max_end, len } => {
                write!(f, "max_end {max_end} exceeds the history length {len}")
            }
            SearchError::SharedMemOverflow { requested, capacity } => {
                write!(f, "kernel requested {requested} shared bytes of {capacity} available")
            }
            SearchError::Device(what) => write!(f, "device launch failed: {what}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<smiler_gpu::SharedMemOverflow> for SearchError {
    fn from(e: smiler_gpu::SharedMemOverflow) -> Self {
        SearchError::SharedMemOverflow { requested: e.requested, capacity: e.capacity }
    }
}

/// Parameters of the suffix kNN index (paper Table 2 defaults).
#[derive(Debug, Clone)]
pub struct IndexParams {
    /// Sakoe-Chiba warping width ρ.
    pub rho: usize,
    /// Window length ω.
    pub omega: usize,
    /// Item-query lengths — the Ensemble Length Vector, strictly ascending;
    /// the largest is the master-query length `D`.
    pub lengths: Vec<usize>,
    /// Neighbours to return per item query — the largest entry of the
    /// Ensemble kNN Vector (smaller k's take prefixes, §4.1).
    pub k_max: usize,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams { rho: 8, omega: 16, lengths: vec![32, 64, 96], k_max: 32 }
    }
}

impl IndexParams {
    /// Master-query length `D` (the largest item query). Zero only for an
    /// empty ELV, which [`SmilerIndex::build`] rejects up front.
    pub fn d_master(&self) -> usize {
        self.lengths.last().copied().unwrap_or_default()
    }

    fn validate(&self) {
        assert!(self.omega > 0, "ω must be positive");
        assert!(!self.lengths.is_empty(), "ELV must not be empty");
        assert!(self.lengths.windows(2).all(|w| w[0] < w[1]), "ELV must be strictly ascending");
        assert!(self.lengths[0] >= self.omega, "shortest item query must cover one window");
        assert!(self.k_max > 0, "k must be positive");
    }
}

/// Which lower bound drives the filter — the Table 3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Filter with `ΣLBEQ` only.
    Eq,
    /// Filter with `ΣLBEC` only.
    Ec,
    /// Filter with the enhanced bound `max(ΣLBEQ, ΣLBEC)` (the paper's
    /// `LBen`, default).
    En,
}

/// How the filter threshold τ is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ThresholdStrategy {
    /// Paper method 1: verify the candidate with the k-th smallest lower
    /// bound; τ is its true DTW. Cheap but can very rarely prune a true
    /// neighbour when lower-bound order disagrees with DTW order.
    PaperKthLb,
    /// Verify the k candidates with the smallest lower bounds; τ is the
    /// *largest* of their DTWs — an upper bound on the k-th NN distance, so
    /// the filter is exact. Costs k−1 extra verifications.
    ExactKBest,
}

/// One retrieved neighbour segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Start position `t` of the segment in the sensor history.
    pub start: usize,
    /// Banded DTW distance to the item query.
    pub distance: f64,
}

/// Instrumentation of one search, feeding Table 3 / Fig 7 / Fig 8.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SearchStats {
    /// Candidate population per item query.
    pub candidates: Vec<usize>,
    /// Candidates that survived filtering (and were DTW-verified) per item
    /// query — the "number" column of Table 3.
    pub unfiltered: Vec<usize>,
    /// Simulated device seconds (makespan) spent verifying candidates —
    /// the "time" column of Table 3.
    pub verify_sim_seconds: f64,
    /// Device-saturated seconds spent verifying (the many-sensor regime;
    /// see `smiler_gpu::KernelStats::saturated_seconds`).
    pub verify_saturated_seconds: f64,
    /// Simulated device seconds spent computing group-level lower bounds —
    /// the Fig 8 measurement.
    pub lb_sim_seconds: f64,
    /// Device-saturated seconds of the group-level lower-bound pass.
    pub lb_saturated_seconds: f64,
    /// Total simulated seconds of the search (bounds + filter + verify +
    /// select).
    pub total_sim_seconds: f64,
    /// Total device-saturated seconds of the search.
    pub total_saturated_seconds: f64,
}

/// Result of one suffix kNN search.
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Per item query (ELV order): up to `k_max` neighbours sorted by
    /// ascending DTW distance. Shared (`Arc`) with the index's
    /// continuous-reuse state, so carrying an answer forward never copies
    /// the neighbour lists.
    pub neighbors: Arc<Vec<Vec<Neighbor>>>,
    /// Instrumentation.
    pub stats: SearchStats,
}

/// Lag, in observations, from which [`SmilerIndex::catch_up`] rebuilds the
/// window index once instead of replaying the rotation once per step. The
/// benchmark's per-layer probe (8.6k-point histories, default index
/// parameters, 2-vCPU host) measures one rotation at `index.advance_us`
/// ≈ 310 µs and one build at `index.build_ms` ≈ 1.46 ms: break-even at
/// ≈ 4.7 steps.
const REBUILD_LAG: usize = 5;

/// Reusable workspaces for the index rotation: the master query's envelope
/// (plus its sweep scratch). Owned by the index so a catch-up allocates no
/// envelope buffers once they have grown.
#[derive(Debug, Default)]
struct SearchScratch {
    query_env: Envelope,
    env: EnvelopeScratch,
}

/// Per-stage outcome counts of one cascaded verification pass, reported to
/// the observability layer as `verify.cascade` counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CascadeCounts {
    kim_pruned: u64,
    keogh_pruned: u64,
    dtw_abandoned: u64,
    dtw_full: u64,
}

impl CascadeCounts {
    pub(crate) fn merge(&mut self, other: &CascadeCounts) {
        self.kim_pruned += other.kim_pruned;
        self.keogh_pruned += other.keogh_pruned;
        self.dtw_abandoned += other.dtw_abandoned;
        self.dtw_full += other.dtw_full;
    }

    /// Emit the per-stage `verify.cascade` counters.
    pub(crate) fn report(&self) {
        if smiler_obs::enabled() {
            smiler_obs::count("verify.cascade", "kim_pruned", self.kim_pruned);
            smiler_obs::count("verify.cascade", "keogh_pruned", self.keogh_pruned);
            smiler_obs::count("verify.cascade", "dtw_abandoned", self.dtw_abandoned);
            smiler_obs::count("verify.cascade", "dtw_full", self.dtw_full);
        }
    }
}

/// The per-sensor SMiLer index.
#[derive(Debug)]
pub struct SmilerIndex {
    params: IndexParams,
    bound_mode: BoundMode,
    threshold: ThresholdStrategy,
    series: Vec<f64>,
    /// History length `series_env` and `windex` cover; the next search
    /// catches them up to `series.len()`.
    indexed_len: usize,
    series_env: Envelope,
    windex: WindowIndex,
    /// Previous step's answer; start positions feed the continuous-reuse
    /// threshold (§4.3.3 method 2).
    prev_neighbors: Option<Arc<Vec<Vec<Neighbor>>>>,
    scratch: SearchScratch,
}

impl SmilerIndex {
    /// An index over a sensor's normalised history that has built nothing
    /// yet: its first search (or [`SmilerIndex::advance`]) builds the
    /// envelope and the window index over the whole history.
    ///
    /// # Panics
    /// Panics if the history is shorter than the master query or parameters
    /// are inconsistent.
    pub fn new(series: Vec<f64>, params: IndexParams) -> Self {
        params.validate();
        let d = params.d_master();
        assert!(series.len() >= d, "history shorter than the master query");
        SmilerIndex {
            bound_mode: BoundMode::En,
            threshold: ThresholdStrategy::ExactKBest,
            indexed_len: 0,
            series,
            series_env: Envelope::compute(&[], params.rho),
            windex: WindowIndex::empty(params.omega, params.rho, d),
            params,
            prev_neighbors: None,
            scratch: SearchScratch::default(),
        }
    }

    /// Build the index over a sensor's normalised history now:
    /// [`SmilerIndex::new`] followed by the catch-up its first search would
    /// run.
    ///
    /// # Panics
    /// Panics if the history is shorter than the master query or parameters
    /// are inconsistent.
    pub fn build(device: &Device, series: Vec<f64>, params: IndexParams) -> Self {
        let mut index = SmilerIndex::new(series, params);
        SmilerIndex::catch_up(device, &mut [&mut index]);
        index
    }

    /// Use a different filter bound (Table 3 ablation).
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        self.bound_mode = mode;
        self
    }

    /// Use a different threshold strategy.
    pub fn with_threshold(mut self, strategy: ThresholdStrategy) -> Self {
        self.threshold = strategy;
        self
    }

    /// The index parameters.
    pub fn params(&self) -> &IndexParams {
        &self.params
    }

    /// The active filter bound.
    pub fn bound_mode(&self) -> BoundMode {
        self.bound_mode
    }

    /// The active threshold strategy.
    pub fn threshold(&self) -> ThresholdStrategy {
        self.threshold
    }

    /// Borrow the window-level index (the search pipeline's group bounds).
    pub(crate) fn window_index(&self) -> &WindowIndex {
        &self.windex
    }

    /// Start of the previous step's k-th nearest neighbour for item query
    /// `i`, if a previous answer exists (continuous-reuse threshold).
    pub(crate) fn prev_neighbor(&self, i: usize) -> Option<usize> {
        self.prev_neighbors
            .as_ref()
            .and_then(|prev| prev.get(i))
            .and_then(|v| v.last())
            .map(|nb| nb.start)
    }

    /// Install the step's answer as the next continuous-reuse state.
    pub(crate) fn set_prev_neighbors(&mut self, neighbors: Arc<Vec<Vec<Neighbor>>>) {
        self.prev_neighbors = Some(neighbors);
    }

    /// The sensor history (normalised).
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// Device-memory footprint: history + envelope + posting lists — the
    /// quantity the Fig 12c capacity experiment divides 6 GB by. Counted
    /// from the history length, so it does not depend on how far the index
    /// lags.
    pub fn device_bytes(&self) -> usize {
        let len = self.series.len();
        len * std::mem::size_of::<f64>() * 3 // history + two envelope rows
            + self.windex.device_bytes(len)
    }

    /// Absorb one new observation: grow the history and nothing else. The
    /// envelope and the window index catch up at the next search.
    pub fn append(&mut self, value: f64) {
        self.series.push(value);
    }

    /// Absorb one new observation and rotate the window level at once
    /// (Remark 1): [`SmilerIndex::append`] followed by the catch-up the
    /// next search would run.
    pub fn advance(&mut self, device: &Device, value: f64) {
        self.append(value);
        SmilerIndex::catch_up(device, &mut [self]);
    }

    /// Observations the envelope and the window index have yet to cover.
    fn lag(&self) -> usize {
        self.series.len() - self.indexed_len
    }

    /// Bring every index of a fleet up to its history, one launch per
    /// phase. An index never built, or lagging by [`REBUILD_LAG`] or more,
    /// is rebuilt over its whole history, and all of them share one launch.
    /// The others replay the Remark 1 rotation once per missing step, each
    /// over the history as it stood at that step: launch `j` carries
    /// rotation `j` of every index lagging by at least `j`. Every block
    /// depends only on its own sensor, so each index ends bitwise equal to
    /// one that rotated on every observation, whatever fleet it caught up
    /// in.
    pub(crate) fn catch_up(device: &Device, fleet: &mut [&mut SmilerIndex]) {
        let lagging: Vec<&mut SmilerIndex> =
            fleet.iter_mut().map(|index| &mut **index).filter(|index| index.lag() > 0).collect();
        if lagging.is_empty() {
            return;
        }
        let _span = smiler_obs::span("index.catch_up");
        let (mut rebuilding, mut rotating): (Vec<_>, Vec<_>) = lagging
            .into_iter()
            .partition(|index| index.indexed_len == 0 || index.lag() >= REBUILD_LAG);
        for (indexes, label) in [(&rebuilding, "rebuild"), (&rotating, "rotate")] {
            for index in indexes {
                smiler_obs::observe("index.catch_up_lag", "", index.lag() as f64);
                smiler_obs::count("index.catch_up", label, 1);
            }
        }
        SmilerIndex::catch_up_launch(device, &mut rebuilding, true);
        while !rotating.is_empty() {
            SmilerIndex::catch_up_launch(device, &mut rotating, false);
            rotating.retain(|index| index.lag() > 0);
        }
    }

    /// One fused catch-up launch: with `rebuild`, every index of `phase`
    /// is rebuilt over its whole history; otherwise each one rotates one
    /// step forward.
    fn catch_up_launch(device: &Device, phase: &mut [&mut SmilerIndex], rebuild: bool) {
        if phase.is_empty() {
            return;
        }
        let plans: Vec<Plan> = phase
            .iter_mut()
            .map(|index| {
                let n = if rebuild { index.series.len() } else { index.indexed_len + 1 };
                let (d, rho) = (index.params.d_master(), index.params.rho);
                let (series, scratch) = (&index.series[..n], &mut index.scratch);
                index.series_env.extend_to(series);
                scratch.query_env.compute_into(&series[n - d..], rho, &mut scratch.env);
                index.windex.plan(n, rebuild)
            })
            .collect();
        let fleet: Vec<(&Plan, Inputs)> = phase
            .iter()
            .zip(&plans)
            .map(|(index, plan)| {
                let series = &index.series[..plan.len()];
                let query = &series[series.len() - index.params.d_master()..];
                let query_env = &index.scratch.query_env;
                (plan, Inputs { series, series_env: &index.series_env, query, query_env })
            })
            .collect();
        let outs = window::launch(device, &fleet);
        drop(fleet);
        for ((index, plan), outs) in phase.iter_mut().zip(&plans).zip(outs) {
            index.windex.apply(plan, outs);
            index.indexed_len = plan.len();
        }
    }

    /// Suffix kNN search over candidates whose end does not exceed
    /// `max_end` (callers pass `len − h` so every neighbour has its
    /// h-step-ahead label).
    ///
    /// # Panics
    /// Panics on any [`SearchError`] — the infallible convenience wrapper
    /// for tests, benches and offline tools. Serving paths use
    /// [`SmilerIndex::try_search`] instead.
    pub fn search(&mut self, device: &Device, max_end: usize) -> SearchOutput {
        match self.try_search(device, max_end) {
            Ok(out) => out,
            Err(e) => panic!("suffix kNN search failed: {e}"),
        }
    }

    /// Fallible suffix kNN search: returns a typed [`SearchError`] instead
    /// of panicking when malformed input (a non-finite query value, an
    /// out-of-range `max_end`) or an oversized kernel reaches the request
    /// path. Candidates whose lower bound or DTW distance is non-finite —
    /// a NaN spliced into the *history* rather than the query — are
    /// filtered out exactly like `kselect` drops non-finite values, so one
    /// poisoned segment degrades recall by at most itself.
    pub fn try_search(
        &mut self,
        device: &Device,
        max_end: usize,
    ) -> Result<SearchOutput, SearchError> {
        // A solo search is a fleet search of one: the same planned tasks,
        // the same one-launch-per-phase pipeline.
        crate::fleet::try_fleet_search(device, &mut [self], &[max_end])
            .pop()
            .unwrap_or(Err(SearchError::Device("one-sensor fleet returned no slot")))
    }
}

/// One query's share of a [`verify_candidates`] launch: the candidates
/// starting at `starts` in `series` against `query` under band `rho`.
#[derive(Clone, Copy)]
pub(crate) struct VerifyJob<'a> {
    pub(crate) series: &'a [f64],
    pub(crate) query: &'a [f64],
    pub(crate) rho: usize,
    pub(crate) starts: &'a [usize],
}

/// Full-DTW verification kernel — the threshold-probe kernel of the search
/// pipeline and the exhaustive reference of the scan baselines. One launch
/// spans every job; each block verifies up to 256 candidates of one job
/// with the compressed warping matrix (Appendix E). Shared-memory
/// accounting mirrors the CUDA kernel: the query plus one `2×(2ρ+2)`
/// single-precision matrix per thread. Returns one distance list per job,
/// in `starts` order.
pub(crate) fn verify_candidates(
    device: &Device,
    jobs: &[VerifyJob],
) -> Result<Vec<Vec<f64>>, SearchError> {
    const THREADS: usize = 256;
    let chunks: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.starts.len()).step_by(THREADS).map(move |lo| (j, lo)))
        .collect();
    let mut all: Vec<Vec<f64>> =
        jobs.iter().map(|job| Vec::with_capacity(job.starts.len())).collect();
    if chunks.is_empty() {
        return Ok(all);
    }
    let report =
        device.launch(chunks.len(), |ctx| -> Result<Vec<f64>, smiler_gpu::SharedMemOverflow> {
            let (j, lo) = chunks[ctx.block_id()];
            let VerifyJob { series, query, rho, starts } = jobs[j];
            let starts = &starts[lo..(lo + THREADS).min(starts.len())];
            let d = query.len();
            // Query in shared (single precision on the real device) plus one
            // compressed matrix per thread.
            let matrix_bytes = 2 * (2 * rho + 2) * 4;
            ctx.alloc_shared(d * 4 + starts.len() * matrix_bytes)?;
            ctx.read_global(d as u64); // stage the query once per block
            let ops = smiler_dtw::dtw_ops_estimate(d, rho);
            let mut scratch = smiler_dtw::DtwScratch::with_rho(rho);
            let mut out = Vec::with_capacity(starts.len());
            for &t in starts {
                ctx.read_global(d as u64);
                ctx.flops(ops);
                ctx.access_shared(ops / 2);
                out.push(smiler_dtw::dtw_compressed_with(
                    query,
                    &series[t..t + d],
                    rho,
                    &mut scratch,
                ));
            }
            ctx.sync();
            Ok(out)
        });
    for (&(j, _), block) in chunks.iter().zip(report.results) {
        all[j].extend(block?);
    }
    Ok(all)
}

/// The running k smallest verified distances, shared by every block of one
/// cascade launch — the device-global k-cell best-list a real GPU kNN
/// kernel keeps with `atomicMin` over sorted distance slots (here a mutex
/// over the sorted list; inserts happen only ~k + near-miss times per
/// launch, so contention is negligible next to a DTW evaluation).
///
/// Exactness is unaffected: the list holds the k smallest of a *subset* of
/// the true distances at every instant, so its k-th entry is ≥ the global
/// k-th best, and the cascade keeps `dist ≤ τ` inclusively — the true kNN
/// always survive, in every schedule. Sharing the *global* top-k (rather
/// than per-block copies) makes parallel pruning exactly as tight as the
/// serial cascade's at each point of the visit order.
pub(crate) struct SharedBest {
    k: usize,
    /// Sorted ascending, at most `k` entries, all finite.
    dists: std::sync::Mutex<Vec<f64>>,
}

impl SharedBest {
    /// Seed the list with the threshold probes' distances. Non-finite
    /// seeds (probes that hit poisoned history) cannot bound anything and
    /// are dropped, so τ stays a real k-th-best and the sorted invariant
    /// holds.
    pub(crate) fn new(k: usize, seed_dists: impl Iterator<Item = f64>) -> Self {
        let mut dists: Vec<f64> = seed_dists.filter(|dist| dist.is_finite()).collect();
        dists.sort_unstable_by(f64::total_cmp);
        dists.truncate(k);
        SharedBest { k, dists: std::sync::Mutex::new(dists) }
    }

    /// The current pruning threshold: the running k-th-best distance, or
    /// `+∞` while fewer than k candidates have been verified.
    fn tau(&self) -> f64 {
        // Poison recovery: a panicking sibling block is re-raised by the
        // launch machinery; the list itself only ever holds genuinely
        // verified distances, so it stays a valid (conservative) τ source.
        let dists = self.dists.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if dists.len() >= self.k {
            dists[self.k - 1]
        } else {
            f64::INFINITY
        }
    }

    /// Offer a verified distance to the top-k. Non-finite distances
    /// (poisoned candidates) are reported downstream but never tighten τ.
    fn insert(&self, dist: f64) {
        if !dist.is_finite() {
            return;
        }
        let mut dists = self.dists.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let pos = dists.partition_point(|&b| b <= dist);
        if pos < self.k {
            dists.insert(pos, dist);
            dists.truncate(self.k);
        }
    }
}

/// Candidates per cascade block. A fixed constant — never derived from the
/// worker count — so the candidate→block assignment (and therefore every
/// verified distance and the final kNN) is identical on every host.
pub(crate) const CASCADE_CHUNK: usize = 64;

/// Relative head-room every lower-bound comparison leaves above τ: far
/// above the ~`d`·2⁻⁵³ rounding of a `d`-term sum of squares, far below any
/// pruning power worth having.
const LB_ROUNDING_SLACK: f64 = 1e-9;

/// The value a lower bound must exceed to dismiss its candidate against the
/// distance threshold `tau`. A bound is a sum in a different order than the
/// DTW it bounds, so where the two coincide mathematically (flat queries:
/// zero-width envelopes) the computed bound can land an ulp *above* the
/// computed DTW. Every bound-vs-τ comparison — the group-level filter, the
/// baseline scan, the cascade's rungs — therefore prunes against a hair
/// more than τ and leaves exact ties to the DTW itself.
pub(crate) fn lb_threshold(tau: f64) -> f64 {
    tau * (1.0 + LB_ROUNDING_SLACK)
}

/// One `(task, chunk)` block of the verification cascade: each candidate,
/// visited in ascending group-bound order, passes through an O(1)
/// first/last-point bound and the full `LB_Keogh` envelope bound, pruning
/// against the *running* k-th-best verified distance τ of its own task's
/// [`SharedBest`]; the survivors queue up and are verified
/// [`smiler_dtw::LANES`] at a time by one early-abandoning lane-parallel
/// DTW sweep ([`smiler_dtw::dtw_early_abandon_lanes`]) against τ as read
/// when the sweep starts. Their verdicts tighten τ in candidate order. A
/// short last batch runs in the same kernel with fewer lanes, and so does
/// every batch of a query too long for `LANES` staged candidates and
/// matrices to fit the block's shared memory.
///
/// Lemire's `LB_Improved` second pass is not a rung: timed over the
/// survivors it actually sees on ROAD, MALL and NET, it cost more than the
/// early-abandoning DTW it saved on every dataset (DESIGN §7). A candidate
/// it would prune has DTW ≥ the bound > τ, so the DTW rung abandons it
/// instead.
///
/// Exactness: any τ a stage prunes against is the k-th smallest among
/// distances verified *earlier* for that task — at a bound, the running
/// one; in a sweep, the one read at its start, which no verdict of the
/// sweep has tightened yet — and is always ≥ the k-th smallest over the
/// whole candidate set. A true k-nearest neighbour therefore satisfies
/// `lb ≤ dtw ≤ τ` at whatever point it is visited, survives every stage
/// (the early-abandon keeps `dtw == τ` inclusively), and receives its
/// exact distance: each lane of a sweep is bitwise the scalar kernel. The
/// *survivor* set beyond the kNN can vary with batching and block
/// interleaving, but every candidate at or below the global k-th-best
/// distance survives in every schedule, so the k smallest distances — and
/// the downstream k-selection, which picks by value — are identical on
/// every thread count and schedule. (The work a block *reports*, and with
/// it the launch's simulated time, does move with the interleaving.)
///
/// Only the `EQ` direction of `LB_EN` (the candidate walked against the
/// *query's* envelope, which is staged in shared memory) is used here. The
/// `EC` direction would fetch the candidate's 2d envelope words from global
/// memory — on a throughput-bound device that traffic rivals the DTW it
/// tries to avoid, and the filter already spent the EC information through
/// `ΣLBEC` in the group-level bound. The candidate itself is the same read
/// the DTW needs, staged into shared memory by stage 2, so a candidate that
/// reaches stage 3 costs no further global reads.
#[allow(clippy::too_many_arguments)] // mirrors the cascade's stage inputs
pub(crate) fn cascade_block(
    ctx: &mut smiler_gpu::BlockCtx,
    series: &[f64],
    query: &[f64],
    query_env: &Envelope,
    rho: usize,
    starts: &[usize],
    shared: &SharedBest,
) -> Result<(Vec<(usize, f64)>, CascadeCounts), smiler_gpu::SharedMemOverflow> {
    use smiler_dtw::LANES;
    let d = query.len();
    // Query and its envelope, one staged candidate and one compressed
    // matrix per lane live in shared memory. A long query gets as many
    // lanes as the budget holds, down to one — the footprint of a
    // one-candidate cascade. Each block is sequential by design: every
    // verdict tightens the threshold for every block's later candidates.
    let lane_bytes = d * 4 + 2 * (2 * rho + 2) * 4;
    let mut width = LANES;
    while let Err(overflow) = ctx.alloc_shared(3 * d * 4 + width * lane_bytes) {
        if width == 1 {
            return Err(overflow);
        }
        width -= 1;
    }
    ctx.read_global(3 * d as u64); // stage query + envelope once
    let mut scratch = smiler_dtw::DtwLanesScratch::new();
    let mut counts = CascadeCounts::default();
    let mut out: Vec<(usize, f64)> = Vec::new();
    let mut pending = starts.iter();
    loop {
        // Stages 1 and 2 fill one sweep's lanes.
        let mut batch = [0usize; LANES];
        let mut lanes = 0;
        while lanes < width {
            let Some(&t) = pending.next() else { break };
            // The rungs leave exact ties to stage 3, whose arithmetic is
            // the distance's own — otherwise which of two tied neighbours
            // survives would depend on how far a sibling block had
            // tightened τ.
            let lb_tau = lb_threshold(shared.tau());
            let cand = &series[t..t + d];
            // Stage 1: O(1) first/last-point bound.
            ctx.read_global(2);
            ctx.flops(4);
            if smiler_dtw::lb_kim_fl(query, cand) > lb_tau {
                counts.kim_pruned += 1;
                continue;
            }
            // Stage 2: envelope bound — the candidate against the query's
            // envelope. Fetches (and stages) the candidate, the only
            // per-candidate global traffic past this point.
            ctx.read_global(d as u64);
            ctx.flops(3 * d as u64);
            if smiler_dtw::lb_keogh(cand, &query_env.upper, &query_env.lower) > lb_tau {
                counts.keogh_pruned += 1;
                continue;
            }
            batch[lanes] = t;
            lanes += 1;
        }
        if lanes == 0 {
            break;
        }
        // Stage 3: one early-abandoning sweep over the staged candidates.
        let cands: [&[f64]; LANES] = std::array::from_fn(|l| &series[batch[l]..batch[l] + d]);
        let verdicts = smiler_dtw::dtw_early_abandon_lanes(
            query,
            &cands[..lanes],
            rho,
            shared.tau(),
            &mut scratch,
        );
        for (&t, (dist, cells)) in batch[..lanes].iter().zip(verdicts) {
            ctx.flops(cells * 6);
            ctx.access_shared(cells * 3);
            match dist {
                Some(dist) => {
                    counts.dtw_full += 1;
                    out.push((t, dist));
                    // A non-finite distance (a poisoned candidate, `+∞`
                    // within a `+∞` τ) is reported but never tightens τ —
                    // `SharedBest::insert` drops it and `kselect` drops it
                    // downstream.
                    shared.insert(dist);
                }
                None => counts.dtw_abandoned += 1,
            }
        }
    }
    ctx.sync();
    Ok((out, counts))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn make_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Periodic base + noise: realistic enough for recall tests.
                (i as f64 * 0.13).sin() * 2.0 + (state % 100) as f64 / 100.0
            })
            .collect()
    }

    fn small_params() -> IndexParams {
        IndexParams { rho: 3, omega: 4, lengths: vec![8, 12, 16], k_max: 5 }
    }

    /// Brute-force reference kNN.
    fn brute_force(
        series: &[f64],
        d: usize,
        rho: usize,
        k: usize,
        max_end: usize,
    ) -> Vec<Neighbor> {
        let query = &series[series.len() - d..];
        let mut all: Vec<Neighbor> = (0..=max_end.saturating_sub(d))
            .map(|t| Neighbor {
                start: t,
                distance: smiler_dtw::dtw_banded(query, &series[t..t + d], rho),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.start.cmp(&b.start)));
        all.truncate(k);
        all
    }

    #[test]
    fn exact_strategy_matches_brute_force() {
        let device = Device::default_gpu();
        let series = make_series(300, 1);
        let params = small_params();
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        let max_end = series.len() - 5;
        let out = index.search(&device, max_end);
        for (i, &d) in params.lengths.iter().enumerate() {
            let expect = brute_force(&series, d, params.rho, params.k_max, max_end);
            let got = &out.neighbors[i];
            assert_eq!(got.len(), expect.len(), "item {i}");
            for (g, e) in got.iter().zip(&expect) {
                assert!(
                    (g.distance - e.distance).abs() < 1e-9,
                    "item {i}: got {:?} expected {:?}",
                    g,
                    e
                );
            }
        }
    }

    #[test]
    fn long_queries_verify_in_fewer_lanes() {
        // At ρ = 8 four staged candidates and matrices fit the 48 KiB block
        // budget only up to D ≈ 1734; D = 2000 runs three lanes and D = 3000
        // one, the one-candidate cascade's footprint.
        let device = Device::default_gpu();
        for d in [2000, 3000] {
            let series = make_series(d + 200, 7);
            let params = IndexParams { rho: 8, omega: 16, lengths: vec![d], k_max: 3 };
            let mut index = SmilerIndex::new(series.clone(), params.clone());
            let max_end = series.len() - 5;
            let out = index
                .try_search(&device, max_end)
                .unwrap_or_else(|e| panic!("a D = {d} search must fit: {e}"));
            for (i, &len) in params.lengths.iter().enumerate() {
                let expect = brute_force(&series, len, params.rho, params.k_max, max_end);
                let got: Vec<f64> = out.neighbors[i].iter().map(|n| n.distance).collect();
                let want: Vec<f64> = expect.iter().map(|n| n.distance).collect();
                assert_eq!(got.len(), want.len(), "D = {d}, item {i}");
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() < 1e-9, "D = {d}, item {i}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn paper_threshold_has_high_recall() {
        let device = Device::default_gpu();
        let series = make_series(400, 2);
        let params = small_params();
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone())
            .with_threshold(ThresholdStrategy::PaperKthLb);
        let max_end = series.len() - 4;
        let out = index.search(&device, max_end);
        for (i, &d) in params.lengths.iter().enumerate() {
            let expect = brute_force(&series, d, params.rho, params.k_max, max_end);
            let expect_dists: Vec<f64> = expect.iter().map(|n| n.distance).collect();
            let hit = out.neighbors[i]
                .iter()
                .filter(|n| expect_dists.iter().any(|&e| (e - n.distance).abs() < 1e-9))
                .count();
            assert!(
                hit * 10 >= expect.len() * 8,
                "item {i}: recall {hit}/{} too low",
                expect.len()
            );
        }
    }

    #[test]
    fn continuous_search_tracks_brute_force() {
        let device = Device::default_gpu();
        let mut series = make_series(260, 3);
        let params = small_params();
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        let max_end = series.len() - 4;
        index.search(&device, max_end);

        let future = make_series(10, 77);
        for &v in &future {
            series.push(v);
            index.advance(&device, v);
            let max_end = series.len() - 4;
            let out = index.search(&device, max_end);
            // Continuous-reuse thresholds are approximate; demand ≥ 80%
            // recall of the true kNN distances at every step.
            for (i, &d) in params.lengths.iter().enumerate() {
                let expect = brute_force(&series, d, params.rho, params.k_max, max_end);
                let hit = out.neighbors[i]
                    .iter()
                    .filter(|n| expect.iter().any(|e| (e.distance - n.distance).abs() < 1e-9))
                    .count();
                assert!(
                    hit * 10 >= expect.len() * 8,
                    "step recall {hit}/{} item {i}",
                    expect.len()
                );
            }
        }
    }

    #[test]
    fn filtering_reduces_verification() {
        let device = Device::default_gpu();
        let series = make_series(600, 4);
        let params = IndexParams { rho: 3, omega: 4, lengths: vec![16], k_max: 5 };
        let mut index = SmilerIndex::build(&device, series, params);
        let out = index.search(&device, 590);
        assert!(
            out.stats.unfiltered[0] < out.stats.candidates[0] / 2,
            "filter too weak: {} of {}",
            out.stats.unfiltered[0],
            out.stats.candidates[0]
        );
    }

    #[test]
    fn en_filters_at_least_as_well_as_each_direction() {
        let device = Device::default_gpu();
        let series = make_series(500, 5);
        let params = IndexParams { rho: 3, omega: 4, lengths: vec![16], k_max: 5 };
        let mut counts = Vec::new();
        for mode in [BoundMode::Eq, BoundMode::Ec, BoundMode::En] {
            let mut index =
                SmilerIndex::build(&device, series.clone(), params.clone()).with_bound_mode(mode);
            let out = index.search(&device, 490);
            counts.push(out.stats.unfiltered[0]);
        }
        // LBen dominates both directions, so it never verifies more
        // candidates (up to the k threshold probes).
        assert!(counts[2] <= counts[0] + params.k_max);
        assert!(counts[2] <= counts[1] + params.k_max);
    }

    #[test]
    fn cascade_verifies_cheaper_than_full_dtw() {
        let device = Device::default_gpu();
        let series = make_series(600, 4);
        let params = IndexParams { rho: 3, omega: 4, lengths: vec![16], k_max: 5 };
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        let out = index.search(&device, 590);
        // A full banded DTW costs the same for every candidate, so any
        // `unfiltered` starts price what verifying every filter survivor
        // without the cascade would cost.
        let full = Device::default_gpu();
        let starts: Vec<usize> = (0..out.stats.unfiltered[0]).collect();
        let job = VerifyJob { series: &series, query: &series[584..], rho: 3, starts: &starts };
        verify_candidates(&full, &[job]).expect("fits shared memory");
        assert!(
            out.stats.verify_sim_seconds < full.elapsed_seconds(),
            "cascade {} s not cheaper than full DTW {} s",
            out.stats.verify_sim_seconds,
            full.elapsed_seconds()
        );
    }

    #[test]
    fn neighbors_exclude_late_candidates() {
        let device = Device::default_gpu();
        let series = make_series(300, 6);
        let params = small_params();
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        let h = 7;
        let max_end = series.len() - h;
        let out = index.search(&device, max_end);
        for (i, &d) in params.lengths.iter().enumerate() {
            for nb in &out.neighbors[i] {
                assert!(nb.start + d <= max_end, "item {i} neighbour past max_end");
            }
        }
    }

    #[test]
    fn nan_in_history_degrades_instead_of_panicking() {
        let device = Device::default_gpu();
        let mut series = make_series(300, 11);
        // Poison a stretch well before the query suffix.
        series[40] = f64::NAN;
        series[41] = f64::NAN;
        let params = small_params();
        let max_end = series.len() - 5;
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        let out = index.search(&device, max_end);
        // Clean candidates are still ranked exactly; poisoned ones (any
        // segment overlapping the NaNs) are dropped, never returned.
        for (i, &d) in params.lengths.iter().enumerate() {
            assert!(!out.neighbors[i].is_empty(), "item {i} lost all neighbours");
            for nb in &out.neighbors[i] {
                assert!(nb.distance.is_finite(), "item {i} returned a NaN distance");
                assert!(
                    nb.start >= 42 || nb.start + d <= 40,
                    "item {i} returned a poisoned segment at {}",
                    nb.start
                );
            }
        }
        // Continuous steps keep absorbing values without panicking even
        // though the reuse state may reference poisoned segments.
        for &v in &make_series(5, 13) {
            index.advance(&device, v);
            let out = index.search(&device, index.series().len() - 5);
            assert_eq!(out.neighbors.len(), params.lengths.len());
        }
    }

    #[test]
    fn nan_in_query_suffix_is_a_typed_error() {
        let device = Device::default_gpu();
        let series = make_series(300, 12);
        let params = small_params();
        let mut index = SmilerIndex::build(&device, series.clone(), params.clone());
        // Poison the shortest item query (the last 8 values).
        index.advance(&device, f64::NAN);
        let err = index.try_search(&device, index.series().len() - 5);
        match err {
            Err(SearchError::NonFiniteQuery { length }) => {
                assert_eq!(length, params.lengths[0]);
            }
            other => panic!("expected NonFiniteQuery, got {other:?}"),
        }
    }

    #[test]
    fn max_end_beyond_history_is_a_typed_error() {
        let device = Device::default_gpu();
        let series = make_series(120, 14);
        let mut index = SmilerIndex::build(&device, series, small_params());
        let err = index.try_search(&device, 121);
        assert!(matches!(err, Err(SearchError::MaxEndBeyondHistory { max_end: 121, len: 120 })));
    }

    #[test]
    fn device_bytes_grows_with_history() {
        let device = Device::default_gpu();
        let a = SmilerIndex::build(&device, make_series(200, 7), small_params());
        let b = SmilerIndex::build(&device, make_series(400, 7), small_params());
        assert!(b.device_bytes() > a.device_bytes());
    }

    /// Admission and the capacity model read `device_bytes` on restored
    /// fleets that have not searched yet: a lagging index, or one not built
    /// at all, must report what it will occupy once caught up.
    #[test]
    fn device_bytes_does_not_depend_on_the_lag() {
        let device = Device::default_gpu();
        let mut lagging = SmilerIndex::build(&device, make_series(200, 8), small_params());
        let mut current = SmilerIndex::build(&device, make_series(200, 8), small_params());
        let unbuilt = SmilerIndex::new(make_series(200, 8), small_params());
        assert_eq!(unbuilt.window_index().sw_count(), 0, "setup: nothing built");
        assert_eq!(unbuilt.device_bytes(), current.device_bytes());
        for &v in &make_series(23, 9) {
            lagging.append(v);
            current.advance(&device, v);
            assert_eq!(lagging.device_bytes(), current.device_bytes());
        }
        assert!(lagging.indexed_len < lagging.series.len(), "setup: the index lags");
    }

    /// An index that only hears `append` and catches up at search time —
    /// after gaps below, at and above the rebuild crossover — holds the
    /// same envelope and posting lists, bit for bit, and answers the same
    /// searches (continuous-reuse threshold included) as one that rotates
    /// on every observation.
    #[test]
    fn lazy_catch_up_is_bitwise_equal_to_rotating_every_step() {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let device = Device::default_gpu();
        let params = small_params();
        let history = make_series(260, 21);
        let future = make_series(600, 22);
        let mut eager = SmilerIndex::build(&device, history.clone(), params.clone());
        let mut lazy = SmilerIndex::build(&device, history, params.clone());
        let c = REBUILD_LAG;
        let mut fed = future.iter();
        for gap in [0, 1, 2, c - 1, c, c + 1, 500] {
            for &v in fed.by_ref().take(gap) {
                eager.advance(&device, v);
                lazy.append(v);
            }
            assert_eq!(lazy.indexed_len + gap, lazy.series.len(), "gap {gap}: lazy until searched");
            let max_end = eager.series().len() - 4;
            let want = eager.search(&device, max_end);
            let got = lazy.search(&device, max_end);

            let what = format!("after a gap of {gap}");
            assert_eq!(bits(lazy.series()), bits(eager.series()), "{what}: history");
            assert_eq!(bits(&lazy.series_env.upper), bits(&eager.series_env.upper), "{what}");
            assert_eq!(bits(&lazy.series_env.lower), bits(&eager.series_env.lower), "{what}");
            let (lw, ew) = (lazy.window_index(), eager.window_index());
            assert_eq!((lw.sw_count(), lw.dw_count()), (ew.sw_count(), ew.dw_count()), "{what}");
            for b in 0..ew.sw_count() {
                assert_eq!(bits(&lw.posting(b).lbeq), bits(&ew.posting(b).lbeq), "{what}: b={b}");
                assert_eq!(bits(&lw.posting(b).lbec), bits(&ew.posting(b).lbec), "{what}: b={b}");
            }
            for i in 0..params.lengths.len() {
                let pairs = |out: &SearchOutput| -> Vec<(usize, u64)> {
                    out.neighbors[i].iter().map(|n| (n.start, n.distance.to_bits())).collect()
                };
                assert_eq!(pairs(&got), pairs(&want), "{what}: item {i} neighbours");
                assert_eq!(lazy.prev_neighbor(i), eager.prev_neighbor(i), "{what}: reuse seed");
            }
            assert_eq!(got.stats.candidates, want.stats.candidates, "{what}: candidates");
            assert_eq!(got.stats.unfiltered, want.stats.unfiltered, "{what}: probes + survivors");
        }
    }
}
