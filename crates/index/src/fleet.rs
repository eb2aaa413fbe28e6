//! The suffix kNN pipeline: filter → verify → select over `(sensor, item)`
//! tasks, one grid per phase.
//!
//! The paper's deployment (Fig. 3, §4.4) runs ~1000 sensors on one GPU:
//! "the SMiLer Index can easily scale up with multiple sensors, where we
//! only need to create multiple SMiLer Indexes and invoke more blocks."
//! This module is that pipeline, and the only one: each phase — group-level
//! bounds, threshold probes, filtering, cascaded verification, selection —
//! is **one launch whose grid spans every task of every sensor**, and
//! [`SmilerIndex::try_search`] is [`try_fleet_search`] over a fleet of one.
//! Tasks are independent (each has its own threshold and its own
//! `SharedBest`), so a sensor's answer is bit-identical whatever fleet it
//! is searched in; batching only regroups independent blocks.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::group;
use crate::search::{
    cascade_block, lb_threshold, verify_candidates, CascadeCounts, Neighbor, SearchError,
    SearchOutput, SearchStats, SharedBest, SmilerIndex, ThresholdStrategy, VerifyJob,
    CASCADE_CHUNK,
};
use smiler_gpu::kselect;
use smiler_gpu::Device;
use smiler_timeseries::Envelope;
use std::sync::Arc;

/// One `(sensor, item query)` unit of work, threaded through every phase.
struct Task<'a> {
    /// Position of the owning sensor in the screened sub-fleet.
    sensor: usize,
    series: &'a [f64],
    /// The item query: a suffix of `series`.
    query: &'a [f64],
    rho: usize,
    k: usize,
    strategy: ThresholdStrategy,
    /// Start of the previous step's k-th nearest neighbour, when it can
    /// seed the continuous-reuse threshold (§4.3.3 method 2).
    reuse: Option<usize>,
    /// Group-level filter bound per candidate start.
    lbw: Vec<f64>,
    /// False for a task that ranks nothing — a poisoned item query or an
    /// empty candidate set. It keeps its block slot in every grid but
    /// probes, filters and verifies nothing: an empty neighbour list.
    live: bool,
    /// Filter threshold τ.
    tau: f64,
    /// Candidates the group-level filter let through, probes included.
    survived: usize,
    query_env: Envelope,
    /// Filter survivors still to verify, ascending by bound.
    order: Vec<usize>,
    /// `(start, distance)`: the threshold probes, then the cascade's
    /// survivors in block order.
    verified: Vec<(usize, f64)>,
}

/// Suffix kNN search for a whole fleet: one `Result` slot per sensor, in
/// input order. `max_ends[s]` bounds sensor `s`'s candidate ends (callers
/// pass `len − h` so every neighbour has its h-step-ahead label).
///
/// The fleet first catches up with its histories (`SmilerIndex::catch_up`:
/// one launch for every index to rebuild, one per rotation step for the
/// rest), so observations appended since each index's last search, or its
/// whole history if it was never built, are paid for here.
///
/// A sensor with an out-of-range `max_end` or a non-finite shortest item
/// query gets a typed [`SearchError`] in *its* slot and is excluded from
/// the batched grids; it never aborts or poisons the other sensors'
/// launches. Only `Ok` slots have their continuous-reuse state updated (an
/// erroring sensor keeps its previous state).
///
/// # Panics
/// Panics only on caller contract violation: `indexes` and `max_ends`
/// lengths differing.
pub fn try_fleet_search(
    device: &Device,
    indexes: &mut [&mut SmilerIndex],
    max_ends: &[usize],
) -> Vec<Result<SearchOutput, SearchError>> {
    assert_eq!(indexes.len(), max_ends.len(), "one max_end per sensor");
    SmilerIndex::catch_up(device, indexes);
    let screened: Vec<Option<SearchError>> =
        indexes.iter().zip(max_ends).map(|(index, &max_end)| screen(index, max_end)).collect();
    let (mut healthy, healthy_ends): (Vec<&mut SmilerIndex>, Vec<usize>) = indexes
        .iter_mut()
        .zip(max_ends)
        .zip(&screened)
        .filter(|(_, verdict)| verdict.is_none())
        .map(|((index, &max_end), _)| (&mut **index, max_end))
        .unzip();
    let mut outs = if healthy.is_empty() {
        Ok(Vec::new().into_iter())
    } else {
        search_screened(device, &mut healthy, &healthy_ends).map(Vec::into_iter)
    };
    // A batch-level launch failure (shared-memory overflow from an oversized
    // device configuration) lands on every batched slot; screened-out slots
    // keep their own, more specific errors.
    screened
        .into_iter()
        .map(|verdict| match (verdict, &mut outs) {
            (Some(e), _) => Err(e),
            (None, Ok(outs)) => {
                outs.next().ok_or(SearchError::Device("sensor slot was never filled"))
            }
            (None, Err(e)) => Err(e.clone()),
        })
        .collect()
}

/// A sensor's own typed error, if its request cannot enter the batched
/// grids: bad bookkeeping, or a poisoned shortest suffix — item queries are
/// nested suffixes (ELV ascending), so then no item query of that sensor
/// can rank anything.
fn screen(index: &SmilerIndex, max_end: usize) -> Option<SearchError> {
    let series = index.series();
    if max_end > series.len() {
        return Some(SearchError::MaxEndBeyondHistory { max_end, len: series.len() });
    }
    let &d0 = index.params().lengths.first()?;
    let poisoned = series[series.len() - d0..].iter().any(|v| !v.is_finite());
    poisoned.then_some(SearchError::NonFiniteQuery { length: d0 })
}

/// The pipeline over a screened fleet: every `max_end` is in range and
/// every shortest item query is finite.
fn search_screened(
    device: &Device,
    indexes: &mut [&mut SmilerIndex],
    max_ends: &[usize],
) -> Result<Vec<SearchOutput>, SearchError> {
    let _search_span = smiler_obs::span("search");
    let clock = || (device.elapsed_seconds(), device.saturated_seconds());
    let since =
        |(sim, sat): (f64, f64)| (device.elapsed_seconds() - sim, device.saturated_seconds() - sat);
    let start = clock();

    // Phase 1: group-level lower bounds (one pass over posting lists).
    let bounds = {
        let _lb_span = smiler_obs::span("lb");
        let sensors: Vec<_> = indexes
            .iter()
            .zip(max_ends)
            .map(|(index, &max_end)| {
                (index.window_index(), index.params().lengths.as_slice(), max_end)
            })
            .collect();
        group::fleet_group_bounds(device, &sensors)
    };
    let (lb_sim, lb_sat) = since(start);

    // Phase 2: threshold, filter, verify — each its own launch so filtering
    // and verification never mix in one kernel (§4.4).
    let mut tasks = plan_tasks(indexes, bounds);
    {
        let _filter_span = smiler_obs::span("filter");
        probe_thresholds(device, &mut tasks)?;
        filter(device, &mut tasks);
    }
    let verify_start = clock();
    {
        let _verify_span = smiler_obs::span("verify");
        cascade_verify(device, &mut tasks)?;
    }
    let (verify_sim, verify_sat) = since(verify_start);

    // Phase 3: k-selection, one block per task (§4.3.3).
    let picks = {
        let _select_span = smiler_obs::span("select");
        device
            .launch(tasks.len(), |ctx| {
                let task = &tasks[ctx.block_id()];
                let dists: Vec<f64> = task.verified.iter().map(|&(_, dist)| dist).collect();
                kselect::select_k_smallest(ctx, &dists, task.k)
            })
            .results
    };
    let (total_sim, total_sat) = since(start);

    // Phase costs are shared launches; attribute them evenly per sensor so
    // the stats read the same whatever fleet a sensor was searched in.
    let n = indexes.len() as f64;
    let mut outputs: Vec<(Vec<Vec<Neighbor>>, SearchStats)> = indexes
        .iter()
        .map(|_| {
            let stats = SearchStats {
                verify_sim_seconds: verify_sim / n,
                verify_saturated_seconds: verify_sat / n,
                lb_sim_seconds: lb_sim / n,
                lb_saturated_seconds: lb_sat / n,
                total_sim_seconds: total_sim / n,
                total_saturated_seconds: total_sat / n,
                ..SearchStats::default()
            };
            (Vec::new(), stats)
        })
        .collect();
    for (task, pick) in tasks.iter().zip(picks) {
        let (neighbors, stats) = &mut outputs[task.sensor];
        neighbors.push(
            pick.into_iter()
                .map(|i| Neighbor { start: task.verified[i].0, distance: task.verified[i].1 })
                .collect(),
        );
        stats.candidates.push(task.lbw.len());
        stats.unfiltered.push(task.survived);
    }
    drop(tasks);
    // Sharing the `Arc` (instead of deep-cloning every neighbour list)
    // installs the continuous-reuse state for free.
    Ok(indexes
        .iter_mut()
        .zip(outputs)
        .map(|(index, (neighbors, stats))| {
            let neighbors = Arc::new(neighbors);
            index.set_prev_neighbors(Arc::clone(&neighbors));
            SearchOutput { neighbors, stats }
        })
        .collect())
}

/// Flatten the fleet into `(sensor, item)` tasks, resolving each task's
/// filter bounds under its sensor's [`crate::BoundMode`].
fn plan_tasks<'a>(
    indexes: &'a [&mut SmilerIndex],
    bounds: Vec<group::GroupBounds>,
) -> Vec<Task<'a>> {
    let mut tasks = Vec::new();
    for (sensor, (index, bounds)) in indexes.iter().zip(bounds).enumerate() {
        let params = index.params();
        let series = index.series();
        let rows = bounds.into_filter_bounds(index.bound_mode());
        for (item, (lbw, &d)) in rows.into_iter().zip(&params.lengths).enumerate() {
            let query = &series[series.len() - d..];
            // A longer query can be poisoned while the (screened) shorter
            // ones stay clean — the NaN sits further back; it alone
            // degrades to an empty neighbour list.
            let clean = query.iter().all(|v| v.is_finite());
            if !clean {
                smiler_obs::count("search.nonfinite_query", "", 1);
            }
            // The previous k-th NN segment is probably still close, so its
            // DTW to the *current* query is a tight τ — unless it now
            // overlaps a poisoned stretch of history (a non-finite DTW),
            // in which case the task probes from cold instead of wiping
            // its whole candidate set.
            let reuse = index.prev_neighbor(item).filter(|&t| {
                series.get(t..t + d).is_some_and(|seg| seg.iter().all(|v| v.is_finite()))
            });
            tasks.push(Task {
                sensor,
                series,
                query,
                rho: params.rho,
                k: params.k_max,
                strategy: index.threshold(),
                reuse,
                live: clean && !lbw.is_empty(),
                lbw,
                tau: f64::INFINITY,
                survived: 0,
                query_env: Envelope::default(),
                order: Vec::new(),
                verified: Vec::new(),
            });
        }
    }
    tasks
}

/// Phase 2a — the filter threshold τ of every task, from one fleet-wide
/// probe-verification launch. A task with a reusable previous answer
/// probes that one segment; a cold task with more than k candidates probes
/// by lower-bound rank (one k-selection block per cold task); a task with
/// ≤ k candidates filters nothing and keeps τ = +∞. Verified probes are
/// cached in `verified` so the cascade never re-verifies them.
fn probe_thresholds(device: &Device, tasks: &mut [Task]) -> Result<(), SearchError> {
    let mut probes: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut cold: Vec<usize> = Vec::new();
    for (ti, task) in tasks.iter_mut().enumerate().filter(|(_, task)| task.live) {
        if let Some(t) = task.reuse {
            probes[ti].push(t);
        } else if task.lbw.len() > task.k {
            cold.push(ti);
        } else {
            continue;
        }
        // `f64::max` ignores NaN probe distances; a fully poisoned probe
        // set leaves τ at −∞, which filters every candidate — nothing
        // finite is rankable against segments that only match poisoned
        // history.
        task.tau = f64::NEG_INFINITY;
    }
    if !cold.is_empty() {
        let ranked = device.launch(cold.len(), |ctx| {
            let task = &tasks[cold[ctx.block_id()]];
            kselect::select_k_smallest(ctx, &task.lbw, task.k)
        });
        for (&ti, smallest) in cold.iter().zip(ranked.results) {
            probes[ti] = match tasks[ti].strategy {
                // Exact: verify all k best-LB candidates; τ = max of their
                // DTWs bounds the k-th NN distance from above.
                ThresholdStrategy::ExactKBest => smallest,
                // Paper method 1: verify only the candidate with the k-th
                // smallest lower bound. `kselect` drops non-finite bounds,
                // so fewer than k may remain; the largest surviving bound
                // is still a usable rank probe.
                ThresholdStrategy::PaperKthLb => smallest.last().copied().into_iter().collect(),
            };
        }
    }
    let jobs: Vec<VerifyJob> = tasks
        .iter()
        .zip(&probes)
        .map(|(task, starts)| VerifyJob {
            series: task.series,
            query: task.query,
            rho: task.rho,
            starts,
        })
        .collect();
    let dists = verify_candidates(device, &jobs)?;
    for ((task, starts), dists) in tasks.iter_mut().zip(probes).zip(dists) {
        task.tau = dists.iter().copied().fold(task.tau, f64::max);
        task.verified = starts.into_iter().zip(dists).collect();
    }
    Ok(())
}

/// Phase 2b — filter by τ (plus [`lb_threshold`]'s rounding head-room): one
/// block per task, a pure scan. Non-finite bounds fail the `<=` comparison,
/// so candidates poisoned by a NaN in the history are dropped here,
/// mirroring `kselect`'s non-finite filtering. Survivors are then ordered
/// tight-bounds-first so the cascade's running k-th best distance drops as
/// fast as possible.
fn filter(device: &Device, tasks: &mut [Task]) {
    let kept = device.launch(tasks.len(), |ctx| {
        let task = &tasks[ctx.block_id()];
        if !task.live {
            return Vec::new();
        }
        ctx.read_global(task.lbw.len() as u64);
        ctx.flops(task.lbw.len() as u64);
        let mut skip: Vec<usize> = task.verified.iter().map(|&(t, _)| t).collect();
        skip.sort_unstable();
        let lb_tau = lb_threshold(task.tau);
        (0..task.lbw.len())
            .filter(|&t| task.lbw[t] <= lb_tau && skip.binary_search(&t).is_err())
            .collect::<Vec<usize>>()
    });
    for (task, mut order) in tasks.iter_mut().zip(kept.results).filter(|(task, _)| task.live) {
        // `survived` is the "number" column of Table 3; the cascade's
        // further pruning is reported separately (`verify.cascade`).
        task.survived = task.verified.len() + order.len();
        if smiler_obs::enabled() {
            let label = format!("d={}", task.query.len());
            let candidates = task.lbw.len();
            smiler_obs::count("search.candidates", &label, candidates as u64);
            smiler_obs::count("search.verified", &label, task.survived as u64);
            let pruned = candidates.saturating_sub(task.survived) as f64;
            smiler_obs::observe("search.pruning_ratio", &label, pruned / candidates as f64);
        }
        // The filter only passes finite bounds, for which `total_cmp`
        // agrees with the partial order — and it cannot panic should a NaN
        // ever slip through.
        order.sort_unstable_by(|&a, &b| task.lbw[a].total_cmp(&task.lbw[b]));
        task.order = order;
        task.query_env = Envelope::compute(task.query, task.rho);
    }
}

/// Phase 2c — cascaded verification of every task's survivors in a single
/// launch: block `(task, chunk)` walks one chunk of one task's candidates
/// against that task's own [`SharedBest`] (see [`cascade_block`]) — the
/// 2-D grid a real GPU kNN kernel launches, one grid-y per query. The
/// chunk descriptors are a fixed function of each task's candidate count —
/// never of worker count — so the candidate→block assignment is identical
/// on every host. Survivors are appended to each task's `verified` in block
/// order (blocks are reported in launch order regardless of execution
/// schedule).
fn cascade_verify(device: &Device, tasks: &mut [Task]) -> Result<(), SearchError> {
    let chunks: Vec<(usize, usize)> = tasks
        .iter()
        .enumerate()
        .flat_map(|(ti, task)| (0..task.order.len()).step_by(CASCADE_CHUNK).map(move |lo| (ti, lo)))
        .collect();
    if chunks.is_empty() {
        return Ok(());
    }
    let shared: Vec<SharedBest> = tasks
        .iter()
        .map(|task| SharedBest::new(task.k, task.verified.iter().map(|&(_, dist)| dist)))
        .collect();
    let report = device.launch(chunks.len(), |ctx| {
        let (ti, lo) = chunks[ctx.block_id()];
        let task = &tasks[ti];
        let hi = (lo + CASCADE_CHUNK).min(task.order.len());
        cascade_block(
            ctx,
            task.series,
            task.query,
            &task.query_env,
            task.rho,
            &task.order[lo..hi],
            &shared[ti],
        )
    });
    let mut counts = CascadeCounts::default();
    for (&(ti, _), block) in chunks.iter().zip(report.results) {
        let (found, block_counts) = block?;
        tasks[ti].verified.extend(found);
        counts.merge(&block_counts);
    }
    counts.report();
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::search::IndexParams;

    fn make_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (i as f64 * 0.17).sin() + (state % 100) as f64 / 60.0
            })
            .collect()
    }

    fn params() -> IndexParams {
        IndexParams { rho: 3, omega: 4, lengths: vec![8, 12], k_max: 4 }
    }

    fn build_fleet(n: usize, device: &Device) -> (Vec<SmilerIndex>, Vec<usize>) {
        let indexes: Vec<SmilerIndex> = (0..n)
            .map(|s| SmilerIndex::build(device, make_series(260 + 10 * s, s as u64), params()))
            .collect();
        let max_ends: Vec<usize> = indexes.iter().map(|i| i.series().len() - 5).collect();
        (indexes, max_ends)
    }

    fn search_all(
        device: &Device,
        fleet: &mut [SmilerIndex],
        max_ends: &[usize],
    ) -> Vec<Result<SearchOutput, SearchError>> {
        let mut refs: Vec<&mut SmilerIndex> = fleet.iter_mut().collect();
        try_fleet_search(device, &mut refs, max_ends)
    }

    /// A sensor's answer must not depend on the fleet it was searched in:
    /// same starts, same distance bits, same filter statistics.
    fn assert_bitwise_equal(got: &SearchOutput, expect: &SearchOutput, what: &str) {
        let bits = |out: &SearchOutput| -> Vec<Vec<(usize, u64)>> {
            out.neighbors
                .iter()
                .map(|ns| ns.iter().map(|n| (n.start, n.distance.to_bits())).collect())
                .collect()
        };
        assert_eq!(bits(got), bits(expect), "{what}: neighbours");
        assert_eq!(got.stats.candidates, expect.stats.candidates, "{what}: candidates");
        assert_eq!(got.stats.unfiltered, expect.stats.unfiltered, "{what}: unfiltered");
    }

    #[test]
    fn fleet_matches_per_sensor_search() {
        let device = Device::default_gpu();
        let (mut fleet, max_ends) = build_fleet(4, &device);
        let (mut solo, _) = build_fleet(4, &device);
        let fleet_out = search_all(&device, &mut fleet, &max_ends);
        for (s, index) in solo.iter_mut().enumerate() {
            let expect = index.search(&device, max_ends[s]);
            let got = fleet_out[s].as_ref().expect("healthy slot");
            assert_bitwise_equal(got, &expect, &format!("sensor {s}"));
        }
    }

    #[test]
    fn fleet_continuous_steps_match() {
        let device = Device::default_gpu();
        let (mut fleet, _) = build_fleet(3, &device);
        let (mut solo, _) = build_fleet(3, &device);
        for step in 0..4 {
            let v = (step as f64 * 0.3).sin();
            for index in fleet.iter_mut().chain(solo.iter_mut()) {
                index.advance(&device, v);
            }
            let max_ends: Vec<usize> = fleet.iter().map(|i| i.series().len() - 5).collect();
            let fleet_out = search_all(&device, &mut fleet, &max_ends);
            for (s, index) in solo.iter_mut().enumerate() {
                let expect = index.search(&device, max_ends[s]);
                let got = fleet_out[s].as_ref().expect("healthy slot");
                assert_bitwise_equal(got, &expect, &format!("step {step} sensor {s}"));
            }
        }
    }

    #[test]
    fn fleet_uses_far_fewer_launches() {
        let dev_fleet = Device::default_gpu();
        let dev_solo = Device::default_gpu();
        let (mut fleet, max_ends) = build_fleet(6, &dev_fleet);
        let (mut solo, _) = build_fleet(6, &dev_solo);
        dev_fleet.reset_clock();
        dev_solo.reset_clock();
        search_all(&dev_fleet, &mut fleet, &max_ends);
        for (s, index) in solo.iter_mut().enumerate() {
            index.search(&dev_solo, max_ends[s]);
        }
        assert!(
            dev_fleet.kernel_launches() * 2 < dev_solo.kernel_launches(),
            "fleet launches {} vs solo {}",
            dev_fleet.kernel_launches(),
            dev_solo.kernel_launches()
        );
        // One launch per phase, whatever the fleet size: bounds, cold-start
        // rank probes, probe verification, filter, cascade, selection.
        assert_eq!(dev_fleet.kernel_launches(), 6);
        assert_eq!(dev_solo.kernel_launches(), 6 * 6);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let device = Device::default_gpu();
        assert!(search_all(&device, &mut [], &[]).is_empty());
        assert_eq!(device.kernel_launches(), 0);
    }

    #[test]
    fn bad_max_end_degrades_only_its_slot() {
        let device = Device::default_gpu();
        let (mut fleet, mut max_ends) = build_fleet(4, &device);
        let (mut solo, solo_ends) = build_fleet(4, &device);
        max_ends[1] = fleet[1].series().len() + 7; // out-of-range bookkeeping

        let slots = search_all(&device, &mut fleet, &max_ends);
        assert!(matches!(slots[1], Err(SearchError::MaxEndBeyondHistory { .. })));
        for (s, index) in solo.iter_mut().enumerate() {
            if s == 1 {
                continue;
            }
            let expect = index.search(&device, solo_ends[s]);
            let got = slots[s].as_ref().expect("healthy slot");
            assert_bitwise_equal(got, &expect, &format!("sensor {s}"));
        }
    }

    #[test]
    fn nan_suffix_degrades_only_its_slot() {
        let device = Device::default_gpu();
        let (mut fleet, max_ends) = build_fleet(3, &device);
        let (mut solo, _) = build_fleet(3, &device);
        // Poison sensor 2's newest observation: every item query sees it.
        fleet[2].advance(&device, f64::NAN);
        solo[2].advance(&device, f64::NAN);

        let slots = search_all(&device, &mut fleet, &max_ends);
        assert!(matches!(slots[2], Err(SearchError::NonFiniteQuery { .. })));
        assert_eq!(
            slots[2].as_ref().err(),
            solo[2].try_search(&device, max_ends[2]).as_ref().err(),
            "the solo search reports the same typed error"
        );
        for (s, index) in solo.iter_mut().enumerate().take(2) {
            let expect = index.search(&device, max_ends[s]);
            let got = slots[s].as_ref().expect("healthy slot");
            assert_bitwise_equal(got, &expect, &format!("sensor {s}"));
        }
    }

    #[test]
    fn nan_in_longer_query_only_empties_that_item() {
        let device = Device::default_gpu();
        let (mut fleet, _) = build_fleet(2, &device);
        // Splice a NaN between the shortest (8) and longest (12) suffix of
        // sensor 0: item 0 stays clean, item 1 is poisoned.
        let len = fleet[0].series().len();
        let poison_at = len - 10;
        let mut solo_series = fleet[0].series().to_vec();
        solo_series[poison_at] = f64::NAN;
        fleet[0] = SmilerIndex::build(&device, solo_series, params());
        let max_ends: Vec<usize> = fleet.iter().map(|i| i.series().len() - 13).collect();

        let slots = search_all(&device, &mut fleet, &max_ends);
        let out = slots[0].as_ref().expect("poisoned long item degrades, not errors");
        assert!(!out.neighbors[0].is_empty(), "clean shortest item still ranks");
        assert!(out.neighbors[1].is_empty(), "poisoned longer item ranks nothing");
        assert_eq!(out.stats.unfiltered[1], 0);
        assert!(slots[1].is_ok());
    }

    #[test]
    fn try_fleet_matches_solo_try_search_slots() {
        let device = Device::default_gpu();
        let (mut fleet, max_ends) = build_fleet(3, &device);
        let (mut solo, _) = build_fleet(3, &device);
        let slots = search_all(&device, &mut fleet, &max_ends);
        for (s, index) in solo.iter_mut().enumerate() {
            let expect = index.try_search(&device, max_ends[s]).expect("healthy");
            let got = slots[s].as_ref().expect("healthy slot");
            assert_bitwise_equal(got, &expect, &format!("sensor {s}"));
        }
    }
}
