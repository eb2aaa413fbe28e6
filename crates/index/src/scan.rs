//! Scan baselines for the suffix kNN search (paper §6.2.1, Fig 7/8):
//!
//! * **FastGPUScan** — banded DTW between every item query and every
//!   candidate on the GPU, then GPU k-selection;
//! * **GPUScan** (Sart et al. 2010) — like FastGPUScan but without the
//!   Sakoe-Chiba constraint (full warping matrix);
//! * **FastCPUScan** — the UCR-style CPU pipeline: cascading `LB_Kim` →
//!   `LB_Keogh` pruning plus early-abandoning DTW with a running k-th-best
//!   threshold;
//! * **SMiLer-Dir** — SMiLer's filter/verify/select pipeline but with
//!   `LBen` computed *directly* per candidate (no window-level reuse); the
//!   Fig 8 comparison isolating the two-level index's contribution.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::search::{lb_threshold, verify_candidates, Neighbor, SearchError, VerifyJob};
use smiler_gpu::kselect;
use smiler_gpu::Device;
use smiler_timeseries::Envelope;

/// Result of one baseline suffix search: per item query (same order as
/// `lengths`), the k nearest segments sorted by ascending distance.
pub type ScanNeighbors = Vec<Vec<Neighbor>>;

fn item_queries<'s>(series: &'s [f64], lengths: &[usize]) -> Vec<&'s [f64]> {
    lengths.iter().map(|&d| &series[series.len() - d..]).collect()
}

fn candidate_count(d: usize, max_end: usize) -> usize {
    if max_end >= d {
        max_end - d + 1
    } else {
        0
    }
}

/// Select the k nearest from a dense distance array on the device. A
/// one-block grid always yields one result; an empty report (impossible by
/// the launch contract) degrades to no neighbours rather than panicking.
fn select_neighbors(device: &Device, distances: &[f64], k: usize) -> Vec<Neighbor> {
    let report = device.launch(1, |ctx| kselect::select_k_smallest(ctx, distances, k));
    let picks = report.results.into_iter().next().unwrap_or_default();
    picks.into_iter().map(|t| Neighbor { start: t, distance: distances[t] }).collect()
}

/// Banded-DTW distances of every candidate, chunked 256 per block.
fn scan_distances(
    device: &Device,
    series: &[f64],
    query: &[f64],
    rho: usize,
    max_end: usize,
) -> Vec<f64> {
    const THREADS: usize = 256;
    let d = query.len();
    let count = candidate_count(d, max_end);
    let blocks = count.div_ceil(THREADS);
    let report = device.launch(blocks, |ctx| {
        let lo = ctx.block_id() * THREADS;
        let hi = (lo + THREADS).min(count);
        ctx.read_global(d as u64); // stage query
        let ops = smiler_dtw::dtw_ops_estimate(d, rho);
        let mut out = Vec::with_capacity(hi - lo);
        for t in lo..hi {
            ctx.read_global(d as u64);
            ctx.flops(ops);
            out.push(smiler_dtw::dtw_compressed(query, &series[t..t + d], rho));
        }
        out
    });
    report.results.into_iter().flatten().collect()
}

/// FastGPUScan: banded DTW on every candidate + GPU k-selection.
pub fn fast_gpu_scan(
    device: &Device,
    series: &[f64],
    lengths: &[usize],
    k: usize,
    rho: usize,
    max_end: usize,
) -> ScanNeighbors {
    item_queries(series, lengths)
        .into_iter()
        .map(|query| {
            let distances = scan_distances(device, series, query, rho, max_end);
            select_neighbors(device, &distances, k)
        })
        .collect()
}

/// GPUScan (Sart et al.): full DTW — the band spans the whole matrix, which
/// is simply banded DTW with `ρ = d`.
pub fn gpu_scan(
    device: &Device,
    series: &[f64],
    lengths: &[usize],
    k: usize,
    max_end: usize,
) -> ScanNeighbors {
    item_queries(series, lengths)
        .into_iter()
        .map(|query| {
            let distances = scan_distances(device, series, query, query.len(), max_end);
            select_neighbors(device, &distances, k)
        })
        .collect()
}

/// FastCPUScan: the UCR-suite cascade on the CPU device. One block per item
/// query — the scan is inherently sequential because the k-th-best
/// threshold tightens as candidates are processed.
pub fn fast_cpu_scan(
    cpu: &Device,
    series: &[f64],
    lengths: &[usize],
    k: usize,
    rho: usize,
    max_end: usize,
) -> ScanNeighbors {
    let queries = item_queries(series, lengths);
    let report = cpu.launch(queries.len(), |ctx| {
        let query = queries[ctx.block_id()];
        let d = query.len();
        let count = candidate_count(d, max_end);
        let query_env = Envelope::compute(query, rho);
        ctx.flops(2 * d as u64); // envelope build

        // Max-heap of the best k so far (distance, start).
        let mut heap: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        let mut tau = f64::INFINITY;
        for t in 0..count {
            let cand = &series[t..t + d];
            // Stage 1: LB_Kim (O(1)).
            ctx.read_global(2);
            ctx.flops(6);
            if smiler_dtw::lb_kim_fl(query, cand) > tau {
                continue;
            }
            // Stage 2: LB_Keogh with the query envelope.
            ctx.read_global(d as u64);
            ctx.flops(3 * d as u64);
            if smiler_dtw::lb_keogh(cand, &query_env.upper, &query_env.lower) > tau {
                continue;
            }
            // Stage 3: early-abandoning DTW.
            let (dist, cells) = smiler_dtw::dtw_early_abandon_counted(query, cand, rho, tau);
            ctx.flops(6 * cells);
            // A NaN distance (poisoned history segment) slips past the
            // lower-bound stages — NaN fails every `> tau` comparison —
            // so it must be dropped here, mirroring `search.rs`'s
            // finite-filtered candidacy, or it would both corrupt the
            // heap order and poison τ.
            if let Some(dist) = dist.filter(|d| d.is_finite()) {
                heap.push((dist, t));
                heap.sort_by(|a, b| b.0.total_cmp(&a.0));
                if heap.len() > k {
                    heap.remove(0);
                }
                if heap.len() == k {
                    tau = heap[0].0;
                }
            }
        }
        heap.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        heap.into_iter().map(|(dist, t)| Neighbor { start: t, distance: dist }).collect::<Vec<_>>()
    });
    report.results
}

/// SMiLer-Dir (Fig 8): compute `LBen` directly per candidate — no window
/// level, no reuse across suffix queries — then the same filter / verify /
/// select pipeline as the index. Returns the neighbours and the simulated
/// **device-saturated** seconds spent on the direct lower-bound
/// computation alone (the quantity Fig 8 compares against the two-level
/// index's group pass), or the typed error if the verification kernel
/// cannot fit the device's shared memory.
pub fn smiler_dir(
    device: &Device,
    series: &[f64],
    lengths: &[usize],
    k: usize,
    rho: usize,
    max_end: usize,
) -> Result<(ScanNeighbors, f64), SearchError> {
    const THREADS: usize = 256;
    let series_env = Envelope::compute(series, rho);
    let mut lb_seconds = 0.0;
    let mut out: ScanNeighbors = Vec::with_capacity(lengths.len());
    for query in item_queries(series, lengths) {
        let d = query.len();
        let query_env = Envelope::compute(query, rho);
        let count = candidate_count(d, max_end);
        let verify = |starts: &[usize]| -> Result<Vec<f64>, SearchError> {
            let job = VerifyJob { series, query, rho, starts };
            Ok(verify_candidates(device, &[job])?.swap_remove(0))
        };
        // Direct LBen for every candidate (the expensive part Fig 8
        // measures).
        let t0 = device.saturated_seconds();
        let blocks = count.div_ceil(THREADS);
        let report = device.launch(blocks, |ctx| {
            let lo = ctx.block_id() * THREADS;
            let hi = (lo + THREADS).min(count);
            let mut out = Vec::with_capacity(hi - lo);
            for t in lo..hi {
                let cand = &series[t..t + d];
                ctx.read_global(2 * d as u64);
                ctx.flops(6 * d as u64);
                let lbeq = smiler_dtw::lb_keogh(cand, &query_env.upper, &query_env.lower);
                let lbec = smiler_dtw::lb_keogh(
                    query,
                    &series_env.upper[t..t + d],
                    &series_env.lower[t..t + d],
                );
                out.push(lbeq.max(lbec));
            }
            out
        });
        let lbs: Vec<f64> = report.results.into_iter().flatten().collect();
        lb_seconds += device.saturated_seconds() - t0;

        // Threshold: verify the k smallest lower bounds; τ = max DTW.
        if lbs.len() <= k {
            let all: Vec<usize> = (0..lbs.len()).collect();
            let dists = verify(&all)?;
            out.push(select_from(device, &all, &dists, k));
            continue;
        }
        let probes = device
            .launch(1, |ctx| kselect::select_k_smallest(ctx, &lbs, k))
            .results
            .into_iter()
            .next()
            .unwrap_or_default();
        let probe_dists = verify(&probes)?;
        // `f64::max` ignores NaN probe distances (poisoned history); a
        // fully poisoned probe set leaves τ at −∞, filtering everything.
        let tau = probe_dists.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let lb_tau = lb_threshold(tau);
        let survivors: Vec<usize> =
            (0..lbs.len()).filter(|&t| lbs[t] <= lb_tau && !probes.contains(&t)).collect();
        let dists = verify(&survivors)?;
        let mut verified: Vec<(usize, f64)> = probes.into_iter().zip(probe_dists).collect();
        verified.extend(survivors.into_iter().zip(dists));
        let (starts, vals): (Vec<usize>, Vec<f64>) = verified.into_iter().unzip();
        out.push(select_from(device, &starts, &vals, k));
    }
    Ok((out, lb_seconds))
}

fn select_from(device: &Device, starts: &[usize], dists: &[f64], k: usize) -> Vec<Neighbor> {
    let report = device.launch(1, |ctx| kselect::select_k_smallest(ctx, dists, k));
    let picks = report.results.into_iter().next().unwrap_or_default();
    picks.into_iter().map(|i| Neighbor { start: starts[i], distance: dists[i] }).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smiler_gpu::CpuSpec;

    fn make_series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (i as f64 * 0.21).sin() + (state % 100) as f64 / 50.0
            })
            .collect()
    }

    fn brute(series: &[f64], d: usize, rho: usize, k: usize, max_end: usize) -> Vec<Neighbor> {
        let query = &series[series.len() - d..];
        let mut all: Vec<Neighbor> = (0..=max_end - d)
            .map(|t| Neighbor {
                start: t,
                distance: smiler_dtw::dtw_banded(query, &series[t..t + d], rho),
            })
            .filter(|n| n.distance.is_finite())
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.start.cmp(&b.start)));
        all.truncate(k);
        all
    }

    const LENGTHS: [usize; 2] = [10, 14];
    const RHO: usize = 3;
    const K: usize = 4;

    fn assert_matches_brute(got: &ScanNeighbors, series: &[f64], max_end: usize) {
        for (i, &d) in LENGTHS.iter().enumerate() {
            let expect = brute(series, d, RHO, K, max_end);
            assert_eq!(got[i].len(), expect.len());
            for (g, e) in got[i].iter().zip(&expect) {
                assert!((g.distance - e.distance).abs() < 1e-9, "item {i}: {g:?} vs {e:?}");
            }
        }
    }

    #[test]
    fn fast_gpu_scan_is_exact() {
        let device = Device::default_gpu();
        let series = make_series(300, 1);
        let max_end = series.len() - 3;
        let got = fast_gpu_scan(&device, &series, &LENGTHS, K, RHO, max_end);
        assert_matches_brute(&got, &series, max_end);
    }

    #[test]
    fn fast_cpu_scan_is_exact() {
        let cpu = Device::cpu(CpuSpec::default());
        let series = make_series(300, 2);
        let max_end = series.len() - 3;
        let got = fast_cpu_scan(&cpu, &series, &LENGTHS, K, RHO, max_end);
        assert_matches_brute(&got, &series, max_end);
    }

    #[test]
    fn smiler_dir_is_exact() {
        let device = Device::default_gpu();
        let series = make_series(300, 3);
        let max_end = series.len() - 3;
        let (got, lb_seconds) =
            smiler_dir(&device, &series, &LENGTHS, K, RHO, max_end).expect("fits shared memory");
        assert_matches_brute(&got, &series, max_end);
        assert!(lb_seconds > 0.0);
    }

    #[test]
    fn nan_history_degrades_scans_without_panicking() {
        // A NaN spliced into the candidate region — the very fallback data
        // the robust path scans — must degrade the poisoned candidates,
        // not panic the baselines (the PR 3 sweep's remaining gap).
        let mut series = make_series(300, 6);
        series[40] = f64::NAN;
        series[41] = f64::NAN;
        let max_end = series.len() - 3;

        let cpu = Device::cpu(CpuSpec::default());
        let cpu_got = fast_cpu_scan(&cpu, &series, &LENGTHS, K, RHO, max_end);
        assert_matches_brute(&cpu_got, &series, max_end);

        let device = Device::default_gpu();
        let gpu_got = fast_gpu_scan(&device, &series, &LENGTHS, K, RHO, max_end);
        assert_matches_brute(&gpu_got, &series, max_end);

        let (dir_got, _) =
            smiler_dir(&device, &series, &LENGTHS, K, RHO, max_end).expect("fits shared memory");
        for (item, neighbors) in dir_got.iter().enumerate() {
            for n in neighbors {
                assert!(n.distance.is_finite(), "item {item}: {n:?}");
            }
        }
    }

    #[test]
    fn all_nan_history_yields_no_neighbours() {
        let mut series = make_series(120, 7);
        let n = series.len();
        for v in &mut series[..n - 20] {
            *v = f64::NAN;
        }
        let max_end = n - 20;
        let cpu = Device::cpu(CpuSpec::default());
        let got = fast_cpu_scan(&cpu, &series, &LENGTHS, K, RHO, max_end);
        for neighbors in &got {
            assert!(neighbors.is_empty());
        }
    }

    #[test]
    fn gpu_scan_unbanded_distances_not_larger() {
        // Without the band the warping is freer: distances can only shrink.
        let device = Device::default_gpu();
        let series = make_series(200, 4);
        let max_end = series.len() - 3;
        let banded = fast_gpu_scan(&device, &series, &LENGTHS, K, RHO, max_end);
        let full = gpu_scan(&device, &series, &LENGTHS, K, max_end);
        for i in 0..LENGTHS.len() {
            assert!(full[i][0].distance <= banded[i][0].distance + 1e-9);
        }
    }

    #[test]
    fn cpu_scan_abandons_work() {
        // The cascade must do measurably less simulated work than a naive
        // full scan on the same CPU model.
        let cpu_fast = Device::cpu(CpuSpec::default()).with_host_threads(1);
        let cpu_full = Device::cpu(CpuSpec::default()).with_host_threads(1);
        let series = make_series(600, 5);
        let max_end = series.len() - 3;
        fast_cpu_scan(&cpu_fast, &series, &LENGTHS, K, RHO, max_end);
        // Naive CPU scan: reuse the GPU scan kernel on the CPU device.
        fast_gpu_scan(&cpu_full, &series, &LENGTHS, K, RHO, max_end);
        assert!(
            cpu_fast.elapsed_seconds() < cpu_full.elapsed_seconds(),
            "cascade {} vs naive {}",
            cpu_fast.elapsed_seconds(),
            cpu_full.elapsed_seconds()
        );
    }
}
