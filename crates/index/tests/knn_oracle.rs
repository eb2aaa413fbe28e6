//! Differential oracle for the suffix kNN pipeline: a brute-force banded-DTW
//! kNN (`smiler_dtw::dtw_banded` over every candidate) against
//! `SmilerIndex::try_search` and `try_fleet_search`, on inputs chosen to
//! break a filter-and-refine search — exact distance ties at the k-th
//! place, lower bounds that equal the DTW they guard, NaN gaps, flat
//! segments, degenerate bands, one-point item queries (where a first/last
//! bound's two ends are one cell), fewer candidates than neighbours — cold
//! and over continuous steps, for both threshold strategies.
//!
//! What is asserted, per case × strategy × step × sensor:
//!
//! * **one pipeline**: `try_search(i)`, `try_fleet_search([i])[0]` and the
//!   sensor's slot in a fleet of four agree bit for bit (`start`,
//!   `distance.to_bits()`, `stats.candidates`, `stats.unfiltered`);
//! * **lazy catch-up**: a fleet fed only by `append` and searched after gaps
//!   of 0, 1, 5 and 500 observations agrees bit for bit with a twin that
//!   rotates its index on every observation; so does a fleet that mixes an
//!   index never built with lags of 0, 1, 3, 5 and 500 and catches up in
//!   one launch per phase, on 1, 2 and 4 host threads;
//! * **genuine**: every returned neighbour's distance is bitwise the
//!   brute-force DTW of its start, finite, within `max_end`, listed once,
//!   in ascending order;
//! * **no false dismissals**: wherever the filter threshold τ is an upper
//!   bound the test can name, every true neighbour at or below it is
//!   returned at its rank. Cold `ExactKBest` (τ bounds the k-th NN
//!   distance) must therefore return the exact kNN distances; a continuous
//!   step (τ = DTW of the previous k-th NN to the new query, §4.3.3
//!   method 2) must return every true neighbour within that τ. Cold
//!   `PaperKthLb` names no such bound — only the first two properties hold.

use smiler_gpu::Device;
use smiler_index::group::compute_group_bounds;
use smiler_index::window::WindowIndex;
use smiler_index::{
    try_fleet_search, IndexParams, Neighbor, SearchOutput, SmilerIndex, ThresholdStrategy,
};
use smiler_timeseries::Envelope;

const FLEET: usize = 4;
const H: usize = 3;

fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as f64 * 0.13).sin() * 2.0 + (state % 1000) as f64 / 500.0
        })
        .collect()
}

fn small(rho: usize) -> IndexParams {
    IndexParams { rho, omega: 4, lengths: vec![8, 12, 16], k_max: 5 }
}

struct Case {
    name: &'static str,
    params: IndexParams,
    /// History of sensor `s` and the values its continuous steps absorb.
    feed: fn(usize) -> (Vec<f64>, Vec<f64>),
}

/// A 20-periodic pattern repeated verbatim: segments one period apart are
/// bitwise equal, so every distance — the k-th included — comes in ties.
fn periodic(s: usize) -> (Vec<f64>, Vec<f64>) {
    let pattern = noise(20, 40 + s as u64);
    let all: Vec<f64> = (0..246).map(|i| pattern[i % 20]).collect();
    (all[..240].to_vec(), all[240..].to_vec())
}

/// NaN gaps across the history, the last one inside the longest item query
/// only: that query ranks nothing until the gap slides out of it.
fn nan_gaps(s: usize) -> (Vec<f64>, Vec<f64>) {
    let mut all = noise(266, 50 + s as u64);
    for at in [30 + s, 31 + s, 97, 150 + 2 * s, 151 + 2 * s, 152 + 2 * s, 215, 246] {
        all[at] = f64::NAN;
    }
    (all[..260].to_vec(), all[260..].to_vec())
}

/// Noise interrupted by constant runs, ending inside one: flat queries
/// against flat candidates collapse envelopes and bounds to zero.
fn flat_runs(s: usize) -> (Vec<f64>, Vec<f64>) {
    let mut all = noise(246, 60 + s as u64);
    for (i, v) in all.iter_mut().enumerate() {
        if i % 60 >= 35 {
            *v = 1.5;
        }
    }
    (all[..240].to_vec(), all[240..].to_vec())
}

/// Where [`exact_bounds`] puts its block in sensor `s`'s history (a
/// multiple of ω, so the three excursions sit in three disjoint windows).
fn exact_block_start(s: usize) -> usize {
    40 + 4 * s
}

/// A flat query against a block that equals it except for three excursions
/// in three disjoint windows, far from everything else. The query's
/// envelope has zero width there, so ΣLB_Keogh and DTW are the same three
/// squares — summed right to left by the group bound, left to right by the
/// DTW, and with these values the bound rounds one ulp *above* the
/// distance. Seven alignments of the block tie bit for bit at the k-th
/// place, and on a continuous step τ is exactly that distance.
fn exact_bounds(s: usize) -> (Vec<f64>, Vec<f64>) {
    const FLAT: f64 = 1.5;
    let far = |n: usize, seed: u64| noise(n, seed).into_iter().map(|v| v + 10.0);
    let mut block = [FLAT; 24];
    (block[6], block[10], block[14]) = (1.6, 1.7, 1.3);
    let mut all: Vec<f64> = far(exact_block_start(s), 100 + s as u64).collect();
    all.extend(block);
    all.extend(far(40, 110 + s as u64));
    all.extend([FLAT; 16 + 6]);
    let split = all.len() - 6;
    (all[..split].to_vec(), all[split..].to_vec())
}

fn random(s: usize) -> (Vec<f64>, Vec<f64>) {
    let all = noise(308 + 10 * s, 70 + s as u64);
    let split = all.len() - 8;
    (all[..split].to_vec(), all[split..].to_vec())
}

/// Candidate sets that start at or below k for every item query and
/// outgrow it as steps arrive.
fn short_history(s: usize) -> (Vec<f64>, Vec<f64>) {
    let all = noise(28 + s, 80 + s as u64);
    (all[..22 + s].to_vec(), all[22 + s..].to_vec())
}

fn paper_scale(s: usize) -> (Vec<f64>, Vec<f64>) {
    let all = noise(505, 90 + s as u64);
    (all[..500].to_vec(), all[500..].to_vec())
}

fn cases() -> Vec<Case> {
    vec![
        Case { name: "ties at the k-th place", params: small(3), feed: periodic },
        Case { name: "bound equal to DTW", params: small(3), feed: exact_bounds },
        Case { name: "NaN gaps in history", params: small(3), feed: nan_gaps },
        Case { name: "flat segments", params: small(3), feed: flat_runs },
        Case { name: "rho = 0", params: small(0), feed: random },
        Case { name: "rho = d", params: small(16), feed: random },
        Case {
            name: "at most k candidates",
            params: IndexParams { k_max: 16, ..small(3) },
            feed: short_history,
        },
        Case {
            name: "one-point windows",
            params: IndexParams { rho: 1, omega: 1, lengths: vec![1, 2], k_max: 3 },
            feed: random,
        },
        Case { name: "random, small scale", params: small(3), feed: random },
        Case { name: "random, paper scale", params: IndexParams::default(), feed: paper_scale },
    ]
}

/// Every candidate with a finite banded DTW to the current item query of
/// length `d`, nearest first.
fn brute_force(series: &[f64], d: usize, rho: usize, max_end: usize) -> Vec<Neighbor> {
    let query = &series[series.len() - d..];
    let mut all: Vec<Neighbor> = (0..(max_end + 1).saturating_sub(d))
        .map(|t| Neighbor {
            start: t,
            distance: smiler_dtw::dtw_banded(query, &series[t..t + d], rho),
        })
        .filter(|nb| nb.distance.is_finite())
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.start.cmp(&b.start)));
    all
}

fn assert_same_answer(got: &SearchOutput, expect: &SearchOutput, what: &str) {
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

/// Check one sensor's answer against the brute-force oracle. `prev` is the
/// sensor's previous answer (the continuous-reuse state), `cold_exact`
/// whether a cold threshold bounds the k-th NN distance.
fn check_against_oracle(
    series: &[f64],
    params: &IndexParams,
    out: &SearchOutput,
    prev: Option<&SearchOutput>,
    cold_exact: bool,
    what: &str,
) {
    let max_end = series.len() - H;
    let k = params.k_max;
    for (i, &d) in params.lengths.iter().enumerate() {
        let what = format!("{what} d={d}");
        let got = &out.neighbors[i];
        let query = &series[series.len() - d..];
        assert_eq!(out.stats.candidates[i], (max_end + 1).saturating_sub(d), "{what}");
        assert!(out.stats.unfiltered[i] <= out.stats.candidates[i], "{what}");
        assert!(got.len() <= out.stats.unfiltered[i], "{what}: more neighbours than survivors");
        if query.iter().any(|v| !v.is_finite()) {
            assert!(got.is_empty(), "{what}: a poisoned query ranks nothing");
            continue;
        }

        // Genuine.
        for (j, nb) in got.iter().enumerate() {
            assert!(nb.start + d <= max_end, "{what}: neighbour {j} past max_end");
            let truth = smiler_dtw::dtw_banded(query, &series[nb.start..nb.start + d], params.rho);
            assert!(truth.is_finite(), "{what}: neighbour {j} has a non-finite distance");
            assert_eq!(nb.distance.to_bits(), truth.to_bits(), "{what}: neighbour {j} distance");
            assert!(j == 0 || got[j - 1].distance <= nb.distance, "{what}: not ascending at {j}");
            assert!(got[..j].iter().all(|o| o.start != nb.start), "{what}: duplicate start");
        }

        // No false dismissals within the threshold the test can name.
        let truth = brute_force(series, d, params.rho, max_end);
        let reuse_tau = prev.and_then(|p| p.neighbors[i].last()).and_then(|kth| {
            let seg = series.get(kth.start..kth.start + d)?;
            Some(smiler_dtw::dtw_banded(query, seg, params.rho)).filter(|tau| tau.is_finite())
        });
        let tau = match reuse_tau {
            Some(tau) => tau,
            None if cold_exact || truth.len() <= k => f64::INFINITY,
            None => continue,
        };
        let due: Vec<u64> = truth
            .iter()
            .take(k)
            .take_while(|nb| nb.distance <= tau)
            .map(|nb| nb.distance.to_bits())
            .collect();
        let returned: Vec<u64> =
            got.iter().take(due.len()).map(|nb| nb.distance.to_bits()).collect();
        assert_eq!(returned, due, "{what}: false dismissal within tau={tau}");
        if tau == f64::INFINITY {
            assert_eq!(got.len(), truth.len().min(k), "{what}: exact kNN size");
        }
    }
}

/// The premise of the "bound equal to DTW" case, checked on the real
/// kernels: the group-level bound of an aligned block candidate exceeds its
/// DTW (so a bare `lb <= tau` would dismiss an exact tie).
#[test]
fn exact_bounds_case_rounds_the_group_bound_above_the_dtw() {
    let device = Device::default_gpu();
    let params = small(3);
    let (series, _) = exact_bounds(0);
    let d = 16;
    let query = &series[series.len() - d..];
    let windex = WindowIndex::build(
        &device,
        &series,
        &Envelope::compute(&series, params.rho),
        query,
        &Envelope::compute(query, params.rho),
        params.omega,
        params.rho,
    );
    let bounds = compute_group_bounds(&device, &windex, &params.lengths, series.len() - H);
    for t in exact_block_start(0)..=exact_block_start(0) + 4 {
        let dtw = smiler_dtw::dtw_banded(query, &series[t..t + d], params.rho);
        let lb = bounds.lbw(2, t);
        assert!(lb > dtw && lb < dtw * (1.0 + 1e-12), "t={t}: bound {lb:e} vs DTW {dtw:e}");
    }
}

#[test]
fn unified_pipeline_matches_brute_force_on_adversarial_inputs() {
    let device = Device::default_gpu();
    for case in cases() {
        for strategy in [ThresholdStrategy::ExactKBest, ThresholdStrategy::PaperKthLb] {
            let feeds: Vec<(Vec<f64>, Vec<f64>)> = (0..FLEET).map(case.feed).collect();
            let build = || -> Vec<SmilerIndex> {
                feeds
                    .iter()
                    .map(|(history, _)| {
                        SmilerIndex::build(&device, history.clone(), case.params.clone())
                            .with_threshold(strategy)
                    })
                    .collect()
            };
            // The same sensors searched three ways.
            let (mut solo, mut fleet_of_one, mut fleet) = (build(), build(), build());
            let steps = feeds[0].1.len();
            assert!(steps >= 4, "{}: at least four continuous steps", case.name);
            let mut prev: Vec<Option<SearchOutput>> = vec![None; FLEET];

            for step in 0..=steps {
                if step > 0 {
                    for (s, (_, future)) in feeds.iter().enumerate() {
                        for index in [&mut solo[s], &mut fleet_of_one[s], &mut fleet[s]] {
                            index.advance(&device, future[step - 1]);
                        }
                    }
                }
                let max_ends: Vec<usize> = solo.iter().map(|i| i.series().len() - H).collect();
                let mut refs: Vec<&mut SmilerIndex> = fleet.iter_mut().collect();
                let fleet_out = try_fleet_search(&device, &mut refs, &max_ends);

                for s in 0..FLEET {
                    let what = format!("{} / {strategy:?} / step {step} / sensor {s}", case.name);
                    let alone = solo[s].try_search(&device, max_ends[s]);
                    let one =
                        try_fleet_search(&device, &mut [&mut fleet_of_one[s]], &max_ends[s..=s])
                            .pop()
                            .expect("one slot");
                    let (alone, one, batched) = match (alone, one, &fleet_out[s]) {
                        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                        (a, b, c) => {
                            // A typed error must be the same error everywhere
                            // and leave the continuous-reuse state untouched.
                            assert_eq!(a.as_ref().err(), b.as_ref().err(), "{what}");
                            assert_eq!(a.as_ref().err(), c.as_ref().err(), "{what}");
                            assert!(a.is_err(), "{what}: Ok and Err slots disagree");
                            continue;
                        }
                    };
                    assert_same_answer(&one, &alone, &format!("{what}: fleet of one vs solo"));
                    assert_same_answer(batched, &alone, &format!("{what}: fleet of four vs solo"));
                    check_against_oracle(
                        solo[s].series(),
                        &case.params,
                        &alone,
                        prev[s].as_ref(),
                        strategy == ThresholdStrategy::ExactKBest,
                        &what,
                    );
                    prev[s] = Some(alone);
                }
            }

            // A fourth fleet hears only `append` and is searched after gaps
            // of 0, 1, 5 and 500 observations (the feed's steps, then its
            // history, cycled) against a twin that rotates on every one.
            let (mut lazy, mut eager) = (build(), build());
            let mut tails: Vec<_> = feeds
                .iter()
                .map(|(history, future)| future.iter().chain(history).cycle())
                .collect();
            let mut prev: Vec<Option<SearchOutput>> = vec![None; FLEET];
            for gap in [0, 1, 5, 500] {
                for _ in 0..gap {
                    for (s, tail) in tails.iter_mut().enumerate() {
                        let v = *tail.next().expect("a cycled feed never ends");
                        lazy[s].append(v);
                        eager[s].advance(&device, v);
                    }
                }
                let max_ends: Vec<usize> = eager.iter().map(|i| i.series().len() - H).collect();
                let mut refs: Vec<&mut SmilerIndex> = lazy.iter_mut().collect();
                let lazy_out = try_fleet_search(&device, &mut refs, &max_ends);
                let mut refs: Vec<&mut SmilerIndex> = eager.iter_mut().collect();
                let eager_out = try_fleet_search(&device, &mut refs, &max_ends);
                for (s, (got, want)) in lazy_out.into_iter().zip(&eager_out).enumerate() {
                    let what = format!("{} / {strategy:?} / gap {gap} / sensor {s}", case.name);
                    let got = match (got, want) {
                        (Ok(got), Ok(want)) => {
                            assert_same_answer(&got, want, &format!("{what}: lazy vs eager"));
                            got
                        }
                        (got, want) => {
                            assert_eq!(got.err(), want.as_ref().err().cloned(), "{what}");
                            continue;
                        }
                    };
                    check_against_oracle(
                        lazy[s].series(),
                        &case.params,
                        &got,
                        prev[s].as_ref(),
                        strategy == ThresholdStrategy::ExactKBest,
                        &what,
                    );
                    prev[s] = Some(got);
                }
            }
        }
    }
}

/// An index's whole state as text. `f64`'s `Debug` form is the shortest
/// that round-trips, so equal text means equal bits in the history, the
/// envelopes, every posting list and the continuous-reuse state (NaN
/// payloads aside).
fn state(index: &SmilerIndex) -> String {
    format!("{index:?}")
}

/// One `try_fleet_search` catches up a fleet that mixes an index never
/// built (`SmilerIndex::new`) with indexes lagging by 0, 1, 3, the rebuild
/// crossover and 500 observations. Every sensor ends bitwise equal — kNN,
/// envelopes, posting lists — to an eager twin that rotated on every
/// observation, and the catch-up takes one launch per phase: one for all
/// the rebuilds, then one per rotation step, carrying every sensor that
/// still lags. Caught up one sensor at a time instead, the same blocks
/// take one launch per sensor and step.
#[test]
fn fused_catch_up_matches_eager_twins_in_one_launch_per_phase() {
    /// The lag from which a catch-up rebuilds (the index's `REBUILD_LAG`).
    const REBUILD_LAG: usize = 5;
    let lags = [None, Some(0), Some(1), Some(3), Some(REBUILD_LAG), Some(500)];
    // One launch for the three rebuilds, then rotations 1..=3.
    const FUSED_LAUNCHES: u64 = 1 + 3;
    // Per sensor: three rebuilds, then 0 + 1 + 3 rotations.
    const SOLO_LAUNCHES: u64 = 3 + 4;
    let params = small(3);
    let feeds: Vec<(Vec<f64>, Vec<f64>)> =
        (0..lags.len()).map(|s| (random(s).0, noise(500, 300 + s as u64))).collect();

    for threads in [1, 2, 4] {
        let device = || Device::default_gpu().with_host_threads(threads);
        let (fused_dev, twin_dev, solo_dev, solo_twin_dev) =
            (device(), device(), device(), device());
        let lazy_fleet = |device: &Device| -> Vec<SmilerIndex> {
            feeds
                .iter()
                .zip(lags)
                .map(|((history, future), lag)| match lag {
                    None => SmilerIndex::new(history.clone(), params.clone()),
                    Some(lag) => {
                        let mut index = SmilerIndex::build(device, history.clone(), params.clone());
                        future[..lag].iter().for_each(|&v| index.append(v));
                        index
                    }
                })
                .collect()
        };
        let eager_fleet = |device: &Device| -> Vec<SmilerIndex> {
            feeds
                .iter()
                .zip(lags)
                .map(|((history, future), lag)| {
                    let mut index = SmilerIndex::build(device, history.clone(), params.clone());
                    future[..lag.unwrap_or(0)].iter().for_each(|&v| index.advance(device, v));
                    index
                })
                .collect()
        };
        let (mut fused, mut twins) = (lazy_fleet(&fused_dev), eager_fleet(&twin_dev));
        let (mut solo, mut solo_twins) = (lazy_fleet(&solo_dev), eager_fleet(&solo_twin_dev));
        for dev in [&fused_dev, &twin_dev, &solo_dev, &solo_twin_dev] {
            dev.reset_clock();
        }
        let max_ends: Vec<usize> = twins.iter().map(|i| i.series().len() - H).collect();
        let got =
            try_fleet_search(&fused_dev, &mut fused.iter_mut().collect::<Vec<_>>(), &max_ends);
        let want =
            try_fleet_search(&twin_dev, &mut twins.iter_mut().collect::<Vec<_>>(), &max_ends);
        for (s, (index, &max_end)) in solo.iter_mut().zip(&max_ends).enumerate() {
            index.try_search(&solo_dev, max_end).expect("healthy sensor");
            solo_twins[s].try_search(&solo_twin_dev, max_end).expect("healthy sensor");
        }

        for (s, (got, want)) in got.iter().zip(&want).enumerate() {
            let what = format!("{threads} threads / sensor {s} / lag {:?}", lags[s]);
            let (got, want) = (got.as_ref().expect("healthy"), want.as_ref().expect("healthy"));
            assert_same_answer(got, want, &format!("{what}: fused vs eager"));
            check_against_oracle(fused[s].series(), &params, got, None, true, &what);
            assert!(state(&fused[s]) == state(&twins[s]), "{what}: fused state vs eager twin");
            assert!(state(&solo[s]) == state(&twins[s]), "{what}: solo state vs eager twin");
        }
        let catch_up = |lazy: &Device, eager: &Device| {
            (
                lazy.kernel_launches() - eager.kernel_launches(),
                lazy.blocks_launched() - eager.blocks_launched(),
            )
        };
        let (fused_launches, fused_blocks) = catch_up(&fused_dev, &twin_dev);
        let (solo_launches, solo_blocks) = catch_up(&solo_dev, &solo_twin_dev);
        assert_eq!(fused_launches, FUSED_LAUNCHES, "{threads} threads: one launch per phase");
        assert_eq!(solo_launches, SOLO_LAUNCHES, "{threads} threads: one launch per sensor step");
        assert_eq!(fused_blocks, solo_blocks, "{threads} threads: fusing adds no block");
    }
}
