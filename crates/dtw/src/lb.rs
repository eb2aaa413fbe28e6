//! Lower bounds of banded DTW: `LB_Kim`, `LB_Keogh` and the paper's
//! enhanced bound `LBen`.
//!
//! `LB_Keogh(E(X), Y)` accumulates, for each position `i`, the squared
//! distance from `y_i` to the envelope `[L_i, U_i]` of `X` (paper Eqn 26).
//! The paper names the two envelope directions `LBEQ(Q,C) =
//! LB_Keogh(E(Q), C)` (query envelope, walk the candidate) and `LBEC(Q,C) =
//! LB_Keogh(E(C), Q)` (candidate envelope, walk the query); both
//! lower-bound the same DTW, so their maximum `LBen` does too
//! (Theorem 4.1). On a CPU computing both doubles the filter cost, which is
//! why prior CPU pipelines pick one; the GPU's parallel slack makes both
//! free — the paper's §4.4 point, reproduced in Table 3.

use smiler_timeseries::{Envelope, EnvelopeScratch};

/// `LB_Keogh`: squared distance from `walk` to the envelope `[lower, upper]`.
///
/// `upper`/`lower` are the envelope of the *other* sequence, restricted to
/// the compared region; all three slices must have equal length.
///
/// The accumulation is the fixed 4-lane decomposition from `smiler-simd`
/// (element `i` into lane `i mod 4`, lanes combined `(l0+l2)+(l1+l3)`), so
/// the result is bitwise-identical whether the lane or scalar kernel
/// variant is dispatched.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn lb_keogh(walk: &[f64], upper: &[f64], lower: &[f64]) -> f64 {
    smiler_simd::lb_keogh(walk, upper, lower)
}

/// `LB_Keogh` against a whole [`Envelope`], convenience wrapper.
///
/// # Panics
/// Panics if `walk.len() != env.len()`.
pub fn lb_keogh_env(walk: &[f64], env: &Envelope) -> f64 {
    lb_keogh(walk, &env.upper, &env.lower)
}

/// The paper's enhanced lower bound `LBen = max(LBEQ, LBEC)` (§4.2).
///
/// `query_env` is the envelope of `query`; `cand_env` the envelope of
/// `candidate`. All slices cover the same `d` positions.
pub fn lb_en(
    query: &[f64],
    candidate: &[f64],
    query_env: (&[f64], &[f64]),
    cand_env: (&[f64], &[f64]),
) -> f64 {
    let lbeq = lb_keogh(candidate, query_env.0, query_env.1);
    let lbec = lb_keogh(query, cand_env.0, cand_env.1);
    lbeq.max(lbec)
}

/// Reusable workspace for [`lb_improved_second_pass`]: the projected
/// sequence `H`, its envelope, and the deque scratch for computing it —
/// zero allocations once the buffers have grown to the walk length.
#[derive(Debug, Clone, Default)]
pub struct LbImprovedScratch {
    h: Vec<f64>,
    h_env: Envelope,
    env_scratch: EnvelopeScratch,
}

impl LbImprovedScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        LbImprovedScratch::default()
    }
}

/// Second pass of Lemire's two-pass lower bound `LB_Improved`.
///
/// Given `candidate` and the envelope of `query`, project the candidate
/// onto that envelope — `h_i = min(max(c_i, L_i), U_i)` — and return
/// `LB_Keogh(query, E(H))`. Lemire (2009) shows
/// `LB_Improved = LB_Keogh(candidate, E(query)) + LB_Keogh(query, E(H))`
/// still lower-bounds banded DTW: the first term is the distance from the
/// candidate to the query's envelope, the second the distance from the
/// query to the envelope of the projected candidate, and the two act on
/// disjoint error components. This function computes only the second term
/// so a cascade that already holds `LB_Keogh(candidate, E(query))` can
/// reuse it as the first.
///
/// Cost is O(d): one clamp pass, one monotonic-deque envelope, one
/// LB_Keogh pass — roughly 6× a plain LB_Keogh but ~16× cheaper than a
/// full banded DTW at the paper's `d = 96, ρ = 8`.
///
/// # Panics
/// Panics if `query`, `candidate` and `query_env` lengths differ.
pub fn lb_improved_second_pass(
    query: &[f64],
    candidate: &[f64],
    query_env: &Envelope,
    scratch: &mut LbImprovedScratch,
) -> f64 {
    assert_eq!(query.len(), candidate.len(), "LB_Improved length mismatch");
    assert_eq!(query.len(), query_env.len(), "LB_Improved length mismatch");
    smiler_simd::clamp_to_envelope(candidate, &query_env.upper, &query_env.lower, &mut scratch.h);
    scratch.h_env.compute_into(&scratch.h, query_env.rho(), &mut scratch.env_scratch);
    lb_keogh(query, &scratch.h_env.upper, &scratch.h_env.lower)
}

/// Lemire's full `LB_Improved` bound: `LB_Keogh(candidate, E(query))` plus
/// the [second pass](lb_improved_second_pass). Always ≥ `LB_Keogh` and
/// never exceeds banded DTW at the same warping width.
///
/// # Panics
/// Panics if `query`, `candidate` and `query_env` lengths differ.
pub fn lb_improved(
    query: &[f64],
    candidate: &[f64],
    query_env: &Envelope,
    scratch: &mut LbImprovedScratch,
) -> f64 {
    lb_keogh_env(candidate, query_env)
        + lb_improved_second_pass(query, candidate, query_env, scratch)
}

/// `LB_Kim` (first/last variant): the squared differences of the first and
/// last points lower-bound banded DTW because those points must match each
/// other at the path's endpoints. For a single point the two ends are one
/// cell, counted once. O(1); the first stage of the CPU cascade.
///
/// # Panics
/// Panics if either sequence is empty or lengths differ.
pub fn lb_kim_fl(q: &[f64], c: &[f64]) -> f64 {
    assert_eq!(q.len(), c.len(), "LB_Kim length mismatch");
    assert!(!q.is_empty(), "LB_Kim of empty sequences");
    let first = q[0] - c[0];
    if q.len() == 1 {
        return first * first;
    }
    let last = q[q.len() - 1] - c[c.len() - 1];
    first * first + last * last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::dtw_banded;
    use proptest::prelude::*;
    use smiler_timeseries::Envelope;

    fn lbeq(q: &[f64], c: &[f64], rho: usize) -> f64 {
        let env = Envelope::compute(q, rho);
        lb_keogh_env(c, &env)
    }

    fn lbec(q: &[f64], c: &[f64], rho: usize) -> f64 {
        let env = Envelope::compute(c, rho);
        lb_keogh_env(q, &env)
    }

    #[test]
    fn zero_for_identical() {
        let q = [1.0, 2.0, 3.0];
        assert_eq!(lbeq(&q, &q, 1), 0.0);
        assert_eq!(lbec(&q, &q, 1), 0.0);
        assert_eq!(lb_kim_fl(&q, &q), 0.0);
    }

    #[test]
    fn inside_envelope_contributes_nothing() {
        let walk = [0.5, 0.5];
        assert_eq!(lb_keogh(&walk, &[1.0, 1.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn outside_envelope_squared_distance() {
        // 2 above upper and 1 below lower → 4 + 1.
        let walk = [3.0, -1.0];
        assert_eq!(lb_keogh(&walk, &[1.0, 1.0], &[0.0, 0.0]), 5.0);
    }

    #[test]
    fn lb_en_is_max_of_directions() {
        let q = [0.0, 1.0, 4.0, 2.0];
        let c = [1.0, 3.0, 0.0, 0.5];
        let rho = 1;
        let qe = Envelope::compute(&q, rho);
        let ce = Envelope::compute(&c, rho);
        let en = lb_en(&q, &c, (&qe.upper, &qe.lower), (&ce.upper, &ce.lower));
        assert_eq!(en, lbeq(&q, &c, rho).max(lbec(&q, &c, rho)));
    }

    #[test]
    fn kim_bound_is_tight_on_endpoint_mismatch() {
        let q = [5.0, 0.0, 0.0, 7.0];
        let c = [1.0, 0.0, 0.0, 2.0];
        assert_eq!(lb_kim_fl(&q, &c), 16.0 + 25.0);
        assert!(lb_kim_fl(&q, &c) <= dtw_banded(&q, &c, 1));
    }

    proptest! {
        #[test]
        fn lower_bounds_never_exceed_dtw(
            (q, c) in (1usize..40).prop_flat_map(|n| (
                prop::collection::vec(-10.0f64..10.0, n),
                prop::collection::vec(-10.0f64..10.0, n),
            )),
            rho in 0usize..8,
        ) {
            let d = dtw_banded(&q, &c, rho);
            let eq = lbeq(&q, &c, rho);
            let ec = lbec(&q, &c, rho);
            prop_assert!(eq <= d + 1e-9, "LBEQ {} > DTW {}", eq, d);
            prop_assert!(ec <= d + 1e-9, "LBEC {} > DTW {}", ec, d);
            prop_assert!(lb_kim_fl(&q, &c) <= d + 1e-9);
        }

        #[test]
        fn lb_en_dominates_components(
            (q, c) in (2usize..30).prop_flat_map(|n| (
                prop::collection::vec(-5.0f64..5.0, n),
                prop::collection::vec(-5.0f64..5.0, n),
            )),
            rho in 0usize..6,
        ) {
            let qe = Envelope::compute(&q, rho);
            let ce = Envelope::compute(&c, rho);
            let en = lb_en(&q, &c, (&qe.upper, &qe.lower), (&ce.upper, &ce.lower));
            prop_assert!(en >= lbeq(&q, &c, rho));
            prop_assert!(en >= lbec(&q, &c, rho));
            prop_assert!(en <= dtw_banded(&q, &c, rho) + 1e-9);
        }

        #[test]
        fn lb_improved_dominates_keogh_and_respects_dtw(
            (q, c) in (2usize..36).prop_flat_map(|n| (
                prop::collection::vec(-8.0f64..8.0, n),
                prop::collection::vec(-8.0f64..8.0, n),
            )),
            rho in 0usize..8,
        ) {
            let qe = Envelope::compute(&q, rho);
            let mut scratch = LbImprovedScratch::new();
            let improved = lb_improved(&q, &c, &qe, &mut scratch);
            let keogh = lb_keogh_env(&c, &qe);
            let d = dtw_banded(&q, &c, rho);
            prop_assert!(improved >= keogh, "LB_Improved {} < LB_Keogh {}", improved, keogh);
            prop_assert!(improved <= d + 1e-9, "LB_Improved {} > DTW {}", improved, d);
        }

        #[test]
        fn lb_improved_reused_scratch_matches_fresh(
            pairs in prop::collection::vec(
                (2usize..30).prop_flat_map(|n| (
                    prop::collection::vec(-5.0f64..5.0, n),
                    prop::collection::vec(-5.0f64..5.0, n),
                    0usize..6,
                )),
                1..5,
            ),
        ) {
            let mut scratch = LbImprovedScratch::new();
            for (q, c, rho) in &pairs {
                let qe = Envelope::compute(q, *rho);
                let reused = lb_improved(q, c, &qe, &mut scratch);
                let fresh = lb_improved(q, c, &qe, &mut LbImprovedScratch::new());
                prop_assert_eq!(reused.to_bits(), fresh.to_bits());
            }
        }

        #[test]
        fn tighter_band_gives_larger_bound(
            (q, c) in (2usize..30).prop_flat_map(|n| (
                prop::collection::vec(-5.0f64..5.0, n),
                prop::collection::vec(-5.0f64..5.0, n),
            )),
            rho in 0usize..6,
        ) {
            // Envelopes of a narrower band are tighter → LB is larger.
            prop_assert!(lbeq(&q, &c, rho) >= lbeq(&q, &c, rho + 1) - 1e-12);
        }
    }
}
