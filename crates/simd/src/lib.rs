//! Portable explicit-width SIMD lanes for the SMiLer hot kernels.
//!
//! Every reduction in the hot path (LB_Keogh accumulation, dot products,
//! squared distances, envelope min/max) is defined here **once**, as a
//! fixed 4-lane decomposition: element `i` contributes to accumulator lane
//! `i mod 4`, and lanes are combined in the fixed order
//! `(l0 ⊕ l2) ⊕ (l1 ⊕ l3)`. Each kernel comes as a pair:
//!
//! * the un-suffixed kernel every caller uses, written over the [`F64x4`]
//!   lane type so the compiler autovectorises the chunked loop (no
//!   `unsafe`, no target-feature gambling — portable SIMD on stable Rust);
//! * its `_scalar` twin, a plain indexed loop over the same four
//!   accumulators, kept as the reference the property tests compare
//!   against.
//!
//! Because both variants perform the identical floating-point operations in
//! the identical order, their results are **bitwise equal by construction**
//! — the property tests at the bottom of this file pin that down across odd
//! lengths, remainder lanes and NaN-bearing inputs. One carve-out: when two
//! NaN *operands* meet in a `+`/`*` (possible only if the input already
//! contains NaNs or paired infinities), the payload and sign bits of the
//! resulting NaN are unspecified — hardware propagates the first operand's
//! payload and the compiler may commute commutative ops differently per
//! variant — so equivalence there is up to NaN canonicalisation. Every
//! numeric result, every single-NaN propagation, and everything routed
//! through [`fmin`]/[`fmax`] (which swallow NaN deterministically) remains
//! exactly bitwise paired.
//!
//! Min/max use the NaN-ignoring, tie-deterministic [`fmin`]/[`fmax`]
//! defined here rather than `f64::min`/`f64::max`, so both variants share
//! one totally-specified semantics (IEEE `maxNum` leaves the sign of a
//! `±0` tie unspecified).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Number of f64 lanes in the portable vector type.
pub const LANES: usize = 4;

/// The kernel variant callers run, for the benchmark's report stamp.
pub fn dispatch_label() -> &'static str {
    "lanes"
}

/// NaN-ignoring maximum with a deterministic tie rule: returns `b` iff
/// `b > a` or `a` is NaN (so `±0` ties keep `a`). Agrees with `f64::max`
/// on all inputs where that function's result is specified.
#[inline(always)]
pub fn fmax(a: f64, b: f64) -> f64 {
    if b > a || a.is_nan() {
        b
    } else {
        a
    }
}

/// NaN-ignoring minimum, the mirror of [`fmax`].
#[inline(always)]
pub fn fmin(a: f64, b: f64) -> f64 {
    if b < a || a.is_nan() {
        b
    } else {
        a
    }
}

/// A portable 4-wide f64 lane vector. All operations are element-wise plain
/// loops over the array — exactly the shape LLVM's autovectoriser turns
/// into packed instructions on every x86-64 / aarch64 baseline — and no
/// operation ever reassociates across lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Load four consecutive elements.
    ///
    /// # Panics
    /// Panics if `s.len() < 4`.
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        F64x4([s[0], s[1], s[2], s[3]])
    }

    /// The lane array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Lane-wise [`fmax`].
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = fmax(*o, r);
        }
        F64x4(out)
    }

    /// Lane-wise [`fmin`].
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = fmin(*o, r);
        }
        F64x4(out)
    }
}

/// Lane-wise addition.
impl std::ops::Add for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o += r;
        }
        F64x4(out)
    }
}

/// Lane-wise subtraction.
impl std::ops::Sub for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o -= r;
        }
        F64x4(out)
    }
}

/// Lane-wise multiplication.
impl std::ops::Mul for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o *= r;
        }
        F64x4(out)
    }
}

/// Per-element LB_Keogh contribution: squared distance from `v` to the
/// interval `[l, u]`, branchless so it has one flop schedule in every lane.
/// A NaN in any operand contributes `0.0` — matching the branchy reference
/// (`v > u` and `v < l` are both false for NaN), so poisoned values never
/// inflate a lower bound.
#[inline(always)]
fn keogh_contrib(v: f64, u: f64, l: f64) -> f64 {
    let over = fmax(v - u, 0.0);
    let under = fmax(l - v, 0.0);
    over * over + under * under
}

/// `LB_Keogh` accumulation — scalar twin of [`lb_keogh`].
///
/// # Panics
/// Panics if slice lengths differ.
pub fn lb_keogh_scalar(walk: &[f64], upper: &[f64], lower: &[f64]) -> f64 {
    assert_eq!(walk.len(), upper.len(), "LB_Keogh length mismatch");
    assert_eq!(walk.len(), lower.len(), "LB_Keogh length mismatch");
    let mut acc = [0.0f64; LANES];
    for i in 0..walk.len() {
        acc[i % LANES] += keogh_contrib(walk[i], upper[i], lower[i]);
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// `LB_Keogh` accumulation over explicit lanes.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn lb_keogh(walk: &[f64], upper: &[f64], lower: &[f64]) -> f64 {
    assert_eq!(walk.len(), upper.len(), "LB_Keogh length mismatch");
    assert_eq!(walk.len(), lower.len(), "LB_Keogh length mismatch");
    let zero = F64x4::splat(0.0);
    let mut acc = zero;
    let mut chunks = walk.chunks_exact(LANES);
    let mut uc = upper.chunks_exact(LANES);
    let mut lc = lower.chunks_exact(LANES);
    for ((w, u), l) in (&mut chunks).zip(&mut uc).zip(&mut lc) {
        let v = F64x4::from_slice(w);
        let up = F64x4::from_slice(u);
        let lo = F64x4::from_slice(l);
        let over = (v - up).max(zero);
        let under = (lo - v).max(zero);
        acc = acc + over * over + under * under;
    }
    let mut lanes = acc.to_array();
    for (j, ((&v, &u), &l)) in
        chunks.remainder().iter().zip(uc.remainder()).zip(lc.remainder()).enumerate()
    {
        lanes[j] += keogh_contrib(v, u, l);
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// Dot product — scalar twin of [`dot`].
///
/// # Panics
/// Panics if slice lengths differ.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f64; LANES];
    for i in 0..a.len() {
        acc[i % LANES] += a[i] * b[i];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Dot product over explicit lanes.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = F64x4::splat(0.0);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        acc = acc + F64x4::from_slice(x) * F64x4::from_slice(y);
    }
    let mut lanes = acc.to_array();
    for (j, (&x, &y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[j] += x * y;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// Squared Euclidean distance — scalar twin of [`squared_distance`].
///
/// # Panics
/// Panics if slice lengths differ.
pub fn squared_distance_scalar(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    let mut acc = [0.0f64; LANES];
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc[i % LANES] += d * d;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Squared Euclidean distance over explicit lanes.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance length mismatch");
    let mut acc = F64x4::splat(0.0);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        let d = F64x4::from_slice(x) - F64x4::from_slice(y);
        acc = acc + d * d;
    }
    let mut lanes = acc.to_array();
    for (j, (&x, &y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        let d = x - y;
        lanes[j] += d * d;
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// `y += alpha * x` — scalar twin of [`axpy`]. Element-wise, so the
/// two variants are trivially bitwise-identical; the lane form exists
/// because this is the inner loop of every matrix product in the GP path.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x` over explicit lanes.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let av = F64x4::splat(alpha);
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact_mut(LANES);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        let r = (F64x4::from_slice(ys) + av * F64x4::from_slice(xs)).to_array();
        ys.copy_from_slice(&r);
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// Minimum and maximum of a slice — scalar twin of [`min_max`].
/// Returns `(+∞, −∞)` for an empty slice; NaNs are ignored (an all-NaN
/// slice also returns the identities).
pub fn min_max_scalar(xs: &[f64]) -> (f64, f64) {
    let mut mn = [f64::INFINITY; LANES];
    let mut mx = [f64::NEG_INFINITY; LANES];
    for (i, &v) in xs.iter().enumerate() {
        mn[i % LANES] = fmin(mn[i % LANES], v);
        mx[i % LANES] = fmax(mx[i % LANES], v);
    }
    (fmin(fmin(mn[0], mn[2]), fmin(mn[1], mn[3])), fmax(fmax(mx[0], mx[2]), fmax(mx[1], mx[3])))
}

/// Minimum and maximum of a slice over explicit lanes — the windowed
/// envelope kernel.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    let mut mn = F64x4::splat(f64::INFINITY);
    let mut mx = F64x4::splat(f64::NEG_INFINITY);
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        let v = F64x4::from_slice(c);
        mn = mn.min(v);
        mx = mx.max(v);
    }
    let mut mnl = mn.to_array();
    let mut mxl = mx.to_array();
    for (j, &v) in chunks.remainder().iter().enumerate() {
        mnl[j] = fmin(mnl[j], v);
        mxl[j] = fmax(mxl[j], v);
    }
    (
        fmin(fmin(mnl[0], mnl[2]), fmin(mnl[1], mnl[3])),
        fmax(fmax(mxl[0], mxl[2]), fmax(mxl[1], mxl[3])),
    )
}

/// Project `walk` onto the envelope `[lower, upper]` — Lemire's `H`
/// sequence for LB_Improved — scalar twin of
/// [`clamp_to_envelope`]. `h_i = min(max(w_i, l_i), u_i)` under
/// [`fmin`]/[`fmax`], so a NaN walk value projects to its envelope bound
/// instead of poisoning the output.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn clamp_to_envelope_scalar(walk: &[f64], upper: &[f64], lower: &[f64], out: &mut Vec<f64>) {
    assert_eq!(walk.len(), upper.len(), "clamp length mismatch");
    assert_eq!(walk.len(), lower.len(), "clamp length mismatch");
    out.clear();
    out.extend(walk.iter().zip(upper).zip(lower).map(|((&v, &u), &l)| fmin(fmax(v, l), u)));
}

/// Envelope projection over explicit lanes.
///
/// # Panics
/// Panics if slice lengths differ.
pub fn clamp_to_envelope(walk: &[f64], upper: &[f64], lower: &[f64], out: &mut Vec<f64>) {
    assert_eq!(walk.len(), upper.len(), "clamp length mismatch");
    assert_eq!(walk.len(), lower.len(), "clamp length mismatch");
    out.clear();
    out.resize(walk.len(), 0.0);
    let mut wc = walk.chunks_exact(LANES);
    let mut uc = upper.chunks_exact(LANES);
    let mut lc = lower.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (((w, u), l), o) in (&mut wc).zip(&mut uc).zip(&mut lc).zip(&mut oc) {
        let h = F64x4::from_slice(w).max(F64x4::from_slice(l)).min(F64x4::from_slice(u)).to_array();
        o.copy_from_slice(&h);
    }
    for (((&v, &u), &l), o) in
        wc.remainder().iter().zip(uc.remainder()).zip(lc.remainder()).zip(oc.into_remainder())
    {
        *o = fmin(fmax(v, l), u);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// f64 strategy with finite values, infinities and a healthy dose of
    /// NaN — the reductions must stay bitwise-paired on all of them.
    fn any_value() -> impl Strategy<Value = f64> {
        (-1.0e6f64..1.0e6, 0u8..12).prop_map(|(v, pick)| match pick {
            8 => f64::NAN,
            9 => f64::INFINITY,
            10 => f64::NEG_INFINITY,
            11 => -0.0,
            _ => v,
        })
    }

    /// Bit pattern for comparison, with every NaN mapped to the canonical
    /// quiet NaN: payload/sign bits of a NaN produced by combining two NaN
    /// operands are unspecified (see module docs), so only NaN-ness is
    /// contractual there — all numeric bits still compare exactly.
    fn canon_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn vecs3(max: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
        (0..max).prop_flat_map(|n| {
            (
                prop::collection::vec(any_value(), n),
                prop::collection::vec(any_value(), n),
                prop::collection::vec(any_value(), n),
            )
        })
    }

    fn vecs2(max: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (0..max).prop_flat_map(|n| {
            (prop::collection::vec(any_value(), n), prop::collection::vec(any_value(), n))
        })
    }

    #[test]
    fn dispatch_label_names_active_variant() {
        assert_eq!(dispatch_label(), "lanes");
    }

    #[test]
    fn fixed_combine_order_is_not_left_to_right() {
        // The contract is (l0+l2)+(l1+l3): pick values where left-to-right
        // summation differs in the last bit, and check both variants agree
        // with the decomposition (not with a plain fold).
        let a = [1.0, 1e16, 1.0, -1e16, 1.0];
        let b = [1.0; 5];
        let lanes: [f64; 4] = [1.0 + 1.0, 1e16, 1.0, -1e16];
        let expect: f64 = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        assert_eq!(dot_scalar(&a, &b).to_bits(), expect.to_bits());
        assert_eq!(dot(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn min_max_empty_is_identity() {
        assert_eq!(min_max_scalar(&[]), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn fmax_fmin_ignore_nan_and_break_zero_ties_deterministically() {
        assert_eq!(fmax(f64::NAN, 2.0), 2.0);
        assert_eq!(fmax(2.0, f64::NAN), 2.0);
        assert_eq!(fmin(f64::NAN, 2.0), 2.0);
        assert_eq!(fmin(2.0, f64::NAN), 2.0);
        // ±0 ties keep the accumulator (first argument).
        assert_eq!(fmax(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(fmin(0.0, -0.0).to_bits(), (0.0f64).to_bits());
    }

    proptest! {
        #[test]
        fn lb_keogh_bitwise((w, u, l) in vecs3(70)) {
            let s = lb_keogh_scalar(&w, &u, &l);
            let v = lb_keogh(&w, &u, &l);
            prop_assert_eq!(s.to_bits(), v.to_bits(), "scalar {} vs lanes {}", s, v);
        }

        #[test]
        fn dot_bitwise((a, b) in vecs2(70)) {
            let s = dot_scalar(&a, &b);
            let v = dot(&a, &b);
            prop_assert_eq!(canon_bits(s), canon_bits(v), "scalar {} vs lanes {}", s, v);
        }

        #[test]
        fn squared_distance_bitwise((a, b) in vecs2(70)) {
            let s = squared_distance_scalar(&a, &b);
            let v = squared_distance(&a, &b);
            prop_assert_eq!(canon_bits(s), canon_bits(v), "scalar {} vs lanes {}", s, v);
        }

        #[test]
        fn axpy_bitwise((x, y) in vecs2(70), alpha in -1.0e3f64..1.0e3) {
            let mut ys = y.clone();
            let mut yv = y.clone();
            axpy_scalar(alpha, &x, &mut ys);
            axpy(alpha, &x, &mut yv);
            let sb: Vec<u64> = ys.iter().map(|v| canon_bits(*v)).collect();
            let vb: Vec<u64> = yv.iter().map(|v| canon_bits(*v)).collect();
            prop_assert_eq!(sb, vb);
        }

        #[test]
        fn min_max_bitwise(xs in prop::collection::vec(any_value(), 0..70)) {
            let (smn, smx) = min_max_scalar(&xs);
            let (vmn, vmx) = min_max(&xs);
            prop_assert_eq!(smn.to_bits(), vmn.to_bits());
            prop_assert_eq!(smx.to_bits(), vmx.to_bits());
        }

        #[test]
        fn min_max_matches_fold_on_clean_input(
            xs in prop::collection::vec(-1.0e6f64..1.0e6, 0..70),
        ) {
            // On NaN-free input the lane decomposition must agree with the
            // naive fold — min/max are exact, only tie rules could differ.
            let (mn, mx) = min_max(&xs);
            let fmn = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let fmx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(mn, fmn);
            prop_assert_eq!(mx, fmx);
        }

        #[test]
        fn clamp_bitwise((w, u, l) in vecs3(70)) {
            let mut s = Vec::new();
            let mut v = Vec::new();
            clamp_to_envelope_scalar(&w, &u, &l, &mut s);
            clamp_to_envelope(&w, &u, &l, &mut v);
            let sb: Vec<u64> = s.iter().map(|x| x.to_bits()).collect();
            let vb: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(sb, vb);
        }

        #[test]
        fn keogh_agrees_with_branchy_reference_on_real_envelopes(
            (w, a, b) in vecs3(70),
        ) {
            // Against a *consistent* envelope (u ≥ l, finite) the branchless
            // kernel must equal the traditional if/else accumulation up to
            // the lane decomposition — same contributions, same lanes.
            let w: Vec<f64> = w.iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
            let u: Vec<f64> = a.iter().zip(&b)
                .map(|(x, y)| fmax(sane(*x), sane(*y))).collect();
            let l: Vec<f64> = a.iter().zip(&b)
                .map(|(x, y)| fmin(sane(*x), sane(*y))).collect();
            let mut acc = [0.0f64; LANES];
            for i in 0..w.len() {
                let v = w[i];
                if v > u[i] {
                    acc[i % LANES] += (v - u[i]) * (v - u[i]);
                } else if v < l[i] {
                    acc[i % LANES] += (v - l[i]) * (v - l[i]);
                }
            }
            let reference = (acc[0] + acc[2]) + (acc[1] + acc[3]);
            prop_assert_eq!(lb_keogh(&w, &u, &l).to_bits(), reference.to_bits());
        }
    }

    fn sane(v: f64) -> f64 {
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}
