//! Proof that the steady-state hot paths are allocation-free: a counting
//! global allocator watches the DTW-verify primitives, the shared-prefix
//! GP predict loop and the index side of an observation after one warm-up
//! pass has grown every buffer.
//!
//! Only allocations made on the measuring thread count, so the test
//! harness's own threads, which may allocate at any moment, cannot fail it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use smiler_dtw::DtwScratch;
use smiler_gp::{GpScratch, Hyperparams, PrefixGp};
use smiler_gpu::Device;
use smiler_index::{IndexParams, SmilerIndex};
use smiler_linalg::Matrix;
use smiler_timeseries::{Envelope, EnvelopeScratch};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as f64 * 0.13).sin() * 2.0 + (state % 100) as f64 / 100.0
        })
        .collect()
}

fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_hot_loops_do_not_allocate() {
    smiler_obs::set_enabled(false);

    // --- DTW verify loop: envelope + lower bounds + (early-abandoning)
    //     banded DTW, all through reused workspaces. ---
    let series = pseudo_series(512, 3);
    let d = 96;
    let rho = 8;
    let query = &series[series.len() - d..];
    let mut env = Envelope::compute(query, rho);
    let mut env_scratch = EnvelopeScratch::new();
    let mut dtw_scratch = DtwScratch::with_rho(rho);
    let mut sink = 0.0f64;
    let mut verify_pass = |sink: &mut f64| {
        env.compute_into(query, rho, &mut env_scratch);
        for t in (0..series.len() - d).step_by(7) {
            let cand = &series[t..t + d];
            *sink += smiler_dtw::lb_kim_fl(query, cand);
            *sink += smiler_dtw::lb_keogh(cand, &env.upper, &env.lower);
            *sink += smiler_dtw::dtw_compressed_with(query, cand, rho, &mut dtw_scratch);
            let (dist, _cells) =
                smiler_dtw::dtw_early_abandon_counted_with(query, cand, rho, 5.0, &mut dtw_scratch);
            *sink += dist.unwrap_or(0.0);
        }
    };
    verify_pass(&mut sink); // warm-up grows every buffer
    let delta = count_allocations(|| {
        for _ in 0..20 {
            verify_pass(&mut sink);
        }
    });
    assert_eq!(delta, 0, "DTW verify loop allocated {delta} times in steady state");

    // --- Shared-prefix GP predict loop: one factorisation serves every
    //     prefix k, each prediction two in-place triangular solves. ---
    let k_max = 24;
    let cols = 8;
    let x = Matrix::from_fn(k_max, cols, |i, j| ((i * cols + j) as f64 * 0.37).sin());
    let y: Vec<f64> = (0..k_max).map(|i| (i as f64 * 0.51).cos()).collect();
    let x0: Vec<f64> = (0..cols).map(|j| (j as f64 * 0.21).sin()).collect();
    let pg = PrefixGp::fit(x, Hyperparams::new(1.0, 1.4, 0.1)).expect("well-conditioned inputs");
    assert!(pg.exact(), "the zero-allocation claim covers the exact prefix path");
    let mut gp_scratch = GpScratch::new();
    let mut centred = vec![0.0f64; k_max];
    let mut predict_pass = |sink: &mut f64| {
        for k in 1..=k_max {
            let mean_k = y[..k].iter().sum::<f64>() / k as f64;
            for (c, v) in centred[..k].iter_mut().zip(&y[..k]) {
                *c = v - mean_k;
            }
            let (mean, var) = pg.predict_prefix(k, &centred[..k], &x0, &mut gp_scratch);
            *sink += mean + var;
        }
    };
    predict_pass(&mut sink); // warm-up
    let delta = count_allocations(|| {
        for _ in 0..50 {
            predict_pass(&mut sink);
        }
    });
    assert_eq!(delta, 0, "GP predict loop allocated {delta} times in steady state");

    // --- The index side of an observation: `append` grows the history
    //     and defers all index work, telemetry off included, to the next
    //     search. One warm-up append grows the history's capacity. ---
    let device = Device::default_gpu();
    let mut index = SmilerIndex::build(&device, series.clone(), IndexParams::default());
    index.append(0.0);
    let delta = count_allocations(|| {
        for i in 0..20 {
            index.append(i as f64 * 0.1);
        }
    });
    assert_eq!(delta, 0, "index append allocated {delta} times in steady state");
    let delta = count_allocations(|| {
        let _span = smiler_obs::span("index.catch_up");
        smiler_obs::observe("index.catch_up_lag", "", 20.0);
        smiler_obs::count("index.catch_up", "rebuild", 1);
    });
    assert_eq!(delta, 0, "disabled catch-up telemetry allocated {delta} times");

    assert!(sink.is_finite(), "keep the computations observable");
}
