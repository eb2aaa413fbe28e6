//! Block-level k-selection kernel.
//!
//! The paper's Selection phase (§4.3.3) uses the distributive-partitioning
//! k-selection of Alabi et al. with two extensions: *one block handles one
//! k-selection* (so many queries select concurrently) and *all k smallest
//! elements are returned*, not just the k-th. This module is that kernel:
//! [`select_k_smallest`] runs inside a block (taking the block's
//! [`BlockCtx`] for cost accounting); the index launches it one block per
//! query, exactly the paper's grid shape.
//!
//! The algorithm repeatedly histograms the still-active candidates into
//! equal-width buckets over their value range, keeps every bucket strictly
//! below the one containing the k-th smallest, and recurses into that pivot
//! bucket. Each pass is one linear scan — the access pattern that makes it
//! GPU-friendly.

use crate::device::BlockCtx;

/// Number of histogram buckets per partitioning pass.
const BUCKETS: usize = 32;
/// Below this many active candidates a direct sort is cheaper than another
/// pass (on a real GPU this is the in-warp bitonic-sort cutoff).
const SORT_CUTOFF: usize = 64;

/// Select the indices of the `k` smallest values, sorted ascending by value
/// (ties broken by index for determinism). Non-finite values are treated as
/// "filtered out" and never selected, so fewer than `k` indices come back
/// when fewer than `k` finite values exist.
///
/// Runs as a block-level kernel: every scan over candidates is reported to
/// `ctx` so the launch inherits the right simulated cost.
pub fn select_k_smallest(ctx: &mut BlockCtx, values: &[f64], k: usize) -> Vec<usize> {
    let mut active: Vec<usize> = (0..values.len()).filter(|&i| values[i].is_finite()).collect();
    ctx.read_global(values.len() as u64);
    if k == 0 {
        return Vec::new();
    }
    let mut result: Vec<usize> = Vec::with_capacity(k.min(active.len()));
    let mut remaining = k.min(active.len());

    while remaining > 0 {
        if active.len() <= remaining {
            result.extend_from_slice(&active);
            break;
        }
        if active.len() <= SORT_CUTOFF {
            // Terminal in-block sort of the small residue.
            ctx.access_shared((active.len() as f64 * (active.len() as f64).log2().max(1.0)) as u64);
            sort_by_value(&mut active, values);
            result.extend_from_slice(&active[..remaining]);
            break;
        }

        // One partitioning pass: min/max + histogram (two linear scans on a
        // real kernel are fused into one with registers; count it once).
        ctx.read_global(active.len() as u64);
        ctx.flops(2 * active.len() as u64);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in &active {
            lo = lo.min(values[i]);
            hi = hi.max(values[i]);
        }
        if lo == hi {
            // All remaining candidates are equal; any `remaining` of them do.
            result.extend_from_slice(&active[..remaining]);
            break;
        }

        let width = (hi - lo) / BUCKETS as f64;
        let bucket_of = |v: f64| (((v - lo) / width) as usize).min(BUCKETS - 1);
        let mut counts = [0usize; BUCKETS];
        for &i in &active {
            counts[bucket_of(values[i])] += 1;
        }
        ctx.access_shared(active.len() as u64); // histogram increments

        // Find the pivot bucket containing the remaining-th smallest.
        let mut below = 0usize;
        let mut pivot = 0usize;
        for (b, &c) in counts.iter().enumerate() {
            if below + c >= remaining {
                pivot = b;
                break;
            }
            below += c;
        }

        // Keep everything strictly below the pivot bucket; recurse into it.
        let mut pivot_members = Vec::with_capacity(counts[pivot]);
        for &i in &active {
            let b = bucket_of(values[i]);
            if b < pivot {
                result.push(i);
            } else if b == pivot {
                pivot_members.push(i);
            }
        }
        ctx.write_global(below as u64);
        remaining -= below;
        active = pivot_members;
    }

    sort_by_value(&mut result, values);
    result
}

fn sort_by_value(indices: &mut [usize], values: &[f64]) {
    indices.sort_by(|&a, &b| {
        values[a].partial_cmp(&values[b]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use proptest::prelude::*;

    fn run_select(values: &[f64], k: usize) -> Vec<usize> {
        let dev = Device::default_gpu().with_host_threads(1);
        let mut out = dev.launch(1, |ctx| select_k_smallest(ctx, values, k));
        out.results.pop().unwrap()
    }

    fn reference_select(values: &[f64], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..values.len()).filter(|&i| values[i].is_finite()).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap().then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    #[test]
    fn selects_smallest_sorted() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(run_select(&values, 3), vec![1, 3, 4]);
    }

    #[test]
    fn k_zero_and_k_over_len() {
        let values = [2.0, 1.0];
        assert_eq!(run_select(&values, 0), Vec::<usize>::new());
        assert_eq!(run_select(&values, 10), vec![1, 0]);
    }

    #[test]
    fn ignores_non_finite() {
        let values = [f64::INFINITY, 1.0, f64::NAN, 0.5, f64::INFINITY];
        assert_eq!(run_select(&values, 3), vec![3, 1]);
    }

    #[test]
    fn all_equal_values() {
        let values = [7.0; 100];
        let got = run_select(&values, 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|&i| values[i] == 7.0));
    }

    #[test]
    fn large_input_matches_reference() {
        let values: Vec<f64> =
            (0..10_000).map(|i| ((i * 2654435761u64 as usize) % 9973) as f64).collect();
        assert_eq!(run_select(&values, 128), reference_select(&values, 128));
    }

    #[test]
    fn multi_select_one_block_per_query() {
        // The index's selection phase: block `q` selects from row `q`.
        let dev = Device::default_gpu();
        let rows = [vec![3.0, 1.0, 2.0], vec![9.0, 8.0, 7.0, 6.0]];
        let ks = [2, 1];
        let report = dev.launch(rows.len(), |ctx| {
            let q = ctx.block_id();
            select_k_smallest(ctx, &rows[q], ks[q])
        });
        assert_eq!(report.results[0], vec![1, 2]);
        assert_eq!(report.results[1], vec![3]);
        assert_eq!(report.stats.blocks, 2);
    }

    #[test]
    fn selection_cost_is_linear_ish() {
        // Two passes should not blow up cost: 10x data → ~10x sim time.
        let dev1 = Device::default_gpu().with_host_threads(1);
        let dev2 = Device::default_gpu().with_host_threads(1);
        let small: Vec<f64> = (0..1_000).map(|i| (i % 977) as f64).collect();
        let large: Vec<f64> = (0..10_000).map(|i| (i % 9973) as f64).collect();
        dev1.launch(1, |ctx| select_k_smallest(ctx, &small, 32));
        dev2.launch(1, |ctx| select_k_smallest(ctx, &large, 32));
        let ratio = dev2.elapsed_seconds() / dev1.elapsed_seconds();
        assert!(ratio < 20.0, "selection cost ratio {ratio}");
    }

    proptest! {
        #[test]
        fn matches_sorting_reference(
            values in prop::collection::vec(-1e6f64..1e6, 0..500),
            k in 0usize..600,
        ) {
            prop_assert_eq!(run_select(&values, k), reference_select(&values, k));
        }

        #[test]
        fn result_is_sorted_by_value(
            values in prop::collection::vec(-100f64..100.0, 1..300),
        ) {
            let got = run_select(&values, 10);
            for w in got.windows(2) {
                prop_assert!(values[w[0]] <= values[w[1]]);
            }
        }
    }
}
