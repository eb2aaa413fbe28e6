//! The benchmark's own arithmetic: percentiles, the tail rule, quartiles.
//!
//! Kept here rather than borrowed from `smiler_linalg::stats` so that a
//! change to the program under test can never change how it is measured.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q, sorted.len()) - 1]
}

/// Nearest rank (1-based) of level `q` among `count` samples. The small
/// guard keeps `0.95 * 200` at rank 190 whichever way the product rounds.
fn rank(q: f64, count: usize) -> usize {
    ((q * count as f64 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// Sort a copy ascending (samples are finite timings and counts).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of the two middle samples (the same definition Python's
/// `statistics.median` uses, so `compare` agrees with the driver).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. With fewer than two samples both
/// quartiles are the sample itself.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    assert!(!s.is_empty(), "quartiles of no samples");
    if s.len() < 2 {
        return (s[0], s[0]);
    }
    let at = |i: usize| {
        let m = s.len() + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile a sample supports: the largest of the usual
/// reporting levels that still has at least ten samples beyond it.
/// `None` when even p90 has fewer than ten samples above it.
pub fn tail_level(count: usize) -> Option<f64> {
    const LEVELS: [f64; 6] = [0.9999, 0.999, 0.99, 0.98, 0.95, 0.90];
    LEVELS.into_iter().find(|&q| count.saturating_sub(rank(q, count)) >= 10)
}

/// Median, supported tail percentile and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Median ([`median`]).
    pub p50: f64,
    /// `(level, value)` of the highest supported percentile, if any.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        Some(Summary {
            count: s.len(),
            p50: median(&s),
            tail: tail_level(s.len()).map(|q| (q, percentile_sorted(&s, q))),
            max: s[s.len() - 1],
        })
    }
}

/// Events per second of each of `blocks` runs of consecutive events:
/// `at_s` holds each event's completion time, seconds from the phase's
/// start, and each block's rate is its event count over the time from the
/// previous block's last event to its own. Leftover events (fewer than
/// `blocks`) are dropped from the end. With fewer than two events per
/// block the whole phase is one block; no events, no rates.
pub fn block_rates(at_s: &[f64], blocks: usize) -> Vec<f64> {
    let blocks = blocks.max(1);
    let mut at_s = sorted(at_s);
    let Some(&end) = at_s.last() else { return Vec::new() };
    let per_block = at_s.len() / blocks;
    if per_block < 2 {
        return vec![at_s.len() as f64 / end.max(1e-9)];
    }
    at_s.truncate(per_block * blocks);
    let mut from = 0.0;
    at_s.chunks(per_block)
        .map(|block| {
            let to = block[per_block - 1];
            let rate = per_block as f64 / (to - from).max(1e-9);
            from = to;
            rate
        })
        .collect()
}

/// Events per second as the median of [`block_rates`]. A stall, or a
/// stretch in which the scheduler favoured the program, moves a few blocks
/// and leaves the median where it was; events ÷ wall time would move with
/// both. `0.0` when there are no events.
pub fn median_rate(at_s: &[f64], blocks: usize) -> f64 {
    let rates = block_rates(at_s, blocks);
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// Nearest-rank percentile of unsorted samples, `0.0` when there are none
/// (used for per-layer metrics of layers a workload never calls).
pub fn percentile_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile_sorted(&sorted(samples), q)
    }
}

/// Arithmetic mean, `0.0` when there are no samples.
pub fn mean_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.95), 95.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 above it, p95 only 5.
        assert_eq!(tail_level(100), Some(0.90));
        assert_eq!(tail_level(99), None);
        // 200: p95 leaves 10; 500: p98 leaves 10; 1000: p99 leaves 10.
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(500), Some(0.98));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(999), Some(0.98));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(100_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_supported_tail_only() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(s.max, 1000.0);
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().tail, None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_rate_shrugs_off_a_stall_and_a_burst() {
        // 100 events/s for 8 s in blocks of 100, except that the third
        // second is a stall (its 100 events take 3 s) and the sixth a burst
        // (its 100 events take 0.25 s).
        let mut at_s = Vec::new();
        let mut now = 0.0;
        for block in 0..8 {
            let took = match block {
                2 => 3.0,
                5 => 0.25,
                _ => 1.0,
            };
            at_s.extend((1..=100).map(|i| now + took * f64::from(i) / 100.0));
            now += took;
        }
        assert!((median_rate(&at_s, 8) - 100.0).abs() < 1e-9);
        let plain = at_s.len() as f64 / now;
        assert!(plain < 90.0, "events over wall time is dragged down to {plain}");
        // Order does not matter (two connections' completions interleave).
        at_s.reverse();
        assert!((median_rate(&at_s, 8) - 100.0).abs() < 1e-9);
        // Too few events to block: plain events over time.
        assert_eq!(median_rate(&[0.25, 0.5, 0.75], 8), 4.0);
        assert_eq!(median_rate(&[], 8), 0.0);
        // Asking for no blocks is asking for one.
        assert_eq!(block_rates(&[0.5, 1.0, 1.5, 2.0], 0), vec![2.0]);
        assert_eq!(block_rates(&[0.5, 1.0, 1.5, 2.0], 2), vec![2.0, 2.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
