//! Windowed tail accounting: a ring of per-window histogram snapshots on
//! the registry's log-scale bucket scheme, and an SLO tracker with
//! error-budget burn counters.
//!
//! Unlike the process-global registry histograms (lifetime aggregates),
//! these types are plain values owned by their embedder — the serving
//! layer keeps one per rung behind its own lock — and answer "what were
//! the tails over the last ~minute", which is what an operator watching a
//! live fleet actually needs. Windows rotate lazily on record/read; a gap
//! longer than the retained span just clears the ring instead of spinning
//! through every missed rotation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::registry::{bucket_of, bucket_quantile, NUM_BUCKETS};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tail quantiles over the retained windows. All-zero when no samples
/// were recorded (never NaN).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct TailQuantiles {
    /// Samples across the retained windows.
    pub count: u64,
    /// Median (log-bucket approximation).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

#[derive(Clone)]
struct Window {
    counts: Vec<u64>,
    total: u64,
}

impl Window {
    fn empty() -> Self {
        Window { counts: vec![0; NUM_BUCKETS], total: 0 }
    }

    fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

/// A log-scale histogram that only remembers the last `keep` windows of
/// `window` duration each (plus the currently-open window).
pub struct WindowedHistogram {
    window: Duration,
    keep: usize,
    current: Window,
    opened: Instant,
    ring: VecDeque<Window>,
}

impl WindowedHistogram {
    /// A histogram retaining `keep` closed windows of `window` each. A
    /// zero `window` never rotates: the histogram degrades to a lifetime
    /// aggregate.
    pub fn new(window: Duration, keep: usize) -> Self {
        WindowedHistogram {
            window,
            keep: keep.max(1),
            current: Window::empty(),
            opened: Instant::now(),
            ring: VecDeque::new(),
        }
    }

    /// Record one sample into the currently-open window.
    pub fn record(&mut self, value: f64) {
        self.rotate(Instant::now());
        self.current.counts[bucket_of(value)] += 1;
        self.current.total += 1;
    }

    /// Quantiles over the retained windows plus the open one.
    pub fn quantiles(&mut self) -> TailQuantiles {
        self.rotate(Instant::now());
        let mut counts = vec![0u64; NUM_BUCKETS];
        let mut total = 0u64;
        for w in self.ring.iter().chain(std::iter::once(&self.current)) {
            for (acc, c) in counts.iter_mut().zip(&w.counts) {
                *acc += c;
            }
            total += w.total;
        }
        let q = |p: f64| bucket_quantile(&counts, total, p);
        TailQuantiles { count: total, p50: q(0.50), p95: q(0.95), p99: q(0.99), p999: q(0.999) }
    }

    /// Close windows that have fully elapsed. Bounded: an idle gap longer
    /// than the retained span clears everything in O(ring) instead of
    /// rotating once per missed window.
    fn rotate(&mut self, now: Instant) {
        if self.window.is_zero() {
            return;
        }
        let elapsed = now.saturating_duration_since(self.opened);
        if elapsed < self.window {
            return;
        }
        let steps = (elapsed.as_nanos() / self.window.as_nanos()) as usize;
        if steps > self.keep {
            self.ring.clear();
            self.current.clear();
            self.opened = now;
            return;
        }
        for _ in 0..steps {
            let closed = std::mem::replace(&mut self.current, Window::empty());
            self.ring.push_back(closed);
            while self.ring.len() > self.keep {
                self.ring.pop_front();
            }
            self.opened += self.window;
        }
    }
}

/// Point-in-time SLO accounting. All ratios are 0.0 on empty windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct SloReport {
    /// Latency target in milliseconds.
    pub target_ms: f64,
    /// Allowed violation fraction (the error budget), e.g. 0.01.
    pub budget: f64,
    /// Requests across the retained windows.
    pub window_total: u64,
    /// Requests over target across the retained windows.
    pub window_violations: u64,
    /// Windowed violation fraction divided by the budget: 1.0 burns the
    /// budget exactly, above 1.0 burns it faster than allowed.
    pub burn_rate: f64,
    /// Lifetime request count.
    pub total: u64,
    /// Lifetime violations.
    pub violations: u64,
}

/// Tracks a latency SLO over a ring of windows, mirroring
/// [`WindowedHistogram`]'s rotation, plus lifetime counters.
pub struct SloTracker {
    target: Duration,
    budget: f64,
    window: Duration,
    keep: usize,
    opened: Instant,
    /// (total, violations) of the open window.
    current: (u64, u64),
    ring: VecDeque<(u64, u64)>,
    lifetime: (u64, u64),
}

impl SloTracker {
    /// A tracker for `target` latency with violation `budget`, retaining
    /// `keep` windows of `window` each.
    pub fn new(target: Duration, budget: f64, window: Duration, keep: usize) -> Self {
        SloTracker {
            target,
            budget,
            window,
            keep: keep.max(1),
            opened: Instant::now(),
            current: (0, 0),
            ring: VecDeque::new(),
            lifetime: (0, 0),
        }
    }

    /// Record one request latency; returns whether it violated the SLO.
    pub fn record(&mut self, latency: Duration) -> bool {
        self.rotate(Instant::now());
        let violated = latency > self.target;
        self.current.0 += 1;
        self.lifetime.0 += 1;
        if violated {
            self.current.1 += 1;
            self.lifetime.1 += 1;
        }
        violated
    }

    /// Current windowed + lifetime SLO accounting.
    pub fn report(&mut self) -> SloReport {
        self.rotate(Instant::now());
        let (mut total, mut violations) = self.current;
        for &(t, v) in &self.ring {
            total += t;
            violations += v;
        }
        let burn_rate = if total == 0 || self.budget <= 0.0 {
            0.0
        } else {
            (violations as f64 / total as f64) / self.budget
        };
        SloReport {
            target_ms: self.target.as_secs_f64() * 1e3,
            budget: self.budget,
            window_total: total,
            window_violations: violations,
            burn_rate,
            total: self.lifetime.0,
            violations: self.lifetime.1,
        }
    }

    fn rotate(&mut self, now: Instant) {
        if self.window.is_zero() {
            return;
        }
        let elapsed = now.saturating_duration_since(self.opened);
        if elapsed < self.window {
            return;
        }
        let steps = (elapsed.as_nanos() / self.window.as_nanos()) as usize;
        if steps > self.keep {
            self.ring.clear();
            self.current = (0, 0);
            self.opened = now;
            return;
        }
        for _ in 0..steps {
            self.ring.push_back(std::mem::take(&mut self.current));
            while self.ring.len() > self.keep {
                self.ring.pop_front();
            }
            self.opened += self.window;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros_not_nan() {
        let mut h = WindowedHistogram::new(Duration::from_secs(1), 4);
        let q = h.quantiles();
        assert_eq!(q, TailQuantiles::default());
        assert!(!q.p50.is_nan() && !q.p999.is_nan());
    }

    #[test]
    fn quantiles_are_ordered_and_log_accurate() {
        let mut h = WindowedHistogram::new(Duration::from_secs(60), 4);
        for i in 1..=1000u64 {
            h.record(i as f64 / 1000.0);
        }
        let q = h.quantiles();
        assert_eq!(q.count, 1000);
        assert!((0.3..0.8).contains(&q.p50), "p50 {}", q.p50);
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.p999 * (1.0 + 1e-12));
    }

    #[test]
    fn old_windows_age_out() {
        let mut h = WindowedHistogram::new(Duration::from_millis(5), 2);
        h.record(1.0);
        // Sleep past the retained span (5ms window × (2 kept + 1 open)).
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(h.quantiles().count, 0, "samples beyond the retained span must age out");
        h.record(2.0);
        assert_eq!(h.quantiles().count, 1);
    }

    #[test]
    fn zero_window_never_rotates() {
        let mut h = WindowedHistogram::new(Duration::ZERO, 2);
        h.record(1.0);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(h.quantiles().count, 1);
    }

    #[test]
    fn slo_burn_rate_counts_violations() {
        let mut s = SloTracker::new(Duration::from_millis(10), 0.5, Duration::from_secs(60), 4);
        assert!(!s.record(Duration::from_millis(1)));
        assert!(s.record(Duration::from_millis(20)));
        let r = s.report();
        assert_eq!((r.window_total, r.window_violations), (2, 1));
        assert_eq!((r.total, r.violations), (2, 1));
        // 50% violations against a 50% budget burns at exactly 1.0.
        assert!((r.burn_rate - 1.0).abs() < 1e-12);
        assert!((r.target_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_slo_reports_zero_burn() {
        let mut s = SloTracker::new(Duration::ZERO, 0.01, Duration::from_secs(1), 4);
        let r = s.report();
        assert_eq!(r.burn_rate, 0.0);
        assert_eq!(r.window_total, 0);
    }
}
