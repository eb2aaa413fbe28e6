//! The metrics registry: counters, gauges, and log-scale histograms keyed
//! by static metric name plus dynamic label.
//!
//! Storage is a two-level map (`name -> label -> Arc<metric>`): reads take
//! the registry lock only long enough to clone the `Arc`, and the lookup
//! path performs no allocation once a `(name, label)` pair exists. All
//! recording on the metric itself is lock-free atomics.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::enabled;

/// Histogram bucketing: log₁₀ scale, [`BUCKETS_PER_DECADE`] buckets per
/// decade spanning 1e-12 .. 1e4. That resolves nanosecond timings and
/// ratio metrics alike to ~33% relative error, which is plenty for
/// p50/p95/p99 of quantities that vary over orders of magnitude.
const BUCKETS_PER_DECADE: f64 = 8.0;
/// log₁₀ of the smallest representable bucket boundary.
const MIN_DECADE: f64 = -12.0;
/// Total bucket count (16 decades × 8). Shared with the windowed
/// histograms in [`crate::window`].
pub(crate) const NUM_BUCKETS: usize = 128;

/// Bucket index of `value` on the shared log scale.
pub(crate) fn bucket_of(value: f64) -> usize {
    Histogram::bucket_of(value)
}

/// Approximate `p`-quantile of `total` samples spread over the shared log
/// buckets `counts`: the midpoint of the bucket holding rank `⌈p·total⌉`.
/// 0.0 (never NaN) on an empty histogram so downstream JSON and arithmetic
/// stay finite.
pub(crate) fn bucket_quantile(counts: &[u64], total: u64, p: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (p * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Histogram::bucket_value(i);
        }
    }
    Histogram::bucket_value(NUM_BUCKETS - 1)
}

#[derive(Default)]
struct Counter {
    value: AtomicU64,
}

/// A gauge stores the latest value as `f64` bits.
#[derive(Default)]
struct Gauge {
    bits: AtomicU64,
}

struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let idx = (value.log10() - MIN_DECADE) * BUCKETS_PER_DECADE;
        idx.clamp(0.0, (NUM_BUCKETS - 1) as f64) as usize
    }

    /// Geometric midpoint of a bucket, for percentile reconstruction.
    fn bucket_value(idx: usize) -> f64 {
        10f64.powf((idx as f64 + 0.5) / BUCKETS_PER_DECADE + MIN_DECADE)
    }

    fn record(&self, value: f64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&self.sum_bits, |s| s + value);
        update_f64(&self.min_bits, |m| m.min(value));
        update_f64(&self.max_bits, |m| m.max(value));
    }
}

/// CAS-update an `AtomicU64` holding `f64` bits.
fn update_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(v) => current = v,
        }
    }
}

type MetricMap<T> = Mutex<Option<HashMap<&'static str, HashMap<String, Arc<T>>>>>;

static COUNTERS: MetricMap<Counter> = Mutex::new(None);
static GAUGES: MetricMap<Gauge> = Mutex::new(None);
static HISTOGRAMS: MetricMap<Histogram> = Mutex::new(None);

fn get_or_insert<T>(map: &MetricMap<T>, name: &'static str, label: &str, new: fn() -> T) -> Arc<T> {
    let mut guard = map.lock();
    let by_label = guard.get_or_insert_with(HashMap::new).entry(name).or_default();
    match by_label.get(label) {
        Some(found) => Arc::clone(found),
        None => {
            let created = Arc::new(new());
            by_label.insert(label.to_string(), Arc::clone(&created));
            created
        }
    }
}

/// Add `delta` to the counter `name{label}`. No-op while disabled.
pub fn count(name: &'static str, label: &str, delta: u64) {
    if !enabled() {
        return;
    }
    get_or_insert(&COUNTERS, name, label, Counter::default)
        .value
        .fetch_add(delta, Ordering::Relaxed);
}

/// Set the gauge `name{label}` to `value`. No-op while disabled.
pub fn gauge_set(name: &'static str, label: &str, value: f64) {
    if !enabled() {
        return;
    }
    get_or_insert(&GAUGES, name, label, Gauge::default)
        .bits
        .store(value.to_bits(), Ordering::Relaxed);
}

/// Record `value` into the histogram `name{label}`. No-op while disabled.
pub fn observe(name: &'static str, label: &str, value: f64) {
    if !enabled() {
        return;
    }
    get_or_insert(&HISTOGRAMS, name, label, Histogram::new).record(value);
}

/// Snapshot of one counter.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CounterRow {
    /// Metric name.
    pub name: String,
    /// Metric label (empty when unlabelled).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GaugeRow {
    /// Metric name.
    pub name: String,
    /// Metric label (empty when unlabelled).
    pub label: String,
    /// Last stored value.
    pub value: f64,
}

/// Snapshot of one histogram, with approximate percentiles.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HistogramRow {
    /// Metric name.
    pub name: String,
    /// Metric label (empty when unlabelled).
    pub label: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (log-bucket approximation).
    pub p50: f64,
    /// 95th percentile (log-bucket approximation).
    pub p95: f64,
    /// 99th percentile (log-bucket approximation).
    pub p99: f64,
}

/// A full snapshot of the metrics registry, sorted by name then label.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterRow>,
    /// All gauges.
    pub gauges: Vec<GaugeRow>,
    /// All histograms.
    pub histograms: Vec<HistogramRow>,
}

/// Snapshot every metric currently in the registry.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, by_label) in COUNTERS.lock().iter().flatten() {
        for (label, c) in by_label {
            snap.counters.push(CounterRow {
                name: name.to_string(),
                label: label.clone(),
                value: c.value.load(Ordering::Relaxed),
            });
        }
    }
    for (name, by_label) in GAUGES.lock().iter().flatten() {
        for (label, g) in by_label {
            snap.gauges.push(GaugeRow {
                name: name.to_string(),
                label: label.clone(),
                value: f64::from_bits(g.bits.load(Ordering::Relaxed)),
            });
        }
    }
    for (name, by_label) in HISTOGRAMS.lock().iter().flatten() {
        for (label, h) in by_label {
            let counts: Vec<u64> = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let total = h.count.load(Ordering::Relaxed);
            snap.histograms.push(HistogramRow {
                name: name.to_string(),
                label: label.clone(),
                count: total,
                sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                min: f64::from_bits(h.min_bits.load(Ordering::Relaxed)),
                max: f64::from_bits(h.max_bits.load(Ordering::Relaxed)),
                p50: bucket_quantile(&counts, total, 0.50),
                p95: bucket_quantile(&counts, total, 0.95),
                p99: bucket_quantile(&counts, total, 0.99),
            });
        }
    }
    snap.counters.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    snap.gauges.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    snap.histograms.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
    snap
}

pub(crate) fn reset() {
    COUNTERS.lock().take();
    GAUGES.lock().take();
    HISTOGRAMS.lock().take();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_global;

    #[test]
    fn counters_accumulate_per_label() {
        let _g = lock_global();
        count("hits", "a", 2);
        count("hits", "a", 3);
        count("hits", "b", 1);
        let snap = metrics_snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].value, 5);
        assert_eq!(snap.counters[1].value, 1);
    }

    #[test]
    fn gauges_keep_last_value() {
        let _g = lock_global();
        gauge_set("level", "", 1.0);
        gauge_set("level", "", -2.5);
        let snap = metrics_snapshot();
        assert_eq!(snap.gauges[0].value, -2.5);
    }

    #[test]
    fn histogram_percentiles_are_log_accurate() {
        let _g = lock_global();
        for i in 1..=1000u64 {
            observe("lat", "", i as f64 / 1000.0); // uniform on (0, 1]
        }
        let snap = metrics_snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 1000);
        assert!((h.sum - 500.5).abs() < 1e-6);
        assert_eq!(h.min, 0.001);
        assert_eq!(h.max, 1.0);
        // Log-bucket resolution is ~±33%; accept that band around truth.
        assert!((0.3..0.8).contains(&h.p50), "p50 {}", h.p50);
        assert!((0.7..1.4).contains(&h.p95), "p95 {}", h.p95);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 * (1.0 + 1e-12));
    }

    #[test]
    fn histogram_handles_zero_and_negative() {
        let _g = lock_global();
        observe("odd", "", 0.0);
        observe("odd", "", -5.0);
        observe("odd", "", f64::NAN);
        let snap = metrics_snapshot();
        assert_eq!(snap.histograms[0].count, 3);
    }
}
