//! Unified observability for the SMiLer pipeline: a thread-safe metrics
//! registry (counters, gauges, log-scale histograms), hierarchical wall-time
//! spans, and a bounded event log with JSON-lines export.
//!
//! # Design
//!
//! Everything hangs off process-global state guarded by a single
//! [`enabled`] switch (an atomic flag). Every recording entry point —
//! [`count`], [`gauge_set`], [`observe`], [`span`], [`event`] — checks the
//! switch first and returns without allocating or locking when
//! observability is off, so instrumentation can stay in hot loops
//! permanently. The disabled cost is one relaxed atomic load.
//!
//! Metrics are addressed by a `&'static str` name plus a dynamic label
//! (e.g. `observe("search.pruning_ratio", "d=64", 0.83)`). Callers that
//! build labels with `format!` should gate the construction on
//! [`enabled`] so the disabled path stays allocation-free.
//!
//! Spans nest per thread: the hierarchical path of a span is the `/`-joined
//! chain of the spans open on the current thread when it started
//! (`"search/verify"`, `"step/gp.predict"`). Segments themselves may
//! contain dots (`"gp.train"`); `/` is reserved as the hierarchy
//! separator. Aggregated span timings satisfy the invariant that a
//! parent's total wall time is at least the sum of its children's.
//!
//! # Example
//!
//! ```ignore
//! smiler_obs::set_enabled(true);
//! {
//!     let _outer = smiler_obs::span("search");
//!     let _inner = smiler_obs::span("verify"); // path "search/verify"
//!     smiler_obs::count("search.candidates", "d=64", 128);
//! }
//! println!("{}", smiler_obs::summary_table());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

mod event;
mod export;
mod registry;
mod span;
pub mod stamp;
pub mod trace;
pub mod window;

pub use event::{event, events_dropped, events_snapshot, EventRecord};
pub use export::{
    metrics_jsonl_string, summary_table, trace_jsonl_string, write_metrics_jsonl, write_trace_jsonl,
};
pub use registry::{
    count, gauge_set, metrics_snapshot, observe, CounterRow, GaugeRow, HistogramRow,
    MetricsSnapshot,
};
pub use span::{span, span_context, span_snapshot, AdoptedSpans, SpanContext, SpanGuard, SpanRow};
pub use window::{SloReport, SloTracker, TailQuantiles, WindowedHistogram};

/// The global observability switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn observability on or off. Recording calls made while the switch is
/// off are dropped without allocating.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded metrics, spans, and events, and drop any installed
/// trace sink (the enabled flag is left untouched; the export sequence
/// counter deliberately survives, see [`stamp`]). Spans still open on
/// other threads record into the cleared state when they close.
pub fn reset() {
    registry::reset();
    span::reset();
    event::reset();
    trace::reset();
}

/// Open a hierarchical span: `let _guard = span!("search.verify");`.
///
/// Sugar for [`span`]; the guard records wall time from creation to drop
/// under the current thread's span path.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise access to the process-global state across unit tests.
    pub(crate) fn lock_global() -> parking_lot::MutexGuard<'static, ()> {
        static GUARD: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        let g = GUARD.lock();
        reset();
        set_enabled(true);
        g
    }

    #[test]
    fn disabled_calls_record_nothing() {
        let _g = lock_global();
        set_enabled(false);
        count("c", "", 3);
        gauge_set("g", "", 1.0);
        observe("h", "", 0.5);
        event("e", "", &1u64);
        let _s = span("s");
        drop(_s);
        set_enabled(true);
        let m = metrics_snapshot();
        assert!(m.counters.is_empty() && m.gauges.is_empty() && m.histograms.is_empty());
        assert!(span_snapshot().is_empty());
        assert!(events_snapshot().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let _g = lock_global();
        count("c", "", 1);
        event("e", "", &true);
        {
            let _s = span("s");
        }
        reset();
        let m = metrics_snapshot();
        assert!(m.counters.is_empty());
        assert!(span_snapshot().is_empty());
        assert!(events_snapshot().is_empty());
    }
}
