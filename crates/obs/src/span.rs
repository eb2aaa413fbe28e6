//! Hierarchical wall-time spans.
//!
//! A [`SpanGuard`] measures from creation to drop. Guards created while
//! another guard is open on the same thread nest under it: the recorded
//! path is the `/`-joined chain of open span names, so `span("search")`
//! followed by `span("verify")` aggregates under `"search/verify"`.
//! Aggregation is global (path → call count + total seconds).
//!
//! A worker thread that runs part of a span's work adopts the opening
//! thread's stack ([`SpanContext`]), so its spans record under the same
//! paths, and the time it spent adopted is added to every span of that
//! stack: a span's total is the seconds threads spent inside it, which
//! still covers the sum of its children's totals.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use crate::enabled;

/// Aggregate of one span path.
#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_seconds: f64,
    /// Spans that closed while their thread was unwinding from a panic.
    aborted: u64,
}

static SPANS: Mutex<Option<HashMap<String, SpanAgg>>> = Mutex::new(None);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard measuring one span; see [`span`].
pub struct SpanGuard {
    /// `None` when observability was disabled at creation.
    active: Option<(String, Instant)>,
}

/// Open a span named `name`. The returned guard records wall time under
/// the current thread's hierarchical span path when dropped. Near-no-op
/// (no clock read, no allocation) while disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    SpanGuard { active: Some((path, Instant::now())) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((path, start)) = self.active.take() else {
            return;
        };
        let seconds = start.elapsed().as_secs_f64();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        // `Drop` also runs during unwinding (the quarantine path wraps
        // predictions in `catch_unwind`): record the measured duration
        // rather than losing the span, and flag the abort.
        let aborted = std::thread::panicking();
        let mut spans = SPANS.lock();
        let agg = spans.get_or_insert_with(HashMap::new).entry(path).or_default();
        agg.count += 1;
        agg.total_seconds += seconds;
        if aborted {
            agg.aborted += 1;
        }
    }
}

/// The spans open on one thread, outermost first; see [`span_context`].
#[derive(Debug, Clone, Default)]
pub struct SpanContext(Vec<&'static str>);

/// The spans open on the current thread, for worker threads that run part
/// of their work to [`SpanContext::adopt`]. Empty while disabled.
pub fn span_context() -> SpanContext {
    SpanContext(STACK.with(|stack| stack.borrow().clone()))
}

impl SpanContext {
    /// Make this the current thread's span stack until the guard drops:
    /// spans opened meanwhile nest under it, and the guard's lifetime is
    /// added to the total of every span in it (not to their counts). A
    /// no-op for an empty context.
    pub fn adopt(&self) -> AdoptedSpans {
        if self.0.is_empty() {
            return AdoptedSpans { active: None };
        }
        let previous =
            STACK.with(|stack| std::mem::replace(&mut *stack.borrow_mut(), self.0.clone()));
        AdoptedSpans { active: Some((previous, Instant::now())) }
    }
}

/// RAII guard of an adopted [`SpanContext`].
pub struct AdoptedSpans {
    active: Option<(Vec<&'static str>, Instant)>,
}

impl Drop for AdoptedSpans {
    fn drop(&mut self) {
        let Some((previous, start)) = self.active.take() else {
            return;
        };
        let seconds = start.elapsed().as_secs_f64();
        let adopted = STACK.with(|stack| std::mem::replace(&mut *stack.borrow_mut(), previous));
        let mut spans = SPANS.lock();
        let spans = spans.get_or_insert_with(HashMap::new);
        for depth in 1..=adopted.len() {
            spans.entry(adopted[..depth].join("/")).or_default().total_seconds += seconds;
        }
    }
}

/// Aggregated timing of one span path.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SpanRow {
    /// Hierarchical `/`-joined path (`"search/verify"`).
    pub path: String,
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall seconds across those spans, plus the time worker
    /// threads spent on their work ([`SpanContext::adopt`]).
    pub total_seconds: f64,
    /// How many of those spans closed during a panic unwind (included in
    /// `count` and `total_seconds`).
    pub aborted: u64,
}

impl SpanRow {
    /// Mean seconds per span.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }
}

/// Snapshot all span aggregates, sorted by path.
pub fn span_snapshot() -> Vec<SpanRow> {
    let spans = SPANS.lock();
    let mut rows: Vec<SpanRow> = spans
        .as_ref()
        .map(|m| {
            m.iter()
                .map(|(path, agg)| SpanRow {
                    path: path.clone(),
                    count: agg.count,
                    total_seconds: agg.total_seconds,
                    aborted: agg.aborted,
                })
                .collect()
        })
        .unwrap_or_default();
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    rows
}

pub(crate) fn reset() {
    if let Some(m) = SPANS.lock().as_mut() {
        m.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock_global;

    #[test]
    fn spans_nest_into_paths() {
        let _g = lock_global();
        {
            let _outer = span("outer");
            {
                let _child = span("gp.train");
            }
            {
                let _child = span("gp.train");
            }
        }
        let rows = span_snapshot();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/gp.train"]);
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[1].count, 2);
    }

    #[test]
    fn parent_time_covers_children() {
        let _g = lock_global();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let rows = span_snapshot();
        let outer = rows.iter().find(|r| r.path == "outer").unwrap();
        let inner = rows.iter().find(|r| r.path == "outer/inner").unwrap();
        assert!(outer.total_seconds >= inner.total_seconds - 1e-9);
        assert!(inner.total_seconds >= 0.006);
    }

    #[test]
    fn panicking_span_records_with_aborted_flag() {
        let _g = lock_global();
        let unwound = std::panic::catch_unwind(|| {
            let _s = span("doomed");
            std::thread::sleep(std::time::Duration::from_millis(2));
            panic!("injected");
        });
        assert!(unwound.is_err());
        {
            let _s = span("doomed"); // a second, clean pass
        }
        let rows = span_snapshot();
        let row = rows.iter().find(|r| r.path == "doomed").unwrap();
        assert_eq!(row.count, 2, "the unwound span must still be counted");
        assert_eq!(row.aborted, 1);
        assert!(row.total_seconds >= 0.002, "the unwound span keeps its duration");
    }

    #[test]
    fn sibling_threads_do_not_nest() {
        let _g = lock_global();
        let _outer = span("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _t = span("worker");
            });
        });
        drop(_outer);
        let rows = span_snapshot();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["main", "worker"]);
    }

    #[test]
    fn adopted_context_nests_worker_spans_and_adds_their_time() {
        let _g = lock_global();
        {
            let _outer = span("main");
            let context = span_context();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _adopted = context.adopt();
                        let _t = span("worker");
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    });
                }
            });
            let _t = span("worker");
        }
        let rows = span_snapshot();
        let paths: Vec<&str> = rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["main", "main/worker"]);
        assert_eq!((rows[0].count, rows[1].count), (1, 3));
        assert!(rows[1].total_seconds >= 0.010);
        assert!(rows[0].total_seconds >= rows[1].total_seconds - 1e-9, "{rows:?}");
        // An empty context adopts nothing, and the stack is restored.
        drop(SpanContext::default().adopt());
        assert!(span_context().0.is_empty());
    }
}
