//! Benchmark-side spans: one per call the benchmark makes into a layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! *self time* is its duration minus the part of its interval that its
//! child spans cover, so the self times of a tree add up to the root's
//! duration. Spans of one operation share an `op_id`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `index.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
}

/// An in-memory span recorder. When disabled every call is a no-op, so
/// the untraced run executes the same benchmark code without the
/// recording cost.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// A tracer for another thread sharing this one's clock, to be merged
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { origin: self.origin, enabled: self.enabled, spans: Vec::new() }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span with explicit bounds (an open-loop request runs from
    /// its *scheduled* send time, which no `Instant::now()` call marks).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.map(|p| p.0),
            op_id,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Open a span now, to be the parent of the calls that follow; end it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op_id: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, None, op_id, now, now)
    }

    /// End a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(idx)) = id {
            self.spans[idx].end_ns = self.ns_at(Instant::now());
        }
    }

    /// Time `f` under a span and return its result with the elapsed
    /// seconds (measured whether or not the tracer records).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, op_id, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Move another tracer's spans (same clock) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times_ns(&self.spans)).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.op_id
            )?;
        }
        out.flush()
    }
}

/// Duration of each span minus the union of its children's intervals
/// (clipped to the span itself, so an overlapping or overhanging child
/// is never subtracted twice or beyond the parent's bounds).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a: union is 10..60
            span(90, 120, Some(0)), // child c overhangs the root: clipped to 90..100
            span(15, 25, Some(1)),  // grandchild of a
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_the_root() {
        let spans = vec![
            span(0, 1000, None),
            span(100, 400, Some(0)),
            span(400, 900, Some(0)),
            span(450, 700, Some(2)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (value, secs) = t.time("x", None, 0, || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        let now = Instant::now();
        a.record("a", None, 1, now, now);
        let mut b = a.fork();
        let root = b.record("b.root", None, 2, now, now);
        b.record("b.child", root, 2, now, now);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].parent, None);
    }
}
