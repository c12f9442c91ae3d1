//! In-memory spans around the calls into each crate's public functions.
//!
//! A span is a name, a start, an end, the span that caused it, the
//! interval it belongs to, and the allocations made while it was open.
//! Spans nest by closure; a span's *self* time is its duration minus the
//! part its direct children cover. Nothing is written until the traced
//! run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`detector.histogram`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The interval the work belongs to: the identifier the spans of one
    /// unit of work share.
    pub interval: Option<u64>,
    /// Allocations while the span was open, children included.
    pub allocs: u64,
    /// Bytes requested while the span was open, children included.
    pub alloc_bytes: u64,
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans of that name.
    pub count: u64,
    /// Σ duration.
    pub ns: u64,
    /// Σ self time.
    pub self_ns: u64,
    /// Σ allocations (children included).
    pub allocs: u64,
    /// Σ bytes requested (children included).
    pub alloc_bytes: u64,
}

impl Total {
    /// Σ duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// The span recorder. A disabled tracer runs the closures and records
/// nothing: the untraced replica that tracing overhead is measured
/// against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer. Allocations are counted per span only while
    /// [`alloc::set_enabled`] is on, which is the caller's to switch.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span. `f` gets the tracer back to open children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        interval: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let (allocs, alloc_bytes) = alloc::counters();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            interval,
            allocs,
            alloc_bytes,
        });
        self.open.push(index);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let (allocs_now, bytes_now) = alloc::counters();
        let span = &mut self.spans[index];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        span.allocs = allocs_now - span.allocs;
        span.alloc_bytes = bytes_now - span.alloc_bytes;
        result
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name sums, self times included.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let ns = span.end_ns - span.start_ns;
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.ns += ns;
            total.self_ns += ns.saturating_sub(children);
            total.allocs += span.allocs;
            total.alloc_bytes += span.alloc_bytes;
        }
        totals
    }

    /// The spans as one JSON array, a span per line.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        let spans = self.spans.iter().map(|s| {
            json::object([
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("interval", opt(s.interval)),
                ("allocs", s.allocs.to_string()),
                ("alloc_bytes", s.alloc_bytes.to_string()),
            ])
        });
        json::array(spans).replace("}, {", "},\n {")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        alloc::set_enabled(true);
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            t.span("inner", Some(3), |t| {
                t.span("leaf", Some(3), |_| std::hint::black_box(vec![0u8; 4096]));
            });
            t.span("inner", Some(4), |_| ());
        });
        alloc::set_enabled(false);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[2].interval, Some(3));
        assert!(spans[2].allocs >= 1 && spans[2].alloc_bytes >= 4096);
        assert!(
            spans[0].allocs >= spans[2].allocs,
            "parents include children"
        );

        let totals = t.totals();
        let (outer, inner, leaf) = (totals["outer"], totals["inner"], totals["leaf"]);
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.ns - inner.ns);
        assert_eq!(inner.self_ns, inner.ns - leaf.ns);
        assert_eq!(leaf.self_ns, leaf.ns);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(outer.self_ns + inner.self_ns + leaf.self_ns, outer.ns);

        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |t| t.span("y", None, |_| 7)), 7);
        assert!(t.spans().is_empty());
    }
}
