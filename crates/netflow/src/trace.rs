//! Flow traces and measurement-interval slicing.
//!
//! The pipeline operates on fixed-length measurement intervals (the paper's
//! Δ, 5–15 minutes). [`FlowTrace`] owns a time-ordered flow sequence;
//! [`FlowTrace::intervals`] slices it into [`Interval`]s by flow *start*
//! time, which is how per-interval flow-count histograms are defined in the
//! paper (a flow belongs to the interval in which it starts).

use crate::flow::FlowRecord;

/// Milliseconds in one minute, for interval arithmetic.
pub const MINUTE_MS: u64 = 60_000;

/// An owned, time-ordered collection of flow records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowTrace {
    flows: Vec<FlowRecord>,
    sorted: bool,
}

impl FlowTrace {
    /// New, empty trace.
    #[must_use]
    pub fn new() -> Self {
        FlowTrace {
            flows: Vec::new(),
            sorted: true,
        }
    }

    /// Build from flows, sorting them by start time.
    #[must_use]
    pub fn from_flows(mut flows: Vec<FlowRecord>) -> Self {
        flows.sort_by_key(|f| f.start_ms);
        FlowTrace {
            flows,
            sorted: true,
        }
    }

    /// Append one flow. Order is re-established lazily on first use.
    pub fn push(&mut self, flow: FlowRecord) {
        if let Some(last) = self.flows.last() {
            if flow.start_ms < last.start_ms {
                self.sorted = false;
            }
        }
        self.flows.push(flow);
    }

    /// Append many flows.
    pub fn extend(&mut self, flows: impl IntoIterator<Item = FlowRecord>) {
        for f in flows {
            self.push(f);
        }
    }

    /// Ensure time ordering (no-op when already sorted).
    pub fn sort(&mut self) {
        if !self.sorted {
            self.flows.sort_by_key(|f| f.start_ms);
            self.sorted = true;
        }
    }

    /// The flows, in time order.
    #[must_use]
    pub fn flows(&mut self) -> &[FlowRecord] {
        self.sort();
        &self.flows
    }

    /// Number of flows in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the trace holds no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Start time of the earliest flow (ms), or `None` when empty.
    #[must_use]
    pub fn start_ms(&mut self) -> Option<u64> {
        self.sort();
        self.flows.first().map(|f| f.start_ms)
    }

    /// Start time of the latest flow (ms), or `None` when empty.
    #[must_use]
    pub fn end_ms(&mut self) -> Option<u64> {
        self.sort();
        self.flows.last().map(|f| f.start_ms)
    }

    /// Slice the trace into consecutive measurement intervals of
    /// `interval_ms`, starting at `origin_ms`.
    ///
    /// Every interval between `origin_ms` and the last flow is produced,
    /// **including empty ones** — gaps matter to the detector because the KL
    /// time series must stay aligned with wall-clock intervals.
    #[must_use]
    pub fn intervals(&mut self, origin_ms: u64, interval_ms: u64) -> Vec<Interval<'_>> {
        assert!(interval_ms > 0, "interval length must be positive");
        self.sort();
        let mut out = Vec::new();
        if self.flows.is_empty() {
            return out;
        }
        let last_start = self.flows.last().expect("non-empty").start_ms;
        let mut lo = 0usize;
        let mut index = 0u64;
        loop {
            let begin = origin_ms + index * interval_ms;
            let end = begin + interval_ms;
            if begin > last_start {
                break;
            }
            let hi = self.flows[lo..].partition_point(|f| f.start_ms < end) + lo;
            out.push(Interval {
                index,
                begin_ms: begin,
                end_ms: end,
                flows: &self.flows[lo..hi],
            });
            lo = hi;
            index += 1;
        }
        out
    }

    /// Consume the trace, returning the (sorted) flows.
    #[must_use]
    pub fn into_flows(mut self) -> Vec<FlowRecord> {
        self.sort();
        self.flows
    }
}

impl FromIterator<FlowRecord> for FlowTrace {
    fn from_iter<T: IntoIterator<Item = FlowRecord>>(iter: T) -> Self {
        FlowTrace::from_flows(iter.into_iter().collect())
    }
}

/// One measurement interval: a window `[begin_ms, end_ms)` and the flows
/// that started inside it.
#[derive(Debug, Clone, Copy)]
pub struct Interval<'a> {
    /// Zero-based interval index since the trace origin.
    pub index: u64,
    /// Inclusive window start, ms.
    pub begin_ms: u64,
    /// Exclusive window end, ms.
    pub end_ms: u64,
    /// Flows whose start time falls inside the window.
    pub flows: &'a [FlowRecord],
}

impl Interval<'_> {
    /// Number of flows in the interval.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the interval contains no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Protocol;
    use std::net::Ipv4Addr;

    fn flow_at(ms: u64) -> FlowRecord {
        FlowRecord::new(
            ms,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Protocol::Udp,
        )
    }

    #[test]
    fn push_out_of_order_then_sort() {
        let mut t = FlowTrace::new();
        t.push(flow_at(500));
        t.push(flow_at(100));
        t.push(flow_at(300));
        let starts: Vec<_> = t.flows().iter().map(|f| f.start_ms).collect();
        assert_eq!(starts, vec![100, 300, 500]);
    }

    #[test]
    fn intervals_partition_all_flows() {
        let flows: Vec<_> = (0..100).map(|i| flow_at(i * 137)).collect();
        let mut t = FlowTrace::from_flows(flows);
        let ivs = t.intervals(0, 1000);
        let total: usize = ivs.iter().map(Interval::len).sum();
        assert_eq!(total, 100);
        for iv in &ivs {
            for f in iv.flows {
                assert!(f.start_ms >= iv.begin_ms && f.start_ms < iv.end_ms);
            }
        }
    }

    #[test]
    fn intervals_include_empty_gaps() {
        let mut t = FlowTrace::from_flows(vec![flow_at(100), flow_at(5100)]);
        let ivs = t.intervals(0, 1000);
        assert_eq!(ivs.len(), 6); // windows [0,1000) .. [5000,6000)
        assert_eq!(ivs[0].len(), 1);
        assert!(ivs[1].is_empty());
        assert!(ivs[4].is_empty());
        assert_eq!(ivs[5].len(), 1);
        assert_eq!(ivs[5].index, 5);
    }

    #[test]
    fn boundary_flow_belongs_to_next_interval() {
        let mut t = FlowTrace::from_flows(vec![flow_at(999), flow_at(1000)]);
        let ivs = t.intervals(0, 1000);
        assert_eq!(ivs[0].len(), 1);
        assert_eq!(ivs[1].len(), 1);
    }

    #[test]
    fn empty_trace_yields_no_intervals() {
        let mut t = FlowTrace::new();
        assert!(t.intervals(0, 1000).is_empty());
        assert_eq!(t.start_ms(), None);
        assert_eq!(t.end_ms(), None);
    }

    #[test]
    fn origin_offsets_window_alignment() {
        let mut t = FlowTrace::from_flows(vec![flow_at(1500)]);
        let ivs = t.intervals(500, 1000);
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[1].begin_ms, 1500);
        assert_eq!(ivs[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "interval length must be positive")]
    fn zero_interval_panics() {
        let mut t = FlowTrace::from_flows(vec![flow_at(0)]);
        let _ = t.intervals(0, 0);
    }

    #[test]
    fn from_iterator_collects_sorted() {
        let t: FlowTrace = vec![flow_at(9), flow_at(3)].into_iter().collect();
        assert_eq!(t.len(), 2);
        let mut t = t;
        assert_eq!(t.start_ms(), Some(3));
        assert_eq!(t.end_ms(), Some(9));
    }
}
