//! Streaming interval assembly for online operation.
//!
//! In the paper's *online* mode, the detector consumes flows as the router
//! exports them and closes a measurement interval every Δ minutes.
//! [`IntervalAssembler`] implements exactly that: feed it flows in rough
//! arrival order and it emits a [`ClosedInterval`] each time a flow arrives
//! past the current window's end (plus a final flush).
//!
//! The assembler tolerates the mild reordering NetFlow collectors see
//! (export batching): flows belonging to an *already-closed* window are
//! counted as [`late_flows`](IntervalAssembler::late_flows) and dropped,
//! mirroring collector practice. Flows dated *before the stream origin*
//! are likewise dropped but tracked separately
//! ([`pre_origin_flows`](IntervalAssembler::pre_origin_flows)), so an
//! operator can tell a mis-set origin (everything pre-origin) from
//! ordinary export reordering (a trickle of late flows).
//!
//! Flows land straight in the open window's [`FlowColumns`], the layout
//! the engine scans, so a closed interval needs no transpose. A new
//! window reserves the rows of the one before it.
//! [`push_run`](IntervalAssembler::push_run) takes a run of flows at
//! once, as records or as a row range of a wire-width capture block
//! ([`FlowRun`]): the part of it inside the open window becomes one
//! `extend` per column, and the run stops at the first flow that closes
//! a window, so it is exactly [`push`](IntervalAssembler::push) on each
//! of its flows.

use std::ops::Range;

use crate::columns::{FlowColumns, FlowRun};
use crate::error::ConfigError;
use crate::flow::FlowRecord;
use crate::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};

/// An interval that has been closed by the assembler, with owned flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedInterval {
    /// Zero-based index since the stream origin.
    pub index: u64,
    /// Inclusive window start, ms.
    pub begin_ms: u64,
    /// Exclusive window end, ms.
    pub end_ms: u64,
    /// Flows that started within the window, in arrival order, one
    /// column per field.
    pub flows: FlowColumns,
}

/// Streaming assembler turning a flow stream into closed intervals.
#[derive(Debug)]
pub struct IntervalAssembler {
    origin_ms: u64,
    interval_ms: u64,
    current_index: u64,
    current: FlowColumns,
    late_flows: u64,
    pre_origin_flows: u64,
    started: bool,
}

impl IntervalAssembler {
    /// New assembler with windows `[origin + i*Δ, origin + (i+1)*Δ)`,
    /// rejecting an invalid configuration with an error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `interval_ms` is zero.
    pub fn try_new(origin_ms: u64, interval_ms: u64) -> Result<Self, ConfigError> {
        if interval_ms == 0 {
            return Err(ConfigError::new("interval length must be positive"));
        }
        Ok(IntervalAssembler {
            origin_ms,
            interval_ms,
            current_index: 0,
            current: FlowColumns::new(),
            late_flows: 0,
            pre_origin_flows: 0,
            started: false,
        })
    }

    /// New assembler with windows `[origin + i*Δ, origin + (i+1)*Δ)`.
    ///
    /// A thin wrapper over [`try_new`](Self::try_new) for callers who
    /// treat a bad interval length as a programming error.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ms` is zero.
    #[must_use]
    pub fn new(origin_ms: u64, interval_ms: u64) -> Self {
        Self::try_new(origin_ms, interval_ms)
            .unwrap_or_else(|e| panic!("invalid assembler configuration: {e}"))
    }

    /// Index of the window a start time falls into.
    fn window_of(&self, start_ms: u64) -> Option<u64> {
        start_ms
            .checked_sub(self.origin_ms)
            .map(|off| off / self.interval_ms)
    }

    /// Feed one flow; returns every interval this flow's arrival closes
    /// (possibly several, when the stream skips empty windows — empties are
    /// emitted too, so the downstream KL time series stays aligned).
    pub fn push(&mut self, flow: FlowRecord) -> Vec<ClosedInterval> {
        let Some(window) = self.window_of(flow.start_ms) else {
            // Dated before the stream origin: dropped, but counted
            // apart from ordinary late flows so the two failure modes
            // stay distinguishable.
            self.pre_origin_flows += 1;
            return Vec::new();
        };
        if !self.started {
            self.started = true;
            self.current_index = window;
            // Emit empty windows from the origin up to the first flow so
            // interval indices always start at zero.
            let mut closed = Vec::new();
            for idx in 0..window {
                closed.push(self.make_closed(idx, FlowColumns::new()));
            }
            self.current.push(&flow);
            return closed;
        }
        if window < self.current_index {
            self.late_flows += 1;
            return Vec::new();
        }
        let mut closed = Vec::new();
        while window > self.current_index {
            closed.push(self.close_current());
        }
        self.current.push(&flow);
        closed
    }

    /// Feed a run of flows: exactly [`push`](Self::push) on each flow in
    /// turn, up to and including the first flow that closes a window.
    /// Returns how many flows were consumed and the intervals that flow
    /// closed; a caller with flows left passes them again. Each piece of
    /// the run that falls in the open window, found on the run's start
    /// times, is appended with one [`FlowRun::append_rows`]; only the
    /// flow after it is taken as a record.
    pub fn push_run<R: FlowRun + ?Sized>(&mut self, run: &R) -> (usize, Vec<ClosedInterval>) {
        let len = run.flow_count();
        let mut at = 0;
        while at < len {
            if let Some(open) = self.open_window() {
                let inside = (at..len)
                    .take_while(|&i| open.contains(&run.start_ms_at(i)))
                    .count();
                run.append_rows(at..at + inside, &mut self.current);
                at += inside;
                if at == len {
                    break;
                }
            }
            let closed = self.push(run.record_at(at));
            at += 1;
            if !closed.is_empty() {
                return (at, closed);
            }
        }
        (len, Vec::new())
    }

    /// The open window, `None` before the first flow or heartbeat: a flow
    /// dated inside it closes nothing. Saturating past `u64::MAX`.
    #[must_use]
    pub(crate) fn open_window(&self) -> Option<Range<u64>> {
        self.started.then(|| {
            let begin = (self.current_index.saturating_mul(self.interval_ms))
                .saturating_add(self.origin_ms);
            begin..begin.saturating_add(self.interval_ms)
        })
    }

    /// Advance the assembler's clock to `now_ms` without a flow: every
    /// window that ends at or before `now_ms`'s window closes (and is
    /// emitted, empties included, exactly as a flow dated `now_ms` would
    /// close them). The punctuation primitive behind event-time
    /// heartbeats — a collector that has seen the exporter's clock reach
    /// `now_ms` knows no flow for an earlier window can still arrive.
    ///
    /// A heartbeat dated before the origin (or inside an already-closed
    /// window) is a no-op: heartbeats carry no data, so nothing is
    /// counted as late or dropped.
    pub fn advance_to(&mut self, now_ms: u64) -> Vec<ClosedInterval> {
        let Some(window) = self.window_of(now_ms) else {
            return Vec::new();
        };
        if !self.started {
            self.started = true;
            self.current_index = 0;
        }
        let mut closed = Vec::new();
        while self.current_index < window {
            closed.push(self.close_current());
        }
        closed
    }

    /// Close and emit the in-progress interval (end of stream).
    pub fn flush(&mut self) -> Option<ClosedInterval> {
        self.started.then(|| self.close_current())
    }

    /// The window length Δ in milliseconds.
    #[must_use]
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// The stream origin: window 0 starts here, ms.
    pub(crate) fn origin_ms(&self) -> u64 {
        self.origin_ms
    }

    /// Every window below this index has been emitted.
    pub(crate) fn closed_below(&self) -> u64 {
        if self.started {
            self.current_index
        } else {
            0
        }
    }

    /// Flows dropped because they arrived after their window closed.
    #[must_use]
    pub fn late_flows(&self) -> u64 {
        self.late_flows
    }

    /// Flows dropped because they were dated before the stream origin.
    #[must_use]
    pub fn pre_origin_flows(&self) -> u64 {
        self.pre_origin_flows
    }

    /// Serialize the assembler's complete mutable state — origin, window
    /// index, the in-progress window's flows, drop counters, and the
    /// started flag — into a snapshot payload.
    /// [`decode_snapshot`](Self::decode_snapshot) rebuilds an assembler
    /// that continues the stream exactly where this one stood.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.origin_ms);
        w.u64(self.interval_ms);
        w.u64(self.current_index);
        w.flows(&self.current.to_flows());
        w.u64(self.late_flows);
        w.u64(self.pre_origin_flows);
        w.bool(self.started);
    }

    /// Rebuild an assembler from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload and
    /// [`RestoreError::Corrupt`] when the recorded configuration is
    /// impossible (zero interval length).
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let origin_ms = r.u64()?;
        let interval_ms = r.u64()?;
        if interval_ms == 0 {
            return Err(RestoreError::Corrupt("zero interval length".into()));
        }
        let current_index = r.u64()?;
        let current = r.flows()?.into_iter().collect();
        let late_flows = r.u64()?;
        let pre_origin_flows = r.u64()?;
        let started = r.bool()?;
        Ok(IntervalAssembler {
            origin_ms,
            interval_ms,
            current_index,
            current,
            late_flows,
            pre_origin_flows,
            started,
        })
    }

    /// Emit the open window and open the next, which reserves the rows
    /// this one held; an empty window hands its reservation on.
    fn close_current(&mut self) -> ClosedInterval {
        let rows = self.current.len();
        let flows = if rows == 0 {
            FlowColumns::new()
        } else {
            std::mem::replace(&mut self.current, FlowColumns::with_capacity(rows))
        };
        let closed = self.make_closed(self.current_index, flows);
        self.current_index += 1;
        closed
    }

    fn make_closed(&self, index: u64, flows: FlowColumns) -> ClosedInterval {
        let begin = self.origin_ms + index * self.interval_ms;
        ClosedInterval {
            index,
            begin_ms: begin,
            end_ms: begin + self.interval_ms,
            flows,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flow::{Protocol, TcpFlags};
    use std::net::Ipv4Addr;

    /// A flow starting at `ms` whose every other field is set from `i`,
    /// so a row that loses or swaps a field shows.
    pub(crate) fn record(ms: u64, i: u8) -> FlowRecord {
        let port = u16::from(i);
        FlowRecord::new(
            ms,
            Ipv4Addr::new(10, i, 0, 1),
            Ipv4Addr::new(192, 168, i, 2),
            1024 + port,
            80 + port,
            Protocol::from_number(i),
        )
        .with_volume(u32::from(i) + 1, 40 * (u32::from(i) + 1))
        .with_end(ms + u64::from(i))
        .with_flags(TcpFlags(i))
    }

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
    fn closes_interval_when_next_window_starts() {
        let mut asm = IntervalAssembler::new(0, 1000);
        assert!(asm.push(flow_at(10)).is_empty());
        assert!(asm.push(flow_at(900)).is_empty());
        let closed = asm.push(flow_at(1000));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].flows.len(), 2);
        let last = asm.flush().unwrap();
        assert_eq!(last.index, 1);
        assert_eq!(last.flows.len(), 1);
    }

    #[test]
    fn emits_empty_windows_for_gaps() {
        let mut asm = IntervalAssembler::new(0, 1000);
        assert!(asm.push(flow_at(100)).is_empty());
        let closed = asm.push(flow_at(3500));
        assert_eq!(closed.len(), 3); // windows 0,1,2 close
        assert_eq!(closed[0].flows.len(), 1);
        assert!(closed[1].flows.is_empty());
        assert!(closed[2].flows.is_empty());
    }

    #[test]
    fn leading_gap_emits_empty_windows_from_origin() {
        let mut asm = IntervalAssembler::new(0, 1000);
        let closed = asm.push(flow_at(2500));
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|c| c.flows.is_empty()));
        assert_eq!(asm.flush().unwrap().index, 2);
    }

    #[test]
    fn late_flows_are_counted_and_dropped() {
        let mut asm = IntervalAssembler::new(0, 1000);
        asm.push(flow_at(1500));
        let closed = asm.push(flow_at(500)); // window 0 already closed
        assert!(closed.is_empty());
        assert_eq!(asm.late_flows(), 1);
        assert_eq!(asm.pre_origin_flows(), 0);
        assert_eq!(asm.flush().unwrap().flows.len(), 1);
    }

    #[test]
    fn flows_before_origin_are_counted_separately() {
        let mut asm = IntervalAssembler::new(10_000, 1000);
        assert!(asm.push(flow_at(500)).is_empty());
        assert_eq!(asm.pre_origin_flows(), 1);
        assert_eq!(asm.late_flows(), 0, "pre-origin is not export lateness");
        assert!(asm.flush().is_none(), "never started");
    }

    #[test]
    fn zero_interval_is_an_error_not_a_panic() {
        let err = IntervalAssembler::try_new(0, 0).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
        assert!(IntervalAssembler::try_new(0, 1000).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid assembler configuration")]
    fn zero_interval_panics_through_new() {
        let _ = IntervalAssembler::new(0, 0);
    }

    #[test]
    fn flush_on_empty_assembler_is_none() {
        let mut asm = IntervalAssembler::new(0, 1000);
        assert!(asm.flush().is_none());
    }

    #[test]
    fn advance_to_closes_like_a_flow_would_without_adding_one() {
        let mut asm = IntervalAssembler::new(0, 1000);
        asm.push(flow_at(100));
        let closed = asm.advance_to(3500);
        let shapes: Vec<(u64, usize)> = closed.iter().map(|c| (c.index, c.flows.len())).collect();
        assert_eq!(shapes, vec![(0, 1), (1, 0), (2, 0)]);
        assert_eq!(asm.late_flows(), 0, "heartbeats drop nothing");
        // The in-progress window (3) is untouched and still accepts flows.
        asm.push(flow_at(3600));
        assert_eq!(asm.flush().unwrap().flows.len(), 1);
    }

    #[test]
    fn advance_to_starts_an_idle_stream_from_the_origin() {
        let mut asm = IntervalAssembler::new(0, 1000);
        let closed = asm.advance_to(2500);
        let indices: Vec<u64> = closed.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1]);
        assert!(closed.iter().all(|c| c.flows.is_empty()));
    }

    #[test]
    fn stale_and_pre_origin_heartbeats_are_no_ops() {
        let mut asm = IntervalAssembler::new(10_000, 1000);
        assert!(asm.advance_to(500).is_empty(), "pre-origin heartbeat");
        assert_eq!(asm.pre_origin_flows(), 0, "not counted as a drop");
        asm.push(flow_at(12_500));
        assert!(asm.advance_to(11_000).is_empty(), "stale heartbeat");
        assert!(asm.advance_to(12_700).is_empty(), "same-window heartbeat");
        assert_eq!(asm.flush().unwrap().flows.len(), 1);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut asm = IntervalAssembler::new(0, 1000);
        asm.push(flow_at(100));
        asm.push(flow_at(1500));
        asm.push(flow_at(200)); // late
        let mut w = SnapshotWriter::new();
        asm.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let mut restored = IntervalAssembler::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        // Both continue the stream identically.
        let tail = [2500u64, 2600, 7000];
        let mut a_out = Vec::new();
        let mut b_out = Vec::new();
        for &ms in &tail {
            a_out.extend(asm.push(flow_at(ms)));
            b_out.extend(restored.push(flow_at(ms)));
        }
        a_out.extend(asm.flush());
        b_out.extend(restored.flush());
        assert_eq!(a_out, b_out);
        assert_eq!(asm.late_flows(), restored.late_flows());
        assert_eq!(asm.pre_origin_flows(), restored.pre_origin_flows());
    }

    /// The checkpoint layout is pinned: the open window is written row
    /// by row as records ([`SnapshotWriter::flows`]). A payload built
    /// that way by hand restores into the columnar window, continues
    /// as the record window would, and encodes back to the same bytes.
    #[test]
    fn snapshot_writes_the_open_window_as_records() {
        let open = vec![record(1_100, 1), record(1_900, 2), record(1_500, 3)];
        let mut w = SnapshotWriter::new();
        w.u64(0); // origin
        w.u64(1_000); // Δ
        w.u64(1); // open window index
        w.flows(&open);
        w.u64(2); // late flows
        w.u64(1); // pre-origin flows
        w.bool(true); // started
        let payload = w.into_bytes();
        let mut r = SnapshotReader::new(&payload);
        let mut restored = IntervalAssembler::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let mut again = SnapshotWriter::new();
        restored.encode_snapshot(&mut again);
        assert_eq!(again.into_bytes(), payload);

        let mut closed = restored.push(record(3_200, 4));
        closed.extend(restored.flush());
        let windows: Vec<(u64, Vec<FlowRecord>)> = (closed.iter())
            .map(|c| (c.index, c.flows.to_flows()))
            .collect();
        let expected = vec![(1, open), (2, vec![]), (3, vec![record(3_200, 4)])];
        assert_eq!(windows, expected);
        assert_eq!((restored.late_flows(), restored.pre_origin_flows()), (2, 1));
    }

    #[test]
    fn snapshot_rejects_zero_interval() {
        let mut w = SnapshotWriter::new();
        w.u64(0); // origin
        w.u64(0); // interval — impossible
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert!(IntervalAssembler::decode_snapshot(&mut r).is_err());
    }

    #[test]
    fn streaming_matches_batch_slicing() {
        use crate::trace::FlowTrace;
        let starts = [10u64, 999, 1000, 1001, 2500, 2600, 7000];
        let flows: Vec<_> = starts.iter().map(|&s| flow_at(s)).collect();

        let trace = FlowTrace::from_flows(flows.clone());
        let batch: Vec<(u64, usize)> = trace
            .intervals(0, 1000)
            .iter()
            .map(|iv| (iv.index, iv.len()))
            .collect();

        let mut asm = IntervalAssembler::new(0, 1000);
        let mut streamed: Vec<(u64, usize)> = Vec::new();
        for f in flows {
            for c in asm.push(f) {
                streamed.push((c.index, c.flows.len()));
            }
        }
        if let Some(c) = asm.flush() {
            streamed.push((c.index, c.flows.len()));
        }
        assert_eq!(streamed, batch);
    }
}
