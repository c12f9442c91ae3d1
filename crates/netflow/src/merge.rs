//! Multi-source interval merging: N exporters → one interval grid.
//!
//! The paper's deployment collects NetFlow from **several border
//! routers** and analyzes the union of their traffic per Δ-minute
//! interval. [`MergeAssembler`] implements that fan-in: one
//! [`IntervalAssembler`] per exporter (each with its own clock origin,
//! so exporters need not agree on wall time) feeding a shared interval
//! grid with **watermark semantics** — grid interval `i` closes only
//! once every live source has advanced past it, so no source's flows
//! can be left behind by a faster peer.
//!
//! ```text
//!   src0 ──► IntervalAssembler(origin₀) ──┐
//!   src1 ──► IntervalAssembler(origin₁) ──┼──► pending[i] per source
//!   srcN ──► IntervalAssembler(originₙ) ──┘         │
//!                                                   ▼
//!                  watermark = min over live sources of closed-below
//!                  grid closes i < watermark → MergedInterval i
//!                  (flows concatenated in source registration order)
//! ```
//!
//! Every window travels as [`FlowColumns`], the seven engine columns
//! with no times: a merged interval takes the first source's segment as
//! it is and appends the others as row-range copies, so no interval is
//! copied as records on its way to the engine. A source's flows arrive
//! in runs ([`MergeAssembler::push_run`]) that stop where the source
//! closes a window, the only arrivals that can move the grid;
//! [`MergeAssembler::push`] is a run of one. A checkpoint writes every
//! lane's open and pending windows as records, each row starting at its
//! window's begin on the lane's own clock.
//!
//! **Determinism.** A merged interval's flows are the concatenation, in
//! source registration order, of each source's window-`i` flows in that
//! source's arrival order. Both orders are independent of how pushes
//! from different sources interleave, so for a fixed per-source flow
//! sequence the merged stream is **bit-identical** no matter how the
//! sources race each other — the contract the multi-source determinism
//! property suite asserts end to end.
//!
//! **Lateness bound.** A pure watermark stalls forever on a source that
//! goes quiet without saying so. [`MergeConfig::max_lag_intervals`]
//! bounds that: when the fastest source runs more than `max_lag`
//! intervals ahead of the grid, the grid force-closes without the
//! laggards, and any interval a laggard eventually delivers for an
//! already-closed grid slot is dropped and counted in its
//! [`SourceStats::stale_flows`]. Sources that end cleanly should call
//! [`MergeAssembler::finish_source`] instead, which releases the
//! watermark without dropping anything.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::columns::{FlowColumns, FlowRun};
use crate::error::ConfigError;
use crate::flow::FlowRecord;
use crate::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use crate::source::{SourceId, SourceSpec};
use crate::stream::IntervalAssembler;

/// Configuration of the multi-source merge grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// Shared interval length Δ, ms.
    pub interval_ms: u64,
    /// Watermark lateness bound, in intervals: when the fastest source
    /// has closed more than this many intervals past the grid, the grid
    /// force-closes without the laggards (their eventual deliveries for
    /// those slots are dropped as stale). `None` = pure watermark: wait
    /// for every live source forever.
    pub max_lag_intervals: Option<u64>,
}

impl MergeConfig {
    /// Pure-watermark config (no lateness bound) at the given Δ.
    #[must_use]
    pub fn new(interval_ms: u64) -> Self {
        MergeConfig {
            interval_ms,
            max_lag_intervals: None,
        }
    }
}

/// One closed interval of the shared grid: the union of every source's
/// window-`i` flows, concatenated in source registration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedInterval {
    /// Zero-based grid interval index.
    pub index: u64,
    /// Inclusive window start in grid time (`index * Δ`), ms.
    pub begin_ms: u64,
    /// Exclusive window end in grid time, ms.
    pub end_ms: u64,
    /// Every source's flows for this window, concatenated in source
    /// registration order (each source's segment in its arrival order).
    pub flows: FlowColumns,
    /// How many flows each registered source contributed, in
    /// registration order — the per-source weights of the union.
    pub source_flows: Vec<usize>,
}

/// Per-source ingestion and drop accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceStats {
    /// The exporter.
    pub id: SourceId,
    /// Flows pushed for this source.
    pub flows: u64,
    /// Flows dropped inside the source's own assembler because they
    /// arrived after their *per-source* window closed.
    pub late_flows: u64,
    /// Flows dropped because they were dated before the source's origin.
    pub pre_origin_flows: u64,
    /// Flows dropped at the merge layer: their whole window arrived
    /// after the grid force-closed that slot (lateness bound exceeded).
    pub stale_flows: u64,
}

impl SourceStats {
    /// Every flow this source lost, for any reason.
    #[must_use]
    pub fn dropped_flows(&self) -> u64 {
        self.late_flows + self.pre_origin_flows + self.stale_flows
    }
}

/// One exporter's lane through the merge: its private assembler, the
/// closed-but-unmerged windows it has delivered, and its drop counters.
#[derive(Debug)]
struct SourceLane {
    spec: SourceSpec,
    assembler: IntervalAssembler,
    /// Windows this source has closed but the grid has not: grid index →
    /// the source's flows for that window.
    pending: BTreeMap<u64, FlowColumns>,
    /// Whether the source declared end-of-stream; finished sources no
    /// longer hold the watermark.
    finished: bool,
    flows: u64,
    stale_flows: u64,
}

impl SourceLane {
    /// Accept one window the inner assembler closed: stash it for the
    /// grid, or drop it as stale when the grid already force-closed that
    /// slot.
    fn accept(&mut self, index: u64, flows: FlowColumns, grid_next: u64) {
        if index < grid_next {
            self.stale_flows += flows.len() as u64;
        } else if !flows.is_empty() {
            // Empty windows need no entry: a missing slot merges as zero
            // flows, so only data-bearing windows occupy memory.
            self.pending.insert(index, flows);
        }
    }
}

/// Streaming fan-in of N exporters onto one shared interval grid, with
/// watermark close semantics and per-source drop accounting. See the
/// [module docs](self) for the execution model.
#[derive(Debug)]
pub struct MergeAssembler {
    config: MergeConfig,
    lanes: Vec<SourceLane>,
    /// Next grid index to close; every index below it has been emitted.
    grid_next: u64,
}

impl MergeAssembler {
    /// Build a merge grid over the given exporters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when Δ is zero, no sources are
    /// given, or two sources share an id.
    pub fn try_new(config: MergeConfig, sources: &[SourceSpec]) -> Result<Self, ConfigError> {
        if sources.is_empty() {
            return Err(ConfigError::new(
                "multi-source merge needs at least one source",
            ));
        }
        let mut lanes = Vec::with_capacity(sources.len());
        for spec in sources {
            if lanes.iter().any(|l: &SourceLane| l.spec.id == spec.id) {
                return Err(ConfigError::new(format!("duplicate source id {}", spec.id)));
            }
            lanes.push(SourceLane {
                spec: *spec,
                assembler: IntervalAssembler::try_new(spec.origin_ms, config.interval_ms)?,
                pending: BTreeMap::new(),
                finished: false,
                flows: 0,
                stale_flows: 0,
            });
        }
        Ok(MergeAssembler {
            config,
            lanes,
            grid_next: 0,
        })
    }

    /// The merge configuration.
    #[must_use]
    pub fn config(&self) -> &MergeConfig {
        &self.config
    }

    /// The registered sources, in registration order.
    #[must_use]
    pub fn sources(&self) -> Vec<SourceSpec> {
        self.lanes.iter().map(|l| l.spec).collect()
    }

    fn lane(&self, source: SourceId) -> usize {
        (self.lanes.iter())
            .position(|l| l.spec.id == source)
            .unwrap_or_else(|| panic!("unknown source {source}: not registered with this merge"))
    }

    fn lane_mut(&mut self, source: SourceId) -> &mut SourceLane {
        let at = self.lane(source);
        &mut self.lanes[at]
    }

    /// Feed one flow from `source`: a [`push_run`](Self::push_run) of
    /// one. Returns every grid interval that became closeable.
    ///
    /// # Panics
    ///
    /// As [`push_run`](Self::push_run).
    pub fn push(&mut self, source: SourceId, flow: FlowRecord) -> Vec<MergedInterval> {
        self.push_run(source, std::slice::from_ref(&flow)).1
    }

    /// Feed a run of flows from `source` — records, or a row range of a
    /// capture block ([`FlowRun`]) — through its lane's
    /// [`IntervalAssembler::push_run`]: the run stops at the first flow
    /// that closes one of the source's windows, which is the only flow
    /// that can move the grid. Returns how many flows were consumed and
    /// every grid interval that became closeable (watermark advanced, or
    /// the lateness bound force-closed laggards); a caller with flows
    /// left passes them again.
    ///
    /// # Panics
    ///
    /// Panics when `source` was not registered at construction, or when
    /// `source` already declared end-of-stream via
    /// [`finish_source`](Self::finish_source).
    pub fn push_run<R: FlowRun + ?Sized>(
        &mut self,
        source: SourceId,
        run: &R,
    ) -> (usize, Vec<MergedInterval>) {
        let grid_next = self.grid_next;
        let lane = self.lane_mut(source);
        assert!(!lane.finished, "source {source} already finished");
        let (consumed, closed) = lane.assembler.push_run(run);
        lane.flows += consumed as u64;
        if closed.is_empty() {
            // The watermark and the lateness frontier only move when a
            // lane closes a window, so there is nothing to advance.
            return (consumed, Vec::new());
        }
        for closed in closed {
            lane.accept(closed.index, closed.flows, grid_next);
        }
        (consumed, self.advance())
    }

    /// Event-time heartbeat from `source`: advance its watermark to
    /// `now_ms` (source-local clock, like its flows' start times)
    /// **without any flows** — the punctuation a live-but-idle exporter
    /// sends (options templates, keepalives) so its silence does not
    /// hold the grid until the lateness bound fires. Every window of
    /// `source` that ends at or before `now_ms`'s window closes (empty
    /// unless flows arrived earlier) and the grid advances as far as the
    /// watermark allows; returns every merged interval that released.
    ///
    /// A stale or pre-origin heartbeat is a no-op: heartbeats carry no
    /// data, so nothing is dropped or counted.
    ///
    /// # Panics
    ///
    /// Panics when `source` was not registered at construction, or when
    /// `source` already declared end-of-stream via
    /// [`finish_source`](Self::finish_source).
    pub fn heartbeat(&mut self, source: SourceId, now_ms: u64) -> Vec<MergedInterval> {
        let grid_next = self.grid_next;
        let lane = self.lane_mut(source);
        assert!(!lane.finished, "source {source} already finished");
        for closed in lane.assembler.advance_to(now_ms) {
            lane.accept(closed.index, closed.flows, grid_next);
        }
        self.advance()
    }

    /// Declare `source` cleanly ended: its in-progress window is flushed
    /// into the grid and it stops holding the watermark, so the
    /// remaining sources alone pace the grid from here on. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when `source` was not registered at construction.
    pub fn finish_source(&mut self, source: SourceId) -> Vec<MergedInterval> {
        let grid_next = self.grid_next;
        let lane = self.lane_mut(source);
        if lane.finished {
            return Vec::new();
        }
        lane.finished = true;
        if let Some(closed) = lane.assembler.flush() {
            lane.accept(closed.index, closed.flows, grid_next);
        }
        self.advance()
    }

    /// End of all streams: finish every remaining source and close the
    /// grid out to the furthest window any source delivered.
    pub fn flush(&mut self) -> Vec<MergedInterval> {
        let grid_next = self.grid_next;
        for lane in &mut self.lanes {
            if !lane.finished {
                lane.finished = true;
                if let Some(closed) = lane.assembler.flush() {
                    lane.accept(closed.index, closed.flows, grid_next);
                }
            }
        }
        let horizon = self.frontier();
        self.close_until(horizon)
    }

    /// `source`'s open window ([`IntervalAssembler::open_window`]): its
    /// flows dated inside it cannot move the grid.
    #[must_use]
    pub(crate) fn open_window(&self, source: SourceId) -> Option<Range<u64>> {
        self.lanes[self.lane(source)].assembler.open_window()
    }

    /// How many grid intervals have closed since the stream began: the
    /// grid's cursor, below which every index has been emitted.
    #[must_use]
    pub fn closed_intervals(&self) -> u64 {
        self.grid_next
    }

    /// Per-source ingestion and drop accounting, in registration order.
    #[must_use]
    pub fn source_stats(&self) -> Vec<SourceStats> {
        self.lanes
            .iter()
            .map(|l| SourceStats {
                id: l.spec.id,
                flows: l.flows,
                late_flows: l.assembler.late_flows(),
                pre_origin_flows: l.assembler.pre_origin_flows(),
                stale_flows: l.stale_flows,
            })
            .collect()
    }

    /// Every flow the merge has dropped across all sources and layers.
    #[must_use]
    pub fn dropped_flows(&self) -> u64 {
        self.source_stats()
            .iter()
            .map(SourceStats::dropped_flows)
            .sum()
    }

    /// Serialize the merge grid's complete mutable state — the config,
    /// every lane (spec, inner assembler, pending windows, frontier,
    /// finished flag, counters), and the grid cursor — so
    /// [`decode_snapshot`](Self::decode_snapshot) can resume the fan-in
    /// exactly where this one stood.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.config.interval_ms);
        match self.config.max_lag_intervals {
            Some(lag) => {
                w.bool(true);
                w.u64(lag);
            }
            None => w.bool(false),
        }
        w.u64(self.grid_next);
        w.usize(self.lanes.len());
        for lane in &self.lanes {
            w.u32(lane.spec.id.0);
            w.u64(lane.spec.origin_ms);
            lane.assembler.encode_snapshot(w);
            w.usize(lane.pending.len());
            for (&index, flows) in &lane.pending {
                w.u64(index);
                w.flows(&flows.to_flows(lane.assembler.begin_ms(index)));
            }
            w.u64(lane.assembler.closed_below());
            w.bool(lane.finished);
            w.u64(lane.flows);
            w.u64(lane.stale_flows);
        }
    }

    /// Rebuild a merge grid from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload and
    /// [`RestoreError::Corrupt`] on an impossible configuration (zero Δ,
    /// no lanes, two lanes sharing a source id).
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let interval_ms = r.u64()?;
        if interval_ms == 0 {
            return Err(RestoreError::Corrupt("zero merge interval".into()));
        }
        let max_lag_intervals = if r.bool()? { Some(r.u64()?) } else { None };
        let grid_next = r.u64()?;
        let lane_count = r.seq_len(1)?;
        if lane_count == 0 {
            return Err(RestoreError::Corrupt("merge grid with no sources".into()));
        }
        let mut lanes = Vec::with_capacity(lane_count);
        for _ in 0..lane_count {
            let spec = SourceSpec::new(r.u32()?, r.u64()?);
            if lanes.iter().any(|l: &SourceLane| l.spec.id == spec.id) {
                return Err(RestoreError::Corrupt(format!(
                    "duplicate source id {}",
                    spec.id
                )));
            }
            let assembler = IntervalAssembler::decode_snapshot(r)?;
            let pending_count = r.seq_len(8)?;
            let mut pending = BTreeMap::new();
            for _ in 0..pending_count {
                let index = r.u64()?;
                pending.insert(index, FlowColumns::from_flows(&r.flows()?));
            }
            let _closed_below = r.u64()?; // derived from the assembler
            lanes.push(SourceLane {
                spec,
                assembler,
                pending,
                finished: r.bool()?,
                flows: r.u64()?,
                stale_flows: r.u64()?,
            });
        }
        Ok(MergeAssembler {
            config: MergeConfig {
                interval_ms,
                max_lag_intervals,
            },
            lanes,
            grid_next,
        })
    }

    /// A one-lane grid (source `0`, the assembler's origin, no lateness
    /// bound) that continues a single-source `assembler` exactly where
    /// it stood, `flows` counting what that source was fed. Every window
    /// the assembler closed went straight downstream, so the grid has
    /// merged them all and holds nothing pending. This is how a
    /// version-1 checkpoint, written by the single-source engine,
    /// resumes on the merge grid.
    #[must_use]
    pub fn from_single(assembler: IntervalAssembler, flows: u64) -> Self {
        MergeAssembler {
            config: MergeConfig::new(assembler.interval_ms()),
            grid_next: assembler.closed_below(),
            lanes: vec![SourceLane {
                spec: SourceSpec::new(0u32, assembler.origin_ms()),
                assembler,
                pending: BTreeMap::new(),
                finished: false,
                flows,
                stale_flows: 0,
            }],
        }
    }

    /// The furthest close frontier any source has reached.
    fn frontier(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.assembler.closed_below())
            .max()
            .unwrap_or(0)
    }

    /// Close every grid interval the watermark (and lateness bound)
    /// allows.
    fn advance(&mut self) -> Vec<MergedInterval> {
        // Watermark: the slowest live source. With every source
        // finished the watermark lifts entirely (flush semantics).
        let watermark = self
            .lanes
            .iter()
            .filter(|l| !l.finished)
            .map(|l| l.assembler.closed_below())
            .min()
            .unwrap_or_else(|| self.frontier());
        // Lateness bound: never let the grid trail the leader by more
        // than max_lag intervals.
        let forced = self
            .config
            .max_lag_intervals
            .map_or(0, |lag| self.frontier().saturating_sub(lag));
        self.close_until(watermark.max(forced))
    }

    /// Emit merged intervals for every grid index in `[grid_next, upto)`.
    fn close_until(&mut self, upto: u64) -> Vec<MergedInterval> {
        let mut merged = Vec::new();
        while self.grid_next < upto {
            let index = self.grid_next;
            let mut flows = FlowColumns::new();
            let mut source_flows = Vec::with_capacity(self.lanes.len());
            for lane in &mut self.lanes {
                match lane.pending.remove(&index) {
                    Some(segment) => {
                        source_flows.push(segment.len());
                        // Move the first segment in rather than copy it:
                        // with one source it is the whole interval.
                        if flows.is_empty() {
                            flows = segment;
                        } else {
                            flows.extend_from_rows(&segment, 0..segment.len());
                        }
                    }
                    None => source_flows.push(0),
                }
            }
            let begin_ms = index * self.config.interval_ms;
            merged.push(MergedInterval {
                index,
                begin_ms,
                end_ms: begin_ms + self.config.interval_ms,
                flows,
                source_flows,
            });
            self.grid_next += 1;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Protocol;
    use crate::stream::tests::record;
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

    fn two_sources(max_lag: Option<u64>) -> MergeAssembler {
        let mut config = MergeConfig::new(1000);
        config.max_lag_intervals = max_lag;
        MergeAssembler::try_new(
            config,
            &[SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 0)],
        )
        .unwrap()
    }

    #[test]
    fn grid_waits_for_the_slowest_source() {
        let mut m = two_sources(None);
        // Source 0 races three windows ahead; nothing closes until
        // source 1 advances past window 0.
        assert!(m.push(SourceId(0), flow_at(100)).is_empty());
        assert!(m.push(SourceId(0), flow_at(3200)).is_empty());
        assert!(m.push(SourceId(1), flow_at(50)).is_empty());
        let closed = m.push(SourceId(1), flow_at(1100));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].index, 0);
        assert_eq!(closed[0].flows.len(), 2);
        assert_eq!(closed[0].source_flows, vec![1, 1]);
    }

    #[test]
    fn merged_flows_concatenate_in_registration_order() {
        let mut m = two_sources(None);
        // Source 1's window-0 flow arrives first; the merge must still
        // put source 0's segment first.
        let (a, b, c) = (record(700, 1), record(300, 2), record(400, 3));
        m.push(SourceId(1), a);
        m.push(SourceId(0), b);
        m.push(SourceId(0), c);
        let mut closed = m.flush();
        assert_eq!(closed.len(), 1);
        let iv = closed.remove(0);
        assert_eq!(iv.source_flows, vec![2, 1]);
        let expected = FlowColumns::from_flows(&[b, c, a]);
        assert_eq!(iv.flows, expected, "src0 segment, then src1");
    }

    #[test]
    fn per_source_origins_skew_onto_one_grid() {
        let config = MergeConfig::new(1000);
        let mut m = MergeAssembler::try_new(
            config,
            &[SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 250)],
        )
        .unwrap();
        // Local time 1100 at source 1 is grid time 850: still window 0.
        m.push(SourceId(1), flow_at(1100));
        m.push(SourceId(0), flow_at(100));
        let closed = m.flush();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].source_flows, vec![1, 1]);
    }

    #[test]
    fn finished_source_releases_the_watermark() {
        let mut m = two_sources(None);
        m.push(SourceId(0), flow_at(100));
        m.push(SourceId(0), flow_at(2500));
        // Source 1 never sent a flow; finishing it hands the grid to
        // source 0 alone.
        let closed = m.finish_source(SourceId(1));
        assert_eq!(closed.len(), 2, "windows 0 and 1 close");
        assert_eq!(closed[0].source_flows, vec![1, 0]);
        assert!(closed[1].flows.is_empty(), "gap window merged empty");
        assert!(m.finish_source(SourceId(1)).is_empty(), "idempotent");
        let tail = m.flush();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].index, 2);
    }

    #[test]
    fn heartbeat_releases_the_grid_without_flows() {
        // No lateness bound: only the heartbeat can release the grid.
        let mut m = two_sources(None);
        m.push(SourceId(0), flow_at(100));
        m.push(SourceId(0), flow_at(2500)); // source 0 frontier: 2
                                            // Source 1 is live but idle: nothing closes...
        assert_eq!(m.dropped_flows(), 0);
        // ...until its collector punctuation advances it past window 1.
        let closed = m.heartbeat(SourceId(1), 2100);
        assert_eq!(closed.len(), 2, "windows 0 and 1 released");
        assert_eq!(closed[0].source_flows, vec![1, 0]);
        assert!(closed[1].flows.is_empty());
        assert_eq!(m.dropped_flows(), 0, "heartbeats drop nothing");
        // A later flow from source 1 in its current window still lands.
        let closed = m.push(SourceId(1), flow_at(2200));
        assert!(closed.is_empty());
        let tail = m.flush();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].source_flows, vec![1, 1]);
    }

    #[test]
    fn heartbeat_respects_per_source_origin_and_staleness() {
        let config = MergeConfig::new(1000);
        let mut m = MergeAssembler::try_new(
            config,
            &[SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 250)],
        )
        .unwrap();
        m.push(SourceId(0), flow_at(100));
        m.push(SourceId(0), flow_at(1100));
        // Local 1250 at source 1 is grid 1000: only window 0 closes.
        let closed = m.heartbeat(SourceId(1), 1250 + 250);
        assert_eq!(closed.len(), 1);
        assert!(m.heartbeat(SourceId(1), 100).is_empty(), "stale is a no-op");
        assert_eq!(m.dropped_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn heartbeat_after_finish_panics() {
        let mut m = two_sources(None);
        let _ = m.finish_source(SourceId(0));
        let _ = m.heartbeat(SourceId(0), 5000);
    }

    #[test]
    fn lateness_bound_force_closes_and_counts_stale_flows() {
        let mut m = two_sources(Some(2));
        m.push(SourceId(1), flow_at(50));
        // Source 0 storms ahead: closing windows 0..=4 puts its frontier
        // at 5, so the grid force-closes up to 5 - 2 = 3 without
        // source 1.
        let closed = m.push(SourceId(0), flow_at(5500));
        assert_eq!(closed.len(), 3, "windows 0,1,2 force-closed");
        assert_eq!(
            closed[0].source_flows,
            vec![0, 0],
            "src0's own window 0 \
             was empty too — its first flow landed in window 5"
        );
        // Source 1 now delivers window 0 (closing it by advancing):
        // stale, dropped, counted.
        m.push(SourceId(1), flow_at(1100));
        let stats = m.source_stats();
        assert_eq!(stats[1].stale_flows, 1);
        assert_eq!(stats[1].late_flows, 0, "stale ≠ per-source late");
        assert_eq!(m.dropped_flows(), 1);
    }

    #[test]
    fn per_source_late_and_pre_origin_drops_are_attributed() {
        let config = MergeConfig::new(1000);
        let mut m = MergeAssembler::try_new(
            config,
            &[SourceSpec::new(0u32, 1000), SourceSpec::new(1u32, 0)],
        )
        .unwrap();
        m.push(SourceId(0), flow_at(500)); // before src0's origin
        m.push(SourceId(1), flow_at(1500));
        m.push(SourceId(1), flow_at(300)); // late within src1
        let stats = m.source_stats();
        assert_eq!(stats[0].pre_origin_flows, 1);
        assert_eq!(stats[1].late_flows, 1);
        assert_eq!(m.dropped_flows(), 2);
    }

    #[test]
    fn flush_emits_trailing_gap_windows() {
        let mut m = two_sources(None);
        m.push(SourceId(0), flow_at(100));
        m.push(SourceId(1), flow_at(4200));
        let closed = m.flush();
        // Grid runs to source 1's frontier (window 4 inclusive).
        let indices: Vec<u64> = closed.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert_eq!(closed[0].source_flows, vec![1, 0]);
        assert_eq!(closed[4].source_flows, vec![0, 1]);
    }

    #[test]
    fn config_errors_are_reported() {
        let config = MergeConfig::new(1000);
        assert!(MergeAssembler::try_new(config, &[]).is_err(), "no sources");
        assert!(
            MergeAssembler::try_new(
                config,
                &[SourceSpec::new(1u32, 0), SourceSpec::new(1u32, 50)]
            )
            .is_err(),
            "duplicate ids"
        );
        assert!(
            MergeAssembler::try_new(MergeConfig::new(0), &[SourceSpec::new(0u32, 0)]).is_err(),
            "zero interval"
        );
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn unknown_source_panics() {
        let mut m = two_sources(None);
        let _ = m.push(SourceId(9), flow_at(0));
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn push_after_finish_panics() {
        let mut m = two_sources(None);
        let _ = m.finish_source(SourceId(0));
        let _ = m.push(SourceId(0), flow_at(0));
    }

    #[test]
    fn snapshot_round_trip_resumes_the_grid_identically() {
        let mut m = two_sources(Some(2));
        m.push(SourceId(0), flow_at(100));
        m.push(SourceId(0), flow_at(2500));
        m.push(SourceId(1), flow_at(50));
        m.heartbeat(SourceId(1), 1200);
        let mut w = SnapshotWriter::new();
        m.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let mut restored = MergeAssembler::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.sources(), m.sources());
        assert_eq!(restored.source_stats(), m.source_stats());
        // Both continue identically through a finish + flush.
        let mut a = m.push(SourceId(1), flow_at(2300));
        let mut b = restored.push(SourceId(1), flow_at(2300));
        a.extend(m.finish_source(SourceId(0)));
        b.extend(restored.finish_source(SourceId(0)));
        a.extend(m.flush());
        b.extend(restored.flush());
        assert_eq!(a, b);
        assert_eq!(restored.source_stats(), m.source_stats());
    }

    /// The checkpoint layout is pinned for the grid too: every lane's
    /// open window and pending windows are written row by row as
    /// records. A two-lane payload built that way by hand, its records
    /// carrying their own times and TCP flags as older builds wrote
    /// them, restores into columnar lanes, merges the record
    /// concatenations, and encodes back to the same layout, every row
    /// starting and ending at its window's begin on its lane's clock,
    /// with no flags.
    #[test]
    fn snapshot_writes_lane_windows_as_records() {
        use crate::stream::tests::held;
        let p1 = vec![record(1_100, 1), record(1_200, 2)];
        let p2 = vec![record(2_500, 3)];
        let a = vec![record(3_300, 4), record(3_100, 5)];
        let q1 = vec![record(1_300, 6)];
        let b = vec![record(2_400, 7), record(2_900, 8)];
        // (id, origin, open index, open window, pending windows)
        let lanes = [
            (0u32, 0u64, 3u64, &a, vec![(1u64, &p1), (2, &p2)]),
            (1, 250, 2, &b, vec![(1, &q1)]),
        ];
        // The payload with each row written as `row` gives it, from the
        // row and its window's begin.
        let payload = |row: fn(&FlowRecord, u64) -> FlowRecord| {
            let rows = |flows: &[FlowRecord], begin: u64| {
                flows.iter().map(|f| row(f, begin)).collect::<Vec<_>>()
            };
            let mut w = SnapshotWriter::new();
            w.u64(1_000); // Δ
            w.bool(true); // lateness bound…
            w.u64(2); // …of two intervals
            w.u64(1); // next grid index
            w.usize(lanes.len());
            for (id, origin, open_index, open, pending) in &lanes {
                w.u32(*id);
                w.u64(*origin);
                // The lane's assembler: origin, Δ, open index, open window,
                // late and pre-origin counts, started.
                w.u64(*origin);
                w.u64(1_000);
                w.u64(*open_index);
                w.flows(&rows(open, origin + open_index * 1_000));
                w.u64(0);
                w.u64(0);
                w.bool(true);
                w.usize(pending.len());
                for (index, flows) in pending {
                    w.u64(*index);
                    w.flows(&rows(flows, origin + index * 1_000));
                }
                w.u64(*open_index); // closed below
                w.bool(false); // finished
                w.u64(9); // flows pushed
                w.u64(0); // stale flows
            }
            w.into_bytes()
        };
        let older = payload(|flow, _| *flow);
        let mut r = SnapshotReader::new(&older);
        let mut restored = MergeAssembler::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let mut again = SnapshotWriter::new();
        restored.encode_snapshot(&mut again);
        assert_eq!(again.into_bytes(), payload(held));

        let merged: Vec<(u64, Vec<FlowRecord>, Vec<usize>)> = (restored.flush().into_iter())
            .map(|iv| (iv.index, iv.flows.to_flows(iv.begin_ms), iv.source_flows))
            .collect();
        let at = |flows: Vec<FlowRecord>, begin| flows.iter().map(|f| held(f, begin)).collect();
        let expected = vec![
            (1, at([&p1[..], &q1].concat(), 1_000), vec![2, 1]),
            (2, at([&p2[..], &b].concat(), 2_000), vec![1, 2]),
            (3, at(a.clone(), 3_000), vec![2, 0]),
        ];
        assert_eq!(merged, expected);
    }

    #[test]
    fn snapshot_rejects_a_grid_with_no_sources() {
        let mut w = SnapshotWriter::new();
        w.u64(1000); // interval
        w.bool(false); // no lag bound
        w.u64(0); // grid_next
        w.usize(0); // zero lanes — impossible
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert!(MergeAssembler::decode_snapshot(&mut r).is_err());
    }

    #[test]
    fn snapshot_rejects_lanes_sharing_a_source_id() {
        // `try_new` refuses duplicate ids, so a snapshot holding them is
        // corrupt; restoring it would leave a lane no id can reach.
        let mut m = two_sources(None);
        m.push(SourceId(1), flow_at(50));
        m.lanes[1].spec.id = SourceId(0);
        let mut w = SnapshotWriter::new();
        m.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert!(matches!(
            MergeAssembler::decode_snapshot(&mut r),
            Err(RestoreError::Corrupt(what)) if what == "duplicate source id src0"
        ));
    }
}
