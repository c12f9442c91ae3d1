//! Captures replayed onto one interval grid in collector arrival order.
//!
//! Each capture is one exporter (source `i` the `i`-th) on a shared
//! [`MergeAssembler`] grid, and [`Replay`] is a k-way merge of them on
//! grid-relative time: each capture in file order, flows before
//! same-millisecond heartbeats, ties to the lowest source. Heartbeats
//! wait for a later flow (those left at the end are dropped). Runs of one
//! capture's flows end only where the grid's open windows say a flow can
//! close one, so the grid gives what the per-flow merge gives. One reader
//! thread reads the captures in step in grid time, each at most a
//! bounded ring of blocks ahead. A replay [`resume`](Replay::resume)s a
//! checkpointed grid: it passes over the flows the grid was fed.

use std::collections::VecDeque;
use std::io::Read;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::capture::{CaptureColumns, CaptureRun};
use crate::error::{ReadError, ReplayError, ReplayErrorKind};
use crate::merge::MergeAssembler;
use crate::source::{SourceId, SourceSpec};
use crate::v5::V5_MAX_RECORDS;
use crate::v9::{Packet, TraceReader};

/// Flows per block (100 KiB at 25 bytes a flow).
const BLOCK: usize = 4096;

/// The most blocks of one capture read and not yet handed back by the
/// replay (3.1 MiB): a capture's memory, whatever its length.
const READ_AHEAD: usize = 32;

/// A merge key: grid-relative ms, heartbeat, lane.
type Key = (u64, bool, usize);

/// What the replay hands out next.
#[derive(Debug)]
pub enum Arrival<'a> {
    /// A run of one capture's flows in file order, never empty, for
    /// [`MergeAssembler::push_run`] (or the engine above it); then
    /// [`consume`](Replay::consume) what it took.
    Run(CaptureRun<'a>),
    /// A v9/IPFIX export clock, source-local ms, for
    /// [`MergeAssembler::heartbeat`].
    Heartbeat(u64),
}

/// What the capture read took ([`Replay::finish`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    /// The reader thread's time from spawn to its last block.
    pub read: Duration,
    /// The flows it read.
    pub flows: usize,
    /// Its time waiting for the replay to hand a block back.
    pub full: Duration,
    /// The replay's time waiting for a block not read yet.
    pub wait: Duration,
    /// The most blocks read and not yet handed back, summed over the
    /// captures.
    pub peak_blocks: usize,
}

/// A stretch of one capture: its flows in wire-width columns, its
/// heartbeats each after that many of the flows, and its source.
struct Block {
    source: usize,
    flows: CaptureColumns,
    beats: Vec<(usize, u64)>,
}

impl Block {
    fn new() -> Self {
        Block {
            source: 0,
            flows: CaptureColumns::with_capacity(BLOCK),
            beats: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.flows.is_empty() && self.beats.is_empty()
    }

    /// Fill the empty block with the capture's next stretch, until a full
    /// datagram no longer fits or it holds a flow and the source has
    /// nothing more queued ([`TraceReader::waits`], so a live feed is not
    /// held back). Empty at the end of the capture; on a read error it
    /// keeps what was read before it.
    fn fill(&mut self, capture: &mut TraceReader<impl Read>) -> Result<(), ReadError> {
        while self.flows.len() + V5_MAX_RECORDS <= BLOCK {
            if !self.flows.is_empty() && capture.waits() {
                break;
            }
            match capture.read_columns(&mut self.flows).transpose()? {
                Some(Packet::Flows(_)) => {}
                Some(Packet::Heartbeat(p)) => self.beats.push((self.flows.len(), p.export_ms)),
                None => break,
            }
        }
        Ok(())
    }
}

/// A block of a lane's capture, or the read error that ends it.
type Sent = Result<Block, ReadError>;

/// The capture reader, the one thread beside the replay: `captures[s]`
/// feeds `lanes[s]` a [`Block`] at a time, with at most `budget` blocks
/// of a lane in flight. A replayed block comes back on `returned` to be
/// cleared and refilled. The lanes are read in step: it reads next the
/// lane furthest behind, the one whose last-read flow is earliest in grid
/// time (one with no flow first, ties to the lowest source), if it has a
/// block to spare; else the furthest behind with no block in flight; and
/// else it waits for a returned block. So a slow exporter's lane runs no
/// further ahead of the grid than the fast ones. Sends never block, and a
/// replay waits only for a lane whose blocks are all back, which the
/// second rule serves. A lane is hung up at its capture's end, after its
/// read error if any. The reader stops at the first send no lane
/// receives, or when nothing can hand a block back.
fn read_captures(
    captures: Vec<impl Read>,
    interval_ms: u64,
    lanes: Vec<Sender<Sent>>,
    returned: Receiver<Block>,
    budget: usize,
) -> ReadStats {
    let started = Instant::now();
    // Each open capture: its source, its lane, and its grid origin and
    // the grid time of its last-read flow once it has read one.
    let mut open: Vec<_> = (captures.into_iter().map(TraceReader::new))
        .zip(lanes)
        .enumerate()
        .map(|(source, (capture, lane))| (source, capture, lane, None::<(u64, u64)>))
        .collect();
    let mut in_flight = vec![0; open.len()];
    let mut free: Vec<Block> = Vec::new();
    let mut stats = ReadStats::default();
    'read: while !open.is_empty() {
        let next = loop {
            // The lane furthest behind if it has a block to spare, else the
            // furthest behind with no block in flight.
            let behind = |&i: &usize| (open[i].3.map(|(_, last)| last), i);
            let held = |i: usize| in_flight[open[i].0];
            let furthest = (0..open.len()).min_by_key(behind);
            let next = (furthest.filter(|&i| held(i) < budget))
                .or_else(|| (0..open.len()).filter(|&i| held(i) == 0).min_by_key(behind));
            let mut block = match (returned.try_recv(), next) {
                (Ok(block), _) => block,
                (Err(_), Some(next)) => break next,
                (Err(_), None) => {
                    let waiting = Instant::now();
                    let Ok(block) = returned.recv() else {
                        break 'read;
                    };
                    stats.full += waiting.elapsed();
                    block
                }
            };
            in_flight[block.source] -= 1;
            block.flows.clear();
            block.beats.clear();
            free.push(block);
        };
        let (source, capture, lane, read) = &mut open[next];
        let mut block = free.pop().unwrap_or_else(Block::new);
        block.source = *source;
        let filled = block.fill(capture);
        let ended = block.is_empty() || filled.is_err();
        if block.is_empty() {
            free.push(block);
        } else {
            let starts = block.flows.start_ms();
            if let (Some(&first), Some(&last)) = (starts.first(), starts.last()) {
                let first = u64::from(first);
                let origin = read.map_or(first - first % interval_ms, |(origin, _)| origin);
                *read = Some((origin, u64::from(last).saturating_sub(origin)));
            }
            stats.flows += block.flows.len();
            in_flight[*source] += 1;
            stats.peak_blocks = stats.peak_blocks.max(in_flight.iter().sum());
            if lane.send(Ok(block)).is_err() {
                break 'read;
            }
        }
        if ended {
            if let Err(e) = filled {
                drop(lane.send(Err(e)));
            }
            open.remove(next);
        }
    }
    stats.read = started.elapsed();
    stats
}

/// One capture as the replay sees it. Every decision reads the `first`
/// column; a flow becomes a record only inside the assembler.
struct Lane {
    /// Received and not yet replayed, in file order; none is empty, and
    /// there is one unless the capture has ended or failed.
    blocks: VecDeque<Block>,
    /// The rest of the capture, from the reader, and the way back to it.
    rest: Receiver<Sent>,
    back: Sender<Block>,
    name: String,
    /// The error the lane stopped at, once every block before it is
    /// replayed.
    failed: Option<ReplayError>,
    /// How many flows, and heartbeats, of the front block are replayed.
    flow: usize,
    beat: usize,
    origin: u64,
    /// The time spent waiting for a block not read yet.
    waited: Duration,
}

impl Lane {
    /// The lane of capture `name`: it waits for the blocks up to the
    /// first flow, whose window is the origin unless `origin` is given.
    fn open(
        name: String,
        rest: Receiver<Sent>,
        back: Sender<Block>,
        interval_ms: u64,
        origin: Option<u64>,
    ) -> Result<Self, ReplayError> {
        let mut lane = Lane {
            blocks: VecDeque::new(),
            rest,
            back,
            name,
            failed: None,
            flow: 0,
            beat: 0,
            origin: 0,
            waited: Duration::ZERO,
        };
        let first = loop {
            if let Some(first) = lane.blocks.back().and_then(|b| b.flows.start_ms().first()) {
                break u64::from(*first);
            }
            if !lane.receive() {
                let (source, kind) = (lane.name, ReplayErrorKind::Empty);
                return Err(lane.failed.unwrap_or(ReplayError { source, kind }));
            }
        };
        lane.origin = origin.unwrap_or(first - first % interval_ms);
        Ok(lane)
    }

    /// Receive the capture's next block, waiting if it is not read yet;
    /// `false` at the end of the capture or at its read error, which the
    /// lane keeps.
    fn receive(&mut self) -> bool {
        let sent = match self.rest.try_recv() {
            Err(TryRecvError::Empty) => {
                let waiting = Instant::now();
                let sent = self.rest.recv().ok();
                self.waited += waiting.elapsed();
                sent
            }
            sent => sent.ok(),
        };
        match sent {
            Some(Ok(block)) => {
                self.blocks.push_back(block);
                return true;
            }
            Some(Err(e)) => {
                let (source, kind) = (self.name.clone(), ReplayErrorKind::Read(e));
                self.failed = Some(ReplayError { source, kind });
            }
            None => {}
        }
        false
    }

    /// The merge key of a flow or heartbeat of lane `s` dated `ms`.
    fn key(&self, ms: u64, beat: bool, s: usize) -> Key {
        (ms.saturating_sub(self.origin), beat, s)
    }

    /// The merge key of lane `s`'s next arrival, if any.
    fn head(&self, s: usize) -> Option<Key> {
        let block = self.blocks.front()?;
        Some(match block.beats.get(self.beat) {
            Some(&(at, ms)) if at == self.flow => self.key(ms, true, s),
            _ => self.key(u64::from(block.flows.start_ms()[self.flow]), false, s),
        })
    }

    /// No more than the merge key of lane `s`'s next arrival that can
    /// close a window, given its open window (`None`: any can): its next
    /// flow outside the window, or its next heartbeat. With neither in
    /// the front block it is the largest key left in that block, which
    /// the per-flow merge takes before anything after the block.
    fn barrier(&self, s: usize, window: Option<Range<u64>>) -> Option<Key> {
        let Some(window) = window else {
            return self.head(s);
        };
        let block = self.blocks.front()?;
        let starts = self.flows().start_ms().iter().map(|&ms| u64::from(ms));
        let key = |ms: u64| self.key(ms, false, s);
        match starts.clone().find(|ms| !window.contains(ms)) {
            Some(ms) => Some(key(ms)),
            None => match block.beats.get(self.beat) {
                Some(&(_, ms)) => Some(self.key(ms, true, s)),
                None => starts.map(key).max(),
            },
        }
    }

    /// The flows up to the lane's next heartbeat or block end.
    fn flows(&self) -> CaptureRun<'_> {
        let block = &self.blocks[0];
        let end = (block.beats.get(self.beat)).map_or(block.flows.len(), |&(at, _)| at);
        block.flows.run(self.flow..end)
    }

    /// Take the heartbeat at the head.
    fn take_beat(&mut self) -> u64 {
        let ms = self.blocks[0].beats[self.beat].1;
        self.beat += 1;
        self.settle();
        ms
    }

    /// Mark the next `n` flows replayed.
    fn consume(&mut self, n: usize) {
        self.flow += n;
        self.settle();
    }

    /// Hand the front block back to the reader once it is replayed, and
    /// receive the next one when it was the last received.
    fn settle(&mut self) {
        let block = &self.blocks[0];
        if self.flow == block.flows.len() && self.beat == block.beats.len() {
            let block = self.blocks.pop_front().expect("a front block");
            // Once every capture is read, nothing takes a block back.
            self.back.send(block).ok();
            (self.flow, self.beat) = (0, 0);
            if self.blocks.is_empty() {
                self.receive();
            }
        }
    }
}

/// Captures in collector arrival order, read on one reader thread while
/// they are replayed. See the [module docs](self).
pub struct Replay {
    lanes: Vec<Lane>,
    /// Heartbeats taken from the lane heads, waiting for a later flow,
    /// in merge order: grid time, source, export clock.
    held: VecDeque<(u64, SourceId, u64)>,
    /// Joined by [`finish`](Self::finish); a replay dropped early never
    /// waits on it (it may be blocked on an open stdin).
    reader: JoinHandle<ReadStats>,
}

impl Replay {
    /// Start the reader on `captures` (each a name for its errors and
    /// NetFlow v5 datagrams, v9/IPFIX punctuation among them or not) and
    /// wait for each one's first flow. Capture `i` feeds source `i`, whose
    /// clock origin is the start of the `interval_ms` window of its first
    /// flow.
    ///
    /// # Errors
    ///
    /// The first capture that fails or ends before a flow, or a reader
    /// thread that cannot start.
    ///
    /// # Panics
    ///
    /// When `interval_ms` is zero.
    pub fn open<R: Read + Send + 'static>(
        captures: Vec<(String, R)>,
        interval_ms: u64,
    ) -> Result<Self, ReplayError> {
        Self::start(captures, interval_ms, None, READ_AHEAD)
    }

    /// Continue the replay that fed `grid`, a checkpointed run's: capture
    /// `i` feeds lane `i` from its origin, past the flows the grid was fed.
    ///
    /// # Errors
    ///
    /// [`ReplayErrorKind::Sources`] or [`ReplayErrorKind::Lane`], before a
    /// capture is read, for lanes that are not sources `0..n` of the `n`
    /// captures; [`ReplayErrorKind::Short`] for captures that end first;
    /// and [`open`](Self::open)'s.
    pub fn resume<R: Read + Send + 'static>(
        captures: Vec<(String, R)>,
        grid: &MergeAssembler,
    ) -> Result<Self, ReplayError> {
        Self::start(captures, grid.config().interval_ms, Some(grid), READ_AHEAD)
    }

    /// [`open`](Self::open), or [`resume`](Self::resume) `grid`, with
    /// `budget` blocks in flight per capture.
    fn start<R: Read + Send + 'static>(
        captures: Vec<(String, R)>,
        interval_ms: u64,
        grid: Option<&MergeAssembler>,
        budget: usize,
    ) -> Result<Self, ReplayError> {
        assert!(interval_ms > 0 && budget > 0, "a zero interval or budget");
        let sources = grid.map_or_else(Vec::new, MergeAssembler::sources);
        let refuse = |kind| ReplayError {
            source: String::new(),
            kind,
        };
        if grid.is_some() && sources.len() != captures.len() {
            let (lanes, captures) = (sources.len(), captures.len());
            return Err(refuse(ReplayErrorKind::Sources { lanes, captures }));
        }
        if let Some((lane, spec)) = (0u32..).zip(&sources).find(|(i, s)| s.id != SourceId(*i)) {
            let found = spec.id;
            return Err(refuse(ReplayErrorKind::Lane { lane, found }));
        }
        let (names, captures): (Vec<_>, Vec<_>) = captures.into_iter().unzip();
        let (senders, receivers): (Vec<_>, Vec<_>) = names.iter().map(|_| channel()).unzip();
        let (back, returned) = channel();
        let source = "anomex-capture-reader";
        let reader = (std::thread::Builder::new().name(source.into()))
            .spawn(move || read_captures(captures, interval_ms, senders, returned, budget))
            .map_err(|e| ReplayError {
                source: source.into(),
                kind: ReplayErrorKind::Spawn(e),
            })?;
        let lanes = (names.into_iter().zip(receivers).enumerate())
            .map(|(s, (name, rest))| {
                let origin = sources.get(s).map(|spec| spec.origin_ms);
                Lane::open(name, rest, back.clone(), interval_ms, origin)
            })
            .collect::<Result<_, _>>()?;
        let mut replay = Replay {
            lanes,
            held: VecDeque::new(),
            reader,
        };
        let consumed = grid.map_or(0, |grid| grid.source_stats().iter().map(|s| s.flows).sum());
        let missing = replay.skip(consumed)?;
        if missing > 0 {
            let flows = consumed - missing;
            return Err(refuse(ReplayErrorKind::Short { flows, consumed }));
        }
        Ok(replay)
    }

    /// The sources the replay feeds, source `i` at capture `i`'s origin.
    #[must_use]
    pub fn sources(&self) -> Vec<SourceSpec> {
        (0u32..)
            .zip(&self.lanes)
            .map(|(i, lane)| SourceSpec::new(i, lane.origin))
            .collect()
    }

    /// The next arrival for `grid`, the merge over
    /// [`sources`](Self::sources), or `None` at the end: a heartbeat, or
    /// a run that stays at its capture's head until
    /// [`consume`](Self::consume)d.
    ///
    /// # Errors
    ///
    /// A capture's failure, once its flows before it are replayed; the
    /// replay is over then.
    pub fn next(
        &mut self,
        grid: &MergeAssembler,
    ) -> Result<Option<(SourceId, Arrival<'_>)>, ReplayError> {
        self.arrival(Some(grid))
    }

    /// [`next`](Self::next); without `grid` every arrival counts as one
    /// that can close a window, which gives the per-flow merge's runs.
    fn arrival(
        &mut self,
        grid: Option<&MergeAssembler>,
    ) -> Result<Option<(SourceId, Arrival<'_>)>, ReplayError> {
        let window = |s: usize| grid.and_then(|g| g.open_window(SourceId(s as u32)));
        loop {
            if let Some(e) = self.lanes.iter_mut().find_map(|lane| lane.failed.take()) {
                self.lanes.clear();
                return Err(e);
            }
            let Some((at, beat, s)) = (self.lanes.iter().enumerate())
                .filter_map(|(s, lane)| lane.head(s))
                .min()
            else {
                return Ok(None);
            };
            // The next flow waits for every held heartbeat dated before it.
            let due = self.held.front().is_some_and(|&(held_at, ..)| held_at < at);
            if due && !beat {
                let (_, source, ms) = self.held.pop_front().expect("a held heartbeat is due");
                return Ok(Some((source, Arrival::Heartbeat(ms))));
            }
            let source = SourceId(s as u32);
            if beat {
                let ms = self.lanes[s].take_beat();
                self.held.push_back((at, source, ms));
                continue;
            }
            // Lane `s` keeps the lead while its flows sort below every
            // other lane's head, or lie inside its open window and sort
            // below every other lane's next arrival that can close one;
            // and no held heartbeat falls due.
            let others = || (self.lanes.iter().enumerate()).filter(|&(t, _)| t != s);
            let head = others().filter_map(|(t, lane)| lane.head(t)).min();
            let barrier = (others())
                .filter_map(|(t, lane)| lane.barrier(t, window(t)))
                .min();
            let held = self.held.front().map(|&(held_at, ..)| held_at);
            let open = window(s);
            let lane = &self.lanes[s];
            let run = (lane.flows().start_ms().iter())
                .take_while(|&&ms| {
                    let ms = u64::from(ms);
                    let key = lane.key(ms, false, s);
                    let below = |bound: Option<Key>| bound.map_or(true, |b| key < b);
                    let inside = open.as_ref().is_some_and(|w| w.contains(&ms));
                    (below(head) || inside && below(barrier)) && held.map_or(true, |h| key.0 <= h)
                })
                .count();
            let block = &lane.blocks[0];
            let run = block.flows.run(lane.flow..lane.flow + run);
            return Ok(Some((source, Arrival::Run(run))));
        }
    }

    /// Mark the first `n` flows of `source`'s run replayed.
    pub fn consume(&mut self, source: SourceId, n: usize) {
        self.lanes[source.0 as usize].consume(n);
    }

    /// Pass over the first `flows` flows and the heartbeats among them,
    /// what a checkpointed run consumed; returns how many of them the
    /// captures lack. It takes the per-flow merge's runs: a checkpoint
    /// falls at a close, where both orders have consumed the same flows.
    fn skip(&mut self, mut flows: u64) -> Result<u64, ReplayError> {
        while flows > 0 {
            let Some((source, arrival)) = self.arrival(None)? else {
                break;
            };
            if let Arrival::Run(run) = arrival {
                let n = (run.start_ms().len() as u64).min(flows);
                self.consume(source, n as usize);
                flows -= n;
            }
        }
        Ok(flows)
    }

    /// Join the reader after a complete replay (`next` gave `Ok(None)`):
    /// its stats, and the replay's wait for blocks not read yet.
    #[must_use]
    pub fn finish(self) -> ReadStats {
        let wait = self.lanes.iter().map(|lane| lane.waited).sum();
        let stats = (self.reader.join()).unwrap_or_else(|panic| resume_unwind(panic));
        ReadStats { wait, ..stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowRecord, Protocol};
    use crate::merge::{MergeConfig, MergedInterval};
    use crate::snapshot::{SnapshotReader, SnapshotWriter};
    use crate::trace::MINUTE_MS;
    use crate::v5::V5Exporter;
    use crate::v9::encode_v9_options_template;
    use crate::{FlowColumns, FlowRun};
    use proptest::prelude::{ProptestConfig, Strategy};
    use proptest::test_runner::TestRng;
    use std::io::Cursor;
    use std::net::Ipv4Addr;
    use std::sync::mpsc::RecvTimeoutError;

    /// One arrival of the per-flow replay: a flow or a heartbeat.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Single {
        Flow(FlowRecord),
        Beat(u64),
    }

    /// A replay order: which source handed out what.
    type Order = Vec<(SourceId, Single)>;

    /// The replay order taken one flow at a time — the k-way merge the
    /// run replay must reproduce: the lane heads' minimum on (grid time,
    /// flows before heartbeats, source), a heartbeat held until a later
    /// flow, those held at the end dropped.
    fn per_flow_merge(lanes: &[(u64, Vec<Single>)]) -> Order {
        let mut heads: Vec<VecDeque<Single>> = lanes
            .iter()
            .map(|(_, items)| items.iter().copied().collect())
            .collect();
        let mut held: VecDeque<(u64, SourceId, u64)> = VecDeque::new();
        let mut out = Vec::new();
        loop {
            let key = |s: usize, item: &Single| {
                let (ms, beat) = match item {
                    Single::Flow(flow) => (flow.start_ms, false),
                    Single::Beat(ms) => (*ms, true),
                };
                (ms.saturating_sub(lanes[s].0), beat, s)
            };
            let Some((at, beat, s)) = (heads.iter().enumerate())
                .filter_map(|(s, lane)| lane.front().map(|item| key(s, item)))
                .min()
            else {
                return out;
            };
            if !beat && held.front().is_some_and(|&(held_at, ..)| held_at < at) {
                let (_, source, ms) = held.pop_front().unwrap();
                out.push((source, Single::Beat(ms)));
                continue;
            }
            let source = SourceId(s as u32);
            match heads[s].pop_front().unwrap() {
                Single::Beat(ms) => held.push_back((at, source, ms)),
                flow => out.push((source, flow)),
            }
        }
    }

    /// Row `i` of `run` as the record it was exported from: its engine
    /// columns widened at its own start time (the test flows have no
    /// duration or TCP flags).
    fn record_at(run: &CaptureRun, i: usize) -> FlowRecord {
        let mut row = FlowColumns::new();
        run.append_rows(i..i + 1, &mut row);
        row.to_flows(run.start_ms_at(i))[0]
    }

    /// Everything `replay` hands out under the per-flow rule (no open
    /// windows, as a resume's skip takes it), one arrival per flow,
    /// consuming `take(len)` flows of each run of `len`; with the run
    /// boundaries, as flows replayed before each run.
    fn flatten(
        replay: &mut Replay,
        mut take: impl FnMut(usize) -> usize,
    ) -> (Order, Vec<(usize, usize)>) {
        let (mut out, mut runs, mut flows) = (Vec::new(), Vec::new(), 0);
        while let Some((source, arrival)) = replay.arrival(None).unwrap() {
            match arrival {
                Arrival::Heartbeat(ms) => out.push((source, Single::Beat(ms))),
                Arrival::Run(run) => {
                    let len = run.flow_count();
                    assert!(len > 0, "a run holds a flow");
                    let n = take(len);
                    out.extend((0..n).map(|i| (source, Single::Flow(record_at(&run, i)))));
                    runs.push((flows, len));
                    flows += n;
                    replay.consume(source, n);
                }
            }
        }
        (out, runs)
    }

    /// One stretch of a test capture: flows starting at these ms, or a
    /// v9 keepalive at this export second.
    enum Item {
        Flows(Vec<u64>),
        Beat(u32),
    }

    /// `n` start times from `from`, `step` ms apart.
    fn stride(from: u64, step: u64, n: u64) -> Vec<u64> {
        (0..n).map(|i| from + step * i).collect()
    }

    /// Each lane of `lanes` as a capture (v5 datagrams and v9
    /// keepalives), with its arrivals, one per flow or heartbeat.
    fn encode(lanes: &[Vec<Item>]) -> (Vec<Vec<u8>>, Vec<Vec<Single>>) {
        let mut captures = Vec::new();
        let mut singles = Vec::new();
        for (s, items) in lanes.iter().enumerate() {
            let (mut exporter, mut bytes, mut lane) = (V5Exporter::new(), Vec::new(), Vec::new());
            for (i, item) in items.iter().enumerate() {
                match item {
                    Item::Flows(starts) => {
                        let flows: Vec<FlowRecord> = (starts.iter().enumerate())
                            .map(|(j, &ms)| {
                                let ip = Ipv4Addr::new(10, s as u8, i as u8, j as u8);
                                FlowRecord::new(ms, ip, ip, j as u16, 80, Protocol::Tcp)
                            })
                            .collect();
                        bytes.extend(exporter.export(&flows).concat());
                        lane.extend(flows.into_iter().map(Single::Flow));
                    }
                    Item::Beat(secs) => {
                        bytes.extend(encode_v9_options_template(*secs, i as u32, 0));
                        lane.push(Single::Beat(u64::from(*secs) * 1000));
                    }
                }
            }
            captures.push(bytes);
            singles.push(lane);
        }
        (captures, singles)
    }

    /// Each capture of `captures` named by its lane.
    fn named(captures: &[Vec<u8>]) -> Vec<(String, Cursor<Vec<u8>>)> {
        (captures.iter().enumerate())
            .map(|(s, bytes)| (format!("lane{s}"), Cursor::new(bytes.clone())))
            .collect()
    }

    /// A replay of `captures` on one-minute windows, `budget` blocks ahead.
    fn replay_of(captures: &[Vec<u8>], budget: usize) -> Replay {
        Replay::start(named(captures), MINUTE_MS, None, budget).unwrap()
    }

    /// The replay of `captures` resumed from `grid`, `budget` blocks ahead.
    fn resumed(captures: &[Vec<u8>], grid: &MergeAssembler, budget: usize) -> Replay {
        Replay::start(named(captures), MINUTE_MS, Some(grid), budget).unwrap()
    }

    /// A one-minute grid over `sources` fed `order`, one arrival at a time.
    fn grid_fed(sources: &[SourceSpec], order: &[(SourceId, Single)]) -> MergeAssembler {
        let mut grid = MergeAssembler::try_new(MergeConfig::new(MINUTE_MS), sources).unwrap();
        for &(source, item) in order {
            match item {
                Single::Flow(flow) => drop(grid.push(source, flow)),
                Single::Beat(ms) => drop(grid.heartbeat(source, ms)),
            }
        }
        grid
    }

    /// Four lanes on the origins 0, 1, 2 and 3 minutes (Δ = 1 min),
    /// whose grid times tie across lanes: lane 0 steps back in time
    /// (late flows) and has heartbeats first, several in a row, one
    /// dated behind its flows, one first in its second block and one
    /// last, just before lane 3 leaves window 1; lane 1
    /// ends in heartbeats; lane 2 replays a stretch backwards and holds
    /// the grid at window 0 until its keepalive at 130 s (grid time)
    /// closes it; lane 3 starts late in its first window, steps back
    /// before its origin, and is the first to reach window 2, which
    /// force-closes window 0 under a lateness bound of 1.
    fn test_lanes() -> Vec<Vec<Item>> {
        vec![
            vec![
                Item::Beat(0),
                Item::Flows(stride(10, 15, 1_980)),
                Item::Beat(20),
                Item::Beat(25),
                Item::Beat(31),
                // 136 full datagrams: the next packet opens a new block.
                Item::Flows(stride(30_010, 15, 2_100)),
                Item::Beat(62),
                Item::Flows(stride(61_510, 15, 120)),
                Item::Flows(vec![5_000, 5_000, 4_000]),
                Item::Flows(stride(63_010, 15, 200)),
                Item::Beat(119),
            ],
            vec![
                Item::Flows(stride(60_010, 45, 900)),
                Item::Beat(100),
                Item::Flows(stride(100_510, 45, 1_800)),
                Item::Beat(200),
                Item::Beat(300),
            ],
            vec![
                Item::Flows(stride(120_000, 7, 1_500)),
                Item::Flows((0..1_500).rev().map(|k| 130_500 + 7 * k).collect()),
                Item::Beat(121),
                Item::Beat(250),
            ],
            vec![
                Item::Flows(stride(239_000, 5, 400)),
                Item::Flows(vec![150_000, 239_999]),
                Item::Beat(241),
                Item::Flows(stride(241_010, 100, 1_000)),
            ],
        ]
    }

    /// Two to four random lanes: origins 0 to 3 minutes, a first flow
    /// anywhere in its window, then strides, idle gaps of up to three
    /// windows (most ending in a keepalive), flows that step back (late
    /// or pre-origin), and heartbeats a few seconds ahead of or behind
    /// the flows; some lanes fill two blocks.
    fn random_lanes(rng: &mut TestRng) -> Vec<Vec<Item>> {
        let mut draw = |range: Range<u64>| range.generate(rng);
        (0..draw(2..5))
            .map(|_| {
                let mut t = MINUTE_MS * draw(0..4) + draw(0..MINUTE_MS);
                let mut items = vec![Item::Flows(vec![t])];
                for _ in 0..draw(1..12) {
                    match draw(0..10) {
                        0 | 1 => {
                            let back = draw(0..2 * MINUTE_MS);
                            items.push(Item::Flows(stride(t.saturating_sub(back), 3, draw(1..40))));
                        }
                        2 => {
                            let secs = (t / 1000 + draw(0..8)).saturating_sub(4);
                            items.push(Item::Beat(secs as u32));
                        }
                        // Idle, then a keepalive or not.
                        3 | 4 => {
                            t += draw(0..3 * MINUTE_MS);
                            if draw(0..3) > 0 {
                                items.push(Item::Beat((t / 1000) as u32));
                            }
                        }
                        _ => {
                            let (n, step) = (draw(1..1_500), draw(1..80));
                            items.push(Item::Flows(stride(t, step, n)));
                            t += n * step;
                        }
                    }
                }
                items
            })
            .collect()
    }

    /// The read-ahead budgets the replay oracles run at: the smallest
    /// rings, where the reader waits on the replay for nearly every
    /// block, and the one [`Replay::open`] uses.
    const BUDGETS: [usize; 3] = [1, 2, READ_AHEAD];

    /// The run replay under the per-flow rule hands out exactly the
    /// per-flow merge's order, over one to four lanes of
    /// [`test_lanes`], whether each run is taken whole or a few flows at
    /// a time; and a replay resumed from a grid fed a prefix of that
    /// order — one ending in the middle of a run among them — hands out
    /// the rest of it. At every read-ahead budget.
    #[test]
    fn run_replay_is_the_per_flow_merge_order() {
        let (captures, singles) = encode(&test_lanes());
        for (k, budget) in (1..=4).flat_map(|k| BUDGETS.map(|budget| (k, budget))) {
            let open = || replay_of(&captures[..k], budget);
            let sources = open().sources();
            let origins: Vec<u64> = sources.iter().map(|s| s.origin_ms).collect();
            assert_eq!(origins, [0, 60_000, 120_000, 180_000][..k]);
            let lanes: Vec<(u64, Vec<Single>)> = origins.into_iter().zip(singles.clone()).collect();
            let expected = per_flow_merge(&lanes);
            let (whole, runs) = flatten(&mut open(), |len| len);
            let context = format!("{k} lane(s), budget {budget}");
            assert_eq!(whole, expected, "{context}, whole runs");
            let mut calls = 0;
            let bit_by_bit = flatten(&mut open(), |len| {
                calls += 1;
                len.min(1 + calls % 3)
            });
            assert_eq!(bit_by_bit.0, expected, "{context}, runs taken in bits");
            // The per-flow order up to and including each flow.
            let prefixes: Vec<usize> = (expected.iter().enumerate())
                .filter(|(_, (_, a))| matches!(a, Single::Flow(_)))
                .map(|(i, _)| i + 1)
                .collect();
            let flows = prefixes.len();
            let (mid, _) = *(runs.iter())
                .find(|&&(_, len)| len >= 2)
                .expect("a run of two flows or more");
            for skip in [0, 1, mid + 1, flows / 2, flows - 1, flows] {
                let cut = skip.checked_sub(1).map_or(0, |i| prefixes[i]);
                let grid = grid_fed(&sources, &expected[..cut]);
                let rest = flatten(&mut resumed(&captures[..k], &grid, budget), |len| len).0;
                assert_eq!(rest, expected[cut..], "{context}, resumed after {skip}");
            }
            assert!(whole.len() > runs.len() * 2, "runs hold several flows");
        }
        let mut replay = replay_of(&captures[..1], READ_AHEAD);
        let lane = &mut replay.lanes[0];
        while lane.receive() {}
        assert_eq!(lane.blocks.len(), 2);
        assert_eq!(lane.blocks[1].beats[0], (0, 62_000), "first in its block");
    }

    /// A resume refuses, with a typed error and before it reads a
    /// capture, a grid with fewer or more lanes than captures and one
    /// whose lanes are not sources `0..n` in order (the captures here are
    /// empty, which a replay that read them would report instead); and,
    /// at every read-ahead budget, captures that hold fewer flows than
    /// the grid was fed.
    #[test]
    fn resume_refuses_a_grid_the_captures_do_not_fit() {
        let (captures, singles) = encode(&test_lanes());
        let sources = replay_of(&captures, 1).sources();
        // The kind and the text of the error resuming `grid` over
        // `captures` gives.
        let refusal = |captures: &[Vec<u8>], grid: &MergeAssembler, budget: usize| {
            let Err(e) = Replay::start(named(captures), MINUTE_MS, Some(grid), budget) else {
                panic!("resumed");
            };
            assert_eq!(e.source, "");
            (format!("{:?}", e.kind), e.to_string())
        };
        let empty = vec![Vec::new(); 3];
        for lanes in [2, 4] {
            let kind = ReplayErrorKind::Sources { lanes, captures: 3 };
            let text = format!("the grid has {lanes} source(s) for 3 capture(s)");
            let grid = grid_fed(&sources[..lanes], &[]);
            assert_eq!(refusal(&empty, &grid, 1), (format!("{kind:?}"), text));
        }
        for (ids, lane, found) in [([0, 2, 1], 1, SourceId(2)), ([1, 2, 3], 0, SourceId(1))] {
            let specs: Vec<_> = (ids.into_iter().zip(&sources))
                .map(|(id, spec)| SourceSpec::new(id, spec.origin_ms))
                .collect();
            let kind = ReplayErrorKind::Lane { lane, found };
            let text = format!("lane {lane} holds source {found} where src{lane} was expected");
            let grid = grid_fed(&specs, &[]);
            assert_eq!(refusal(&empty, &grid, 1), (format!("{kind:?}"), text));
        }
        // A grid fed every flow, and the last one twice more.
        let origins = sources.iter().map(|spec| spec.origin_ms);
        let mut order = per_flow_merge(&origins.zip(singles).collect::<Vec<_>>());
        order.retain(|(_, a)| matches!(a, Single::Flow(_)));
        let flows = order.len() as u64;
        order.extend([order[order.len() - 1]; 2]);
        let grid = grid_fed(&sources, &order);
        let consumed = flows + 2;
        let kind = ReplayErrorKind::Short { flows, consumed };
        let text =
            format!("the captures end after {flows} flows, before the {consumed} the grid was fed");
        for budget in BUDGETS {
            let expected = (format!("{kind:?}"), text.clone());
            assert_eq!(
                refusal(&captures, &grid, budget),
                expected,
                "budget {budget}"
            );
        }
    }

    /// What one grid gives for a replay order: the merged intervals; and
    /// at each arrival that closes a grid interval, the flows fed and the
    /// grid's snapshot bytes, and how many intervals were out by then.
    /// `runs` counts the runs handed out.
    #[derive(Default)]
    struct Trace {
        intervals: Vec<MergedInterval>,
        closes: Vec<(u64, Vec<u8>)>,
        printed: Vec<usize>,
        runs: usize,
    }

    impl Trace {
        /// Record an arrival's intervals, and a snapshot when it closed
        /// any.
        fn arrival(&mut self, grid: &MergeAssembler, intervals: Vec<MergedInterval>) {
            if intervals.is_empty() {
                return;
            }
            self.intervals.extend(intervals);
            let mut snapshot = SnapshotWriter::new();
            grid.encode_snapshot(&mut snapshot);
            let fed = grid.source_stats().iter().map(|s| s.flows).sum();
            self.closes.push((fed, snapshot.into_bytes()));
            self.printed.push(self.intervals.len());
        }

        fn finish(mut self, mut grid: MergeAssembler) -> Self {
            self.intervals.extend(grid.flush());
            self
        }
    }

    /// Feed `grid` the per-flow merge's order, one flow at a time.
    fn per_flow_trace(order: &Order, mut grid: MergeAssembler) -> Trace {
        let mut trace = Trace::default();
        for &(source, item) in order {
            let intervals = match item {
                Single::Flow(flow) => grid.push(source, flow),
                Single::Beat(ms) => grid.heartbeat(source, ms),
            };
            trace.arrival(&grid, intervals);
        }
        trace.finish(grid)
    }

    /// Feed `grid` what `replay` hands out: runs cut at its open windows.
    fn replay_trace(replay: &mut Replay, mut grid: MergeAssembler) -> Trace {
        let mut trace = Trace::default();
        while let Some((source, arrival)) = replay.next(&grid).unwrap() {
            let intervals = match arrival {
                Arrival::Run(run) => {
                    trace.runs += 1;
                    let (n, intervals) = grid.push_run(source, &run);
                    replay.consume(source, n);
                    intervals
                }
                Arrival::Heartbeat(ms) => grid.heartbeat(source, ms),
            };
            trace.arrival(&grid, intervals);
        }
        trace.finish(grid)
    }

    /// `cases`, scaled by `PROPTEST_CASES / 256` like the proptest
    /// suites, so a wide sweep widens this test too.
    fn scaled(cases: u32) -> u32 {
        (cases * ProptestConfig::default().cases / 256).max(1)
    }

    /// The replay's runs pass other lanes' in-window flows, and the grid
    /// cannot tell: fed by them, it gives the per-flow merge's intervals
    /// and, at every arrival that closes one, its snapshot bytes; and a
    /// replay resumed from the grid that snapshot restores continues
    /// identically. Without and with a lateness bound, on [`test_lanes`]
    /// and on random lanes, at every read-ahead budget.
    #[test]
    fn window_runs_close_every_interval_as_the_per_flow_merge_does() {
        let (captures, singles) = encode(&test_lanes());
        let per_flow = flatten(&mut replay_of(&captures, 1), |len| len).1;
        for budget in BUDGETS {
            let runs = check_window_runs(&captures, &singles, budget, "test lanes");
            assert!(
                runs * 4 < per_flow.len(),
                "{runs} runs, {} per flow",
                per_flow.len()
            );
        }
        let mut rng = TestRng::seed_from_u64(50);
        for case in 0..scaled(16) {
            let (captures, singles) = encode(&random_lanes(&mut rng));
            for budget in BUDGETS {
                check_window_runs(&captures, &singles, budget, &format!("random case {case}"));
            }
        }
    }

    /// [`window_runs_close_every_interval_as_the_per_flow_merge_does`] on
    /// one set of lanes, read `budget` blocks ahead per lane; returns the
    /// runs the replay handed out.
    fn check_window_runs(
        captures: &[Vec<u8>],
        singles: &[Vec<Single>],
        budget: usize,
        context: &str,
    ) -> usize {
        let open = || replay_of(captures, budget);
        let sources = open().sources();
        let lanes: Vec<_> = (sources.iter().map(|spec| spec.origin_ms))
            .zip(singles.iter().cloned())
            .collect();
        let order = per_flow_merge(&lanes);
        let mut runs = 0;
        for max_lag_intervals in [None, Some(1)] {
            let context = format!("{context}, budget {budget}, max-lag {max_lag_intervals:?}");
            let config = MergeConfig {
                interval_ms: MINUTE_MS,
                max_lag_intervals,
            };
            let grid = || MergeAssembler::try_new(config, &sources).unwrap();
            let expected = per_flow_trace(&order, grid());
            let got = replay_trace(&mut open(), grid());
            assert_same_intervals(&got.intervals, &expected.intervals, &context);
            assert_same_closes(&got.closes, &expected.closes, &context);
            for (i, (flows, bytes)) in expected.closes.iter().enumerate() {
                let restored =
                    MergeAssembler::decode_snapshot(&mut SnapshotReader::new(bytes)).unwrap();
                let mut replay = resumed(captures, &restored, budget);
                let rest = replay_trace(&mut replay, restored);
                let context = format!("{context}, resumed at {flows} flows");
                let printed = &expected.intervals[expected.printed[i]..];
                assert_same_intervals(&rest.intervals, printed, &context);
                assert_same_closes(&rest.closes, &expected.closes[i + 1..], &context);
            }
            runs = got.runs;
        }
        runs
    }

    /// Run `check` on a thread of its own, failing if it has not ended
    /// within `limit`: a replay that deadlocks fails the test rather than
    /// hanging it.
    fn under_watchdog(limit: Duration, check: impl FnOnce() + Send + 'static) {
        let (done, ended) = channel();
        let worker = std::thread::spawn(move || {
            check();
            done.send(()).ok();
        });
        match ended.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: stuck"),
        }
    }

    /// Three lanes whose windows (Δ = 1 min) each hold three or four
    /// blocks: lane 0 from its origin; lane 1 on a clock two hours and
    /// 437 ms ahead, with a keepalive 2 min ahead of its flows half a
    /// window in (an exporter's export clock runs ahead of its flows'
    /// start times) and one in its third window; lane 2 from 50 s into
    /// the grid until it falls silent a window and a half later. While
    /// lane 1's early keepalive heads it, the other lanes run past every
    /// flow of lane 1 the reader has read.
    fn wide_lanes() -> Vec<Vec<Item>> {
        vec![
            vec![Item::Flows(stride(5, 4, 60_000))],
            vec![
                Item::Flows(stride(7_200_437, 5, 6_000)),
                Item::Beat(7_350),
                Item::Flows(stride(7_230_437, 5, 18_000)),
                Item::Beat(7_330),
                Item::Flows(stride(7_320_437, 5, 24_000)),
            ],
            vec![Item::Flows(stride(110_000, 4, 22_500))],
        ]
    }

    /// A fan-in whose windows each hold more blocks of a lane than the
    /// smallest rings, with skewed clocks and a lane that falls silent:
    /// the replay consumes lanes 0 and 2 past everything read of lane 1,
    /// which the reader would read next. A reader that blocked on a lane
    /// whose ring is full would wait there for ever while the replay
    /// waits for another lane's next block. At every budget the replay ends,
    /// under a watchdog, in the per-flow merge's order, hands the grid
    /// the same runs, and gives the per-flow merge's intervals and
    /// snapshots.
    #[test]
    fn a_fan_in_whose_windows_span_several_blocks_replays_at_any_budget() {
        let (captures, singles) = encode(&wide_lanes());
        under_watchdog(Duration::from_secs(300), move || {
            let sources = replay_of(&captures, 1).sources();
            let origins: Vec<u64> = sources.iter().map(|spec| spec.origin_ms).collect();
            assert_eq!(origins, [0, 7_200_000, 60_000]);
            let lanes: Vec<_> = origins.into_iter().zip(singles.iter().cloned()).collect();
            let expected = per_flow_merge(&lanes);
            let mut runs = Vec::new();
            for budget in BUDGETS {
                let order = flatten(&mut replay_of(&captures, budget), |len| len).0;
                assert!(order == expected, "budget {budget}: not the per-flow order");
                runs.push(check_window_runs(&captures, &singles, budget, "wide lanes"));
            }
            assert!(runs.iter().all(|&n| n == runs[0]), "{runs:?} runs");
        });
    }

    /// Receive every lane's blocks as the reader sends them, replaying
    /// none, until it has sent nothing for 100 ms: the reader has read as
    /// far ahead as its rule lets it.
    fn let_the_reader_run_ahead(replay: &mut Replay) {
        let mut quiet = Instant::now();
        while quiet.elapsed() < Duration::from_millis(100) {
            for lane in &mut replay.lanes {
                while let Ok(sent) = lane.rest.try_recv() {
                    lane.blocks.push_back(sent.unwrap());
                    quiet = Instant::now();
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Three exporters from one origin at flow rates 1 : ⅔ : ½ (a flow
    /// every 2, 3 and 4 ms: 49, 33 and 25 blocks). At every budget the
    /// replay is the per-flow merge's order. At the full budget, with the
    /// reader let run ahead before anything is replayed, it keeps the
    /// slow lanes in step with the fast one: none runs further ahead of
    /// the grid than the fast lane's ring, a block each aside, so at
    /// most ⌈32 · Σr / r_max⌉ + 3 = 73 blocks are in flight, where
    /// reading each lane to its own budget holds 32 + 32 + 25 = 89.
    #[test]
    fn a_fan_in_of_unequal_exporters_is_read_in_step() {
        let lanes: Vec<Vec<Item>> = [2, 3, 4]
            .map(|step| vec![Item::Flows(stride(0, step, 392_000 / step))])
            .into();
        let (captures, singles) = encode(&lanes);
        let expected = per_flow_merge(&singles.into_iter().map(|l| (0, l)).collect::<Vec<_>>());
        for budget in BUDGETS {
            let mut replay = replay_of(&captures, budget);
            if budget == READ_AHEAD {
                let_the_reader_run_ahead(&mut replay);
            }
            let order = flatten(&mut replay, |len| len).0;
            assert!(order == expected, "budget {budget}: not the per-flow order");
            let peak = replay.finish().peak_blocks;
            let bound = if budget == READ_AHEAD { 73 } else { 3 * budget };
            assert!(peak <= bound, "budget {budget}: {peak} blocks in flight");
        }
    }

    /// The same intervals, naming the first that differs rather than
    /// printing every flow.
    fn assert_same_intervals(got: &[MergedInterval], expected: &[MergedInterval], context: &str) {
        let differs = |i: usize| got.get(i) != expected.get(i);
        if let Some(i) = (0..got.len().max(expected.len())).find(|&i| differs(i)) {
            let head = |iv: Option<&MergedInterval>| iv.map(|iv| (iv.index, iv.flows.len()));
            panic!(
                "{context}: interval {i} differs: {:?} (index, flows), expected {:?}",
                head(got.get(i)),
                head(expected.get(i))
            );
        }
    }

    /// The same snapshots at the same flow counts, naming the first that
    /// differs rather than printing the bytes.
    fn assert_same_closes(got: &[(u64, Vec<u8>)], expected: &[(u64, Vec<u8>)], context: &str) {
        let flows = |closes: &[(u64, Vec<u8>)]| closes.iter().map(|c| c.0).collect::<Vec<_>>();
        assert_eq!(
            flows(got),
            flows(expected),
            "{context}: flows fed at each close"
        );
        if let Some(i) = (0..got.len()).find(|&i| got[i].1 != expected[i].1) {
            panic!("{context}: the snapshot at {} flows differs", got[i].0);
        }
    }

    /// Three links whose flows interleave in every window, as a fan-in
    /// of border routers does: 25 one-minute windows of 4 000, 2 600
    /// and 1 500 flows at random times, on clocks 0, 1.2 s and 20.5 s
    /// apart. The replay hands the grid runs that each span a stretch of
    /// a lane's window, not the few flows between two other lanes'
    /// flows, as the per-flow merge's runs would.
    #[test]
    fn a_three_link_capture_replays_in_few_runs() {
        let mut rng = TestRng::seed_from_u64(3);
        let lanes: Vec<Vec<Item>> = [(0, 4_000), (1_234, 2_600), (20_500, 1_500)]
            .map(|(skew, rate)| {
                (0..25)
                    .map(|i| {
                        let begin = skew + i * MINUTE_MS;
                        let mut starts: Vec<u64> = (0..rate)
                            .map(|_| begin + (0..MINUTE_MS).generate(&mut rng))
                            .collect();
                        starts.sort_unstable();
                        Item::Flows(starts)
                    })
                    .collect()
            })
            .into();
        let (captures, _) = encode(&lanes);
        let mut replay = replay_of(&captures, READ_AHEAD);
        let mut grid =
            MergeAssembler::try_new(MergeConfig::new(MINUTE_MS), &replay.sources()).unwrap();
        let (mut runs, mut flows) = (0, 0);
        while let Some((source, arrival)) = replay.next(&grid).unwrap() {
            match arrival {
                Arrival::Run(run) => {
                    let n = grid.push_run(source, &run).0;
                    replay.consume(source, n);
                    (runs, flows) = (runs + 1, flows + n);
                }
                Arrival::Heartbeat(ms) => drop(grid.heartbeat(source, ms)),
            }
        }
        assert_eq!(flows, 25 * 8_100);
        assert!(runs < 1_000, "{runs} runs");
    }
}
