//! The streaming extraction engine: continuous, pipelined online
//! operation over one exporter or many.
//!
//! The paper's deployment is online — the NetFlow exporters of several
//! border routers feed one analysis that must keep up with each
//! Δ-minute interval in real time. [`MultiSourceExtractor`] is that
//! engine: one [`anomex_netflow::IntervalAssembler`] per exporter (each
//! with its own clock origin) feeds a shared [`MergeAssembler`] grid
//! that closes an interval only when every live source has advanced
//! past it (watermark semantics, with a configurable lateness bound and
//! per-source drop accounting), and each merged interval runs through a
//! double-buffered pipeline thread:
//!
//! ```text
//!  caller thread                     │  pipeline thread (spawned once)
//!  ─────────────                     │  ──────────────────────────────
//!  push_run(source, flows)           │   Engine: detect → prefilter
//!    ──► MergeAssembler lanes        │   → mine interval t
//!        assemble t+1                │
//!                        │           │            │
//!                        ▼           │            │
//!            sync_channel(1) ─────────────────────┘
//!                 (the double buffer: one interval in flight,
//!                  one queued; assembly of t+1 overlaps
//!                  extraction of t)
//!                        ▲           │
//!  push_run()/finish() ◄─┴─ MultiStreamEvent per closed interval
//!                            (outcome + timing + per-source weights)
//! ```
//!
//! One exporter is a fan-in of one: a one-lane grid closes exactly the
//! windows a plain assembler would.
//!
//! Flows arrive in runs of one source's flows — records, or a row range
//! of a wire-width capture block
//! ([`MultiSourceExtractor::push_run`]); each run stops at the first flow
//! that closes one of that source's windows, so events, drop counts and
//! checkpoints are those of feeding the flows one at a time, while the
//! caller pays per run, not per flow. Windows are assembled as
//! [`FlowColumns`](anomex_netflow::FlowColumns) (one row-range copy per
//! run) and the pipeline thread hands them to [`Engine::process`] as
//! they are: no interval is transposed or copied as records on the way.
//!
//! The detector bank lives inside the pipeline thread's
//! [`Engine`] for the whole life of the stream, so baseline
//! state — reference histograms, KL series, fitted σ̂ thresholds —
//! carries forward from interval to interval instead of being re-derived
//! per call; an extractor that has finished training stays trained for
//! every subsequent interval of the stream.
//!
//! **Determinism:** the grid emits exactly the intervals batch slicing
//! would produce (empty windows included, so the KL time series stays
//! aligned), each the concatenation of every source's window in source
//! registration order, and the pipeline thread feeds them, in order,
//! through the same engine the batch path uses — so the event stream is
//! **bit-identical** to batch extraction of the per-interval
//! concatenation, no matter how the sources' pushes interleave. The streaming and
//! multi-source determinism property suites assert both.

use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anomex_mining::RuleSet;
use anomex_netflow::snapshot::{
    read_checkpoint, write_checkpoint, SnapshotReader, SnapshotWriter, CHECKPOINT_VERSION,
};
use anomex_netflow::{
    FlowRecord, FlowRun, IntervalAssembler, MergeAssembler, MergeConfig, MergedInterval,
    RestoreError, SourceId, SourceSpec, SourceStats,
};

use crate::config::{ConfigError, ExtractionConfig};
use crate::engine::{Engine, ReconfigRequest};
#[doc(hidden)]
pub use crate::legacy::*;
use crate::pipeline::{source_rules, IntervalOutcome};

/// One closed interval's worth of streaming output: what the pipeline
/// saw, what it extracted, and how long extraction took.
#[derive(Debug, Clone)]
pub struct StreamEvent {
    /// Zero-based interval index on the grid.
    pub index: u64,
    /// Inclusive window start in grid time (`index * Δ`; add a source's
    /// origin for its own clock), ms.
    pub begin_ms: u64,
    /// Exclusive window end in grid time, ms.
    pub end_ms: u64,
    /// Flows assembled into this interval.
    pub flows: usize,
    /// Cumulative drops across all sources (late, pre-origin and stale
    /// flows) at the moment this interval closed.
    pub dropped_flows: u64,
    /// Wall-clock [`Engine::process`] spent on this interval (detection,
    /// pre-filtering, mining), in microseconds; the per-source rule merge
    /// ([`MultiStreamEvent::source_rules`]) runs after it, uncounted.
    pub process_micros: u64,
    /// What the detector bank saw and, on alarm, what was extracted.
    pub outcome: IntervalOutcome,
}

impl StreamEvent {
    /// Whether the detector bank alarmed on this interval.
    #[must_use]
    pub fn alarmed(&self) -> bool {
        self.outcome.observation.alarm
    }
}

/// The `p`-th percentile (nearest rank) of a latency sample, sorting the
/// slice in place; zero for an empty sample. The one definition shared
/// by the CLI's end-of-stream summary and the benchmark emitters, so
/// operator-observed and trajectory-tracked numbers stay comparable.
#[must_use]
pub fn latency_percentile(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((p / 100.0) * latencies.len() as f64).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// What travels down the pipeline thread's command channel. A call
/// shares the channel with interval work, so it lands **between
/// intervals** by FIFO order: every interval submitted before it is
/// fully processed (and its event already sent) when it runs — no
/// interval is ever split across a parameter change or a checkpoint.
enum Command {
    /// Extract one closed interval, which closed with the grid's drops
    /// at `dropped_flows`. The interval travels whole: its per-source
    /// counts move on into the [`MultiStreamEvent`] sent back.
    Work {
        interval: Box<MergedInterval>,
        dropped_flows: u64,
        flow_data: bool,
    },
    /// Run a request on the engine (a snapshot, a reconfiguration),
    /// which sends its own reply.
    Call(Box<dyn FnOnce(&mut Engine) + Send>),
}

fn pipeline_loop(
    mut engine: Engine,
    work_rx: &Receiver<Command>,
    events_tx: &SyncSender<MultiStreamEvent>,
) -> Engine {
    while let Ok(command) = work_rx.recv() {
        match command {
            Command::Work {
                interval,
                dropped_flows,
                flow_data,
            } => {
                let started = Instant::now();
                let outcome = engine.process(&interval.flows);
                let process_micros = started.elapsed().as_micros() as u64;
                // A fan-in's rule merge, outside `process_micros`.
                let (cols, counts) = (&interval.flows, &interval.source_flows);
                let source_rules = (outcome.extraction.is_some() && counts.len() >= 2)
                    .then(|| source_rules(cols, counts, &outcome.suspicious_rows, engine.config()))
                    .flatten();
                let records = (flow_data && source_rules.is_some())
                    .then(|| interval.flows.to_flows(interval.begin_ms));
                let event = MultiStreamEvent {
                    event: StreamEvent {
                        index: interval.index,
                        begin_ms: interval.begin_ms,
                        end_ms: interval.end_ms,
                        flows: interval.flows.len(),
                        dropped_flows,
                        process_micros,
                        outcome,
                    },
                    source_flows: interval.source_flows,
                    source_rules,
                    flow_data: Arc::new(records.unwrap_or_default()),
                };
                if events_tx.send(event).is_err() {
                    break; // receiver gone: the stream was abandoned
                }
            }
            Command::Call(call) => call(&mut engine),
        }
    }
    engine
}

/// The back half of the streaming engine: the pipeline thread and its
/// work and event channels.
#[derive(Debug)]
struct PipelineHandle {
    /// `Some` until `finish`/drop closes the stream.
    work_tx: Option<SyncSender<Command>>,
    events_rx: Receiver<MultiStreamEvent>,
    /// The pipeline thread; returns its engine so `finish` can read
    /// final detector state.
    worker: Option<JoinHandle<Engine>>,
}

impl PipelineHandle {
    /// Capacity of the interval (work) channel. One slot is the double
    /// buffer: while the pipeline thread extracts interval `t`, interval
    /// `t+1` can sit queued and interval `t+2` assembles on the caller's
    /// thread; only a third pending interval applies back-pressure.
    const WORK_BUFFER: usize = 1;
    /// Capacity of the event channel. Events are drained on every
    /// `push`, so this only needs slack for bursts of empty intervals.
    const EVENT_BUFFER: usize = 64;

    /// Spawn the pipeline thread around an already-validated engine.
    fn spawn(engine: Engine) -> Result<Self, ConfigError> {
        let (work_tx, work_rx) = sync_channel::<Command>(Self::WORK_BUFFER);
        let (events_tx, events_rx) = sync_channel::<MultiStreamEvent>(Self::EVENT_BUFFER);
        let worker = std::thread::Builder::new()
            .name("anomex-stream-pipeline".into())
            .spawn(move || pipeline_loop(engine, &work_rx, &events_tx))
            .map_err(|e| ConfigError::new(format!("cannot spawn pipeline thread: {e}")))?;
        Ok(PipelineHandle {
            work_tx: Some(work_tx),
            events_rx,
            worker: Some(worker),
        })
    }

    /// Run `call` on the engine: the events finished before it returns,
    /// and what it returns. The call rides the FIFO channel, so every
    /// previously submitted interval is fully processed — and its event
    /// already in the event channel — before it runs; the trailing drain
    /// therefore collects every event the result reflects.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    fn call<T: Send + 'static>(
        &mut self,
        call: impl FnOnce(&mut Engine) -> T + Send + 'static,
    ) -> (Vec<MultiStreamEvent>, T) {
        let mut events = Vec::new();
        self.drain_ready(&mut events);
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send(Command::Call(Box::new(move |engine| {
            reply_tx.send(call(engine)).ok();
        })));
        let Ok(reply) = reply_rx.recv() else {
            self.join_and_propagate();
        };
        self.drain_ready(&mut events);
        (events, reply)
    }

    fn send(&mut self, command: Command) {
        let sent = self
            .work_tx
            .as_ref()
            .expect("stream already finished")
            .send(command);
        if sent.is_err() {
            // The pipeline thread is gone mid-stream: it panicked.
            self.join_and_propagate();
        }
    }

    /// Non-blockingly collect every event the pipeline thread has
    /// finished.
    fn drain_ready(&mut self, into: &mut Vec<MultiStreamEvent>) {
        into.extend(self.events_rx.try_iter());
    }

    /// Hang up the work channel, drain the pipeline thread to
    /// completion, and join it, returning the trailing events and the
    /// engine (for final detector state).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    fn finish(&mut self) -> (Vec<MultiStreamEvent>, Engine) {
        drop(self.work_tx.take());
        let events = self.events_rx.iter().collect();
        let engine = match self.worker.take().expect("finish called once").join() {
            Ok(engine) => engine,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (events, engine)
    }

    /// Join a pipeline thread that died mid-stream and re-raise its
    /// panic on the caller.
    fn join_and_propagate(&mut self) -> ! {
        self.finish();
        unreachable!("a live pipeline thread cannot refuse work")
    }
}

impl Drop for PipelineHandle {
    /// Abandon the stream: hang up the work channel, drain whatever the
    /// pipeline thread still emits, and join it — no detached threads,
    /// no deadlock (the drain keeps the event channel from filling while
    /// the thread winds down).
    fn drop(&mut self) {
        drop(self.work_tx.take());
        while self.events_rx.recv().is_ok() {}
        if let Some(worker) = self.worker.take() {
            // A panic here already surfaced through push/finish if the
            // caller was listening; swallow it during unwinding.
            let _ = worker.join();
        }
    }
}

/// One closed grid interval's worth of streaming output: the
/// [`StreamEvent`] plus the per-source flow weights of the union that
/// produced it (one weight for a single exporter).
#[derive(Debug, Clone)]
pub struct MultiStreamEvent {
    /// The pipeline outcome for the merged interval (grid-time window).
    pub event: StreamEvent,
    /// How many flows each registered source contributed, in source
    /// registration order.
    pub source_flows: Vec<usize>,
    /// The per-source rule merge ([`source_rules`], under the
    /// configuration the interval ran under) of an extraction with rules
    /// on a grid of two or more sources; `None` otherwise.
    pub source_rules: Option<RuleSet>,
    /// The interval's records where `source_rules` is present, each
    /// starting at `begin_ms`
    /// ([`FlowColumns::to_flows`](anomex_netflow::FlowColumns::to_flows)),
    /// filled only by a legacy `try_new` stream; empty otherwise.
    pub flow_data: Arc<Vec<FlowRecord>>,
}

impl MultiStreamEvent {
    /// Whether the detector bank alarmed on this merged interval.
    #[must_use]
    pub fn alarmed(&self) -> bool {
        self.event.alarmed()
    }
}

/// End-of-stream accounting returned by [`MultiSourceExtractor::finish`].
///
/// Two summaries are equal when they count the same stream: `==`
/// compares every field but the wall-clock [`assembly`](Self::assembly).
#[derive(Debug, Clone)]
pub struct MultiStreamSummary {
    /// Grid intervals closed (and processed).
    pub intervals: u64,
    /// Intervals on which the detector bank alarmed.
    pub alarms: u64,
    /// Intervals that produced an extraction (alarm + non-empty
    /// meta-data).
    pub extractions: u64,
    /// Flows fed to the stream across all sources.
    pub total_flows: u64,
    /// Flows dropped across all sources and layers (late, pre-origin,
    /// and stale-after-force-close).
    pub dropped_flows: u64,
    /// Whether every detector had finished training by end of stream.
    pub trained: bool,
    /// Per-source ingestion and drop accounting, in registration order.
    pub sources: Vec<SourceStats>,
    /// Live reconfiguration requests applied at interval boundaries over
    /// the stream's lifetime (the audit trail survives checkpoints).
    pub reconfigs_applied: u64,
    /// Reconfiguration requests rejected by validation — the engine kept
    /// its previous parameters.
    pub reconfigs_rejected: u64,
    /// Wall-clock time this extractor spent in its own merge grid calls
    /// — assembling windows from the runs and heartbeats it was fed, and
    /// merging closed ones — since it was built or restored. The wait
    /// for the pipeline thread is not counted.
    pub assembly: Duration,
}

impl PartialEq for MultiStreamSummary {
    fn eq(&self, other: &Self) -> bool {
        let counts = |s: &Self| {
            let MultiStreamSummary {
                intervals,
                alarms,
                extractions,
                total_flows,
                dropped_flows,
                trained,
                sources,
                reconfigs_applied,
                reconfigs_rejected,
                assembly: _,
            } = s;
            let numbers = [
                *intervals,
                *alarms,
                *extractions,
                *total_flows,
                *dropped_flows,
            ];
            (
                numbers,
                *trained,
                sources.clone(),
                *reconfigs_applied,
                *reconfigs_rejected,
            )
        };
        counts(self) == counts(other)
    }
}

impl Eq for MultiStreamSummary {}

/// The stream's counters: the closed intervals among the events the
/// extractor returned, and the reconfiguration verdicts. A checkpoint
/// stores them in field order.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    intervals: u64,
    alarms: u64,
    extractions: u64,
    reconfigs_applied: u64,
    reconfigs_rejected: u64,
}

impl Tally {
    /// Count `events`, one closed interval each.
    fn events(&mut self, events: &[MultiStreamEvent]) {
        for event in events {
            self.intervals += 1;
            self.alarms += u64::from(event.alarmed());
            self.extractions += u64::from(event.event.outcome.extraction.is_some());
        }
    }
}

/// The streaming pipeline: N exporters (one or more) fanned in onto one
/// interval grid, extracted by one engine.
///
/// Feed flows tagged with their [`SourceId`] in per-source arrival
/// order (cross-source interleaving is arbitrary); receive a
/// [`MultiStreamEvent`] per closed grid interval. The grid closes an
/// interval when every live source has advanced past it — see
/// [`MergeAssembler`] for the watermark and lateness-bound semantics —
/// and each merged interval runs through the double-buffered pipeline
/// thread (see the [module docs](self)), so the outcome stream is
/// bit-identical to batch extraction of the per-interval concatenation
/// of all sources' flows. [`finish`](Self::finish) at end of stream, or
/// drop the extractor to abandon it — the pipeline thread is joined
/// either way.
#[derive(Debug)]
pub struct MultiSourceExtractor {
    assembler: MergeAssembler,
    pipe: PipelineHandle,
    /// The configuration every interval submitted from now on runs under.
    config: ExtractionConfig,
    tally: Tally,
    /// Time spent in the merge grid's calls ([`MultiStreamSummary::assembly`]).
    assembly: Duration,
    /// Whether events fill [`MultiStreamEvent::flow_data`] (legacy).
    pub(crate) flow_data: bool,
}

impl MultiSourceExtractor {
    /// Build a streaming pipeline over the given exporters, spawning the
    /// pipeline thread. Source `s` has windows `[origin_s + i*Δ,
    /// origin_s + (i+1)*Δ)`. `max_lag_intervals` bounds how far the
    /// fastest source may run ahead before the grid force-closes
    /// laggards (`None` = pure watermark, wait forever).
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint (invalid
    /// pipeline config, no sources, or duplicate source ids).
    pub fn new(
        config: ExtractionConfig,
        sources: &[SourceSpec],
        max_lag_intervals: Option<u64>,
    ) -> Result<Self, ConfigError> {
        let merge_config = MergeConfig {
            interval_ms: config.interval_ms,
            max_lag_intervals,
        };
        let engine = Engine::new(config.clone())?;
        let assembler = MergeAssembler::try_new(merge_config, sources)?;
        Ok(MultiSourceExtractor {
            assembler,
            pipe: PipelineHandle::spawn(engine)?,
            config,
            tally: Tally::default(),
            assembly: Duration::ZERO,
            flow_data: false,
        })
    }

    /// The merge assembler (registered sources, per-source drop
    /// counters, grid state).
    #[must_use]
    pub fn assembler(&self) -> &MergeAssembler {
        &self.assembler
    }

    /// The configuration every interval submitted from now on runs
    /// under: the constructor's, the checkpoint's after a restore, and
    /// updated by every applied [`reconfigure`](Self::reconfigure).
    #[must_use]
    pub fn config(&self) -> &ExtractionConfig {
        &self.config
    }

    /// Serialize the stream's complete state — the merge grid (every
    /// lane's assembler with its in-progress window, pending windows,
    /// watermarks, and per-source drop counters), the stream counters,
    /// and the engine's configuration and detector bank — into a
    /// checkpoint payload. Returns events that became ready while the
    /// pipeline drained, plus the payload; [`save`](Self::save) writes
    /// it as a checkpoint file.
    ///
    /// The snapshot request rides the pipeline's FIFO work channel, so
    /// it lands between intervals: the payload reflects every interval
    /// submitted before the call, and nothing after — no in-flight
    /// interval state needs to travel.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    pub fn checkpoint(&mut self) -> (Vec<MultiStreamEvent>, Vec<u8>) {
        let (events, engine) = self.pipe.call(|engine| engine.snapshot());
        self.tally.events(&events);
        let mut w = SnapshotWriter::new();
        self.assembler.encode_snapshot(&mut w);
        w.u64(self.total_flows());
        let t = self.tally;
        for counter in [
            t.intervals,
            t.alarms,
            t.extractions,
            t.reconfigs_applied,
            t.reconfigs_rejected,
        ] {
            w.u64(counter);
        }
        w.bytes(&engine);
        (events, w.into_bytes())
    }

    /// Rebuild a stream from a [`checkpoint`](Self::checkpoint) payload
    /// (checkpoint format version 2), resuming it bit-identically: the
    /// restored grid continues every lane's window (partial windows
    /// included) and the restored engine scores every subsequent
    /// interval exactly as the checkpointed one would have.
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from a truncated, corrupt, or inconsistent
    /// payload.
    pub fn restore(payload: &[u8]) -> Result<Self, RestoreError> {
        Self::restore_version(CHECKPOINT_VERSION, payload)
    }

    /// [`restore`](Self::restore) for a payload of checkpoint format
    /// `version`: a version 1 payload holds the single-source engine's one
    /// assembler, which resumes as a one-lane grid.
    fn restore_version(version: u32, payload: &[u8]) -> Result<Self, RestoreError> {
        let mut r = SnapshotReader::new(payload);
        let (assembler, total_flows) = if version == 1 {
            let lane = IntervalAssembler::decode_snapshot(&mut r)?;
            let total_flows = r.u64()?;
            (MergeAssembler::from_single(lane, total_flows), total_flows)
        } else {
            (MergeAssembler::decode_snapshot(&mut r)?, r.u64()?)
        };
        let fed: u64 = assembler.source_stats().iter().map(|s| s.flows).sum();
        if total_flows != fed {
            return Err(RestoreError::Corrupt(format!(
                "{total_flows} flows fed, where the grid's sources were fed {fed}"
            )));
        }
        let tally = Tally {
            intervals: r.u64()?,
            alarms: r.u64()?,
            extractions: r.u64()?,
            reconfigs_applied: r.u64()?,
            reconfigs_rejected: r.u64()?,
        };
        let engine_bytes = r.bytes()?;
        r.finish()?;
        let engine = Engine::restore(engine_bytes)?;
        if engine.config().interval_ms != assembler.config().interval_ms {
            return Err(RestoreError::Corrupt(format!(
                "grid interval {} ms disagrees with engine interval {} ms",
                assembler.config().interval_ms,
                engine.config().interval_ms
            )));
        }
        let config = engine.config().clone();
        let pipe = PipelineHandle::spawn(engine)
            .map_err(|e| RestoreError::Corrupt(format!("cannot respawn pipeline: {e}")))?;
        Ok(MultiSourceExtractor {
            assembler,
            pipe,
            config,
            tally,
            assembly: Duration::ZERO,
            flow_data: false,
        })
    }

    /// Write a [`checkpoint`](Self::checkpoint) atomically to the file at
    /// `path` ([`write_checkpoint`]) as `{total_flows, payload}`. Returns
    /// the events that drained, whether or not the write succeeded.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    pub fn save(&mut self, path: &Path) -> (Vec<MultiStreamEvent>, Result<(), RestoreError>) {
        let (events, payload) = self.checkpoint();
        let mut w = SnapshotWriter::new();
        w.u64(self.total_flows());
        w.bytes(&payload);
        (events, write_checkpoint(path, &w.into_bytes()))
    }

    /// Resume the stream a [`save`](Self::save)d file holds (a version 1
    /// file, the single-source engine's, as a one-lane grid).
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from an unreadable or corrupt file, or one
    /// whose position is not its stream's flow count.
    pub fn load(path: &Path) -> Result<Self, RestoreError> {
        let (version, file) = read_checkpoint(path)?;
        let mut r = SnapshotReader::new(&file);
        let position = r.u64()?;
        let payload = r.bytes()?;
        r.finish()?;
        let stream = Self::restore_version(version, payload)?;
        let fed = stream.total_flows();
        if fed == position {
            return Ok(stream);
        }
        Err(RestoreError::Corrupt(format!(
            "file position {position} is not the {fed} flows fed"
        )))
    }

    /// Flows fed so far across all sources, dropped ones included: a
    /// checkpoint file's position.
    #[must_use]
    pub fn total_flows(&self) -> u64 {
        self.assembler.source_stats().iter().map(|s| s.flows).sum()
    }

    /// Apply a live parameter change at the next interval boundary (see
    /// [`ReconfigRequest`]): intervals already submitted run under the
    /// old parameters, everything after under the new — no flows are
    /// dropped either way. Returns any events that became ready (all of
    /// them ran under the old parameters), plus the validation verdict;
    /// a rejected request leaves the engine untouched. Both outcomes are
    /// tallied in the [`MultiStreamSummary`] audit counters.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    pub fn reconfigure(
        &mut self,
        request: ReconfigRequest,
    ) -> (Vec<MultiStreamEvent>, Result<(), ConfigError>) {
        let (events, verdict) = self.pipe.call(move |engine| {
            engine
                .reconfigure(&request)
                .map(|()| engine.config().clone())
        });
        self.tally.events(&events);
        match &verdict {
            Ok(config) => {
                self.config = config.clone();
                self.tally.reconfigs_applied += 1;
            }
            Err(_) => self.tally.reconfigs_rejected += 1,
        }
        (events, verdict.map(|_| ()))
    }

    /// Tally a reconfiguration refused before it reached
    /// [`reconfigure`](Self::reconfigure) — a control file that does not
    /// parse, or a request the caller's own policy rejects — in the
    /// [`MultiStreamSummary`] audit counters, with the engine untouched.
    pub fn count_refused_reconfig(&mut self) {
        self.tally.reconfigs_rejected += 1;
    }

    /// Feed one flow from `source`: a [`push_run`](Self::push_run) of
    /// one. Returns every interval that became ready, extracted.
    ///
    /// # Panics
    ///
    /// As [`push_run`](Self::push_run).
    pub fn push(&mut self, source: SourceId, flow: FlowRecord) -> Vec<MultiStreamEvent> {
        self.push_run(source, std::slice::from_ref(&flow)).1
    }

    /// Feed a run of flows from `source` — records, or a row range of a
    /// capture block ([`FlowRun`]) — up to and including the first
    /// flow that closes one of the source's windows
    /// ([`MergeAssembler::push_run`]): every event, drop count and
    /// checkpoint is the one [`push`](Self::push) on each of those flows
    /// gives. Returns how many flows were consumed and every interval
    /// that became ready, extracted — usually none; one or more when the
    /// last flow closed windows (empty windows after a gap are processed
    /// too, keeping the KL series aligned). A caller with flows left
    /// passes them again.
    ///
    /// # Panics
    ///
    /// Panics when `source` is unknown or already finished; re-raises a
    /// panic from the pipeline thread (the engine panicking on a
    /// poisoned interval).
    pub fn push_run<R: FlowRun + ?Sized>(
        &mut self,
        source: SourceId,
        run: &R,
    ) -> (usize, Vec<MultiStreamEvent>) {
        let (consumed, merged) = self.assemble(|grid| grid.push_run(source, run));
        (consumed, self.submit_merged(merged))
    }

    /// Event-time heartbeat from `source`: advance its watermark to
    /// `now_ms` (source-local clock) without flows, so a live-but-idle
    /// exporter's collector punctuation (options templates, keepalives)
    /// releases the grid instead of holding it until `max_lag` fires.
    /// Returns every merged interval that released, extracted.
    ///
    /// # Panics
    ///
    /// Panics when `source` is unknown or already finished; re-raises a
    /// panic from the pipeline thread.
    pub fn heartbeat(&mut self, source: SourceId, now_ms: u64) -> Vec<MultiStreamEvent> {
        let merged = self.assemble(|grid| grid.heartbeat(source, now_ms));
        self.submit_merged(merged)
    }

    /// Declare `source` cleanly ended (it stops holding the watermark);
    /// returns whatever merged intervals that released. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when `source` is unknown; re-raises a panic from the
    /// pipeline thread.
    pub fn finish_source(&mut self, source: SourceId) -> Vec<MultiStreamEvent> {
        let merged = self.assemble(|grid| grid.finish_source(source));
        self.submit_merged(merged)
    }

    /// Close the stream: finish every source, flush the grid, wait for
    /// the pipeline thread to drain, and return the remaining events
    /// plus the end-of-stream summary.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the pipeline thread.
    #[must_use]
    pub fn finish(mut self) -> (Vec<MultiStreamEvent>, MultiStreamSummary) {
        let merged = self.assemble(MergeAssembler::flush);
        let mut events = self.submit_merged(merged);
        let (tail, engine) = self.pipe.finish();
        self.tally.events(&tail);
        events.extend(tail);
        let t = self.tally;
        let summary = MultiStreamSummary {
            intervals: t.intervals,
            alarms: t.alarms,
            extractions: t.extractions,
            total_flows: self.total_flows(),
            dropped_flows: self.assembler.dropped_flows(),
            trained: engine.is_trained(),
            sources: self.assembler.source_stats(),
            reconfigs_applied: t.reconfigs_applied,
            reconfigs_rejected: t.reconfigs_rejected,
            assembly: self.assembly,
        };
        (events, summary)
    }

    /// Run one merge grid call, adding its time to
    /// [`MultiStreamSummary::assembly`].
    fn assemble<T>(&mut self, call: impl FnOnce(&mut MergeAssembler) -> T) -> T {
        let started = Instant::now();
        let out = call(&mut self.assembler);
        self.assembly += started.elapsed();
        out
    }

    /// Submit freshly merged intervals to the pipeline thread and return
    /// every event that came back. Each submit first drains the finished
    /// events, so the pipeline thread never stalls on a full event
    /// channel while this thread waits for the double buffer.
    fn submit_merged(&mut self, merged: Vec<MergedInterval>) -> Vec<MultiStreamEvent> {
        let mut events = Vec::new();
        for interval in merged {
            self.pipe.drain_ready(&mut events);
            self.pipe.send(Command::Work {
                interval: Box::new(interval),
                dropped_flows: self.assembler.dropped_flows(),
                flow_data: self.flow_data,
            });
        }
        self.pipe.drain_ready(&mut events);
        self.tally.events(&events);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detector::DetectorConfig;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    const SRC: SourceId = SourceId(0);

    fn test_config(interval_ms: u64) -> ExtractionConfig {
        ExtractionConfig {
            interval_ms,
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            ..ExtractionConfig::default()
        }
    }

    /// One exporter with clock origin `origin_ms`: a fan-in of one.
    fn one_lane(config: ExtractionConfig, origin_ms: u64) -> MultiSourceExtractor {
        MultiSourceExtractor::new(config, &[SourceSpec::new(0u32, origin_ms)], None).unwrap()
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
    fn percentiles_are_nearest_rank() {
        let mut lat = vec![50u64, 10, 40, 20, 30];
        assert_eq!(latency_percentile(&mut lat, 50.0), 30);
        assert_eq!(latency_percentile(&mut lat, 95.0), 50);
        assert_eq!(latency_percentile(&mut [], 50.0), 0);
        assert_eq!(latency_percentile(&mut [7], 95.0), 7);
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let stream = one_lane(test_config(60_000), 0);
        let (events, summary) = stream.finish();
        assert!(events.is_empty());
        assert_eq!(summary.intervals, 0);
        assert_eq!(summary.total_flows, 0);
        assert_eq!(summary.sources.len(), 1);
        assert!(!summary.trained);
    }

    #[test]
    fn gaps_emit_empty_intervals_in_order() {
        let mut stream = one_lane(test_config(1_000), 500);
        let mut events = stream.push(SRC, flow_at(600));
        events.extend(stream.push(SRC, flow_at(5_000))); // skips windows 1–3
        let (tail, summary) = stream.finish();
        events.extend(tail);
        let indices: Vec<u64> = events.iter().map(|e| e.event.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert_eq!(events[0].event.flows, 1);
        assert!(events[1..4].iter().all(|e| e.event.flows == 0));
        assert!(events[1..4].iter().all(|e| e.source_flows == vec![0]));
        assert_eq!(
            (events[2].event.begin_ms, events[2].event.end_ms),
            (2_000, 3_000),
            "grid time: origin-relative"
        );
        assert_eq!(summary.intervals, 5);
    }

    #[test]
    fn dropped_flows_surface_in_events_and_summary() {
        let mut stream = one_lane(test_config(1_000), 10_000);
        assert!(
            stream.push(SRC, flow_at(5)).is_empty(),
            "pre-origin, dropped"
        );
        stream.push(SRC, flow_at(10_100));
        stream.push(SRC, flow_at(11_500)); // closes window 0
        stream.push(SRC, flow_at(10_200)); // late: window 0 already closed
        let (events, summary) = stream.finish();
        assert_eq!(summary.sources[0].pre_origin_flows, 1);
        assert_eq!(summary.sources[0].late_flows, 1);
        assert_eq!(summary.sources[0].stale_flows, 0);
        assert_eq!(summary.dropped_flows, 2);
        assert_eq!(summary.total_flows, 4);
        let last = events.last().expect("final interval flushed");
        assert_eq!(last.event.dropped_flows, 2, "cumulative drops at close");
    }

    #[test]
    fn restore_rejects_corrupt_payloads() {
        let mut stream = one_lane(test_config(1_000), 0);
        let _ = stream.push(SRC, flow_at(100));
        let (_, payload) = stream.checkpoint();
        assert!(MultiSourceExtractor::restore(&payload).is_ok());
        assert!(MultiSourceExtractor::restore(&payload[..payload.len() / 2]).is_err());
        assert!(MultiSourceExtractor::restore(&[]).is_err());
        assert!(MultiSourceExtractor::restore_version(1, &[]).is_err());
        let mut evil = payload.clone();
        evil[0] ^= 0xff; // grid interval garbled
        assert!(
            MultiSourceExtractor::restore(&evil).is_err()
                || MultiSourceExtractor::restore(&evil).is_ok(),
            "must not panic either way"
        );
        assert!(
            MultiSourceExtractor::restore_version(1, &payload).is_err()
                || MultiSourceExtractor::restore_version(1, &payload).is_ok(),
            "a foreign layout must not panic either"
        );
    }

    #[test]
    fn reconfigure_applies_at_a_boundary_without_dropping_flows() {
        let mut stream = one_lane(test_config(1_000), 0);
        let mut events = stream.push(SRC, flow_at(100));
        events.extend(stream.push(SRC, flow_at(1_200))); // closes window 0
        let (more, verdict) = stream.reconfigure(ReconfigRequest {
            min_support: Some(42),
            alpha: Some(4.0),
            ..ReconfigRequest::default()
        });
        events.extend(more);
        verdict.unwrap();
        assert_eq!(stream.config().min_support, 42, "config tracks the engine");
        // A rejected request is audited but changes nothing.
        let (more, verdict) = stream.reconfigure(ReconfigRequest {
            min_support: Some(0),
            ..ReconfigRequest::default()
        });
        events.extend(more);
        assert!(verdict.is_err());
        assert_eq!(stream.config().min_support, 42);
        events.extend(stream.push(SRC, flow_at(2_500)));
        let (tail, summary) = stream.finish();
        events.extend(tail);
        assert_eq!(summary.reconfigs_applied, 1);
        assert_eq!(summary.reconfigs_rejected, 1);
        assert_eq!(summary.total_flows, 3);
        assert_eq!(summary.dropped_flows, 0);
        assert_eq!(summary.intervals, 3, "every window processed");
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn reconfig_audit_trail_survives_a_checkpoint() {
        let mut stream = one_lane(test_config(1_000), 0);
        let _ = stream.push(SRC, flow_at(100));
        let (_, verdict) = stream.reconfigure(ReconfigRequest {
            min_support: Some(77),
            ..ReconfigRequest::default()
        });
        verdict.unwrap();
        let (_, payload) = stream.checkpoint();
        let resumed = MultiSourceExtractor::restore(&payload).unwrap();
        assert_eq!(resumed.config().min_support, 77, "restored config");
        let (_, summary) = resumed.finish();
        assert_eq!(summary.reconfigs_applied, 1);
        assert_eq!(summary.total_flows, 1);
    }

    fn two_specs() -> Vec<SourceSpec> {
        vec![SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 0)]
    }

    #[test]
    fn multi_source_event_carries_per_source_weights() {
        let mut multi = MultiSourceExtractor::new(test_config(1_000), &two_specs(), None).unwrap();
        multi.push(SourceId(0), flow_at(100));
        multi.push(SourceId(0), flow_at(200));
        multi.push(SourceId(1), flow_at(300));
        let (events, summary) = multi.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].source_flows, vec![2, 1]);
        assert_eq!(events[0].event.flows, 3);
        assert_eq!(summary.total_flows, 3);
        assert_eq!(summary.sources.len(), 2);
        assert_eq!(summary.sources[0].flows, 2);
        assert_eq!(summary.sources[1].flows, 1);
        assert_eq!(summary.dropped_flows, 0);
    }

    #[test]
    fn multi_source_watermark_waits_then_finish_source_releases() {
        let mut multi = MultiSourceExtractor::new(test_config(1_000), &two_specs(), None).unwrap();
        // Source 0 races ahead; nothing closes while source 1 is live
        // and silent.
        assert!(multi.push(SourceId(0), flow_at(100)).is_empty());
        assert!(multi.push(SourceId(0), flow_at(2_500)).is_empty());
        let mut events = multi.finish_source(SourceId(1));
        let (tail, summary) = multi.finish();
        events.extend(tail);
        assert_eq!(events.len(), 3, "windows 0–2 close once src1 is done");
        assert_eq!(events[0].source_flows, vec![1, 0]);
        assert_eq!(summary.intervals, 3);
    }

    #[test]
    fn idle_source_heartbeat_releases_intervals_without_max_lag() {
        // Pure watermark (no lateness bound): only punctuation from the
        // idle source can release the grid.
        let mut multi = MultiSourceExtractor::new(test_config(1_000), &two_specs(), None).unwrap();
        assert!(multi.push(SourceId(0), flow_at(100)).is_empty());
        assert!(multi.push(SourceId(0), flow_at(2_500)).is_empty());
        // Source 1 is live but idle; its heartbeat at 2.1s closes
        // windows 0 and 1 without waiting for finish/flush. (Events
        // surface asynchronously as the pipeline thread finishes them.)
        let mut events = multi.heartbeat(SourceId(1), 2_100);
        let (tail, summary) = multi.finish();
        events.extend(tail);
        assert_eq!(events.len(), 3, "windows 0-1 via heartbeat, 2 at flush");
        assert_eq!(events[0].source_flows, vec![1, 0]);
        assert_eq!(events[1].source_flows, vec![0, 0]);
        assert_eq!(events[2].source_flows, vec![1, 0]);
        assert_eq!(summary.intervals, 3);
        assert_eq!(summary.dropped_flows, 0, "heartbeats drop nothing");
    }

    #[test]
    fn multi_source_invalid_configs_are_errors() {
        assert!(
            MultiSourceExtractor::new(test_config(1_000), &[], None).is_err(),
            "no sources"
        );
        let dup = [SourceSpec::new(0u32, 0), SourceSpec::new(0u32, 5)];
        assert!(
            MultiSourceExtractor::new(test_config(1_000), &dup, None).is_err(),
            "duplicate ids"
        );
        let mut config = test_config(1_000);
        config.min_support = 0;
        let one = [SourceSpec::new(0u32, 0)];
        for sources in [&one[..], &two_specs()] {
            assert!(MultiSourceExtractor::new(config.clone(), sources, None).is_err());
        }
    }

    #[test]
    fn abandoning_a_stream_joins_the_pipeline_thread() {
        for specs in [vec![SourceSpec::new(0u32, 0)], two_specs()] {
            let mut stream = MultiSourceExtractor::new(test_config(1_000), &specs, None).unwrap();
            for i in 0u32..40 {
                let source = SourceId(i % specs.len() as u32);
                let _ = stream.push(source, flow_at(u64::from(i) * 100));
            }
            drop(stream); // must not hang or leak the pipeline thread
        }
    }
}
