//! The `anomex` subcommands.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use anomex_core::{
    latency_percentile, merge_source_rules, prefilter_indices_columns, render_report,
    render_report_with_levels, render_rule_merge, Engine, Extraction, ExtractionConfig,
    MultiSourceExtractor, MultiStreamEvent, PrefilterMode, ReconfigRequest, TransactionMode,
};
use anomex_detector::{DetectorConfig, MetaData};
use anomex_mining::{mine_top_k, MinerKind, RuleConfig, RARE_SUPPORT_GUARD};
use anomex_netflow::snapshot::{
    read_checkpoint, write_checkpoint, RestoreError, SnapshotReader, SnapshotWriter,
};
use anomex_netflow::v5::V5Exporter;
use anomex_netflow::v9::{TraceItem, TraceReader};
use anomex_netflow::{
    default_shards, FeatureValue, FlowColumns, FlowRecord, FlowTrace, ReadError, SourceId,
    SourceSpec, MAX_SHARDS, MINUTE_MS,
};
use anomex_traffic::table2::paper_counts;
use anomex_traffic::{table2_workload, MultiSourceScenario, Scenario};

use crate::args::Args;

/// CLI usage text.
pub const USAGE: &str = "\
anomex — anomaly extraction in backbone networks (Brauckhoff et al., IMC'09/ToN'12)

USAGE:
  anomex generate --out FILE [--seed N] [--scenario small|two-weeks] [--scale X]
                  [--intervals N] [--sources N]
      Synthesize a workload and write it as concatenated NetFlow v5 datagrams.
      --scale X (two-weeks only, default 0.25) multiplies the flow volume.
      With --sources N > 1, synthesize an N-link multi-exporter workload
      (anomalies on link 0, tapering rates and clock skews on the rest)
      and write one trace file per link. --sources is at least 1
      (default 1), and --out is given exactly once per source.

  anomex extract --in FILE [--in FILE ...] [--interval-min N] [--training N]
                 [--support N] [--miner apriori|fpgrowth|eclat] [--threads N]
                 [--prefixes] [--intersection]
                 [--rules] [--min-confidence C] [--min-lift L] [--rare]
                 [--force-rare]
      Run the full detection + extraction pipeline over a trace file and
      print a Table II-style report per alarmed interval. --miner picks
      the frequent item-set algorithm (default fpgrowth; apriori is the
      paper's, eclat the vertical one) — the reports are byte-identical
      for all three, only the run time differs. --threads N
      (at most 1024; 0 = one per hardware thread) runs one worker pool
      of N threads that serves the flat passes — the detector's
      interval shards and the miners' support counting; the searches
      run on the calling thread; the output is bit-identical for every
      thread count. With several --in files,
      each trace is sliced on its own interval grid and the per-interval
      flows are concatenated in file order — the batch reference for
      multi-source streaming. --rules (or any rule option) layers
      association rules X => Y on the mined item-sets, filtered by
      confidence >= C (default 0.6) and lift >= L (default 1.0) and
      ranked by a z-score meta-detection pass over the interval's rule
      population; --rare lowers the support floor per itemset level to
      keep low-support attacks minable. --rare with --support below 128
      is rejected (the lowered floor can explode the mining pass on
      large intervals); pass --force-rare to run it anyway. With
      several --in files the rules are additionally re-mined per source
      at weighted support floors and merged.

  anomex stream --in FILE|- [--in FILE ...] [--interval-min N] [--training N]
                [--support N] [--miner apriori|fpgrowth|eclat] [--threads N]
                [--max-lag N] [--prefixes] [--intersection] [--verbose]
                [--rules] [--min-confidence C] [--min-lift L] [--rare]
                [--force-rare] [--checkpoint-dir DIR] [--checkpoint-every N]
                [--resume] [--stop-after N]
      Replay a trace (or NetFlow v5 datagrams on stdin with --in -)
      through the continuous streaming engine: flows are assembled into
      Δ-minute intervals while the previous interval runs detection and
      extraction on a persistent worker pool. Prints a report per
      alarmed interval as it closes, then per-interval latency
      percentiles and drop counters. Each --in file is one exporter on
      a shared interval grid (watermark merge; one --in is a fan-in of
      one), replayed in collector arrival order with its v9/IPFIX
      heartbeats (minus those dated past every file's last flow);
      --max-lag N bounds how many intervals the fastest source may run
      ahead (0 = unbounded). Output is bit-identical to `anomex
      extract` with the same --in list (rule options and per-source
      rule merge sections included).
      Durable operation, for any number of --in files: --checkpoint-dir
      DIR atomically snapshots the full online state (detector
      baselines, the interval grid with every source's watermark and
      in-progress window, drop and audit counters) to DIR/stream.ckpt
      every N closed intervals (--checkpoint-every, default 1); --resume
      restores from it — configuration included — skips the flows
      already consumed (give the same --in list), and continues the
      event stream bit-identically; --stop-after N exits cleanly after N
      intervals with a final checkpoint (the kill-and-resume e2e cut
      point). A `reconfig` file in DIR (`min-support=N`, `alpha=X`,
      `shards=N`, `rules=on|off`, one per line) is consumed at the next
      interval boundary and applied atomically without dropping flows;
      the verdict is counted in the `reconfigurations:` trailer line.

  anomex analyze --in FILE --metadata \"dstPort=7000,#packets=12\" [--support N]
                 [--miner apriori|fpgrowth|eclat] [--top] [--k N] [--threads N]
                 [--prefixes] [--intersection]
                 [--rules] [--min-confidence C] [--min-lift L] [--rare]
                 [--force-rare]
      Offline extraction with explicit meta-data (the §II-B workflow),
      configured by the same options as extract (the rule options add
      the ranked association rules to the report, and --rare has the
      same guard). With --top, mine the k most frequent item-sets
      instead of using a fixed support; --top does not take the rule
      options.

  anomex table2 [--scale X]
      Reproduce the paper's Table II example (mined with apriori, whose
      per-round audit trail the report includes).

  anomex help";

/// Write one line to stderr. A closed stderr loses the line and nothing
/// else: `eprintln!` would panic, turning an error exit (or a clean one
/// after a checkpoint note) into exit 101.
pub fn note(line: impl std::fmt::Display) {
    writeln!(std::io::stderr(), "{line}").ok();
}

/// `anomex help`: print [`USAGE`].
pub fn help_to(out: &mut impl Write) -> Result<(), String> {
    writeln!(out, "{USAGE}").map_err(write_error)
}

/// `anomex generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    generate_to(args, &mut std::io::stdout().lock())
}

/// The `generate` body, printing its summary to `out`.
fn generate_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let sources = args.get_or("sources", 1usize).map_err(|e| e.to_string())?;
    if sources == 0 {
        return Err("--sources must be at least 1".into());
    }
    let path = args.require("out")?;
    let outs = args.get_all("out");
    if outs.len() != sources {
        return Err(format!(
            "--sources {sources} needs exactly {sources} --out files (got {})",
            outs.len()
        ));
    }
    if sources > 1 {
        return generate_multi(args, outs, out);
    }
    let seed = args.get_or("seed", 42u64).map_err(|e| e.to_string())?;
    let scenario = match args.get("scenario").unwrap_or("small") {
        "small" if args.get("scale").is_some() => {
            return Err("--scenario small does not take --scale (its volume is fixed)".into());
        }
        "small" => Scenario::small(seed),
        "two-weeks" => {
            let unit = Scenario::two_weeks(seed, 1.0);
            let unit_flows = unit.config().background.flows_per_interval;
            Scenario::two_weeks(seed, parse_scale(args, 0.25, unit_flows)?)
        }
        other => return Err(format!("unknown scenario {other:?} (small|two-weeks)")),
    };
    let intervals = args
        .get_or("intervals", scenario.interval_count())
        .map_err(|e| e.to_string())?
        .min(scenario.interval_count());

    let mut exporter = V5Exporter::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut flow_count = 0u64;
    for i in 0..intervals {
        let interval = scenario.generate(i);
        flow_count += interval.flows.len() as u64;
        for dgram in exporter.export(&interval.flows) {
            bytes.extend_from_slice(&dgram);
        }
    }
    fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    let (events, anomalous) = written_ground_truth(&scenario, intervals);
    writeln!(
        out,
        "wrote {} intervals, {} flows, {} bytes of NetFlow v5 to {}\n\
         ground truth: {events} events in intervals {anomalous:?}",
        intervals,
        flow_count,
        bytes.len(),
        path
    )
    .map_err(write_error)
}

/// The ground truth of the first `written` intervals: how many events
/// start inside them, and (up to 16 of) the anomalous intervals.
fn written_ground_truth(scenario: &Scenario, written: u64) -> (usize, Vec<u64>) {
    let events = scenario
        .events()
        .iter()
        .filter(|e| e.start_interval < written)
        .count();
    let anomalous = scenario
        .anomalous_intervals()
        .into_iter()
        .filter(|&i| i < written)
        .take(16)
        .collect();
    (events, anomalous)
}

/// Parse `--scale` for a workload of `unit_flows` flows per interval at
/// scale 1.0. The generators assert a positive scale and allocate the
/// scaled interval up front, so a non-finite or non-positive scale, or
/// one whose interval cannot exist as a `Vec<FlowRecord>`, is an error
/// here instead of a panic there.
fn parse_scale(args: &Args, default: f64, unit_flows: u64) -> Result<f64, String> {
    let scale = args.get_or("scale", default).map_err(|e| e.to_string())?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!(
            "--scale must be a positive finite number (got {scale})"
        ));
    }
    // Twice the mean volume covers the diurnal peak and the jitter.
    let max_flows = isize::MAX as usize / std::mem::size_of::<FlowRecord>();
    if 2.0 * unit_flows as f64 * scale > max_flows as f64 {
        return Err(format!(
            "--scale {scale} is too large: {unit_flows} x {scale} flows per interval do not fit in memory"
        ));
    }
    Ok(scale)
}

/// `anomex generate --sources N`: synthesize an N-link multi-exporter
/// workload and write one NetFlow v5 trace file per link, `outs[s]` for
/// link `s`.
fn generate_multi(args: &Args, outs: &[String], out: &mut impl Write) -> Result<(), String> {
    if args.get("scenario").unwrap_or("small") != "small" {
        return Err("multi-source generation supports --scenario small only".into());
    }
    if args.get("scale").is_some() {
        return Err(
            "multi-source generation does not take --scale (links carry per-link rates)".into(),
        );
    }
    let seed = args.get_or("seed", 42u64).map_err(|e| e.to_string())?;
    let scenario = MultiSourceScenario::uniform(seed, outs.len());
    let intervals = args
        .get_or("intervals", scenario.interval_count())
        .map_err(|e| e.to_string())?
        .min(scenario.interval_count());

    for (s, path) in outs.iter().enumerate() {
        let link = scenario.links()[s];
        let mut exporter = V5Exporter::new();
        let mut bytes: Vec<u8> = Vec::new();
        let mut flow_count = 0u64;
        for i in 0..intervals {
            let interval = scenario.generate(s, i);
            flow_count += interval.flows.len() as u64;
            for dgram in exporter.export(&interval.flows) {
                bytes.extend_from_slice(&dgram);
            }
        }
        fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "wrote source {s}: {} intervals, {} flows, {} bytes of NetFlow v5 to {} \
             (rate {:.2}, skew {} ms{})",
            intervals,
            flow_count,
            bytes.len(),
            path,
            link.rate,
            link.skew_ms,
            if link.carries_anomalies {
                ", carries anomalies"
            } else {
                ""
            }
        )
        .map_err(write_error)?;
    }
    let (events, anomalous) = written_ground_truth(scenario.link_scenario(0), intervals);
    writeln!(
        out,
        "ground truth: {events} events on anomaly-carrying links, intervals {anomalous:?}"
    )
    .map_err(write_error)
}

/// Load a capture file (or stdin when `path` is `-`): NetFlow v5 flow
/// datagrams optionally interleaved with v9/IPFIX template-only
/// punctuation packets. Returns the flows plus the punctuation export
/// clocks in milliseconds — the heartbeats that let an idle-but-live
/// exporter release the multi-source watermark grid.
///
/// A file and a pipe take the same path: the [`TraceReader`] frames one
/// packet at a time from a small refilled buffer, and each datagram's
/// flows are appended as it is decoded, so the returned flows are the
/// only copy of the trace ever held in memory.
fn load_trace_data(path: &str) -> Result<(Vec<FlowRecord>, Vec<u64>), String> {
    let name = if path == "-" { "stdin" } else { path };
    let source: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        Box::new(File::open(path).map_err(|e| format!("cannot read {name}: {e}"))?)
    };
    let mut flows = Vec::new();
    let mut heartbeats = Vec::new();
    for item in TraceReader::new(source) {
        match item {
            Ok(TraceItem::Flows(dgram)) => flows.extend(dgram.flows),
            Ok(TraceItem::Heartbeat(p)) => heartbeats.push(p.export_ms),
            Err(ReadError::Io(e)) => return Err(format!("cannot read {name}: {e}")),
            Err(ReadError::Decode(e)) => return Err(format!("{path}: {e}")),
        }
    }
    Ok((flows, heartbeats))
}

/// Load all flows from a trace file, ignoring any v9/IPFIX punctuation
/// (batch modes have no watermark to release).
fn load_flows(path: &str) -> Result<Vec<FlowRecord>, String> {
    load_trace_data(path).map(|(flows, _)| flows)
}

/// Parse `--miner`; without it, the library's [`MinerKind::default`].
fn parse_miner(args: &Args) -> Result<MinerKind, String> {
    match args.get("miner") {
        None => Ok(MinerKind::default()),
        Some("apriori") => Ok(MinerKind::Apriori),
        Some("fpgrowth" | "fp-growth") => Ok(MinerKind::FpGrowth),
        Some("eclat") => Ok(MinerKind::Eclat),
        Some(other) => Err(format!("unknown miner {other:?} (apriori|fpgrowth|eclat)")),
    }
}

/// Parse `--threads N`: the shard/worker count (at most [`MAX_SHARDS`]),
/// where `0` means one per available hardware thread. Defaults to 1
/// (sequential).
fn parse_threads(args: &Args) -> Result<NonZeroUsize, String> {
    let n = args.get_or("threads", 1usize).map_err(|e| e.to_string())?;
    if n > MAX_SHARDS.get() {
        return Err(format!("--threads must be at most {MAX_SHARDS}, got {n}"));
    }
    Ok(NonZeroUsize::new(n).unwrap_or_else(default_shards))
}

/// Parse the association-rule options: `--rules` switches the layer on
/// with defaults, and giving any of `--min-confidence`, `--min-lift` or
/// `--rare` implies it.
fn parse_rules(args: &Args) -> Result<Option<RuleConfig>, String> {
    let enabled = args.flag("rules")
        || args.flag("rare")
        || args.get("min-confidence").is_some()
        || args.get("min-lift").is_some();
    if !enabled {
        return Ok(None);
    }
    let defaults = RuleConfig::default();
    Ok(Some(RuleConfig {
        min_confidence: args
            .get_or("min-confidence", defaults.min_confidence)
            .map_err(|e| e.to_string())?,
        min_lift: args
            .get_or("min-lift", defaults.min_lift)
            .map_err(|e| e.to_string())?,
        rare: args.flag("rare"),
    }))
}

/// The `--rare` guard, checked wherever a configuration enters a run —
/// the command line, a resumed checkpoint, a reconfig request: rare mode
/// below [`RARE_SUPPORT_GUARD`] drives the per-level floor toward 1 and
/// runs only with `--force-rare`.
fn check_rare_guard(config: &ExtractionConfig, force_rare: bool) -> Result<(), String> {
    let support = config.min_support;
    match config.rules {
        Some(rc) if rc.rare_floor_explosive(support) && !force_rare => Err(format!(
            "--rare at support {support} drives the per-level support floor \
             toward 1, which can explode the mining pass on large intervals \
             (tens of GB of candidate item-sets); use a support of at least \
             {RARE_SUPPORT_GUARD} or pass --force-rare to override"
        )),
        _ => Ok(()),
    }
}

/// Parse the shared pipeline options (`--interval-min`, `--training`,
/// `--support`, `--miner`, `--prefixes`, `--intersection` and the rule
/// options) into a configuration — one definition for `extract`,
/// `stream` and `analyze`, so the paths can never drift apart.
fn parse_config(args: &Args) -> Result<ExtractionConfig, String> {
    let interval_min = args
        .get_or("interval-min", 15u64)
        .map_err(|e| e.to_string())?;
    let training = args
        .get_or("training", 48usize)
        .map_err(|e| e.to_string())?;
    let support = args.get_or("support", 50u64).map_err(|e| e.to_string())?;
    let miner = parse_miner(args)?;
    let rules = parse_rules(args)?;
    let interval_ms = interval_min.checked_mul(MINUTE_MS).ok_or_else(|| {
        format!(
            "--interval-min {interval_min} is too large (at most {} minutes)",
            u64::MAX / MINUTE_MS
        )
    })?;
    let config = ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: training,
            ..DetectorConfig::default()
        },
        min_support: support,
        miner,
        prefilter: if args.flag("intersection") {
            PrefilterMode::Intersection
        } else {
            PrefilterMode::Union
        },
        transactions: if args.flag("prefixes") {
            TransactionMode::WithPrefixes
        } else {
            TransactionMode::Canonical
        },
        rules,
    };
    // Validate here, before any path touches a trace (the multi-input
    // modes infer per-file origins with `% interval_ms` up front).
    check_rare_guard(&config, args.flag("force-rare"))?;
    config.validate().map_err(String::from)?;
    Ok(config)
}

/// One `--in` trace as `extract` and `stream` consume it: its flows in
/// time order, its v9/IPFIX heartbeat clocks (absolute source-local
/// ms), and its grid origin — the start of the window holding its first
/// flow, the one per-file rule every mode shares.
struct Lane {
    flows: Vec<FlowRecord>,
    heartbeats: Vec<u64>,
    origin: u64,
}

/// Load every `--in` trace in file order (at least one): source `i` is
/// the `i`-th file.
fn load_lanes(args: &Args, interval_ms: u64) -> Result<Vec<Lane>, String> {
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        args.require("in")?;
    }
    let mut lanes = inputs
        .iter()
        .map(|path| {
            let (mut flows, heartbeats) = load_trace_data(path)?;
            flows.sort_by_key(|f| f.start_ms);
            let first = flows
                .first()
                .ok_or_else(|| format!("{path}: trace is empty"))?;
            let origin = first.start_ms - first.start_ms % interval_ms;
            Ok(Lane {
                flows,
                heartbeats,
                origin,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // A heartbeat dated past the merged grid's last flow would open
    // windows `extract` never sees (and, far enough ahead, exhaust
    // memory doing so). Every earlier one stays: it is how an idle but
    // live exporter releases its windows while the other lanes run on.
    let end = (lanes.iter())
        .map(|lane| lane.flows.last().map_or(0, |f| f.start_ms - lane.origin))
        .max()
        .unwrap_or(0);
    for lane in &mut lanes {
        let origin = lane.origin;
        lane.heartbeats
            .retain(|&ms| ms.saturating_sub(origin) <= end);
    }
    Ok(lanes)
}

/// The run settings every trailer line ends with.
fn settings(config: &ExtractionConfig, threads: NonZeroUsize) -> String {
    format!(
        "s = {}, Δ = {} min, miner = {}, threads = {threads}",
        config.min_support,
        config.interval_ms / MINUTE_MS,
        config.miner
    )
}

fn write_error(e: std::io::Error) -> String {
    format!("cannot write output: {e}")
}

/// Render one alarmed interval: the Table II-style report plus — when
/// the rule layer is on and at least two sources fed the interval — the
/// per-source rule merge section (each source's segment re-mined at its
/// weighted support floor, merged and re-scored). The one definition
/// `extract` and `stream` both print, so the e2e byte-diff can hold.
fn render_multi_report(
    extraction: &Extraction,
    flows: &[FlowRecord],
    source_flows: &[usize],
    config: &ExtractionConfig,
) -> String {
    let mut out = render_report(extraction);
    if source_flows.len() >= 2 {
        if let Some(merged) = merge_source_rules(flows, source_flows, &extraction.metadata, config)
        {
            out.push_str(&render_rule_merge(&merged, source_flows.len()));
        }
    }
    out
}

/// `anomex extract`.
pub fn extract(args: &Args) -> Result<(), String> {
    extract_to(args, &mut std::io::stdout().lock())
}

/// The one `extract` body, for any number of `--in` traces: slice each
/// trace on its own inferred grid and run the per-interval
/// concatenation (file order) through one engine, printing a report
/// per alarmed interval — the batch reference `stream` is bit-identical
/// to.
fn extract_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    // Validate before touching the traces: a bad configuration should
    // fail instantly, not after decoding a multi-hundred-MB file.
    let mut engine = Engine::new(config.clone(), threads).map_err(String::from)?;
    let traces: Vec<(FlowTrace, u64)> = load_lanes(args, config.interval_ms)?
        .into_iter()
        .map(|lane| (FlowTrace::from_flows(lane.flows), lane.origin))
        .collect();
    let grids: Vec<_> = traces
        .iter()
        .map(|(trace, origin)| trace.intervals(*origin, config.interval_ms))
        .collect();
    let total = grids.iter().map(Vec::len).max().unwrap_or(0);
    let mut alarms = 0usize;
    let mut merged: Vec<FlowRecord> = Vec::new();
    let mut source_flows = vec![0; grids.len()];
    for i in 0..total {
        merged.clear();
        for (grid, weight) in grids.iter().zip(&mut source_flows) {
            let flows = grid.get(i).map_or(&[][..], |iv| iv.flows);
            merged.extend_from_slice(flows);
            *weight = flows.len();
        }
        if let Some(extraction) = engine.process(&merged).extraction {
            alarms += 1;
            let report = render_multi_report(&extraction, &merged, &source_flows, &config);
            writeln!(out, "{report}").map_err(write_error)?;
        }
    }
    let intervals = match grids.len() {
        1 => format!("{total} intervals"),
        n => format!("{total} merged intervals from {n} sources"),
    };
    writeln!(
        out,
        "processed {intervals}, {alarms} alarmed ({})",
        settings(&config, threads)
    )
    .map_err(write_error)
}

/// What the replay hands the engine next.
enum Arrival {
    Flow(FlowRecord),
    Heartbeat(u64),
}

/// Collector arrival order over every lane: a k-way merge on
/// grid-relative time, a source's flows before its same-millisecond
/// heartbeats, ties to the lowest source id — the order the batch
/// reference concatenates in. It is deterministic, so a resume can skip
/// exactly what a checkpointed run consumed.
struct Replay<'a> {
    lanes: &'a [Lane],
    /// Per lane: the next flow, the next heartbeat.
    cursors: Vec<[usize; 2]>,
}

impl<'a> Replay<'a> {
    fn new(lanes: &'a [Lane]) -> Self {
        let cursors = vec![[0, 0]; lanes.len()];
        Replay { lanes, cursors }
    }
}

impl Iterator for Replay<'_> {
    type Item = (SourceId, Arrival);

    fn next(&mut self) -> Option<Self::Item> {
        let (_, beat, s) = (self.lanes.iter().zip(&self.cursors).enumerate())
            .flat_map(|(s, (lane, &[flow, beat]))| {
                let key = |ms: u64| ms.saturating_sub(lane.origin);
                let flow = lane.flows.get(flow).map(|f| (key(f.start_ms), false, s));
                flow.into_iter()
                    .chain(lane.heartbeats.get(beat).map(|&ms| (key(ms), true, s)))
            })
            .min()?;
        let cursor = &mut self.cursors[s][usize::from(beat)];
        *cursor += 1;
        let (lane, at) = (&self.lanes[s], *cursor - 1);
        let arrival = if beat {
            Arrival::Heartbeat(lane.heartbeats[at])
        } else {
            Arrival::Flow(lane.flows[at])
        };
        Some((SourceId(s as u32), arrival))
    }
}

/// Prints each streamed interval as it arrives — the `--verbose` line,
/// then the report on alarm — and drops it, keeping only the latency
/// the trailer needs.
struct StreamPrinter<'w, W: Write> {
    out: &'w mut W,
    verbose: bool,
    /// Added to grid time in the `--verbose` window: one exporter's own
    /// clock origin, or 0 for a fan-in (grid time).
    clock_ms: u64,
    /// The configuration the printed intervals ran under; the
    /// per-source rule merge re-mines with it.
    config: ExtractionConfig,
    latencies: Vec<u64>,
}

impl<W: Write> StreamPrinter<'_, W> {
    /// Print the events; returns how many intervals they closed.
    fn print(&mut self, events: Vec<MultiStreamEvent>) -> Result<u64, String> {
        let mut text = String::new();
        for e in &events {
            let event = &e.event;
            self.latencies.push(event.process_micros);
            if self.verbose {
                text += &format!(
                    "interval {:>4}  [{} ms, {} ms)  {:>8} flows  {:>8} µs  {}\n",
                    event.index,
                    self.clock_ms + event.begin_ms,
                    self.clock_ms + event.end_ms,
                    event.flows,
                    event.process_micros,
                    if event.alarmed() { "ALARM" } else { "ok" }
                );
            }
            if let Some(extraction) = &event.outcome.extraction {
                text +=
                    &render_multi_report(extraction, &e.flow_data, &e.source_flows, &self.config);
                text.push('\n');
            }
        }
        self.out.write_all(text.as_bytes()).map_err(write_error)?;
        Ok(events.len() as u64)
    }
}

/// Durable-operation options for `anomex stream`: periodic checkpoints
/// into `--checkpoint-dir`, `--resume` from the latest one, and the
/// deterministic `--stop-after` cut used by the kill-and-resume e2e.
struct Durability {
    dir: PathBuf,
    every: u64,
    resume: bool,
    stop_after: Option<u64>,
}

impl Durability {
    /// `<dir>/stream.ckpt` — the single rotating checkpoint file.
    fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("stream.ckpt")
    }
}

/// Parse `--checkpoint-dir DIR [--checkpoint-every N] [--resume]
/// [--stop-after N]`. The dependent options are rejected without the
/// directory rather than silently ignored.
fn parse_durability(args: &Args) -> Result<Option<Durability>, String> {
    let Some(dir) = args.get("checkpoint-dir") else {
        for opt in ["checkpoint-every", "stop-after"] {
            if args.get(opt).is_some() {
                return Err(format!("--{opt} needs --checkpoint-dir"));
            }
        }
        if args.flag("resume") {
            return Err("--resume needs --checkpoint-dir".into());
        }
        return Ok(None);
    };
    let every = args
        .get_or("checkpoint-every", 1u64)
        .map_err(|e| e.to_string())?;
    if every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let stop_after = match args.get("stop-after") {
        None => None,
        Some(_) => Some(args.get_or("stop-after", 0u64).map_err(|e| e.to_string())?),
    };
    if stop_after == Some(0) {
        return Err("--stop-after must be at least 1".into());
    }
    fs::create_dir_all(dir).map_err(|e| format!("cannot create --checkpoint-dir {dir}: {e}"))?;
    Ok(Some(Durability {
        dir: PathBuf::from(dir),
        every,
        resume: args.flag("resume"),
        stop_after,
    }))
}

/// Parse the reconfig control file: one `key = value` per line, `#`
/// comments. Keys: `min-support`, `alpha`, `shards`, `rules=on|off`.
fn parse_reconfig(text: &str) -> Result<ReconfigRequest, String> {
    let mut req = ReconfigRequest::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {line:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "min-support" => {
                req.min_support = Some(
                    value
                        .parse()
                        .map_err(|_| format!("min-support: expected an integer, got {value:?}"))?,
                );
            }
            "alpha" => {
                req.alpha = Some(
                    value
                        .parse()
                        .map_err(|_| format!("alpha: expected a number, got {value:?}"))?,
                );
            }
            "shards" | "threads" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("shards: expected an integer, got {value:?}"))?;
                req.shards =
                    Some(NonZeroUsize::new(n).ok_or_else(|| "shards must be >= 1".to_string())?);
            }
            "rules" => {
                req.rules = Some(match value {
                    "on" => Some(RuleConfig::default()),
                    "off" => None,
                    other => return Err(format!("rules: expected on|off, got {other:?}")),
                });
            }
            other => return Err(format!("unknown reconfig key {other:?}")),
        }
    }
    Ok(req)
}

/// Consume `<dir>/reconfig` when present: parse it, apply the request
/// at the current interval boundary, delete the file, and report the
/// verdict on stderr (stdout stays byte-comparable across runs). A
/// request whose configuration fails the `--rare` guard is rejected
/// with the engine untouched. Returns the interval events that drained
/// around the boundary.
fn consume_reconfig_file(
    dir: &Path,
    engine: &mut MultiSourceExtractor,
    force_rare: bool,
) -> Vec<MultiStreamEvent> {
    let path = dir.join("reconfig");
    let Ok(text) = fs::read_to_string(&path) else {
        return Vec::new();
    };
    fs::remove_file(&path).ok();
    match parse_reconfig(&text) {
        Ok(req) if !req.is_empty() => {
            if let Err(e) = check_rare_guard(&req.apply(engine.config()), force_rare) {
                note(format_args!("reconfig rejected: {e}"));
                return Vec::new();
            }
            let describe = format!("{req:?}");
            let (events, verdict) = engine.reconfigure(req);
            match verdict {
                Ok(()) => note(format_args!("reconfig applied: {describe}")),
                Err(e) => note(format_args!("reconfig rejected: {e}")),
            }
            events
        }
        Ok(_) => {
            note(format_args!(
                "reconfig file {} was empty; ignored",
                path.display()
            ));
            Vec::new()
        }
        Err(e) => {
            note(format_args!(
                "reconfig file {} invalid: {e}; ignored",
                path.display()
            ));
            Vec::new()
        }
    }
}

/// Take a checkpoint: drain the pipeline, snapshot the full online
/// state, and atomically replace the checkpoint file with
/// `{flows consumed, engine payload}`. Returns the drained events.
fn take_checkpoint(
    engine: &mut MultiSourceExtractor,
    consumed: u64,
    d: &Durability,
) -> Result<Vec<MultiStreamEvent>, String> {
    let (events, payload) = engine.checkpoint();
    let mut w = SnapshotWriter::new();
    w.u64(consumed);
    w.bytes(&payload);
    let path = d.checkpoint_path();
    write_checkpoint(&path, &w.into_bytes())
        .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
    Ok(events)
}

/// Restore a `stream` session from a checkpoint file written over
/// `sources` traces: returns the restored engine plus how many flows of
/// the replay were already consumed, so the caller can skip them. A
/// version-1 file (the single-source engine's) resumes as a one-lane
/// grid; its flow count is the same replay position for one input. The
/// restored configuration must pass the `--rare` guard.
fn restore_from_checkpoint(
    path: &Path,
    threads: Option<NonZeroUsize>,
    sources: usize,
    force_rare: bool,
) -> Result<(MultiSourceExtractor, u64), String> {
    let at = |e: RestoreError| format!("cannot resume from {}: {e}", path.display());
    let (version, payload) = read_checkpoint(path).map_err(at)?;
    let mut r = SnapshotReader::new(&payload);
    let consumed = r.u64().map_err(at)?;
    let engine_bytes = r.bytes().map_err(at)?;
    r.finish().map_err(at)?;
    let engine = if version == 1 {
        MultiSourceExtractor::restore_v1(engine_bytes, threads)
    } else {
        MultiSourceExtractor::restore(engine_bytes, threads)
    }
    .map_err(at)?;
    let saved = engine.assembler().sources();
    if saved.len() != sources {
        return Err(format!(
            "cannot resume from {}: it holds {} source(s) but {sources} --in trace(s) \
             were given (resume with the --in list that wrote it)",
            path.display(),
            saved.len()
        ));
    }
    // The replay feeds source `i` from the `i`-th --in trace, so the
    // checkpoint must hold exactly the ids `0..sources`, in that order.
    if let Some((i, spec)) = (0u32..)
        .zip(&saved)
        .find(|(i, spec)| spec.id != SourceId(*i))
    {
        return Err(format!(
            "cannot resume from {}: lane {i} holds source {} where {} was expected",
            path.display(),
            spec.id,
            SourceId(i)
        ));
    }
    check_rare_guard(engine.config(), force_rare)
        .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
    Ok((engine, consumed))
}

/// `anomex stream`.
pub fn stream(args: &Args) -> Result<(), String> {
    stream_to(args, &mut std::io::stdout().lock())
}

/// The one `stream` body, for any number of `--in` traces: each trace
/// is one exporter on a shared interval grid, replayed in collector
/// arrival order (heartbeats included), printed interval by interval
/// as the engine closes them — bit-identical to [`extract_to`] over the
/// same traces — with optional checkpoints, resume, `--stop-after` and
/// boundary reconfiguration.
fn stream_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    let force_rare = args.flag("force-rare");
    let verbose = args.flag("verbose");
    let durability = parse_durability(args)?;
    let max_lag = match args.get_or("max-lag", 0u64).map_err(|e| e.to_string())? {
        0 => None,
        n => Some(n),
    };
    let settings = settings(&config, threads);
    let lanes = load_lanes(args, config.interval_ms)?;

    // Resume restores the full online state — configuration included —
    // from the checkpoint; otherwise start cold from the CLI options.
    // `--threads` explicitly given overrides the checkpointed shard
    // count (the output is shard-invariant, so this is always safe).
    let resume_from = durability
        .as_ref()
        .filter(|d| d.resume)
        .map(Durability::checkpoint_path)
        .filter(|p| p.exists());
    let (mut engine, mut consumed) = if let Some(path) = &resume_from {
        let threads_override = args.get("threads").is_some().then_some(threads);
        let resumed = restore_from_checkpoint(path, threads_override, lanes.len(), force_rare)?;
        note(format_args!(
            "resumed from {} ({} flows already consumed)",
            path.display(),
            resumed.1
        ));
        resumed
    } else {
        let specs: Vec<_> = (0u32..)
            .zip(&lanes)
            .map(|(i, l)| SourceSpec::new(i, l.origin))
            .collect();
        let engine = MultiSourceExtractor::try_new(config, threads, &specs, max_lag);
        (engine.map_err(String::from)?, 0)
    };

    let clock_ms = match engine.assembler().sources().as_slice() {
        [one] => one.origin_ms,
        _ => 0,
    };
    let mut printer = StreamPrinter {
        out,
        verbose,
        clock_ms,
        config: engine.config().clone(),
        latencies: Vec::new(),
    };
    let mut skip = consumed;
    let mut closed_this_run = 0u64;
    let mut since_checkpoint = 0u64;
    for (source, arrival) in Replay::new(&lanes) {
        // A resumed run skips what the checkpointed one fed: the first
        // `consumed` flows, and the heartbeats among them (replaying
        // one would be a no-op anyway).
        if skip > 0 {
            skip -= u64::from(matches!(arrival, Arrival::Flow(_)));
            continue;
        }
        let events = match arrival {
            Arrival::Flow(flow) => {
                consumed += 1;
                engine.push(source, flow)
            }
            Arrival::Heartbeat(ms) => engine.heartbeat(source, ms),
        };
        let closed = printer.print(events)?;
        closed_this_run += closed;
        since_checkpoint += closed;
        let Some(d) = durability.as_ref().filter(|_| closed > 0) else {
            continue;
        };
        if d.stop_after.is_some_and(|n| closed_this_run >= n) {
            printer.print(take_checkpoint(&mut engine, consumed, d)?)?;
            note(format_args!(
                "stopped after {closed_this_run} interval(s); checkpoint at {}",
                d.checkpoint_path().display()
            ));
            return Ok(());
        }
        if since_checkpoint >= d.every {
            since_checkpoint = 0;
            // Reconfig requests are consumed at interval boundaries and
            // land in the checkpoint that follows, so a resume replays
            // the stream under the reconfigured engine. The intervals
            // drained around the boundary ran under the old config.
            let drained = consume_reconfig_file(&d.dir, &mut engine, force_rare);
            closed_this_run += printer.print(drained)?;
            printer.config = engine.config().clone();
            closed_this_run += printer.print(take_checkpoint(&mut engine, consumed, d)?)?;
        }
    }
    let (tail, summary) = engine.finish();
    printer.print(tail)?;

    let p50 = latency_percentile(&mut printer.latencies, 50.0);
    let p95 = latency_percentile(&mut printer.latencies, 95.0);
    let latency = format!("per-interval latency: p50 = {p50} µs, p95 = {p95} µs; dropped flows:");
    let mut trailer = if let [one] = summary.sources.as_slice() {
        format!(
            "streamed {} flows into {} intervals: {} alarmed, {} extracted ({settings})\n\
             {latency} {} late, {} pre-origin\n",
            summary.total_flows,
            summary.intervals,
            summary.alarms,
            summary.extractions,
            one.late_flows,
            one.pre_origin_flows
        )
    } else {
        let mut text = format!(
            "fan-in: streamed {} flows from {} sources into {} merged intervals: \
             {} alarmed, {} extracted ({settings})\n",
            summary.total_flows,
            summary.sources.len(),
            summary.intervals,
            summary.alarms,
            summary.extractions
        );
        for (stats, path) in summary.sources.iter().zip(args.get_all("in")) {
            text += &format!(
                "source {} ({path}): {} flows, {} late, {} pre-origin, {} stale\n",
                stats.id, stats.flows, stats.late_flows, stats.pre_origin_flows, stats.stale_flows
            );
        }
        text + &format!("{latency} {} total\n", summary.dropped_flows)
    };
    if summary.reconfigs_applied + summary.reconfigs_rejected > 0 {
        trailer += &format!(
            "reconfigurations: {} applied, {} rejected\n",
            summary.reconfigs_applied, summary.reconfigs_rejected
        );
    }
    printer
        .out
        .write_all(trailer.as_bytes())
        .map_err(write_error)
}

/// Parse a comma-separated `feature=value` list into meta-data.
pub fn parse_metadata(spec: &str) -> Result<MetaData, String> {
    let mut md = MetaData::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let fv: FeatureValue = part.parse().map_err(|e| format!("{part:?}: {e}"))?;
        md.insert(fv.feature, fv.raw);
    }
    if md.is_empty() {
        return Err("meta-data is empty".into());
    }
    Ok(md)
}

/// `anomex analyze`.
pub fn analyze(args: &Args) -> Result<(), String> {
    analyze_to(args, &mut std::io::stdout().lock())
}

/// The `analyze` body, printing the item-sets (or the report) to `out`.
fn analyze_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let input = args.require("in")?;
    let metadata = parse_metadata(args.require("metadata")?)?;
    // Top-k mining has no rule layer: refuse the options it would drop.
    if args.flag("top") && parse_rules(args)?.is_some() {
        return Err("--top does not take rule options".into());
    }
    // The configuration — validation, error text and `--rare` guard
    // included — `extract` and `stream` run under, before touching the
    // trace.
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    let k = args.get_or("k", 10usize).map_err(|e| e.to_string())?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let flows = load_flows(input)?;

    if args.flag("top") {
        let cols = FlowColumns::from_flows(&flows);
        let indices = prefilter_indices_columns(&cols, &metadata, config.prefilter);
        let transactions = config.transactions.transactions_at_columns(&cols, &indices);
        let start = (indices.len() as u64 / 10).max(1);
        let top = mine_top_k(&transactions, config.miner, k, start);
        let mut text = format!(
            "top {} item-sets of {} suspicious flows (effective support {}, {} rounds):\n",
            top.itemsets.len(),
            indices.len(),
            top.effective_support,
            top.rounds
        );
        for (i, set) in top.itemsets.iter().enumerate() {
            text += &format!("{:>3}. {set}\n", i + 1);
        }
        return out.write_all(text.as_bytes()).map_err(write_error);
    }

    let engine = Engine::new(config, threads).map_err(String::from)?;
    let extraction = engine.extract(&flows, &metadata);
    writeln!(out, "{}", render_report(&extraction)).map_err(write_error)
}

/// `anomex table2`.
pub fn table2(args: &Args) -> Result<(), String> {
    table2_to(args, &mut std::io::stdout().lock())
}

/// The `table2` body, printing the report to `out`.
fn table2_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let unit_flows =
        paper_counts::FLOODING + paper_counts::WEB + paper_counts::BACKSCATTER + paper_counts::SMTP;
    let w = table2_workload(2009, parse_scale(args, 1.0, unit_flows)?);
    let mut metadata = MetaData::new();
    for port in [u64::from(w.flood_port), 80, 9022, 25] {
        metadata.insert(anomex_netflow::FlowFeature::DstPort, port);
    }
    // Apriori on purpose: Table II narrates its level audit trail.
    let config = ExtractionConfig {
        min_support: w.min_support,
        miner: MinerKind::Apriori,
        ..ExtractionConfig::default()
    };
    let extraction = Engine::sequential(config)
        .map_err(String::from)?
        .extract(&w.flows, &metadata);
    writeln!(out, "{}", render_report_with_levels(&extraction)).map_err(write_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::FlowFeature;

    /// Parse a whitespace-separated command line.
    fn argv(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(ToString::to_string)).unwrap()
    }

    /// What a subcommand body prints for a command line.
    fn run(body: impl Fn(&Args, &mut Vec<u8>) -> Result<(), String>, line: &str) -> String {
        let mut out = Vec::new();
        body(&argv(line), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// A fresh scratch directory for one test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write one NetFlow v5 trace file per source into `dir` from its
    /// per-interval flows; returns one `--in FILE` per source.
    fn write_traces(
        dir: &Path,
        sources: usize,
        intervals: u64,
        flows: impl Fn(usize, u64) -> Vec<FlowRecord>,
    ) -> Vec<String> {
        (0..sources)
            .map(|s| {
                let mut exporter = V5Exporter::new();
                let mut bytes = Vec::new();
                for i in 0..intervals {
                    for dgram in exporter.export(&flows(s, i)) {
                        bytes.extend_from_slice(&dgram);
                    }
                }
                let path = dir.join(format!("link{s}.nfv5"));
                std::fs::write(&path, &bytes).unwrap();
                format!("--in {}", path.display())
            })
            .collect()
    }

    /// The per-interval output without each run's own trailer lines —
    /// the filter `scripts/e2e_*.sh` apply.
    fn reports(text: &str) -> String {
        let trailer = [
            "fan-in:",
            "source src",
            "per-interval",
            "streamed ",
            "processed ",
        ];
        text.lines()
            .filter(|l| !trailer.iter().any(|t| l.starts_with(t)))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    /// The trailer line starting with `prefix`.
    fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in {text}"))
    }

    #[test]
    fn metadata_parsing_accepts_mixed_features() {
        let md = parse_metadata("dstPort=7000, srcIP=10.0.0.1 ,#packets=12").unwrap();
        assert_eq!(md.len(), 3);
        assert!(md.values_for(FlowFeature::DstPort).unwrap().contains(&7000));
        assert!(md.values_for(FlowFeature::Packets).unwrap().contains(&12));
    }

    #[test]
    fn metadata_parsing_rejects_garbage() {
        assert!(parse_metadata("dstPort=").is_err());
        assert!(parse_metadata("").is_err());
        assert!(parse_metadata("nope=1").is_err());
        assert!(
            parse_metadata("dstPort=99999").is_err(),
            "no port is that wide"
        );
    }

    #[test]
    fn miner_parsing() {
        assert_eq!(
            parse_miner(&argv("x --miner eclat")).unwrap(),
            MinerKind::Eclat
        );
        assert_eq!(
            parse_miner(&argv("x --miner apriori")).unwrap(),
            MinerKind::Apriori
        );
        assert_eq!(parse_miner(&argv("x")).unwrap(), MinerKind::FpGrowth);
        assert!(parse_miner(&argv("x --miner zzz")).is_err());
    }

    /// One default, read everywhere: the library enum, the configuration
    /// and the CLI all mine with FP-growth unless told otherwise — so no
    /// default path records Apriori's level audit.
    #[test]
    fn default_miner_is_fpgrowth_everywhere() {
        assert_eq!(MinerKind::default(), MinerKind::FpGrowth);
        assert_eq!(ExtractionConfig::default().miner, MinerKind::FpGrowth);
        let no_flag = argv("x");
        assert_eq!(parse_miner(&no_flag).unwrap(), MinerKind::FpGrowth);
        assert_eq!(parse_config(&no_flag).unwrap().miner, MinerKind::FpGrowth);

        let w = table2_workload(2009, 0.01);
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, u64::from(w.flood_port));
        let extract = |miner| {
            let config = ExtractionConfig {
                min_support: w.min_support,
                miner,
                ..ExtractionConfig::default()
            };
            Engine::sequential(config).unwrap().extract(&w.flows, &md)
        };
        let ex = extract(MinerKind::default());
        assert!(!ex.itemsets.is_empty(), "the flood is extracted");
        assert!(
            ex.levels.is_empty(),
            "default path ran Apriori: {:?}",
            ex.levels
        );
        let apriori = extract(MinerKind::Apriori);
        assert!(
            !apriori.levels.is_empty(),
            "Apriori still records its rounds"
        );
        assert_eq!(render_report(&apriori), render_report(&ex));
    }

    #[test]
    fn threads_parsing() {
        let parse = |line: &str| parse_threads(&argv(line));
        assert_eq!(parse("x --threads 4").unwrap().get(), 4);
        assert_eq!(parse("x").unwrap().get(), 1, "sequential by default");
        assert!(parse("x --threads 0").unwrap().get() >= 1, "0 means auto");
        assert!(parse("x --threads no").is_err());
        let max = MAX_SHARDS.get();
        assert_eq!(parse(&format!("x --threads {max}")).unwrap(), MAX_SHARDS);
        let err = parse(&format!("x --threads {}", max + 1)).unwrap_err();
        assert!(err.contains("--threads") && err.contains("1024"), "{err}");
    }

    #[test]
    fn rule_options_parse_and_imply_the_layer() {
        let parse = |line: &str| parse_rules(&argv(line));
        assert_eq!(parse("x").unwrap(), None, "off by default");
        assert_eq!(parse("x --rules").unwrap(), Some(RuleConfig::default()));
        let rc = parse("x --min-confidence 0.9 --rare").unwrap();
        let rc = rc.expect("options imply --rules");
        assert_eq!(rc.min_confidence, 0.9);
        assert!(rc.rare);
        assert!(
            parse("x --rules --min-lift zzz").is_err(),
            "bad value reported"
        );
    }

    #[test]
    fn rare_below_the_guard_needs_force_rare() {
        let parse = |line: &str| parse_config(&argv(line));
        let err = parse("x --rare --support 50").unwrap_err();
        assert!(
            err.contains("--force-rare"),
            "error names the escape hatch: {err}"
        );
        assert!(err.contains("128"), "error names the floor: {err}");
        parse("x --rare --support 50 --force-rare").expect("--force-rare overrides the guard");
        parse("x --rare --support 128").expect("at the guard threshold no override is needed");
        parse("x --rules --support 50").expect("non-rare rules are unaffected by the guard");
    }

    #[test]
    fn oversized_interval_is_an_error_not_a_wrapped_grid() {
        let parse = |minutes: u64| parse_config(&argv(&format!("x --interval-min {minutes}")));
        // 307445734561825861 × 60 000 wraps u64 to a small, wrong grid.
        let err = parse(307_445_734_561_825_861).unwrap_err();
        assert!(err.contains("--interval-min"), "{err}");
        let err = parse(u64::MAX).unwrap_err();
        assert!(err.contains("too large"), "{err}");
        let max = u64::MAX / MINUTE_MS;
        assert_eq!(parse(max).unwrap().interval_ms, max * MINUTE_MS);
    }

    #[test]
    fn reconfig_file_parsing() {
        let req = parse_reconfig(
            "# boundary reconfig\nmin-support = 400\nalpha=4.5\nshards = 2\nrules = on\n",
        )
        .unwrap();
        assert_eq!(req.min_support, Some(400));
        assert_eq!(req.alpha, Some(4.5));
        assert_eq!(req.shards.map(NonZeroUsize::get), Some(2));
        assert_eq!(req.rules, Some(Some(RuleConfig::default())));
        let req = parse_reconfig("rules=off").unwrap();
        assert_eq!(req.rules, Some(None));
        assert!(parse_reconfig("").unwrap().is_empty());
        assert!(parse_reconfig("min-support").is_err(), "no value");
        assert!(parse_reconfig("min-support=lots").is_err());
        assert!(parse_reconfig("shards=0").is_err());
        assert!(parse_reconfig("rules=maybe").is_err());
        assert!(parse_reconfig("frobnicate=1").is_err());
    }

    #[test]
    fn durability_options_require_the_dir() {
        let parse = |line: &str| parse_durability(&argv(line));
        assert_eq!(parse("stream").unwrap().map(|_| ()), None);
        assert!(parse("stream --resume").is_err());
        assert!(parse("stream --checkpoint-every 5").is_err());
        assert!(parse("stream --stop-after 3").is_err());
        let dir = std::env::temp_dir().join("anomex-cli-durability-test");
        let with_dir = format!("stream --checkpoint-dir {}", dir.display());
        let d = parse(&format!("{with_dir} --checkpoint-every 5"))
            .unwrap()
            .unwrap();
        assert_eq!(d.every, 5);
        assert!(!d.resume);
        assert_eq!(d.stop_after, None);
        assert_eq!(d.checkpoint_path(), dir.join("stream.ckpt"));
        assert!(
            parse(&format!("{with_dir} --checkpoint-every 0")).is_err(),
            "zero interval cadence is rejected"
        );
        let err = parse(&format!("{with_dir} --stop-after 0")).err().unwrap();
        assert!(err.contains("--stop-after"), "{err}");
        let d = parse(&format!("{with_dir} --stop-after 1"))
            .unwrap()
            .unwrap();
        assert_eq!(d.stop_after, Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checkpoint file round-trips through the CLI framing (consumed
    /// flow count + engine payload) and the restored engine continues
    /// the stream; a truncated file or a different source count fails
    /// with a diagnostic, not a panic.
    #[test]
    fn checkpoint_file_round_trips_and_rejects_corruption() {
        use anomex_netflow::Protocol;
        let dir = scratch_dir("anomex-cli-checkpoint-test");
        let d = Durability {
            dir: dir.clone(),
            every: 1,
            resume: false,
            stop_after: None,
        };
        let path = d.checkpoint_path();

        let config = ExtractionConfig {
            interval_ms: 1_000,
            min_support: 10,
            ..ExtractionConfig::default()
        };
        let one = [SourceSpec::new(0u32, 0)];
        let mut engine =
            MultiSourceExtractor::try_new(config, NonZeroUsize::MIN, &one, None).unwrap();
        let flow = |ms| {
            FlowRecord::new(
                ms,
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                Protocol::Udp,
            )
        };
        let _ = engine.push(SourceId(0), flow(100));
        let _ = engine.push(SourceId(0), flow(1_200));
        let _ = take_checkpoint(&mut engine, 2, &d).unwrap();

        let (mut resumed, consumed) = restore_from_checkpoint(&path, None, 1, false).unwrap();
        assert_eq!(consumed, 2);
        let _ = resumed.push(SourceId(0), flow(2_500));
        let (_, summary) = resumed.finish();
        assert_eq!(summary.total_flows, 3, "resumed run continues the count");

        let err = restore_from_checkpoint(&path, None, 2, false).unwrap_err();
        assert!(err.contains("1 source(s) but 2 --in"), "{err}");

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = restore_from_checkpoint(&path, None, 1, false).unwrap_err();
        assert!(
            err.contains("cannot resume"),
            "diagnostic names the file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mode_flags() {
        let config = parse_config(&argv("x --prefixes --intersection")).unwrap();
        assert_eq!(config.prefilter, PrefilterMode::Intersection);
        assert_eq!(config.transactions, TransactionMode::WithPrefixes);
    }

    /// The one `stream` body replaying one trace file must print exactly
    /// the reports the one `extract` body prints over the same file.
    #[test]
    fn stream_replay_matches_batch_extract() {
        let dir = scratch_dir("anomex-cli-replay-test");
        let scenario = Scenario::small(23);
        let ins = write_traces(&dir, 1, 23, |_, i| scenario.generate(i).flows).join(" ");
        // Rules on: the rendered reports then carry the ranked-rule
        // section, so this also pins rule determinism batch vs stream.
        let opts = format!("{ins} --interval-min 1 --training 10 --support 800 --rules");
        let batch = run(extract_to, &format!("extract {opts}"));
        let streamed = run(stream_to, &format!("stream {opts} --threads 2"));
        assert!(batch.contains("Anomaly extraction report"), "it alarms");
        assert_eq!(reports(&streamed), reports(&batch), "replay diverged");
        assert!(line(&batch, "processed ").starts_with("processed 23 intervals, "));
        assert!(line(&streamed, "streamed ").contains(" into 23 intervals: "));
        assert!(line(&streamed, "per-interval latency:")
            .ends_with("dropped flows: 0 late, 0 pre-origin"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The multi-source streaming fan-in must reproduce exactly the
    /// batch multi-input extraction over the same trace files — the
    /// in-process twin of CI's `e2e-stream` job, through real NetFlow v5
    /// files with skewed per-source clocks.
    #[test]
    fn stream_fan_in_matches_multi_input_extract() {
        let dir = scratch_dir("anomex-cli-multisource-test");
        let scenario = MultiSourceScenario::uniform(13, 2);
        let intervals = scenario.interval_count().min(22);
        let ins = write_traces(&dir, 2, intervals, |s, i| scenario.generate(s, i).flows);
        // Rules on: the reports then include both the ranked-rule
        // section and the per-source rule merge section, so the fan-in
        // equality below covers the whole rule layer.
        let opts = format!(
            "{} --interval-min 1 --training 10 --support 800 --rules",
            ins.join(" ")
        );
        let batch = run(extract_to, &format!("extract {opts}"));
        let streamed = run(stream_to, &format!("stream {opts} --threads 2"));
        assert!(
            batch.contains("Per-source rule merge — 2 source(s)"),
            "multi-source reports carry the merge section"
        );
        assert_eq!(reports(&streamed), reports(&batch), "fan-in diverged");
        // The skewed link spills past its inferred (floored) origin into
        // one extra trailing window, so the merged grid may exceed the
        // generator's interval count by one — and both grids agree.
        let processed = line(&batch, "processed ");
        let total: u64 = processed.split(' ').nth(1).unwrap().parse().unwrap();
        assert!(total >= intervals, "{total} < {intervals}");
        assert!(line(&streamed, "fan-in:").contains(&format!(" into {total} merged intervals")));
        assert!(line(&streamed, "per-interval").ends_with("dropped flows: 0 total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two exporters, killed after 12 intervals with `--stop-after` and
    /// resumed with `--resume`: the two halves print exactly what one
    /// uninterrupted fan-in prints, per-source rule merge included, and
    /// the resumed trailer counts the whole stream.
    #[test]
    fn two_source_kill_and_resume_matches_an_uninterrupted_run() {
        let dir = scratch_dir("anomex-cli-fanin-resume-test");
        let scenario = MultiSourceScenario::uniform(11, 2);
        let ins = write_traces(&dir, 2, 25, |s, i| scenario.generate(s, i).flows).join(" ");
        let opts = "--interval-min 1 --training 10 --support 800 --rules --threads 2";
        let opts = format!("stream {ins} {opts}");
        let durable = format!("{opts} --checkpoint-dir {}", dir.display());
        let full = run(stream_to, &opts);
        let part1 = run(stream_to, &format!("{durable} --stop-after 12"));
        let part2 = run(stream_to, &format!("{durable} --resume"));
        assert!(
            reports(&part2).contains("Per-source rule merge — 2 source(s)"),
            "the resumed half extracts the flood"
        );
        assert_eq!(reports(&format!("{part1}{part2}")), reports(&full));
        assert!(
            !part1.contains("fan-in:"),
            "a stopped run prints no trailer"
        );
        for prefix in ["fan-in:", "source src0 ", "source src1 "] {
            assert_eq!(line(&part2, prefix), line(&full, prefix));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint file in the parent's layout — header version 1, the
    /// single-source engine's payload (`IntervalAssembler` snapshot,
    /// flow count, five stream counters, `Engine::snapshot`) inside the
    /// CLI framing — resumes on the one stream body with reports
    /// identical to an uninterrupted run.
    #[test]
    fn version_one_checkpoint_file_resumes_identically() {
        use anomex_netflow::snapshot::{fnv1a64, CHECKPOINT_MAGIC};
        use anomex_netflow::IntervalAssembler;
        let dir = scratch_dir("anomex-cli-v1-resume-test");
        let scenario = Scenario::small(11);
        let ins = write_traces(&dir, 1, 25, |_, i| scenario.generate(i).flows).join(" ");
        let opts = format!("stream {ins} --interval-min 1 --training 10 --support 800");
        let full = run(stream_to, &opts);

        // The single-source engine, stopped after the push that closed
        // its 12th interval (what `--stop-after 12` did).
        let config = parse_config(&argv(&opts)).unwrap();
        let lane = load_lanes(&argv(&opts), config.interval_ms)
            .unwrap()
            .remove(0);
        let mut assembler = IntervalAssembler::new(lane.origin, config.interval_ms);
        let mut engine = Engine::sequential(config).unwrap();
        let mut counters = [0u64; 5];
        let mut part1 = String::new();
        let mut consumed = 0u64;
        for flow in &lane.flows {
            consumed += 1;
            for closed in assembler.push(*flow) {
                let outcome = engine.process(&closed.flows);
                counters[0] += 1;
                counters[1] += u64::from(outcome.observation.alarm);
                counters[2] += u64::from(outcome.extraction.is_some());
                if let Some(extraction) = outcome.extraction {
                    part1 += &format!("{}\n", render_report(&extraction));
                }
            }
            if counters[0] >= 12 {
                break;
            }
        }
        let mut w = SnapshotWriter::new();
        assembler.encode_snapshot(&mut w);
        for value in [consumed].into_iter().chain(counters) {
            w.u64(value);
        }
        w.bytes(&engine.snapshot());
        let mut framing = SnapshotWriter::new();
        framing.u64(consumed);
        framing.bytes(&w.into_bytes());
        let payload = framing.into_bytes();
        let mut file = CHECKPOINT_MAGIC.to_vec();
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        file.extend_from_slice(&payload);
        std::fs::write(dir.join("stream.ckpt"), file).unwrap();

        let part2 = run(
            stream_to,
            &format!("{opts} --checkpoint-dir {} --resume", dir.display()),
        );
        assert!(
            reports(&part2).contains("Anomaly extraction report"),
            "the resumed half extracts the flood"
        );
        assert_eq!(reports(&format!("{part1}{part2}")), reports(&full));
        assert_eq!(line(&part2, "streamed "), line(&full, "streamed "));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resuming a two-source checkpoint with one `--in` is an error, not
    /// a grid whose second watermark never moves.
    #[test]
    fn resume_with_a_different_source_count_is_an_error() {
        let dir = scratch_dir("anomex-cli-resume-count-test");
        let scenario = MultiSourceScenario::uniform(5, 2);
        let ins = write_traces(&dir, 2, 4, |s, i| scenario.generate(s, i).flows);
        let durable = format!("--interval-min 1 --checkpoint-dir {}", dir.display());
        run(
            stream_to,
            &format!("stream {} {durable} --stop-after 1", ins.join(" ")),
        );
        let one = argv(&format!("stream {} {durable} --resume", ins[0]));
        let err = stream_to(&one, &mut Vec::new()).unwrap_err();
        assert!(err.contains("2 source(s) but 1 --in"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The replay feeds source `i` from the `i`-th `--in`, so a
    /// checkpoint whose lanes are not exactly sources `0..k` — ids the
    /// replay never feeds, or two lanes sharing an id — is an error, not
    /// a panic on the first flow for the missing source.
    #[test]
    fn resume_rejects_checkpoints_whose_ids_are_not_the_inputs() {
        let dir = scratch_dir("anomex-cli-resume-ids-test");
        let scenario = MultiSourceScenario::uniform(5, 2);
        let ins = write_traces(&dir, 2, 4, |s, i| scenario.generate(s, i).flows).join(" ");
        let args = argv(&format!(
            "stream {ins} --interval-min 1 --checkpoint-dir {} --resume",
            dir.display()
        ));
        let config = parse_config(&args).unwrap();
        let lanes = load_lanes(&args, config.interval_ms).unwrap();
        // A distinctive id, so the test can find it in the payload and
        // rewrite it to 0 — a duplicate `try_new` would have refused.
        const MARK: u32 = 0x5EC0_1D1D;
        for (ids, duplicate) in [([0, 5], false), ([0, MARK], true)] {
            let specs: Vec<_> = (ids.iter().zip(&lanes))
                .map(|(&id, lane)| SourceSpec::new(id, lane.origin))
                .collect();
            let mut engine =
                MultiSourceExtractor::try_new(config.clone(), NonZeroUsize::MIN, &specs, None)
                    .unwrap();
            let (_, mut payload) = engine.checkpoint();
            if duplicate {
                let at = (payload.windows(4))
                    .position(|w| w == MARK.to_le_bytes())
                    .unwrap();
                payload[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            }
            let mut w = SnapshotWriter::new();
            w.u64(0);
            w.bytes(&payload);
            write_checkpoint(&dir.join("stream.ckpt"), &w.into_bytes()).unwrap();
            let err = stream_to(&args, &mut Vec::new()).unwrap_err();
            assert!(err.starts_with("cannot resume from"), "{ids:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A heartbeat dated after the last flow opens no windows:
    /// `stream` closes exactly the intervals `extract` processes, and a
    /// far-future one (`u32::MAX` seconds) finishes at once instead of
    /// opening a window for every interval up to it.
    #[test]
    fn trailing_heartbeats_open_no_windows() {
        use anomex_netflow::v9::encode_v9_options_template;
        use anomex_netflow::Protocol;
        let dir = scratch_dir("anomex-cli-trailing-heartbeat-test");
        let path = dir.join("link.nf");
        let flow = |ms| {
            FlowRecord::new(
                ms,
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                Protocol::Udp,
            )
        };
        for secs in [600, u32::MAX] {
            let mut bytes = V5Exporter::new()
                .export(&[flow(1_000), flow(2_000)])
                .concat();
            bytes.extend_from_slice(&encode_v9_options_template(secs, 0, 0));
            std::fs::write(&path, &bytes).unwrap();
            let opts = format!("--in {} --interval-min 1", path.display());
            let batch = run(extract_to, &format!("extract {opts}"));
            let streamed = run(stream_to, &format!("stream {opts}"));
            assert!(line(&batch, "processed ").starts_with("processed 1 intervals, "));
            assert!(
                line(&streamed, "streamed ").starts_with("streamed 2 flows into 1 intervals: "),
                "heartbeat at {secs} s: {streamed}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// In a fan-in, an exporter whose flows stop early keeps sending
    /// keepalives, and those still close its windows while the other
    /// link runs on: the merged grid drops nothing and matches `extract`
    /// with or without `--max-lag`. Only the one dated past every lane's
    /// last flow (`u32::MAX` seconds) is ignored.
    #[test]
    fn idle_lane_keepalives_release_its_windows_in_a_fan_in() {
        use anomex_netflow::v9::encode_v9_options_template;
        let dir = scratch_dir("anomex-cli-idle-lane-test");
        let scenario = MultiSourceScenario::uniform(19, 2);
        let intervals = scenario.interval_count().min(22);
        // Link 1 exports flows for its first six intervals, then one
        // mid-interval keepalive per interval, then a far-future one.
        let mut exporter = V5Exporter::new();
        let mut bytes = Vec::new();
        for i in 0..intervals {
            let iv = scenario.generate(1, i);
            if i < 6 {
                bytes.extend(exporter.export(&iv.flows).concat());
            } else {
                let secs = ((iv.begin_ms + iv.end_ms) / 2000) as u32;
                bytes.extend(encode_v9_options_template(secs, i as u32, 1));
            }
        }
        bytes.extend(encode_v9_options_template(u32::MAX, intervals as u32, 1));
        let idle = dir.join("idle.nf");
        std::fs::write(&idle, &bytes).unwrap();
        let busy = write_traces(&dir, 1, intervals, |_, i| scenario.generate(0, i).flows);
        let ins = format!("{} --in {}", busy[0], idle.display());
        let opts = format!("{ins} --interval-min 1 --training 10 --support 800");
        let batch = run(extract_to, &format!("extract {opts}"));
        // "processed N merged intervals from 2 sources, A alarmed (…)"
        let words: Vec<&str> = line(&batch, "processed ").split(' ').collect();
        let expected = format!(" into {} merged intervals: {} alarmed", words[1], words[7]);
        for lag in ["", "--max-lag 3"] {
            let streamed = run(stream_to, &format!("stream {opts} {lag}"));
            assert_eq!(reports(&streamed), reports(&batch), "{lag}");
            assert!(line(&streamed, "fan-in:").contains(&expected), "{lag}");
            let drops = line(&streamed, "per-interval");
            assert!(drops.ends_with("dropped flows: 0 total"), "{lag}: {drops}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trace file interleaving v5 datagrams with v9/IPFIX
    /// options-template punctuation loads into flows plus heartbeat
    /// clocks, and replaying the heartbeats through the fan-in leaves
    /// the outcome stream bit-identical (heartbeats advance watermarks;
    /// they never carry flows).
    #[test]
    fn punctuated_trace_heartbeats_flow_into_the_grid() {
        use anomex_netflow::v9::{encode_ipfix_options_template, encode_v9_options_template};
        let dir = scratch_dir("anomex-cli-punctuation-test");

        let scenario = MultiSourceScenario::uniform(17, 2);
        let intervals = scenario.interval_count().min(16);
        let mut paths = Vec::new();
        for s in 0..2 {
            let mut exporter = V5Exporter::new();
            let mut bytes = Vec::new();
            for i in 0..intervals {
                let flows = scenario.generate(s, i).flows;
                let end_secs = flows.last().map_or(0, |f| (f.start_ms / 1000) as u32);
                for dgram in exporter.export(&flows) {
                    bytes.extend_from_slice(&dgram);
                }
                // An options-template keepalive after each interval's
                // flows, v9 on source 0 and IPFIX on source 1.
                let punct = if s == 0 {
                    encode_v9_options_template(end_secs, i as u32, s as u32)
                } else {
                    encode_ipfix_options_template(end_secs, i as u32, s as u32)
                };
                bytes.extend_from_slice(&punct);
            }
            let path = dir.join(format!("link{s}.nf"));
            std::fs::write(&path, &bytes).unwrap();
            paths.push(path.to_str().unwrap().to_string());
        }

        let config = ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 8,
                ..DetectorConfig::default()
            },
            min_support: 800,
            ..ExtractionConfig::default()
        };
        let args = argv(&format!("stream --in {} --in {}", paths[0], paths[1]));
        let lanes = load_lanes(&args, config.interval_ms).unwrap();
        for lane in &lanes {
            assert_eq!(
                lane.heartbeats.len() as u64,
                intervals,
                "one keepalive per interval"
            );
        }
        let silent: Vec<Lane> = lanes
            .iter()
            .map(|lane| Lane {
                flows: lane.flows.clone(),
                heartbeats: Vec::new(),
                origin: lane.origin,
            })
            .collect();
        let replay = |lanes: &[Lane]| {
            let specs: Vec<SourceSpec> = lanes
                .iter()
                .enumerate()
                .map(|(i, lane)| SourceSpec::new(i as u32, lane.origin))
                .collect();
            let mut engine =
                MultiSourceExtractor::try_new(config.clone(), NonZeroUsize::MIN, &specs, None)
                    .unwrap();
            let mut events = Vec::new();
            for (source, arrival) in Replay::new(lanes) {
                events.extend(match arrival {
                    Arrival::Flow(flow) => engine.push(source, flow),
                    Arrival::Heartbeat(ms) => engine.heartbeat(source, ms),
                });
            }
            let (tail, summary) = engine.finish();
            events.extend(tail);
            let outcomes: Vec<String> = events
                .iter()
                .map(|e| format!("{:?}", e.event.outcome))
                .collect();
            (outcomes, summary)
        };
        let (plain_outcomes, plain_summary) = replay(&silent);
        let (outcomes, summary) = replay(&lanes);
        assert_eq!(summary.total_flows, plain_summary.total_flows);
        assert_eq!(summary.intervals, plain_summary.intervals);
        assert_eq!(summary.dropped_flows, 0, "heartbeats drop nothing");
        assert_eq!(outcomes, plain_outcomes, "punctuation changed the output");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end through temp files: generate a small trace, reload it,
    /// analyze with explicit meta-data.
    #[test]
    fn generate_then_analyze_round_trip() {
        let dir = scratch_dir("anomex-cli-test");
        let path = dir.join("trace.nfv5").display().to_string();
        run(
            generate_to,
            &format!("generate --out {path} --seed 7 --intervals 25"),
        );

        let flows = load_flows(&path).unwrap();
        assert!(flows.len() > 50_000, "25 intervals of the small scenario");

        // The small scenario's flood at interval 20 is on port 7000.
        let report = run(
            analyze_to,
            &format!("analyze --in {path} --metadata dstPort=7000 --support 1000"),
        );
        assert!(
            report.contains("dstPort=7000,"),
            "flood recovered from the file:\n{report}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `analyze` runs under the configuration `extract` parses: the rule
    /// options add the ranked association rules to its report without
    /// changing its item-sets, and `--rare` meets the same guard.
    #[test]
    fn analyze_takes_the_rule_options() {
        let dir = scratch_dir("anomex-cli-analyze-rules-test");
        let path = dir.join("trace.nfv5").display().to_string();
        run(generate_to, &format!("generate --out {path} --seed 7"));
        let analyze =
            format!("analyze --in {path} --metadata dstPort=7000,#packets=12 --support 400");
        let plain = run(analyze_to, &analyze);
        assert!(!plain.contains("association rules"), "{plain}");
        let ruled = run(analyze_to, &format!("{analyze} --rules"));
        assert!(
            ruled.contains("association rules ("),
            "the rule section is printed:\n{ruled}"
        );
        for line in plain.lines() {
            assert!(ruled.contains(line), "rules changed {line:?}");
        }
        let err = analyze_to(
            &argv(&format!("{analyze} --rare --support 2")),
            &mut Vec::new(),
        );
        assert!(err.unwrap_err().contains("--force-rare"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reconfig file cannot lower the support of a `--rare` stream
    /// below the guard without `--force-rare`: the request is rejected
    /// and the checkpoint keeps the old support; with `--force-rare` it
    /// lands.
    #[test]
    fn reconfig_meets_the_rare_guard() {
        let dir = scratch_dir("anomex-cli-reconfig-rare-test");
        let scenario = Scenario::small(7);
        let ins = write_traces(&dir, 1, 6, |_, i| scenario.generate(i).flows).join(" ");
        let stream = format!(
            "stream {ins} --interval-min 1 --training 10 --rules --rare --support 200 \
             --checkpoint-dir {} --stop-after 3",
            dir.display()
        );
        for (force, support) in [("", 200), (" --force-rare", 2)] {
            std::fs::write(dir.join("reconfig"), "min-support=2\n").unwrap();
            run(stream_to, &format!("{stream}{force}"));
            assert!(!dir.join("reconfig").exists(), "the request was consumed");
            let path = dir.join("stream.ckpt");
            let (engine, _) = restore_from_checkpoint(&path, None, 1, true).unwrap();
            assert_eq!(engine.config().min_support, support, "{force:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint whose configuration mines `--rare` below the guard
    /// resumes only with `--force-rare`, whatever the resuming command
    /// line says about the support.
    #[test]
    fn resume_meets_the_rare_guard() {
        let dir = scratch_dir("anomex-cli-resume-rare-test");
        let scenario = Scenario::small(7);
        // Fewer intervals than the training window: nothing is ever mined.
        let ins = write_traces(&dir, 1, 4, |_, i| scenario.generate(i).flows).join(" ");
        let opts = format!(
            "stream {ins} --interval-min 1 --training 10 --rules --rare --checkpoint-dir {}",
            dir.display()
        );
        run(
            stream_to,
            &format!("{opts} --support 2 --force-rare --stop-after 1"),
        );
        let resume = format!("{opts} --support 200 --resume");
        let err = stream_to(&argv(&resume), &mut Vec::new()).unwrap_err();
        assert!(
            err.starts_with("cannot resume from") && err.contains("--force-rare"),
            "{err}"
        );
        let resumed = run(stream_to, &format!("{resume} --force-rare"));
        assert!(
            line(&resumed, "streamed ").contains(" into 4 intervals: "),
            "{resumed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `analyze` validates like `extract`/`stream`: a zero support is a
    /// CLI error with the `ConfigError` text, not a miner panic.
    #[test]
    fn analyze_rejects_zero_support_without_panicking() {
        let dir = scratch_dir("anomex-cli-test-support0");
        let path = dir.join("trace.nfv5").display().to_string();
        run(generate_to, &format!("generate --out {path} --intervals 1"));

        let analyze_with = |opts: &str| {
            let line = format!("analyze --in {path} --metadata dstPort=80 {opts}");
            analyze_to(&argv(&line), &mut Vec::new())
        };
        let err = analyze_with("--support 0").unwrap_err();
        assert_eq!(err, "minimum support must be at least 1");
        analyze_with("--support 1000000").expect("a valid support still analyzes");

        // `--k 0` used to die in the top-k miner ("k must be at least 1").
        let err = analyze_with("--top --k 0").unwrap_err();
        assert_eq!(err, "--k must be at least 1");
        analyze_with("--top --k 3").expect("a valid k mines");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Top-k mining has no rule layer, so `--top` refuses every rule
    /// option instead of printing the table without the rules asked for.
    #[test]
    fn analyze_top_refuses_the_rule_options() {
        let dir = scratch_dir("anomex-cli-test-top-rules");
        let path = dir.join("trace.nfv5").display().to_string();
        run(generate_to, &format!("generate --out {path} --intervals 1"));
        let top = format!("analyze --in {path} --metadata dstPort=80 --top --k 3");
        for rule_option in [
            "--rules",
            "--min-confidence 0.9",
            "--min-lift 1.5",
            "--rare",
        ] {
            let err = analyze_to(&argv(&format!("{top} {rule_option}")), &mut Vec::new());
            assert_eq!(
                err.unwrap_err(),
                "--top does not take rule options",
                "{rule_option}"
            );
        }
        run(analyze_to, &top);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `generate` writes exactly one trace per source: `--sources` is at
    /// least 1 and the `--out` count must equal it, for one source too.
    #[test]
    fn generate_needs_one_out_file_per_source() {
        let dir = scratch_dir("anomex-cli-test-generate-outs");
        let [a, b] = ["a.nfv5", "b.nfv5"].map(|f| dir.join(f).display().to_string());
        let generate = |line: &str| generate_to(&argv(line), &mut Vec::new());
        let err = generate(&format!("generate --sources 1 --out {a} --out {b}")).unwrap_err();
        assert_eq!(err, "--sources 1 needs exactly 1 --out files (got 2)");
        let err = generate(&format!("generate --out {a} --out {b} --intervals 1")).unwrap_err();
        assert_eq!(err, "--sources 1 needs exactly 1 --out files (got 2)");
        let err = generate(&format!("generate --sources 0 --out {a}")).unwrap_err();
        assert_eq!(err, "--sources must be at least 1");
        let err = generate(&format!("generate --sources 2 --out {a}")).unwrap_err();
        assert_eq!(err, "--sources 2 needs exactly 2 --out files (got 1)");
        assert!(!Path::new(&a).exists() && !Path::new(&b).exists());
        generate(&format!("generate --sources 1 --out {a} --intervals 1")).unwrap();
        assert!(Path::new(&a).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A thread count the OS cannot serve used to abort the process
    /// inside thread spawning (SIGABRT at `--threads 16384`); it is a CLI
    /// error on every command that takes the flag, and a reconfig file
    /// asking for it is rejected with the engine unchanged.
    #[test]
    fn oversized_thread_counts_are_errors_not_aborts() {
        let dir = scratch_dir("anomex-cli-test-threads");
        let path = dir.join("trace.nfv5").display().to_string();
        run(generate_to, &format!("generate --out {path} --intervals 1"));

        let many = format!("--in {path} --threads 100000");
        let err = extract(&argv(&format!("extract {many}"))).unwrap_err();
        assert!(err.contains("--threads"), "extract: {err}");
        let err = stream(&argv(&format!("stream {many}"))).unwrap_err();
        assert!(err.contains("--threads"), "stream: {err}");
        let err = analyze(&argv(&format!("analyze --metadata dstPort=80 {many}"))).unwrap_err();
        assert!(err.contains("--threads"), "analyze: {err}");
        std::fs::remove_dir_all(&dir).ok();

        let req = parse_reconfig("shards=100000").expect("syntactically fine");
        let mut engine = Engine::new(ExtractionConfig::default(), NonZeroUsize::MIN).unwrap();
        let err = engine.reconfigure(&req).unwrap_err();
        assert!(err.to_string().contains("shard count"), "{err}");
        assert_eq!(engine.shards().get(), 1, "rejected request changed nothing");
    }

    /// A scale the generators would assert on (or overflow a `Vec` with)
    /// is a CLI error, and `--scenario small` rejects the flag it ignores.
    #[test]
    fn bad_scales_are_errors_not_generator_panics() {
        let out = std::env::temp_dir().join("anomex-cli-test-scale.nfv5");
        let out_s = out.display();
        let two_weeks = format!("generate --out {out_s} --scenario two-weeks");
        for bad in ["0", "-1", "nan", "inf", "1e300"] {
            let err = generate(&argv(&format!("{two_weeks} --scale {bad}"))).unwrap_err();
            assert!(err.contains("--scale"), "generate --scale {bad}: {err}");
            let err = table2(&argv(&format!("table2 --scale {bad}"))).unwrap_err();
            assert!(err.contains("--scale"), "table2 --scale {bad}: {err}");
        }
        run(
            generate_to,
            &format!("{two_weeks} --scale 0.01 --intervals 1"),
        );
        let err = generate(&argv(&format!("generate --out {out_s} --scale 0.5"))).unwrap_err();
        assert!(err.contains("does not take --scale"), "{err}");
        std::fs::remove_file(&out).ok();
    }

    /// At `--scale 0.00001` the Table II components floor at one flow
    /// each; the workload used to wrap its web remainder to ~2⁶⁴ flows
    /// and abort on the allocation.
    #[test]
    fn table2_at_a_tiny_scale_runs() {
        let report = run(table2_to, "table2 --scale 0.00001");
        assert!(report.contains("apriori rounds:"), "{report}");
    }

    /// An output sink that refuses every write, like stdout piped into
    /// an exited `head`.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every command reports a closed output as an error (exit 1), never
    /// as the panic of a `println!`.
    #[test]
    fn closed_output_is_an_error_not_a_panic() {
        let dir = scratch_dir("anomex-cli-closed-pipe-test");
        let path = dir.join("trace.nfv5").display().to_string();
        let closed = |result: Result<(), String>| {
            let err = result.unwrap_err();
            assert!(err.starts_with("cannot write output: "), "{err}");
        };
        let generate = format!("generate --out {path} --intervals 1");
        closed(generate_to(&argv(&generate), &mut ClosedPipe));
        let two = dir.join("b.nfv5").display().to_string();
        let multi = format!("generate --sources 2 --out {path} --out {two} --intervals 1");
        closed(generate_to(&argv(&multi), &mut ClosedPipe));
        let analyze = format!("analyze --in {path} --metadata dstPort=80");
        closed(analyze_to(&argv(&analyze), &mut ClosedPipe));
        closed(analyze_to(
            &argv(&format!("{analyze} --top")),
            &mut ClosedPipe,
        ));
        closed(table2_to(&argv("table2 --scale 0.01"), &mut ClosedPipe));
        closed(extract_to(
            &argv(&format!("extract --in {path}")),
            &mut ClosedPipe,
        ));
        closed(stream_to(
            &argv(&format!("stream --in {path}")),
            &mut ClosedPipe,
        ));
        closed(help_to(&mut ClosedPipe));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `generate --intervals N` reports the ground truth of the N
    /// intervals it wrote, not of the whole scenario (events at 20/28/34).
    #[test]
    fn ground_truth_covers_only_written_intervals() {
        let small = Scenario::small(42);
        assert_eq!(written_ground_truth(&small, 0), (0, vec![]));
        assert_eq!(written_ground_truth(&small, 10), (0, vec![]));
        assert_eq!(written_ground_truth(&small, 21), (1, vec![20]));
        assert_eq!(
            written_ground_truth(&small, small.interval_count()),
            (3, vec![20, 28, 34])
        );
        let multi = MultiSourceScenario::uniform(42, 2);
        assert_eq!(written_ground_truth(multi.link_scenario(0), 20).0, 0);
    }
}
