//! The `anomex` subcommands.

use std::fs;
use std::io::Read as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use anomex_core::{
    latency_percentile, merge_source_rules, prefilter_indices, render_report,
    render_report_with_levels, render_rule_merge, Engine, ExtractRequest, Extraction,
    ExtractionConfig, MultiSourceExtractor, MultiStreamEvent, MultiStreamSummary, PrefilterMode,
    ReconfigRequest, StreamEvent, StreamingExtractor, TransactionMode,
};
use anomex_detector::{DetectorConfig, MetaData};
use anomex_mining::{mine_top_k, MinerKind, RuleConfig, RARE_SUPPORT_GUARD};
use anomex_netflow::snapshot::{read_checkpoint, write_checkpoint, SnapshotReader, SnapshotWriter};
use anomex_netflow::v5::V5Exporter;
use anomex_netflow::v9::{decode_mixed_stream, TraceItem};
use anomex_netflow::{
    default_shards, FeatureValue, FlowRecord, FlowTrace, SourceId, SourceSpec, MAX_SHARDS,
    MINUTE_MS,
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
      and write one trace file per link: pass --out once per source.

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
      percentiles and drop counters. Output is bit-identical to
      `anomex extract` over the same trace (rule options included).
      With several --in files, the traces are fanned in as one exporter
      each onto a shared interval grid (watermark merge; --max-lag N
      bounds how many intervals the fastest source may run ahead, 0 =
      unbounded) — bit-identical to `anomex extract` with the same
      --in list, per-source rule merge sections included.
      Durable operation (single --in): --checkpoint-dir DIR atomically
      snapshots the full online state (detector baselines, assembler
      watermarks, drop and audit counters) to DIR/stream.ckpt every N
      closed intervals (--checkpoint-every, default 1); --resume
      restores from it — configuration included — skips the already
      consumed flows, and continues the event stream bit-identically;
      --stop-after N exits cleanly after N intervals with a final
      checkpoint (the kill-and-resume e2e cut point). A `reconfig` file
      in DIR (`min-support=N`, `alpha=X`, `shards=N`, `rules=on|off`,
      one per line) is consumed at the next interval boundary and
      applied atomically without dropping flows; the verdict lands in
      the StreamSummary audit counters.

  anomex analyze --in FILE --metadata \"dstPort=7000,#packets=12\" [--support N]
                 [--miner apriori|fpgrowth|eclat] [--top] [--k N] [--threads N]
                 [--prefixes] [--intersection]
      Offline extraction with explicit meta-data (the §II-B workflow).
      With --top, mine the k most frequent item-sets instead of using a
      fixed support.

  anomex table2 [--scale X]
      Reproduce the paper's Table II example (mined with apriori, whose
      per-round audit trail the report includes).

  anomex help";

/// `anomex generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    let sources = args.get_or("sources", 1usize).map_err(|e| e.to_string())?;
    if sources > 1 {
        return generate_multi(args, sources);
    }
    let out = args.require("out")?;
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
    fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {} intervals, {} flows, {} bytes of NetFlow v5 to {}",
        intervals,
        flow_count,
        bytes.len(),
        out
    );
    let (events, anomalous) = written_ground_truth(&scenario, intervals);
    println!("ground truth: {events} events in intervals {anomalous:?}");
    Ok(())
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
/// workload and write one NetFlow v5 trace file per link.
fn generate_multi(args: &Args, sources: usize) -> Result<(), String> {
    let outs = args.get_all("out");
    if outs.len() != sources {
        return Err(format!(
            "--sources {sources} needs exactly {sources} --out files (got {})",
            outs.len()
        ));
    }
    if args.get("scenario").unwrap_or("small") != "small" {
        return Err("multi-source generation supports --scenario small only".into());
    }
    if args.get("scale").is_some() {
        return Err(
            "multi-source generation does not take --scale (links carry per-link rates)".into(),
        );
    }
    let seed = args.get_or("seed", 42u64).map_err(|e| e.to_string())?;
    let scenario = MultiSourceScenario::uniform(seed, sources);
    let intervals = args
        .get_or("intervals", scenario.interval_count())
        .map_err(|e| e.to_string())?
        .min(scenario.interval_count());

    for (s, out) in outs.iter().enumerate() {
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
        fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote source {s}: {} intervals, {} flows, {} bytes of NetFlow v5 to {} \
             (rate {:.2}, skew {} ms{})",
            intervals,
            flow_count,
            bytes.len(),
            out,
            link.rate,
            link.skew_ms,
            if link.carries_anomalies {
                ", carries anomalies"
            } else {
                ""
            }
        );
    }
    let (events, anomalous) = written_ground_truth(scenario.link_scenario(0), intervals);
    println!("ground truth: {events} events on anomaly-carrying links, intervals {anomalous:?}");
    Ok(())
}

/// Load a capture file (or stdin when `path` is `-`): NetFlow v5 flow
/// datagrams optionally interleaved with v9/IPFIX template-only
/// punctuation packets. Returns the flows plus the punctuation export
/// clocks in milliseconds — the heartbeats that let an idle-but-live
/// exporter release the multi-source watermark grid.
///
/// Files are memory-mapped rather than read into a heap buffer, so the
/// decoder walks the kernel page cache directly and multi-GB traces
/// never need a second in-memory copy of the raw bytes; when mapping is
/// unavailable (non-unix platforms, special files) the mapping layer
/// falls back to an ordinary heap read transparently.
fn load_trace_data(path: &str) -> Result<(Vec<FlowRecord>, Vec<u64>), String> {
    let stdin_buf;
    let mapping;
    let bytes: &[u8] = if path == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        stdin_buf = buf;
        &stdin_buf
    } else {
        mapping = memmap2::Mmap::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        &mapping
    };
    let items = decode_mixed_stream(bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut flows = Vec::new();
    let mut heartbeats = Vec::new();
    for item in items {
        match item {
            TraceItem::Flows(dgram) => flows.extend(dgram.flows),
            TraceItem::Heartbeat(p) => heartbeats.push(p.export_ms),
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

fn parse_modes(args: &Args) -> (PrefilterMode, TransactionMode) {
    let prefilter = if args.flag("intersection") {
        PrefilterMode::Intersection
    } else {
        PrefilterMode::Union
    };
    let tx = if args.flag("prefixes") {
        TransactionMode::WithPrefixes
    } else {
        TransactionMode::Canonical
    };
    (prefilter, tx)
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

/// Parse the shared pipeline options (`--interval-min`, `--training`,
/// `--support`, `--miner`, `--prefixes`, `--intersection`) into a
/// configuration — one definition for `extract` and `stream`, so the
/// batch and streaming paths can never drift apart.
fn parse_config(args: &Args) -> Result<ExtractionConfig, String> {
    let interval_min = args
        .get_or("interval-min", 15u64)
        .map_err(|e| e.to_string())?;
    let training = args
        .get_or("training", 48usize)
        .map_err(|e| e.to_string())?;
    let support = args.get_or("support", 50u64).map_err(|e| e.to_string())?;
    let miner = parse_miner(args)?;
    let (prefilter, transactions) = parse_modes(args);
    let rules = parse_rules(args)?;
    if let Some(rc) = &rules {
        if rc.rare_floor_explosive(support) && !args.flag("force-rare") {
            return Err(format!(
                "--rare with --support {support} drives the per-level support floor \
                 toward 1, which can explode the mining pass on large intervals \
                 (tens of GB of candidate item-sets); raise --support to at least \
                 {RARE_SUPPORT_GUARD} or pass --force-rare to override"
            ));
        }
    }
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
        prefilter,
        transactions,
        rules,
    };
    // Validate here, before any path touches a trace (the multi-input
    // modes infer per-file origins with `% interval_ms` up front).
    config.validate().map_err(String::from)?;
    Ok(config)
}

/// Align a trace's interval grid to the window containing its first
/// flow — the per-file origin rule shared by the multi-input batch and
/// streaming paths (and the single-input ones), so every mode agrees on
/// the grid.
fn inferred_origin(trace: &mut FlowTrace, interval_ms: u64, path: &str) -> Result<u64, String> {
    let first = trace
        .start_ms()
        .ok_or_else(|| format!("{path}: trace is empty"))?;
    Ok(first - first % interval_ms)
}

/// Load every `--in` trace in file order.
fn load_traces(inputs: &[String]) -> Result<Vec<FlowTrace>, String> {
    inputs
        .iter()
        .map(|p| Ok(FlowTrace::from_flows(load_flows(p)?)))
        .collect()
}

/// Render one alarmed merged interval: the Table II-style report plus —
/// when the rule layer is on and at least two sources fed the interval —
/// the per-source rule merge section (each source's segment re-mined at
/// its weighted support floor, merged and re-scored). The one definition
/// both the batch multi-extract and the streaming fan-in print, so the
/// e2e byte-diff can hold.
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

/// Batch multi-source extraction: slice each trace on its own inferred
/// grid and run the per-interval concatenation (file order) through one
/// pipeline. Returns the rendered report per alarmed interval plus the
/// merged interval count — the batch reference the streaming fan-in is
/// bit-identical to.
fn run_extract_multi(
    traces: &mut [FlowTrace],
    paths: &[String],
    config: &ExtractionConfig,
    threads: NonZeroUsize,
) -> Result<(Vec<String>, usize), String> {
    let mut pipeline = Engine::new(config.clone(), threads).map_err(String::from)?;
    let interval_ms = config.interval_ms;
    let mut origins = Vec::with_capacity(traces.len());
    for (trace, path) in traces.iter_mut().zip(paths) {
        origins.push(inferred_origin(trace, interval_ms, path)?);
    }
    let lanes: Vec<_> = traces
        .iter_mut()
        .zip(&origins)
        .map(|(trace, &origin)| trace.intervals(origin, interval_ms))
        .collect();
    let total = lanes.iter().map(Vec::len).max().unwrap_or(0);
    let mut reports = Vec::new();
    let mut merged: Vec<FlowRecord> = Vec::new();
    for i in 0..total {
        merged.clear();
        for lane in &lanes {
            if let Some(iv) = lane.get(i) {
                merged.extend_from_slice(iv.flows);
            }
        }
        if let Some(extraction) = pipeline.process(&merged).extraction {
            let source_flows: Vec<usize> = lanes
                .iter()
                .map(|lane| lane.get(i).map_or(0, |iv| iv.flows.len()))
                .collect();
            reports.push(render_multi_report(
                &extraction,
                &merged,
                &source_flows,
                config,
            ));
        }
    }
    Ok((reports, total))
}

/// `anomex extract`.
pub fn extract(args: &Args) -> Result<(), String> {
    let inputs = args.get_all("in").to_vec();
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    let support = config.min_support;
    let interval_min = config.interval_ms / MINUTE_MS;
    let miner = config.miner;

    if inputs.len() > 1 {
        let mut traces = load_traces(&inputs)?;
        let (reports, total) = run_extract_multi(&mut traces, &inputs, &config, threads)?;
        let alarms = reports.len();
        for report in reports {
            println!("{report}");
        }
        println!(
            "processed {total} merged intervals from {} sources, {alarms} alarmed \
             (s = {support}, Δ = {interval_min} min, miner = {miner}, threads = {threads})",
            inputs.len()
        );
        return Ok(());
    }

    let input = args.require("in")?;
    // Validate before touching the trace: a bad configuration should
    // fail instantly, not after decoding a multi-hundred-MB file.
    let mut pipeline = Engine::new(config.clone(), threads).map_err(String::from)?;

    let mut trace = FlowTrace::from_flows(load_flows(input)?);
    // Align windows to the interval grid containing the first flow.
    let origin = inferred_origin(&mut trace, config.interval_ms, input)?;
    let mut alarms = 0u32;
    let intervals = trace.intervals(origin, config.interval_ms);
    let total = intervals.len();
    for iv in &intervals {
        let outcome = pipeline.process(iv.flows);
        if let Some(extraction) = outcome.extraction {
            alarms += 1;
            println!("{}", render_report(&extraction));
        }
    }
    println!("processed {total} intervals, {alarms} alarmed (s = {support}, Δ = {interval_min} min, miner = {miner}, threads = {threads})");
    Ok(())
}

/// Render one streaming event: a verbose per-interval line and, on
/// alarm, the full Table II-style report.
fn print_stream_event(event: &StreamEvent, verbose: bool) {
    print_stream_line(event, verbose);
    if let Some(extraction) = &event.outcome.extraction {
        println!("{}", render_report(extraction));
    }
}

/// The `--verbose` per-interval status line, shared by the single- and
/// multi-source streaming printers.
fn print_stream_line(event: &StreamEvent, verbose: bool) {
    if verbose {
        println!(
            "interval {:>4}  [{} ms, {} ms)  {:>8} flows  {:>8} µs  {}",
            event.index,
            event.begin_ms,
            event.end_ms,
            event.flows,
            event.process_micros,
            if event.alarmed() { "ALARM" } else { "ok" }
        );
    }
}

/// Streaming multi-source fan-in: each trace becomes one exporter on a
/// shared interval grid, replayed in collector arrival order (k-way
/// merge on grid-relative time, ties to the lowest source id; a
/// source's flows before its same-millisecond heartbeats). Returns
/// every merged event plus the end-of-stream summary — bit-identical to
/// [`run_extract_multi`] over the same traces, asserted by the CLI test
/// suite and the `e2e-stream` CI job. `heartbeats` carries each lane's
/// v9/IPFIX punctuation clocks (absolute source-local ms): an
/// idle-but-live exporter's heartbeats advance its watermark, releasing
/// merged intervals the grid would otherwise hold until `max_lag`.
fn run_stream_multi(
    traces: Vec<FlowTrace>,
    heartbeats: &[Vec<u64>],
    origins: &[u64],
    config: ExtractionConfig,
    threads: NonZeroUsize,
    max_lag: Option<u64>,
) -> Result<(Vec<MultiStreamEvent>, MultiStreamSummary), String> {
    let specs: Vec<SourceSpec> = origins
        .iter()
        .enumerate()
        .map(|(i, &origin)| SourceSpec::new(i as u32, origin))
        .collect();
    let mut engine =
        MultiSourceExtractor::try_new(config, threads, &specs, max_lag).map_err(String::from)?;
    let lanes: Vec<Vec<FlowRecord>> = traces.into_iter().map(FlowTrace::into_flows).collect();
    let mut cursors = vec![0usize; lanes.len()];
    let mut hb_cursors = vec![0usize; lanes.len()];
    let mut events = Vec::new();
    loop {
        // Pick the earliest pending item on grid-relative time. Flows
        // are scanned first and replaced only on strictly smaller keys,
        // so a flow beats a heartbeat at the same instant and lower
        // source ids win ties — the collector arrival order the batch
        // reference concatenates in.
        let mut next: Option<(u64, usize, bool)> = None;
        for (s, lane) in lanes.iter().enumerate() {
            if let Some(flow) = lane.get(cursors[s]) {
                let key = flow.start_ms.saturating_sub(origins[s]);
                if next.map_or(true, |(k, _, _)| key < k) {
                    next = Some((key, s, false));
                }
            }
        }
        for (s, lane) in heartbeats.iter().enumerate() {
            if let Some(&hb_ms) = lane.get(hb_cursors[s]) {
                let key = hb_ms.saturating_sub(origins[s]);
                if next.map_or(true, |(k, _, _)| key < k) {
                    next = Some((key, s, true));
                }
            }
        }
        let Some((_, s, is_heartbeat)) = next else {
            break;
        };
        if is_heartbeat {
            let hb_ms = heartbeats[s][hb_cursors[s]];
            hb_cursors[s] += 1;
            events.extend(engine.heartbeat(SourceId(s as u32), hb_ms));
        } else {
            let flow = lanes[s][cursors[s]];
            cursors[s] += 1;
            events.extend(engine.push(SourceId(s as u32), flow));
        }
    }
    let (tail, summary) = engine.finish();
    events.extend(tail);
    Ok((events, summary))
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
/// verdict on stderr (stdout stays byte-comparable across runs).
/// Returns the interval events that drained around the boundary.
fn consume_reconfig_file(dir: &Path, engine: &mut StreamingExtractor) -> Vec<StreamEvent> {
    let path = dir.join("reconfig");
    let Ok(text) = fs::read_to_string(&path) else {
        return Vec::new();
    };
    fs::remove_file(&path).ok();
    match parse_reconfig(&text) {
        Ok(req) if !req.is_empty() => {
            let describe = format!("{req:?}");
            let (events, verdict) = engine.reconfigure(req);
            match verdict {
                Ok(()) => eprintln!("reconfig applied: {describe}"),
                Err(e) => eprintln!("reconfig rejected: {e}"),
            }
            events
        }
        Ok(_) => {
            eprintln!("reconfig file {} was empty; ignored", path.display());
            Vec::new()
        }
        Err(e) => {
            eprintln!("reconfig file {} invalid: {e}; ignored", path.display());
            Vec::new()
        }
    }
}

/// Take a checkpoint: drain the pipeline, snapshot the full online
/// state, and atomically replace the checkpoint file with
/// `{flows consumed, engine payload}`. Returns the drained events.
fn take_checkpoint(
    engine: &mut StreamingExtractor,
    pushed: u64,
    path: &Path,
) -> Result<Vec<StreamEvent>, String> {
    let (events, payload) = engine.checkpoint();
    let mut w = SnapshotWriter::new();
    w.u64(pushed);
    w.bytes(&payload);
    write_checkpoint(path, &w.into_bytes())
        .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
    Ok(events)
}

/// Restore a `stream` session from a checkpoint file: returns the
/// restored engine plus the number of input flows already consumed, so
/// the caller can skip them on replay.
fn restore_from_checkpoint(
    path: &Path,
    threads: Option<NonZeroUsize>,
) -> Result<(StreamingExtractor, u64), String> {
    let at = |e: anomex_netflow::snapshot::RestoreError| {
        format!("cannot resume from {}: {e}", path.display())
    };
    let payload = read_checkpoint(path).map_err(at)?;
    let mut r = SnapshotReader::new(&payload);
    let pushed = r.u64().map_err(at)?;
    let engine_bytes = r.bytes().map_err(at)?;
    r.finish().map_err(at)?;
    let engine = StreamingExtractor::restore(engine_bytes, threads).map_err(at)?;
    Ok((engine, pushed))
}

/// `anomex stream`.
pub fn stream(args: &Args) -> Result<(), String> {
    let inputs = args.get_all("in").to_vec();
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    let verbose = args.flag("verbose");
    let durability = parse_durability(args)?;
    if durability.is_some() && inputs.len() > 1 {
        return Err("--checkpoint-dir currently supports a single --in trace".into());
    }
    let support = config.min_support;
    let interval_min = config.interval_ms / MINUTE_MS;
    let miner = config.miner;

    if inputs.len() > 1 {
        let max_lag_raw = args.get_or("max-lag", 0u64).map_err(|e| e.to_string())?;
        let max_lag = (max_lag_raw > 0).then_some(max_lag_raw);
        let mut traces = Vec::with_capacity(inputs.len());
        let mut heartbeats = Vec::with_capacity(inputs.len());
        for path in &inputs {
            let (flows, hbs) = load_trace_data(path)?;
            traces.push(FlowTrace::from_flows(flows));
            heartbeats.push(hbs);
        }
        let mut origins = Vec::with_capacity(traces.len());
        for (trace, path) in traces.iter_mut().zip(&inputs) {
            origins.push(inferred_origin(trace, config.interval_ms, path)?);
        }
        let (events, summary) = run_stream_multi(
            traces,
            &heartbeats,
            &origins,
            config.clone(),
            threads,
            max_lag,
        )?;
        let mut latencies: Vec<u64> = Vec::new();
        for event in &events {
            latencies.push(event.event.process_micros);
            print_stream_line(&event.event, verbose);
            if let Some(extraction) = &event.event.outcome.extraction {
                println!(
                    "{}",
                    render_multi_report(extraction, &event.flow_data, &event.source_flows, &config)
                );
            }
        }
        let p50 = latency_percentile(&mut latencies, 50.0);
        let p95 = latency_percentile(&mut latencies, 95.0);
        println!(
            "fan-in: streamed {} flows from {} sources into {} merged intervals: \
             {} alarmed, {} extracted (s = {support}, Δ = {interval_min} min, \
             miner = {miner}, threads = {threads})",
            summary.total_flows,
            inputs.len(),
            summary.intervals,
            summary.alarms,
            summary.extractions
        );
        for (stats, path) in summary.sources.iter().zip(&inputs) {
            println!(
                "source {} ({path}): {} flows, {} late, {} pre-origin, {} stale",
                stats.id, stats.flows, stats.late_flows, stats.pre_origin_flows, stats.stale_flows
            );
        }
        println!(
            "per-interval latency: p50 = {p50} µs, p95 = {p95} µs; dropped flows: {} total",
            summary.dropped_flows
        );
        return Ok(());
    }

    let input = args.require("in")?;

    // Replay in trace order (sorted by start time) so the event stream
    // is bit-identical to what `anomex extract` prints for this trace.
    let mut trace = FlowTrace::from_flows(load_flows(input)?);
    let origin = inferred_origin(&mut trace, config.interval_ms, input)?;

    // Resume restores the full online state — configuration included —
    // from the checkpoint; otherwise start cold from the CLI options.
    // `--threads` explicitly given overrides the checkpointed shard
    // count (the output is shard-invariant, so this is always safe).
    let threads_override = args.get("threads").is_some().then_some(threads);
    let resume_from = durability
        .as_ref()
        .filter(|d| d.resume)
        .map(Durability::checkpoint_path)
        .filter(|p| p.exists());
    let (mut engine, mut pushed) = match &resume_from {
        Some(path) => {
            let (engine, pushed) = restore_from_checkpoint(path, threads_override)?;
            eprintln!(
                "resumed from {} ({pushed} flows already consumed)",
                path.display()
            );
            (engine, pushed)
        }
        None => (
            StreamingExtractor::try_new(config, threads, origin).map_err(String::from)?,
            0,
        ),
    };

    let mut latencies: Vec<u64> = Vec::new();
    let drain = |events: Vec<StreamEvent>, latencies: &mut Vec<u64>| -> u64 {
        let closed = events.len() as u64;
        for event in events {
            latencies.push(event.process_micros);
            print_stream_event(&event, verbose);
        }
        closed
    };
    let mut closed_this_run = 0u64;
    let mut since_checkpoint = 0u64;
    let mut stopped = false;
    for flow in trace.into_flows().into_iter().skip(pushed as usize) {
        pushed += 1;
        let boundary = {
            let events = engine.push(flow);
            let closed = drain(events, &mut latencies);
            closed_this_run += closed;
            since_checkpoint += closed;
            closed > 0
        };
        let Some(d) = &durability else { continue };
        if boundary && d.stop_after.is_some_and(|n| closed_this_run >= n) {
            let tail = take_checkpoint(&mut engine, pushed, &d.checkpoint_path())?;
            drain(tail, &mut latencies);
            stopped = true;
            break;
        }
        if boundary && since_checkpoint >= d.every {
            since_checkpoint = 0;
            // Reconfig requests are consumed at interval boundaries and
            // land in the checkpoint that follows, so a resume replays
            // the stream under the reconfigured engine.
            let events = consume_reconfig_file(&d.dir, &mut engine);
            closed_this_run += drain(events, &mut latencies);
            let tail = take_checkpoint(&mut engine, pushed, &d.checkpoint_path())?;
            closed_this_run += drain(tail, &mut latencies);
        }
    }
    if stopped {
        let d = durability.as_ref().expect("stop implies durability");
        eprintln!(
            "stopped after {closed_this_run} interval(s); checkpoint at {}",
            d.checkpoint_path().display()
        );
        return Ok(());
    }
    let (tail, summary) = engine.finish();
    drain(tail, &mut latencies);

    let p50 = latency_percentile(&mut latencies, 50.0);
    let p95 = latency_percentile(&mut latencies, 95.0);
    println!(
        "streamed {} flows into {} intervals: {} alarmed, {} extracted \
         (s = {support}, Δ = {interval_min} min, miner = {miner}, threads = {threads})",
        summary.total_flows, summary.intervals, summary.alarms, summary.extractions
    );
    println!(
        "per-interval latency: p50 = {p50} µs, p95 = {p95} µs; dropped flows: {} late, {} pre-origin",
        summary.late_flows, summary.pre_origin_flows
    );
    if summary.reconfigs_applied + summary.reconfigs_rejected > 0 {
        println!(
            "reconfigurations: {} applied, {} rejected",
            summary.reconfigs_applied, summary.reconfigs_rejected
        );
    }
    Ok(())
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
    let input = args.require("in")?;
    let metadata = parse_metadata(args.require("metadata")?)?;
    let support = args.get_or("support", 50u64).map_err(|e| e.to_string())?;
    let miner = parse_miner(args)?;
    let threads = parse_threads(args)?;
    let (prefilter, tx_mode) = parse_modes(args);
    // The same validation (and error text) `extract`/`stream` apply,
    // before touching the trace.
    ExtractionConfig {
        min_support: support,
        ..ExtractionConfig::default()
    }
    .validate()
    .map_err(String::from)?;
    let k = args.get_or("k", 10usize).map_err(|e| e.to_string())?;
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let flows = load_flows(input)?;

    if args.flag("top") {
        let indices = prefilter_indices(&flows, &metadata, prefilter);
        let transactions = tx_mode.transactions_at(&flows, &indices);
        let start = (indices.len() as u64 / 10).max(1);
        let top = mine_top_k(&transactions, miner, k, start);
        println!(
            "top {} item-sets of {} suspicious flows (effective support {}, {} rounds):",
            top.itemsets.len(),
            indices.len(),
            top.effective_support,
            top.rounds
        );
        for (i, set) in top.itemsets.iter().enumerate() {
            println!("{:>3}. {set}", i + 1);
        }
        return Ok(());
    }

    let extraction = Engine::extract(
        &ExtractRequest::new(&flows, &metadata, support)
            .prefilter(prefilter)
            .transactions(tx_mode)
            .miner(miner)
            .shards(threads),
    );
    println!("{}", render_report(&extraction));
    Ok(())
}

/// `anomex table2`.
pub fn table2(args: &Args) -> Result<(), String> {
    let unit_flows =
        paper_counts::FLOODING + paper_counts::WEB + paper_counts::BACKSCATTER + paper_counts::SMTP;
    let w = table2_workload(2009, parse_scale(args, 1.0, unit_flows)?);
    let mut metadata = MetaData::new();
    for port in [u64::from(w.flood_port), 80, 9022, 25] {
        metadata.insert(anomex_netflow::FlowFeature::DstPort, port);
    }
    // Apriori on purpose: Table II narrates its level audit trail.
    let extraction = Engine::extract(
        &ExtractRequest::new(&w.flows, &metadata, w.min_support).miner(MinerKind::Apriori),
    );
    println!("{}", render_report_with_levels(&extraction));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::FlowFeature;

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
    }

    #[test]
    fn miner_parsing() {
        let a = Args::parse(["x", "--miner", "eclat"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_miner(&a).unwrap(), MinerKind::Eclat);
        let a = Args::parse(["x", "--miner", "apriori"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_miner(&a).unwrap(), MinerKind::Apriori);
        let a = Args::parse(["x"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_miner(&a).unwrap(), MinerKind::FpGrowth);
        let a = Args::parse(["x", "--miner", "zzz"].iter().map(ToString::to_string)).unwrap();
        assert!(parse_miner(&a).is_err());
    }

    /// One default, read everywhere: the library enum, the configuration,
    /// the offline request and the CLI all mine with FP-growth unless told
    /// otherwise — so no default path records Apriori's level audit.
    #[test]
    fn default_miner_is_fpgrowth_everywhere() {
        assert_eq!(MinerKind::default(), MinerKind::FpGrowth);
        assert_eq!(ExtractionConfig::default().miner, MinerKind::FpGrowth);
        let no_flag = Args::parse(["x"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_miner(&no_flag).unwrap(), MinerKind::FpGrowth);
        assert_eq!(parse_config(&no_flag).unwrap().miner, MinerKind::FpGrowth);

        let w = table2_workload(2009, 0.01);
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, u64::from(w.flood_port));
        let ex = Engine::extract(&ExtractRequest::new(&w.flows, &md, w.min_support));
        assert!(!ex.itemsets.is_empty(), "the flood is extracted");
        assert!(
            ex.levels.is_empty(),
            "default path ran Apriori: {:?}",
            ex.levels
        );
        let apriori = Engine::extract(
            &ExtractRequest::new(&w.flows, &md, w.min_support).miner(MinerKind::Apriori),
        );
        assert!(
            !apriori.levels.is_empty(),
            "Apriori still records its rounds"
        );
        assert_eq!(render_report(&apriori), render_report(&ex));
    }

    #[test]
    fn threads_parsing() {
        let a = Args::parse(["x", "--threads", "4"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_threads(&a).unwrap().get(), 4);
        let a = Args::parse(["x"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_threads(&a).unwrap().get(), 1, "sequential by default");
        let a = Args::parse(["x", "--threads", "0"].iter().map(ToString::to_string)).unwrap();
        assert!(parse_threads(&a).unwrap().get() >= 1, "0 means auto");
        let a = Args::parse(["x", "--threads", "no"].iter().map(ToString::to_string)).unwrap();
        assert!(parse_threads(&a).is_err());
        let parse = |n: usize| {
            let n = n.to_string();
            parse_threads(
                &Args::parse(["x", "--threads", &n].iter().map(ToString::to_string)).unwrap(),
            )
        };
        assert_eq!(parse(MAX_SHARDS.get()).unwrap(), MAX_SHARDS);
        let err = parse(MAX_SHARDS.get() + 1).unwrap_err();
        assert!(err.contains("--threads") && err.contains("1024"), "{err}");
    }

    #[test]
    fn rule_options_parse_and_imply_the_layer() {
        let a = Args::parse(["x"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_rules(&a).unwrap(), None, "off by default");
        let a = Args::parse(["x", "--rules"].iter().map(ToString::to_string)).unwrap();
        assert_eq!(parse_rules(&a).unwrap(), Some(RuleConfig::default()));
        let a = Args::parse(
            ["x", "--min-confidence", "0.9", "--rare"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        let rc = parse_rules(&a).unwrap().expect("options imply --rules");
        assert_eq!(rc.min_confidence, 0.9);
        assert!(rc.rare);
        let a = Args::parse(
            ["x", "--rules", "--min-lift", "zzz"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        assert!(parse_rules(&a).is_err(), "bad value reported");
    }

    #[test]
    fn rare_below_the_guard_needs_force_rare() {
        let parse = |argv: &[&str]| {
            parse_config(&Args::parse(argv.iter().map(ToString::to_string)).unwrap())
        };
        let err = parse(&["x", "--rare", "--support", "50"]).unwrap_err();
        assert!(
            err.contains("--force-rare"),
            "error names the escape hatch: {err}"
        );
        assert!(err.contains("128"), "error names the floor: {err}");
        parse(&["x", "--rare", "--support", "50", "--force-rare"])
            .expect("--force-rare overrides the guard");
        parse(&["x", "--rare", "--support", "128"])
            .expect("at the guard threshold no override is needed");
        parse(&["x", "--rules", "--support", "50"])
            .expect("non-rare rules are unaffected by the guard");
    }

    #[test]
    fn oversized_interval_is_an_error_not_a_wrapped_grid() {
        let parse = |argv: &[&str]| {
            parse_config(&Args::parse(argv.iter().map(ToString::to_string)).unwrap())
        };
        // 307445734561825861 × 60 000 wraps u64 to a small, wrong grid.
        let err = parse(&["x", "--interval-min", "307445734561825861"]).unwrap_err();
        assert!(err.contains("--interval-min"), "{err}");
        let err = parse(&["x", "--interval-min", &u64::MAX.to_string()]).unwrap_err();
        assert!(err.contains("too large"), "{err}");
        let max = u64::MAX / MINUTE_MS;
        assert_eq!(
            parse(&["x", "--interval-min", &max.to_string()])
                .unwrap()
                .interval_ms,
            max * MINUTE_MS
        );
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
        let parse = |argv: &[&str]| {
            parse_durability(&Args::parse(argv.iter().map(ToString::to_string)).unwrap())
        };
        assert_eq!(parse(&["stream"]).unwrap().map(|_| ()), None);
        assert!(parse(&["stream", "--resume"]).is_err());
        assert!(parse(&["stream", "--checkpoint-every", "5"]).is_err());
        assert!(parse(&["stream", "--stop-after", "3"]).is_err());
        let dir = std::env::temp_dir().join("anomex-cli-durability-test");
        let dir_s = dir.to_str().unwrap();
        let d = parse(&[
            "stream",
            "--checkpoint-dir",
            dir_s,
            "--checkpoint-every",
            "5",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(d.every, 5);
        assert!(!d.resume);
        assert_eq!(d.stop_after, None);
        assert_eq!(d.checkpoint_path(), dir.join("stream.ckpt"));
        assert!(
            parse(&[
                "stream",
                "--checkpoint-dir",
                dir_s,
                "--checkpoint-every",
                "0"
            ])
            .is_err(),
            "zero interval cadence is rejected"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checkpoint file round-trips through the CLI framing (consumed
    /// flow count + engine payload) and the restored engine continues
    /// the stream; a truncated file fails with a diagnostic, not a panic.
    #[test]
    fn checkpoint_file_round_trips_and_rejects_corruption() {
        use anomex_netflow::Protocol;
        let dir = std::env::temp_dir().join("anomex-cli-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.ckpt");

        let config = ExtractionConfig {
            interval_ms: 1_000,
            min_support: 10,
            ..ExtractionConfig::default()
        };
        let mut engine = StreamingExtractor::try_new(config, NonZeroUsize::MIN, 0).unwrap();
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
        let _ = engine.push(flow(100));
        let _ = engine.push(flow(1_200));
        let _ = take_checkpoint(&mut engine, 2, &path).unwrap();

        let (mut resumed, pushed) = restore_from_checkpoint(&path, None).unwrap();
        assert_eq!(pushed, 2);
        let _ = resumed.push(flow(2_500));
        let (_, summary) = resumed.finish();
        assert_eq!(summary.total_flows, 3, "resumed run continues the count");

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = restore_from_checkpoint(&path, None).unwrap_err();
        assert!(
            err.contains("cannot resume"),
            "diagnostic names the file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mode_flags() {
        let a = Args::parse(
            ["x", "--prefixes", "--intersection"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        let (p, t) = parse_modes(&a);
        assert_eq!(p, PrefilterMode::Intersection);
        assert_eq!(t, TransactionMode::WithPrefixes);
    }

    /// The streaming replay must reproduce exactly the per-interval
    /// outcomes the batch `extract` path computes over the same trace.
    #[test]
    fn stream_replay_matches_batch_extract() {
        use anomex_traffic::Scenario;
        let scenario = Scenario::small(23);
        let config = ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            // Rules on: the rendered reports then carry the ranked-rule
            // section, so this also pins rule determinism batch vs stream.
            rules: Some(RuleConfig::default()),
            ..ExtractionConfig::default()
        };
        // Round-trip the flows through the wire format, as `stream` does.
        let mut exporter = V5Exporter::new();
        let mut bytes = Vec::new();
        for i in 0..scenario.interval_count().min(23) {
            for dgram in exporter.export(&scenario.generate(i).flows) {
                bytes.extend_from_slice(&dgram);
            }
        }
        let decoded: Vec<FlowRecord> = anomex_netflow::v5::decode_stream(&bytes)
            .unwrap()
            .into_iter()
            .flat_map(|d| d.flows)
            .collect();

        let mut trace = FlowTrace::from_flows(decoded);
        let origin = trace.start_ms().unwrap();
        let origin = origin - origin % config.interval_ms;

        let mut batch = Engine::sequential(config.clone()).unwrap();
        let mut batch_reports = Vec::new();
        for iv in &trace.intervals(origin, config.interval_ms) {
            if let Some(ex) = batch.process(iv.flows).extraction {
                batch_reports.push(render_report(&ex));
            }
        }

        let threads = NonZeroUsize::new(2).unwrap();
        let mut engine = StreamingExtractor::try_new(config, threads, origin).unwrap();
        let mut stream_reports = Vec::new();
        let mut events = Vec::new();
        for flow in trace.into_flows() {
            events.extend(engine.push(flow));
        }
        let (tail, summary) = engine.finish();
        events.extend(tail);
        for event in &events {
            if let Some(ex) = &event.outcome.extraction {
                stream_reports.push(render_report(ex));
            }
        }
        assert!(!batch_reports.is_empty(), "the scenario must alarm");
        assert_eq!(stream_reports, batch_reports, "replay diverged");
        assert_eq!(summary.extractions as usize, batch_reports.len());
        assert_eq!(summary.late_flows + summary.pre_origin_flows, 0);
    }

    /// The multi-source streaming fan-in must reproduce exactly the
    /// batch multi-input extraction over the same trace files — the
    /// in-process twin of CI's `e2e-stream` job, through real NetFlow v5
    /// files with skewed per-source clocks.
    #[test]
    fn stream_fan_in_matches_multi_input_extract() {
        use anomex_traffic::MultiSourceScenario;
        let dir = std::env::temp_dir().join("anomex-cli-multisource-test");
        std::fs::create_dir_all(&dir).unwrap();

        let scenario = MultiSourceScenario::uniform(13, 2);
        let intervals = scenario.interval_count().min(22);
        let mut paths = Vec::new();
        for s in 0..2 {
            let mut exporter = V5Exporter::new();
            let mut bytes = Vec::new();
            for i in 0..intervals {
                for dgram in exporter.export(&scenario.generate(s, i).flows) {
                    bytes.extend_from_slice(&dgram);
                }
            }
            let path = dir.join(format!("link{s}.nfv5"));
            std::fs::write(&path, &bytes).unwrap();
            paths.push(path.to_str().unwrap().to_string());
        }

        let config = ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            // Rules on: the reports then include both the ranked-rule
            // section and the per-source rule merge section, so the
            // fan-in equality below covers the whole rule layer.
            rules: Some(RuleConfig::default()),
            ..ExtractionConfig::default()
        };
        let threads = NonZeroUsize::new(2).unwrap();

        let mut traces = load_traces(&paths).unwrap();
        let (batch_reports, total) =
            run_extract_multi(&mut traces, &paths, &config, NonZeroUsize::MIN).unwrap();
        assert!(!batch_reports.is_empty(), "the flood must alarm");
        assert!(
            batch_reports
                .iter()
                .any(|r| r.contains("Per-source rule merge — 2 source(s)")),
            "multi-source reports carry the merge section"
        );
        // The skewed link spills past its inferred (floored) origin into
        // one extra trailing window, so the merged grid may exceed the
        // generator's interval count by one.
        assert!(total as u64 >= intervals, "{total} < {intervals}");

        let mut traces = load_traces(&paths).unwrap();
        let mut origins = Vec::new();
        for (trace, path) in traces.iter_mut().zip(&paths) {
            origins.push(inferred_origin(trace, config.interval_ms, path).unwrap());
        }
        let no_heartbeats = vec![Vec::new(); origins.len()];
        let (events, summary) = run_stream_multi(
            traces,
            &no_heartbeats,
            &origins,
            config.clone(),
            threads,
            None,
        )
        .unwrap();
        let stream_reports: Vec<String> = events
            .iter()
            .filter_map(|e| {
                e.event
                    .outcome
                    .extraction
                    .as_ref()
                    .map(|ex| render_multi_report(ex, &e.flow_data, &e.source_flows, &config))
            })
            .collect();
        assert_eq!(stream_reports, batch_reports, "fan-in diverged from batch");
        assert_eq!(summary.intervals as usize, total, "grids agree");
        assert_eq!(summary.dropped_flows, 0);
        assert_eq!(summary.sources.len(), 2);
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    }

    /// A trace file interleaving v5 datagrams with v9/IPFIX
    /// options-template punctuation loads into flows plus heartbeat
    /// clocks, and replaying the heartbeats through the fan-in leaves
    /// the outcome stream bit-identical (heartbeats advance watermarks;
    /// they never carry flows).
    #[test]
    fn punctuated_trace_heartbeats_flow_into_the_grid() {
        use anomex_netflow::v9::{encode_ipfix_options_template, encode_v9_options_template};
        use anomex_traffic::MultiSourceScenario;
        let dir = std::env::temp_dir().join("anomex-cli-punctuation-test");
        std::fs::create_dir_all(&dir).unwrap();

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

        let mut traces = Vec::new();
        let mut heartbeats = Vec::new();
        for path in &paths {
            let (flows, hbs) = load_trace_data(path).unwrap();
            assert_eq!(hbs.len() as u64, intervals, "one keepalive per interval");
            traces.push(FlowTrace::from_flows(flows));
            heartbeats.push(hbs);
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
        let mut origins = Vec::new();
        for (trace, path) in traces.iter_mut().zip(&paths) {
            origins.push(inferred_origin(trace, config.interval_ms, path).unwrap());
        }
        let threads = NonZeroUsize::MIN;
        let silent = vec![Vec::new(); origins.len()];
        let (plain_events, plain_summary) = run_stream_multi(
            traces.clone(),
            &silent,
            &origins,
            config.clone(),
            threads,
            None,
        )
        .unwrap();
        let (events, summary) =
            run_stream_multi(traces, &heartbeats, &origins, config, threads, None).unwrap();
        assert_eq!(summary.total_flows, plain_summary.total_flows);
        assert_eq!(summary.intervals, plain_summary.intervals);
        assert_eq!(summary.dropped_flows, 0, "heartbeats drop nothing");
        let outcomes: Vec<String> = events
            .iter()
            .map(|e| format!("{:?}", e.event.outcome))
            .collect();
        let plain_outcomes: Vec<String> = plain_events
            .iter()
            .map(|e| format!("{:?}", e.event.outcome))
            .collect();
        assert_eq!(outcomes, plain_outcomes, "punctuation changed the output");
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    }

    /// End-to-end through temp files: generate a small trace, reload it,
    /// analyze with explicit meta-data.
    #[test]
    fn generate_then_analyze_round_trip() {
        let dir = std::env::temp_dir().join("anomex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.nfv5");
        let path_s = path.to_str().unwrap().to_string();

        let args = Args::parse(
            [
                "generate",
                "--out",
                &path_s,
                "--seed",
                "7",
                "--intervals",
                "25",
            ]
            .iter()
            .map(ToString::to_string),
        )
        .unwrap();
        generate(&args).unwrap();

        let flows = load_flows(&path_s).unwrap();
        assert!(flows.len() > 50_000, "25 intervals of the small scenario");

        // The small scenario's flood at interval 20 is on port 7000.
        let md = parse_metadata("dstPort=7000").unwrap();
        let ex =
            Engine::extract(&ExtractRequest::new(&flows, &md, 1000).miner(MinerKind::FpGrowth));
        assert!(
            ex.itemsets
                .iter()
                .any(|s| s.to_string().contains("dstPort=7000")),
            "flood recovered from the file"
        );
        std::fs::remove_file(&path).ok();
    }

    /// `analyze` validates like `extract`/`stream`: a zero support is a
    /// CLI error with the `ConfigError` text, not a miner panic.
    #[test]
    fn analyze_rejects_zero_support_without_panicking() {
        let dir = std::env::temp_dir().join("anomex-cli-test-support0");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.nfv5");
        let path_s = path.to_str().unwrap().to_string();
        let argv = |v: &[&str]| Args::parse(v.iter().map(ToString::to_string)).unwrap();
        generate(&argv(&["generate", "--out", &path_s, "--intervals", "1"])).unwrap();

        let base = ["analyze", "--in", &path_s, "--metadata", "dstPort=80"];
        let err = analyze(&argv(&[&base[..], &["--support", "0"]].concat())).unwrap_err();
        assert_eq!(err, "minimum support must be at least 1");
        analyze(&argv(&[&base[..], &["--support", "1000000"]].concat()))
            .expect("a valid support still analyzes");

        // `--k 0` used to die in the top-k miner ("k must be at least 1").
        let err = analyze(&argv(&[&base[..], &["--top", "--k", "0"]].concat())).unwrap_err();
        assert_eq!(err, "--k must be at least 1");
        analyze(&argv(&[&base[..], &["--top", "--k", "3"]].concat())).expect("a valid k mines");
        std::fs::remove_file(&path).ok();
    }

    /// A thread count the OS cannot serve used to abort the process
    /// inside thread spawning (SIGABRT at `--threads 16384`); it is a CLI
    /// error on every command that takes the flag, and a reconfig file
    /// asking for it is rejected with the engine unchanged.
    #[test]
    fn oversized_thread_counts_are_errors_not_aborts() {
        let dir = std::env::temp_dir().join("anomex-cli-test-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.nfv5");
        let path_s = path.to_str().unwrap().to_string();
        let argv = |v: &[&str]| Args::parse(v.iter().map(ToString::to_string)).unwrap();
        generate(&argv(&["generate", "--out", &path_s, "--intervals", "1"])).unwrap();

        let many = ["--in", &path_s, "--threads", "100000"];
        let err = extract(&argv(&[&["extract"][..], &many[..]].concat())).unwrap_err();
        assert!(err.contains("--threads"), "extract: {err}");
        let err = stream(&argv(&[&["stream"][..], &many[..]].concat())).unwrap_err();
        assert!(err.contains("--threads"), "stream: {err}");
        let analyze_args = [&["analyze", "--metadata", "dstPort=80"][..], &many[..]].concat();
        let err = analyze(&argv(&analyze_args)).unwrap_err();
        assert!(err.contains("--threads"), "analyze: {err}");
        std::fs::remove_file(&path).ok();

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
        let argv = |v: &[&str]| Args::parse(v.iter().map(ToString::to_string)).unwrap();
        let out = std::env::temp_dir().join("anomex-cli-test-scale.nfv5");
        let out_s = out.to_str().unwrap();
        let two_weeks = ["generate", "--out", out_s, "--scenario", "two-weeks"];
        for bad in ["0", "-1", "nan", "inf", "1e300"] {
            let err = generate(&argv(&[&two_weeks[..], &["--scale", bad]].concat())).unwrap_err();
            assert!(err.contains("--scale"), "generate --scale {bad}: {err}");
            let err = table2(&argv(&["table2", "--scale", bad])).unwrap_err();
            assert!(err.contains("--scale"), "table2 --scale {bad}: {err}");
        }
        generate(&argv(
            &[&two_weeks[..], &["--scale", "0.01", "--intervals", "1"]].concat(),
        ))
        .expect("a valid scale still generates");
        let err = generate(&argv(&["generate", "--out", out_s, "--scale", "0.5"])).unwrap_err();
        assert!(err.contains("does not take --scale"), "{err}");
        std::fs::remove_file(&out).ok();
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
