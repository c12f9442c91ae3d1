//! The `anomex` subcommands.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use anomex_core::{
    latency_percentile, prefilter_indices_columns, render_report, render_report_with_levels,
    render_rule_merge, Engine, ExtractionConfig, MultiSourceExtractor, MultiStreamEvent,
    PrefilterMode, ReconfigRequest, TransactionMode,
};
use anomex_detector::{DetectorConfig, MetaData};
use anomex_mining::{mine_top_k, RuleConfig, RARE_SUPPORT_GUARD};
use anomex_netflow::v5::V5Exporter;
use anomex_netflow::v9::TraceReader;
use anomex_netflow::{
    Arrival, FeatureValue, FlowColumns, FlowRecord, ReadStats, Replay, ReplayError,
    ReplayErrorKind, SourceId, MINUTE_MS,
};
use anomex_traffic::table2::paper_counts;
use anomex_traffic::{table2_workload, MultiSourceScenario, Scenario};

use crate::args::Args;

/// CLI usage text.
pub const USAGE: &str = "\
anomex — anomaly extraction in backbone networks (Brauckhoff et al., IMC'09/ToN'12)

USAGE:
  anomex generate --out FILE [--out FILE ...] [--seed N] [--intervals N]
                  [--scenario small|two-weeks] [--scale X] [--sources N]
      Synthesize a workload and write it as concatenated NetFlow v5 datagrams.
      --scale X (two-weeks only, default 0.25) multiplies the flow volume;
      intervals that hold no flow at all are an error, and no file is written.
      With --sources N > 1, synthesize an N-link multi-exporter workload
      (anomalies on link 0, tapering rates and clock skews on the rest)
      and write one trace file per link. --sources is at least 1
      (default 1), and --out is given exactly once per source, each a
      distinct file path (not -: generate does not write to stdout).

  anomex extract --in FILE [--in FILE ...] [--interval-min N] [--training N]
                 [--support N] [--threads N] [--prefixes] [--intersection]
                 [--rules] [--min-confidence C] [--min-lift L] [--rare]
                 [--force-rare] [--timings]
      Run the full detection + extraction pipeline over a trace file and
      print a Table II-style report per alarmed interval. Extraction
      mines with FP-growth, which finds the item-sets and supports the
      paper's Apriori finds; `anomex table2` prints Apriori's per-round
      audit trail, derived from those item-sets. --threads N is accepted
      for compatibility and selects nothing: each interval runs on one
      engine thread, which extracts one interval while the next is read.
      extract is `anomex stream` without the stream-only options: each
      capture is replayed in file order while one reader thread reads
      them all, and with several
      --in files each is one exporter on a shared interval grid (its own
      clock starts at the window of its first flow) and an interval's
      flows are concatenated in file order. A capture that cannot be
      read to its end is an error (exit 1) once the replay reaches the
      failing stretch: the intervals closed before it are printed, the
      summary is not. Captures must be in
      flow-start order, as `anomex generate` writes them: a flow whose
      interval has already closed (as in a router export ordered by flow
      expiry) is dropped, and a `dropped flows:` line after the summary
      counts it. --rules (or any rule option) layers association rules
      X => Y on the mined item-sets, filtered by confidence >= C
      (default 0.6) and lift >= L (default 1.0) and ranked by a z-score
      meta-detection pass over the interval's rule population; --rare
      lowers the support floor per itemset level to keep low-support
      attacks minable. --rare with --support below 128
      is rejected (the lowered floor can explode the mining pass on
      large intervals); pass --force-rare to run it anyway. With
      several --in files the rules are additionally re-mined per source
      at weighted support floors and merged. --timings ends the output
      with one `timings:` line of key=value pairs: reading the captures
      (read_ms, read_flows, read_ns_per_flow: the reader thread, which
      runs beside the engine at most 32 blocks of 4 096 flows ahead of
      the replay on each --in; read_ns_per_flow leaves out read_full_ms,
      its time waiting for the replay to hand a block back), the time
      the replay waited for flows not read yet (read_wait_ms), the most
      blocks read ahead at once over every --in
      (read_ahead_peak_blocks), assembling the intervals (assembly_ms,
      assembly_ns_per_flow, per flow fed), the engine's summed
      per-interval time (engine_ms), and the process's peak resident set
      (peak_rss_kib, where /proc can tell).

  anomex stream --in FILE|- [--in FILE ...] [--interval-min N] [--training N]
                [--support N] [--threads N] [--max-lag N] [--prefixes]
                [--intersection] [--verbose]
                [--rules] [--min-confidence C] [--min-lift L] [--rare]
                [--force-rare] [--checkpoint-dir DIR] [--checkpoint-every N]
                [--resume] [--stop-after N] [--timings]
      Replay a trace (or NetFlow v5 datagrams on stdin with --in -)
      through the continuous streaming engine: flows are assembled into
      Δ-minute intervals while the previous interval runs detection and
      extraction on one engine thread (--threads N is accepted for
      compatibility, as in extract). Prints a report per
      alarmed interval as it closes, then per-interval latency
      percentiles and drop counters. Each --in file is one exporter on
      a shared interval grid (watermark merge; one --in is a fan-in of
      one), replayed in collector arrival order with its v9/IPFIX
      heartbeats (each takes effect when a later flow arrives on any
      --in; those after the last flow are ignored); --in - may be given
      once, and is replayed as it arrives; as in extract, a flow out of
      start order is a late drop and a read error ends the command;
      --max-lag N bounds how many intervals the fastest source may run
      ahead (0 = unbounded). The reports are those `anomex extract`
      prints for the same --in list: the two commands run one replay
      and differ only in their options and closing summary. --timings
      adds extract's `timings:` line to that summary.
      Durable operation, for any number of --in files: --checkpoint-dir
      DIR atomically snapshots the full online state (detector
      baselines, the interval grid with every source's watermark and
      in-progress window, drop and audit counters) to DIR/stream.ckpt
      every N closed intervals (--checkpoint-every, default 1); --resume
      restores from it — configuration included — skips the flows
      already consumed (give the same --in list), and continues the
      event stream bit-identically. With --resume, an --interval-min,
      --training, --max-lag, --prefixes or --intersection that
      differs from the checkpoint's is refused (omit it, or give the
      checkpoint's value), and --support and the rule options are not
      read: the checkpoint's own, which a reconfig file may have
      changed, run on. --stop-after N exits cleanly after N intervals
      with a final checkpoint (the kill-and-resume e2e cut point). A
      `reconfig` file in DIR (`min-support=N`, `alpha=X`,
      `rules=on|off`, one per line) is consumed at the next interval
      boundary and applied atomically without dropping flows, or refused
      whole; the verdict is counted in the `reconfigurations:` trailer
      line.

  anomex analyze --in FILE --metadata \"dstPort=7000,#packets=12\" [--support N]
                 [--top] [--k N] [--prefixes] [--intersection]
                 [--rules] [--min-confidence C] [--min-lift L] [--rare]
                 [--force-rare]
      Offline extraction with explicit meta-data (the §II-B workflow),
      configured by the same options as extract (the rule options add
      the ranked association rules to the report, and --rare has the
      same guard). With --top, mine the --k N (default 10) most frequent
      item-sets instead of using a fixed support; --k needs --top, and
      --top takes neither --support nor the rule options.

  anomex table2 [--scale X]
      Reproduce the paper's Table II example: the report includes the
      per-round audit trail of the paper's Apriori, whose rounds are
      derived from FP-growth's frequent item-sets.

  anomex help

Each option is given at most once, except where its block shows `...`.";

/// Write one line to stderr. A closed stderr loses the line and nothing
/// else: `eprintln!` would panic, turning an error exit (or a clean one
/// after a checkpoint note) into exit 101.
pub fn note(line: impl std::fmt::Display) {
    writeln!(std::io::stderr(), "{line}").ok();
}

/// Run the command `args` names. A command takes exactly the options
/// its [`USAGE`] block lists, and any other is an error, never silently
/// ignored.
pub fn run(args: &Args) -> Result<(), String> {
    type Body = fn(&Args, &mut std::io::StdoutLock<'static>) -> Result<(), String>;
    let command = args.command.as_str();
    let body: Body = match command {
        "generate" => generate_to,
        "extract" | "stream" => replay_to,
        "analyze" => analyze_to,
        "table2" => table2_to,
        "help" | "-h" => |_, out| help_to(out),
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    if let Some(key) = args.keys().find(|key| !takes(command, key)) {
        return Err(format!(
            "{command} does not take --{key} (see `anomex help`)"
        ));
    }
    if let Some(key) = (args.keys()).find(|key| args.count(key) > 1 && !repeats(command, key)) {
        return Err(format!(
            "--{key} is given more than once, but {command} takes it once (see `anomex help`)"
        ));
    }
    body(args, &mut std::io::stdout().lock())
}

/// The [`USAGE`] block of `command`.
fn usage_block(command: &str) -> Option<&'static str> {
    (USAGE.split("\n  anomex ")).find(|block| block.split_whitespace().next() == Some(command))
}

/// Whether `command` takes `--key`: whether its [`USAGE`] block lists
/// it.
fn takes(command: &str, key: &str) -> bool {
    usage_block(command).is_some_and(|block| {
        (block.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .any(|word| word.strip_prefix("--") == Some(key))
    })
}

/// Whether `command` takes `--key` more than once: whether its
/// [`USAGE`] block shows `[--key VALUE ...]`.
fn repeats(command: &str, key: &str) -> bool {
    usage_block(command).is_some_and(|block| {
        let words: Vec<&str> = block.split_whitespace().collect();
        (words.windows(3)).any(|w| w[0].strip_prefix("[--") == Some(key) && w[2] == "...]")
    })
}

/// `anomex help`: print [`USAGE`].
fn help_to(out: &mut impl Write) -> Result<(), String> {
    writeln!(out, "{USAGE}").map_err(write_error)
}

/// The `generate` body, printing its summary to `out`.
fn generate_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let sources = args.get_or("sources", 1usize).map_err(|e| e.to_string())?;
    if sources == 0 {
        return Err("--sources must be at least 1".into());
    }
    // Every consumer refuses an empty trace, so none is written.
    if args.get_or("intervals", 1u64).map_err(|e| e.to_string())? == 0 {
        return Err("--intervals must be at least 1".into());
    }
    let path = args.require("out")?;
    let outs = args.get_all("out");
    if outs.len() != sources {
        return Err(format!(
            "--sources {sources} needs exactly {sources} --out files (got {})",
            outs.len()
        ));
    }
    // Either would lose a link silently: `-` names a file, not stdout,
    // and a repeated path keeps only the last link written to it.
    if outs.iter().any(|p| p == "-") {
        return Err("--out - would write a file named \"-\", not stdout; name a file".into());
    }
    if let Some(dup) = (1..outs.len()).find_map(|i| outs[..i].iter().find(|p| **p == outs[i])) {
        return Err(format!(
            "--out {dup} is given more than once; each source needs its own file"
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

    let (bytes, flow_count) = export_trace(intervals, |i| scenario.generate(i).flows)?;
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
/// scaled interval up front, and a failed allocation aborts the process,
/// so a non-finite or non-positive scale, or one whose interval the
/// allocator refuses to reserve, is an error here instead of a panic or
/// an abort there.
fn parse_scale(args: &Args, default: f64, unit_flows: u64) -> Result<f64, String> {
    let scale = args.get_or("scale", default).map_err(|e| e.to_string())?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!(
            "--scale must be a positive finite number (got {scale})"
        ));
    }
    // Twice the mean volume covers the diurnal peak and the jitter. The
    // reservation is freed unused (`as` saturates a huge count, which
    // the reservation refuses as a capacity overflow).
    let flows = (2.0 * unit_flows as f64 * scale) as usize;
    if Vec::<FlowRecord>::new().try_reserve_exact(flows).is_err() {
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

    // Every link is synthesized before the first file is written, so a
    // link without flows leaves no file behind.
    let traces = (0..outs.len())
        .map(|s| {
            export_trace(intervals, |i| scenario.generate(s, i).flows)
                .map_err(|e| format!("source {s}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (s, (path, (bytes, flow_count))) in outs.iter().zip(traces).enumerate() {
        let link = scenario.links()[s];
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

/// The first `intervals` intervals, `flows_of` each, as concatenated
/// NetFlow v5 datagrams, with their flow count. Every consumer refuses
/// an empty trace, so intervals without a flow are an error.
fn export_trace(
    intervals: u64,
    flows_of: impl Fn(u64) -> Vec<FlowRecord>,
) -> Result<(Vec<u8>, u64), String> {
    let mut exporter = V5Exporter::new();
    let (mut bytes, mut flow_count) = (Vec::new(), 0u64);
    for i in 0..intervals {
        let flows = flows_of(i);
        flow_count += flows.len() as u64;
        for dgram in exporter.export(&flows) {
            bytes.extend_from_slice(&dgram);
        }
    }
    if flow_count == 0 {
        return Err(format!(
            "the {intervals} synthesized interval(s) hold no flows, and every consumer \
             refuses an empty trace; no file was written"
        ));
    }
    Ok((bytes, flow_count))
}

/// A capture file, or stdin, which a replay reads alike.
type Capture = Box<dyn Read + Send>;

/// Open the capture at `path`, stdin when it is `-`.
fn open_capture(path: &str) -> Result<Capture, String> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin()));
    }
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(Box::new(file))
}

/// The name a capture's errors give it: its path, or `stdin` for `-`.
fn capture_name(path: &str) -> String {
    if path == "-" { "stdin" } else { path }.to_string()
}

/// Load all flows from a capture, ignoring any v9/IPFIX punctuation
/// (`analyze` extracts from one flow set and has no watermark to
/// release).
fn load_flows(path: &str) -> Result<Vec<FlowRecord>, String> {
    let mut capture = TraceReader::new(open_capture(path)?);
    let mut flows = Vec::new();
    while let Some(packet) = capture.read_into(&mut flows) {
        packet.map_err(|e| {
            let (source, kind) = (capture_name(path), ReplayErrorKind::Read(e));
            ReplayError { source, kind }.to_string()
        })?;
    }
    Ok(flows)
}

/// Parse `--threads N` (default 1), which selects nothing: every
/// interval runs on one engine thread. `extract` and `stream` keep
/// taking it, and echo it in their closing summary, so command lines
/// and reports written for older builds still work; any value but 1
/// gets a note saying it is ignored.
fn parse_threads(args: &Args) -> Result<usize, String> {
    let n = args.get_or("threads", 1usize).map_err(|e| e.to_string())?;
    if n != 1 {
        note(format_args!(
            "--threads {n} is accepted for compatibility: each interval runs on one engine thread"
        ));
    }
    Ok(n)
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
/// `--support`, `--prefixes`, `--intersection` and the rule
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

/// Open the `--in` captures in command-line order, each named by
/// [`capture_name`]: at least one, and stdin feeds one lane only.
fn open_captures(args: &Args) -> Result<Vec<(String, Capture)>, String> {
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        args.require("in")?;
    }
    if inputs.iter().filter(|path| *path == "-").count() > 1 {
        return Err("--in - is given more than once, but there is only one stdin".into());
    }
    (inputs.iter())
        .map(|path| Ok((capture_name(path), open_capture(path)?)))
        .collect()
}

fn write_error(e: std::io::Error) -> String {
    format!("cannot write output: {e}")
}

/// Prints each streamed interval as it arrives — the `--verbose` line,
/// then, on alarm, the Table II-style report and a fan-in's per-source
/// rule merge — and drops it, keeping only the latency the trailer
/// needs.
struct StreamPrinter<'w, W: Write> {
    out: &'w mut W,
    verbose: bool,
    /// Added to grid time in the `--verbose` window: one exporter's own
    /// clock origin, or 0 for a fan-in (grid time).
    clock_ms: u64,
    latencies: Vec<u64>,
}

impl<W: Write> StreamPrinter<'_, W> {
    /// Print the events.
    fn print(&mut self, events: Vec<MultiStreamEvent>) -> Result<(), String> {
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
                text += &render_report(extraction);
                if let Some(merged) = &e.source_rules {
                    text += &render_rule_merge(merged, e.source_flows.len());
                }
                text.push('\n');
            }
        }
        self.out.write_all(text.as_bytes()).map_err(write_error)
    }

    /// Replace the checkpoint file at `path` ([`MultiSourceExtractor::save`])
    /// and print the events that drained.
    fn save(&mut self, engine: &mut MultiSourceExtractor, path: &Path) -> Result<(), String> {
        let (events, saved) = engine.save(path);
        self.print(events)?;
        saved.map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))
    }
}

/// Durable-operation options for `anomex stream`: periodic checkpoints
/// into `--checkpoint-dir`, `--resume` from the latest one, and the
/// `--stop-after` cut used by the kill-and-resume e2e. Both count the
/// intervals the grid has closed in this run — not the events printed so
/// far, which trail them by however many the engine thread still holds —
/// so each cut falls at the same arrival, and prints the same intervals,
/// on every run.
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
/// [--stop-after N]`, rejecting the dependent options without the
/// directory. The caller creates it once nothing can refuse the command.
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
    let stop_after = (args.get("stop-after").is_some())
        .then(|| args.get_or("stop-after", 0u64).map_err(|e| e.to_string()))
        .transpose()?;
    if stop_after == Some(0) {
        return Err("--stop-after must be at least 1".into());
    }
    Ok(Some(Durability {
        dir: PathBuf::from(dir),
        every,
        resume: args.flag("resume"),
        stop_after,
    }))
}

/// Parse the reconfig control file: one `key = value` per line, `#`
/// comments. Keys: `min-support`, `alpha`, `rules=on|off`.
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
/// verdict on stderr (stdout stays byte-comparable across runs). A file
/// that does not parse, or whose configuration fails the `--rare`
/// guard, is refused with the engine untouched; every refusal and
/// every applied request is counted in the stream's audit counters.
/// Returns the interval events that drained around the boundary.
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
                engine.count_refused_reconfig();
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
            engine.count_refused_reconfig();
            note(format_args!(
                "reconfig file {} invalid: {e}; rejected",
                path.display()
            ));
            Vec::new()
        }
    }
}

/// Restore a `stream` session from a checkpoint file written over
/// `sources` traces ([`MultiSourceExtractor::load`]): its lanes must be
/// the `--in` traces, and its configuration must pass the `--rare` guard.
fn restore_from_checkpoint(
    path: &Path,
    sources: usize,
    force_rare: bool,
) -> Result<MultiSourceExtractor, String> {
    let engine = MultiSourceExtractor::load(path)
        .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
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
    Ok(engine)
}

/// Refuse a `--resume` option that the checkpoint's settings, which the
/// resume runs, would drop: a grid (`--interval-min`, `--max-lag`),
/// detector or transaction setting that differs. `--support` and the rule
/// options are not checked: a `reconfig` file may have changed them.
fn check_resume_options(
    args: &Args,
    cli: &ExtractionConfig,
    max_lag: Option<u64>,
    engine: &MultiSourceExtractor,
) -> Result<(), String> {
    let keys = "interval-min training max-lag prefixes intersection".split(' ');
    let settings = |c: &ExtractionConfig, lag: Option<u64>| {
        let on = |set: bool| if set { "on" } else { "off" }.to_string();
        [
            (c.interval_ms / MINUTE_MS).to_string(),
            c.detector.training_intervals.to_string(),
            lag.unwrap_or(0).to_string(),
            on(c.transactions == TransactionMode::WithPrefixes),
            on(c.prefilter == PrefilterMode::Intersection),
        ]
    };
    let given = settings(cli, max_lag);
    let kept = settings(
        engine.config(),
        engine.assembler().config().max_lag_intervals,
    );
    match (keys.zip(given.iter().zip(&kept))).find(|(key, (g, k))| args.count(key) > 0 && g != k) {
        None => Ok(()),
        Some((key, (given, kept))) => Err(format!(
            "--{key} {given} disagrees with the checkpoint's {kept} (a resume runs the \
             checkpoint's settings: omit the option or give the checkpoint's value)"
        )),
    }
}

/// The one body of `extract` and `stream`: the `--in` captures' [`Replay`]
/// into one [`MultiSourceExtractor`], each interval printed as it
/// closes, with optional checkpoints, resume, `--stop-after` and boundary
/// reconfiguration (options only `stream` takes); a capture's failure
/// ends the command where the replay reaches it. The two commands differ
/// only in the summary that ends it.
fn replay_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let config = parse_config(args)?;
    let threads = parse_threads(args)?;
    let force_rare = args.flag("force-rare");
    let verbose = args.flag("verbose");
    let durability = parse_durability(args)?;
    let max_lag = match args.get_or("max-lag", 0u64).map_err(|e| e.to_string())? {
        0 => None,
        n => Some(n),
    };
    let captures = open_captures(args)?;

    // Resume restores the full online state — configuration included —
    // from the checkpoint, and replays from its sources' origins, which
    // fix the flows the skip below passes over; otherwise start cold.
    let resume_from = durability
        .as_ref()
        .filter(|d| d.resume)
        .map(Durability::checkpoint_path)
        .filter(|p| p.exists());
    let (mut engine, mut replay) = if let Some(path) = &resume_from {
        let resumed = restore_from_checkpoint(path, captures.len(), force_rare)?;
        check_resume_options(args, &config, max_lag, &resumed)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
        let (interval_ms, sources) = (resumed.config().interval_ms, resumed.assembler().sources());
        let replay =
            Replay::open(captures, interval_ms, Some(&sources)).map_err(|e| e.to_string())?;
        note(format_args!(
            "resumed from {} ({} flows already consumed)",
            path.display(),
            resumed.total_flows()
        ));
        (resumed, replay)
    } else {
        let replay = Replay::open(captures, config.interval_ms, None).map_err(|e| e.to_string())?;
        let engine =
            MultiSourceExtractor::new(config, &replay.sources(), max_lag).map_err(String::from)?;
        (engine, replay)
    };
    // Nothing can refuse the command now: the checkpoint dir may exist.
    if let Some(d) = &durability {
        fs::create_dir_all(&d.dir)
            .map_err(|e| format!("cannot create --checkpoint-dir {}: {e}", d.dir.display()))?;
    }
    // The run settings every summary line ends with, as the engine
    // runs them (a resume runs the checkpoint's). The miner is always
    // FP-growth; it is still named, so the line reads as it always has.
    let settings = format!(
        "s = {}, Δ = {} min, miner = fp-growth, threads = {threads}",
        engine.config().min_support,
        engine.config().interval_ms / MINUTE_MS,
    );

    let clock_ms = match engine.assembler().sources().as_slice() {
        [one] => one.origin_ms,
        _ => 0,
    };
    let mut printer = StreamPrinter {
        out,
        verbose,
        clock_ms,
        latencies: Vec::new(),
    };
    // A resumed run skips what the checkpointed one fed: its flows, and
    // the heartbeats among them.
    let skipped = engine.total_flows();
    replay.skip(skipped).map_err(|e| e.to_string())?;
    let first = engine.assembler().closed_intervals();
    let mut checkpointed = first;
    // A read error ends the command here, before `finish` would flush the
    // open windows: the output holds the intervals closed before it.
    while let Some((source, arrival)) =
        replay.next(engine.assembler()).map_err(|e| e.to_string())?
    {
        let events = match arrival {
            Arrival::Run(flows) => {
                let (n, events) = engine.push_run(source, &flows);
                replay.consume(source, n);
                events
            }
            Arrival::Heartbeat(ms) => engine.heartbeat(source, ms),
        };
        printer.print(events)?;
        let Some(d) = &durability else {
            continue;
        };
        let closed = engine.assembler().closed_intervals();
        if d.stop_after.is_some_and(|n| closed - first >= n) {
            printer.save(&mut engine, &d.checkpoint_path())?;
            note(format_args!(
                "stopped after {} interval(s); checkpoint at {}",
                closed - first,
                d.checkpoint_path().display()
            ));
            return Ok(());
        }
        if closed - checkpointed >= d.every {
            checkpointed = closed;
            // Reconfig requests are consumed at interval boundaries and
            // land in the checkpoint that follows, so a resume replays
            // the stream under the reconfigured engine. The intervals
            // drained around the boundary ran under the old config.
            printer.print(consume_reconfig_file(&d.dir, &mut engine, force_rare))?;
            printer.save(&mut engine, &d.checkpoint_path())?;
        }
    }
    let read = replay.finish();
    let (tail, summary) = engine.finish();
    printer.print(tail)?;

    let p50 = latency_percentile(&mut printer.latencies, 50.0);
    let p95 = latency_percentile(&mut printer.latencies, 95.0);
    let latency = format!("per-interval latency: p50 = {p50} µs, p95 = {p95} µs; dropped flows:");
    let mut trailer = if args.command == "extract" {
        // An interval counts as alarmed here when it produced an
        // extraction; the drops of an unsorted capture follow, if any.
        let intervals = match summary.sources.len() {
            1 => format!("{} intervals", summary.intervals),
            n => format!("{} merged intervals from {n} sources", summary.intervals),
        };
        let mut text = format!(
            "processed {intervals}, {} alarmed ({settings})\n",
            summary.extractions
        );
        let late: u64 = summary.sources.iter().map(|s| s.late_flows).sum();
        let pre_origin: u64 = summary.sources.iter().map(|s| s.pre_origin_flows).sum();
        if late + pre_origin > 0 {
            text += &format!("dropped flows: {late} late, {pre_origin} pre-origin\n");
        }
        text
    } else if let [one] = summary.sources.as_slice() {
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
    if args.flag("timings") {
        let engine_micros = printer.latencies.iter().sum();
        let fed = summary.total_flows - skipped;
        trailer += &timings_line(&read, summary.assembly, fed, engine_micros);
    }
    printer
        .out
        .write_all(trailer.as_bytes())
        .map_err(write_error)
}

/// The `--timings` trailer line, as `key=value` pairs: the capture
/// reader's time, flow count, time per flow without its wait for a block
/// handed back, and that wait; the replay's wait for the reader
/// ([`Replay::finish`]); the most blocks read ahead at once; the merge
/// grid's assembly time over the `fed` flows fed to it; the engine's
/// summed per-interval time; and the process's peak resident set so far, where
/// [`peak_rss_kib`] can read it.
fn timings_line(read: &ReadStats, assembly: Duration, fed: u64, engine_micros: u64) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_flow = |d: Duration, flows: f64| d.as_secs_f64() * 1e9 / flows.max(1.0);
    let peak = peak_rss_kib().map_or(String::new(), |kib| format!(" peak_rss_kib={kib}"));
    format!(
        "timings: read_ms={:.3} read_flows={} read_ns_per_flow={:.1} read_full_ms={:.3} \
         read_wait_ms={:.3} read_ahead_peak_blocks={} assembly_ms={:.3} \
         assembly_ns_per_flow={:.1} engine_ms={:.3}{peak}\n",
        ms(read.read),
        read.flows,
        per_flow(read.read.saturating_sub(read.full), read.flows as f64),
        ms(read.full),
        ms(read.wait),
        read.peak_blocks,
        ms(assembly),
        per_flow(assembly, fed as f64),
        engine_micros as f64 / 1e3
    )
}

/// The process's peak resident set, KiB: `VmHWM` of `/proc/self/status`;
/// `None` where that cannot be read (no `/proc`).
fn peak_rss_kib() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
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

/// The `analyze` body, printing the item-sets (or the report) to `out`.
fn analyze_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let input = args.require("in")?;
    let metadata = parse_metadata(args.require("metadata")?)?;
    // Refuse the options the chosen mode would drop.
    if args.flag("top") && parse_rules(args)?.is_some() {
        return Err("--top does not take rule options".into());
    }
    if args.flag("top") && args.get("support").is_some() {
        return Err("--top finds its own support and does not take --support".into());
    }
    if !args.flag("top") && args.get("k").is_some() {
        return Err("--k needs --top".into());
    }
    // The configuration — validation, error text and `--rare` guard
    // included — `extract` and `stream` run under, before touching the
    // trace.
    let config = parse_config(args)?;
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
        let top = mine_top_k(&transactions, k, start);
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

    let engine = Engine::new(config).map_err(String::from)?;
    let extraction = engine.extract(&flows, &metadata);
    writeln!(out, "{}", render_report(&extraction)).map_err(write_error)
}

/// The `table2` body, printing the report to `out`.
fn table2_to(args: &Args, out: &mut impl Write) -> Result<(), String> {
    let unit_flows =
        paper_counts::FLOODING + paper_counts::WEB + paper_counts::BACKSCATTER + paper_counts::SMTP;
    let w = table2_workload(2009, parse_scale(args, 1.0, unit_flows)?);
    // Apriori's rounds on purpose: Table II narrates its level audit trail.
    let extraction = w.apriori_extraction();
    writeln!(out, "{}", render_report_with_levels(&extraction)).map_err(write_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::{FlowFeature, SourceSpec};

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
            "dropped flows:",
        ];
        text.lines()
            .filter(|l| !trailer.iter().any(|t| l.starts_with(t)))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    /// The batch reference `extract` must match: each `--in` capture
    /// read whole, sorted and sliced on its own grid (`FlowTrace`), and
    /// the per-interval concatenation in file order run through one
    /// `Engine` on the calling thread; a fan-in's rule merge mines the
    /// rows a scan of the meta-data's columns keeps, not the engine's.
    /// Returns the reports (what
    /// [`reports`] keeps of `extract`'s output) and the interval count.
    fn batch_reference(line: &str) -> (String, usize) {
        use anomex_core::source_rules;
        use anomex_netflow::FlowTrace;
        let args = argv(line);
        let config = parse_config(&args).unwrap();
        let mut engine = Engine::new(config.clone()).unwrap();
        let traces: Vec<FlowTrace> = (args.get_all("in").iter())
            .map(|path| FlowTrace::from_flows(load_flows(path).unwrap()))
            .collect();
        let grids: Vec<_> = (traces.iter())
            .map(|trace| {
                let first = trace.start_ms().unwrap();
                trace.intervals(first - first % config.interval_ms, config.interval_ms)
            })
            .collect();
        let total = grids.iter().map(Vec::len).max().unwrap();
        let mut text = String::new();
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
                text += &render_report(&extraction);
                if grids.len() >= 2 {
                    let cols = FlowColumns::from_flows(&merged);
                    let metadata = &extraction.metadata;
                    let rows = prefilter_indices_columns(&cols, metadata, config.prefilter);
                    if let Some(rules) = source_rules(&cols, &source_flows, &rows, &config) {
                        text += &render_rule_merge(&rules, grids.len());
                    }
                }
                text.push('\n');
            }
        }
        (reports(&text), total)
    }

    /// The output with each `… µs` reading (the `--verbose` column, the
    /// latency percentiles) replaced by `X`, the one part that varies
    /// run to run.
    fn mask_micros(text: &str) -> String {
        text.lines()
            .map(|l| {
                let mut words: Vec<&str> = l.split_whitespace().collect();
                for i in 1..words.len() {
                    if words[i].starts_with("µs") {
                        words[i - 1] = "X";
                    }
                }
                words.join(" ") + "\n"
            })
            .collect()
    }

    /// Length of a checkpoint file's header: magic, version, payload
    /// length and checksum.
    const HEADER: usize = 28;

    /// A checkpoint file of format `version` around `payload`, framed by
    /// hand: what an older binary wrote, or a payload edited after
    /// [`MultiSourceExtractor::save`].
    fn checkpoint_file(version: u32, payload: &[u8]) -> Vec<u8> {
        use anomex_netflow::snapshot::{fnv1a64, CHECKPOINT_MAGIC};
        let mut file = CHECKPOINT_MAGIC.to_vec();
        file.extend_from_slice(&version.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// The trailer line starting with `prefix`.
    fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in {text}"))
    }

    /// `--timings` adds one `timings:` line of `key=value` pairs to the
    /// trailer and changes nothing else: on a two-link fan-in, for
    /// `extract` and `stream`, the line parses, reads every flow of both
    /// captures, times each stage at a finite non-negative value, and
    /// everything before it is the output without the option.
    #[test]
    fn timings_print_one_parseable_trailer_line() {
        let dir = scratch_dir("anomex-cli-timings-test");
        let scenario = MultiSourceScenario::uniform(4, 2);
        let ins = write_traces(&dir, 2, 14, |s, i| scenario.generate(s, i).flows).join(" ");
        let flows: usize = (0..2)
            .map(|s| {
                (0..14)
                    .map(|i| scenario.generate(s, i).flows.len())
                    .sum::<usize>()
            })
            .sum();
        for command in ["extract", "stream --verbose"] {
            let line = format!("{command} {ins} --interval-min 1 --training 10 --support 200");
            let plain = mask_micros(&run(replay_to, &line));
            let timed = run(replay_to, &format!("{line} --timings"));
            let (rest, last) = timed.trim_end().rsplit_once('\n').unwrap();
            assert_eq!(mask_micros(&format!("{rest}\n")), plain, "{command}");
            let pairs: Vec<(&str, f64)> = (last.strip_prefix("timings: "))
                .unwrap_or_else(|| panic!("{command}: last line {last:?}"))
                .split(' ')
                .map(|pair| {
                    let (key, value) = pair.split_once('=').unwrap();
                    (key, value.parse().unwrap())
                })
                .collect();
            let keys: Vec<&str> = pairs.iter().map(|p| p.0).collect();
            let mut expected = vec![
                "read_ms",
                "read_flows",
                "read_ns_per_flow",
                "read_full_ms",
                "read_wait_ms",
                "read_ahead_peak_blocks",
                "assembly_ms",
                "assembly_ns_per_flow",
                "engine_ms",
            ];
            // Where /proc tells, the line ends with the peak, in whole KiB.
            let peak = peak_rss_kib();
            if peak.is_some() {
                expected.push("peak_rss_kib");
                let kib = pairs[9].1;
                assert!(kib >= 1024.0 && kib.fract() == 0.0, "{command}: {kib} KiB");
            }
            assert_eq!(keys, expected, "{command}");
            assert_eq!(pairs[1].1, flows as f64, "{command}: flows read");
            assert!(
                pairs.iter().all(|p| p.1.is_finite() && p.1 >= 0.0),
                "{command}: {pairs:?}"
            );
            let peak_blocks = pairs[5].1;
            assert!((1.0..=64.0).contains(&peak_blocks), "{command}: {pairs:?}");
            assert!(pairs[6].1 > 0.0 && pairs[8].1 > 0.0, "{command}: {pairs:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
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

    /// Extraction mines with FP-growth, which keeps no level audit;
    /// `table2`'s Apriori extraction derives its rounds from the same
    /// item-sets, so the two render the same report apart from the audit
    /// trail.
    #[test]
    fn extraction_reports_what_table2_apriori_mines() {
        let w = table2_workload(2009, 0.01);
        let config = ExtractionConfig {
            min_support: w.min_support,
            ..ExtractionConfig::default()
        };
        let ex = Engine::new(config)
            .unwrap()
            .extract(&w.flows, &w.metadata());
        assert!(!ex.itemsets.is_empty(), "the flood is extracted");
        assert!(
            ex.levels.is_empty(),
            "extraction ran Apriori: {:?}",
            ex.levels
        );
        let apriori = w.apriori_extraction();
        assert!(
            !apriori.levels.is_empty(),
            "Apriori still records its rounds"
        );
        assert_eq!(render_report(&apriori), render_report(&ex));
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
        let req = parse_reconfig("# boundary reconfig\nmin-support = 400\nalpha=4.5\nrules = on\n")
            .unwrap();
        assert_eq!(req.min_support, Some(400));
        assert_eq!(req.alpha, Some(4.5));
        assert_eq!(req.rules, Some(Some(RuleConfig::default())));
        let req = parse_reconfig("rules=off").unwrap();
        assert_eq!(req.rules, Some(None));
        assert!(parse_reconfig("").unwrap().is_empty());
        assert!(parse_reconfig("min-support").is_err(), "no value");
        assert!(parse_reconfig("min-support=lots").is_err());
        assert!(parse_reconfig("rules=maybe").is_err());
        assert!(parse_reconfig("frobnicate=1").is_err());
        for key in ["shards", "threads"] {
            let err = parse_reconfig(&format!("{key}=2")).unwrap_err();
            assert_eq!(err, format!("unknown reconfig key {key:?}"));
        }
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

    /// A saved checkpoint file resumes through the CLI's checks, and the
    /// restored engine continues the stream and its flow count; a
    /// truncated file or a different source count fails with a
    /// diagnostic, not a panic.
    #[test]
    fn checkpoint_file_round_trips_and_rejects_corruption() {
        use anomex_netflow::Protocol;
        let dir = scratch_dir("anomex-cli-checkpoint-test");
        let path = dir.join("stream.ckpt");

        let config = ExtractionConfig {
            interval_ms: 1_000,
            min_support: 10,
            ..ExtractionConfig::default()
        };
        let one = [SourceSpec::new(0u32, 0)];
        let mut engine = MultiSourceExtractor::new(config, &one, None).unwrap();
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
        engine.save(&path).1.unwrap();

        let mut resumed = restore_from_checkpoint(&path, 1, false).unwrap();
        assert_eq!(resumed.total_flows(), 2);
        let _ = resumed.push(SourceId(0), flow(2_500));
        let (_, summary) = resumed.finish();
        assert_eq!(summary.total_flows, 3, "resumed run continues the count");

        let err = restore_from_checkpoint(&path, 2, false).unwrap_err();
        assert!(err.contains("1 source(s) but 2 --in"), "{err}");

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = restore_from_checkpoint(&path, 1, false).unwrap_err();
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

    /// The replay of one trace file must print exactly the reports of
    /// the batch reference over the same file, through `extract` and
    /// through `stream`.
    #[test]
    fn stream_replay_matches_batch_extract() {
        let dir = scratch_dir("anomex-cli-replay-test");
        let scenario = Scenario::small(23);
        let ins = write_traces(&dir, 1, 40, |_, i| scenario.generate(i).flows).join(" ");
        // Rules on: the rendered reports then carry the ranked-rule
        // section, so this also pins rule determinism batch vs stream.
        let opts = format!("{ins} --interval-min 1 --training 4 --support 800 --rules");
        let (batch, total) = batch_reference(&format!("extract {opts}"));
        let extracted = run(replay_to, &format!("extract {opts}"));
        let streamed = run(replay_to, &format!("stream {opts}"));
        assert!(batch.contains("Anomaly extraction report"), "it alarms");
        assert_eq!(total, 40);
        assert_eq!(reports(&extracted), batch, "extract diverged");
        assert_eq!(reports(&streamed), batch, "stream diverged");
        // One alarm has no meta-data to extract with, and `extract`
        // counts the intervals that produced a report.
        let streamed_line = line(&streamed, "streamed ");
        assert!(streamed_line.contains(" into 40 intervals: 4 alarmed, 3 extracted "));
        assert_eq!(batch.matches("Anomaly extraction report").count(), 3);
        assert!(line(&extracted, "processed ").starts_with("processed 40 intervals, 3 alarmed ("));
        assert!(line(&streamed, "per-interval latency:")
            .ends_with("dropped flows: 0 late, 0 pre-origin"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The multi-source fan-in must reproduce exactly the batch
    /// reference's per-interval concatenation over the same trace files,
    /// through real NetFlow v5 files with skewed per-source clocks.
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
        let (batch, total) = batch_reference(&format!("extract {opts}"));
        let extracted = run(replay_to, &format!("extract {opts}"));
        let streamed = run(replay_to, &format!("stream {opts}"));
        assert!(
            batch.contains("Per-source rule merge — 2 source(s)"),
            "multi-source reports carry the merge section"
        );
        assert_eq!(reports(&extracted), batch, "extract fan-in diverged");
        assert_eq!(reports(&streamed), batch, "stream fan-in diverged");
        // The skewed link spills past its inferred (floored) origin into
        // one extra trailing window, so the merged grid may exceed the
        // generator's interval count by one — and both grids agree.
        assert!(total as u64 >= intervals, "{total} < {intervals}");
        assert!(line(&extracted, "processed ").starts_with(&format!(
            "processed {total} merged intervals from 2 sources, "
        )));
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
        let opts = "--interval-min 1 --training 10 --support 800 --rules";
        let opts = format!("stream {ins} {opts}");
        let durable = format!("{opts} --checkpoint-dir {}", dir.display());
        let full = run(replay_to, &opts);
        let part1 = run(replay_to, &format!("{durable} --stop-after 12"));
        let part2 = run(replay_to, &format!("{durable} --resume"));
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

    /// A resume restores the configuration from the checkpoint, so one
    /// given only the `--in` list continues the fan-in exactly: the
    /// lanes keep the checkpointed run's origins (the replay order, and
    /// what the resume skips, follow from them) and the trailer names
    /// the restored settings. Link 0 starts 10 ms before a minute
    /// boundary, so the default Δ of 15 min would put both lanes on
    /// origin 0 where the 1-minute run put link 1 on 60 000 ms.
    #[test]
    fn fan_in_resume_given_only_the_inputs_continues_the_run() {
        let dir = scratch_dir("anomex-cli-fanin-bare-resume-test");
        let scenario = Scenario::small(11);
        let ins = write_traces(&dir, 2, 25, |s, i| {
            let mut flows = scenario.generate(i + 1).flows;
            if s == 0 {
                for flow in &mut flows {
                    flow.start_ms -= 10;
                    flow.end_ms -= 10;
                }
            }
            flows
        })
        .join(" ");
        let durable = format!("stream {ins} --checkpoint-dir {}", dir.display());
        let opts = "--interval-min 1 --training 10 --support 800";
        let full = run(replay_to, &format!("stream {ins} {opts}"));
        let part1 = run(replay_to, &format!("{durable} {opts} --stop-after 12"));
        let part2 = run(replay_to, &format!("{durable} --resume"));
        assert!(
            reports(&part2).contains("Anomaly extraction report"),
            "the resumed half extracts the flood"
        );
        assert_eq!(reports(&format!("{part1}{part2}")), reports(&full));
        let trailer = line(&part2, "fan-in:");
        assert_eq!(trailer, line(&full, "fan-in:"));
        assert!(trailer.contains("(s = 800, Δ = 1 min, "), "{trailer}");
        for prefix in ["source src0 ", "source src1 "] {
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
        use anomex_netflow::snapshot::SnapshotWriter;
        use anomex_netflow::IntervalAssembler;
        let dir = scratch_dir("anomex-cli-v1-resume-test");
        let scenario = Scenario::small(11);
        let ins = write_traces(&dir, 1, 25, |_, i| scenario.generate(i).flows).join(" ");
        let opts = format!("stream {ins} --interval-min 1 --training 10 --support 800");
        let full = run(replay_to, &opts);

        // The single-source engine, stopped after the push that closed
        // its 12th interval (what `--stop-after 12` did).
        let config = parse_config(&argv(&opts)).unwrap();
        let flows = load_flows(argv(&opts).require("in").unwrap()).unwrap();
        let first = flows[0].start_ms;
        let origin = first - first % config.interval_ms;
        let mut assembler = IntervalAssembler::new(origin, config.interval_ms);
        let mut engine = Engine::new(config).unwrap();
        let mut counters = [0u64; 5];
        let mut part1 = String::new();
        let mut consumed = 0u64;
        for flow in &flows {
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
        let file = checkpoint_file(1, &framing.into_bytes());
        std::fs::write(dir.join("stream.ckpt"), file).unwrap();

        let part2 = run(
            replay_to,
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
            replay_to,
            &format!("stream {} {durable} --stop-after 1", ins.join(" ")),
        );
        let one = argv(&format!("stream {} {durable} --resume", ins[0]));
        let err = replay_to(&one, &mut Vec::new()).unwrap_err();
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
        let captures = open_captures(&args).unwrap();
        let sources = (Replay::open(captures, config.interval_ms, None).unwrap()).sources();
        // A distinctive id, so the test can find it in the payload and
        // rewrite it to 0 — a duplicate `new` would have refused.
        const MARK: u32 = 0x5EC0_1D1D;
        for (ids, duplicate) in [([0, 5], false), ([0, MARK], true)] {
            let specs: Vec<_> = (ids.iter().zip(&sources))
                .map(|(&id, spec)| SourceSpec::new(id, spec.origin_ms))
                .collect();
            let mut engine = MultiSourceExtractor::new(config.clone(), &specs, None).unwrap();
            let path = dir.join("stream.ckpt");
            engine.save(&path).1.unwrap();
            if duplicate {
                let mut file = std::fs::read(&path).unwrap();
                let at = (file.windows(4))
                    .position(|w| w == MARK.to_le_bytes())
                    .unwrap();
                file[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
                std::fs::write(&path, checkpoint_file(2, &file[HEADER..])).unwrap();
            }
            let err = replay_to(&args, &mut Vec::new()).unwrap_err();
            assert!(err.starts_with("cannot resume from"), "{ids:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Heartbeats at a lane's edges open no windows. One ahead of the
    /// first flow changes nothing: the grid starts at the window of that
    /// flow, even when the first datagram straddles a window boundary.
    /// One after the last flow is never released by a later flow, so the
    /// replay closes the flows' two intervals, and a far-future one
    /// (`u32::MAX` seconds) finishes at once instead of opening a window
    /// for every interval up to it.
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
            let mut bytes = encode_v9_options_template(30, 0, 0);
            bytes.extend(
                V5Exporter::new()
                    .export(&[flow(119_000), flow(121_000)])
                    .concat(),
            );
            bytes.extend_from_slice(&encode_v9_options_template(secs, 1, 0));
            std::fs::write(&path, &bytes).unwrap();
            let opts = format!("--in {} --interval-min 1", path.display());
            let batch = run(replay_to, &format!("extract {opts}"));
            let streamed = run(replay_to, &format!("stream {opts}"));
            assert!(line(&batch, "processed ").starts_with("processed 2 intervals, "));
            assert!(!batch.contains("dropped flows:"), "{batch}");
            assert!(
                line(&streamed, "streamed ").starts_with("streamed 2 flows into 2 intervals: "),
                "heartbeat at {secs} s: {streamed}"
            );
            let verbose = run(replay_to, &format!("stream {opts} --verbose"));
            assert!(line(&verbose, "interval ").contains("[60000 ms, 120000 ms)"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// In a fan-in, an exporter whose flows stop early keeps sending
    /// keepalives, and those still close its windows while the other
    /// link runs on: the merged grid drops nothing and matches the batch
    /// reference with or without `--max-lag`. Only the one dated past
    /// every lane's last flow (`u32::MAX` seconds) is ignored.
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
        let (batch, total) = batch_reference(&format!("extract {opts}"));
        assert!(batch.contains("Anomaly extraction report"), "it alarms");
        let expected = format!(" into {total} merged intervals: ");
        for lag in ["", "--max-lag 3"] {
            let streamed = run(replay_to, &format!("stream {opts} {lag}"));
            assert_eq!(reports(&streamed), batch, "{lag}");
            assert!(line(&streamed, "fan-in:").contains(&expected), "{lag}");
            let drops = line(&streamed, "per-interval");
            assert!(drops.ends_with("dropped flows: 0 total"), "{lag}: {drops}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Capture files interleaving v5 datagrams with v9/IPFIX
    /// options-template keepalives replay to exactly what the same files
    /// without them replay to, interval line by interval line:
    /// heartbeats advance watermarks, they never carry or drop flows.
    #[test]
    fn punctuated_trace_heartbeats_flow_into_the_grid() {
        use anomex_netflow::v9::{
            decode_mixed_stream, encode_ipfix_options_template, encode_v9_options_template,
            TraceItem,
        };
        let dir = scratch_dir("anomex-cli-punctuation-test");
        let scenario = MultiSourceScenario::uniform(17, 2);
        let intervals = scenario.interval_count().min(16);
        let paths = [0, 1].map(|s| dir.join(format!("link{s}.nf")).display().to_string());
        let opts = format!(
            "stream --in {} --in {} --interval-min 1 --training 8 --support 800 --verbose",
            paths[0], paths[1]
        );
        let mut outputs = Vec::new();
        for punctuated in [true, false] {
            for (s, path) in paths.iter().enumerate() {
                let mut exporter = V5Exporter::new();
                let mut bytes = Vec::new();
                for i in 0..intervals {
                    let flows = scenario.generate(s, i).flows;
                    let end_secs = flows.last().map_or(0, |f| (f.start_ms / 1000) as u32);
                    bytes.extend(exporter.export(&flows).concat());
                    // An options-template keepalive after each interval's
                    // flows, v9 on source 0 and IPFIX on source 1.
                    if punctuated {
                        bytes.extend(if s == 0 {
                            encode_v9_options_template(end_secs, i as u32, s as u32)
                        } else {
                            encode_ipfix_options_template(end_secs, i as u32, s as u32)
                        });
                    }
                }
                let beats = (decode_mixed_stream(&bytes).unwrap().iter())
                    .filter(|item| matches!(item, TraceItem::Heartbeat(_)))
                    .count() as u64;
                assert_eq!(beats, if punctuated { intervals } else { 0 });
                std::fs::write(path, &bytes).unwrap();
            }
            outputs.push(mask_micros(&run(replay_to, &opts)));
        }
        let [punctuated, plain] = [&outputs[0], &outputs[1]];
        assert!(line(punctuated, "interval ").contains(" flows "));
        assert!(line(punctuated, "per-interval").ends_with("dropped flows: 0 total"));
        assert_eq!(punctuated, plain, "punctuation changed the output");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An unsorted capture — two windows' datagrams swapped in file
    /// order — replays as it arrives: the flows whose window had already
    /// closed are late drops (pre-origin ones when the swap moves the
    /// first window behind the second), `extract` and `stream` drop the
    /// same flows, and `extract` counts them in its summary.
    #[test]
    fn swapped_windows_are_dropped_alike_and_reported() {
        let dir = scratch_dir("anomex-cli-swapped-windows-test");
        let scenario = Scenario::small(5);
        let windows: Vec<Vec<FlowRecord>> = (0..8).map(|i| scenario.generate(i).flows).collect();
        let path = dir.join("swapped.nfv5");
        for (swap, late, pre_origin) in [(4, windows[4].len(), 0), (0, 0, windows[0].len())] {
            let mut order: Vec<usize> = (0..windows.len()).collect();
            order.swap(swap, swap + 1);
            let mut exporter = V5Exporter::new();
            let bytes: Vec<u8> = (order.iter())
                .flat_map(|&i| exporter.export(&windows[i]).concat())
                .collect();
            std::fs::write(&path, bytes).unwrap();
            let opts = format!(
                "--in {} --interval-min 1 --training 4 --support 800",
                path.display()
            );
            let extracted = run(replay_to, &format!("extract {opts}"));
            let streamed = run(replay_to, &format!("stream {opts}"));
            let dropped = format!("dropped flows: {late} late, {pre_origin} pre-origin");
            assert_eq!(line(&extracted, "dropped flows:"), dropped, "swap {swap}");
            assert!(
                line(&streamed, "per-interval").ends_with(&dropped),
                "swap {swap}"
            );
            assert_eq!(reports(&extracted), reports(&streamed), "swap {swap}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each command takes exactly the options its `USAGE` block lists
    /// (`takes` reads the block): a listed one passes, any other is
    /// refused — naming the option and the command — before the command
    /// touches a file.
    #[test]
    fn commands_take_exactly_the_options_their_usage_lists() {
        for (command, key) in [
            ("generate", "intervals"),
            ("extract", "force-rare"),
            ("stream", "stop-after"),
            ("analyze", "metadata"),
            ("table2", "scale"),
        ] {
            assert!(takes(command, key), "{command} --{key}");
        }
        for (line, key) in [
            (
                "extract --in T --interval-min 1 --training 10 --suport 10",
                "suport",
            ),
            ("extract --in T --checkpoint-dir D", "checkpoint-dir"),
            ("extract --in T --max-lag 3", "max-lag"),
            ("extract --in T --verbose", "verbose"),
            (
                "analyze --in T --metadata dstPort=80 --training 5",
                "training",
            ),
            ("generate --out T --support 5", "support"),
            ("table2 --seed 3", "seed"),
        ] {
            let err = super::run(&argv(line)).unwrap_err();
            let command = line.split(' ').next().unwrap();
            assert_eq!(
                err,
                format!("{command} does not take --{key} (see `anomex help`)")
            );
        }
    }

    /// Two lanes cannot share one stdin: `--in -` twice is refused up
    /// front instead of splitting the capture between them.
    #[test]
    fn stdin_feeds_one_lane_only() {
        for command in ["extract", "stream"] {
            let args = argv(&format!("{command} --in - --in - --interval-min 1"));
            let err = replay_to(&args, &mut Vec::new()).unwrap_err();
            assert_eq!(
                err,
                "--in - is given more than once, but there is only one stdin"
            );
        }
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
            run(replay_to, &format!("{stream}{force}"));
            assert!(!dir.join("reconfig").exists(), "the request was consumed");
            let path = dir.join("stream.ckpt");
            let engine = restore_from_checkpoint(&path, 1, true).unwrap();
            assert_eq!(engine.config().min_support, support, "{force:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reconfig file naming `shards` (or `threads`) is refused whole —
    /// its valid line does not land either — and the refusal is counted
    /// in the `reconfigurations:` trailer.
    #[test]
    fn reconfig_naming_shards_is_refused_and_counted() {
        let dir = scratch_dir("anomex-cli-reconfig-shards-test");
        let scenario = Scenario::small(7);
        let ins = write_traces(&dir, 1, 6, |_, i| scenario.generate(i).flows).join(" ");
        let stream = format!(
            "stream {ins} --interval-min 1 --training 10 --support 200 --checkpoint-dir {}",
            dir.display()
        );
        for key in ["shards", "threads"] {
            std::fs::write(
                dir.join("reconfig"),
                format!("min-support=300\n{key} = 2\n"),
            )
            .unwrap();
            let out = run(replay_to, &stream);
            assert!(!dir.join("reconfig").exists(), "the file was consumed");
            assert_eq!(
                line(&out, "reconfigurations:"),
                "reconfigurations: 0 applied, 1 rejected"
            );
            let engine = restore_from_checkpoint(&dir.join("stream.ckpt"), 1, false).unwrap();
            assert_eq!(engine.config().min_support, 200, "{key}");
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
            replay_to,
            &format!("{opts} --support 2 --force-rare --stop-after 1"),
        );
        let resume = format!("{opts} --support 200 --resume");
        let err = replay_to(&argv(&resume), &mut Vec::new()).unwrap_err();
        assert!(
            err.starts_with("cannot resume from") && err.contains("--force-rare"),
            "{err}"
        );
        let resumed = run(replay_to, &format!("{resume} --force-rare"));
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
    /// least 1 and the `--out` count must equal it, for one source too,
    /// and `--intervals` is at least 1.
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
        // No intervals would be an empty trace, which every consumer
        // refuses.
        let err = generate(&format!("generate --out {a} --intervals 0")).unwrap_err();
        assert_eq!(err, "--intervals must be at least 1");
        let two = format!("generate --sources 2 --out {a} --out {b} --intervals 0");
        assert_eq!(
            generate(&two).unwrap_err(),
            "--intervals must be at least 1"
        );
        assert!(!Path::new(&a).exists() && !Path::new(&b).exists());
        generate(&format!("generate --sources 1 --out {a} --intervals 1")).unwrap();
        assert!(Path::new(&a).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two sources written to one path would leave only the last link
    /// in it, so a repeated `--out` is refused before anything is
    /// written.
    #[test]
    fn generate_refuses_a_repeated_out_file() {
        let dir = scratch_dir("anomex-cli-test-generate-repeated-out");
        let a = dir.join("x.nfv5").display().to_string();
        let line = format!("generate --sources 2 --out {a} --out {a} --intervals 1");
        let err = super::run(&argv(&line)).unwrap_err();
        assert_eq!(
            err,
            format!("--out {a} is given more than once; each source needs its own file")
        );
        assert!(!Path::new(&a).exists(), "nothing is written");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--in -` reads stdin, but `generate` writes files only, so
    /// `--out -` is refused instead of writing a file named `-`.
    #[test]
    fn generate_refuses_out_dash() {
        let dir = scratch_dir("anomex-cli-test-generate-out-dash");
        let b = dir.join("b.nfv5").display().to_string();
        for line in [
            "generate --out - --intervals 1".to_string(),
            format!("generate --sources 2 --out - --out {b} --intervals 1"),
        ] {
            let err = super::run(&argv(&line)).unwrap_err();
            assert!(err.starts_with("--out - "), "{line}: {err}");
        }
        assert!(!Path::new("-").exists() && !Path::new(&b).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A scale the generators would assert on (or overflow a `Vec` with)
    /// is a CLI error, and `--scenario small` rejects the flag it ignores.
    #[test]
    fn bad_scales_are_errors_not_generator_panics() {
        let out = std::env::temp_dir().join("anomex-cli-test-scale.nfv5");
        let out_s = out.display();
        let two_weeks = format!("generate --out {out_s} --scenario two-weeks");
        for bad in ["0", "-1", "nan", "inf", "1e300"] {
            let err = super::run(&argv(&format!("{two_weeks} --scale {bad}"))).unwrap_err();
            assert!(err.contains("--scale"), "generate --scale {bad}: {err}");
            let err = super::run(&argv(&format!("table2 --scale {bad}"))).unwrap_err();
            assert!(err.contains("--scale"), "table2 --scale {bad}: {err}");
        }
        run(
            generate_to,
            &format!("{two_weeks} --scale 0.01 --intervals 1"),
        );
        let err = super::run(&argv(&format!("generate --out {out_s} --scale 0.5"))).unwrap_err();
        assert!(err.contains("does not take --scale"), "{err}");
        std::fs::remove_file(&out).ok();
    }

    /// A scale whose interval the allocator cannot reserve is a CLI
    /// error naming `--scale`, not an abort on the generator's
    /// allocation.
    #[test]
    fn table2_scale_beyond_memory_is_an_error_not_an_abort() {
        let err = super::run(&argv("table2 --scale 1e9")).unwrap_err();
        assert!(err.contains("--scale 1000000000 is too large"), "{err}");
    }

    /// As for `table2`: `generate` refuses a two-weeks scale beyond
    /// memory before it allocates or writes anything.
    #[test]
    fn generate_scale_beyond_memory_is_an_error_not_an_abort() {
        let out = std::env::temp_dir().join("anomex-cli-test-huge-scale.nfv5");
        let line = format!(
            "generate --out {} --scenario two-weeks --scale 1e9 --intervals 1",
            out.display()
        );
        let err = super::run(&argv(&line)).unwrap_err();
        assert!(err.contains("--scale 1000000000 is too large"), "{err}");
        assert!(!out.exists(), "nothing written");
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
        closed(replay_to(
            &argv(&format!("extract --in {path}")),
            &mut ClosedPipe,
        ));
        closed(replay_to(
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
