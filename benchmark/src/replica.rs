//! The traced run: the same generated trace replayed in-process, with a
//! span around every call into a crate's public functions.
//!
//! Three replicas of what the CLI does with a trace:
//!
//! - the **engine replica** feeds each interval to `Engine::process`;
//! - the **stage replica** makes the individual public calls the engine
//!   makes (transpose, histogram, score/vote, pre-filter, gather, mine,
//!   rules, render) — the source of the per-stage numbers and shares;
//! - the **streaming replica** pushes flow by flow through
//!   `StreamingExtractor` / `MultiSourceExtractor`.
//!
//! All three must reproduce, interval by interval, the alarm flags and
//! reports the CLI printed for the same trace, the three miners must
//! agree on every alarmed interval, and the stage spans must cover at
//! least 90 % of the stage replica's wall — otherwise the traced run
//! fails: numbers from a replica that has drifted from the program are
//! worse than none. End-to-end numbers never come from here.

use std::collections::BTreeMap;
use std::fs;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anomex_core::{
    cost_reduction, merge_source_rules, prefilter_indices_columns, render_report,
    render_rule_merge, Engine, Extraction, ExtractionConfig, MultiSourceExtractor,
    MultiStreamEvent, StreamEvent, StreamingExtractor,
};
use anomex_detector::{active_backend, DetectorBank, DetectorConfig, KernelBackend};
use anomex_mining::{
    apriori_exec, filter_maximal, generate_rules, AprioriConfig, Exec, ItemSet, LevelStats,
    MinerKind, RuleConfig, RuleSet, Transaction, TransactionSet,
};
use anomex_netflow::v5::{decode_stream_into_columns, V5_HEADER_LEN, V5_RECORD_LEN};
use anomex_netflow::v9::{decode_mixed_stream, TraceItem};
use anomex_netflow::{
    FlowColumns, FlowRecord, FlowTrace, IntervalAssembler, MergeAssembler, MergeConfig, SourceId,
    SourceSpec, MINUTE_MS,
};

use crate::alloc;
use crate::check::{mode_mismatches, score};
use crate::manifest::PER_LAYER;
use crate::run::{set_up, Env, Outcome, Pass, SetUp};
use crate::stats::{percentile, spread_over_min};
use crate::tracer::{Total, Tracer};
use crate::workload::{Mode, Workload};

/// Least share of the stage replica's wall its spans must account for.
const MIN_COVERAGE: f64 = 0.9;
/// CLI passes per configuration; ratios are taken between the fastest.
const CLI_PASSES: usize = 3;

/// What one interval came to: the unit the replicas and the CLI are
/// compared on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    alarm: bool,
    /// The rendered report, exactly as the CLI prints it.
    report: Option<String>,
}

/// The pipeline configuration the CLI builds from the workload's options
/// (`parse_config` in `crates/cli`).
fn config_of(workload: Workload) -> ExtractionConfig {
    let p = workload.params();
    ExtractionConfig {
        interval_ms: p.interval_min * MINUTE_MS,
        detector: DetectorConfig {
            training_intervals: p.training,
            ..DetectorConfig::default()
        },
        min_support: p.support,
        rules: p.rules.then(RuleConfig::default),
        ..ExtractionConfig::default()
    }
}

/// Read and decode one trace file the way `load_flows` does.
fn load(t: &mut Tracer, path: &PathBuf) -> Result<FlowTrace, String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let bytes = t
        .span("netflow.read", None, |_| fs::read(path))
        .map_err(|e| at(&e))?;
    let flows = t
        .span("netflow.decode", None, |_| {
            decode_mixed_stream(&bytes).map(|items| {
                let mut flows = Vec::new();
                for item in items {
                    if let TraceItem::Flows(datagram) = item {
                        flows.extend(datagram.flows);
                    }
                }
                flows
            })
        })
        .map_err(|e| at(&e))?;
    Ok(t.span("netflow.slice", None, |_| FlowTrace::from_flows(flows)))
}

/// The grid origin the CLI infers for a trace: the window of its first
/// flow.
fn origin_of(trace: &mut FlowTrace, interval_ms: u64) -> Result<u64, String> {
    let first = trace.start_ms().ok_or("a trace is empty")?;
    Ok(first - first % interval_ms)
}

/// Load every input and hand `f` each interval of the batch reference:
/// one trace's slices as they are, several traces' slices concatenated
/// in file order (`run_extract_multi`), with the per-source lengths.
fn for_each_interval(
    t: &mut Tracer,
    inputs: &[PathBuf],
    interval_ms: u64,
    mut f: impl FnMut(&mut Tracer, u64, &[FlowRecord], &[usize]),
) -> Result<(), String> {
    let mut traces = Vec::new();
    for path in inputs {
        traces.push(load(t, path)?);
    }
    let lanes = t.span("netflow.slice", None, |_| {
        traces
            .iter_mut()
            .map(|trace| {
                let origin = origin_of(trace, interval_ms)?;
                Ok(trace.intervals(origin, interval_ms))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let total = lanes.iter().map(Vec::len).max().unwrap_or(0);
    let mut merged: Vec<FlowRecord> = Vec::new();
    for i in 0..total {
        let source_flows: Vec<usize> = lanes
            .iter()
            .map(|lane| lane.get(i).map_or(0, |iv| iv.flows.len()))
            .collect();
        if let [lane] = lanes.as_slice() {
            f(t, i as u64, lane[i].flows, &source_flows);
        } else {
            t.span("netflow.slice", Some(i as u64), |_| {
                merged.clear();
                for lane in &lanes {
                    if let Some(iv) = lane.get(i) {
                        merged.extend_from_slice(iv.flows);
                    }
                }
            });
            f(t, i as u64, &merged, &source_flows);
        }
    }
    Ok(())
}

/// Render an extraction as the CLI does (`render_multi_report`): the
/// report, plus the per-source rule merge when several sources fed the
/// interval and the rule layer is on.
fn render(
    t: &mut Tracer,
    interval: u64,
    extraction: &Extraction,
    flows: &[FlowRecord],
    source_flows: &[usize],
    config: &ExtractionConfig,
) -> String {
    t.span("core.render", Some(interval), |t| {
        let mut out = render_report(extraction);
        if source_flows.len() >= 2 {
            let merged = t.span("core.source_rules", Some(interval), |_| {
                merge_source_rules(flows, source_flows, &extraction.metadata, config)
            });
            if let Some(merged) = merged {
                out.push_str(&render_rule_merge(&merged, source_flows.len()));
            }
        }
        // `println!("{report}")` then a parser that drops the blank line.
        out.trim_end_matches('\n').to_string()
    })
}

/// The engine replica: `Engine::process` per interval.
fn engine_replica(
    t: &mut Tracer,
    inputs: &[PathBuf],
    config: &ExtractionConfig,
) -> Result<Vec<Verdict>, String> {
    t.span("replica.engine", None, |t| {
        let mut engine = Engine::sequential(config.clone()).map_err(String::from)?;
        let mut verdicts = Vec::new();
        for_each_interval(
            t,
            inputs,
            config.interval_ms,
            |t, i, flows, source_flows| {
                let outcome = t.span("core.engine.process", Some(i), |_| engine.process(flows));
                let report = outcome
                    .extraction
                    .as_ref()
                    .map(|e| render(t, i, e, flows, source_flows, config));
                verdicts.push(Verdict {
                    alarm: outcome.observation.alarm,
                    report,
                });
            },
        )?;
        Ok(verdicts)
    })
}

/// What the stage replica counted besides time.
#[derive(Debug, Default)]
struct StageCounts {
    flows: u64,
    intervals: u64,
    alarms: u64,
    extractions: u64,
    metadata_values: u64,
    flows_prefiltered: u64,
    suspicious: u64,
    candidates: u64,
    frequent: u64,
    /// Candidates and frequent sets from level 2 up: level 1 has no
    /// candidate generation, so it says nothing about wasted counting.
    candidates_joined: u64,
    frequent_joined: u64,
    maximal: u64,
    rules_kept: u64,
    state_bytes: u64,
    columns_bytes_per_flow: f64,
}

/// One alarmed interval's mining input and Apriori's answer, kept for
/// the miner cross-check.
struct Mined {
    interval: u64,
    transactions: TransactionSet,
    itemsets: Vec<ItemSet>,
}

/// Mine as `mine_transactions` does: plain maximal Apriori, or — with
/// the rule layer — what `MineTask::run_with_rules` does, call by call.
fn mine(
    t: &mut Tracer,
    interval: u64,
    transactions: &TransactionSet,
    config: &ExtractionConfig,
) -> (Vec<ItemSet>, Vec<LevelStats>, Option<RuleSet>) {
    let support = config.min_support;
    let Some(rule_config) = &config.rules else {
        let out = t.span("mining.apriori", Some(interval), |_| {
            apriori_exec(
                transactions,
                &AprioriConfig::maximal(support),
                Exec::inline(),
            )
        });
        return (out.itemsets, out.levels, None);
    };
    let width = transactions
        .transactions()
        .iter()
        .map(Transaction::width)
        .max()
        .unwrap_or(0);
    if width == 0 {
        return (Vec::new(), Vec::new(), Some(RuleSet::empty()));
    }
    let floor = rule_config.mining_floor(support, width);
    let all = t.span("mining.apriori", Some(interval), |_| {
        apriori_exec(
            transactions,
            &AprioriConfig::all_frequent(floor),
            Exec::inline(),
        )
    });
    let mut levels = all.levels;
    let itemsets = t.span("mining.maximal", Some(interval), |_| {
        let at_support = all
            .itemsets
            .iter()
            .filter(|s| s.support >= support)
            .cloned()
            .collect();
        filter_maximal(at_support)
    });
    for set in &itemsets {
        if let Some(stats) = levels.get_mut(set.len() - 1) {
            stats.maximal += 1;
        }
    }
    let rules = t.span("mining.rules", Some(interval), |_| {
        let n = transactions.len() as u64;
        generate_rules(&all.itemsets, n, support, rule_config, Exec::inline())
    });
    (itemsets, levels, Some(rules))
}

/// The stage replica: the public calls `ShardedExtractor::process_interval`
/// makes at one shard, one span each.
fn stage_replica(
    t: &mut Tracer,
    inputs: &[PathBuf],
    config: &ExtractionConfig,
) -> Result<(Vec<Verdict>, StageCounts, Vec<Mined>), String> {
    t.span("replica.stage", None, |t| {
        let mut bank = DetectorBank::new(&config.detector);
        let hasher = bank.hasher();
        let mut cols = FlowColumns::new();
        let mut counts = StageCounts::default();
        let (mut verdicts, mut mined) = (Vec::new(), Vec::new());
        for_each_interval(
            t,
            inputs,
            config.interval_ms,
            |t, i, flows, source_flows| {
                t.span("netflow.transpose", Some(i), |_| {
                    cols.clear();
                    for flow in flows {
                        cols.push(flow);
                    }
                });
                let observation = if cols.is_empty() {
                    bank.observe(&[])
                } else {
                    let partial = t.span("detector.histogram", Some(i), |_| {
                        hasher.partial_columns(&cols, 0..cols.len())
                    });
                    t.span("detector.score_vote", Some(i), |_| {
                        bank.observe_partial(partial)
                    })
                };
                counts.flows += flows.len() as u64;
                counts.intervals += 1;
                counts.alarms += u64::from(observation.alarm);
                if counts.columns_bytes_per_flow == 0.0 && !cols.is_empty() {
                    counts.columns_bytes_per_flow = cols.memory_bytes() as f64 / cols.len() as f64;
                }
                let mut report = None;
                if observation.alarm && !observation.metadata.is_empty() {
                    let metadata = &observation.metadata;
                    let indices = t.span("core.prefilter", Some(i), |_| {
                        prefilter_indices_columns(&cols, metadata, config.prefilter)
                    });
                    let transactions = t.span("core.gather", Some(i), |_| {
                        config.transactions.transactions_at_columns(&cols, &indices)
                    });
                    let (itemsets, levels, rules) = mine(t, i, &transactions, config);
                    counts.extractions += 1;
                    counts.metadata_values += metadata.len() as u64;
                    counts.flows_prefiltered += cols.len() as u64;
                    counts.suspicious += indices.len() as u64;
                    for level in &levels {
                        counts.candidates += level.candidates;
                        counts.frequent += level.frequent;
                        if level.level >= 2 {
                            counts.candidates_joined += level.candidates;
                            counts.frequent_joined += level.frequent;
                        }
                    }
                    counts.maximal += itemsets.len() as u64;
                    counts.rules_kept += rules.as_ref().map_or(0, |r| r.len() as u64);
                    let extraction = Extraction {
                        interval: observation.interval,
                        metadata: metadata.clone(),
                        total_flows: cols.len(),
                        suspicious_flows: indices.len(),
                        cost_reduction: cost_reduction(cols.len() as u64, itemsets.len()),
                        itemsets: itemsets.clone(),
                        levels,
                        rules,
                    };
                    report = Some(render(t, i, &extraction, flows, source_flows, config));
                    mined.push(Mined {
                        interval: i,
                        transactions,
                        itemsets,
                    });
                }
                verdicts.push(Verdict {
                    alarm: observation.alarm,
                    report,
                });
            },
        )?;
        counts.state_bytes = bank.memory_bytes() as u64;
        Ok((verdicts, counts, mined))
    })
}

/// FP-growth and Eclat over the transaction sets Apriori mined; all
/// three must report the same maximal item-sets with the same supports.
fn cross_check_miners(t: &mut Tracer, mined: &[Mined], support: u64) -> Result<(), String> {
    let key = |sets: &[ItemSet]| -> Vec<(Vec<_>, u64)> {
        sets.iter()
            .map(|s| (s.items().to_vec(), s.support))
            .collect()
    };
    for m in mined {
        for (name, kind) in [
            ("mining.fpgrowth", MinerKind::FpGrowth),
            ("mining.eclat", MinerKind::Eclat),
        ] {
            let other = t.span(name, Some(m.interval), |_| {
                kind.mine_maximal_exec(&m.transactions, support, Exec::inline())
            });
            if key(&other) != key(&m.itemsets) {
                return Err(format!(
                    "{name} disagrees with Apriori on interval {}: {} vs {} item-sets",
                    m.interval,
                    other.len(),
                    m.itemsets.len()
                ));
            }
        }
    }
    Ok(())
}

/// The collector-arrival order the CLI replays several traces in: a
/// k-way merge on grid-relative start time, ties to the lowest source.
fn replay_order(lanes: &[Vec<FlowRecord>], origins: &[u64]) -> Vec<(usize, FlowRecord)> {
    let mut cursors = vec![0usize; lanes.len()];
    let mut order = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    loop {
        let mut next: Option<(u64, usize)> = None;
        for (s, lane) in lanes.iter().enumerate() {
            if let Some(flow) = lane.get(cursors[s]) {
                let key = flow.start_ms.saturating_sub(origins[s]);
                if next.is_none_or(|(k, _)| key < k) {
                    next = Some((key, s));
                }
            }
        }
        let Some((_, s)) = next else {
            return order;
        };
        order.push((s, lanes[s][cursors[s]]));
        cursors[s] += 1;
    }
}

/// Load every input as the streaming paths do: each trace's flows in
/// time order, with the grid origin the CLI infers for it.
fn load_lanes(
    t: &mut Tracer,
    inputs: &[PathBuf],
    interval_ms: u64,
) -> Result<(Vec<Vec<FlowRecord>>, Vec<u64>), String> {
    let (mut lanes, mut origins) = (Vec::new(), Vec::new());
    for path in inputs {
        let mut trace = load(t, path)?;
        origins.push(origin_of(&mut trace, interval_ms)?);
        lanes.push(trace.into_flows());
    }
    Ok((lanes, origins))
}

/// Source `i` with origin `origins[i]`, as the CLI registers its inputs.
fn source_specs(origins: &[u64]) -> Vec<SourceSpec> {
    origins
        .iter()
        .enumerate()
        .map(|(i, &origin)| SourceSpec::new(i as u32, origin))
        .collect()
}

/// One closed interval from either streaming engine, with what its
/// report needs: the merged flows and per-source counts (empty for one
/// source, whose report has no per-source section).
struct Closed {
    event: StreamEvent,
    flows: Arc<Vec<FlowRecord>>,
    source_flows: Vec<usize>,
}

/// Either streaming engine behind one `push`, as the CLI picks one by
/// the number of inputs.
enum Streamer {
    Single(StreamingExtractor),
    Multi(MultiSourceExtractor),
}

fn single(events: Vec<StreamEvent>) -> Vec<Closed> {
    events
        .into_iter()
        .map(|event| Closed {
            event,
            flows: Arc::default(),
            source_flows: Vec::new(),
        })
        .collect()
}

fn multi(events: Vec<MultiStreamEvent>) -> Vec<Closed> {
    events
        .into_iter()
        .map(|e| Closed {
            event: e.event,
            flows: e.flow_data,
            source_flows: e.source_flows,
        })
        .collect()
}

impl Streamer {
    fn push(&mut self, source: usize, flow: FlowRecord) -> Vec<Closed> {
        match self {
            Streamer::Single(engine) => single(engine.push(flow)),
            Streamer::Multi(engine) => multi(engine.push(SourceId(source as u32), flow)),
        }
    }

    fn checkpoint(&mut self) -> (Vec<Closed>, Vec<u8>) {
        match self {
            Streamer::Single(engine) => {
                let (events, payload) = engine.checkpoint();
                (single(events), payload)
            }
            Streamer::Multi(engine) => {
                let (events, payload) = engine.checkpoint();
                (multi(events), payload)
            }
        }
    }

    fn finish(self) -> Vec<Closed> {
        match self {
            Streamer::Single(engine) => single(engine.finish().0),
            Streamer::Multi(engine) => multi(engine.finish().0),
        }
    }
}

/// One closed interval as the streaming replica saw it.
struct Emitted {
    micros: u64,
    verdict: Verdict,
}

/// What the streaming replica measured besides spans.
#[derive(Default)]
struct StreamCounts {
    flows: u64,
    snapshot_bytes: u64,
    emitted: Vec<Emitted>,
}

impl StreamCounts {
    /// Render and record closed intervals, as the CLI prints them.
    fn emit(&mut self, t: &mut Tracer, config: &ExtractionConfig, closed: Vec<Closed>) {
        for c in closed {
            let report = c
                .event
                .outcome
                .extraction
                .as_ref()
                .map(|e| render(t, c.event.index, e, &c.flows, &c.source_flows, config));
            self.emitted.push(Emitted {
                micros: c.event.process_micros,
                verdict: Verdict {
                    alarm: c.event.alarmed(),
                    report,
                },
            });
        }
    }
}

/// The streaming replica: every flow pushed in the CLI's order, one
/// checkpoint taken mid-stream. Pushes that cross an interval boundary
/// of their source — the ones that can hand an interval to the pipeline
/// thread and block on its bounded channel — get a span each; the rest
/// are timed in bulk by the enclosing span.
fn streaming_replica(
    t: &mut Tracer,
    inputs: &[PathBuf],
    config: &ExtractionConfig,
) -> Result<StreamCounts, String> {
    t.span("replica.streaming", None, |t| {
        let interval_ms = config.interval_ms;
        let (lanes, origins) = load_lanes(t, inputs, interval_ms)?;
        let one = NonZeroUsize::MIN;
        let mut streamer = if let [origin] = origins.as_slice() {
            Streamer::Single(
                StreamingExtractor::try_new(config.clone(), one, *origin).map_err(String::from)?,
            )
        } else {
            Streamer::Multi(
                MultiSourceExtractor::try_new(config.clone(), one, &source_specs(&origins), None)
                    .map_err(String::from)?,
            )
        };
        let order = t.span("netflow.replay_order", None, |_| {
            replay_order(&lanes, &origins)
        });
        let mut counts = StreamCounts {
            flows: order.len() as u64,
            ..StreamCounts::default()
        };
        let mut boundaries: Vec<u64> = origins.iter().map(|o| o + interval_ms).collect();
        let halfway = order.len() / 2;
        t.span("core.streaming.push_loop", None, |t| {
            for (n, (source, flow)) in order.into_iter().enumerate() {
                let closed = if flow.start_ms >= boundaries[source] {
                    let past = (flow.start_ms - boundaries[source]) / interval_ms + 1;
                    boundaries[source] += past * interval_ms;
                    t.span("core.streaming.closing_push", None, |_| {
                        streamer.push(source, flow)
                    })
                } else {
                    streamer.push(source, flow)
                };
                counts.emit(t, config, closed);
                if n == halfway {
                    let (closed, payload) =
                        t.span("core.snapshot", None, |_| streamer.checkpoint());
                    counts.snapshot_bytes = payload.len() as u64;
                    counts.emit(t, config, closed);
                }
            }
        });
        let tail = t.span("core.streaming.finish", None, |_| streamer.finish());
        counts.emit(t, config, tail);
        Ok(counts)
    })
}

/// Layer calls the CLI does not make today, or makes only inside a
/// thread, measured on their own: the assemblers without a pipeline
/// behind them, and the columnar v5 decoder (no live caller yet).
fn extras(t: &mut Tracer, inputs: &[PathBuf], interval_ms: u64) -> Result<(), String> {
    for path in inputs {
        let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        t.span("netflow.decode_columns", None, |_| {
            let mut cols = FlowColumns::new();
            decode_stream_into_columns(&bytes, &mut cols).map(|_| cols.len())
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (lanes, origins) = load_lanes(&mut Tracer::new(false), inputs, interval_ms)?;
    for (lane, &origin) in lanes.iter().zip(&origins) {
        let mut assembler =
            IntervalAssembler::try_new(origin, interval_ms).map_err(|e| e.to_string())?;
        t.span("netflow.assemble", None, |_| {
            let mut closed = 0usize;
            for flow in lane {
                closed += assembler.push(*flow).len();
            }
            closed + usize::from(assembler.flush().is_some())
        });
    }
    if lanes.len() > 1 {
        let mut merger =
            MergeAssembler::try_new(MergeConfig::new(interval_ms), &source_specs(&origins))
                .map_err(|e| e.to_string())?;
        let order = replay_order(&lanes, &origins);
        t.span("netflow.merge", None, |_| {
            let mut closed = 0usize;
            for (source, flow) in order {
                closed += merger.push(SourceId(source as u32), flow).len();
            }
            closed + merger.flush().len()
        });
    }
    Ok(())
}

/// The CLI's own verdicts for the trace, from the set-up's two passes:
/// alarm flags from `stream --verbose`, reports from `extract`.
fn cli_verdicts(setup: &SetUp) -> Result<Vec<Verdict>, String> {
    let (extract, stream) = (&setup.warm_extract.output, &setup.warm_stream.output);
    if mode_mismatches(extract, stream) != 0 {
        return Err("the CLI's extract and stream reports differ".into());
    }
    let reports: BTreeMap<u64, &str> = extract
        .reports
        .iter()
        .map(|r| (r.interval, r.text.as_str()))
        .collect();
    Ok(stream
        .lines
        .iter()
        .map(|line| Verdict {
            alarm: line.alarm,
            report: reports.get(&line.index).map(ToString::to_string),
        })
        .collect())
}

/// Fail with the first interval on which a replica and the CLI differ.
fn same_verdicts(name: &str, replica: &[Verdict], cli: &[Verdict]) -> Result<(), String> {
    if replica.len() != cli.len() {
        return Err(format!(
            "the {name} replica closed {} intervals, the CLI {}",
            replica.len(),
            cli.len()
        ));
    }
    match replica.iter().zip(cli).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "the {name} replica differs from the CLI on interval {i}:\n--- replica\n{:?}\n--- CLI\n{:?}",
            replica[i], cli[i]
        )),
    }
}

/// Fastest wall and its pass among a few passes of one configuration.
fn fastest(passes: &[Pass]) -> &Pass {
    passes
        .iter()
        .min_by(|a, b| a.usage.wall_s.total_cmp(&b.usage.wall_s))
        .expect("at least one pass")
}

/// `benchmark trace`: the per-layer metrics of one workload and seed.
pub fn trace(env: &Env, workload: Workload, seed: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let setup = set_up(env, workload, seed)?;
    let config = config_of(workload);
    let inputs = &setup.inputs;
    let cli = cli_verdicts(&setup)?;

    // The CLI itself: a few passes per configuration, ratios between the
    // fastest of each.
    let replay = setup.replay(env);
    let more = |mode: Mode, threads: usize, label: &str, first: Option<&Pass>| {
        let mut passes: Vec<Pass> = first.cloned().into_iter().collect();
        while passes.len() < CLI_PASSES {
            let label = format!("{label}{}", passes.len());
            let pass = replay
                .pass(mode, threads, &label, setup.limit(mode))
                .map_err(|e| format!("{} {} pass: {e}", workload.name(), mode.name()))?;
            passes.push(pass);
        }
        Ok::<_, String>(passes)
    };
    let extracts = more(Mode::Extract, 1, "cli", Some(&setup.warm_extract))?;
    let streams = more(Mode::Stream, 1, "cli", Some(&setup.warm_stream))?;
    let threads2 = more(Mode::Extract, 2, "threads2-", None)?;
    // Start-up cost: `extract` over the first datagram alone.
    let first_datagram = {
        let bytes = fs::read(&inputs[0]).map_err(|e| e.to_string())?;
        let path = inputs[0].with_file_name("startup.nfv5");
        let len = (V5_HEADER_LEN + 30 * V5_RECORD_LEN).min(bytes.len());
        fs::write(&path, &bytes[..len]).map_err(|e| e.to_string())?;
        [path]
    };
    let mut startup_ms = f64::INFINITY;
    for k in 0..CLI_PASSES {
        let args = workload.cli_args(Mode::Extract, &first_datagram, 1);
        let out = first_datagram[0].with_file_name(format!("startup{k}.txt"));
        let usage = crate::child::run(&env.anomex, &args, &out, Duration::from_secs(30))
            .map_err(|e| format!("start-up pass: {e}"))?;
        startup_ms = startup_ms.min(usage.wall_s * 1e3);
    }

    // The replicas. The engine replica goes first and warms the heap;
    // the untraced stage replica goes last, against the traced one.
    alloc::set_enabled(true);
    let mut engine_t = Tracer::new(true);
    let engine = engine_replica(&mut engine_t, inputs, &config)?;
    same_verdicts("engine", &engine, &cli)?;
    let mut stage_t = Tracer::new(true);
    let (stage, counts, mined) = stage_replica(&mut stage_t, inputs, &config)?;
    same_verdicts("stage", &stage, &cli)?;
    let mut extras_t = Tracer::new(true);
    cross_check_miners(&mut extras_t, &mined, config.min_support)?;
    extras(&mut extras_t, inputs, config.interval_ms)?;
    let mut stream_t = Tracer::new(true);
    let streamed = streaming_replica(&mut stream_t, inputs, &config)?;
    let stream_verdicts: Vec<Verdict> =
        streamed.emitted.iter().map(|e| e.verdict.clone()).collect();
    same_verdicts("streaming", &stream_verdicts, &cli)?;
    alloc::set_enabled(false);
    let untraced_started = Instant::now();
    stage_replica(&mut Tracer::new(false), inputs, &config)?;
    let untraced_s = untraced_started.elapsed().as_secs_f64();

    let span_file = env.out.join(format!("{}.trace.json", workload.name()));
    let spans = [
        ("engine", &engine_t),
        ("stage", &stage_t),
        ("streaming", &stream_t),
        ("extras", &extras_t),
    ];
    let mut file = String::from("{\n");
    for (i, (name, tracer)) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        file.push_str(&format!("\"{name}\": {}{sep}\n", tracer.to_json()));
    }
    file.push_str("}\n");
    fs::write(&span_file, file).map_err(|e| format!("{}: {e}", span_file.display()))?;

    // Reduce.
    let (stage_totals, engine_totals) = (stage_t.totals(), engine_t.totals());
    let (stream_totals, extra_totals) = (stream_t.totals(), extras_t.totals());
    let get = |totals: &BTreeMap<&'static str, Total>, name: &str| {
        totals.get(name).copied().unwrap_or_default()
    };
    let s = |name: &str| get(&stage_totals, name);
    let x = |name: &str| get(&extra_totals, name);
    let st = |name: &str| get(&stream_totals, name);
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let flows = counts.flows;
    let alarms = counts.extractions.max(1);
    let stage_wall = s("replica.stage");
    let coverage = 1.0 - stage_wall.self_ns as f64 / stage_wall.ns as f64;
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "the stage spans cover {coverage:.3} of the replica's wall, need {MIN_COVERAGE}"
        ));
    }
    let share = |names: &[&str]| {
        names.iter().map(|n| s(n).self_ns).sum::<u64>() as f64 / stage_wall.ns as f64
    };

    // Engine spans, split by whether the interval came to an extraction.
    let (mut quiet_ns, mut quiet_n, mut alarm_ns, mut alarm_n) = (0u64, 0u64, 0u64, 0u64);
    for span in engine_t
        .spans()
        .iter()
        .filter(|s| s.name == "core.engine.process")
    {
        let i = span.interval.expect("engine spans carry their interval") as usize;
        let ns = span.end_ns - span.start_ns;
        if engine[i].report.is_some() {
            alarm_ns += ns;
            alarm_n += 1;
        } else {
            quiet_ns += ns;
            quiet_n += 1;
        }
    }
    let engine_process = get(&engine_totals, "core.engine.process");
    let staged_ns: u64 = [
        "netflow.transpose",
        "detector.histogram",
        "detector.score_vote",
        "core.prefilter",
        "core.gather",
        "mining.apriori",
        "mining.maximal",
        "mining.rules",
    ]
    .iter()
    .map(|n| s(n).ns)
    .sum();

    let push_loop = st("core.streaming.push_loop");
    let closing = st("core.streaming.closing_push");
    let emit_ms: Vec<f64> = streamed
        .emitted
        .iter()
        .map(|e| e.micros as f64 / 1e3)
        .collect();
    let (best_extract, best_stream) = (fastest(&extracts), fastest(&streams));
    let best_threads2 = fastest(&threads2);
    let walls = |passes: &[Pass]| passes.iter().map(|p| p.usage.wall_s).collect::<Vec<f64>>();
    let accuracy = score(&setup.warm_extract.output.reports, &setup.truth);
    let span_count: usize = spans.iter().map(|(_, t)| t.spans().len()).sum();

    let value = |name: &str| -> Result<f64, String> {
        Ok(match name {
            "netflow.decode.ns_per_flow" => per(s("netflow.decode").self_ns, flows),
            "netflow.decode.allocs_per_kflow" => per(s("netflow.decode").allocs * 1000, flows),
            "netflow.slice.ns_per_flow" => per(s("netflow.slice").self_ns, flows),
            "netflow.transpose.ns_per_flow" => per(s("netflow.transpose").self_ns, flows),
            "netflow.decode_columns.ns_per_flow" => per(x("netflow.decode_columns").ns, flows),
            "netflow.assemble.ns_per_flow" => per(x("netflow.assemble").ns, flows),
            "netflow.merge.ns_per_flow" => per(x("netflow.merge").ns, flows),
            "netflow.record_bytes_per_flow" => std::mem::size_of::<FlowRecord>() as f64,
            "netflow.columns_bytes_per_flow" => counts.columns_bytes_per_flow,
            "detector.histogram.ns_per_flow" => per(s("detector.histogram").self_ns, flows),
            "detector.histogram.allocs_per_flow" => per(s("detector.histogram").allocs, flows),
            "detector.histogram.alloc_bytes_per_flow" => {
                per(s("detector.histogram").alloc_bytes, flows)
            }
            "detector.score_vote.ms_per_interval" => {
                s("detector.score_vote").ms() / counts.intervals.max(1) as f64
            }
            "detector.alarm_rate" => counts.alarms as f64 / counts.intervals.max(1) as f64,
            "detector.metadata_values_per_alarm" => counts.metadata_values as f64 / alarms as f64,
            "detector.state_bytes" => counts.state_bytes as f64,
            "detector.avx2_active" => f64::from(active_backend() == KernelBackend::Avx2),
            "core.prefilter.ns_per_flow" => per(s("core.prefilter").ns, counts.flows_prefiltered),
            "core.prefilter.selectivity" => {
                counts.suspicious as f64 / counts.flows_prefiltered.max(1) as f64
            }
            "core.gather.ns_per_suspicious_flow" => per(s("core.gather").ns, counts.suspicious),
            "core.render.us_per_report" => per(s("core.render").self_ns, alarms) / 1e3,
            "core.source_rules.ms_per_alarm" => s("core.source_rules").ms() / alarms as f64,
            "core.engine.quiet_ms_per_interval" => per(quiet_ns, quiet_n) / 1e6,
            "core.engine.alarm_ms_per_interval" => per(alarm_ns, alarm_n) / 1e6,
            "core.engine.overhead_share" => {
                1.0 - staged_ns as f64 / engine_process.ns.max(1) as f64
            }
            "core.engine.allocs_per_interval" => per(engine_process.allocs, engine_process.count),
            "core.streaming.push_ns_per_flow" => per(
                push_loop.ns - closing.ns - st("core.snapshot").ns,
                streamed.flows,
            ),
            "core.streaming.blocked_share" => closing.ns as f64 / push_loop.ns.max(1) as f64,
            "core.streaming.emit_p50_ms" => percentile(&emit_ms, 50.0),
            "core.streaming.emit_p90_ms" => percentile(&emit_ms, 90.0),
            "core.snapshot.ms" => st("core.snapshot").ms(),
            "core.snapshot.bytes" => streamed.snapshot_bytes as f64,
            "mining.apriori.ms_per_alarm" => s("mining.apriori").ms() / alarms as f64,
            "mining.apriori.ns_per_transaction" => per(s("mining.apriori").ns, counts.suspicious),
            "mining.apriori.allocs_per_alarm" => per(s("mining.apriori").allocs, alarms),
            "mining.candidates_per_alarm" => counts.candidates as f64 / alarms as f64,
            "mining.frequent_per_alarm" => counts.frequent as f64 / alarms as f64,
            "mining.maximal_per_alarm" => counts.maximal as f64 / alarms as f64,
            "mining.useful_ratio" => {
                counts.frequent_joined as f64 / counts.candidates_joined.max(1) as f64
            }
            "mining.fpgrowth.ms_per_alarm" => x("mining.fpgrowth").ms() / alarms as f64,
            "mining.eclat.ms_per_alarm" => x("mining.eclat").ms() / alarms as f64,
            "mining.rules.ms_per_alarm" => s("mining.rules").ms() / alarms as f64,
            "mining.rules.kept_per_alarm" => counts.rules_kept as f64 / alarms as f64,
            "cli.startup_ms" => startup_ms,
            "cli.stream_over_extract.wall_ratio" => {
                best_stream.usage.wall_s / best_extract.usage.wall_s
            }
            "cli.stream.cpu_over_wall" => best_stream.usage.cpu_s / best_stream.usage.wall_s,
            "cli.threads2.wall_ratio" => best_threads2.usage.wall_s / best_extract.usage.wall_s,
            "cli.threads2.cpu_ratio" => best_threads2.usage.cpu_s / best_extract.usage.cpu_s,
            "share.ingest" => share(&["netflow.read", "netflow.decode", "netflow.slice"]),
            "share.transpose" => share(&["netflow.transpose"]),
            "share.histogram" => share(&["detector.histogram"]),
            "share.score_vote" => share(&["detector.score_vote"]),
            "share.prefilter_gather" => share(&["core.prefilter", "core.gather"]),
            "share.mining" => share(&[
                "mining.apriori",
                "mining.maximal",
                "mining.rules",
                "core.source_rules",
            ]),
            "share.render" => share(&["core.render"]),
            "trace.coverage_ratio" => coverage,
            "trace.replica_over_cli" => untraced_s / best_extract.usage.wall_s,
            "trace.overhead_ratio" => stage_wall.ns as f64 / 1e9 / untraced_s,
            "trace.spans" => span_count as f64,
            "noise.extract_pass_spread" => spread_over_min(&walls(&extracts)),
            "noise.stream_pass_spread" => spread_over_min(&walls(&streams)),
            "report.itemsets_per_alarm" => accuracy.itemsets_per_alarm(),
            "report.fp_itemsets_per_alarm" => accuracy.fp_itemsets_per_alarm(),
            other => return Err(format!("no per-layer metric named {other}")),
        })
    };
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for metric in &PER_LAYER {
        metrics.push((metric, value(metric.name)?));
    }

    println!(
        "{} seed {seed}: traced {} flows in {} intervals ({} alarmed, {} extracted, {} alarmed intervals cross-checked on three miners); \
         engine, stage and streaming replicas match the CLI; {span_count} spans in {}; {:.1} s",
        workload.name(),
        flows,
        counts.intervals,
        counts.alarms,
        counts.extractions,
        mined.len(),
        span_file.display(),
        started.elapsed().as_secs_f64(),
    );
    Ok(Outcome {
        correct: true,
        attempted: 3 * counts.intervals,
        failed: 0,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn flow(start_ms: u64) -> FlowRecord {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        FlowRecord::new(start_ms, ip, ip, 1, 2, anomex_netflow::Protocol::Tcp)
    }

    #[test]
    fn replay_order_merges_on_grid_time_with_ties_to_the_lowest_source() {
        // Source 1's clock runs 100 ms ahead; its origin cancels that.
        let lanes = vec![vec![flow(5), flow(20)], vec![flow(105), flow(110)]];
        let order: Vec<(usize, u64)> = replay_order(&lanes, &[0, 100])
            .into_iter()
            .map(|(s, f)| (s, f.start_ms))
            .collect();
        assert_eq!(order, [(0, 5), (1, 105), (1, 110), (0, 20)]);
    }

    #[test]
    fn the_replica_builds_the_configuration_the_cli_parses() {
        let quiet = config_of(Workload::Quiet);
        assert_eq!(quiet.interval_ms, 15 * MINUTE_MS);
        assert_eq!(
            (quiet.detector.training_intervals, quiet.min_support),
            (48, 50)
        );
        assert!(quiet.rules.is_none());
        let fanin = config_of(Workload::Fanin);
        assert_eq!(fanin.interval_ms, MINUTE_MS);
        assert_eq!(fanin.rules, Some(RuleConfig::default()));
    }

    #[test]
    fn verdict_comparison_names_the_first_differing_interval() {
        let quiet = Verdict {
            alarm: false,
            report: None,
        };
        let loud = Verdict {
            alarm: true,
            report: Some("r".into()),
        };
        let cli = vec![quiet.clone(), loud.clone()];
        assert_eq!(same_verdicts("stage", &cli, &cli), Ok(()));
        let err = same_verdicts("stage", &[quiet.clone(), quiet.clone()], &cli).unwrap_err();
        assert!(err.contains("interval 1"), "{err}");
        assert!(same_verdicts("stage", &[quiet], &cli)
            .unwrap_err()
            .contains("closed 1"));
    }
}
