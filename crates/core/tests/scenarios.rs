//! Engine and streaming tests that take their flows from the synthetic
//! workloads of `anomex-traffic`: offline extraction against the
//! online tail, batch against streaming, checkpoints against an
//! uninterrupted run, and runs against per-flow pushes.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use anomex_core::{
    prefilter_indices_columns, render_report, render_rule_merge, source_rules, Engine,
    ExtractionConfig, IntervalOutcome, MultiSourceExtractor, PrefilterMode, StreamEvent,
};
use anomex_detector::DetectorConfig;
use anomex_mining::RuleConfig;
use anomex_netflow::snapshot::{RestoreError, SnapshotWriter};
use anomex_netflow::v5::V5Exporter;
use anomex_netflow::v9::TraceReader;
use anomex_netflow::{
    CaptureColumns, FlowColumns, FlowRecord, FlowRun, Protocol, SourceId, SourceSpec,
};
use anomex_traffic::{MultiSourceScenario, Scenario};

const SRC: SourceId = SourceId(0);

fn test_config(min_support: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: 60_000,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support,
        ..ExtractionConfig::default()
    }
}

/// [`test_config`] at support 800 on `interval_ms`-long windows.
fn stream_config(interval_ms: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms,
        ..test_config(800)
    }
}

/// One exporter with clock origin `origin_ms`: a fan-in of one.
fn one_lane(config: ExtractionConfig, origin_ms: u64) -> MultiSourceExtractor {
    MultiSourceExtractor::new(config, &[SourceSpec::new(0u32, origin_ms)], None).unwrap()
}

fn two_specs() -> Vec<SourceSpec> {
    vec![SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 0)]
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

/// The offline method is the online tail: on every alarmed interval
/// of a scenario with a planted flood, a second engine under the same
/// configuration, given the interval's flows and voted meta-data,
/// extracts exactly what the online engine did, rules on and off.
#[test]
fn offline_extract_is_the_online_tail() {
    let scenario = Scenario::small(11);
    let intervals: Vec<_> = (0..scenario.interval_count().min(24))
        .map(|i| scenario.generate(i).flows)
        .collect();
    for rules in [None, Some(RuleConfig::default())] {
        let config = ExtractionConfig {
            rules,
            ..test_config(800)
        };
        let mut online = Engine::new(config.clone()).unwrap();
        let offline = Engine::new(config).unwrap();
        let mut alarmed = 0;
        for flows in &intervals {
            let outcome = online.process(flows);
            let Some(live) = outcome.extraction else {
                continue;
            };
            alarmed += 1;
            let mut ex = offline.extract(flows, &outcome.observation.metadata);
            ex.interval = live.interval;
            // `Debug` shows every field — item-sets with their supports,
            // levels, rules — and every float as the shortest string
            // that round-trips, so equal text is equal bits.
            assert_eq!(
                format!("{ex:?}"),
                format!("{live:?}"),
                "rules {}",
                rules.is_some()
            );
        }
        assert!(alarmed > 0, "the planted flood alarms");
    }
}

#[test]
fn process_accepts_every_interval_representation() {
    let scenario = Scenario::small(11);
    let mut by_slice = Engine::new(test_config(800)).unwrap();
    let mut by_vec = Engine::new(test_config(800)).unwrap();
    let mut by_columns = Engine::new(test_config(800)).unwrap();
    for i in 0..scenario.interval_count().min(14) {
        let interval = scenario.generate(i);
        let a = by_slice.process(interval.flows.as_slice());
        let b = by_vec.process(&interval.flows);
        let mut cols = FlowColumns::new();
        for flow in &interval.flows {
            cols.push(flow);
        }
        let c = by_columns.process(&cols);
        assert_eq!(a.observation.alarm, b.observation.alarm, "interval {i}");
        assert_eq!(b.observation.alarm, c.observation.alarm, "interval {i}");
        assert_eq!(a.observation.metadata, b.observation.metadata);
        assert_eq!(b.observation.metadata, c.observation.metadata);
    }
}

#[test]
fn snapshot_restore_round_trips_bit_identically() {
    let scenario = Scenario::small(11);
    let mut live = Engine::new(test_config(800)).unwrap();
    for i in 0..13 {
        let _ = live.process(scenario.generate(i).flows.as_slice());
    }
    let payload = live.snapshot();
    let mut restored = Engine::restore(&payload).unwrap();
    assert_eq!(restored.is_trained(), live.is_trained());
    assert_eq!(restored.config().min_support, live.config().min_support);
    for i in 13..scenario.interval_count().min(22) {
        let flows = scenario.generate(i).flows;
        let a = live.process(flows.as_slice());
        let b = restored.process(flows.as_slice());
        assert_eq!(a.observation.alarm, b.observation.alarm, "interval {i}");
        assert_eq!(a.observation.metadata, b.observation.metadata);
        for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
            for (cx, cy) in x.clones.iter().zip(&y.clones) {
                assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
            }
        }
    }
}

/// `engine`'s payload with `shards` in the shard-count field, as an
/// engine built with that many shards wrote it.
fn payload_at_shards(engine: &Engine, shards: usize) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    engine.config().encode_snapshot(&mut w);
    w.usize(shards);
    engine.bank().encode_snapshot(&mut w);
    w.into_bytes()
}

#[test]
fn restore_rejects_garbage() {
    assert!(Engine::restore(&[1, 2, 3]).is_err());
    let mut live = Engine::new(test_config(500)).unwrap();
    let _ = live.process([].as_slice());
    assert!(matches!(
        Engine::restore(&payload_at_shards(&live, 0)),
        Err(RestoreError::Corrupt(_))
    ));
    let mut payload = live.snapshot();
    payload.truncate(payload.len() / 2);
    assert!(Engine::restore(&payload).is_err());
}

/// A payload an engine wrote at 2 shards restores, and scores every
/// later interval bit-identically to the 1-shard payload of the
/// same state — the one this engine writes.
#[test]
fn payload_recorded_at_two_shards_restores_like_one() {
    let scenario = Scenario::small(11);
    let mut live = Engine::new(test_config(800)).unwrap();
    for i in 0..13 {
        let _ = live.process(scenario.generate(i).flows.as_slice());
    }
    assert_eq!(payload_at_shards(&live, 1), live.snapshot());
    let mut one = Engine::restore(&payload_at_shards(&live, 1)).unwrap();
    let mut two = Engine::restore(&payload_at_shards(&live, 2)).unwrap();
    let mut alarms = 0;
    for i in 13..scenario.interval_count().min(24) {
        let flows = scenario.generate(i).flows;
        let (a, b) = (one.process(&flows), two.process(&flows));
        alarms += usize::from(a.observation.alarm);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "interval {i}");
    }
    assert!(alarms > 0, "the planted flood alarms");
}

#[test]
fn online_pipeline_extracts_planted_flood() {
    let scenario = Scenario::small(11);
    let mut pipeline = Engine::new(test_config(800)).unwrap();
    let mut extractions = Vec::new();
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        let outcome = pipeline.process(&interval.flows);
        if let Some(ex) = outcome.extraction {
            extractions.push(ex);
        }
    }
    // The flood at interval 20 must be extracted.
    let flood = extractions.iter().find(|e| e.interval == 20);
    let flood = flood.expect("flood interval extracted");
    let all = flood
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(all.contains("dstPort=7000"), "flood port extracted:\n{all}");
    // Pre-filtering reduces the mining input. (The reduction can be
    // modest when the meta-data contains a common packet count — the
    // paper's §III-D caveat about common feature values.)
    assert!(flood.suspicious_flows < flood.total_flows);
    assert!(flood.suspicious_flows > 0);
}

#[test]
fn quiet_intervals_produce_almost_no_extractions() {
    let scenario = Scenario::small(11);
    let mut pipeline = Engine::new(test_config(800)).unwrap();
    let mut alarms_in_quiet = 0;
    for i in 0..18 {
        let interval = scenario.generate(i);
        let outcome = pipeline.process(&interval.flows);
        if outcome.extraction.is_some() {
            alarms_in_quiet += 1;
        }
    }
    // A 3σ̂ one-sided threshold admits the occasional stray alarm on
    // clean traffic (that is the point of the ROC analysis); what must
    // not happen is routine alarming.
    assert!(
        alarms_in_quiet <= 1,
        "got {alarms_in_quiet} alarms on quiet traffic"
    );
}

/// Assert two outcomes match: alarm, meta-data, the KL series to the
/// bit, and the extraction.
fn assert_same_outcome(a: &IntervalOutcome, b: &IntervalOutcome) {
    assert_eq!(a.observation.alarm, b.observation.alarm);
    assert_eq!(a.observation.metadata, b.observation.metadata);
    for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
        for (cx, cy) in x.clones.iter().zip(&y.clones) {
            assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
        }
    }
    match (&a.extraction, &b.extraction) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.itemsets, y.itemsets);
            assert_eq!(x.levels, y.levels);
            assert_eq!(x.suspicious_flows, y.suspicious_flows);
            assert_eq!(x.cost_reduction.to_bits(), y.cost_reduction.to_bits());
        }
        _ => panic!("extraction presence diverged"),
    }
}

/// Assert two events match: index, window, flow count, outcome.
fn assert_same_event(a: &StreamEvent, b: &StreamEvent) {
    assert_eq!(a.index, b.index);
    assert_eq!((a.begin_ms, a.end_ms), (b.begin_ms, b.end_ms));
    assert_eq!(a.flows, b.flows);
    assert_same_outcome(&a.outcome, &b.outcome);
}

#[test]
fn streaming_matches_batch_bit_for_bit() {
    let scenario = Scenario::small(11);
    let intervals = scenario.interval_count().min(23);
    let mut batch = Engine::new(stream_config(scenario.interval_ms())).unwrap();
    let mut stream = one_lane(stream_config(scenario.interval_ms()), 0);
    let mut events = Vec::new();
    let mut batch_outcomes = Vec::new();
    for i in 0..intervals {
        let interval = scenario.generate(i);
        batch_outcomes.push(batch.process(&interval.flows));
        for flow in interval.flows {
            events.extend(stream.push(SRC, flow));
        }
    }
    let (tail, summary) = stream.finish();
    events.extend(tail);
    assert_eq!(events.len() as u64, intervals);
    assert_eq!(summary.intervals, intervals);
    assert_eq!(summary.dropped_flows, 0);
    for (i, (event, batch)) in events.iter().zip(&batch_outcomes).enumerate() {
        assert_eq!(event.event.index, i as u64);
        assert_eq!(event.source_flows, vec![event.event.flows]);
        assert_same_outcome(&event.event.outcome, batch);
    }
}

#[test]
fn checkpoint_and_restore_resume_the_stream_bit_identically() {
    let scenario = Scenario::small(11);
    let intervals = scenario.interval_count().min(23);
    let cut = 13; // inside the detecting phase, past training
    let config = || stream_config(scenario.interval_ms());
    // Uninterrupted reference run.
    let mut reference = one_lane(config(), 0);
    let mut ref_events = Vec::new();
    // Interrupted run: checkpoint mid-stream, drop the extractor
    // (the "kill"), restore, and continue.
    let mut first_half = one_lane(config(), 0);
    let mut resumed_events = Vec::new();
    for i in 0..intervals {
        for flow in scenario.generate(i).flows {
            ref_events.extend(reference.push(SRC, flow));
            if i < cut {
                resumed_events.extend(first_half.push(SRC, flow));
            }
        }
    }
    let (tail, payload) = first_half.checkpoint();
    resumed_events.extend(tail);
    drop(first_half); // simulated crash after the checkpoint landed
    let mut resumed = MultiSourceExtractor::restore(&payload).unwrap();
    for i in cut..intervals {
        for flow in scenario.generate(i).flows {
            resumed_events.extend(resumed.push(SRC, flow));
        }
    }
    let (tail, ref_summary) = reference.finish();
    ref_events.extend(tail);
    let (tail, resumed_summary) = resumed.finish();
    resumed_events.extend(tail);
    assert_eq!(ref_summary, resumed_summary);
    assert_eq!(ref_events.len(), resumed_events.len());
    for (a, b) in ref_events.iter().zip(&resumed_events) {
        assert_eq!(a.source_flows, b.source_flows);
        assert_same_event(&a.event, &b.event);
    }
}

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The per-source rule merge rides on the event where it can be
/// rendered: on a two-source grid, an event with an extraction and
/// rules carries the merge of the sources' window rows concatenated in
/// registration order, pre-filtered by a scan of their columns under the
/// extraction's meta-data (which the outcome's rows equal), in either
/// pre-filter mode; every other event — no extraction, rules off, or a
/// one-lane grid — carries none. Halfway through, the fan-in is saved
/// to a file and loaded again. Neither `new` nor `load` fills
/// `flow_data`.
#[test]
fn source_rules_ride_only_on_a_renderable_rule_merge() {
    let scenario = Scenario::small(11);
    let intervals = scenario.interval_count().min(23);
    let path = scratch_dir("anomex-core-source-rules-test").join("stream.ckpt");
    // Flow j of each interval goes to source j % 2.
    let windows: Vec<[Vec<FlowRecord>; 2]> = (0..intervals)
        .map(|i| {
            let flows = scenario.generate(i).flows;
            let mut split = [Vec::new(), Vec::new()];
            for (j, flow) in flows.into_iter().enumerate() {
                split[j % 2].push(flow);
            }
            split
        })
        .collect();
    let modes = [PrefilterMode::Union, PrefilterMode::Intersection];
    for (rules, prefilter) in [Some(RuleConfig::default()), None]
        .into_iter()
        .flat_map(|rules| modes.map(|mode| (rules, mode)))
    {
        let config = ExtractionConfig {
            rules,
            prefilter,
            ..stream_config(scenario.interval_ms())
        };
        let mut multi = MultiSourceExtractor::new(config.clone(), &two_specs(), None).unwrap();
        let mut lane = one_lane(config.clone(), 0);
        let (mut events, mut lane_events) = (Vec::new(), Vec::new());
        for (i, split) in windows.iter().enumerate() {
            if i == windows.len() / 2 {
                let (tail, saved) = multi.save(&path);
                events.extend(tail);
                saved.unwrap();
                multi = MultiSourceExtractor::load(&path).unwrap();
            }
            for j in 0..split[0].len() + split[1].len() {
                let flow = split[j % 2][j / 2];
                events.extend(multi.push(SourceId((j % 2) as u32), flow));
                lane_events.extend(lane.push(SRC, flow));
            }
        }
        events.extend(multi.finish().0);
        lane_events.extend(lane.finish().0);
        assert_eq!(events.len(), windows.len());
        let mut merges = 0;
        for (e, split) in events.iter().zip(&windows) {
            let index = e.event.index;
            assert!(e.flow_data.is_empty(), "interval {index}");
            let outcome = &e.event.outcome;
            let Some(extraction) = outcome.extraction.as_ref() else {
                assert!(e.source_rules.is_none(), "interval {index}");
                assert!(outcome.suspicious_rows.is_empty(), "interval {index}");
                continue;
            };
            let cols = FlowColumns::from_flows(&split.concat());
            let counts = [split[0].len(), split[1].len()];
            let rows = prefilter_indices_columns(&cols, &extraction.metadata, prefilter);
            assert_eq!(
                outcome.suspicious_rows, rows,
                "{prefilter:?} interval {index}"
            );
            let expected = source_rules(&cols, &counts, &rows, &config);
            assert_eq!(e.source_rules, expected, "{prefilter:?} interval {index}");
            merges += usize::from(expected.is_some());
        }
        assert_eq!(merges > 0, rules.is_some(), "the planted flood extracts");
        assert!(lane_events
            .iter()
            .any(|e| e.event.outcome.extraction.is_some()));
        assert!(lane_events
            .iter()
            .all(|e| e.source_rules.is_none() && e.flow_data.is_empty()));
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Two runs of one three-source fan-in with rules, in one process (so
/// every hash map is seeded apart), print the same reports and rule
/// merges and save the same checkpoint file bytes.
#[test]
fn a_fan_in_twice_in_one_process_gives_the_same_bytes() {
    let dir = scratch_dir("anomex-core-twin-run-test");
    let twin = |name: &str| {
        let scenario = MultiSourceScenario::uniform(3, 3);
        let config = ExtractionConfig {
            min_support: 200,
            rules: Some(RuleConfig::default()),
            ..stream_config(scenario.interval_ms())
        };
        let specs = scenario.source_specs();
        let mut stream = MultiSourceExtractor::new(config, &specs, None).unwrap();
        let (mut events, path) = (Vec::new(), dir.join(name));
        let cut = scenario.interval_count() * 2 / 3;
        for i in 0..scenario.interval_count() {
            if i == cut {
                let (tail, saved) = stream.save(&path);
                events.extend(tail);
                saved.unwrap();
            }
            for (s, spec) in specs.iter().enumerate() {
                for flow in scenario.generate(s, i).flows {
                    events.extend(stream.push(spec.id, flow));
                }
            }
        }
        events.extend(stream.finish().0);
        let mut text = String::new();
        for e in &events {
            if let Some(extraction) = &e.event.outcome.extraction {
                text += &render_report(extraction);
            }
            if let Some(rules) = &e.source_rules {
                text += &render_rule_merge(rules, e.source_flows.len());
            }
        }
        (text, std::fs::read(&path).unwrap())
    };
    let (first, second) = (twin("first.ckpt"), twin("second.ckpt"));
    assert!(first.0.contains("Per-source rule merge — 3 source(s)"));
    assert!(first.0 == second.0, "the reports differ between runs");
    assert!(
        first.1 == second.1,
        "the checkpoint files differ between runs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `flows` exported as v5 datagrams and read back into one wire-width
/// capture block, as a replay lane holds them.
fn capture_block(flows: &[FlowRecord]) -> CaptureColumns {
    let bytes = V5Exporter::new().export(flows).concat();
    let mut reader = TraceReader::new(&bytes[..]);
    let mut block = CaptureColumns::default();
    while let Some(packet) = reader.read_columns(&mut block) {
        packet.unwrap();
    }
    block
}

/// Runs are the per-flow pushes they stand for, in either layout. Two
/// sources on skewed origins, one with a pre-origin flow, a late flow
/// and a gap of three windows, fed whole per-interval runs (each passed
/// again from where the last call stopped) — as records, and as row
/// ranges of each interval's capture exported and read back — give the
/// events of pushing every flow on its own: indices, flow counts,
/// per-source weights, cumulative drops and outcomes — and the same
/// summary.
#[test]
fn push_run_gives_the_events_of_per_flow_pushes() {
    let scenario = Scenario::small(11);
    let delta = scenario.interval_ms();
    let specs = [SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 500)];
    let mut script: Vec<(SourceId, Vec<FlowRecord>)> = Vec::new();
    for i in 0..scenario.interval_count().min(23) {
        let flows = scenario.generate(i).flows;
        let mut other: Vec<FlowRecord> = (flows.iter().step_by(5))
            .map(|f| FlowRecord {
                start_ms: f.start_ms + 500,
                ..*f
            })
            .collect();
        match i {
            3 => other.insert(0, flow_at(100)), // before source 1's origin
            6 => other.push(flow_at(2 * delta + 600)), // window 2 closed long ago
            8..=10 => other.clear(),            // a gap of three windows
            _ => {}
        }
        script.push((SourceId(0), flows));
        script.push((SourceId(1), other));
    }
    let config = stream_config(delta);
    let engine = || MultiSourceExtractor::new(config.clone(), &specs, None).unwrap();
    let (mut by_flow, mut by_run, mut by_rows) = (engine(), engine(), engine());
    let (mut flow_events, mut run_events, mut row_events) = (Vec::new(), Vec::new(), Vec::new());
    for (source, flows) in &script {
        for &flow in flows {
            flow_events.extend(by_flow.push(*source, flow));
        }
        let mut rest = &flows[..];
        while !rest.is_empty() {
            let (n, events) = by_run.push_run(*source, rest);
            assert!(n > 0, "a run consumes at least one flow");
            run_events.extend(events);
            rest = &rest[n..];
        }
        let block = capture_block(flows);
        let mut rows = FlowColumns::new();
        block
            .run(0..block.len())
            .append_rows(0..block.len(), &mut rows);
        let starts: Vec<u64> = flows.iter().map(|f| f.start_ms).collect();
        let wire: Vec<u64> = block.start_ms().iter().map(|&ms| u64::from(ms)).collect();
        assert_eq!(
            (wire, rows),
            (starts, FlowColumns::from_flows(flows)),
            "every field the block holds fits the wire"
        );
        let mut at = 0;
        while at < block.len() {
            let (n, events) = by_rows.push_run(*source, &block.run(at..block.len()));
            assert!(n > 0, "a run consumes at least one flow");
            row_events.extend(events);
            at += n;
        }
    }
    let (tail, flow_summary) = by_flow.finish();
    flow_events.extend(tail);
    let (tail, run_summary) = by_run.finish();
    run_events.extend(tail);
    let (tail, row_summary) = by_rows.finish();
    row_events.extend(tail);
    assert_eq!(run_summary, flow_summary);
    assert_eq!(row_summary, flow_summary);
    assert_eq!(run_summary.dropped_flows, 2, "one pre-origin, one late");
    assert!(run_summary.extractions > 0, "the planted flood extracts");
    for got in [&run_events, &row_events] {
        assert_eq!(got.len(), flow_events.len());
        for (a, b) in got.iter().zip(&flow_events) {
            assert_eq!(a.source_flows, b.source_flows);
            assert_eq!(a.event.dropped_flows, b.event.dropped_flows);
            assert_same_event(&a.event, &b.event);
        }
    }
    let drops: Vec<u64> = run_events.iter().map(|e| e.event.dropped_flows).collect();
    assert!(drops.contains(&1) && drops.contains(&2), "{drops:?}");
}
