//! Engine and streaming tests that take their flows from the synthetic
//! workloads of `anomex-traffic`: offline extraction against the
//! online tail, batch against streaming, checkpoints against an
//! uninterrupted run, and runs against per-flow pushes.

use std::net::Ipv4Addr;

use anomex_core::{Engine, ExtractionConfig, IntervalOutcome, MultiSourceExtractor, StreamEvent};
use anomex_detector::DetectorConfig;
use anomex_mining::RuleConfig;
use anomex_netflow::snapshot::{RestoreError, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowRecord, Protocol, SourceId, SourceSpec};
use anomex_traffic::Scenario;

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

/// `flow_data` carries records only where the per-source rule merge
/// can be rendered: on a two-source grid, an event with an
/// extraction and rules holds the sources' window records
/// concatenated in registration order; every other event — no
/// extraction, rules off, or a one-lane grid — holds none.
#[test]
fn flow_data_is_filled_only_for_a_renderable_rule_merge() {
    let scenario = Scenario::small(11);
    let intervals = scenario.interval_count().min(23);
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
    for rules in [Some(RuleConfig::default()), None] {
        let config = ExtractionConfig {
            rules,
            ..stream_config(scenario.interval_ms())
        };
        let mut multi = MultiSourceExtractor::new(config.clone(), &two_specs(), None).unwrap();
        let mut lane = one_lane(config, 0);
        let (mut events, mut lane_events) = (Vec::new(), Vec::new());
        for split in &windows {
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
            let extracted = e.event.outcome.extraction.is_some();
            if extracted && rules.is_some() {
                merges += 1;
                assert_eq!(*e.flow_data, split.concat(), "interval {}", e.event.index);
            } else {
                assert!(e.flow_data.is_empty(), "interval {}", e.event.index);
            }
        }
        assert_eq!(merges > 0, rules.is_some(), "the planted flood extracts");
        assert!(lane_events
            .iter()
            .any(|e| e.event.outcome.extraction.is_some()));
        assert!(lane_events.iter().all(|e| e.flow_data.is_empty()));
    }
}

/// Runs are the per-flow pushes they stand for. Two sources on
/// skewed origins, one with a pre-origin flow, a late flow and a gap
/// of three windows, fed whole per-interval runs (each passed again
/// from where the last call stopped), give the events of pushing
/// every flow on its own: indices, flow counts, per-source weights,
/// cumulative drops and outcomes — and the same summary.
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
    let mut by_flow = MultiSourceExtractor::new(config.clone(), &specs, None).unwrap();
    let mut by_run = MultiSourceExtractor::new(config, &specs, None).unwrap();
    let (mut flow_events, mut run_events) = (Vec::new(), Vec::new());
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
    }
    let (tail, flow_summary) = by_flow.finish();
    flow_events.extend(tail);
    let (tail, run_summary) = by_run.finish();
    run_events.extend(tail);
    assert_eq!(run_summary, flow_summary);
    assert_eq!(run_summary.dropped_flows, 2, "one pre-origin, one late");
    assert!(run_summary.extractions > 0, "the planted flood extracts");
    assert_eq!(run_events.len(), flow_events.len());
    for (a, b) in run_events.iter().zip(&flow_events) {
        assert_eq!(a.source_flows, b.source_flows);
        assert_eq!(a.event.dropped_flows, b.event.dropped_flows);
        assert_same_event(&a.event, &b.event);
    }
    let drops: Vec<u64> = run_events.iter().map(|e| e.event.dropped_flows).collect();
    assert!(drops.contains(&1) && drops.contains(&2), "{drops:?}");
}
