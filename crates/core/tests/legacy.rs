//! The legacy surface the frozen benchmark replica imports is its main
//! path under another call shape: on one input, each legacy item gives
//! exactly the events, outcomes and checkpoint bytes of the call it
//! adapts.

use std::num::NonZeroUsize;

use anomex_core::{
    Engine, ExtractionConfig, MultiSourceExtractor, MultiStreamEvent, StreamEvent,
    StreamingExtractor,
};
use anomex_detector::DetectorConfig;
use anomex_mining::RuleConfig;
use anomex_netflow::{SourceId, SourceSpec};
use anomex_traffic::{MultiSourceScenario, Scenario};

const INTERVALS: u64 = 22;

fn config(interval_ms: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        rules: Some(RuleConfig::default()),
        ..ExtractionConfig::default()
    }
}

/// An event without its wall-clock reading, the one field that varies
/// run to run.
fn key(e: &StreamEvent) -> String {
    let (index, flows, dropped) = (e.index, e.flows, e.dropped_flows);
    let window = (e.begin_ms, e.end_ms);
    format!("{index} {window:?} {flows} {dropped} {:?}", e.outcome)
}

fn multi_key(e: &MultiStreamEvent) -> String {
    format!("{} {:?} {:?}", key(&e.event), e.source_flows, e.flow_data)
}

#[test]
fn streaming_extractor_is_a_one_lane_multi_source_extractor() {
    let scenario = Scenario::small(5);
    let config = config(scenario.interval_ms());
    let mut legacy = StreamingExtractor::try_new(config.clone(), NonZeroUsize::MIN, 0).unwrap();
    let mut lane = MultiSourceExtractor::new(config, &[SourceSpec::new(0u32, 0)], None).unwrap();
    let (mut legacy_events, mut lane_events) = (Vec::new(), Vec::new());
    for i in 0..INTERVALS {
        for flow in scenario.generate(i).flows {
            legacy_events.extend(legacy.push(flow));
            lane_events.extend(lane.push(SourceId(0), flow).into_iter().map(|e| e.event));
        }
        if i == INTERVALS / 2 {
            let (tail, legacy_payload) = legacy.checkpoint();
            legacy_events.extend(tail);
            let (tail, lane_payload) = lane.checkpoint();
            lane_events.extend(tail.into_iter().map(|e| e.event));
            assert_eq!(legacy_payload, lane_payload, "checkpoint bytes");
        }
    }
    let (tail, legacy_summary) = legacy.finish();
    legacy_events.extend(tail);
    let (tail, lane_summary) = lane.finish();
    lane_events.extend(tail.into_iter().map(|e| e.event));
    assert_eq!(legacy_summary, lane_summary);
    assert!(legacy_events.iter().any(|e| e.outcome.extraction.is_some()));
    let keys = |events: &[StreamEvent]| events.iter().map(key).collect::<Vec<_>>();
    assert_eq!(keys(&legacy_events), keys(&lane_events));
}

#[test]
fn try_new_is_new() {
    let scenario = MultiSourceScenario::uniform(3, 2);
    let config = ExtractionConfig {
        min_support: 200,
        ..config(scenario.interval_ms())
    };
    let specs = scenario.source_specs();
    let mut legacy =
        MultiSourceExtractor::try_new(config.clone(), NonZeroUsize::MIN, &specs, Some(2)).unwrap();
    let mut main = MultiSourceExtractor::new(config, &specs, Some(2)).unwrap();
    let (mut legacy_events, mut main_events) = (Vec::new(), Vec::new());
    for i in 0..scenario.interval_count() {
        for (s, spec) in specs.iter().enumerate() {
            for flow in scenario.generate(s, i).flows {
                legacy_events.extend(legacy.push(spec.id, flow));
                main_events.extend(main.push(spec.id, flow));
            }
        }
    }
    let (tail, legacy_payload) = legacy.checkpoint();
    legacy_events.extend(tail);
    let (tail, main_payload) = main.checkpoint();
    main_events.extend(tail);
    assert_eq!(legacy_payload, main_payload, "checkpoint bytes");
    let (tail, legacy_summary) = legacy.finish();
    legacy_events.extend(tail);
    let (tail, main_summary) = main.finish();
    main_events.extend(tail);
    assert_eq!(legacy_summary, main_summary);
    assert!(legacy_events.iter().any(|e| !e.flow_data.is_empty()));
    let keys = |events: &[MultiStreamEvent]| events.iter().map(multi_key).collect::<Vec<_>>();
    assert_eq!(keys(&legacy_events), keys(&main_events));
}

#[test]
fn sequential_is_new() {
    let scenario = Scenario::small(5);
    let config = config(scenario.interval_ms());
    let mut legacy = Engine::sequential(config.clone()).unwrap();
    let mut main = Engine::new(config.clone()).unwrap();
    for i in 0..INTERVALS {
        let flows = scenario.generate(i).flows;
        let (a, b) = (legacy.process(&flows), main.process(&flows));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "interval {i}");
    }
    assert_eq!(legacy.snapshot(), main.snapshot());
    let invalid = ExtractionConfig {
        min_support: 0,
        ..config
    };
    let (a, b) = (Engine::sequential(invalid.clone()), Engine::new(invalid));
    assert_eq!(a.unwrap_err().to_string(), b.unwrap_err().to_string());
}
