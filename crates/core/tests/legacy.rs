//! The legacy surface the frozen benchmark replica imports is its main
//! path under another call shape: on one input, each legacy item gives
//! exactly the events, outcomes, rules and checkpoint bytes of the call
//! it adapts.

use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

use anomex_core::{
    merge_source_rules, prefilter_indices_columns, source_rules, Engine, ExtractionConfig,
    MultiSourceExtractor, MultiStreamEvent, PrefilterMode, StreamEvent, StreamingExtractor,
    TransactionMode,
};
use anomex_detector::{DetectorConfig, MetaData};
use anomex_mining::{merge_rule_sets, RuleConfig, RuleSet, RARE_SUPPORT_GUARD};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol, SourceId, SourceSpec};
use anomex_traffic::rng::Rng;
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
    format!(
        "{} {:?} {:?}",
        key(&e.event),
        e.source_flows,
        e.source_rules
    )
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
    let mut main = MultiSourceExtractor::new(config.clone(), &specs, Some(2)).unwrap();
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
    let keys = |events: &[MultiStreamEvent]| events.iter().map(multi_key).collect::<Vec<_>>();
    assert_eq!(keys(&legacy_events), keys(&main_events));
    // Only the legacy stream carries records, exactly where a rule merge
    // rides on the event, and the record merge of them is that merge.
    assert!(main_events.iter().all(|e| e.flow_data.is_empty()));
    assert!(legacy_events.iter().any(|e| e.source_rules.is_some()));
    for e in &legacy_events {
        let Some(rules) = &e.source_rules else {
            assert!(e.flow_data.is_empty(), "interval {}", e.event.index);
            continue;
        };
        assert_eq!(
            e.flow_data.len(),
            e.event.flows,
            "interval {}",
            e.event.index
        );
        let metadata = &e.event.outcome.extraction.as_ref().unwrap().metadata;
        let merged = merge_source_rules(&e.flow_data, &e.source_flows, metadata, &config);
        assert_eq!(format!("{merged:?}"), format!("{:?}", Some(rules)));
    }
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

/// One generated merged interval for the rule merge: its flows, the
/// per-source counts that partition them, the meta-data and the
/// configuration, each drawn from `seed`.
struct MergeCase {
    flows: Vec<FlowRecord>,
    source_flows: Vec<usize>,
    metadata: MetaData,
    config: ExtractionConfig,
}

/// 2–4 sources over a few values per feature, so rules repeat. One
/// source is empty and one (another) sends nothing the meta-data names.
/// The rule layer is off, on, or `rare` at [`RARE_SUPPORT_GUARD`] or
/// above. The support is tiny (every weighted floor rounds to 1),
/// moderate (every floor is 3 or more), within 1 000 below `u64::MAX`,
/// or just above 2⁶³: `s × len` overflows u64 (and would wrap to a
/// floor near 1 for an even `len` above 2⁶³). The pre-filter
/// and the transaction shape vary too. A floor near 1 mines nearly
/// every subset of every transaction, and so does `rare`'s per-level
/// floor, so those cases keep to short sources of canonical
/// transactions.
fn merge_case(seed: u64) -> MergeCase {
    let mut rng = Rng::seed_from_u64(seed);
    let sources = rng.range_inclusive(2usize..=4);
    let empty = rng.range(0..sources);
    let clean = (empty + 1 + rng.range(0..sources - 1)) % sources;
    let rules = match rng.range(0u32..4) {
        0 => None,
        1 => Some(RuleConfig {
            rare: true,
            ..RuleConfig::default()
        }),
        _ => Some(RuleConfig::default()),
    };
    let rare = rules.is_some_and(|r| r.rare);
    let (min_support, longest) = match rng.range(0u32..4) {
        _ if rare => (RARE_SUPPORT_GUARD + rng.range(0u64..200), 5),
        0 => (rng.range(1u64..3), 5),
        1 => (rng.range(40u64..120), 40),
        2 => (u64::MAX - rng.range(0u64..1_000), 40),
        _ => ((1 << 63) + rng.range(0u64..3), 40),
    };
    let short = longest == 5;
    let mut flows = Vec::new();
    let mut source_flows = Vec::new();
    for s in 0..sources {
        let len = if s == empty {
            0
        } else {
            rng.range(longest / 4..longest)
        };
        for j in 0..len {
            let net = if s == clean { 20 } else { 10 };
            let ports: &[u16] = if s == clean {
                &[53, 443]
            } else {
                &[80, 7000, 53]
            };
            let flow = FlowRecord::new(
                j as u64,
                Ipv4Addr::new(net, 0, s as u8, rng.range(0u32..3) as u8),
                Ipv4Addr::new(192, 168, rng.range(0u32..2) as u8, rng.range(0u32..3) as u8),
                1024 + rng.range(0u16..3),
                ports[rng.range(0..ports.len())],
                if rng.range(0u32..4) == 0 {
                    Protocol::Udp
                } else {
                    Protocol::Tcp
                },
            );
            flows.push(flow.with_volume(1 + rng.range(0u32..2), 40 * (1 + rng.range(0u32..3))));
        }
        source_flows.push(len);
    }
    let mut metadata = MetaData::new();
    metadata.insert_all(FlowFeature::DstPort, [80, 7000]);
    if rng.range(0u32..2) == 0 {
        // Hosts .0 and .1 of every source's net: .2 misses.
        for s in 0..4 {
            let host = |last| u64::from(u32::from(Ipv4Addr::new(10, 0, s, last)));
            metadata.insert_all(FlowFeature::SrcIp, [host(0), host(1)]);
        }
    }
    let config = ExtractionConfig {
        min_support,
        rules,
        prefilter: if rng.range(0u32..2) == 0 {
            PrefilterMode::Union
        } else {
            PrefilterMode::Intersection
        },
        transactions: if short || rng.range(0u32..2) == 0 {
            TransactionMode::Canonical
        } else {
            TransactionMode::WithPrefixes
        },
        ..config(60_000)
    };
    MergeCase {
        flows,
        source_flows,
        metadata,
        config,
    }
}

/// The record merge as it was before the columnar one: each source's
/// segment transposed, pre-filtered and mined on its own, through
/// `Engine::extract` at the segment's weighted floor, and the rule sets
/// merged.
fn per_segment_merge(
    flows: &[FlowRecord],
    source_flows: &[usize],
    metadata: &MetaData,
    config: &ExtractionConfig,
) -> Option<RuleSet> {
    if config.rules.is_none() || source_flows.iter().sum::<usize>() != flows.len() {
        return None;
    }
    let (mut start, mut per_source) = (0, Vec::new());
    for &len in source_flows {
        let segment = &flows[start..start + len];
        start += len;
        if segment.is_empty() {
            continue;
        }
        let weighted = u128::from(config.min_support) * len as u128 / flows.len() as u128;
        let min_support = u64::try_from(weighted).unwrap_or(u64::MAX).max(1);
        let engine = Engine::new(ExtractionConfig {
            min_support,
            ..config.clone()
        });
        per_source.extend(engine.unwrap().extract(segment, metadata).rules);
    }
    Some(merge_rule_sets(&per_source))
}

/// The columnar merge is the record merge, and both are the per-segment
/// merge they replace: on generated merged intervals all three return
/// the same rules, and `None` exactly when the rule layer is off or the
/// counts do not partition the interval (one count too many, one source
/// missing).
#[test]
fn source_rules_is_the_record_merge() {
    let mut mined = 0;
    for seed in 0..96 {
        let case = merge_case(seed);
        let cols = FlowColumns::from_flows(&case.flows);
        let (metadata, config) = (&case.metadata, &case.config);
        let mut bad_counts = case.source_flows.clone();
        bad_counts[0] += 1;
        let missing = &case.source_flows[1..];
        for counts in [&case.source_flows[..], &bad_counts, missing] {
            let reference = per_segment_merge(&case.flows, counts, metadata, config);
            let record = merge_source_rules(&case.flows, counts, metadata, config);
            let rows = prefilter_indices_columns(&cols, metadata, config.prefilter);
            let columns = source_rules(&cols, counts, &rows, config);
            let context = format!("seed {seed}: counts {counts:?}, {config:?}");
            assert_eq!(
                format!("{reference:?}"),
                format!("{columns:?}"),
                "{context}"
            );
            assert_eq!(format!("{record:?}"), format!("{columns:?}"), "{context}");
            let partitions = counts.iter().sum::<usize>() == case.flows.len();
            let expected = config.rules.is_some() && partitions;
            assert_eq!(columns.is_some(), expected, "{context}");
            mined += usize::from(columns.is_some_and(|r| !r.is_empty()));
        }
    }
    assert!(mined > 0, "some case mines a rule");
}
