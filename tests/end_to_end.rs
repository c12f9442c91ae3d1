//! End-to-end integration tests: every anomaly class, injected into a
//! realistic background, must be detected by the histogram detectors and
//! extracted as item-sets that pin its root cause.

use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

use anomex::core::{render_report, StreamingExtractor};
use anomex::mining::RuleConfig;
use anomex::prelude::*;
use anomex::traffic::{BackgroundConfig, EventId, EventParams, ScenarioConfig};

/// Build a one-event scenario over a quiet background.
fn one_event_scenario(params: EventParams, flows_per_interval: u64, seed: u64) -> Scenario {
    let background = BackgroundConfig {
        flows_per_interval: 4000,
        diurnal: false,
        noise: 0.03,
        ..BackgroundConfig::default()
    };
    let config = ScenarioConfig {
        seed,
        intervals: 30,
        interval_ms: 60_000,
        background,
    };
    let events = vec![anomex::traffic::EventSpec {
        id: EventId(0),
        start_interval: 24,
        duration: 1,
        flows_per_interval,
        params,
    }];
    Scenario::new(config, events)
}

fn pipeline_config() -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: 60_000,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 900,
        ..ExtractionConfig::default()
    }
}

/// Drive the scenario through the pipeline; return the extraction at the
/// event interval (test fails loudly if there is none).
fn extract_event(scenario: &Scenario) -> Extraction {
    let mut pipeline = Engine::sequential(pipeline_config()).unwrap();
    let mut hit = None;
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        let outcome = pipeline.process(&interval.flows);
        if i == 24 {
            assert!(
                outcome.observation.alarm,
                "the detector bank must alarm at the event interval"
            );
            hit = outcome.extraction;
        }
    }
    hit.expect("the alarmed interval must produce an extraction")
}

fn assert_extracts(extraction: &Extraction, needles: &[&str]) {
    let joined = extraction
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    for needle in needles {
        assert!(
            joined.contains(needle),
            "expected {needle} in the extracted item-sets:\n{}",
            render_report(extraction)
        );
    }
}

#[test]
fn flooding_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::Flooding {
            sources: vec![Ipv4Addr::new(91, 1, 1, 1), Ipv4Addr::new(91, 1, 1, 2)],
            victim: Ipv4Addr::new(10, 3, 0, 7),
            port: 7000,
        },
        3000,
        101,
    );
    let ex = extract_event(&scenario);
    assert_extracts(&ex, &["dstPort=7000", "dstIP=10.3.0.7"]);
}

/// Golden rule-layer test: on the seeded flood, the top-ranked
/// association rule must implicate the attack (the flood item-set on
/// one side, the victim port on the other) — and the streaming path
/// must reproduce the batch rule report byte for byte.
#[test]
fn flood_rules_rank_the_attack_first_in_batch_and_stream() {
    let scenario = one_event_scenario(
        EventParams::Flooding {
            sources: vec![Ipv4Addr::new(91, 1, 1, 1), Ipv4Addr::new(91, 1, 1, 2)],
            victim: Ipv4Addr::new(10, 3, 0, 7),
            port: 7000,
        },
        3000,
        101,
    );
    let config = ExtractionConfig {
        rules: Some(RuleConfig::default()),
        ..pipeline_config()
    };

    // Batch path.
    let mut pipeline = Engine::sequential(config.clone()).unwrap();
    let mut batch_ex = None;
    for i in 0..scenario.interval_count() {
        let outcome = pipeline.process(&scenario.generate(i).flows);
        if i == 24 {
            batch_ex = outcome.extraction;
        }
    }
    let batch_ex = batch_ex.expect("the flood interval must extract");
    let rules = batch_ex.rules.as_ref().expect("the rule layer is on");
    assert!(!rules.is_empty(), "the flood must yield rules");
    let top = rules.rules[0].rule.to_string();
    assert!(
        top.contains("dstPort=7000") && top.contains("dstIP=10.3.0.7"),
        "the top-ranked rule must implicate the attack, got {top}\n{}",
        render_report(&batch_ex)
    );
    for lower in &rules.rules[1..] {
        assert!(
            rules.rules[0].score.total_cmp(&lower.score).is_ge(),
            "ranking must put the attack rule first"
        );
    }

    // Streaming path: same config, same flows, byte-identical report.
    let mut stream = StreamingExtractor::try_new(config, NonZeroUsize::new(2).unwrap(), 0).unwrap();
    let mut stream_ex = None;
    let mut events = Vec::new();
    for i in 0..scenario.interval_count() {
        for flow in scenario.generate(i).flows {
            events.extend(stream.push(flow));
        }
    }
    let (tail, _) = stream.finish();
    events.extend(tail);
    for event in events {
        if event.index == 24 {
            stream_ex = event.outcome.extraction;
        }
    }
    let stream_ex = stream_ex.expect("the streamed flood interval must extract");
    assert_eq!(
        render_report(&stream_ex),
        render_report(&batch_ex),
        "streaming rule report diverged from batch"
    );
}

#[test]
fn ddos_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::DDoS {
            victim: Ipv4Addr::new(10, 5, 0, 80),
            port: 80,
            attackers: 900,
        },
        3500,
        102,
    );
    let ex = extract_event(&scenario);
    // Many sources: the victim is pinned; no single source is frequent.
    assert_extracts(&ex, &["dstIP=10.5.0.80"]);
    let per_source = ex
        .itemsets
        .iter()
        .filter(|s| {
            s.to_string().contains("srcIP=45.") && s.to_string().contains("dstIP=10.5.0.80")
        })
        .count();
    assert_eq!(
        per_source, 0,
        "no attacking bot should be frequent on its own"
    );
}

#[test]
fn scanning_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::Scanning {
            scanner: Ipv4Addr::new(66, 6, 6, 6),
            port: 445,
        },
        2500,
        103,
    );
    let ex = extract_event(&scenario);
    assert_extracts(&ex, &["srcIP=66.6.6.6", "dstPort=445"]);
}

#[test]
fn backscatter_is_extracted() {
    let scenario = one_event_scenario(EventParams::Backscatter { port: 9022 }, 2500, 104);
    let ex = extract_event(&scenario);
    assert_extracts(&ex, &["dstPort=9022", "#packets=1"]);
}

#[test]
fn spam_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::Spam {
            servers: vec![Ipv4Addr::new(10, 8, 0, 25), Ipv4Addr::new(10, 8, 1, 25)],
            senders: 80,
        },
        2500,
        105,
    );
    let ex = extract_event(&scenario);
    assert_extracts(&ex, &["dstPort=25"]);
}

#[test]
fn network_experiment_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::NetworkExperiment {
            node: Ipv4Addr::new(10, 12, 0, 42),
            src_port: 33434,
            dst_port: 33435,
        },
        2500,
        106,
    );
    let ex = extract_event(&scenario);
    assert_extracts(&ex, &["srcIP=10.12.0.42", "srcPort=33434", "dstPort=33435"]);
}

#[test]
fn unknown_exchange_is_extracted() {
    let scenario = one_event_scenario(
        EventParams::Unknown {
            a: Ipv4Addr::new(10, 13, 0, 1),
            b: Ipv4Addr::new(185, 44, 0, 9),
        },
        2500,
        107,
    );
    let ex = extract_event(&scenario);
    // Either direction of the exchange may dominate the item-sets.
    let joined = ex
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        joined.contains("10.13.0.1") && joined.contains("185.44.0.9"),
        "both endpoints pinned:\n{joined}"
    );
}

/// The extraction pipeline is deterministic: same scenario, same config,
/// same item-sets.
#[test]
fn extraction_is_deterministic() {
    let scenario = one_event_scenario(
        EventParams::Scanning {
            scanner: Ipv4Addr::new(66, 6, 6, 6),
            port: 23,
        },
        2500,
        108,
    );
    let a = extract_event(&scenario);
    let b = extract_event(&scenario);
    assert_eq!(a.itemsets, b.itemsets);
    assert_eq!(a.suspicious_flows, b.suspicious_flows);
}
