//! Integration: the full path from NetFlow v5 *bytes* to extracted
//! item-sets — exporter → (lossy) transport → collector → interval
//! assembly → detection → extraction.

use anomex::netflow::v5::{V5Collector, V5Exporter};
use anomex::prelude::*;

fn scenario() -> Scenario {
    Scenario::small(31)
}

fn config(interval_ms: u64) -> ExtractionConfig {
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

/// Run the pipeline on flows that have round-tripped through the v5 codec
/// and compare against the direct run: byte encoding must not change the
/// result.
#[test]
fn v5_round_trip_preserves_extractions() {
    let scenario = scenario();
    let mut direct = Engine::sequential(config(scenario.interval_ms())).unwrap();
    let mut via_wire = Engine::sequential(config(scenario.interval_ms())).unwrap();

    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);

        // Direct path.
        let direct_outcome = direct.process(&interval.flows);

        // Wire path: encode into datagrams, decode, process.
        let mut exporter = V5Exporter::new();
        let mut collector = V5Collector::new();
        for dgram in exporter.export(&interval.flows) {
            collector.ingest(&dgram).expect("well-formed datagram");
        }
        let decoded = collector.into_flows();
        assert_eq!(decoded, interval.flows, "interval {i} round trip");
        let wire_outcome = via_wire.process(&decoded);

        assert_eq!(
            direct_outcome.observation.alarm, wire_outcome.observation.alarm,
            "interval {i} alarm mismatch"
        );
        match (direct_outcome.extraction, wire_outcome.extraction) {
            (Some(a), Some(b)) => {
                assert_eq!(a.itemsets, b.itemsets, "interval {i} item-sets");
                assert_eq!(a.suspicious_flows, b.suspicious_flows);
            }
            (None, None) => {}
            (a, b) => panic!(
                "interval {i}: one path extracted, the other did not ({} vs {})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Streaming interval assembly (the online mode) produces the same
/// extractions as batch processing.
#[test]
fn streaming_assembly_equals_batch() {
    let scenario = scenario();
    let interval_ms = scenario.interval_ms();

    // Batch run.
    let mut batch = Engine::sequential(config(interval_ms)).unwrap();
    let mut batch_extractions = Vec::new();
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        if let Some(e) = batch.process(&interval.flows).extraction {
            batch_extractions.push((i, e.itemsets));
        }
    }

    // Streaming run: all flows through an IntervalAssembler.
    let mut stream = Engine::sequential(config(interval_ms)).unwrap();
    let mut assembler = IntervalAssembler::new(0, interval_ms);
    let mut stream_extractions = Vec::new();
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        for flow in interval.flows {
            for closed in assembler.push(flow) {
                if let Some(e) = stream.process(&closed.flows).extraction {
                    stream_extractions.push((closed.index, e.itemsets));
                }
            }
        }
    }
    if let Some(closed) = assembler.flush() {
        if let Some(e) = stream.process(&closed.flows).extraction {
            stream_extractions.push((closed.index, e.itemsets));
        }
    }

    assert_eq!(assembler.late_flows(), 0, "scenario flows arrive in order");
    assert_eq!(batch_extractions, stream_extractions);
}

/// Losing NetFlow datagrams (transport loss) degrades gracefully: the
/// collector reports the gap, and the pipeline still runs.
#[test]
fn datagram_loss_is_detected_and_survivable() {
    let scenario = scenario();
    let interval = scenario.generate(20); // the flood interval
    let mut exporter = V5Exporter::new();
    let dgrams = exporter.export(&interval.flows);

    let mut collector = V5Collector::new();
    for (i, dgram) in dgrams.iter().enumerate() {
        if i % 10 == 3 {
            continue; // drop every tenth datagram
        }
        collector.ingest(dgram).expect("well-formed");
    }
    let lost = collector.lost_flows();
    assert!(lost > 0, "sequence gaps must be visible");
    let flows = collector.into_flows();
    assert_eq!(flows.len() as u64 + lost, interval.flows.len() as u64);

    // The surviving 90% still mine fine.
    let mut md = MetaData::new();
    md.insert(FlowFeature::DstPort, 7000);
    let config = ExtractionConfig {
        min_support: 500,
        ..config(scenario.interval_ms())
    };
    let ex = Engine::sequential(config).unwrap().extract(&flows, &md);
    assert!(
        ex.itemsets
            .iter()
            .any(|s| s.to_string().contains("dstPort=7000")),
        "flood still extracted from the lossy stream"
    );
}
