//! The paper's central pre-filtering claim (§II-A): for multi-stage
//! anomalies the union of the meta-data extracts the event while the
//! intersection misses it entirely.

use std::net::Ipv4Addr;

use anomex::core::{prefilter_indices_columns, PrefilterMode};
use anomex::netflow::FlowColumns;
use anomex::prelude::*;

/// A Sasser-like multi-stage footprint: scan (port 445, 1 packet),
/// backdoor (port 9996), download (12 packets) — plus web noise.
fn multistage_trace() -> Vec<FlowRecord> {
    let infected = Ipv4Addr::new(10, 5, 5, 5);
    let mut flows = Vec::new();
    for i in 0..2000u32 {
        flows.push(
            FlowRecord::new(
                u64::from(i),
                infected,
                Ipv4Addr::from(0x0a10_0000 + i),
                (1024 + i % 60_000) as u16,
                445,
                Protocol::Tcp,
            )
            .with_volume(1, 40),
        );
    }
    for i in 0..800u32 {
        flows.push(
            FlowRecord::new(
                30_000 + u64::from(i),
                infected,
                Ipv4Addr::from(0x0a10_0000 + i * 2),
                (1024 + i % 60_000) as u16,
                9996,
                Protocol::Tcp,
            )
            .with_volume(6, 480),
        );
    }
    for i in 0..800u32 {
        flows.push(
            FlowRecord::new(
                60_000 + u64::from(i),
                Ipv4Addr::from(0x0a10_0000 + i * 2),
                infected,
                (1024 + i % 60_000) as u16,
                5554,
                Protocol::Tcp,
            )
            .with_volume(12, 16_384),
        );
    }
    for i in 0..8000u32 {
        flows.push(
            FlowRecord::new(
                u64::from(i),
                Ipv4Addr::from(0x0a00_0000 + (i % 512)),
                Ipv4Addr::from(0x5000_0000 + i),
                (1024 + i % 60_000) as u16,
                80,
                Protocol::Tcp,
            )
            .with_volume(3 + (i % 20), 500 + i % 4000),
        );
    }
    flows
}

fn multistage_metadata() -> MetaData {
    let mut md = MetaData::new();
    md.insert(FlowFeature::DstPort, 445);
    md.insert(FlowFeature::DstPort, 9996);
    md.insert(FlowFeature::Packets, 12);
    md
}

/// Offline extraction at support 400 under `prefilter`.
fn extract(flows: &[FlowRecord], md: &MetaData, prefilter: PrefilterMode) -> Extraction {
    let config = ExtractionConfig {
        min_support: 400,
        prefilter,
        ..ExtractionConfig::default()
    };
    Engine::new(config).unwrap().extract(flows, md)
}

#[test]
fn intersection_misses_multistage_anomalies() {
    let flows = multistage_trace();
    let md = multistage_metadata();
    let ex = extract(&flows, &md, PrefilterMode::Intersection);
    assert_eq!(
        ex.suspicious_flows, 0,
        "no flow carries all three stage markers"
    );
    assert!(ex.itemsets.is_empty(), "the anomaly is missed entirely");
}

#[test]
fn union_extracts_every_stage() {
    let flows = multistage_trace();
    let md = multistage_metadata();
    let ex = extract(&flows, &md, PrefilterMode::Union);
    // 3600 worm flows, plus the benign web flows that happen to have
    // 12 packets (8000 / 20 = 400) — flow-size meta-data inevitably drags
    // in some normal traffic, which is what mining then sorts out.
    assert_eq!(ex.suspicious_flows, 3600 + 400);
    let joined = ex
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(joined.contains("dstPort=445"), "scan stage:\n{joined}");
    assert!(joined.contains("dstPort=9996"), "backdoor stage:\n{joined}");
    assert!(joined.contains("#packets=12"), "download stage:\n{joined}");
    // The infected host is pinned in the item-sets.
    assert!(
        joined.contains("10.5.5.5"),
        "infected host pinned:\n{joined}"
    );
}

#[test]
fn union_prefilter_is_superset_of_intersection() {
    let flows = multistage_trace();
    let md = multistage_metadata();
    let cols = FlowColumns::from_flows(&flows);
    let union = prefilter_indices_columns(&cols, &md, PrefilterMode::Union);
    let inter = prefilter_indices_columns(&cols, &md, PrefilterMode::Intersection);
    for i in &inter {
        assert!(union.contains(i));
    }
    assert!(union.len() >= inter.len());
}

/// With single-stage meta-data both modes agree — intersection only hurts
/// when meta-data spans features/stages.
#[test]
fn single_feature_metadata_modes_agree() {
    let flows = multistage_trace();
    let mut md = MetaData::new();
    md.insert(FlowFeature::DstPort, 445);
    let u = extract(&flows, &md, PrefilterMode::Union);
    let i = extract(&flows, &md, PrefilterMode::Intersection);
    assert_eq!(u.suspicious_flows, i.suspicious_flows);
    assert_eq!(u.itemsets, i.itemsets);
}
