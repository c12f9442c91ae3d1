//! Integration tests for the paper's §V / Table I extensions: top-k
//! mining, and the entropy detector driving the same extraction
//! pipeline.

use anomex::detector::EntropyDetector;
use anomex::mining::{mine, mine_top_k};
use anomex::prelude::*;
use anomex::traffic::table2_workload;

/// Top-k mining over the Table II workload finds the same leading
/// item-sets as fixed-support mining, without the operator choosing s.
#[test]
fn topk_matches_fixed_support_leaders() {
    let w = table2_workload(2009, 0.05);
    let transactions = TransactionSet::from_flows(&w.flows);

    let fixed = mine(&transactions, w.min_support, None).0;
    let mut fixed_ranked = fixed.clone();
    fixed_ranked.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.cmp(b)));

    let top = mine_top_k(&transactions, 5, w.min_support);
    assert_eq!(top.itemsets.len(), 5);
    // The k leaders at the *same* support agree (top-k only lowers s when
    // needed).
    for (a, b) in top.itemsets.iter().zip(fixed_ranked.iter()) {
        assert_eq!(a, b);
        assert_eq!(a.support, b.support);
    }
    // The paper's workflow: the top item-sets pin the flood.
    let joined = top
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        joined.contains("dstPort=7000") || joined.contains("dstPort=80"),
        "{joined}"
    );
}

/// The entropy detector (Table I family) catches the Table II flood via
/// an entropy drop and its meta-data extracts the same anomaly as the
/// histogram pipeline.
#[test]
fn entropy_detector_drives_extraction() {
    // Train on backgrounds without the flood (scaled-down port mix).
    let mut detector = EntropyDetector::new(FlowFeature::DstPort, 3.0, 6);
    for seed in 0..9 {
        // Background-only intervals: the web/backscatter/smtp parts of the
        // Table II mix, no port-7000 flood (tiny pseudo-interval).
        let w = table2_workload(seed, 0.01);
        let background: Vec<FlowRecord> = w
            .flows
            .iter()
            .filter(|f| f.dst_port != w.flood_port)
            .copied()
            .collect();
        let obs = detector.observe(&background);
        assert!(!obs.alarm, "training/quiet interval alarmed");
    }
    // Flood interval.
    let w = table2_workload(77, 0.01);
    let obs = detector.observe(&w.flows);
    assert!(obs.alarm, "the flood must disturb the port entropy");
    assert!(
        obs.values.contains(&u64::from(w.flood_port)),
        "{:?}",
        obs.values
    );

    let mut metadata = MetaData::new();
    metadata.insert_all(FlowFeature::DstPort, obs.values.iter().copied());
    let config = ExtractionConfig {
        min_support: w.min_support,
        ..ExtractionConfig::default()
    };
    let extraction = Engine::new(config).unwrap().extract(&w.flows, &metadata);
    let joined = extraction
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        joined.contains("dstPort=7000"),
        "flood extracted via entropy meta-data:\n{joined}"
    );
    assert!(
        joined.contains(&format!("dstIP={}", w.victim)),
        "victim pinned:\n{joined}"
    );
}

/// Top-k and maximal agree on supports for the sets they share.
#[test]
fn extension_modes_are_mutually_consistent() {
    let w = table2_workload(3, 0.02);
    let tx = TransactionSet::from_flows(&w.flows);
    let maximal = mine(&tx, w.min_support, None).0;
    let top = mine_top_k(&tx, maximal.len(), w.min_support);
    for m in &maximal {
        if let Some(in_top) = top.itemsets.iter().find(|t| t == &m) {
            assert_eq!(in_top.support, m.support);
        }
    }
}
