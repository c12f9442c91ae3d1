//! Integration: the §III-D multilevel (prefix) extension. A distributed
//! subnet scan has no frequent source or destination IP, so canonical
//! width-7 mining cannot pin the target network; prefix-extended width-9
//! transactions surface it as `{dstNet16=…, dstPort=…}`.

use std::net::Ipv4Addr;

use anomex::core::{prefilter_indices_columns, TransactionMode};
use anomex::mining::apriori::apriori;
use anomex::mining::AprioriConfig;
use anomex::netflow::FlowColumns;
use anomex::prelude::*;
use anomex::traffic::inject::dscan;
use anomex::traffic::rng::Rng;

/// Distributed scan into 10.16.0.0/16 plus diffuse background.
fn workload() -> Vec<FlowRecord> {
    let mut rng = Rng::seed_from_u64(99);
    let mut flows = dscan::generate(
        Ipv4Addr::new(10, 16, 0, 0),
        445,
        900,
        3000,
        0,
        60_000,
        &mut rng,
    );
    // Background across many /16s so no benign prefix dominates.
    for i in 0..6000u32 {
        flows.push(
            FlowRecord::new(
                u64::from(i) * 10,
                Ipv4Addr::from(rng.u32() | 0x2000_0000),
                Ipv4Addr::from(0x0a00_0000 | (rng.u32() & 0x00FF_FFFF)),
                rng.range(1024..60_000),
                [80u16, 443, 25, 53][rng.range(0..4usize)],
                Protocol::Tcp,
            )
            .with_volume(rng.range(1..20), 500),
        );
    }
    flows
}

fn metadata() -> MetaData {
    // The dstPort detector flags 445; the (hypothetical) prefix detector
    // flags the scanned range.
    let mut md = MetaData::new();
    md.insert(FlowFeature::DstPort, 445);
    md
}

/// Offline extraction at support 500 over `transactions`.
fn extract(flows: &[FlowRecord], transactions: TransactionMode) -> Extraction {
    let config = ExtractionConfig {
        min_support: 500,
        transactions,
        ..ExtractionConfig::default()
    };
    Engine::new(config).unwrap().extract(flows, &metadata())
}

#[test]
fn canonical_mining_cannot_pin_the_subnet() {
    let flows = workload();
    let ex = extract(&flows, TransactionMode::Canonical);
    let joined = ex
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    // The port and flow shape are found...
    assert!(joined.contains("dstPort=445"), "{joined}");
    // ...but nothing identifies the target network.
    assert!(
        !joined.contains("dstIP="),
        "no single host is frequent:\n{joined}"
    );
    assert!(
        !joined.contains("Net16"),
        "canonical transactions have no prefix items"
    );
}

#[test]
fn prefix_mining_pins_the_scanned_range() {
    let flows = workload();
    let ex = extract(&flows, TransactionMode::WithPrefixes);
    let joined = ex
        .itemsets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        joined.contains("dstNet16=10.16.0.0/16"),
        "the scanned /16 must be pinned:\n{joined}"
    );
    // The top item-set couples the range with the scanned port.
    let top = ex.itemsets.iter().max_by_key(|s| s.support).unwrap();
    let top_s = top.to_string();
    assert!(
        top_s.contains("dstNet16=10.16.0.0/16") && top_s.contains("dstPort=445"),
        "{top_s}"
    );
    assert_eq!(
        top.support, 3000,
        "every probe matches the range+port pattern"
    );
}

/// The engine's FP-growth extraction in prefix mode is Apriori's over
/// the same width-9 transactions, gathered from the pre-filtered rows'
/// columns: the same maximal item-sets, with the same supports.
#[test]
fn miners_agree_in_prefix_mode() {
    let flows = workload();
    let f = extract(&flows, TransactionMode::WithPrefixes);
    let cols = FlowColumns::from_flows(&flows);
    let rows = prefilter_indices_columns(&cols, &metadata(), PrefilterMode::Union);
    let transactions = TransactionSet::from_columns_extended_at(&cols, &rows);
    let a = apriori(&transactions, &AprioriConfig::maximal(500)).itemsets;
    assert_eq!(f.suspicious_flows, rows.len());
    assert_eq!(a, f.itemsets);
    for (x, y) in a.iter().zip(&f.itemsets) {
        assert_eq!(x.support, y.support, "{x}");
    }
}

#[test]
fn prefix_detector_feature_works_in_the_bank() {
    // The detector bank is feature-generic: monitoring DstNet16 makes the
    // subnet scan visible as a *detection* too, not just in mining.
    use anomex::detector::{DetectorBank, DetectorConfig};
    let mut config = DetectorConfig {
        training_intervals: 8,
        ..DetectorConfig::default()
    };
    config.features.push(FlowFeature::DstNet16);

    let mut bank = DetectorBank::new(&config);
    let mut rng = Rng::seed_from_u64(5);
    // Train on diffuse background.
    let background = |rng: &mut Rng| -> Vec<FlowRecord> {
        (0..3000u32)
            .map(|i| {
                FlowRecord::new(
                    u64::from(i),
                    Ipv4Addr::from(rng.u32() | 0x2000_0000),
                    Ipv4Addr::from(0x0a00_0000 | (rng.u32() & 0x00FF_FFFF)),
                    rng.range(1024..60_000),
                    [80u16, 443, 25][rng.range(0..3usize)],
                    Protocol::Tcp,
                )
                .with_volume(rng.range(1..20), 500)
            })
            .collect()
    };
    // Warm-up + training (stray alarms on the noisy i.i.d. background are
    // possible right after training and are not what this test checks).
    for _ in 0..11 {
        let _ = bank.observe(&background(&mut rng));
    }
    // Scan interval.
    let mut flows = background(&mut rng);
    flows.extend(dscan::generate(
        Ipv4Addr::new(10, 16, 0, 0),
        445,
        900,
        2500,
        0,
        60_000,
        &mut rng,
    ));
    let obs = bank.observe(&flows);
    assert!(obs.alarm, "the subnet scan must alarm");
    let net_alarmed = obs
        .features
        .iter()
        .any(|f| f.feature == FlowFeature::DstNet16 && f.alarm);
    assert!(
        net_alarmed,
        "the prefix detector must be among the alarming features"
    );
    // And the voted meta-data contains the scanned prefix value.
    let prefix_value = u64::from(u32::from(Ipv4Addr::new(10, 16, 0, 0)) >> 16);
    assert!(obs
        .metadata
        .values_for(FlowFeature::DstNet16)
        .is_some_and(|v| v.contains(&prefix_value)));
}

/// In prefix mode the evaluation harness judges the width-9 transactions
/// the engine mined, so an item-set carrying a `srcNet16` / `dstNet16`
/// item matches the event flows it summarizes: every alarmed anomalous
/// interval of the small scenario extracts its event, and the Fig. 9
/// sweep at the run's own support reproduces the run's own judgement.
#[test]
fn prefix_mode_evaluation_judges_what_was_mined() {
    let scenario = Scenario::small(23);
    let config = ExtractionConfig {
        interval_ms: 60_000,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 700,
        transactions: TransactionMode::WithPrefixes,
        ..ExtractionConfig::default()
    };
    let run = run_scenario(&scenario, &config);
    let alarmed = run.alarmed_anomalous();
    assert_eq!(alarmed.len(), 3, "the three planted events alarm");
    for r in &alarmed {
        assert!(
            r.tp_itemsets() > 0,
            "interval {} extracted nothing true: {:?}",
            r.interval,
            r.evaluated
                .iter()
                .map(|e| e.itemset.to_string())
                .collect::<Vec<_>>()
        );
        assert!(
            r.suspicious.transactions().iter().all(|t| t.width() == 9),
            "interval {} judged other transactions than it mined",
            r.interval
        );
    }
    let [sweep] = run.fp_sweep(&[700]).try_into().unwrap();
    let fps: Vec<usize> = alarmed.iter().map(|r| r.fp_itemsets()).collect();
    assert_eq!(sweep.fp_per_interval, fps);
    assert_eq!(sweep.extracted_fraction.to_bits(), 1.0f64.to_bits());
}
