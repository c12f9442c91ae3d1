//! Cross-crate property tests: invariants that span the flow substrate,
//! the detector, and the miner.

use anomex::core::{prefilter_indices_columns, PrefilterMode};
use anomex::netflow::FlowColumns;
use anomex::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        0u64..600_000,
        0u32..1 << 16,
        0u32..1 << 16,
        1024u16..60_000,
        proptest::sample::select(vec![80u16, 25, 445, 7000, 9022, 12345]),
        proptest::sample::select(vec![6u8, 17]),
        1u32..20,
    )
        .prop_map(|(start, src, dst, sport, dport, proto, pkts)| {
            FlowRecord::new(
                start,
                Ipv4Addr::from(0x0a00_0000 + src),
                Ipv4Addr::from(0x0b00_0000 + dst),
                sport,
                dport,
                Protocol::from_number(proto),
            )
            .with_volume(pkts, pkts * 48)
        })
}

fn arb_metadata() -> impl Strategy<Value = MetaData> {
    (
        proptest::collection::btree_set(
            proptest::sample::select(vec![80u64, 25, 445, 7000, 9022]),
            0..3,
        ),
        proptest::collection::btree_set(1u64..20, 0..3),
    )
        .prop_map(|(ports, packets)| {
            let mut md = MetaData::new();
            md.insert_all(FlowFeature::DstPort, ports);
            md.insert_all(FlowFeature::Packets, packets);
            md
        })
}

/// The flows the union pre-filter keeps, in order.
fn suspicious(flows: &[FlowRecord], md: &MetaData) -> Vec<FlowRecord> {
    flows
        .iter()
        .filter(|f| PrefilterMode::Union.matches(md, f))
        .copied()
        .collect()
}

/// Offline extraction at `min_support` with `miner`.
fn extract(flows: &[FlowRecord], md: &MetaData, min_support: u64, miner: MinerKind) -> Extraction {
    let config = ExtractionConfig {
        min_support,
        miner,
        ..ExtractionConfig::default()
    };
    Engine::sequential(config).unwrap().extract(flows, md)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every extracted item-set is genuinely frequent within the
    /// suspicious set, and every item of every item-set matches at least
    /// `support` suspicious flows end-to-end.
    #[test]
    fn extracted_itemsets_are_frequent(
        flows in proptest::collection::vec(arb_flow(), 50..400),
        md in arb_metadata(),
        support in 5u64..40,
    ) {
        let ex = extract(&flows, &md, support, MinerKind::default());
        let suspicious = suspicious(&flows, &md);
        prop_assert_eq!(ex.suspicious_flows, suspicious.len());
        let tx = TransactionSet::from_flows(&suspicious);
        for set in &ex.itemsets {
            prop_assert!(set.support >= support);
            prop_assert_eq!(set.support, tx.support_of(set.items()), "support of {}", set);
        }
    }

    /// Miners are interchangeable at the pipeline level (not just on raw
    /// transaction sets).
    #[test]
    fn pipeline_miners_agree(
        flows in proptest::collection::vec(arb_flow(), 50..300),
        md in arb_metadata(),
        support in 3u64..30,
    ) {
        let a = extract(&flows, &md, support, MinerKind::Apriori);
        let f = extract(&flows, &md, support, MinerKind::FpGrowth);
        let e = extract(&flows, &md, support, MinerKind::Eclat);
        prop_assert_eq!(&a.itemsets, &f.itemsets);
        prop_assert_eq!(&f.itemsets, &e.itemsets);
    }

    /// Suspicious flows always match the meta-data; rejected flows never
    /// do (union mode).
    #[test]
    fn prefilter_partition_correctness(
        flows in proptest::collection::vec(arb_flow(), 1..300),
        md in arb_metadata(),
    ) {
        let cols = FlowColumns::from_flows(&flows);
        let idx = prefilter_indices_columns(&cols, &md, PrefilterMode::Union);
        for (i, flow) in flows.iter().enumerate() {
            let kept = idx.contains(&i);
            prop_assert_eq!(kept, md.matches_any(flow));
        }
    }

    /// Raising the minimum support keeps extractions consistent: every
    /// item-set extracted at the high support is frequent at the low one,
    /// and is a subset of (or equal to) some low-support maximal set.
    /// (Note the *count* of maximal sets is NOT monotone — a long maximal
    /// set can split into several shorter ones as support rises.)
    #[test]
    fn pipeline_support_consistency(
        flows in proptest::collection::vec(arb_flow(), 50..300),
        md in arb_metadata(),
        s_lo in 3u64..15,
    ) {
        let s_hi = s_lo * 2;
        let lo = extract(&flows, &md, s_lo, MinerKind::Eclat);
        let hi = extract(&flows, &md, s_hi, MinerKind::Eclat);
        let tx = TransactionSet::from_flows(&suspicious(&flows, &md));
        for set in &hi.itemsets {
            prop_assert!(tx.support_of(set.items()) >= s_lo);
            prop_assert!(
                lo.itemsets.iter().any(|big| set.is_subset_of(big)),
                "{} not covered by any low-support maximal set", set
            );
        }
    }

    /// Encode→decode through NetFlow v5 never changes what the pipeline
    /// sees (property-level version of the integration test).
    #[test]
    fn v5_transparent_to_mining(
        flows in proptest::collection::vec(arb_flow(), 1..200),
        support in 2u64..20,
    ) {
        use anomex::netflow::v5::{V5Collector, V5Exporter};
        let mut exporter = V5Exporter::new();
        let mut collector = V5Collector::new();
        for d in exporter.export(&flows) {
            collector.ingest(&d).unwrap();
        }
        let decoded = collector.into_flows();
        let direct = MinerKind::FpGrowth.mine_maximal(&TransactionSet::from_flows(&flows), support);
        let wired = MinerKind::FpGrowth.mine_maximal(&TransactionSet::from_flows(&decoded), support);
        prop_assert_eq!(direct, wired);
    }
}
