//! Cross-crate property tests: invariants that span the flow substrate,
//! the detector, and the miner.

mod reference;

use anomex::core::{prefilter_indices_columns, PrefilterMode};
use anomex::mining::{mine, Item};
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

/// The rows the union pre-filter keeps, by the paper's definition.
fn suspicious_rows(flows: &[FlowRecord], md: &MetaData) -> Vec<usize> {
    let md = (md.features())
        .map(|f| (f, md.values_for(f).unwrap().iter().copied().collect()))
        .collect();
    reference::prefilter(flows, &md, true)
}

/// The paper's transactions of the flows the union pre-filter keeps.
fn suspicious(flows: &[FlowRecord], md: &MetaData) -> Vec<Vec<reference::Item>> {
    let kept: Vec<FlowRecord> = (suspicious_rows(flows, md).iter())
        .map(|&i| flows[i])
        .collect();
    reference::transactions(&kept, false)
}

/// How many of `rows` contain every item of `set`.
fn support(rows: &[Vec<reference::Item>], set: &ItemSet) -> u64 {
    let items: Vec<reference::Item> = set
        .items()
        .iter()
        .map(|i| (i.feature(), i.value()))
        .collect();
    reference::support(rows, &items)
}

/// Every flow's canonical transaction, gathered from the columns.
fn all_rows(flows: &[FlowRecord]) -> TransactionSet {
    let rows: Vec<usize> = (0..flows.len()).collect();
    TransactionSet::from_columns_at(&FlowColumns::from_flows(flows), &rows)
}

/// Offline extraction at `min_support`.
fn extract(flows: &[FlowRecord], md: &MetaData, min_support: u64) -> Extraction {
    let config = ExtractionConfig {
        min_support,
        ..ExtractionConfig::default()
    };
    Engine::new(config).unwrap().extract(flows, md)
}

/// `cases`, scaled by `PROPTEST_CASES / 256` so a wide sweep widens the
/// properties that set their own count as it widens the default ones
/// (256 cases); at least one case.
fn scaled(cases: u32) -> ProptestConfig {
    let wide = u64::from(cases) * u64::from(ProptestConfig::default().cases) / 256;
    ProptestConfig::with_cases(wide.clamp(1, u64::from(u32::MAX)) as u32)
}

proptest! {
    #![proptest_config(scaled(48))]

    /// Every extracted item-set is genuinely frequent within the
    /// suspicious set, and every item of every item-set matches at least
    /// `support` suspicious flows end-to-end.
    #[test]
    fn extracted_itemsets_are_frequent(
        flows in proptest::collection::vec(arb_flow(), 50..400),
        md in arb_metadata(),
        min_support in 5u64..40,
    ) {
        let ex = extract(&flows, &md, min_support);
        let suspicious = suspicious(&flows, &md);
        prop_assert_eq!(ex.suspicious_flows, suspicious.len());
        for set in &ex.itemsets {
            prop_assert!(set.support >= min_support);
            prop_assert_eq!(set.support, support(&suspicious, set), "support of {}", set);
        }
    }

    /// The pipeline's FP-growth extraction is the reference's Apriori at
    /// the pipeline level (not just on raw transaction sets): the same
    /// maximal item-sets, with the same supports, as the reference mines
    /// from the suspicious flows.
    #[test]
    fn pipeline_miners_agree(
        flows in proptest::collection::vec(arb_flow(), 50..300),
        md in arb_metadata(),
        support in 3u64..30,
    ) {
        let f = extract(&flows, &md, support);
        let frequent = reference::frequent_itemsets(&suspicious(&flows, &md), support);
        let item = |i: &Item| (i.feature(), i.value());
        let mined: reference::ItemSets = (f.itemsets.iter())
            .map(|s| (s.items().iter().map(item).collect(), s.support))
            .collect();
        prop_assert_eq!(mined, reference::maximal(&frequent));
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
        prop_assert_eq!(idx, suspicious_rows(&flows, &md));
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
        let lo = extract(&flows, &md, s_lo);
        let hi = extract(&flows, &md, s_hi);
        let tx = suspicious(&flows, &md);
        for set in &hi.itemsets {
            prop_assert!(support(&tx, set) >= s_lo);
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
        let direct = mine(&all_rows(&flows), support, None).0;
        let wired = mine(&all_rows(&decoded), support, None).0;
        prop_assert_eq!(direct, wired);
    }
}
