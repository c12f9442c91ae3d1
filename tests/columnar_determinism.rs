//! Columnar determinism suite: the struct-of-arrays flow store must be
//! **bit-identical** to the record (array-of-structs) path everywhere it
//! is consumed — the load-bearing constraint of the columnar refactor:
//! the columnar engines (`Engine::extract` offline, `Engine::process`
//! over `FlowColumns` online, and the streaming extractor that rides
//! them) produce exactly what the record-based pipeline produces, for
//! every transaction mode and pre-filter mode, with and without the rule
//! layer.

use anomex::core::{
    cost_reduction, prefilter_indices_columns, Engine, Extraction, ExtractionConfig,
    TransactionMode,
};
use anomex::mining::{mine, RuleConfig};
use anomex::netflow::FlowColumns;
use anomex::prelude::*;
use anomex_core::IntervalOutcome;
use proptest::prelude::*;

fn table2_metadata() -> MetaData {
    let mut md = MetaData::new();
    for port in [7000u64, 80, 9022, 25] {
        md.insert(FlowFeature::DstPort, port);
    }
    md
}

/// The per-flow pre-filter reference: the indices of the flows `mode`
/// keeps under `md`, one record at a time.
fn reference_indices(flows: &[FlowRecord], md: &MetaData, mode: PrefilterMode) -> Vec<usize> {
    (0..flows.len())
        .filter(|&i| mode.matches(md, &flows[i]))
        .collect()
}

/// Assert two extractions are the same to the bit.
fn assert_extractions_identical(a: &Extraction, b: &Extraction, context: &str) {
    assert_eq!(a.itemsets, b.itemsets, "{context}: itemsets diverged");
    for (x, y) in a.itemsets.iter().zip(&b.itemsets) {
        assert_eq!(x.support, y.support, "{context}: support diverged on {x}");
    }
    assert_eq!(a.levels, b.levels, "{context}: level stats diverged");
    assert_eq!(a.total_flows, b.total_flows, "{context}");
    assert_eq!(a.suspicious_flows, b.suspicious_flows, "{context}");
    assert_eq!(
        a.cost_reduction.to_bits(),
        b.cost_reduction.to_bits(),
        "{context}: cost reduction diverged"
    );
    assert_eq!(a.metadata, b.metadata, "{context}");
    match (&a.rules, &b.rules) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.transactions, y.transactions, "{context}");
            assert_eq!(x.len(), y.len(), "{context}: rule count diverged");
            for (r, s) in x.rules.iter().zip(&y.rules) {
                assert_eq!(r.rule.antecedent(), s.rule.antecedent(), "{context}");
                assert_eq!(r.rule.consequent(), s.rule.consequent(), "{context}");
                assert_eq!(r.rule.support, s.rule.support, "{context}");
                assert_eq!(
                    r.score.to_bits(),
                    s.score.to_bits(),
                    "{context}: rule score diverged on {}",
                    r.rule
                );
                assert_eq!(r.rule.confidence.to_bits(), s.rule.confidence.to_bits());
                assert_eq!(r.rule.lift.to_bits(), s.rule.lift.to_bits());
                assert_eq!(r.rule.leverage.to_bits(), s.rule.leverage.to_bits());
                assert_eq!(
                    r.rule.conviction.map(f64::to_bits),
                    s.rule.conviction.map(f64::to_bits)
                );
            }
        }
        _ => panic!("{context}: rule presence diverged"),
    }
}

/// Assert one columnar outcome equals one record outcome, KL bits and all.
fn assert_outcomes_identical(a: &IntervalOutcome, b: &IntervalOutcome, context: &str) {
    assert_eq!(a.observation.alarm, b.observation.alarm, "{context}");
    assert_eq!(a.observation.metadata, b.observation.metadata, "{context}");
    for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
        assert_eq!(x.alarm, y.alarm, "{context}");
        assert_eq!(&x.voted_values, &y.voted_values, "{context}");
        for (cx, cy) in x.clones.iter().zip(&y.clones) {
            assert_eq!(
                cx.kl.map(f64::to_bits),
                cy.kl.map(f64::to_bits),
                "{context}"
            );
            assert_eq!(
                cx.first_diff.map(f64::to_bits),
                cy.first_diff.map(f64::to_bits),
                "{context}"
            );
        }
    }
    match (&a.extraction, &b.extraction) {
        (None, None) => {}
        (Some(x), Some(y)) => assert_extractions_identical(x, y, context),
        _ => panic!("{context}: extraction presence diverged"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Offline: the columnar engine (`Engine::extract` converts to
    /// `FlowColumns` and walks columns end to end) extracts exactly what
    /// pre-filtering the records, building their transactions and mining
    /// them does, for every transaction mode, with and without the rule
    /// layer (rules compared to the bit).
    #[test]
    fn columnar_extraction_matches_record_pipeline(
        seed in 0u64..10_000,
        scale_pct in 1u64..=4,
        support_div in 1u64..=4,
        extended in proptest::sample::select(vec![false, true]),
        with_rules in proptest::sample::select(vec![false, true]),
    ) {
        let w = table2_workload(seed, scale_pct as f64 * 0.01);
        let tx_mode = if extended {
            TransactionMode::WithPrefixes
        } else {
            TransactionMode::Canonical
        };
        let support = (w.min_support / support_div).max(1);
        let md = table2_metadata();
        let suspicious: Vec<FlowRecord> = reference_indices(&w.flows, &md, PrefilterMode::Union)
            .into_iter()
            .map(|i| w.flows[i])
            .collect();
        let transactions = match tx_mode {
            TransactionMode::Canonical => TransactionSet::from_flows(&suspicious),
            TransactionMode::WithPrefixes => TransactionSet::from_flows_extended(&suspicious),
        };
        // Permissive filters so the rule populations compared are rich.
        let rules = with_rules.then_some(RuleConfig { min_confidence: 0.3, min_lift: 0.0, rare: false });
        let (itemsets, mined_rules) = mine(&transactions, support, rules.as_ref());
        let records = Extraction {
            interval: 0,
            metadata: md.clone(),
            total_flows: w.flows.len(),
            suspicious_flows: suspicious.len(),
            cost_reduction: cost_reduction(w.flows.len() as u64, itemsets.len()),
            itemsets,
            levels: Vec::new(),
            rules: mined_rules,
        };
        let config = ExtractionConfig {
            min_support: support,
            transactions: tx_mode,
            rules,
            ..ExtractionConfig::default()
        };
        let columnar = Engine::new(config).unwrap().extract(&w.flows, &md);
        assert_extractions_identical(
            &records,
            &columnar,
            &format!("seed={seed} extended={extended} rules={with_rules}"),
        );
    }

    /// The columnar pre-filter selects exactly the index sequence of the
    /// per-flow reference, for both union and intersection semantics —
    /// and the engine, configured with that mode, mines exactly that
    /// many suspicious flows.
    #[test]
    fn columnar_prefilter_matches_record_prefilter(
        seed in 0u64..10_000,
        scale_pct in 1u64..=4,
        intersection in proptest::sample::select(vec![false, true]),
    ) {
        let w = table2_workload(seed, scale_pct as f64 * 0.01);
        let mode = if intersection {
            PrefilterMode::Intersection
        } else {
            PrefilterMode::Union
        };
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::Packets, 2);
        let cols = FlowColumns::from_flows(&w.flows);
        let reference = reference_indices(&w.flows, &md, mode);
        prop_assert_eq!(&reference, &prefilter_indices_columns(&cols, &md, mode));
        // Support no item reaches: the engine run costs one counting pass.
        let config = ExtractionConfig {
            min_support: u64::MAX,
            prefilter: mode,
            ..ExtractionConfig::default()
        };
        let extraction = Engine::new(config).unwrap().extract(&w.flows, &md);
        prop_assert_eq!(extraction.suspicious_flows, reference.len());
    }

    /// The columnar store round-trips records losslessly: conversion to
    /// columns and back, row access, and iteration all reproduce the
    /// original records exactly.
    #[test]
    fn columnar_store_round_trips_records(
        seed in 0u64..10_000,
        scale_pct in 1u64..=3,
    ) {
        let w = table2_workload(seed, scale_pct as f64 * 0.01);
        let cols = FlowColumns::from_flows(&w.flows);
        prop_assert_eq!(cols.len(), w.flows.len());
        prop_assert_eq!(cols.to_flows(), w.flows.clone());
        prop_assert_eq!(cols.iter().collect::<Vec<_>>(), w.flows.clone());
        if !w.flows.is_empty() {
            let i = (seed as usize) % w.flows.len();
            prop_assert_eq!(cols.get(i), w.flows[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The columnar pre-filter ≡ the per-flow reference on arbitrary
    /// flows, meta-data (value sets of up to and beyond the 16 members
    /// probed as a fixed array, one or two features), and both modes —
    /// and one scratch reused across intervals of different lengths
    /// changes nothing.
    #[test]
    fn columnar_prefilter_matches_record_reference(
        flows_seed in proptest::collection::vec((0u16..32, 1u32..20), 0..120),
        ports in proptest::collection::btree_set(0u64..32, 0..24),
        packets in proptest::collection::btree_set(1u64..20, 0..4),
        split in 0usize..121,
        union in any::<bool>(),
    ) {
        let flows: Vec<_> = flows_seed
            .iter()
            .map(|&(port, pkts)| sample_flow(port, pkts))
            .collect();
        let mut md = MetaData::new();
        for &p in &ports {
            md.insert(FlowFeature::DstPort, p);
        }
        for &p in &packets {
            md.insert(FlowFeature::Packets, p);
        }
        let mode = if union { PrefilterMode::Union } else { PrefilterMode::Intersection };
        let cols = FlowColumns::from_flows(&flows);
        let reference = reference_indices(&flows, &md, mode);
        prop_assert_eq!(&prefilter_indices_columns(&cols, &md, mode), &reference);
        // A prefix of the interval filters to the prefix of the rows.
        let split = split.min(flows.len());
        let head = FlowColumns::from_flows(&flows[..split]);
        let head_reference = reference_indices(&flows[..split], &md, mode);
        prop_assert_eq!(&prefilter_indices_columns(&head, &md, mode), &head_reference);
    }
}

fn sample_flow(dst_port: u16, packets: u32) -> FlowRecord {
    FlowRecord::new(
        0,
        std::net::Ipv4Addr::new(10, 0, (dst_port >> 8) as u8, dst_port as u8),
        std::net::Ipv4Addr::new(10, 1, 0, 1),
        4000,
        dst_port,
        Protocol::Tcp,
    )
    .with_volume(packets, packets * 40)
}

proptest! {
    // The online properties run whole scenarios (training + detection),
    // so fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Online: feeding [`FlowColumns`] straight into the engine
    /// (`Engine::process`) and streaming flow-by-flow through a one-lane
    /// [`MultiSourceExtractor`] (which rides the same columnar engine)
    /// both produce the record-input pipeline's outcomes — alarms,
    /// meta-data, KL bits, and extractions.
    #[test]
    fn columnar_online_and_streaming_match_record_pipeline(seed in 0u64..1_000) {
        let scenario = Scenario::small(seed);
        let config = ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            ..ExtractionConfig::default()
        };
        let intervals = scenario.interval_count().min(22);
        let mut records = Engine::new(config.clone()).unwrap();
        let mut columnar = Engine::new(config.clone()).unwrap();
        let one = [SourceSpec::new(0u32, 0)];
        let mut stream = MultiSourceExtractor::new(config, &one, None).unwrap();

        let mut events = Vec::new();
        for i in 0..intervals {
            let interval = scenario.generate(i);
            let reference = records.process(&interval.flows);
            let cols = FlowColumns::from_flows(&interval.flows);
            let outcome = columnar.process(&cols);
            assert_outcomes_identical(
                &outcome,
                &reference,
                &format!("columns seed={seed} interval={i}"),
            );
            // The compat shim holds on the engine's own input, too.
            prop_assert_eq!(cols.to_flows(), interval.flows.clone());
            for flow in interval.flows {
                events.extend(stream.push(SourceId(0), flow));
            }
        }
        let (tail, _) = stream.finish();
        events.extend(tail);
        prop_assert_eq!(events.len() as u64, intervals, "one event per interval");
        // Re-run the record reference for the streamed comparison (the
        // first pass's extractor has advanced past these intervals).
        let scenario = Scenario::small(seed);
        let mut records = Engine::new(ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            ..ExtractionConfig::default()
        })
        .unwrap();
        for (i, e) in events.iter().enumerate() {
            let reference = records.process(&scenario.generate(i as u64).flows);
            assert_outcomes_identical(
                &e.event.outcome,
                &reference,
                &format!("stream seed={seed} interval={i}"),
            );
        }
    }
}
