//! Columnar determinism suite: the struct-of-arrays flow store must be
//! **bit-identical** to the record (array-of-structs) path everywhere it
//! is consumed — the load-bearing constraint of the columnar refactor.
//! Two families of properties assert it:
//!
//! 1. **Pipeline equivalence** — the columnar engines (`Engine::extract`
//!    offline, `Engine::process` over `FlowColumns` online, and the
//!    streaming extractor that rides them) produce
//!    exactly what the record-based sequential pipeline produces, for
//!    every miner, shard count, execution context (inline vs pooled),
//!    and transaction mode.
//! 2. **Decoder equivalence** — `decode_into_columns` returns exactly
//!    what decode-then-convert returns for arbitrary datagram bytes:
//!    same header and rows on success, the same error otherwise, with
//!    the failing datagram leaving the column store untouched.

use anomex::core::{
    cost_reduction, prefilter_indices_columns, prefilter_indices_columns_with, Engine, Extraction,
    ExtractionConfig, PrefilterScratch, TransactionMode,
};
use anomex::mining::Exec;
use anomex::netflow::v5::{self, V5Exporter, V5_HEADER_LEN, V5_RECORD_LEN};
use anomex::netflow::FlowColumns;
use anomex::prelude::*;
use anomex_core::IntervalOutcome;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

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
    /// them does, for every miner, shard count (1 shard = inline
    /// execution, more = the worker pool), and transaction mode.
    #[test]
    fn columnar_extraction_matches_record_pipeline(
        seed in 0u64..10_000,
        scale_pct in 1u64..=4,
        support_div in 1u64..=4,
        shards in 1usize..=8,
        miner_idx in 0usize..3,
        extended in proptest::sample::select(vec![false, true]),
    ) {
        let w = table2_workload(seed, scale_pct as f64 * 0.01);
        let miner = MinerKind::ALL[miner_idx];
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
        let (itemsets, levels, rules) = miner.mine(&transactions, support, None, Exec::inline());
        let records = Extraction {
            interval: 0,
            metadata: md.clone(),
            total_flows: w.flows.len(),
            suspicious_flows: suspicious.len(),
            cost_reduction: cost_reduction(w.flows.len() as u64, itemsets.len()),
            itemsets,
            levels,
            rules,
        };
        let config = ExtractionConfig {
            min_support: support,
            miner,
            transactions: tx_mode,
            ..ExtractionConfig::default()
        };
        let columnar = Engine::new(config, nz(shards)).unwrap().extract(&w.flows, &md);
        assert_extractions_identical(
            &records,
            &columnar,
            &format!("seed={seed} miner={miner} shards={shards} extended={extended}"),
        );
    }

    /// The columnar pre-filter selects exactly the index sequence of the
    /// per-flow reference, for both union and intersection semantics.
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
        prop_assert_eq!(
            reference_indices(&w.flows, &md, mode),
            prefilter_indices_columns(&cols, &md, mode)
        );
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
        // One scratch serves a longer, a shorter and the first interval
        // again: whatever an earlier call left in it changes nothing.
        let split = split.min(flows.len());
        let head = FlowColumns::from_flows(&flows[..split]);
        let head_reference = reference_indices(&flows[..split], &md, mode);
        let mut scratch = PrefilterScratch::default();
        for (cols, reference) in [(&cols, &reference), (&head, &head_reference), (&cols, &reference)] {
            prop_assert_eq!(
                &prefilter_indices_columns_with(cols, &md, mode, &mut scratch),
                reference
            );
        }
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

    /// Online: feeding [`FlowColumns`] straight into the sharded engine
    /// (`Engine::process`) and streaming flow-by-flow through the
    /// [`StreamingExtractor`] (which rides the same columnar engine)
    /// both produce the record-based sequential pipeline's outcomes —
    /// alarms, meta-data, KL bits, and extractions — for every miner
    /// and shard count.
    #[test]
    fn columnar_online_and_streaming_match_record_pipeline(
        seed in 0u64..1_000,
        shards in 1usize..=6,
        miner_idx in 0usize..3,
    ) {
        let scenario = Scenario::small(seed);
        let config = ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            miner: MinerKind::ALL[miner_idx],
            ..ExtractionConfig::default()
        };
        let intervals = scenario.interval_count().min(22);
        let mut records = Engine::sequential(config.clone()).unwrap();
        let mut columnar = Engine::new(config.clone(), nz(shards)).unwrap();
        let mut stream = StreamingExtractor::try_new(config, nz(shards), 0).unwrap();

        let mut events = Vec::new();
        for i in 0..intervals {
            let interval = scenario.generate(i);
            let reference = records.process(&interval.flows);
            let cols = Arc::new(FlowColumns::from_flows(&interval.flows));
            let outcome = columnar.process(&cols);
            assert_outcomes_identical(
                &outcome,
                &reference,
                &format!("columns seed={seed} shards={shards} interval={i}"),
            );
            // The compat shim holds on the engine's own input, too.
            prop_assert_eq!(cols.to_flows(), interval.flows.clone());
            for flow in interval.flows {
                events.extend(stream.push(flow));
            }
        }
        let (tail, _) = stream.finish();
        events.extend(tail);
        prop_assert_eq!(events.len() as u64, intervals, "one event per interval");
        // Re-run the record reference for the streamed comparison (the
        // first pass's extractor has advanced past these intervals).
        let scenario = Scenario::small(seed);
        let mut records = Engine::sequential(ExtractionConfig {
            interval_ms: scenario.interval_ms(),
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support: 800,
            miner: MinerKind::ALL[miner_idx],
            ..ExtractionConfig::default()
        })
        .unwrap();
        for (i, event) in events.iter().enumerate() {
            let reference = records.process(&scenario.generate(i as u64).flows);
            assert_outcomes_identical(
                &event.outcome,
                &reference,
                &format!("stream seed={seed} shards={shards} interval={i}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary bytes — almost always invalid — the columnar
    /// decoder returns exactly what the record decoder returns: the same
    /// header and rows on success, the same error otherwise, and an
    /// error leaves the column store untouched.
    #[test]
    fn decode_into_columns_matches_records_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let record = v5::decode_datagram(&raw);
        let mut cols = FlowColumns::new();
        let columnar = v5::decode_into_columns(&raw, &mut cols);
        match (record, columnar) {
            (Ok(dgram), Ok(header)) => {
                prop_assert_eq!(dgram.header, header);
                prop_assert_eq!(&cols, &FlowColumns::from_flows(&dgram.flows));
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                prop_assert_eq!(cols.len(), 0, "a failed decode must not touch the store");
            }
            (a, b) => prop_assert!(false, "result shape diverged: {a:?} vs {b:?}"),
        }
    }

    /// For exporter-produced streams — valid, truncated at an arbitrary
    /// byte, or corrupted in the version/count fields — the columnar
    /// stream decoder appends exactly the datagrams the record decoder
    /// accepts before the first error, and returns the identical error.
    #[test]
    fn decode_stream_into_columns_matches_decode_then_convert(
        seed in 0u64..10_000,
        take in 0usize..75,
        cut in 0usize..4096,
        corruption in proptest::sample::select(vec![0u8, 1, 2, 3]),
    ) {
        let flows: Vec<FlowRecord> = table2_workload(seed, 0.01)
            .flows
            .into_iter()
            .take(take)
            .collect();
        let mut exporter = V5Exporter::new();
        let mut bytes = Vec::new();
        let mut last_start = 0;
        for dgram in exporter.export(&flows) {
            last_start = bytes.len();
            bytes.extend_from_slice(&dgram);
        }
        match corruption {
            // Truncate anywhere: mid-header, mid-records, or a no-op cut.
            1 if !bytes.is_empty() => bytes.truncate(cut % (bytes.len() + 1)),
            // Corrupt the version field of the last datagram, so any
            // earlier datagrams still decode as the accepted prefix.
            2 if !bytes.is_empty() => bytes[last_start] = 0xff,
            // Inflate the first datagram's record count past the limit.
            3 if bytes.len() >= 4 => bytes[2] = 0xff,
            _ => {}
        }

        // Record-path reference: datagram by datagram until the first error.
        let mut ref_flows: Vec<FlowRecord> = Vec::new();
        let mut ref_headers = Vec::new();
        let mut rest: &[u8] = &bytes;
        let ref_err = loop {
            if rest.is_empty() {
                break None;
            }
            match v5::decode_datagram(rest) {
                Ok(dgram) => {
                    let consumed =
                        V5_HEADER_LEN + usize::from(dgram.header.count) * V5_RECORD_LEN;
                    ref_headers.push(dgram.header);
                    ref_flows.extend(dgram.flows);
                    rest = &rest[consumed..];
                }
                Err(e) => break Some(e),
            }
        };

        let mut cols = FlowColumns::new();
        match v5::decode_stream_into_columns(&bytes, &mut cols) {
            Ok(headers) => {
                prop_assert_eq!(ref_err, None, "record path errored but columnar did not");
                prop_assert_eq!(headers, ref_headers);
            }
            Err(e) => prop_assert_eq!(Some(e), ref_err),
        }
        // Success or failure, the store holds exactly the accepted prefix.
        prop_assert_eq!(&cols, &FlowColumns::from_flows(&ref_flows));
    }
}
