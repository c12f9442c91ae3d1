//! Cross-shard determinism suite: the sharded parallel engine must be
//! **bit-identical** to the sequential pipeline for every shard count
//! (1..=8), every miner, and arbitrary workloads — the load-bearing
//! design constraint of the sharded extraction engine. Every merge in
//! the engine is an exact integer sum, a set union, or an in-order
//! concatenation, so equality holds exactly, not approximately; these
//! properties assert it across random scenario seeds, scales, supports,
//! and transaction modes.

use anomex::core::{prefilter_indices_columns, TransactionMode};
use anomex::mining::RuleConfig;
use anomex::netflow::FlowColumns;
use anomex::prelude::*;
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Offline: for a random Table-2-style workload, every (miner,
    /// shards, tx-mode) combination extracts exactly what the
    /// sequential path does.
    #[test]
    fn offline_extraction_is_shard_invariant(
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
        let mut md = MetaData::new();
        for port in [7000u64, 80, 9022, 25] {
            md.insert(FlowFeature::DstPort, port);
        }
        let config = ExtractionConfig {
            min_support: support,
            miner,
            transactions: tx_mode,
            ..ExtractionConfig::default()
        };
        let sequential = Engine::sequential(config.clone()).unwrap().extract(&w.flows, &md);
        let sharded = Engine::new(config, nz(shards)).unwrap().extract(&w.flows, &md);
        assert_extractions_identical(
            &sequential,
            &sharded,
            &format!("seed={seed} miner={miner} shards={shards} extended={extended}"),
        );
    }

    /// Rule-layer shard invariance: with the association-rule layer on,
    /// the sharded engine's rules — the single mining pass, the rule
    /// fan-out over base item-sets, and the z-score ranking — are
    /// bit-identical to the sequential path for every shard count and
    /// miner, rare mode included.
    #[test]
    fn rule_extraction_is_shard_invariant(
        seed in 0u64..10_000,
        support_div in 1u64..=4,
        shards in 1usize..=8,
        miner_idx in 0usize..3,
        rare in proptest::sample::select(vec![false, true]),
    ) {
        let w = table2_workload(seed, 0.02);
        let miner = MinerKind::ALL[miner_idx];
        // Rare mode mines all-frequent at the deepest per-level floor
        // (`min_support >> (width - 1)`); keep that floor ≥ 4 so the
        // property exercises the rare path without driving Apriori into
        // the support-1 candidate explosion (a memory bomb on CI).
        let support = if rare {
            w.min_support.max(256)
        } else {
            (w.min_support / support_div).max(1)
        };
        // Permissive filters so the populations being compared are rich.
        let rc = RuleConfig { min_confidence: 0.3, min_lift: 0.0, rare };
        let mut md = MetaData::new();
        for port in [7000u64, 80, 9022, 25] {
            md.insert(FlowFeature::DstPort, port);
        }
        let config = ExtractionConfig {
            min_support: support,
            miner,
            rules: Some(rc),
            ..ExtractionConfig::default()
        };
        let sequential = Engine::sequential(config.clone()).unwrap().extract(&w.flows, &md);
        let sharded = Engine::new(config, nz(shards)).unwrap().extract(&w.flows, &md);
        prop_assert!(sequential.rules.is_some(), "the rule layer must be on");
        assert_extractions_identical(
            &sequential,
            &sharded,
            &format!("rules seed={seed} miner={miner} shards={shards} rare={rare}"),
        );
    }

    /// The pre-filter yields the exact index sequence of the per-flow
    /// reference, for both union and intersection semantics — and the
    /// engine itself, at any shard count, mines exactly that many
    /// suspicious flows.
    #[test]
    fn prefilter_is_shard_invariant(
        seed in 0u64..10_000,
        shards in 1usize..=8,
        intersection in proptest::sample::select(vec![false, true]),
    ) {
        let w = table2_workload(seed, 0.03);
        let mode = if intersection {
            PrefilterMode::Intersection
        } else {
            PrefilterMode::Union
        };
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::Packets, 2);
        let sequential: Vec<usize> = (0..w.flows.len())
            .filter(|&i| mode.matches(&md, &w.flows[i]))
            .collect();
        let cols = FlowColumns::from_flows(&w.flows);
        prop_assert_eq!(&sequential, &prefilter_indices_columns(&cols, &md, mode));
        // Support no item reaches: the engine run costs one counting pass.
        let config = ExtractionConfig {
            min_support: u64::MAX,
            prefilter: mode,
            ..ExtractionConfig::default()
        };
        let extraction = Engine::new(config, nz(shards)).unwrap().extract(&w.flows, &md);
        prop_assert_eq!(extraction.suspicious_flows, sequential.len());
    }
}

proptest! {
    // The online property runs whole scenarios (training + detection),
    // so fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Online: a sharded [`Engine`] fed a full scenario produces the
    /// same alarm stream, the same meta-data, bit-identical KL series,
    /// and identical extractions as [`Engine::sequential`], for every
    /// shard count and miner.
    #[test]
    fn online_pipeline_is_shard_invariant(
        seed in 0u64..1_000,
        shards in 2usize..=8,
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
            // Rules on, so the online comparison covers the rule layer
            // too (assert_extractions_identical checks it bit-for-bit).
            rules: Some(RuleConfig::default()),
            ..ExtractionConfig::default()
        };
        let mut sequential = Engine::sequential(config.clone()).unwrap();
        let mut sharded = Engine::new(config, nz(shards)).unwrap();
        for i in 0..scenario.interval_count().min(23) {
            let interval = scenario.generate(i);
            let a = sequential.process(&interval.flows);
            let b = sharded.process(&interval.flows);
            prop_assert_eq!(a.observation.alarm, b.observation.alarm, "interval {}", i);
            prop_assert_eq!(&a.observation.metadata, &b.observation.metadata);
            for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
                prop_assert_eq!(x.alarm, y.alarm);
                prop_assert_eq!(&x.voted_values, &y.voted_values);
                for (cx, cy) in x.clones.iter().zip(&y.clones) {
                    prop_assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
                    prop_assert_eq!(
                        cx.first_diff.map(f64::to_bits),
                        cy.first_diff.map(f64::to_bits)
                    );
                }
            }
            match (&a.extraction, &b.extraction) {
                (None, None) => {}
                (Some(x), Some(y)) => assert_extractions_identical(
                    x,
                    y,
                    &format!("seed={seed} shards={shards} interval={i}"),
                ),
                _ => panic!("extraction presence diverged at interval {i}"),
            }
        }
    }
}
