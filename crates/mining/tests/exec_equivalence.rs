//! Execution-context equivalence at low support: the engine's
//! load-bearing guarantee that `mine_all_exec` / `mine_maximal_exec`
//! are **bit-identical** across [`Exec::inline`] and [`Exec::Pool`] (at
//! one worker and at several) for every miner — at supports low enough
//! to force multi-level candidate generation and deep conditional
//! recursion.
//!
//! Only the flat counting passes run on the pool, and
//! [`map_ranges_arc`](anomex_mining::par::map_ranges_arc) keeps any pass
//! under `2 ×` [`MIN_ITEMS_PER_THREAD`] items on the calling thread, so
//! every generated set is [`tiled`] past that floor — otherwise the pool
//! rows would compare the inline path with itself.
//!
//! Also covers pool-panic containment: a pool job that panics must
//! surface on the caller without poisoning the pool for later mining.

use std::num::NonZeroUsize;
use std::sync::Arc;

use anomex_mining::par::{map_chunks_arc, Exec, WorkerPool, MIN_ITEMS_PER_THREAD};
use anomex_mining::{Item, MinerKind, RuleConfig, Transaction, TransactionSet};
use anomex_netflow::FlowFeature;
use proptest::prelude::*;

/// A random transaction: 1–7 items, at most one per feature, values from
/// a small alphabet so that item-sets repeat and recursion goes deep.
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::btree_map(0usize..7, 0u64..4, 1..=7).prop_map(|m| {
        let items: Vec<Item> = m
            .into_iter()
            .map(|(f, v)| Item::new(FlowFeature::from_index(f), v))
            .collect();
        Transaction::from_items(&items).expect("btree_map keys are distinct features")
    })
}

fn arb_set(max: usize) -> impl Strategy<Value = TransactionSet> {
    proptest::collection::vec(arb_transaction(), 1..max).prop_map(TransactionSet::from_transactions)
}

/// Repeat `set` whole until the counting passes split on a pool, scaling
/// `min_support` by the same factor: every item-set's support scales
/// with it, so the frequent structure is that of the generated set.
fn tiled(set: &TransactionSet, min_support: u64) -> (TransactionSet, u64) {
    let copies = (2 * MIN_ITEMS_PER_THREAD).div_ceil(set.len());
    let transactions = set.transactions().repeat(copies);
    (
        TransactionSet::from_transactions(transactions),
        min_support * copies as u64,
    )
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Upper bound on the generated (pre-tiling) set size, and the number of
/// cases per property: every case mines ≥ 2 048 transactions some thirty
/// times, so both are sized for a debug run of a few seconds.
const BASE: usize = 120;
const CASES: u32 = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every miner, both output modes, across every execution
    /// context: identical item-sets AND identical supports. Support
    /// 1–3 over a 4-value alphabet forces multi-level Apriori passes
    /// and non-trivial conditional trees on almost every case.
    #[test]
    fn all_contexts_are_bit_identical_at_low_support(
        set in arb_set(BASE),
        min_support in 1u64..4,
        pool_width in 2usize..5,
    ) {
        let (set, min_support) = tiled(&set, min_support);
        let pool = WorkerPool::new(nz(pool_width));
        let single = WorkerPool::new(nz(1));
        for kind in MinerKind::ALL {
            let all_ref = kind.mine_all_exec(&set, min_support, Exec::inline());
            let max_ref = kind.mine_maximal_exec(&set, min_support, Exec::inline());
            for (label, exec) in [
                ("one-worker pool", Exec::Pool(&single)),
                ("pool", Exec::Pool(&pool)),
            ] {
                let all = kind.mine_all_exec(&set, min_support, exec);
                prop_assert_eq!(&all, &all_ref, "{} all via {}", kind, label);
                for (a, b) in all.iter().zip(&all_ref) {
                    prop_assert_eq!(a.support, b.support, "{} {} support", kind, label);
                }
                let max = kind.mine_maximal_exec(&set, min_support, exec);
                prop_assert_eq!(&max, &max_ref, "{} maximal via {}", kind, label);
                for (a, b) in max.iter().zip(&max_ref) {
                    prop_assert_eq!(a.support, b.support, "{} {} support", kind, label);
                }
            }
        }
    }

    /// The rule layer inherits the guarantee: `mine` with rules — the
    /// all-frequent mining pass, the rule fan-out over base item-sets,
    /// and the z-score ranking — is bit-identical across every
    /// execution context for every miner, rare mode included. Floats
    /// are compared by bit pattern.
    #[test]
    fn rule_generation_is_bit_identical_across_contexts(
        set in arb_set(BASE),
        min_support in 1u64..4,
        pool_width in 2usize..5,
        rare_bit in 0u8..2,
    ) {
        let (set, min_support) = tiled(&set, min_support);
        let pool = WorkerPool::new(nz(pool_width));
        let single = WorkerPool::new(nz(1));
        // Permissive filters so plenty of rules survive to be compared.
        let rc = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: rare_bit == 1 };
        for kind in MinerKind::ALL {
            let (ref_itemsets, ref_levels, ref_rules) =
                kind.mine(&set, min_support, Some(&rc), Exec::inline());
            let ref_rules = ref_rules.expect("rules requested");
            for (label, exec) in [
                ("one-worker pool", Exec::Pool(&single)),
                ("pool", Exec::Pool(&pool)),
            ] {
                let (itemsets, levels, rules) = kind.mine(&set, min_support, Some(&rc), exec);
                let rules = rules.expect("rules requested");
                prop_assert_eq!(&itemsets, &ref_itemsets, "{} {} itemsets", kind, label);
                prop_assert_eq!(&levels, &ref_levels, "{} {} levels", kind, label);
                prop_assert_eq!(rules.transactions, ref_rules.transactions);
                prop_assert_eq!(rules.len(), ref_rules.len(), "{} {} rule count", kind, label);
                for (a, b) in rules.rules.iter().zip(&ref_rules.rules) {
                    prop_assert_eq!(a.rule.antecedent(), b.rule.antecedent(), "{} {}", kind, label);
                    prop_assert_eq!(a.rule.consequent(), b.rule.consequent(), "{} {}", kind, label);
                    prop_assert_eq!(a.rule.support, b.rule.support);
                    prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "{} {} score", kind, label);
                    prop_assert_eq!(a.rule.confidence.to_bits(), b.rule.confidence.to_bits());
                    prop_assert_eq!(a.rule.lift.to_bits(), b.rule.lift.to_bits());
                    prop_assert_eq!(a.rule.leverage.to_bits(), b.rule.leverage.to_bits());
                    prop_assert_eq!(
                        a.rule.conviction.map(f64::to_bits),
                        b.rule.conviction.map(f64::to_bits)
                    );
                }
            }
        }
    }

    /// The same pool instance stays bit-identical across repeated mining
    /// rounds (no cross-round state leaks through the pool).
    #[test]
    fn pool_reuse_across_rounds_is_stable(set in arb_set(BASE), min_support in 1u64..3) {
        let (set, min_support) = tiled(&set, min_support);
        let pool = WorkerPool::new(nz(3));
        for kind in MinerKind::ALL {
            let reference = kind.mine_all_exec(&set, min_support, Exec::inline());
            for round in 0..3 {
                let got = kind.mine_all_exec(&set, min_support, Exec::Pool(&pool));
                prop_assert_eq!(&got, &reference, "{} round {}", kind, round);
            }
        }
    }
}

/// Low support over a large, structured set drives Apriori through
/// several candidate-generation levels, each followed by a counting pass
/// that splits four ways on the pool — levels, passes and item-sets must
/// match the inline run exactly.
#[test]
fn low_support_multi_level_apriori_is_identical_on_the_pool() {
    let mut set = TransactionSet::new();
    for i in 0..5000u64 {
        let t = Transaction::from_items(&[
            Item::new(FlowFeature::SrcIp, i % 13),
            Item::new(FlowFeature::DstIp, i % 9),
            Item::new(FlowFeature::DstPort, i % 6),
            Item::new(FlowFeature::Proto, i % 2),
            Item::new(FlowFeature::Packets, i % 4),
        ])
        .unwrap();
        set.push(t);
    }
    let pool = WorkerPool::new(nz(4));
    let out = anomex_mining::apriori_exec(
        &set,
        &anomex_mining::AprioriConfig::all_frequent(2),
        Exec::Pool(&pool),
    );
    assert!(
        out.passes >= 3,
        "support 2 must force multi-level candidate generation (got {} passes)",
        out.passes
    );
    let reference = anomex_mining::apriori_exec(
        &set,
        &anomex_mining::AprioriConfig::all_frequent(2),
        Exec::inline(),
    );
    assert_eq!(out.itemsets, reference.itemsets);
    assert_eq!(out.levels, reference.levels);
    assert_eq!(out.passes, reference.passes);
}

/// A panicking pool job propagates to the caller, and the pool survives
/// to mine correctly afterwards — the containment contract of the shared
/// worker pool.
#[test]
fn pool_panic_is_contained_and_mining_continues() {
    let pool = WorkerPool::new(nz(2));
    let items: Arc<Vec<u32>> = Arc::new(vec![0; 2 * MIN_ITEMS_PER_THREAD]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Two chunks, two pool jobs; the second one panics.
        map_chunks_arc(Exec::Pool(&pool), &items, |start, _| {
            assert_eq!(start, 0, "poisoned counting job");
        })
    }))
    .expect_err("the job's panic must reach the caller");
    let message = err
        .downcast_ref::<String>()
        .map_or("non-string", String::as_str);
    assert!(message.contains("poisoned counting job"), "{message}");

    // The same pool still mines, bit-identically, with its counting
    // passes split across both workers.
    let mut set = TransactionSet::new();
    for i in 0..2 * MIN_ITEMS_PER_THREAD as u64 {
        let t = Transaction::from_items(&[
            Item::new(FlowFeature::DstPort, 80 + i % 2),
            Item::new(FlowFeature::Packets, i % 3),
        ])
        .unwrap();
        set.push(t);
    }
    for kind in MinerKind::ALL {
        assert_eq!(
            kind.mine_maximal_exec(&set, 200, Exec::Pool(&pool)),
            kind.mine_maximal_exec(&set, 200, Exec::inline()),
            "{kind} after a contained panic"
        );
    }
}
