//! Execution-context equivalence at low support: the engine's
//! load-bearing guarantee that `mine_all_exec` / `mine_maximal_exec`
//! are **bit-identical** across [`Exec::inline`] and [`Exec::Pool`] (at
//! one worker and at several) for every miner — at supports low enough
//! to force
//! multi-level candidate generation and deep conditional recursion,
//! which is exactly the regime the task-parallel search phases
//! (join+prune blocks, conditional trees, prefix branches) kick in.
//!
//! Also covers pool-panic containment: a tree task that panics must
//! surface on the caller without poisoning the pool for later mining.

use std::num::NonZeroUsize;

use anomex_mining::par::{run_tree_exec, Exec, TreeJob, TreeScope};
use anomex_mining::{Item, MineTask, MinerKind, RuleConfig, Transaction, TransactionSet};
use anomex_netflow::FlowFeature;
use crossbeam::WorkerPool;
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

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every miner, both output modes, across every execution
    /// context: identical item-sets AND identical supports. Support
    /// 1–3 over a 4-value alphabet forces multi-level Apriori passes
    /// and non-trivial conditional trees on almost every case.
    #[test]
    fn all_contexts_are_bit_identical_at_low_support(
        set in arb_set(120),
        min_support in 1u64..4,
        pool_width in 2usize..5,
    ) {
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

    /// The rule layer inherits the guarantee: `run_with_rules` — the
    /// all-frequent mining pass, the rule fan-out over base item-sets,
    /// and the z-score ranking — is bit-identical across every
    /// execution context for every miner, rare mode included. Floats
    /// are compared by bit pattern.
    #[test]
    fn rule_generation_is_bit_identical_across_contexts(
        set in arb_set(120),
        min_support in 1u64..4,
        pool_width in 2usize..5,
        rare_bit in 0u8..2,
    ) {
        let pool = WorkerPool::new(nz(pool_width));
        let single = WorkerPool::new(nz(1));
        // Permissive filters so plenty of rules survive to be compared.
        let rc = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: rare_bit == 1 };
        for kind in MinerKind::ALL {
            let task = MineTask::maximal(kind, &set, min_support);
            let reference = task.run_with_rules(&rc, Exec::inline());
            for (label, exec) in [
                ("one-worker pool", Exec::Pool(&single)),
                ("pool", Exec::Pool(&pool)),
            ] {
                let got = task.run_with_rules(&rc, exec);
                prop_assert_eq!(&got.itemsets, &reference.itemsets, "{} {} itemsets", kind, label);
                prop_assert_eq!(&got.levels, &reference.levels, "{} {} levels", kind, label);
                prop_assert_eq!(got.rules.transactions, reference.rules.transactions);
                prop_assert_eq!(got.rules.len(), reference.rules.len(), "{} {} rule count", kind, label);
                for (a, b) in got.rules.rules.iter().zip(&reference.rules.rules) {
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
    /// rounds (no cross-round state leaks through the task machinery).
    #[test]
    fn pool_reuse_across_rounds_is_stable(set in arb_set(60), min_support in 1u64..3) {
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

/// Low support over a large, structured set must drive Apriori through
/// several candidate-generation levels, with the join running as more
/// than one pool task — the acceptance gate that candidate generation
/// demonstrably executes on the pool.
#[test]
fn low_support_forces_multi_level_pool_candidate_generation() {
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
    assert!(
        pool.tree_tasks() > 1,
        "the level-k join must have dispatched >1 pool task (got {})",
        pool.tree_tasks()
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

/// Fork one tree task from a busy root and spin until a peer runs it:
/// the owner never pops its deque while spinning, so the child can only
/// execute via a steal. Returns once the child has run (10 s deadline).
fn force_one_steal(pool: &WorkerPool) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let ran = Arc::new(AtomicBool::new(false));
    let observed = Arc::clone(&ran);
    let roots: Vec<TreeJob<u32>> = vec![Box::new(move |scope: &TreeScope<'_, u32>| {
        let ran = Arc::clone(&observed);
        scope.fork(move |_: &TreeScope<'_, u32>| {
            ran.store(true, Ordering::SeqCst);
            0
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !observed.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "no peer stole the forked task");
            std::thread::yield_now();
        }
        1
    })];
    let out = run_tree_exec(Exec::Pool(pool), roots);
    assert_eq!(out.into_iter().sum::<u32>(), 1);
}

/// Forced work-stealing leaves mining bit-identical: a structured set at
/// low support floods the scheduler with tiny tree tasks across 1, 2, 4,
/// and 8 workers, with at least one guaranteed steal per multi-worker
/// pool — and every miner's output matches the inline reference exactly.
#[test]
fn forced_steals_leave_mining_bit_identical() {
    let mut set = TransactionSet::new();
    for i in 0..3000u64 {
        let t = Transaction::from_items(&[
            Item::new(FlowFeature::SrcIp, i % 11),
            Item::new(FlowFeature::DstIp, i % 7),
            Item::new(FlowFeature::DstPort, i % 5),
            Item::new(FlowFeature::Proto, i % 2),
            Item::new(FlowFeature::Packets, i % 3),
        ])
        .unwrap();
        set.push(t);
    }
    for kind in MinerKind::ALL {
        let reference = kind.mine_all_exec(&set, 2, Exec::inline());
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(nz(workers));
            if workers >= 2 {
                force_one_steal(&pool);
                assert!(
                    pool.steals() > 0,
                    "{workers}-worker pool recorded no steal (got {})",
                    pool.steals()
                );
            }
            let got = kind.mine_all_exec(&set, 2, Exec::Pool(&pool));
            assert_eq!(got, reference, "{kind} diverged at {workers} workers");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.support, b.support, "{kind} support at {workers} workers");
            }
            // A solo pool never forks (width 1 fails the cost model),
            // so task dispatch is only asserted with real parallelism.
            if workers >= 2 {
                assert!(
                    pool.tree_tasks() > 1,
                    "{kind} at {workers} workers never dispatched tree tasks"
                );
            }
        }
    }
}

/// A task that panics *after being stolen* surfaces on the caller and
/// leaves the pool mining correctly — panic containment must hold on
/// the steal path, not just for locally popped tasks.
#[test]
fn panic_in_a_stolen_task_is_contained() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let pool = WorkerPool::new(nz(2));
    let ran = Arc::new(AtomicBool::new(false));
    let observed = Arc::clone(&ran);
    let roots: Vec<TreeJob<u32>> = vec![Box::new(move |scope: &TreeScope<'_, u32>| {
        let ran = Arc::clone(&observed);
        scope.fork(move |_: &TreeScope<'_, u32>| -> u32 {
            ran.store(true, Ordering::SeqCst);
            panic!("panic on the steal path");
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !observed.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "no peer stole the forked task");
            std::thread::yield_now();
        }
        3
    })];
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_tree_exec(Exec::Pool(&pool), roots)
    }))
    .expect_err("the stolen task's panic must reach the caller");
    let message = err.downcast_ref::<&str>().copied().unwrap_or("non-str");
    assert!(message.contains("panic on the steal path"), "{message}");
    assert!(
        pool.steals() > 0,
        "the panicking task must have been stolen (got {} steals)",
        pool.steals()
    );

    // Both workers survive: the same pool still mines bit-identically.
    let mut set = TransactionSet::new();
    for i in 0..60u64 {
        let t = Transaction::from_items(&[
            Item::new(FlowFeature::DstPort, 80 + i % 2),
            Item::new(FlowFeature::Packets, i % 3),
        ])
        .unwrap();
        set.push(t);
    }
    for kind in MinerKind::ALL {
        assert_eq!(
            kind.mine_all_exec(&set, 5, Exec::Pool(&pool)),
            kind.mine_all_exec(&set, 5, Exec::inline()),
            "{kind} after a panic under stealing"
        );
    }
}

/// A panicking tree task propagates to the caller, and the pool survives
/// to mine correctly afterwards — the containment contract of the shared
/// worker pool.
#[test]
fn pool_panic_is_contained_and_mining_continues() {
    let pool = WorkerPool::new(nz(2));
    let roots: Vec<TreeJob<u32>> = vec![
        Box::new(|_: &TreeScope<'_, u32>| 1),
        Box::new(|scope: &TreeScope<'_, u32>| {
            scope.fork(|_: &TreeScope<'_, u32>| panic!("poisoned mining task"));
            2
        }),
    ];
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_tree_exec(Exec::Pool(&pool), roots)
    }))
    .expect_err("the tree panic must reach the caller");
    let message = err.downcast_ref::<&str>().copied().unwrap_or("non-str");
    assert!(message.contains("poisoned mining task"), "{message}");

    // The same pool still mines, bit-identically.
    let mut set = TransactionSet::new();
    for i in 0..50u64 {
        let t = Transaction::from_items(&[
            Item::new(FlowFeature::DstPort, 80 + i % 2),
            Item::new(FlowFeature::Packets, i % 3),
        ])
        .unwrap();
        set.push(t);
    }
    for kind in MinerKind::ALL {
        assert_eq!(
            kind.mine_maximal_exec(&set, 5, Exec::Pool(&pool)),
            kind.mine_maximal_exec(&set, 5, Exec::inline()),
            "{kind} after a contained panic"
        );
    }
}
