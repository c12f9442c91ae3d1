//! Property suite for the association-rule layer: every rule a
//! [`MinerKind::mine`] run with rules emits must satisfy the metric
//! definitions *exactly* (recomputed from brute-force support counts
//! over the transactions, compared by bit pattern), stay in its valid
//! range, honor the configured filters, and come out bit-identical in
//! every execution context — the facade-level contract of the rule
//! engine that `crates/mining/tests/exec_equivalence.rs` and
//! `tests/sharded_determinism.rs` assert from their own angles.

use std::num::NonZeroUsize;

use anomex::mining::par::{Exec, WorkerPool};
use anomex::mining::rules::CONVICTION_SCORE_CAP;
use anomex::mining::{Item, MinerKind, RuleConfig, RuleSet, Transaction, TransactionSet};
use anomex_netflow::FlowFeature;
use proptest::prelude::*;

/// A random transaction: 1–7 items, at most one per feature, values from
/// a small alphabet so item-sets repeat and rules are plentiful.
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

/// The ranked rules of one mining pass with the rule layer on.
fn rules_of(
    miner: MinerKind,
    set: &TransactionSet,
    min_support: u64,
    rc: &RuleConfig,
    exec: Exec<'_>,
) -> RuleSet {
    let (_, _, rules) = miner.mine(set, min_support, Some(rc), exec);
    rules.expect("rules requested")
}

/// The rule key used for cross-run set comparisons.
fn key(rule: &anomex::mining::Rule) -> (Vec<Item>, Vec<Item>) {
    (rule.antecedent().to_vec(), rule.consequent().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every emitted rule's supports equal the brute-force counts over
    /// the transactions, and every metric equals its definition applied
    /// to those counts — to the bit, not approximately.
    #[test]
    fn metrics_match_their_definitions_exactly(
        set in arb_set(100),
        min_support in 1u64..4,
        miner_idx in 0usize..3,
    ) {
        let rc = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: false };
        let rules = rules_of(MinerKind::ALL[miner_idx], &set, min_support, &rc, Exec::inline());
        let n = set.len() as u64;
        prop_assert_eq!(rules.transactions, n);
        for scored in &rules.rules {
            let r = &scored.rule;
            let union: Vec<Item> = {
                let mut u = r.antecedent().to_vec();
                u.extend_from_slice(r.consequent());
                u.sort_unstable();
                u
            };
            prop_assert_eq!(r.support, set.support_of(&union), "supp(X∪Y) on {}", r);
            prop_assert_eq!(r.antecedent_support, set.support_of(r.antecedent()));
            prop_assert_eq!(r.consequent_support, set.support_of(r.consequent()));

            let confidence = r.support as f64 / r.antecedent_support as f64;
            let consequent_rel = r.consequent_support as f64 / n as f64;
            let lift = confidence / consequent_rel;
            let leverage = r.support as f64 / n as f64
                - (r.antecedent_support as f64 / n as f64) * consequent_rel;
            prop_assert_eq!(r.confidence.to_bits(), confidence.to_bits(), "confidence on {}", r);
            prop_assert_eq!(r.lift.to_bits(), lift.to_bits(), "lift on {}", r);
            prop_assert_eq!(r.leverage.to_bits(), leverage.to_bits(), "leverage on {}", r);
            match r.conviction {
                None => prop_assert_eq!(r.confidence.to_bits(), 1.0f64.to_bits(),
                    "∞ conviction only at confidence 1 ({})", r),
                Some(v) => prop_assert_eq!(
                    v.to_bits(),
                    ((1.0 - consequent_rel) / (1.0 - confidence)).to_bits(),
                    "conviction on {}", r
                ),
            }
        }
    }

    /// Structural and range invariants: antecedent and consequent are
    /// non-empty, sorted, and disjoint; every metric sits in its valid
    /// range; the filters bite; and the ranking is sorted by descending
    /// score.
    #[test]
    fn rules_are_well_formed_filtered_and_ranked(
        set in arb_set(100),
        min_support in 1u64..4,
        min_confidence in 0.0f64..1.0,
        min_lift in 0.0f64..2.0,
        miner_idx in 0usize..3,
    ) {
        let rc = RuleConfig { min_confidence, min_lift, rare: false };
        let rules = rules_of(MinerKind::ALL[miner_idx], &set, min_support, &rc, Exec::inline());
        let n = set.len() as u64;
        for scored in &rules.rules {
            let r = &scored.rule;
            prop_assert!(!r.antecedent().is_empty() && !r.consequent().is_empty());
            prop_assert!(r.antecedent().windows(2).all(|w| w[0] < w[1]), "sorted antecedent");
            prop_assert!(r.consequent().windows(2).all(|w| w[0] < w[1]), "sorted consequent");
            prop_assert!(
                r.antecedent().iter().all(|i| !r.consequent().contains(i)),
                "X and Y are disjoint in {}", r
            );
            prop_assert!(r.support <= r.antecedent_support && r.support <= r.consequent_support);
            prop_assert!(r.antecedent_support <= n && r.consequent_support <= n);
            prop_assert!((0.0..=1.0).contains(&r.confidence), "confidence range on {}", r);
            prop_assert!(r.lift.is_finite() && r.lift >= 0.0, "lift range on {}", r);
            prop_assert!((-0.25..=0.25).contains(&r.leverage), "leverage range on {}", r);
            if let Some(v) = r.conviction {
                prop_assert!(v.is_finite() && v >= 0.0, "conviction range on {}", r);
            }
            prop_assert!(r.conviction_capped() <= CONVICTION_SCORE_CAP);
            prop_assert!(r.confidence >= min_confidence, "min-confidence filter on {}", r);
            prop_assert!(r.lift >= min_lift, "min-lift filter on {}", r);
            prop_assert!(scored.score.is_finite() && scored.score >= 0.0);
        }
        for pair in rules.rules.windows(2) {
            prop_assert!(
                pair[0].score.total_cmp(&pair[1].score).is_ge(),
                "ranking must be descending by score"
            );
        }
    }

    /// Bit-identity across execution contexts and pool widths, straight
    /// from the facade: the rule population (keys, supports, metrics,
    /// scores) of inline, one-worker-pool and worker-pool runs is the
    /// same to the bit.
    #[test]
    fn rule_output_is_bit_identical_across_exec_contexts(
        set in arb_set(100),
        min_support in 1u64..4,
        pool_width in 2usize..5,
        miner_idx in 0usize..3,
    ) {
        let rc = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: false };
        let miner = MinerKind::ALL[miner_idx];
        let reference = rules_of(miner, &set, min_support, &rc, Exec::inline());
        let pool = WorkerPool::new(nz(pool_width));
        let single = WorkerPool::new(nz(1));
        for (label, exec) in [
            ("one-worker pool", Exec::Pool(&single)),
            ("pool", Exec::Pool(&pool)),
        ] {
            let got = rules_of(miner, &set, min_support, &rc, exec);
            prop_assert_eq!(got.len(), reference.len(), "{} count", label);
            for (a, b) in got.rules.iter().zip(&reference.rules) {
                prop_assert_eq!(key(&a.rule), key(&b.rule), "{} order", label);
                prop_assert_eq!(a.rule.support, b.rule.support);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "{} score", label);
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

    /// Rare mode only widens the search: every rule found in normal mode
    /// is also found (same supports) when the per-level floor is on.
    #[test]
    fn rare_mode_is_a_superset_of_normal_mode(
        set in arb_set(100),
        min_support in 2u64..6,
        miner_idx in 0usize..3,
    ) {
        let normal = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: false };
        let rare = RuleConfig { rare: true, ..normal };
        let miner = MinerKind::ALL[miner_idx];
        let base = rules_of(miner, &set, min_support, &normal, Exec::inline());
        let widened = rules_of(miner, &set, min_support, &rare, Exec::inline());
        prop_assert!(widened.len() >= base.len());
        for scored in &base.rules {
            let found = widened
                .rules
                .iter()
                .find(|w| key(&w.rule) == key(&scored.rule))
                .unwrap_or_else(|| panic!("rule {} lost in rare mode", scored.rule));
            prop_assert_eq!(found.rule.support, scored.rule.support);
            prop_assert_eq!(
                found.rule.confidence.to_bits(),
                scored.rule.confidence.to_bits(),
                "metrics are support-derived, so they cannot move"
            );
        }
    }
}
