//! Property suite for the association-rule layer: every rule an
//! extraction's mining pass ([`mine`] with rules) emits must satisfy the metric
//! definitions *exactly* (recomputed from brute-force support counts
//! over the transactions, compared by bit pattern), stay in its valid
//! range, and honor the configured filters — the facade-level contract
//! of the rule engine.

use anomex::mining::rules::CONVICTION_SCORE_CAP;
use anomex::mining::{mine, Item, RuleConfig, RuleSet, Transaction, TransactionSet};
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

/// The ranked rules of one mining pass with the rule layer on.
fn rules_of(set: &TransactionSet, min_support: u64, rc: &RuleConfig) -> RuleSet {
    let (_, rules) = mine(set, min_support, Some(rc));
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
    ) {
        let rc = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: false };
        let rules = rules_of(&set, min_support, &rc);
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
    ) {
        let rc = RuleConfig { min_confidence, min_lift, rare: false };
        let rules = rules_of(&set, min_support, &rc);
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

    /// Rare mode only widens the search: every rule found in normal mode
    /// is also found (same supports) when the per-level floor is on.
    #[test]
    fn rare_mode_is_a_superset_of_normal_mode(
        set in arb_set(100),
        min_support in 2u64..6,
    ) {
        let normal = RuleConfig { min_confidence: 0.2, min_lift: 0.0, rare: false };
        let rare = RuleConfig { rare: true, ..normal };
        let base = rules_of(&set, min_support, &normal);
        let widened = rules_of(&set, min_support, &rare);
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
