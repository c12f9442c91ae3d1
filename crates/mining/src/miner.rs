//! The one mining pass every extraction runs: FP-growth's frequent
//! item-sets, filtered to the maximal ones, with the rules optional.

use crate::fpgrowth::fpgrowth;
use crate::itemset::ItemSet;
use crate::maximal::filter_maximal;
use crate::rules::{RuleConfig, RuleSet};
use crate::transaction::TransactionSet;

/// One extraction's mining pass: the maximal frequent item-sets at
/// `min_support` (canonically ordered) and — iff `rules` is given — the
/// ranked association rules.
///
/// FP-growth mines all frequent item-sets once, at
/// [`RuleConfig::mining_floor`] with rules (`min_support` outside rare
/// mode) and at `min_support` without. The maximal sets at
/// `min_support` follow from that one run by downward closure, so
/// enabling rules never changes the item-set report, and the rules are
/// generated, filtered and ranked from the counted supports by
/// [`RuleSet::generate`]. The item-sets and supports are Apriori's
/// ([`apriori`](crate::apriori::apriori) with
/// [`AprioriConfig::maximal`](crate::AprioriConfig::maximal)), which
/// mines with FP-growth too and adds Table II's per-level audit trail.
///
/// # Panics
///
/// Panics if `min_support` is zero.
#[must_use]
pub fn mine(
    set: &TransactionSet,
    min_support: u64,
    rules: Option<&RuleConfig>,
) -> (Vec<ItemSet>, Option<RuleSet>) {
    let floor = match rules {
        None => min_support,
        Some(rc) => {
            let width = set.max_width();
            if width == 0 {
                return (Vec::new(), Some(RuleSet::empty()));
            }
            rc.mining_floor(min_support, width)
        }
    };
    let mut frequent = fpgrowth(set, floor);
    let ranked = rules.map(|rc| RuleSet::generate(&frequent, set.len() as u64, min_support, rc));
    frequent.retain(|s| s.support >= min_support);
    (filter_maximal(frequent), ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        for i in 0..10u64 {
            let t = Transaction::from_items(&[
                Item::new(FlowFeature::DstPort, 80),
                Item::new(FlowFeature::Packets, i % 2),
            ])
            .unwrap();
            set.push(t);
        }
        set
    }

    #[test]
    fn maximal_is_subset_of_all() {
        let set = sample();
        let all = fpgrowth(&set, 2);
        let maximal = mine(&set, 2, None).0;
        for m in &maximal {
            assert!(all.contains(m));
        }
        assert!(maximal.len() <= all.len());
    }

    #[test]
    fn rules_leave_the_maximal_report_unchanged() {
        let set = sample();
        let loose = RuleConfig {
            min_confidence: 0.0,
            min_lift: 0.0,
            rare: false,
        };
        let (plain, _) = mine(&set, 3, None);
        let (itemsets, rules) = mine(&set, 3, Some(&loose));
        assert_eq!(itemsets, plain, "rules changed the item-set report");
        let rules = rules.expect("rules requested");
        assert!(!rules.is_empty());
        assert_eq!(rules.transactions, set.len() as u64);
    }

    #[test]
    fn rules_over_an_empty_set_are_empty() {
        let (itemsets, rules) = mine(&TransactionSet::new(), 1, Some(&RuleConfig::default()));
        assert!(itemsets.is_empty());
        assert!(rules.expect("rules requested").is_empty());
    }
}
