//! Unified miner interface: the three algorithms are interchangeable, and
//! [`MinerKind::mine`] is the one dispatch every extraction runs through.

use std::fmt;

use crate::apriori::{apriori, AprioriConfig, LevelStats};
use crate::eclat::eclat;
use crate::fpgrowth::fpgrowth;
use crate::itemset::ItemSet;
use crate::maximal::filter_maximal;
use crate::rules::{RuleConfig, RuleSet};
use crate::transaction::{Transaction, TransactionSet};

/// Which frequent item-set algorithm to run.
///
/// All three produce identical item-sets and supports; they differ only in
/// time and memory. The paper used Apriori (§II-B) and cites FP-tree and
/// vertical methods as the faster alternatives (§III-E); FP-growth is the
/// default — the one definition every extraction path reads — and Apriori
/// stays the reference that carries the Table II level audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinerKind {
    /// Level-wise Apriori (the paper's algorithm; the only miner that
    /// records [`LevelStats`]).
    Apriori,
    /// FP-growth (pattern-growth, no candidate generation) — the default.
    #[default]
    FpGrowth,
    /// Eclat (vertical tid-list intersection).
    Eclat,
}

impl MinerKind {
    /// All miners, for cross-checking and benches.
    pub const ALL: [MinerKind; 3] = [MinerKind::Apriori, MinerKind::FpGrowth, MinerKind::Eclat];

    /// Mine **all** frequent item-sets (support ≥ `min_support`),
    /// canonically ordered.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_all(self, set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
        match self {
            MinerKind::Apriori => apriori(set, &AprioriConfig::all_frequent(min_support)).itemsets,
            MinerKind::FpGrowth => fpgrowth(set, min_support),
            MinerKind::Eclat => eclat(set, min_support),
        }
    }

    /// Mine only **maximal** frequent item-sets — the paper's modified
    /// output (§II-B): the item-sets of [`mine`](Self::mine) without
    /// rules.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine_maximal(self, set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
        self.mine(set, min_support, None).0
    }

    /// One extraction's mining pass: the maximal frequent item-sets at
    /// `min_support` (canonically ordered), Apriori's per-level audit
    /// trail (empty for the other miners), and — iff `rules` is given —
    /// the ranked association rules.
    ///
    /// All frequent item-sets are mined once, at
    /// [`RuleConfig::mining_floor`] with rules (`min_support` outside
    /// rare mode) and at `min_support` without. The maximal sets at
    /// `min_support` follow from that one run by downward closure, so
    /// enabling rules never changes the item-set report, and the rules
    /// are generated, filtered and ranked from the counted supports by
    /// [`RuleSet::generate`].
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero.
    #[must_use]
    pub fn mine(
        self,
        set: &TransactionSet,
        min_support: u64,
        rules: Option<&RuleConfig>,
    ) -> (Vec<ItemSet>, Vec<LevelStats>, Option<RuleSet>) {
        let floor = match rules {
            None => min_support,
            Some(rc) => {
                let width = (set.transactions().iter())
                    .map(Transaction::width)
                    .max()
                    .unwrap_or(0);
                if width == 0 {
                    return (Vec::new(), Vec::new(), Some(RuleSet::empty()));
                }
                rc.mining_floor(min_support, width)
            }
        };
        let (mut frequent, mut levels) = match self {
            MinerKind::Apriori => {
                let out = apriori(set, &AprioriConfig::all_frequent(floor));
                (out.itemsets, out.levels)
            }
            _ => (self.mine_all(set, floor), Vec::new()),
        };
        let ranked =
            rules.map(|rc| RuleSet::generate(&frequent, set.len() as u64, min_support, rc));
        frequent.retain(|s| s.support >= min_support);
        let itemsets = filter_maximal(frequent);
        for s in &itemsets {
            if let Some(stats) = levels.get_mut(s.len() - 1) {
                stats.maximal += 1;
            }
        }
        (itemsets, levels, ranked)
    }
}

impl fmt::Display for MinerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinerKind::Apriori => f.write_str("apriori"),
            MinerKind::FpGrowth => f.write_str("fp-growth"),
            MinerKind::Eclat => f.write_str("eclat"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
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
    fn all_miners_agree_on_both_modes() {
        let set = sample();
        let reference_all = MinerKind::Apriori.mine_all(&set, 3);
        let reference_max = MinerKind::Apriori.mine_maximal(&set, 3);
        for kind in MinerKind::ALL {
            assert_eq!(kind.mine_all(&set, 3), reference_all, "{kind} all");
            assert_eq!(kind.mine_maximal(&set, 3), reference_max, "{kind} maximal");
        }
    }

    #[test]
    fn maximal_is_subset_of_all() {
        let set = sample();
        let all = MinerKind::FpGrowth.mine_all(&set, 2);
        let maximal = MinerKind::FpGrowth.mine_maximal(&set, 2);
        for m in &maximal {
            assert!(all.contains(m));
        }
        assert!(maximal.len() <= all.len());
    }

    #[test]
    fn apriori_audit_trail_comes_back_from_mine() {
        let set = sample();
        let (itemsets, levels, rules) = MinerKind::Apriori.mine(&set, 3, None);
        let reference = crate::apriori::apriori(&set, &AprioriConfig::maximal(3));
        assert_eq!(itemsets, reference.itemsets);
        assert_eq!(levels, reference.levels);
        assert!(rules.is_none());
        assert!(MinerKind::FpGrowth.mine(&set, 3, None).1.is_empty());
    }

    #[test]
    fn rules_leave_the_maximal_report_and_audit_trail_unchanged() {
        let set = sample();
        let loose = RuleConfig {
            min_confidence: 0.0,
            min_lift: 0.0,
            rare: false,
        };
        for kind in MinerKind::ALL {
            let (plain, plain_levels, _) = kind.mine(&set, 3, None);
            let (itemsets, levels, rules) = kind.mine(&set, 3, Some(&loose));
            assert_eq!(itemsets, plain, "{kind}: rules changed the item-set report");
            assert_eq!(
                levels, plain_levels,
                "{kind}: rules changed the audit trail"
            );
            let rules = rules.expect("rules requested");
            assert!(!rules.is_empty(), "{kind}");
            assert_eq!(rules.transactions, set.len() as u64);
        }
    }

    #[test]
    fn rules_over_an_empty_set_are_empty() {
        let (itemsets, levels, rules) =
            MinerKind::Apriori.mine(&TransactionSet::new(), 1, Some(&RuleConfig::default()));
        assert!(itemsets.is_empty());
        assert!(levels.is_empty());
        assert!(rules.expect("rules requested").is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(MinerKind::Apriori.to_string(), "apriori");
        assert_eq!(MinerKind::FpGrowth.to_string(), "fp-growth");
        assert_eq!(MinerKind::Eclat.to_string(), "eclat");
    }
}
