//! The modified Apriori algorithm (paper §II-B), read off FP-growth's
//! frequent item-sets.
//!
//! Standard Apriori (Agrawal & Srikant, VLDB'94) searches level by level,
//! with the paper's modification: the final output keeps only **maximal**
//! frequent item-sets. Its per-level statistics are the §II-B audit trail
//! (Table II: "60 frequent 1-item-sets found, 58 removed as subsets…").
//!
//! Every Apriori round is a pure function of the frequent item-sets, so
//! [`apriori`] mines them once with [`fpgrowth`] and derives the rounds
//! from them, counting no support itself: level 1 holds the frequent
//! items; level k's candidates are Apriori's join and prune of level
//! k − 1's frequent sets, and its frequent sets are the frequent k-sets,
//! each of which is a candidate by downward closure; the maximal counts
//! come from [`filter_maximal`]. The item-sets and supports are
//! FP-growth's, which are Apriori's.

use crate::fpgrowth::fpgrowth;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::maximal::filter_maximal;
use crate::transaction::{TransactionSet, MAX_WIDTH};

/// Apriori configuration.
#[derive(Debug, Clone, Copy)]
pub struct AprioriConfig {
    /// Minimum support threshold `s` (absolute number of transactions).
    pub min_support: u64,
    /// Output only maximal frequent item-sets (the paper's modification).
    pub maximal_only: bool,
}

impl AprioriConfig {
    /// Config with the paper's modification enabled.
    #[must_use]
    pub fn maximal(min_support: u64) -> Self {
        AprioriConfig {
            min_support,
            maximal_only: true,
        }
    }

    /// Config producing all frequent item-sets (classic Apriori).
    #[must_use]
    pub fn all_frequent(min_support: u64) -> Self {
        AprioriConfig {
            min_support,
            maximal_only: false,
        }
    }
}

/// Counters for one Apriori level (one `k`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// The level `k` (item-set size).
    pub level: usize,
    /// Candidate k-item-sets generated (after join + prune).
    pub candidates: u64,
    /// Frequent k-item-sets (support ≥ s).
    pub frequent: u64,
    /// Frequent k-item-sets that survived maximal filtering.
    pub maximal: u64,
}

/// Complete Apriori output: item-sets plus the per-level audit trail.
#[derive(Debug, Clone)]
pub struct AprioriOutput {
    /// The mined item-sets, canonically ordered (length-major). Maximal
    /// only when [`AprioriConfig::maximal_only`] was set.
    pub itemsets: Vec<ItemSet>,
    /// Per-level statistics (index 0 = 1-item-sets).
    pub levels: Vec<LevelStats>,
    /// The dataset passes level-wise Apriori makes: one per round that
    /// counts, the first and every one with candidates (≤ 9 for flow
    /// transactions).
    pub passes: usize,
}

/// Apriori's item-sets and rounds over a transaction set.
///
/// The rounds stop after the first level without frequent sets, after
/// the terminating round whose join yields no candidate (recorded, as the
/// paper's audit trail records it), or at level [`MAX_WIDTH`], the widest
/// transaction.
///
/// # Panics
///
/// Panics if `config.min_support` is zero — a zero threshold would make
/// every subset of every transaction "frequent", which is never meaningful.
#[must_use]
pub fn apriori(set: &TransactionSet, config: &AprioriConfig) -> AprioriOutput {
    let frequent = fpgrowth(set, config.min_support);
    let level = |k: usize| {
        let start = frequent.partition_point(|s| s.len() < k);
        &frequent[start..start + frequent[start..].partition_point(|s| s.len() == k)]
    };

    let mut prev = level(1);
    let mut levels = vec![LevelStats {
        level: 1,
        candidates: 0, // level 1 has no candidate-generation step
        frequent: prev.len() as u64,
        maximal: 0,
    }];
    for k in 2..=MAX_WIDTH {
        if prev.is_empty() {
            break;
        }
        let candidates = candidates(prev);
        let current = level(k);
        levels.push(LevelStats {
            level: k,
            candidates,
            frequent: current.len() as u64,
            maximal: 0,
        });
        if candidates == 0 {
            break; // the terminating round
        }
        prev = current;
    }
    let passes = levels
        .iter()
        .filter(|l| l.level == 1 || l.candidates > 0)
        .count();

    let itemsets = if config.maximal_only {
        let maximal = filter_maximal(frequent);
        for s in &maximal {
            levels[s.len() - 1].maximal += 1;
        }
        maximal
    } else {
        frequent
    };
    AprioriOutput {
        itemsets,
        levels,
        passes,
    }
}

/// How many candidate k-sets Apriori generates from the frequent
/// (k − 1)-sets `prev`, sorted: two sets sharing their first k − 2 items
/// join when their last items belong to *different* features (a
/// transaction never carries two values of one feature), and the union
/// is kept when every (k − 1)-subset of it is in `prev` (downward
/// closure).
fn candidates(prev: &[ItemSet]) -> u64 {
    let shared = prev[0].len() - 1;
    let mut candidate: Vec<Item> = Vec::with_capacity(shared + 2);
    let mut subset: Vec<Item> = Vec::with_capacity(shared + 1);
    let mut count = 0;
    for (i, a) in prev.iter().enumerate() {
        let (prefix, tail) = a.items().split_at(shared);
        let group = prev[i + 1..]
            .iter()
            .take_while(|b| &b.items()[..shared] == prefix);
        for b in group {
            let last = b.items()[shared];
            if last.feature() == tail[0].feature() {
                continue; // can never co-occur in one transaction
            }
            candidate.clear();
            candidate.extend_from_slice(a.items());
            candidate.push(last); // after a's tail by sort order
            let closed = (0..candidate.len()).all(|skip| {
                subset.clear();
                subset.extend_from_slice(&candidate[..skip]);
                subset.extend_from_slice(&candidate[skip + 1..]);
                prev.binary_search_by(|s| s.items().cmp(&subset)).is_ok()
            });
            count += u64::from(closed);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn tx(items: &[(FlowFeature, u64)]) -> Transaction {
        let items: Vec<_> = items.iter().map(|&(f, v)| Item::new(f, v)).collect();
        Transaction::from_items(&items).unwrap()
    }

    /// Small dataset with a known answer:
    /// 4x {dstPort=80, proto=6}, 2x {dstPort=443, proto=6}, 1x {dstPort=80, proto=17}
    fn small_set() -> TransactionSet {
        let mut set = TransactionSet::new();
        for _ in 0..4 {
            set.push(tx(&[(FlowFeature::DstPort, 80), (FlowFeature::Proto, 6)]));
        }
        for _ in 0..2 {
            set.push(tx(&[(FlowFeature::DstPort, 443), (FlowFeature::Proto, 6)]));
        }
        set.push(tx(&[(FlowFeature::DstPort, 80), (FlowFeature::Proto, 17)]));
        set
    }

    #[test]
    fn finds_expected_itemsets_at_support_4() {
        let out = apriori(&small_set(), &AprioriConfig::all_frequent(4));
        // dstPort=80 (5), proto=6 (6), {dstPort=80,proto=6} (4)
        let rendered: Vec<String> = out.itemsets.iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            vec![
                "{dstPort=80} x5".to_string(),
                "{protocol=6} x6".to_string(),
                "{dstPort=80, protocol=6} x4".to_string(),
            ]
        );
    }

    #[test]
    fn maximal_mode_drops_subsets() {
        let out = apriori(&small_set(), &AprioriConfig::maximal(4));
        // dstPort=80 is a subset of the frequent pair → removed.
        // proto=6 is also a subset of the pair → removed.
        let rendered: Vec<String> = out.itemsets.iter().map(ToString::to_string).collect();
        assert_eq!(rendered, vec!["{dstPort=80, protocol=6} x4".to_string()]);
        assert_eq!(out.levels[0].frequent, 2);
        assert_eq!(out.levels[0].maximal, 0);
        assert_eq!(out.levels[1].frequent, 1);
        assert_eq!(out.levels[1].maximal, 1);
    }

    #[test]
    fn supports_match_reference_definition() {
        let set = small_set();
        let out = apriori(&set, &AprioriConfig::all_frequent(1));
        for s in &out.itemsets {
            assert_eq!(
                s.support,
                set.iter().filter(|t| t.contains_all(s.items())).count() as u64,
                "support mismatch for {s}"
            );
        }
    }

    #[test]
    fn high_support_yields_nothing() {
        let out = apriori(&small_set(), &AprioriConfig::maximal(100));
        assert!(out.itemsets.is_empty());
        assert_eq!(out.passes, 1);
    }

    #[test]
    fn empty_transaction_set() {
        let out = apriori(&TransactionSet::new(), &AprioriConfig::maximal(1));
        assert!(out.itemsets.is_empty());
    }

    #[test]
    #[should_panic(expected = "minimum support must be at least 1")]
    fn zero_support_panics() {
        let _ = apriori(&TransactionSet::new(), &AprioriConfig::maximal(0));
    }

    #[test]
    fn same_feature_items_never_join() {
        // Two frequent dstPort values must not generate a {80,443} candidate.
        let mut set = TransactionSet::new();
        for _ in 0..3 {
            set.push(tx(&[(FlowFeature::DstPort, 80)]));
            set.push(tx(&[(FlowFeature::DstPort, 443)]));
        }
        let out = apriori(&set, &AprioriConfig::all_frequent(2));
        assert!(out.itemsets.iter().all(|s| s.len() == 1));
        assert_eq!(out.levels.len(), 2);
        assert_eq!(out.levels[1].candidates, 0);
    }

    #[test]
    fn full_width_transactions_reach_level_7() {
        use anomex_netflow::{FlowRecord, Protocol};
        use std::net::Ipv4Addr;
        // 5 identical flows → one maximal 7-item-set at support 5.
        let flow = FlowRecord::new(
            0,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            7000,
            Protocol::Udp,
        )
        .with_volume(2, 80);
        let cols = anomex_netflow::FlowColumns::from_flows(&[flow; 5]);
        let set = TransactionSet::from_columns_at(&cols, &[0, 1, 2, 3, 4]);
        let out = apriori(&set, &AprioriConfig::maximal(5));
        assert_eq!(out.itemsets.len(), 1);
        assert_eq!(out.itemsets[0].len(), 7);
        assert_eq!(out.itemsets[0].support, 5);
        assert_eq!(out.passes, 7);
    }

    #[test]
    fn passes_bounded_by_transaction_width() {
        let out = apriori(&small_set(), &AprioriConfig::all_frequent(1));
        assert!(out.passes <= MAX_WIDTH);
    }
}
