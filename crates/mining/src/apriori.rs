//! The modified Apriori algorithm (paper §II-B).
//!
//! Standard Apriori (Agrawal & Srikant, VLDB'94) level-wise search with the
//! paper's modification: the final output keeps only **maximal** frequent
//! item-sets. Per-level statistics are recorded so the §II-B worked example
//! (Table II: "60 frequent 1-item-sets found, 58 removed as subsets…") can
//! be regenerated verbatim.
//!
//! Because flow transactions have bounded width (7 canonical, 9 with the
//! §III-D prefix dimensions), the algorithm makes at most width-many
//! passes and support counting can enumerate transaction k-subsets
//! allocation-free (≤ 126 subsets per transaction per level).

use std::collections::{HashMap, HashSet}; // probed by key, never iterated
use std::ops::Range;

use crate::combinations::for_each_combination;
use crate::count::count_single_items;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::maximal::filter_maximal;
use crate::transaction::{TransactionSet, MAX_WIDTH};

/// Padding value for fixed-size candidate keys. Never a valid item
/// encoding (feature indices stop at 8, so valid encodings are < 9 << 56).
const KEY_PAD: u64 = u64::MAX;

/// Fixed-size key for a candidate item-set (allocation-free hashing).
type CandKey = [u64; MAX_WIDTH];

fn key_of(items: &[Item]) -> CandKey {
    let mut key = [KEY_PAD; MAX_WIDTH];
    for (slot, item) in key.iter_mut().zip(items) {
        *slot = item.encoding();
    }
    key
}

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
    /// Number of dataset passes performed (≤ 7 for flow transactions).
    pub passes: usize,
}

/// Run Apriori over a transaction set.
///
/// # Panics
///
/// Panics if `config.min_support` is zero — a zero threshold would make
/// every subset of every transaction "frequent", which is never meaningful.
#[must_use]
pub fn apriori(set: &TransactionSet, config: &AprioriConfig) -> AprioriOutput {
    assert!(
        config.min_support >= 1,
        "minimum support must be at least 1"
    );
    let min_support = config.min_support;

    let mut all_frequent: Vec<ItemSet> = Vec::new();
    let mut levels: Vec<LevelStats> = Vec::new();

    // --- Pass 1: count single items. ---
    let mut current: Vec<(Vec<Item>, u64)> = count_single_items(set, min_support)
        .into_iter()
        .map(|(item, c)| (vec![item], c))
        .collect();
    levels.push(LevelStats {
        level: 1,
        candidates: 0, // level 1 has no candidate-generation step
        frequent: current.len() as u64,
        maximal: 0,
    });
    let mut passes = 1;

    // --- Passes k = 2..=7 ---
    while !current.is_empty() && passes < MAX_WIDTH {
        let k = passes + 1;
        let candidates = generate_candidates(&current);
        let n_candidates = candidates.len() as u64;
        if candidates.is_empty() {
            // Record the empty round (the paper's audit trail includes the
            // terminating round), then stop without another dataset pass.
            levels.push(LevelStats {
                level: k,
                candidates: 0,
                frequent: 0,
                maximal: 0,
            });
            all_frequent.extend(current.drain(..).map(|(items, c)| ItemSet::new(items, c)));
            break;
        }

        // Support counting: enumerate each transaction's k-subsets and
        // look each one up in the candidate index (by key: no hash order).
        let index: HashMap<CandKey, usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, items)| (key_of(items), i))
            .collect();
        let mut support = vec![0u64; candidates.len()];
        for t in set.iter() {
            if t.width() < k {
                continue;
            }
            for_each_combination(t.items(), k, |combo| {
                if let Some(&i) = index.get(&key_of(combo)) {
                    support[i] += 1;
                }
            });
        }
        passes += 1;

        let mut next: Vec<(Vec<Item>, u64)> = candidates
            .into_iter()
            .enumerate()
            .filter_map(|(i, items)| {
                let c = support[i];
                (c >= min_support).then_some((items, c))
            })
            .collect();
        next.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        levels.push(LevelStats {
            level: k,
            candidates: n_candidates,
            frequent: next.len() as u64,
            maximal: 0,
        });

        all_frequent.extend(current.drain(..).map(|(items, c)| ItemSet::new(items, c)));
        current = next;
    }
    all_frequent.extend(current.into_iter().map(|(items, c)| ItemSet::new(items, c)));

    let itemsets = if config.maximal_only {
        filter_maximal(all_frequent)
    } else {
        let mut v = all_frequent;
        v.sort_unstable();
        v
    };

    // Fill the per-level maximal counters from the final output.
    for s in &itemsets {
        if config.maximal_only {
            if let Some(stats) = levels.get_mut(s.len() - 1) {
                stats.maximal += 1;
            }
        }
    }

    AprioriOutput {
        itemsets,
        levels,
        passes,
    }
}

/// Boundaries of the (k-2)-prefix groups of a sorted frequent level:
/// each returned range is one maximal run sharing a join prefix. The
/// join only ever pairs item-sets within one group.
fn prefix_groups(frequent: &[(Vec<Item>, u64)]) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut group_start = 0;
    while group_start < frequent.len() {
        let prefix_len = frequent[group_start].0.len() - 1;
        let prefix = &frequent[group_start].0[..prefix_len];
        let mut group_end = group_start + 1;
        while group_end < frequent.len() && &frequent[group_end].0[..prefix_len] == prefix {
            group_end += 1;
        }
        groups.push(group_start..group_end);
        group_start = group_end;
    }
    groups
}

/// Join + prune one prefix group, appending surviving candidates in
/// join order (i < j over the group).
///
/// Two extra domain rules cut the space:
/// - the two joined tail items must belong to *different* features, since a
///   transaction never carries two values of one feature;
/// - the prefix-join only pairs lexicographically adjacent groups, keeping
///   the join linear in practice.
fn join_group(
    frequent: &[(Vec<Item>, u64)],
    group: Range<usize>,
    prev: &HashSet<CandKey>, // membership only: `out` follows `frequent`
    out: &mut Vec<Vec<Item>>,
) {
    let prefix_len = frequent[group.start].0.len() - 1;
    for i in group.clone() {
        for j in i + 1..group.end {
            let a = &frequent[i].0;
            let b = &frequent[j].0;
            let (ta, tb) = (a[prefix_len], b[prefix_len]);
            if ta.feature() == tb.feature() {
                continue; // can never co-occur in one transaction
            }
            let mut cand = Vec::with_capacity(a.len() + 1);
            cand.extend_from_slice(a);
            cand.push(tb); // ta < tb by sort order, so cand stays sorted
            if subsets_all_frequent(&cand, prev) {
                out.push(cand);
            }
        }
    }
}

/// Candidate generation: join L(k-1) with itself on the (k-2)-prefix,
/// then prune candidates with an infrequent (k-1)-subset (downward
/// closure, looked up in the never-iterated set `prev`).
fn generate_candidates(current: &[(Vec<Item>, u64)]) -> Vec<Vec<Item>> {
    let prev: HashSet<CandKey> = current.iter().map(|(items, _)| key_of(items)).collect();
    let mut out = Vec::new();
    for group in prefix_groups(current) {
        join_group(current, group, &prev, &mut out);
    }
    out
}

/// Downward-closure prune: every (k-1)-subset of `cand` must be in `prev`.
fn subsets_all_frequent(cand: &[Item], prev: &HashSet<CandKey>) -> bool {
    let mut sub = Vec::with_capacity(cand.len() - 1);
    for skip in 0..cand.len() {
        sub.clear();
        sub.extend_from_slice(&cand[..skip]);
        sub.extend_from_slice(&cand[skip + 1..]);
        if !prev.contains(&key_of(&sub)) {
            return false;
        }
    }
    true
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
