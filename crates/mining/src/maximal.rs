//! Maximal item-set filtering.
//!
//! The paper modifies Apriori to "output only maximal frequent item-sets,
//! i.e., frequent k-item-sets that are not a subset of a more specific
//! frequent (k+1)-item-set" (§II-B). By the downward-closure property, a
//! frequent set is contained in *some* longer frequent set iff it is
//! contained in a frequent set exactly one item longer, so the filter only
//! needs to look one level up.

use std::collections::HashSet; // membership only, never iterated

use crate::item::Item;
use crate::itemset::ItemSet;

/// Retain only the maximal item-sets of a complete frequent-set collection.
///
/// **Precondition:** `sets` must be downward-closed (contain every frequent
/// subset of every member), which is what all miners in this crate produce.
#[must_use]
pub fn filter_maximal(sets: Vec<ItemSet>) -> Vec<ItemSet> {
    if sets.is_empty() {
        return sets;
    }
    let max_len = sets.iter().map(ItemSet::len).max().unwrap_or(0);
    // Bucket by length.
    let mut by_len: Vec<Vec<ItemSet>> = vec![Vec::new(); max_len + 1];
    for s in sets {
        let l = s.len();
        by_len[l].push(s);
    }
    let mut out = Vec::new();
    // A k-set is non-maximal iff it is a (k)-subset of some frequent
    // (k+1)-set. Coverage must be computed from the ORIGINAL frequent
    // buckets — not the already-filtered ones — because non-maximal
    // (k+1)-sets still dominate their k-subsets.
    let coverage: Vec<HashSet<Vec<Item>>> = (0..max_len)
        .map(|k| {
            let mut covered = HashSet::new(); // probed, never iterated
            for bigger in &by_len[k + 1] {
                let items = bigger.items();
                for skip in 0..items.len() {
                    let mut sub = Vec::with_capacity(items.len() - 1);
                    sub.extend_from_slice(&items[..skip]);
                    sub.extend_from_slice(&items[skip + 1..]);
                    covered.insert(sub);
                }
            }
            covered
        })
        .collect();
    for (k, covered) in coverage.iter().enumerate() {
        by_len[k].retain(|s| !covered.contains(s.items())); // `out` is sorted below
    }
    for bucket in by_len {
        out.extend(bucket);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::FlowFeature;

    fn set(items: &[(FlowFeature, u64)], support: u64) -> ItemSet {
        ItemSet::new(
            items.iter().map(|&(f, v)| Item::new(f, v)).collect(),
            support,
        )
    }

    #[test]
    fn keeps_only_maximal() {
        // {a}, {b}, {a,b} — only {a,b} is maximal.
        let a = set(&[(FlowFeature::DstPort, 80)], 10);
        let b = set(&[(FlowFeature::Proto, 6)], 10);
        let ab = set(&[(FlowFeature::DstPort, 80), (FlowFeature::Proto, 6)], 8);
        let out = filter_maximal(vec![a, b, ab.clone()]);
        assert_eq!(out, vec![ab]);
    }

    #[test]
    fn unrelated_sets_all_kept() {
        let a = set(&[(FlowFeature::DstPort, 80)], 10);
        let b = set(&[(FlowFeature::DstPort, 443)], 10);
        let out = filter_maximal(vec![a.clone(), b.clone()]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&a) && out.contains(&b));
    }

    #[test]
    fn multi_level_closure() {
        // downward-closed family of {x,y,z}: every subset present.
        let x = (FlowFeature::SrcIp, 1);
        let y = (FlowFeature::DstIp, 2);
        let z = (FlowFeature::DstPort, 3);
        let family = vec![
            set(&[x], 9),
            set(&[y], 9),
            set(&[z], 9),
            set(&[x, y], 8),
            set(&[x, z], 8),
            set(&[y, z], 8),
            set(&[x, y, z], 7),
        ];
        let out = filter_maximal(family);
        assert_eq!(out, vec![set(&[x, y, z], 7)]);
    }

    #[test]
    fn empty_input() {
        assert!(filter_maximal(Vec::new()).is_empty());
    }
}
