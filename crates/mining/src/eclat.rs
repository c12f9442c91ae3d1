//! Eclat: vertical (tid-list) frequent item-set mining.
//!
//! Zaki's Eclat (ref. 35 in the paper) represents each item by the sorted list
//! of transaction ids containing it and computes supports by intersecting
//! tid-lists during a depth-first search of the item-set lattice. The
//! paper's related work (ref. 21, Li & Deng) applies an Eclat variant to flow
//! mining. No extraction runs it: only the benchmark replica's miner
//! cross-check reaches it, through the crate's legacy module.

use std::collections::HashMap; // roots are sorted before the search

use crate::item::Item;
use crate::itemset::ItemSet;
use crate::transaction::TransactionSet;

/// Build the vertical representation: item → ascending tid list, in hash
/// order ([`eclat`] sorts the roots by item before the search).
fn tidlists(set: &TransactionSet) -> HashMap<Item, Vec<u32>> {
    let mut lists: HashMap<Item, Vec<u32>> = HashMap::new();
    for (tid, t) in set.iter().enumerate() {
        for &item in t.items() {
            lists.entry(item).or_default().push(tid as u32);
        }
    }
    lists
}

/// Mine all frequent item-sets with Eclat.
///
/// Output contract matches [`crate::apriori::apriori`] with
/// `maximal_only = false`.
///
/// # Panics
///
/// Panics if `min_support` is zero.
#[must_use]
pub fn eclat(set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
    assert!(min_support >= 1, "minimum support must be at least 1");

    let tidlists = tidlists(set);
    let mut roots: Vec<(Item, Vec<u32>)> = tidlists
        .into_iter()
        .filter(|(_, tids)| tids.len() as u64 >= min_support)
        .collect();
    roots.sort_unstable_by_key(|&(item, _)| item);

    let mut out = Vec::new();
    mine_siblings(&roots, &mut Vec::new(), min_support, &mut out);
    out.sort_unstable();
    out
}

/// Depth-first extension over one sibling list: `prefix ∪ {siblings[i]}`
/// can only be extended by `siblings[j]` with `j > i`, keeping item-sets
/// sorted and visited once. Emits each branch, intersects its tid-list
/// with every later sibling, and descends into the surviving extensions.
fn mine_siblings(
    siblings: &[(Item, Vec<u32>)],
    prefix: &mut Vec<Item>,
    min_support: u64,
    out: &mut Vec<ItemSet>,
) {
    for (i, (item, tids)) in siblings.iter().enumerate() {
        prefix.push(*item);
        out.push(ItemSet::new(prefix.clone(), tids.len() as u64));

        let mut next: Vec<(Item, Vec<u32>)> = Vec::new();
        for (other, other_tids) in &siblings[i + 1..] {
            if other.feature() == item.feature() {
                continue; // same-feature items never co-occur
            }
            let inter = intersect(tids, other_tids);
            if inter.len() as u64 >= min_support {
                next.push((*other, inter));
            }
        }
        mine_siblings(&next, prefix, min_support, out);
        prefix.pop();
    }
}

/// Intersection of two sorted tid-lists (merge scan).
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, AprioriConfig};
    use crate::fpgrowth::fpgrowth;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn tx(items: &[(FlowFeature, u64)]) -> Transaction {
        let items: Vec<_> = items.iter().map(|&(f, v)| Item::new(f, v)).collect();
        Transaction::from_items(&items).unwrap()
    }

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        for i in 0..6u64 {
            set.push(tx(&[
                (FlowFeature::DstPort, 80 + (i % 2) * 363),
                (FlowFeature::Proto, 6),
                (FlowFeature::Packets, i % 3),
            ]));
        }
        set
    }

    #[test]
    fn intersect_merge() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect(&[1, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn agrees_with_other_miners() {
        let set = sample();
        for support in 1..=4 {
            let a = apriori(&set, &AprioriConfig::all_frequent(support));
            let e = eclat(&set, support);
            let f = fpgrowth(&set, support);
            assert_eq!(a.itemsets, e, "apriori vs eclat at {support}");
            assert_eq!(e, f, "eclat vs fpgrowth at {support}");
            for (x, y) in a.itemsets.iter().zip(&e) {
                assert_eq!(x.support, y.support, "{x}");
            }
        }
    }

    #[test]
    fn exact_supports() {
        let set = sample();
        for s in eclat(&set, 1) {
            assert_eq!(
                s.support,
                set.iter().filter(|t| t.contains_all(s.items())).count() as u64,
                "{s}"
            );
        }
    }

    #[test]
    fn empty_set_yields_nothing() {
        assert!(eclat(&TransactionSet::new(), 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "minimum support must be at least 1")]
    fn zero_support_panics() {
        let _ = eclat(&TransactionSet::new(), 0);
    }
}
