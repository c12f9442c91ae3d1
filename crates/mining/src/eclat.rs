//! Eclat: vertical (tid-list) frequent item-set mining.
//!
//! Zaki's Eclat (ref. 35 in the paper) represents each item by the sorted list
//! of transaction ids containing it and computes supports by intersecting
//! tid-lists during a depth-first search of the item-set lattice. The
//! paper's related work (ref. 21, Li & Deng) applies an Eclat variant to flow
//! mining; we include it as the third interchangeable miner.

use std::collections::HashMap;

use crate::item::Item;
use crate::itemset::ItemSet;
use crate::par::{map_chunks_arc, Exec};
use crate::transaction::{Transaction, TransactionSet};

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
    eclat_exec(set, min_support, Exec::inline())
}

/// Build the vertical representation: item → sorted list of the ids of
/// the transactions containing it. Chunks of the transaction slice are
/// scanned in the given execution context, each worker recording
/// *global* transaction ids (chunk start + offset); concatenating the
/// per-chunk lists in chunk order reproduces the sequential construction
/// exactly.
fn tidlists(set: &TransactionSet, exec: Exec<'_>) -> HashMap<Item, Vec<u32>> {
    let parts = map_chunks_arc(exec, set.shared(), |start, chunk: &[Transaction]| {
        let mut lists: HashMap<Item, Vec<u32>> = HashMap::new();
        for (offset, t) in chunk.iter().enumerate() {
            let tid = (start + offset) as u32;
            for &item in t.items() {
                lists.entry(item).or_default().push(tid);
            }
        }
        lists
    });
    let mut merged: HashMap<Item, Vec<u32>> = HashMap::new();
    // Chunk order + ascending tids within each chunk ⇒ merged lists are
    // sorted without any post-hoc sort.
    for part in parts {
        for (item, mut tids) in part {
            merged.entry(item).or_default().append(&mut tids);
        }
    }
    merged
}

/// Eclat with tid-list construction in the given execution context.
///
/// Tid-list construction runs over transaction chunks, the per-chunk
/// lists concatenating in chunk order into exactly the sequential
/// tid-lists. The lattice search runs on the calling thread; supports
/// are tid-list lengths, so the canonically sorted output is
/// **bit-identical** to [`eclat`] for every context and thread count.
///
/// # Panics
///
/// Panics if `min_support` is zero.
#[must_use]
pub fn eclat_exec(set: &TransactionSet, min_support: u64, exec: Exec<'_>) -> Vec<ItemSet> {
    assert!(min_support >= 1, "minimum support must be at least 1");

    let tidlists = tidlists(set, exec);
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
            assert_eq!(s.support, set.support_of(s.items()), "{s}");
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

    #[test]
    fn parallel_tidlists_are_identical_for_every_thread_count() {
        use std::num::NonZeroUsize;
        let mut set = TransactionSet::new();
        for i in 0..5000u64 {
            set.push(tx(&[
                (FlowFeature::DstPort, 80 + i % 4),
                (FlowFeature::Proto, 6),
                (FlowFeature::Packets, i % 7),
            ]));
        }
        let reference = eclat(&set, 300);
        for threads in 2..=8 {
            let pool = crossbeam::WorkerPool::new(NonZeroUsize::new(threads).unwrap());
            let par = eclat_exec(&set, 300, Exec::Pool(&pool));
            assert_eq!(par, reference, "threads={threads}");
            for (a, b) in par.iter().zip(&reference) {
                assert_eq!(a.support, b.support, "threads={threads} {a}");
            }
        }
    }
}
