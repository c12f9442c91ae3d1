//! FP-growth: frequent-pattern mining without candidate generation.
//!
//! The paper notes (§III-E) that "progressive implementations that use
//! FP-trees … have been shown to outperform standard hash tree
//! implementations" of Apriori. This module provides that faster miner with
//! the exact same output contract as [`crate::apriori`], so the two are
//! interchangeable in the pipeline and comparable in the ablation bench.
//!
//! The tree is arena-allocated (`Vec<Node>` + indices) — no `Rc`/`RefCell`,
//! no unsafe.

use std::collections::HashMap;

use crate::apriori::count_single_items;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::par::Exec;
use crate::transaction::TransactionSet;

/// One FP-tree node.
#[derive(Debug, Clone)]
struct Node {
    item: Item,
    count: u64,
    parent: usize,
    /// Child lookup. Transactions are short (≤ 7 items), so a sorted small
    /// vec would also work; a HashMap keeps insertion O(1) for wide fans.
    children: HashMap<Item, usize>,
}

/// An FP-tree over (item, count) weighted transactions.
struct FpTree {
    arena: Vec<Node>,
    /// item → indices of all nodes carrying that item (the "node links").
    header: HashMap<Item, Vec<usize>>,
}

const ROOT: usize = 0;
/// Sentinel item stored in the root node (never matched: the root's entry
/// is excluded from the header table).
fn root_item() -> Item {
    Item::new(anomex_netflow::FlowFeature::SrcIp, 0)
}

impl FpTree {
    fn new() -> Self {
        FpTree {
            arena: vec![Node {
                item: root_item(),
                count: 0,
                parent: ROOT,
                children: HashMap::new(),
            }],
            header: HashMap::new(),
        }
    }

    /// Insert one (already rank-ordered) item path with a count.
    fn insert(&mut self, path: &[Item], count: u64) {
        let mut at = ROOT;
        for &item in path {
            if let Some(&child) = self.arena[at].children.get(&item) {
                self.arena[child].count += count;
                at = child;
            } else {
                let idx = self.arena.len();
                self.arena.push(Node {
                    item,
                    count,
                    parent: at,
                    children: HashMap::new(),
                });
                self.arena[at].children.insert(item, idx);
                self.header.entry(item).or_default().push(idx);
                at = idx;
            }
        }
    }

    /// Walk from a node to the root, collecting the prefix path
    /// (excluding the node itself), bottom-up.
    fn prefix_path(&self, mut at: usize) -> Vec<Item> {
        let mut path = Vec::new();
        at = self.arena[at].parent;
        while at != ROOT {
            path.push(self.arena[at].item);
            at = self.arena[at].parent;
        }
        path.reverse();
        path
    }
}

/// Rank items of one transaction by global frequency (descending), keeping
/// only frequent ones. Deterministic: ties break on the item encoding.
fn ranked_items(items: &[Item], rank: &HashMap<Item, usize>) -> Vec<Item> {
    let mut v: Vec<Item> = items
        .iter()
        .copied()
        .filter(|i| rank.contains_key(i))
        .collect();
    v.sort_unstable_by_key(|i| rank[i]);
    v
}

/// Mine all frequent item-sets with FP-growth.
///
/// Output contract matches [`crate::apriori::apriori`] with
/// `maximal_only = false`: every frequent item-set with its exact support,
/// canonically ordered.
///
/// # Panics
///
/// Panics if `min_support` is zero.
#[must_use]
pub fn fpgrowth(set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
    fpgrowth_exec(set, min_support, Exec::inline())
}

/// FP-growth with its first scan in the given execution context.
///
/// The first (support-counting) scan runs over transaction chunks and
/// merges by exact integer sums, so the ranking — and therefore the
/// global tree — is identical for every context. Tree construction and
/// the conditional-tree search run on the calling thread; each item-set's
/// support is an exact sum over node links and the output is canonically
/// sorted, so the result is **bit-identical** to [`fpgrowth`] for every
/// context and thread count.
///
/// # Panics
///
/// Panics if `min_support` is zero.
#[must_use]
pub fn fpgrowth_exec(set: &TransactionSet, min_support: u64, exec: Exec<'_>) -> Vec<ItemSet> {
    assert!(min_support >= 1, "minimum support must be at least 1");

    // Pass 1: global item counts (parallel over chunks, merged by sum).
    let counts = count_single_items(set, exec);
    let mut frequent: Vec<(Item, u64)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .collect();
    // Rank: descending frequency, ties by encoding for determinism.
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rank: HashMap<Item, usize> = frequent
        .iter()
        .enumerate()
        .map(|(r, &(i, _))| (i, r))
        .collect();

    // Pass 2: build the tree.
    let mut tree = FpTree::new();
    for t in set.transactions() {
        let path = ranked_items(t.items(), &rank);
        if !path.is_empty() {
            tree.insert(&path, 1);
        }
    }

    let mut out = Vec::new();
    mine_tree(&tree, &mut Vec::new(), min_support, &mut out);
    out.sort_unstable();
    out
}

/// Item supports within one (conditional) tree, in deterministic
/// (item-sorted) processing order. Each support is an exact sum over
/// the item's node links.
fn item_supports(tree: &FpTree) -> Vec<(Item, u64)> {
    let mut supports: Vec<(Item, u64)> = tree
        .header
        .iter()
        .map(|(&item, nodes)| (item, nodes.iter().map(|&n| tree.arena[n].count).sum()))
        .collect();
    supports.sort_unstable_by_key(|&(item, _)| item);
    supports
}

/// The conditional tree of `item`: its prefix paths, reweighted by the
/// item's node counts.
fn conditional_tree(tree: &FpTree, item: Item) -> FpTree {
    let mut cond = FpTree::new();
    for &node in &tree.header[&item] {
        let path = tree.prefix_path(node);
        if !path.is_empty() {
            cond.insert(&path, tree.arena[node].count);
        }
    }
    cond
}

/// Mine every frequent item of `tree` as an extension of `suffix`: emit
/// `suffix ∪ {item}`, build the item's conditional tree, and descend
/// into it.
fn mine_tree(tree: &FpTree, suffix: &mut Vec<Item>, min_support: u64, out: &mut Vec<ItemSet>) {
    for (item, support) in item_supports(tree) {
        if support < min_support {
            continue;
        }
        suffix.push(item);
        out.push(ItemSet::new(suffix.clone(), support));
        let cond = conditional_tree(tree, item);
        if !cond.header.is_empty() {
            mine_tree(&cond, suffix, min_support, out);
        }
        suffix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{apriori, AprioriConfig};
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn tx(items: &[(FlowFeature, u64)]) -> Transaction {
        let items: Vec<_> = items.iter().map(|&(f, v)| Item::new(f, v)).collect();
        Transaction::from_items(&items).unwrap()
    }

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        for _ in 0..4 {
            set.push(tx(&[
                (FlowFeature::DstPort, 80),
                (FlowFeature::Proto, 6),
                (FlowFeature::Packets, 2),
            ]));
        }
        for _ in 0..3 {
            set.push(tx(&[(FlowFeature::DstPort, 80), (FlowFeature::Proto, 17)]));
        }
        set.push(tx(&[(FlowFeature::Packets, 2)]));
        set
    }

    #[test]
    fn agrees_with_apriori_on_sample() {
        let set = sample();
        for support in 1..=5 {
            let a = apriori(&set, &AprioriConfig::all_frequent(support));
            let f = fpgrowth(&set, support);
            assert_eq!(a.itemsets, f, "support {support}");
            // Supports too (Eq ignores support, so check explicitly).
            for (x, y) in a.itemsets.iter().zip(&f) {
                assert_eq!(x.support, y.support, "support mismatch on {x}");
            }
        }
    }

    #[test]
    fn exact_supports() {
        let set = sample();
        let out = fpgrowth(&set, 2);
        for s in &out {
            assert_eq!(s.support, set.support_of(s.items()), "{s}");
        }
    }

    #[test]
    fn empty_set_yields_nothing() {
        assert!(fpgrowth(&TransactionSet::new(), 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "minimum support must be at least 1")]
    fn zero_support_panics() {
        let _ = fpgrowth(&TransactionSet::new(), 0);
    }

    #[test]
    fn parallel_first_scan_is_identical_for_every_thread_count() {
        use std::num::NonZeroUsize;
        let mut set = TransactionSet::new();
        for i in 0..4000u64 {
            set.push(tx(&[
                (FlowFeature::DstPort, 80 + i % 3),
                (FlowFeature::Proto, 6 + (i % 2) * 11),
                (FlowFeature::Packets, i % 4),
            ]));
        }
        let reference = fpgrowth(&set, 250);
        for threads in 2..=8 {
            let pool = crossbeam::WorkerPool::new(NonZeroUsize::new(threads).unwrap());
            let par = fpgrowth_exec(&set, 250, Exec::Pool(&pool));
            assert_eq!(par, reference, "threads={threads}");
            for (a, b) in par.iter().zip(&reference) {
                assert_eq!(a.support, b.support, "threads={threads} {a}");
            }
        }
    }

    #[test]
    fn single_path_tree_mines_all_subsets() {
        // 3 identical 3-item transactions → all 7 non-empty subsets frequent.
        let mut set = TransactionSet::new();
        for _ in 0..3 {
            set.push(tx(&[
                (FlowFeature::SrcIp, 1),
                (FlowFeature::DstIp, 2),
                (FlowFeature::DstPort, 3),
            ]));
        }
        let out = fpgrowth(&set, 3);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|s| s.support == 3));
    }
}
