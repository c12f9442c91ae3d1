//! FP-growth: frequent-pattern mining without candidate generation — the
//! one miner extraction runs ([`crate::mine`]).
//!
//! The paper notes (§III-E) that "progressive implementations that use
//! FP-trees … have been shown to outperform standard hash tree
//! implementations" of Apriori. This module provides that faster miner with
//! the exact same output contract as [`crate::apriori`], which stays the
//! reference it is tested against and Table II's miner.
//!
//! The tree works on **dense ranks**, not items: after the first count
//! (one feature column at a time), every frequent item gets its position
//! in the descending-frequency order (ties broken by item encoding), and
//! the header table and node links are `Vec`s indexed by rank.
//! Conditional trees keep the global ranks (every prefix of rank `r` only
//! holds ranks below `r`), drop the ranks that are infrequent in their
//! conditional base before inserting, and are rebuilt into one recycled
//! arena per recursion depth. Ranks turn back into [`Item`]s only when an
//! item-set is emitted. The arena is `Vec<Node>` + `u32` indices — no
//! `Rc`/`RefCell`, no raw pointers.
//!
//! **Paths from columns.** With at most 64 frequent items, each row's
//! ranks are a bitmask, built one column at a time by comparing the
//! column with each of its few frequent values — no per-item lookup — and
//! the set bits, lowest first, are the row's path. Rows with equal masks
//! share their path, so identical masks are merged first and each path is
//! inserted once with its count. More frequent items than that (the low
//! supports of rare mode) take the general path: per row, each column's
//! rank by binary search over that column's frequent values, sorted, then
//! inserted. Either way the tree's counts, and so every item-set and
//! support, are those of inserting the rows one by one.

use crate::count::count_single_items;
use crate::item::Item;
use crate::itemset::ItemSet;
use crate::transaction::{TransactionSet, MAX_WIDTH};

/// Slots of the table that merges identical rank masks; it is emptied
/// into the tree whenever half of them are taken.
const MERGE_SLOTS: usize = 1 << 10;

/// "No node": the end of a child, sibling or node-link chain.
const NONE: u32 = u32::MAX;
/// The root's arena index (its `rank` is never read).
const ROOT: u32 = 0;

/// One FP-tree node. Children form a singly linked sibling list (fan-out
/// is bounded by the number of frequent items, tens in practice) and all
/// nodes of one rank form that rank's node-link chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    rank: u32,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    /// The next node carrying the same rank.
    next_link: u32,
    count: u64,
}

impl Node {
    fn new(rank: u32, parent: u32, next_sibling: u32, next_link: u32) -> Self {
        Node {
            rank,
            parent,
            first_child: NONE,
            next_sibling,
            next_link,
            count: 0,
        }
    }
}

/// An FP-tree over ranks `0..support.len()`, reusable across rebuilds.
#[derive(Debug, Default)]
struct FpTree {
    nodes: Vec<Node>,
    /// rank → first node of its node-link chain.
    heads: Vec<u32>,
    /// rank → support within this tree (the sum of its node counts),
    /// filled before the paths are inserted.
    support: Vec<u64>,
}

impl FpTree {
    /// Empty the tree for ranks `0..ranks`, keeping the allocations.
    fn reset(&mut self, ranks: usize) {
        self.nodes.clear();
        self.nodes.push(Node::new(0, ROOT, NONE, NONE));
        self.heads.clear();
        self.heads.resize(ranks, NONE);
        self.support.clear();
        self.support.resize(ranks, 0);
    }

    /// Whether no path was inserted since the last reset.
    fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Insert one path of ascending ranks with a count.
    fn insert(&mut self, path: &[u32], count: u64) {
        let mut at = ROOT;
        for &rank in path {
            let mut child = self.nodes[at as usize].first_child;
            while child != NONE && self.nodes[child as usize].rank != rank {
                child = self.nodes[child as usize].next_sibling;
            }
            if child == NONE {
                child = self.nodes.len() as u32;
                let sibling = self.nodes[at as usize].first_child;
                let link = self.heads[rank as usize];
                self.nodes.push(Node::new(rank, at, sibling, link));
                self.nodes[at as usize].first_child = child;
                self.heads[rank as usize] = child;
            }
            self.nodes[child as usize].count += count;
            at = child;
        }
    }

    /// Rebuild `self` as the conditional tree of `rank` in `tree`: the
    /// prefix paths of `rank`'s nodes, each weighted by its node's count,
    /// restricted to the ranks that reach `min_support` within them.
    /// `path` is a reused scratch buffer.
    fn build_conditional(
        &mut self,
        tree: &FpTree,
        rank: u32,
        min_support: u64,
        path: &mut Vec<u32>,
    ) {
        self.reset(rank as usize);
        // Pass 1: each prefix rank's support in the conditional base.
        let mut node = tree.heads[rank as usize];
        while node != NONE {
            let n = &tree.nodes[node as usize];
            let mut at = n.parent;
            while at != ROOT {
                let p = &tree.nodes[at as usize];
                self.support[p.rank as usize] += n.count;
                at = p.parent;
            }
            node = n.next_link;
        }
        // Pass 2: insert the frequent part of every prefix path.
        let mut node = tree.heads[rank as usize];
        while node != NONE {
            let n = &tree.nodes[node as usize];
            path.clear();
            let mut at = n.parent;
            while at != ROOT {
                let p = &tree.nodes[at as usize];
                if self.support[p.rank as usize] >= min_support {
                    path.push(p.rank);
                }
                at = p.parent;
            }
            if !path.is_empty() {
                path.reverse();
                self.insert(path, n.count);
            }
            node = n.next_link;
        }
    }
}

/// The recursive search's state: rank → item for emitting, the current
/// suffix (as ranks), a reused prefix-path buffer and the output.
struct Search<'a> {
    items: &'a [Item],
    min_support: u64,
    suffix: Vec<u32>,
    path: Vec<u32>,
    out: Vec<ItemSet>,
}

impl Search<'_> {
    /// Mine `trees[0]`: for every frequent rank, emit `suffix ∪ {rank}`,
    /// rebuild `trees[1]` as its conditional tree and descend into it.
    fn mine(&mut self, trees: &mut [FpTree]) {
        let Some((tree, deeper)) = trees.split_first_mut() else {
            return;
        };
        for rank in (0..tree.support.len()).rev() {
            let support = tree.support[rank];
            if support < self.min_support {
                continue;
            }
            self.suffix.push(rank as u32);
            let items = self
                .suffix
                .iter()
                .map(|&r| self.items[r as usize])
                .collect();
            self.out.push(ItemSet::new(items, support));
            if let Some(cond) = deeper.first_mut() {
                cond.build_conditional(tree, rank as u32, self.min_support, &mut self.path);
                if !cond.is_empty() {
                    self.mine(deeper);
                }
            }
            self.suffix.pop();
        }
    }
}

/// Mine all frequent item-sets with FP-growth.
///
/// Output contract matches [`crate::apriori::apriori`] with
/// `maximal_only = false`: every frequent item-set with its exact support,
/// canonically ordered.
///
/// # Panics
///
/// Panics if `min_support` is zero, or if the set holds so many
/// transactions (≈ 477 million) that the tree's `u32` node indices could
/// overflow.
#[must_use]
pub fn fpgrowth(set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
    assert!(min_support >= 1, "minimum support must be at least 1");
    // Every tree holds at most one node per transaction item plus the
    // root (a conditional tree fewer than its parent), and there are no
    // more ranks than nodes — so every `as u32` below is lossless.
    assert!(
        set.len().saturating_mul(MAX_WIDTH) < NONE as usize,
        "FP-growth indexes nodes as u32: {} transactions are too many",
        set.len()
    );

    // Pass 1: global item counts, ranked by descending frequency, ties
    // by encoding for determinism.
    let mut frequent = count_single_items(set, min_support);
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let items: Vec<Item> = frequent.iter().map(|&(item, _)| item).collect();

    // Pass 2: each row's ranks as a path into the tree.
    // A conditional tree per suffix length: at most MAX_WIDTH items.
    let mut trees: Vec<FpTree> = (0..=MAX_WIDTH).map(|_| FpTree::default()).collect();
    let global = &mut trees[0];
    global.reset(frequent.len());
    for (slot, &(_, count)) in global.support.iter_mut().zip(&frequent) {
        *slot = count;
    }
    let mut path: Vec<u32> = Vec::with_capacity(MAX_WIDTH);
    if items.len() <= u64::BITS as usize {
        insert_masks(global, &rank_masks(set, &items), &mut path);
    } else {
        insert_rows(global, set, &items, &mut path);
    }

    let mut search = Search {
        items: &items,
        min_support,
        suffix: Vec::with_capacity(MAX_WIDTH),
        path,
        out: Vec::new(),
    };
    search.mine(&mut trees);
    let mut out = search.out;
    out.sort_unstable();
    out
}

/// Each row's frequent items as a mask of their ranks (`items` holds at
/// most 64): bit `r` is set when the row carries `items[r]`. One pass per
/// frequent item over its feature's column, with no branch per row.
fn rank_masks(set: &TransactionSet, items: &[Item]) -> Vec<u64> {
    let mut masks = vec![0u64; set.len()];
    for (feature, column) in set.columns() {
        for (rank, item) in items.iter().enumerate() {
            if item.feature() != feature {
                continue;
            }
            let (value, bit) = (item.value(), 1u64 << rank);
            for (mask, &v) in masks.iter_mut().zip(column) {
                *mask |= bit & 0u64.wrapping_sub(u64::from(v == value));
            }
        }
    }
    masks
}

/// Insert every non-empty mask's path into `tree`, merging equal masks
/// in a small open-addressing table first so that each distinct path is
/// inserted once per filling of the table, with its count.
fn insert_masks(tree: &mut FpTree, masks: &[u64], path: &mut Vec<u32>) {
    let mut slots = vec![(0u64, 0u64); MERGE_SLOTS];
    let mut taken = 0;
    for &mask in masks.iter().filter(|&&mask| mask != 0) {
        // Fibonacci hashing: the product's top bits pick the slot.
        let mut slot = (mask.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (u64::BITS - MERGE_SLOTS.trailing_zeros())) as usize;
        loop {
            let (held, count) = &mut slots[slot];
            if *held == mask {
                *count += 1;
                break;
            }
            if *held == 0 {
                (*held, *count) = (mask, 1);
                taken += 1;
                break;
            }
            slot = (slot + 1) % MERGE_SLOTS;
        }
        if taken * 2 >= MERGE_SLOTS {
            empty_into(tree, &mut slots, path);
            taken = 0;
        }
    }
    empty_into(tree, &mut slots, path);
}

/// Insert each merged mask of `slots` with its count, and free the slot.
fn empty_into(tree: &mut FpTree, slots: &mut [(u64, u64)], path: &mut Vec<u32>) {
    for (mask, count) in slots.iter_mut().filter(|(mask, _)| *mask != 0) {
        path.clear();
        let mut bits = *mask;
        while bits != 0 {
            path.push(bits.trailing_zeros());
            bits &= bits - 1;
        }
        tree.insert(path, *count);
        (*mask, *count) = (0, 0);
    }
}

/// The general path, for more than 64 frequent items: per row, each
/// column's rank by binary search over that column's frequent values,
/// sorted into the row's path and inserted.
fn insert_rows(tree: &mut FpTree, set: &TransactionSet, items: &[Item], path: &mut Vec<u32>) {
    // Each column with frequent values, and those values' ranks by value.
    type Ranked<'a> = (&'a [u64], Vec<(u64, u32)>);
    let ranked: Vec<Ranked<'_>> = set
        .columns()
        .filter_map(|(feature, column)| {
            let mut ranks: Vec<(u64, u32)> = (items.iter().enumerate())
                .filter(|(_, item)| item.feature() == feature)
                .map(|(rank, item)| (item.value(), rank as u32))
                .collect();
            ranks.sort_unstable();
            (!ranks.is_empty()).then_some((column, ranks))
        })
        .collect();
    for row in 0..set.len() {
        path.clear();
        for (column, ranks) in &ranked {
            if let Ok(at) = ranks.binary_search_by_key(&column[row], |&(value, _)| value) {
                path.push(ranks[at].1);
            }
        }
        if !path.is_empty() {
            path.sort_unstable();
            tree.insert(path, 1);
        }
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
            assert_eq!(
                s.support,
                set.iter().filter(|t| t.contains_all(s.items())).count() as u64,
                "{s}"
            );
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

    #[test]
    fn conditional_trees_drop_locally_infrequent_ranks() {
        // proto=6 is globally frequent but co-occurs with dstPort=80 only
        // once, so dstPort=80's conditional tree must not carry it — and
        // {dstPort=80, proto=6} must not be reported at support 2.
        let mut set = TransactionSet::new();
        for _ in 0..3 {
            set.push(tx(&[(FlowFeature::DstPort, 80), (FlowFeature::Packets, 1)]));
            set.push(tx(&[(FlowFeature::Proto, 6), (FlowFeature::Packets, 1)]));
        }
        set.push(tx(&[(FlowFeature::DstPort, 80), (FlowFeature::Proto, 6)]));
        let out = fpgrowth(&set, 2);
        let rendered: Vec<String> = out.iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            [
                "{dstPort=80} x4",
                "{protocol=6} x4",
                "{#packets=1} x6",
                "{dstPort=80, #packets=1} x3",
                "{protocol=6, #packets=1} x3",
            ]
        );
    }
}
