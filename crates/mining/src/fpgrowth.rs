//! FP-growth: frequent-pattern mining without candidate generation — the
//! production miner.
//!
//! The paper notes (§III-E) that "progressive implementations that use
//! FP-trees … have been shown to outperform standard hash tree
//! implementations" of Apriori. This module provides that faster miner with
//! the exact same output contract as [`crate::apriori`], so the two are
//! interchangeable in the pipeline and comparable in the benchmark.
//!
//! The tree works on **dense ranks**, not items: after the first count,
//! every frequent item gets its position in the descending-frequency order
//! (ties broken by item encoding), each transaction is re-encoded into one
//! reused rank buffer, and the header table and node links are `Vec`s
//! indexed by rank. Conditional trees keep the global ranks (every prefix
//! of rank `r` only holds ranks below `r`), drop the ranks that are
//! infrequent in their conditional base before inserting, and are rebuilt
//! into one recycled arena per recursion depth. Ranks turn back into
//! [`Item`]s only when an item-set is emitted. The arena is `Vec<Node>` +
//! `u32` indices — no `Rc`/`RefCell`, no raw pointers.

use crate::apriori::count_single_items;
use crate::item::{Item, ItemMap};
use crate::itemset::ItemSet;
use crate::par::Exec;
use crate::transaction::{TransactionSet, MAX_WIDTH};

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
/// Panics if `min_support` is zero, or if the set holds so many
/// transactions (≈ 477 million) that the tree's `u32` node indices could
/// overflow.
#[must_use]
pub fn fpgrowth_exec(set: &TransactionSet, min_support: u64, exec: Exec<'_>) -> Vec<ItemSet> {
    assert!(min_support >= 1, "minimum support must be at least 1");
    // Every tree holds at most one node per transaction item plus the
    // root (a conditional tree fewer than its parent), and there are no
    // more ranks than nodes — so every `as u32` below is lossless.
    assert!(
        set.len().saturating_mul(MAX_WIDTH) < NONE as usize,
        "FP-growth indexes nodes as u32: {} transactions are too many",
        set.len()
    );

    // Pass 1: global item counts (parallel over chunks, merged by sum),
    // ranked by descending frequency, ties by encoding for determinism.
    let mut frequent = count_single_items(set, min_support, exec);
    frequent.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rank: ItemMap<u32> = frequent
        .iter()
        .enumerate()
        .map(|(r, &(item, _))| (item, r as u32))
        .collect();

    // Pass 2: re-encode each transaction into ranks and build the tree.
    // A conditional tree per suffix length: at most MAX_WIDTH items.
    let mut trees: Vec<FpTree> = (0..=MAX_WIDTH).map(|_| FpTree::default()).collect();
    let global = &mut trees[0];
    global.reset(frequent.len());
    for (slot, &(_, count)) in global.support.iter_mut().zip(&frequent) {
        *slot = count;
    }
    let mut path: Vec<u32> = Vec::with_capacity(MAX_WIDTH);
    for t in set.transactions() {
        path.clear();
        path.extend(t.items().iter().filter_map(|item| rank.get(item).copied()));
        if !path.is_empty() {
            path.sort_unstable();
            global.insert(&path, 1);
        }
    }

    let items: Vec<Item> = frequent.iter().map(|&(item, _)| item).collect();
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
            let pool = crate::par::WorkerPool::new(NonZeroUsize::new(threads).unwrap());
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
