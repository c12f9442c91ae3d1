//! Top-k item-set mining (paper §V future work, §II-E practice).
//!
//! The paper's §II-E recommends: "select a very low s that will generate a
//! large number of item-sets … rank by frequency … keep only the top
//! item-sets according to the frequency ranking, e.g., the top 10 or top
//! 20". This module automates that loop: it searches for the largest
//! support threshold that still yields at least `k` maximal item-sets, so
//! the operator chooses a *report size* instead of a support value.

use crate::itemset::ItemSet;
use crate::miner::mine;
use crate::transaction::TransactionSet;

/// Result of a top-k mining run.
#[derive(Debug, Clone)]
pub struct TopK {
    /// The top item-sets, ranked by descending support (ties: canonical
    /// order), truncated to `k`.
    pub itemsets: Vec<ItemSet>,
    /// The support threshold that produced the final mining round.
    pub effective_support: u64,
    /// Mining rounds executed (the §II-E "2–3 trials" loop, automated).
    pub rounds: usize,
}

/// Mine the `k` most frequent maximal item-sets.
///
/// Starts from `start_support` (e.g. 1–10 % of the input size, the
/// paper's rule of thumb) and halves it until at least `k` maximal
/// item-sets qualify or the support reaches 1. This mirrors the paper's
/// "start with a high s and progressively decrease it" guidance.
///
/// # Panics
///
/// Panics if `k` is zero or `start_support` is zero.
#[must_use]
pub fn mine_top_k(set: &TransactionSet, k: usize, start_support: u64) -> TopK {
    assert!(k >= 1, "k must be at least 1");
    assert!(start_support >= 1, "starting support must be at least 1");
    let mut support = start_support;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut itemsets = mine(set, support, None).0;
        if itemsets.len() >= k || support == 1 {
            itemsets.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.cmp(b)));
            itemsets.truncate(k);
            return TopK {
                itemsets,
                effective_support: support,
                rounds,
            };
        }
        support = (support / 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;

    fn tx(port: u64, n: usize, set: &mut TransactionSet) {
        for _ in 0..n {
            set.push(
                Transaction::from_items(&[
                    Item::new(FlowFeature::DstPort, port),
                    Item::new(FlowFeature::Proto, 6),
                ])
                .unwrap(),
            );
        }
    }

    fn sample() -> TransactionSet {
        let mut set = TransactionSet::new();
        tx(80, 100, &mut set);
        tx(443, 50, &mut set);
        tx(25, 20, &mut set);
        tx(22, 5, &mut set);
        set
    }

    #[test]
    fn finds_the_top_sets_ranked_by_support() {
        let top = mine_top_k(&sample(), 2, 1000);
        assert_eq!(top.itemsets.len(), 2);
        // {proto=6} (support 175) is NOT maximal once the pairs qualify, so
        // the top sets are the two heaviest (port, proto) pairs.
        assert_eq!(top.itemsets[0].support, 100);
        assert!(top.itemsets[0].to_string().contains("dstPort=80"));
        assert_eq!(top.itemsets[1].support, 50);
        assert!(top.itemsets[1].to_string().contains("dstPort=443"));
    }

    #[test]
    fn halves_support_until_enough_itemsets() {
        let top = mine_top_k(&sample(), 3, 1000);
        assert!(top.rounds > 1, "had to lower the support");
        assert_eq!(top.itemsets.len(), 3);
        // Ranked descending.
        for w in top.itemsets.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn support_floor_returns_what_exists() {
        // Ask for more item-sets than the data can produce.
        let top = mine_top_k(&sample(), 50, 8);
        assert_eq!(top.effective_support, 1);
        assert!(top.itemsets.len() < 50);
        assert!(!top.itemsets.is_empty());
    }

    #[test]
    fn k_one_returns_single_heaviest() {
        let top = mine_top_k(&sample(), 1, 10);
        assert_eq!(top.itemsets.len(), 1);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = mine_top_k(&sample(), 0, 10);
    }
}
