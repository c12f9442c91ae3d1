//! Property-based tests: FP-growth, the miner every extraction runs,
//! returns Apriori's item-sets and supports, and its output satisfies the
//! textbook invariants.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use anomex_mining::apriori::apriori;
use anomex_mining::fpgrowth::fpgrowth;
use anomex_mining::{
    filter_maximal, filter_maximal_general, AprioriConfig, Item, ItemSet, Transaction,
    TransactionSet,
};
use anomex_netflow::{FlowFeature, FlowRecord, Protocol};
use proptest::prelude::*;

/// A random transaction: 1–7 items, at most one per feature, values from a
/// small alphabet so that itemsets actually repeat.
fn arb_transaction() -> impl Strategy<Value = Transaction> {
    proptest::collection::btree_map(0usize..7, 0u64..4, 1..=7).prop_map(|m| {
        let items: Vec<Item> = m
            .into_iter()
            .map(|(f, v)| Item::new(FlowFeature::from_index(f), v))
            .collect();
        Transaction::from_items(&items).expect("btree_map keys are distinct features")
    })
}

fn arb_set(max: usize) -> impl Strategy<Value = TransactionSet> {
    proptest::collection::vec(arb_transaction(), 0..max).prop_map(TransactionSet::from_transactions)
}

/// A flow over small address/port alphabets, so the width-9 prefix
/// transactions repeat and their /16 items correlate with the addresses.
fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (0u32..3, 0u32..3, 0u32..3, 0u16..3, 1u32..3).prop_map(|(src, dst, host, port, packets)| {
        FlowRecord::new(
            0,
            Ipv4Addr::from(0x0a00_0000 + (src << 16) + host),
            Ipv4Addr::from(0xc0a8_0000 + (dst << 16) + host),
            1024 + port,
            80 + port % 2,
            Protocol::Tcp,
        )
        .with_volume(packets, packets * 40)
    })
}

/// Every item of the `t`-th transaction re-valued to `t` and each
/// transaction repeated `rep` times: all items tie at count `rep` across
/// features (ranks differ only by encoding), and at `rep = 1` every item
/// is infrequent for any support above 1.
fn tied(set: &TransactionSet, rep: usize) -> TransactionSet {
    let mut out = Vec::new();
    for (t, tx) in set.transactions().iter().enumerate() {
        let items: Vec<Item> = tx
            .items()
            .iter()
            .map(|i| Item::new(i.feature(), t as u64))
            .collect();
        let tx = Transaction::from_items(&items).unwrap();
        out.extend(std::iter::repeat(tx).take(rep));
    }
    TransactionSet::from_transactions(out)
}

/// Prefixes (in item order) of the first transaction, one per input
/// transaction: item order is frequency order, so the FP-tree is one path.
fn single_path(set: &TransactionSet) -> TransactionSet {
    let all = set.transactions();
    let Some(full) = all.first() else {
        return TransactionSet::new();
    };
    let prefixes = all.iter().map(|tx| {
        let len = tx.width().min(full.width());
        Transaction::from_items(&full.items()[..len]).unwrap()
    });
    TransactionSet::from_transactions(prefixes.collect())
}

/// The whole set repeated `rep` times, so every transaction has duplicates.
fn duplicated(set: &TransactionSet, rep: usize) -> TransactionSet {
    let all = set.transactions();
    TransactionSet::from_transactions(all.iter().cycle().take(all.len() * rep).copied().collect())
}

/// Plain random sets plus the shapes a dense-rank FP-tree re-encoding can
/// get wrong: frequency ties across features, single-path trees, every
/// item infrequent, duplicate transactions and width-9 prefix
/// transactions.
fn arb_edge_set(max: usize) -> impl Strategy<Value = TransactionSet> {
    (
        0usize..6,
        arb_set(max),
        2usize..5,
        proptest::collection::vec(arb_flow(), 0..max),
    )
        .prop_map(|(shape, set, rep, flows)| match shape {
            0 => set,
            1 => tied(&set, rep),
            2 => single_path(&set),
            3 => duplicated(&set, rep),
            4 => TransactionSet::from_flows_extended(&flows),
            _ => tied(&set, 1),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FP-growth and Apriori produce identical item-sets *and* identical
    /// supports on arbitrary inputs — edge shapes included, and nothing at
    /// all once the support exceeds the set size.
    #[test]
    fn miners_agree(set in arb_edge_set(60), min_support in 1u64..8, above in any::<bool>()) {
        let min_support = if above { set.len() as u64 + min_support } else { min_support };
        let a = all_frequent_apriori(&set, min_support);
        let f = fpgrowth(&set, min_support);
        prop_assert_eq!(&a, &f);
        for (x, y) in a.iter().zip(&f) {
            prop_assert_eq!(x.support, y.support);
        }
        if above {
            prop_assert!(f.is_empty(), "support {} > {} transactions", min_support, set.len());
        }
    }

    /// Every reported support equals the reference (brute-force) support,
    /// and every reported item-set meets the threshold.
    #[test]
    fn supports_are_exact(set in arb_edge_set(40), min_support in 1u64..6) {
        for s in fpgrowth(&set, min_support) {
            prop_assert!(s.support >= min_support);
            prop_assert_eq!(s.support, set.support_of(s.items()));
        }
    }

    /// Downward closure: every non-empty subset of a frequent item-set is
    /// itself in the output.
    #[test]
    fn downward_closure(set in arb_set(40), min_support in 1u64..6) {
        let all = fpgrowth(&set, min_support);
        for s in &all {
            if s.len() < 2 { continue; }
            for skip in 0..s.len() {
                let mut sub: Vec<Item> = s.items().to_vec();
                sub.remove(skip);
                prop_assert!(
                    all.iter().any(|t| t.items() == sub.as_slice()),
                    "subset of {} missing from output", s
                );
            }
        }
    }

    /// Completeness: FP-growth finds *every* frequent item-set. Verified
    /// by brute force over the item alphabet on small inputs.
    #[test]
    fn completeness_small(set in arb_set(12), min_support in 1u64..4) {
        let mined = fpgrowth(&set, min_support);
        // Brute force: every subset of every transaction is a candidate.
        use std::collections::HashSet;
        let mut candidates: HashSet<Vec<Item>> = HashSet::new();
        for t in set.transactions() {
            let items = t.items();
            for mask in 1u32..(1 << items.len()) {
                let subset: Vec<Item> = items
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &it)| it)
                    .collect();
                candidates.insert(subset);
            }
        }
        let expected: HashSet<Vec<Item>> = candidates
            .into_iter()
            .filter(|c| set.support_of(c) >= min_support)
            .collect();
        let got: HashSet<Vec<Item>> = mined.iter().map(|s| s.items().to_vec()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Maximality: no maximal item-set is a subset of another, and the fast
    /// one-level filter agrees with the general quadratic oracle.
    #[test]
    fn maximal_invariants(set in arb_set(40), min_support in 1u64..6) {
        let all = fpgrowth(&set, min_support);
        let maximal = filter_maximal(all.clone());
        for (i, a) in maximal.iter().enumerate() {
            for (j, b) in maximal.iter().enumerate() {
                if i != j {
                    prop_assert!(!(a.len() < b.len() && a.is_subset_of(b)),
                        "{} is a subset of {}", a, b);
                }
            }
        }
        prop_assert_eq!(maximal, filter_maximal_general(&all));
    }

    /// Monotonicity in the support threshold: raising s never adds
    /// item-sets.
    #[test]
    fn support_monotonicity(set in arb_set(40), s_lo in 1u64..4) {
        let s_hi = s_lo + 2;
        let lo = fpgrowth(&set, s_lo);
        let hi = fpgrowth(&set, s_hi);
        for s in &hi {
            prop_assert!(lo.contains(s), "{} found at high support but not low", s);
        }
    }
}

/// A miner of all frequent item-sets at a support.
type Miner = fn(&TransactionSet, u64) -> Vec<ItemSet>;

/// Apriori's frequent item-sets at `min_support`: the reference FP-growth
/// is held to.
fn all_frequent_apriori(set: &TransactionSet, min_support: u64) -> Vec<ItemSet> {
    apriori(set, &AprioriConfig::all_frequent(min_support)).itemsets
}

/// Every item-set of `set` with its support, by enumerating each
/// transaction's subsets.
fn brute_force_supports(set: &TransactionSet) -> BTreeMap<Vec<Item>, u64> {
    let mut supports = BTreeMap::new();
    for t in set.transactions() {
        let items = t.items();
        for mask in 1u32..(1 << items.len()) {
            let subset: Vec<Item> = (0..items.len())
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect();
            *supports.entry(subset).or_insert(0) += 1;
        }
    }
    supports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The miners' first pass puts a counting filter of hashed buckets in
    /// front of each column's exact count. On sets with thousands of
    /// distinct items, so buckets collide, Apriori and FP-growth still
    /// report exactly the brute-force item-sets and supports — at support
    /// 1, 2, the largest item count and `u64::MAX`.
    #[test]
    fn counting_filter_loses_no_itemset(values in proptest::collection::vec(0u32..9_000, 7_000..7_500)) {
        let transactions = values
            .iter()
            .map(|&v| {
                let items = [
                    Item::new(FlowFeature::SrcIp, u64::from(v)),
                    Item::new(FlowFeature::DstPort, u64::from(v % 7)),
                    Item::new(FlowFeature::Proto, if v % 3 == 0 { 17 } else { 6 }),
                ];
                Transaction::from_items(&items).unwrap()
            })
            .collect();
        let set = TransactionSet::from_transactions(transactions);
        let supports = brute_force_supports(&set);
        let distinct = supports.keys().filter(|items| items.len() == 1).count();
        prop_assert!(distinct > 4_096, "only {} distinct items", distinct);
        let largest_item = supports
            .iter()
            .filter(|(items, _)| items.len() == 1)
            .map(|(_, &count)| count)
            .max()
            .unwrap();
        for min_support in [1, 2, largest_item, u64::MAX] {
            let want: Vec<(Vec<Item>, u64)> = supports
                .iter()
                .filter(|&(_, &count)| count >= min_support)
                .map(|(items, &count)| (items.clone(), count))
                .collect();
            let miners: [(&str, Miner); 2] =
                [("apriori", all_frequent_apriori), ("fp-growth", fpgrowth)];
            for (name, miner) in miners {
                let mut got: Vec<(Vec<Item>, u64)> = miner(&set, min_support)
                    .into_iter()
                    .map(|s| (s.items().to_vec(), s.support))
                    .collect();
                got.sort_unstable();
                prop_assert!(got == want, "{} at support {}", name, min_support);
            }
        }
    }
}
