//! FP-growth, the miner every extraction runs, held to the paper's
//! reference (`tests/reference`): its item-sets and supports are the
//! naive level-wise Apriori's, on random sets, on sets gathered from flow
//! columns (canonical and with the /16 prefix dimensions), on hand-built
//! sets whose rows miss features, and on sets with more than 64 frequent
//! items, where FP-growth leaves its rank masks for the general path.
//! Apriori's rounds, which `anomex_mining::apriori` derives from
//! FP-growth's item-sets, are the reference's rounds. FP-growth's output
//! also satisfies the textbook invariants.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! case.

mod reference;

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use anomex::mining::apriori::apriori;
use anomex::mining::fpgrowth::fpgrowth;
use anomex::mining::{
    filter_maximal, mine, AprioriConfig, Item, ItemSet, Transaction, TransactionSet,
};
use anomex::netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol};
use proptest::prelude::*;

/// `item` as the reference writes it.
fn paper_item(item: &Item) -> reference::Item {
    (item.feature(), item.value())
}

/// The reference's transactions for `set`'s rows.
fn paper_rows(set: &TransactionSet) -> Vec<Vec<reference::Item>> {
    set.iter()
        .map(|t| t.items().iter().map(paper_item).collect())
        .collect()
}

/// Mined item-sets keyed as the reference keys them, with their
/// supports.
fn paper_sets(sets: &[ItemSet]) -> reference::ItemSets {
    (sets.iter())
        .map(|s| (s.items().iter().map(paper_item).collect(), s.support))
        .collect()
}

/// The maximal item-sets of any collection, downward-closed or not, by
/// quadratic pairwise subset checks: the oracle for [`filter_maximal`],
/// which looks only one level up.
fn filter_maximal_general(sets: &[ItemSet]) -> Vec<ItemSet> {
    let mut out: Vec<ItemSet> = Vec::new();
    for (i, s) in sets.iter().enumerate() {
        let dominated = (sets.iter().enumerate())
            .any(|(j, t)| j != i && s.len() < t.len() && s.is_subset_of(t));
        if !dominated && !out.contains(s) {
            out.push(s.clone());
        }
    }
    out.sort_unstable();
    out
}

/// {a} ⊂ {a,b,c} with the middle level missing: looking one level up
/// would keep {a}; the oracle must not.
#[test]
fn the_oracle_filters_a_collection_that_is_not_closed() {
    let item = |f, v| Item::new(f, v);
    let a = ItemSet::new(vec![item(FlowFeature::DstPort, 80)], 10);
    let abc = ItemSet::new(
        vec![
            item(FlowFeature::DstPort, 80),
            item(FlowFeature::Proto, 6),
            item(FlowFeature::Packets, 2),
        ],
        5,
    );
    assert_eq!(filter_maximal_general(&[a, abc.clone()]), vec![abc]);
}

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

/// How many transactions of `set` contain every item of `items`,
/// counted one transaction at a time.
fn brute_support(set: &TransactionSet, items: &[Item]) -> u64 {
    set.iter().filter(|t| t.contains_all(items)).count() as u64
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
            4 => {
                let rows: Vec<usize> = (0..flows.len()).collect();
                TransactionSet::from_columns_extended_at(&FlowColumns::from_flows(&flows), &rows)
            }
            _ => tied(&set, 1),
        })
}

/// `cases`, scaled by `PROPTEST_CASES / 256` so a wide sweep widens the
/// properties that set their own count as it widens the default ones
/// (256 cases); at least one case.
fn scaled(cases: u32) -> ProptestConfig {
    let wide = u64::from(cases) * u64::from(ProptestConfig::default().cases) / 256;
    ProptestConfig::with_cases(wide.clamp(1, u64::from(u32::MAX)) as u32)
}

proptest! {
    #![proptest_config(scaled(64))]

    /// FP-growth and the reference's Apriori produce identical item-sets
    /// *and* identical supports on arbitrary inputs — edge shapes
    /// included, and nothing at all once the support exceeds the set
    /// size.
    #[test]
    fn miners_agree(set in arb_edge_set(60), min_support in 1u64..8, above in any::<bool>()) {
        let min_support = if above { set.len() as u64 + min_support } else { min_support };
        let f = fpgrowth(&set, min_support);
        prop_assert_eq!(
            paper_sets(&f),
            reference::frequent_itemsets(&paper_rows(&set), min_support)
        );
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
            prop_assert_eq!(s.support, brute_support(&set, s.items()));
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
            .filter(|c| brute_support(&set, c) >= min_support)
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

/// Every item-set of `set` with its support, by enumerating each
/// transaction's subsets: the definition of support, where the
/// reference's Apriori, which scans every transaction per candidate,
/// would take ~10⁹ steps on sets of thousands of distinct items.
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
    #![proptest_config(scaled(2))]

    /// FP-growth's first pass puts a counting filter of hashed buckets in
    /// front of each column's exact count. On sets with thousands of
    /// distinct items, so buckets collide, it still reports exactly the
    /// brute-force item-sets and supports — at support 1, 2, the largest
    /// item count and `u64::MAX`.
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
            let mut got: Vec<(Vec<Item>, u64)> = fpgrowth(&set, min_support)
                .into_iter()
                .map(|s| (s.items().to_vec(), s.support))
                .collect();
            got.sort_unstable();
            prop_assert!(got == want, "support {}", min_support);
        }
    }
}

/// Flows over small alphabets, so that items repeat and the prefix items
/// follow the addresses.
fn flows(draws: &[(u32, u32, u16, u32)]) -> Vec<FlowRecord> {
    draws
        .iter()
        .map(|&(src, dst, port, packets)| {
            FlowRecord::new(
                0,
                Ipv4Addr::from(0x0a00_0000 + ((src % 3) << 16) + src % 5),
                Ipv4Addr::from(0xc0a8_0000 + ((dst % 2) << 16) + dst % 3),
                1024 + port % 4,
                80 + port % 3,
                Protocol::from_number(if packets % 4 == 0 { 17 } else { 6 }),
            )
            .with_volume(1 + packets % 3, 40 * (1 + packets % 5))
        })
        .collect()
}

/// Rows of the first `width` of the nine features, each value one of
/// `alphabet`; every third row misses one of them.
fn hand_built(draws: &[(u32, u32, u16, u32)], width: usize, alphabet: u64) -> TransactionSet {
    let rows = draws.iter().enumerate().map(|(row, &(a, b, c, d))| {
        let seed = u64::from(a) * 31 + u64::from(b) * 7 + u64::from(c) * 3 + u64::from(d);
        let items: Vec<Item> = (0..width)
            .filter(|&f| row % 3 != 0 || f != row % width)
            .map(|f| {
                let value = (seed >> (f * 3)).wrapping_add(row as u64 * f as u64) % alphabet;
                Item::new(FlowFeature::from_index(f), value)
            })
            .collect();
        Transaction::from_items(&items).expect("one item per feature")
    });
    TransactionSet::from_transactions(rows.collect())
}

/// FP-growth equals the reference's Apriori, item-sets and supports, at
/// every support from 1 to one past the set's size.
fn assert_miners_agree(set: &TransactionSet, case: &str) {
    assert_miners_agree_at(set, 1..=set.len() as u64 + 1, case);
}

/// FP-growth equals the reference's Apriori, item-sets and supports, at
/// each of the ascending `supports`. The reference at the lowest lists
/// every item-set frequent there with its support, so its answer at a
/// higher support is that list cut at the support.
fn assert_miners_agree_at(
    set: &TransactionSet,
    supports: impl IntoIterator<Item = u64>,
    case: &str,
) {
    let mut supports = supports.into_iter().peekable();
    let Some(&lowest) = supports.peek() else {
        return;
    };
    let mut want = reference::frequent_itemsets(&paper_rows(set), lowest);
    for support in supports {
        want.retain(|_, s| *s >= support);
        assert_eq!(
            paper_sets(&fpgrowth(set, support)),
            want,
            "support {support}: {case}"
        );
    }
}

proptest! {
    /// Gathered from flow columns at a row selection — canonical width 7
    /// and width 9 with prefixes — and hand-built with missing features.
    #[test]
    fn per_column_fpgrowth_is_the_reference(
        draws in proptest::collection::vec((0u32..64, 0u32..64, 0u16..64, 0u32..64), 0..16),
        keep in proptest::collection::vec(any::<bool>(), 16),
        width in 1usize..=9,
    ) {
        let flows = flows(&draws);
        let cols = FlowColumns::from_flows(&flows);
        let rows: Vec<usize> = (0..flows.len()).filter(|&i| keep[i]).collect();
        let canonical = TransactionSet::from_columns_at(&cols, &rows);
        prop_assert_eq!(canonical.max_width(), if rows.is_empty() { 0 } else { 7 });
        assert_miners_agree(&canonical, &format!("canonical {draws:?} rows {rows:?}"));
        let prefixes = TransactionSet::from_columns_extended_at(&cols, &rows);
        prop_assert_eq!(prefixes.max_width(), if rows.is_empty() { 0 } else { 9 });
        assert_miners_agree(&prefixes, &format!("prefixes {draws:?} rows {rows:?}"));
        let hand = hand_built(&draws, width, 3);
        assert_miners_agree(&hand, &format!("hand-built width {width} {draws:?}"));
    }
}

proptest! {
    /// More than 64 frequent items: five features of 20 values each, so
    /// support 1 ranks past a 64-bit mask.
    #[test]
    fn more_than_64_frequent_items(
        draws in proptest::collection::vec((0u32..1000, 0u32..1000, 0u16..1000, 0u32..1000), 30..40),
    ) {
        let set = hand_built(&draws, 5, 20);
        let distinct: std::collections::BTreeSet<Item> =
            set.iter().flat_map(|t| t.items().to_vec()).collect();
        prop_assert!(distinct.len() > 64, "{} distinct items", distinct.len());
        assert_miners_agree(&set, &format!("wide {draws:?}"));
    }
}

/// Rows of all nine features over seven values each, skewed towards the
/// low values so that larger item-sets are frequent too: 63 items, all
/// frequent at the supports below, and more distinct rows — so rank
/// masks — than FP-growth's mask-merge table holds before it empties
/// itself into the tree part-way through the rows.
fn many_masks(seed: u64, rows: usize) -> TransactionSet {
    // SplitMix64: the set follows from its seed alone.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Cumulative shares, in percent, of the values 0..7.
    const SHARES: [u64; 7] = [40, 60, 75, 85, 92, 97, 100];
    let set = (0..rows).map(|_| {
        let items: Vec<Item> = (0..9)
            .map(|f| {
                let draw = next() % 100;
                let value = SHARES.iter().position(|&s| draw < s).expect("below 100");
                Item::new(FlowFeature::from_index(f), value as u64)
            })
            .collect();
        Transaction::from_items(&items).expect("one item per feature")
    });
    TransactionSet::from_transactions(set.collect())
}

/// FP-growth equals the reference's Apriori when more distinct masks
/// arrive than the merge table keeps, with at most 64 frequent items.
#[test]
fn mask_merge_table_empties_mid_stream() {
    for seed in [1, 2, 3] {
        let set = many_masks(seed, 3000);
        let distinct: std::collections::BTreeSet<Vec<Item>> =
            set.iter().map(|t| t.items().to_vec()).collect();
        assert!(distinct.len() > 512, "{} distinct rows", distinct.len());
        let singles = fpgrowth(&set, 50).iter().filter(|s| s.len() == 1).count();
        assert_eq!(singles, 63, "seed {seed}: every item frequent");
        assert_miners_agree_at(&set, [50, 120, 400], &format!("many masks, seed {seed}"));
    }
}

/// Four {dstPort=80, protocol=6, #packets=2}, three {dstPort=80,
/// protocol=17} and one {#packets=2}: item-sets of every length up to
/// three.
fn sample() -> TransactionSet {
    let tx = |items: &[(FlowFeature, u64)]| {
        let items: Vec<Item> = items.iter().map(|&(f, v)| Item::new(f, v)).collect();
        Transaction::from_items(&items).unwrap()
    };
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
fn fpgrowth_is_the_reference_on_a_sample() {
    let set = sample();
    for support in 1..=5 {
        assert_eq!(
            paper_sets(&fpgrowth(&set, support)),
            reference::frequent_itemsets(&paper_rows(&set), support),
            "support {support}"
        );
    }
}

#[test]
fn mine_keeps_the_reference_maximal_item_sets() {
    let set = sample();
    for support in 1..=6 {
        let (itemsets, rules) = mine(&set, support, None);
        let frequent = reference::frequent_itemsets(&paper_rows(&set), support);
        assert_eq!(
            paper_sets(&itemsets),
            reference::maximal(&frequent),
            "support {support}"
        );
        assert!(rules.is_none());
    }
}

/// `apriori`'s item-sets, rounds and passes on `set` are the reference
/// Apriori's, a pass counted for each round that counts: the first, and
/// every one with candidates.
fn assert_rounds(set: &TransactionSet, min_support: u64, maximal_only: bool, case: &str) {
    let out = apriori(
        set,
        &AprioriConfig {
            min_support,
            maximal_only,
        },
    );
    let (sets, rounds) = reference::apriori(&paper_rows(set), min_support, maximal_only);
    let levels: Vec<_> = (out.levels.iter())
        .map(|l| (l.level, l.candidates, l.frequent, l.maximal))
        .collect();
    let want: Vec<_> = (rounds.iter())
        .map(|r| (r.level, r.candidates, r.frequent, r.maximal))
        .collect();
    assert_eq!(levels, want, "rounds at support {min_support}: {case}");
    let passes = (rounds.iter())
        .filter(|r| r.level == 1 || r.candidates > 0)
        .count();
    assert_eq!(
        out.passes, passes,
        "passes at support {min_support}: {case}"
    );
    assert_eq!(
        paper_sets(&out.itemsets),
        sets,
        "support {min_support}: {case}"
    );
}

proptest! {
    #![proptest_config(scaled(64))]

    /// Apriori's rounds, derived from FP-growth's item-sets, are the
    /// reference's rounds on random and edge-shaped sets and on flows
    /// gathered at canonical width 7 and prefix width 9, at supports down
    /// to 1, with and without the maximal filter.
    #[test]
    fn apriori_rounds_are_the_reference_rounds(
        set in arb_edge_set(40),
        flows in proptest::collection::vec(arb_flow(), 0..24),
        min_support in 1u64..6,
        maximal_only in any::<bool>(),
    ) {
        let cols = FlowColumns::from_flows(&flows);
        let rows: Vec<usize> = (0..flows.len()).collect();
        let shapes = [
            ("edge-shaped", set),
            ("canonical", TransactionSet::from_columns_at(&cols, &rows)),
            ("prefixes", TransactionSet::from_columns_extended_at(&cols, &rows)),
        ];
        for (shape, set) in &shapes {
            assert_rounds(set, min_support, maximal_only, &format!("{shape} {flows:?}"));
        }
    }
}
