//! FP-growth on the column layout against Apriori: the same item-sets
//! with the same supports at every support from 1 to the set's size, on
//! sets gathered from flow columns (canonical and with the /16 prefix
//! dimensions), on hand-built sets whose rows miss features, and on sets
//! with more than 64 frequent items, where FP-growth leaves its rank
//! masks for the general path.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! case.

use std::net::Ipv4Addr;

use anomex_mining::apriori::apriori;
use anomex_mining::fpgrowth::fpgrowth;
use anomex_mining::{AprioriConfig, Item, ItemSet, Transaction, TransactionSet};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol};
use proptest::prelude::*;

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

/// FP-growth equals Apriori, item-sets and supports, at every support
/// from 1 to one past the set's size.
fn assert_miners_agree(set: &TransactionSet, case: &str) {
    assert_miners_agree_at(set, 1..=set.len() as u64 + 1, case);
}

/// FP-growth equals Apriori, item-sets and supports, at each of the
/// ascending `supports`. Apriori at the lowest lists every item-set
/// frequent there with its support, so its answer at a higher support
/// is that list cut at the support.
fn assert_miners_agree_at(
    set: &TransactionSet,
    supports: impl IntoIterator<Item = u64>,
    case: &str,
) {
    let key = |sets: &[ItemSet]| -> Vec<(Vec<Item>, u64)> {
        sets.iter()
            .map(|s| (s.items().to_vec(), s.support))
            .collect()
    };
    let mut supports = supports.into_iter().peekable();
    let Some(&lowest) = supports.peek() else {
        return;
    };
    let every = key(&apriori(set, &AprioriConfig::all_frequent(lowest)).itemsets);
    for support in supports {
        let want: Vec<_> = every
            .iter()
            .filter(|(_, s)| *s >= support)
            .cloned()
            .collect();
        assert_eq!(
            key(&fpgrowth(set, support)),
            want,
            "support {support}: {case}"
        );
    }
}

proptest! {
    /// Gathered from flow columns at a row selection — canonical width 7
    /// and width 9 with prefixes — and hand-built with missing features.
    #[test]
    fn per_column_fpgrowth_is_apriori(
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

/// FP-growth equals Apriori when more distinct masks arrive than the
/// merge table keeps, with at most 64 frequent items.
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
