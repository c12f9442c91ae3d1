//! The first pass of Apriori and FP-growth: the items that occur in at
//! least `min_support` transactions, with their counts, counted one
//! feature column at a time ([`TransactionSet`] stores its rows as
//! columns). No item is hashed into a map.
//!
//! Per column, a counting filter: every value adds one to its bucket,
//! picked by a randomly keyed multiplicative hash ([`FilterKey`]), and
//! the bucket also keeps the value of its first row and how many of its
//! rows carry that value — an exact count. A bucket's sum is never below
//! the count of any value in it, so a value can be frequent only in a
//! bucket whose sum reaches `min_support`, and there:
//!
//! - the first value's count is known;
//! - the other values are counted exactly, in a second pass, in a short
//!   list of candidates per bucket — only when the rows that are not the
//!   first value's could reach `min_support` together.
//!
//! A frequent value fills most of its bucket, so it is nearly always its
//! bucket's first value: at the supports extraction mines at, a column is
//! read once. At the low supports of rare mode nearly every bucket needs
//! the second pass, and with a bucket per few rows its lists stay short.
//! Crafted values can at worst fill buckets so that nothing is skipped:
//! without the key they cannot be aimed at one bucket, and no count
//! depends on the hash.

use std::hash::{BuildHasher, RandomState};

use crate::item::Item;
use crate::transaction::{TransactionSet, ABSENT};

/// Most rows per bucket of a column's filter.
const ROWS_PER_BUCKET: u64 = 16;
/// Fewest buckets of a column's filter.
const MIN_BUCKETS: usize = 1 << 6;
/// Most buckets of a column's filter.
const MAX_BUCKETS: usize = 1 << 16;
/// Most candidates room is made for up front (they are at most the rows).
const RESERVED_CANDIDATES: usize = 1 << 12;
/// "No candidate": the end of a bucket's list.
const NONE: u32 = u32::MAX;

/// The filter's hash: a random odd multiplier, drawn per count from the
/// standard library's random keys, whose product's top bits pick the
/// bucket.
#[derive(Debug, Clone, Copy)]
struct FilterKey(u64);

impl FilterKey {
    fn random() -> Self {
        FilterKey(RandomState::new().hash_one(0u64) | 1)
    }

    /// `value`'s bucket among `buckets` (a power of two above one).
    fn bucket(self, value: u64, buckets: usize) -> usize {
        (value.wrapping_mul(self.0) >> (u64::BITS - buckets.trailing_zeros())) as usize
    }
}

/// A value that passed the filter, its exact count so far, and the next
/// candidate of its bucket.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    value: u64,
    count: u64,
    next: u32,
}

/// The items occurring in at least `min_support` transactions of `set`,
/// with their counts, in item order.
#[must_use]
pub(crate) fn count_single_items(set: &TransactionSet, min_support: u64) -> Vec<(Item, u64)> {
    count_filtered(set, min_support, FilterKey::random())
}

/// The number of buckets of the filter over `rows` rows at
/// `min_support`, a power of two: a bucket per 16 rows, or per
/// `min_support / 2` rows when that is fewer, so that a bucket's rows
/// stay well below `min_support` and few buckets pass by chance.
fn buckets_for(rows: usize, min_support: u64) -> usize {
    let per_bucket = (min_support / 2).clamp(1, ROWS_PER_BUCKET);
    usize::try_from(rows as u64 / per_bucket)
        .unwrap_or(MAX_BUCKETS)
        .next_power_of_two()
        .clamp(MIN_BUCKETS, MAX_BUCKETS)
}

/// One bucket of a column's filter: how many rows hash to it, the value
/// of the first of them, and how many rows carry that value.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    sum: u64,
    first: u64,
    same: u64,
}

/// [`count_single_items`] with the filter's key given.
fn count_filtered(set: &TransactionSet, min_support: u64, key: FilterKey) -> Vec<(Item, u64)> {
    let buckets = buckets_for(set.len(), min_support);
    let mut table = vec![Bucket::default(); buckets];
    let mut heads = vec![NONE; buckets];
    let mut candidates: Vec<Candidate> = Vec::with_capacity(set.len().min(RESERVED_CANDIDATES));
    let mut frequent = Vec::new();
    for (feature, column) in set.columns() {
        table.fill(Bucket::default());
        for &value in column {
            let bucket = &mut table[key.bucket(value, buckets)];
            bucket.first = if bucket.sum == 0 { value } else { bucket.first };
            bucket.same += u64::from(value == bucket.first);
            bucket.sum += 1;
        }
        // A passing bucket's first value is counted exactly already; its
        // other rows need the exact count only if they could be frequent.
        let mut recount = false;
        for (bucket, head) in table.iter().zip(&mut heads) {
            if bucket.sum < min_support {
                continue;
            }
            if bucket.same >= min_support && bucket.first != ABSENT {
                frequent.push((Item::new(feature, bucket.first), bucket.same));
            }
            *head = NONE;
            recount |= bucket.sum - bucket.same >= min_support;
        }
        if recount {
            candidates.clear();
            for &value in column {
                let bucket = key.bucket(value, buckets);
                let Bucket { sum, first, same } = table[bucket];
                if sum - same < min_support || value == first || value == ABSENT {
                    continue;
                }
                let mut at = heads[bucket];
                while at != NONE && candidates[at as usize].value != value {
                    at = candidates[at as usize].next;
                }
                if at == NONE {
                    candidates.push(Candidate {
                        value,
                        count: 1,
                        next: heads[bucket],
                    });
                    heads[bucket] = u32::try_from(candidates.len() - 1)
                        .expect("a column's candidates are fewer than 2^32");
                } else {
                    candidates[at as usize].count += 1;
                }
            }
            frequent.extend(
                (candidates.iter())
                    .filter(|c| c.count >= min_support)
                    .map(|c| (Item::new(feature, c.value), c.count)),
            );
        }
    }
    frequent.sort_unstable();
    frequent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use anomex_netflow::FlowFeature;
    use std::collections::BTreeMap;

    /// `cases`, scaled by `PROPTEST_CASES / 256` so a wide sweep widens the
    /// properties that set their own count as it widens the default ones
    /// (256 cases); at least one case.
    fn scaled(cases: u32) -> proptest::ProptestConfig {
        let wide = u64::from(cases) * u64::from(proptest::ProptestConfig::default().cases) / 256;
        proptest::ProptestConfig::with_cases(wide.clamp(1, u64::from(u32::MAX)) as u32)
    }

    proptest::proptest! {
        #![proptest_config(scaled(8))]

        /// The counting filter never changes a count: on sets whose
        /// buckets hold several values, with rows missing a feature, at
        /// support 1, 2 and 5 (nearly every bucket counts its other
        /// values again), the largest bucket sum (only the fullest bucket
        /// passes the filter) and `u64::MAX`, the items returned and
        /// their counts are a brute-force count's.
        #[test]
        fn counting_filter_is_exact(values in proptest::collection::vec(0u64..1 << 32, 8_000..8_500)) {
            let set = TransactionSet::from_transactions(
                values
                    .iter()
                    .map(|&v| {
                        let mut items = vec![
                            Item::new(FlowFeature::SrcIp, v),
                            Item::new(FlowFeature::DstPort, v % 7),
                        ];
                        if v % 3 != 0 {
                            items.push(Item::new(FlowFeature::Proto, 6 + (v % 2) * 11));
                        }
                        Transaction::from_items(&items).unwrap()
                    })
                    .collect(),
            );
            let mut exact: BTreeMap<Item, u64> = BTreeMap::new();
            for t in set.iter() {
                for &item in t.items() {
                    *exact.entry(item).or_default() += 1;
                }
            }
            // The buckets at every support from 32 up.
            let buckets = buckets_for(set.len(), u64::MAX);
            let key = FilterKey::random();
            let mut sums: BTreeMap<(FlowFeature, usize), u64> = BTreeMap::new();
            for (&item, &count) in &exact {
                *sums.entry((item.feature(), key.bucket(item.value(), buckets))).or_default() += count;
            }
            assert!(sums.len() < exact.len(), "{} items in {} buckets", exact.len(), sums.len());
            let largest = *sums.values().max().unwrap();
            for support in [1, 2, 5, largest, u64::MAX] {
                let want: Vec<(Item, u64)> = exact
                    .iter()
                    .filter(|&(_, &count)| count >= support)
                    .map(|(&item, &count)| (item, count))
                    .collect();
                assert_eq!(count_filtered(&set, support, key), want, "support {support}");
            }
        }
    }
}
