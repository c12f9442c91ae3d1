//! Transactions and transaction sets.
//!
//! Each flow record maps to one transaction of width seven — one item per
//! traffic feature (paper §II-B). By construction a transaction never
//! carries two items of the same feature; [`Transaction::from_items`]
//! enforces this for hand-built transactions too.
//!
//! So a set of transactions is a table with one column per feature, and
//! [`TransactionSet`] stores it that way: one column of values per
//! feature, with a marker for a row that carries no item of it. The
//! miners count and rank per column ([`crate::fpgrowth`]); a
//! [`Transaction`] is a row, built on demand ([`TransactionSet::iter`]).

use std::fmt;

use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

use crate::item::Item;

/// Maximum transaction width: the seven canonical flow features plus the
/// two /16 prefix dimensions of the extended (multilevel) mode.
pub const MAX_WIDTH: usize = 9;

/// Width of the paper's canonical transaction (§II-B).
pub const CANONICAL_WIDTH: usize = 7;

/// Error building a transaction from explicit items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionError {
    /// Two items share the same feature (e.g., two destination ports).
    DuplicateFeature(FlowFeature),
    /// More than [`MAX_WIDTH`] items supplied.
    TooWide(usize),
}

impl fmt::Display for TransactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionError::DuplicateFeature(feat) => {
                write!(f, "transaction has two items of feature {feat}")
            }
            TransactionError::TooWide(n) => {
                write!(
                    f,
                    "transaction has {n} items; the maximum width is {MAX_WIDTH}"
                )
            }
        }
    }
}

impl std::error::Error for TransactionError {}

/// A fixed-capacity, sorted set of items — one row of the mining input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transaction {
    items: [Item; MAX_WIDTH],
    len: u8,
}

impl Transaction {
    /// Build the canonical width-7 transaction of a flow record:
    /// srcIP, dstIP, srcPort, dstPort, protocol, #packets, #bytes.
    #[must_use]
    pub fn from_flow(flow: &FlowRecord) -> Self {
        let mut items = [Item::new(FlowFeature::SrcIp, 0); MAX_WIDTH];
        for (slot, feat) in items.iter_mut().zip(FlowFeature::ALL) {
            let v = feat.value_of(flow);
            *slot = Item::new(feat, v.raw);
        }
        // FlowFeature::ALL is in index order and Item orders feature-major,
        // so the array is already sorted.
        Transaction {
            items,
            len: CANONICAL_WIDTH as u8,
        }
    }

    /// Build the width-9 *extended* transaction including the source and
    /// destination /16 prefixes — the paper's §III-D multilevel mining
    /// dimension for anomalies spread across network ranges.
    #[must_use]
    pub fn from_flow_extended(flow: &FlowRecord) -> Self {
        let mut items = [Item::new(FlowFeature::SrcIp, 0); MAX_WIDTH];
        for (slot, feat) in items.iter_mut().zip(FlowFeature::EXTENDED) {
            let v = feat.value_of(flow);
            *slot = Item::new(feat, v.raw);
        }
        Transaction {
            items,
            len: MAX_WIDTH as u8,
        }
    }

    /// Build a transaction from explicit items (sorted internally).
    ///
    /// # Errors
    ///
    /// [`TransactionError::TooWide`] for more than [`MAX_WIDTH`] items and
    /// [`TransactionError::DuplicateFeature`] if two items share a feature.
    pub fn from_items(src: &[Item]) -> Result<Self, TransactionError> {
        if src.len() > MAX_WIDTH {
            return Err(TransactionError::TooWide(src.len()));
        }
        let mut items = [Item::new(FlowFeature::SrcIp, 0); MAX_WIDTH];
        items[..src.len()].copy_from_slice(src);
        let slice = &mut items[..src.len()];
        slice.sort_unstable();
        for pair in slice.windows(2) {
            if pair[0].feature() == pair[1].feature() {
                return Err(TransactionError::DuplicateFeature(pair[0].feature()));
            }
        }
        Ok(Transaction {
            items,
            len: src.len() as u8,
        })
    }

    /// The items, sorted ascending.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items[..usize::from(self.len)]
    }

    /// Transaction width (number of items).
    #[must_use]
    pub fn width(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether this transaction contains the given item.
    #[must_use]
    pub fn contains(&self, item: Item) -> bool {
        self.items().binary_search(&item).is_ok()
    }

    /// Whether this transaction contains every item of `itemset`
    /// (`itemset` must be sorted ascending — as all itemsets in this crate
    /// are).
    #[must_use]
    pub fn contains_all(&self, itemset: &[Item]) -> bool {
        // Both sides sorted: single merge pass.
        let mine = self.items();
        let mut i = 0;
        for &want in itemset {
            while i < mine.len() && mine[i] < want {
                i += 1;
            }
            if i == mine.len() || mine[i] != want {
                return false;
            }
            i += 1;
        }
        true
    }
}

/// A row's value in a column of a feature it carries no item of. Never
/// a value: item values fit in 56 bits.
pub(crate) const ABSENT: u64 = u64::MAX;

// One column per feature.
const _: () = assert!(FlowFeature::EXTENDED.len() == MAX_WIDTH);

/// The mining input: a bag of transactions, stored as one column per
/// feature.
///
/// Column `f` holds, per row, the value of the row's item of the feature
/// with index `f` ([`FlowFeature::index`]), or a marker when the row has
/// none; a feature no row has an item of keeps no column. Rows come out as
/// [`Transaction`]s through [`iter`](Self::iter) and
/// [`transactions`](Self::transactions).
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    columns: [Vec<u64>; MAX_WIDTH],
    /// Bit `f` is set when column `f` is kept (one value per row).
    kept: u16,
    len: usize,
    /// The widest row's width.
    width: usize,
}

impl TransactionSet {
    /// New, empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a slice of flows to their canonical transactions.
    #[must_use]
    pub fn from_flows(flows: &[FlowRecord]) -> Self {
        Self::from_records(flows, &FlowFeature::ALL)
    }

    /// Map a slice of flows to width-9 extended transactions (with /16
    /// prefix dimensions).
    #[must_use]
    pub fn from_flows_extended(flows: &[FlowRecord]) -> Self {
        Self::from_records(flows, &FlowFeature::EXTENDED)
    }

    /// The record constructors' body: one column per feature.
    fn from_records(flows: &[FlowRecord], features: &[FlowFeature]) -> Self {
        let mut set = TransactionSet {
            len: flows.len(),
            width: if flows.is_empty() { 0 } else { features.len() },
            ..TransactionSet::default()
        };
        for &feature in features {
            set.columns[feature.index()] = flows.iter().map(|f| feature.value_of(f).raw).collect();
            set.kept |= 1 << feature.index();
        }
        set
    }

    /// Build canonical transactions for the rows of a columnar store
    /// selected by `indices` — the zero-copy pre-filter path: the
    /// pre-filter yields index slices into the interval and transactions
    /// are gathered straight from them, one pass per feature column over
    /// the index list, with no intermediate `Vec<FlowRecord>`. The
    /// values are exactly [`FlowFeature::value_of`]'s, so the rows are
    /// those of the record path.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds for `cols`.
    #[must_use]
    pub fn from_columns_at(cols: &FlowColumns, indices: &[usize]) -> Self {
        Self::gather_columns(cols, indices, &FlowFeature::ALL)
    }

    /// [`from_columns_at`](Self::from_columns_at) for width-9 extended
    /// transactions (with /16 prefix dimensions).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds for `cols`.
    #[must_use]
    pub fn from_columns_extended_at(cols: &FlowColumns, indices: &[usize]) -> Self {
        Self::gather_columns(cols, indices, &FlowFeature::EXTENDED)
    }

    /// The gather shared by the columnar constructors: one pass per
    /// feature over `indices`.
    fn gather_columns(cols: &FlowColumns, indices: &[usize], features: &[FlowFeature]) -> Self {
        let mut set = TransactionSet {
            len: indices.len(),
            width: if indices.is_empty() {
                0
            } else {
                features.len()
            },
            ..TransactionSet::default()
        };
        for &feature in features {
            let column = &mut set.columns[feature.index()];
            column.reserve_exact(indices.len());
            cols.for_each_raw_at(feature, indices, |value| column.push(value));
            set.kept |= 1 << feature.index();
        }
        set
    }

    /// Build from explicit transactions.
    #[must_use]
    pub fn from_transactions(transactions: Vec<Transaction>) -> Self {
        let mut set = TransactionSet::new();
        for t in transactions {
            set.push(t);
        }
        set
    }

    /// Add one transaction.
    pub fn push(&mut self, t: Transaction) {
        let mut values = [ABSENT; MAX_WIDTH];
        for item in t.items() {
            values[item.feature().index()] = item.value();
        }
        for (index, (column, value)) in self.columns.iter_mut().zip(values).enumerate() {
            if value != ABSENT && self.kept & 1 << index == 0 {
                column.resize(self.len, ABSENT);
                self.kept |= 1 << index;
            }
            if self.kept & 1 << index != 0 {
                column.push(value);
            }
        }
        self.len += 1;
        self.width = self.width.max(t.width());
    }

    /// Row `row` as a transaction.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.len()`.
    #[must_use]
    pub fn get(&self, row: usize) -> Transaction {
        assert!(row < self.len, "row {row} of {} transactions", self.len);
        let mut items = [Item::new(FlowFeature::SrcIp, 0); MAX_WIDTH];
        let mut len = 0;
        // Columns are in feature order and items order feature-major, so
        // the items come out sorted.
        for (feature, column) in self.columns() {
            if column[row] != ABSENT {
                items[len] = Item::new(feature, column[row]);
                len += 1;
            }
        }
        Transaction {
            items,
            len: len as u8,
        }
    }

    /// The rows as transactions, in order.
    pub fn iter(&self) -> impl Iterator<Item = Transaction> + '_ {
        (0..self.len).map(|row| self.get(row))
    }

    /// Every row as a transaction, in order.
    #[must_use]
    pub fn transactions(&self) -> Vec<Transaction> {
        self.iter().collect()
    }

    /// The features some row has an item of, each with its column: one
    /// value per row, [`ABSENT`] where the row has none.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (FlowFeature, &[u64])> + '_ {
        (self.columns.iter().enumerate())
            .filter(|&(index, _)| self.kept & 1 << index != 0)
            .map(|(index, column)| (FlowFeature::from_index(index), &column[..]))
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The widest transaction's width (0 for an empty set).
    #[must_use]
    pub fn max_width(&self) -> usize {
        self.width
    }

    /// Count the transactions containing the (sorted) itemset — the
    /// reference support definition all miners must agree with.
    #[must_use]
    pub fn support_of(&self, itemset: &[Item]) -> u64 {
        let wanted: Option<Vec<(&[u64], u64)>> = (itemset.iter())
            .map(|item| {
                let index = item.feature().index();
                (self.kept & 1 << index != 0).then_some((&self.columns[index][..], item.value()))
            })
            .collect();
        let Some(wanted) = wanted else {
            return 0;
        };
        (0..self.len)
            .filter(|&row| wanted.iter().all(|&(column, value)| column[row] == value))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn flow() -> FlowRecord {
        FlowRecord::new(
            0,
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(10, 4, 5, 6),
            4444,
            80,
            Protocol::Tcp,
        )
        .with_volume(5, 200)
    }

    #[test]
    fn flow_transaction_has_width_seven() {
        let t = Transaction::from_flow(&flow());
        assert_eq!(t.width(), CANONICAL_WIDTH);
        let feats: Vec<_> = t.items().iter().map(|i| i.feature()).collect();
        assert_eq!(feats, FlowFeature::ALL.to_vec());
    }

    #[test]
    fn extended_transaction_adds_prefix_items() {
        let f = flow();
        let t = Transaction::from_flow_extended(&f);
        assert_eq!(t.width(), MAX_WIDTH);
        let feats: Vec<_> = t.items().iter().map(|i| i.feature()).collect();
        assert_eq!(feats, FlowFeature::EXTENDED.to_vec());
        // The prefix items carry the high 16 bits of the addresses.
        assert!(t.contains(Item::new(
            FlowFeature::SrcNet16,
            u64::from(u32::from(f.src_ip) >> 16)
        )));
        // Extended ⊃ canonical.
        let canonical = Transaction::from_flow(&f);
        assert!(t.contains_all(canonical.items()));
    }

    #[test]
    fn flow_transaction_is_sorted() {
        let t = Transaction::from_flow(&flow());
        let mut sorted = t.items().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted.as_slice(), t.items());
    }

    #[test]
    fn contains_finds_each_item() {
        let f = flow();
        let t = Transaction::from_flow(&f);
        assert!(t.contains(Item::new(FlowFeature::DstPort, 80)));
        assert!(t.contains(Item::new(FlowFeature::Packets, 5)));
        assert!(!t.contains(Item::new(FlowFeature::DstPort, 443)));
    }

    #[test]
    fn contains_all_merge_logic() {
        let t = Transaction::from_flow(&flow());
        let sub = vec![
            Item::new(FlowFeature::DstPort, 80),
            Item::new(FlowFeature::Bytes, 200),
        ];
        assert!(t.contains_all(&sub));
        let not_sub = vec![
            Item::new(FlowFeature::DstPort, 80),
            Item::new(FlowFeature::Bytes, 999),
        ];
        assert!(!t.contains_all(&not_sub));
        assert!(t.contains_all(&[]), "empty itemset is contained everywhere");
    }

    #[test]
    fn from_items_rejects_duplicate_feature() {
        let items = vec![
            Item::new(FlowFeature::DstPort, 80),
            Item::new(FlowFeature::DstPort, 443),
        ];
        assert_eq!(
            Transaction::from_items(&items).unwrap_err(),
            TransactionError::DuplicateFeature(FlowFeature::DstPort)
        );
    }

    #[test]
    fn from_items_rejects_too_wide() {
        let items: Vec<_> = (0..10).map(|i| Item::new(FlowFeature::Bytes, i)).collect();
        assert_eq!(
            Transaction::from_items(&items).unwrap_err(),
            TransactionError::TooWide(10)
        );
    }

    #[test]
    fn from_items_sorts() {
        let items = vec![
            Item::new(FlowFeature::Bytes, 1),
            Item::new(FlowFeature::SrcIp, 9),
        ];
        let t = Transaction::from_items(&items).unwrap();
        assert_eq!(t.items()[0].feature(), FlowFeature::SrcIp);
        assert_eq!(t.width(), 2);
    }

    #[test]
    fn columnar_gather_matches_record_construction() {
        let flows: Vec<FlowRecord> = (0..60u32)
            .map(|i| {
                FlowRecord::new(
                    u64::from(i),
                    Ipv4Addr::from(0x0a01_0000 + i * 3),
                    Ipv4Addr::from(0xc0a8_0000 + i),
                    (4000 + i) as u16,
                    (i % 7) as u16,
                    Protocol::from_number((i % 30) as u8),
                )
                .with_volume(i + 1, (i + 1) * 40)
            })
            .collect();
        let cols = FlowColumns::from_flows(&flows);
        let indices: Vec<usize> = (0..60).filter(|i| i % 4 != 1).collect();
        let selected: Vec<FlowRecord> = indices.iter().map(|&i| flows[i]).collect();
        assert_eq!(
            TransactionSet::from_columns_at(&cols, &indices).transactions(),
            TransactionSet::from_flows(&selected).transactions()
        );
        assert_eq!(
            TransactionSet::from_columns_extended_at(&cols, &indices).transactions(),
            TransactionSet::from_flows_extended(&selected).transactions()
        );
        assert!(TransactionSet::from_columns_at(&cols, &[]).is_empty());
    }

    #[test]
    fn support_of_counts_matching_transactions() {
        let mut set = TransactionSet::new();
        for port in [80u64, 80, 443] {
            let t = Transaction::from_items(&[
                Item::new(FlowFeature::DstPort, port),
                Item::new(FlowFeature::Proto, 6),
            ])
            .unwrap();
            set.push(t);
        }
        assert_eq!(set.support_of(&[Item::new(FlowFeature::DstPort, 80)]), 2);
        assert_eq!(set.support_of(&[Item::new(FlowFeature::Proto, 6)]), 3);
        let both = vec![
            Item::new(FlowFeature::DstPort, 80),
            Item::new(FlowFeature::Proto, 6),
        ];
        // note: both must be in sorted order — DstPort(idx 3) < Proto(idx 4)
        assert_eq!(set.support_of(&both), 2);
    }

    #[test]
    fn transaction_error_display() {
        assert!(TransactionError::TooWide(9).to_string().contains('9'));
        assert!(TransactionError::DuplicateFeature(FlowFeature::DstPort)
            .to_string()
            .contains("dstPort"));
    }
}
