//! Transactions and transaction sets.
//!
//! Each flow record maps to one transaction of width seven — one item per
//! traffic feature (paper §II-B). By construction a transaction never
//! carries two items of the same feature; [`Transaction::from_items`]
//! enforces this for hand-built transactions too.

use std::fmt;
use std::sync::Arc;

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
    /// [`TransactionError::TooWide`] for more than seven items and
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

/// The mining input: a bag of transactions.
///
/// The transactions are stored behind an [`Arc`] so parallel counting
/// passes can hand `'static` jobs to a persistent worker pool without
/// copying the set: each job clones the `Arc` and reads its chunk.
/// Mutation (`push`) uses copy-on-write semantics — it is free while the
/// set is unshared, which is the entire construction phase.
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    transactions: Arc<Vec<Transaction>>,
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
        TransactionSet {
            transactions: Arc::new(flows.iter().map(Transaction::from_flow).collect()),
        }
    }

    /// Map a slice of flows to width-9 extended transactions (with /16
    /// prefix dimensions).
    #[must_use]
    pub fn from_flows_extended(flows: &[FlowRecord]) -> Self {
        TransactionSet {
            transactions: Arc::new(flows.iter().map(Transaction::from_flow_extended).collect()),
        }
    }

    /// Build canonical transactions for the rows of a columnar store
    /// selected by `indices` — the zero-copy pre-filter path: the
    /// pre-filter yields index slices into the interval and transactions
    /// are built straight from them, with no intermediate
    /// `Vec<FlowRecord>`. Items are gathered
    /// **column-wise**: slot `k` of every transaction is filled from
    /// feature `k`'s single column before moving to the next feature, so
    /// the pass reads one contiguous column at a time instead of striding
    /// over whole records. Bit-identical to the record path: the features
    /// are visited in [`FlowFeature::ALL`] order (already item-sorted)
    /// and the raw keys are exactly [`FlowFeature::value_of`]'s.
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

    /// The column-wise gather shared by the columnar constructors:
    /// `features` must be in index order (as `ALL`/`EXTENDED` are), so
    /// every transaction's item array comes out sorted without a sort.
    fn gather_columns(cols: &FlowColumns, indices: &[usize], features: &[FlowFeature]) -> Self {
        let mut transactions = vec![
            Transaction {
                items: [Item::new(FlowFeature::SrcIp, 0); MAX_WIDTH],
                len: features.len() as u8,
            };
            indices.len()
        ];
        for (k, &feat) in features.iter().enumerate() {
            for (t, &i) in transactions.iter_mut().zip(indices) {
                t.items[k] = Item::new(feat, cols.raw_at(feat, i));
            }
        }
        TransactionSet {
            transactions: Arc::new(transactions),
        }
    }

    /// Build from explicit transactions.
    #[must_use]
    pub fn from_transactions(transactions: Vec<Transaction>) -> Self {
        TransactionSet {
            transactions: Arc::new(transactions),
        }
    }

    /// Add one transaction (copy-on-write when the set is shared).
    pub fn push(&mut self, t: Transaction) {
        Arc::make_mut(&mut self.transactions).push(t);
    }

    /// The transactions.
    #[must_use]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// The shared handle to the transactions — what parallel counting
    /// passes clone into `'static` worker-pool jobs.
    #[must_use]
    pub fn shared(&self) -> &Arc<Vec<Transaction>> {
        &self.transactions
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Count the transactions containing the (sorted) itemset — the
    /// reference support definition all miners must agree with.
    #[must_use]
    pub fn support_of(&self, itemset: &[Item]) -> u64 {
        self.transactions
            .iter()
            .filter(|t| t.contains_all(itemset))
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
