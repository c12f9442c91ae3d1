//! Allocation guard for FP-growth's first pass: mining one frequent
//! pattern out of a background whose every other item is distinct
//! allocates a fixed number of times, whatever the set's size — through
//! [`mine`] and through `apriori`, which derives its rounds from the same
//! run. The
//! counting filter in front of the exact single-item count keeps the
//! distinct background items out of the count's map, so nothing
//! rehashes as they grow.
//!
//! A test binary of its own, with one test, because the counting
//! allocator sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use anomex_mining::apriori::apriori;
use anomex_mining::{mine, AprioriConfig, Item, ItemSet, Transaction, TransactionSet};
use anomex_netflow::FlowFeature;

/// The system allocator plus an allocation counter.
struct Counting;

// Statistics only: nothing is published through it, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `n` seven-item transactions: every second one carries the pattern
/// {dstPort=7000, protocol=6}, and every other item of every
/// transaction is a value no other transaction has.
fn transactions(n: u64) -> TransactionSet {
    let set = (0..n)
        .map(|i| {
            let (port, proto) = if i % 2 == 0 {
                (7000, 6)
            } else {
                (100_000 + i, 1_000 + i)
            };
            let items = [
                Item::new(FlowFeature::SrcIp, i),
                Item::new(FlowFeature::DstIp, i),
                Item::new(FlowFeature::SrcPort, i),
                Item::new(FlowFeature::DstPort, port),
                Item::new(FlowFeature::Proto, proto),
                Item::new(FlowFeature::Packets, i),
                Item::new(FlowFeature::Bytes, i),
            ];
            Transaction::from_items(&items).expect("one item per feature")
        })
        .collect();
    TransactionSet::from_transactions(set)
}

/// A miner of maximal item-sets at a support.
type Miner = fn(&TransactionSet, u64) -> Vec<ItemSet>;

/// Allocations made while `miner` mines the maximal item-sets of `n`
/// transactions at a support of `n / 4`.
fn allocations_to_mine(kind: &str, miner: Miner, n: u64) -> u64 {
    let set = transactions(n);
    let before = ALLOCS.load(Ordering::Relaxed);
    let mined = miner(&set, n / 4);
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    let pattern = [
        Item::new(FlowFeature::DstPort, 7000),
        Item::new(FlowFeature::Proto, 6),
    ];
    assert_eq!(mined.len(), 1, "{kind}: {mined:?}");
    assert_eq!(mined[0].items(), &pattern[..], "{kind}");
    assert_eq!(mined[0].support, n / 2, "{kind}");
    counted
}

#[test]
fn mining_one_pattern_allocates_the_same_at_1k_and_64k_transactions() {
    let miners: [(&str, Miner); 2] = [
        ("apriori", |set, s| {
            apriori(set, &AprioriConfig::maximal(s)).itemsets
        }),
        ("fp-growth", |set, s| mine(set, s, None).0),
    ];
    for (kind, miner) in miners {
        let small = allocations_to_mine(kind, miner, 1_000);
        let large = allocations_to_mine(kind, miner, 64_000);
        assert_eq!(
            small, large,
            "{kind}: allocations at 1 k vs 64 k transactions"
        );
    }
}
