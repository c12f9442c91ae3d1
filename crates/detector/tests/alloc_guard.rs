//! Allocation guard for the detector's per-interval path: counting a
//! quiet interval into every clone's histogram
//! (`BankHasher::partial_columns`) and scoring it
//! (`DetectorBank::observe_partial`) allocates a fixed number of times,
//! whatever the interval's size — nothing per flow and nothing per
//! distinct value.
//!
//! A test binary of its own, with one test, because the counting
//! allocator sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use anomex_detector::{DetectorBank, DetectorConfig};
use anomex_netflow::{FlowColumns, FlowRecord, Protocol};

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

/// One interval of `flows` flows whose every feature takes many distinct
/// values, shifted by `salt` so consecutive intervals differ.
fn interval(flows: u32, salt: u32) -> FlowColumns {
    let mut cols = FlowColumns::new();
    for i in 0..flows {
        let flow = FlowRecord::new(
            u64::from(i),
            Ipv4Addr::from(0x0a00_0000 + i.wrapping_mul(7) + salt),
            Ipv4Addr::from(0xc0a8_0000 + i.wrapping_mul(13) % 50_000),
            (1024 + (i + salt) % 60_000) as u16,
            (1 + i.wrapping_mul(31) % 65_000) as u16,
            Protocol::Tcp,
        )
        .with_volume(1 + i % 200, 40 * (1 + i % 200));
        cols.push(&flow);
    }
    cols
}

/// Allocations made while counting and scoring the fourth interval of a
/// fresh bank, which is still training (so nothing alarms).
fn allocations_per_quiet_interval(flows: u32) -> u64 {
    let mut bank = DetectorBank::new(&DetectorConfig::default());
    let hasher = bank.hasher();
    let mut counted = 0;
    for salt in 0..4 {
        let cols = interval(flows, salt);
        let before = ALLOCS.load(Ordering::Relaxed);
        let partial = hasher.partial_columns(&cols, 0..cols.len());
        let observation = bank.observe_partial(partial);
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(!observation.alarm, "a training interval alarmed");
    }
    counted
}

#[test]
fn a_quiet_interval_allocates_the_same_at_1k_and_64k_flows() {
    let small = allocations_per_quiet_interval(1_000);
    let large = allocations_per_quiet_interval(64_000);
    assert_eq!(small, large, "allocations at 1 k vs 64 k flows");
}
