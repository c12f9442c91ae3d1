//! Allocation guard for the detector's per-interval path: once warm,
//! observing an unalarmed interval (`DetectorBank::observe_columns`)
//! allocates only what the returned observation owns — its feature list
//! and each feature's clone list — whatever the interval's size: nothing
//! per flow, per distinct value or per histogram.
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
/// values, shifted by `salt` so consecutive intervals differ. Every
/// 40th flow carries a `#packets` value above the detector's value table.
fn interval(flows: u32, salt: u32) -> FlowColumns {
    let mut cols = FlowColumns::new();
    for i in 0..flows {
        let packets = if i % 40 == 0 { 300 + i } else { 1 + i % 200 };
        let flow = FlowRecord::new(
            u64::from(i),
            Ipv4Addr::from(0x0a00_0000 + i.wrapping_mul(7) + salt),
            Ipv4Addr::from(0xc0a8_0000 + i.wrapping_mul(13) % 50_000),
            (1024 + (i + salt) % 60_000) as u16,
            (1 + i.wrapping_mul(31) % 65_000) as u16,
            Protocol::Tcp,
        )
        .with_volume(packets, 40 * packets);
        cols.push(&flow);
    }
    cols
}

/// Allocations made while observing each of three unalarmed intervals,
/// after a fresh bank has observed six: the first fills the reference
/// histograms, and the threshold is fitted on the third first
/// difference. α is too large for any interval to alarm.
fn allocations_per_quiet_interval(config: &DetectorConfig, flows: u32) -> Vec<u64> {
    let mut bank = DetectorBank::new(config);
    let mut counted = Vec::new();
    for salt in 0..9 {
        let cols = interval(flows, salt);
        let before = ALLOCS.load(Ordering::Relaxed);
        let observation = bank.observe_columns(&cols);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(!observation.alarm, "interval {salt} alarmed");
        if salt >= 6 {
            counted.push(allocs);
        }
    }
    assert!(bank.is_trained());
    counted
}

#[test]
fn a_quiet_interval_allocates_only_its_observation_at_1k_and_64k_flows() {
    let config = DetectorConfig {
        training_intervals: 3,
        alpha: 1e12,
        ..DetectorConfig::default()
    };
    // The observation's feature list, and one clone list per feature.
    let owned = 1 + config.features.len() as u64;
    assert_eq!(owned, 6);
    for flows in [1_000, 64_000] {
        assert_eq!(
            allocations_per_quiet_interval(&config, flows),
            [owned; 3],
            "allocations per interval at {flows} flows"
        );
    }
}
