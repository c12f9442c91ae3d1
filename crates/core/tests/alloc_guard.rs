//! Allocation pin for an extracted interval: one alarmed
//! `Engine::process` — detect, resolve of the vote with its row marks,
//! the pre-filter's rows, the gather and FP-growth — allocates no more
//! than it did once each feature's vote moved into the meta-data and
//! bin identification sized its lists once (`PARENT_ALLOCS`, counted on
//! the same interval). Of those 285, detection makes 106 (the ~900-bin
//! alarms of srcIP and srcPort size their ranking and their bin and KL
//! lists once per clone), the pre-filter 2, the gather 7, FP-growth
//! 164, and the extraction's copy of the meta-data 6.
//!
//! A test binary of its own, with one test, because the counting
//! allocator sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use anomex_core::{Engine, ExtractionConfig, PrefilterMode};
use anomex_detector::DetectorConfig;
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

/// Allocations of the alarmed interval below, counted once the vote
/// moved into the meta-data and bin identification sized its lists
/// once.
const PARENT_ALLOCS: [(PrefilterMode, u64); 2] = [
    (PrefilterMode::Union, 285),
    (PrefilterMode::Intersection, 285),
];

/// 400 background flows of interval `interval`.
fn background(interval: u64) -> Vec<FlowRecord> {
    (0..400u64)
        .map(|i| {
            FlowRecord::new(
                interval * 60_000 + i,
                Ipv4Addr::from(0x0a00_0000 + ((i * 31 + interval) % 256) as u32),
                Ipv4Addr::from(0xc0a8_0000 + ((i * 17) % 64) as u32),
                (1024 + (i * 7) % 2000) as u16,
                (1 + (i * 13) % 800) as u16,
                Protocol::Tcp,
            )
            .with_volume(1 + (i % 9) as u32, 40 * (1 + (i % 9) as u32))
        })
        .collect()
}

/// The background plus a 3 000-flow DDoS on one victim and port.
fn ddos(interval: u64) -> Vec<FlowRecord> {
    let mut flows = background(interval);
    for i in 0..3000u64 {
        flows.push(
            FlowRecord::new(
                interval * 60_000 + i,
                Ipv4Addr::from(0x3000_0000 + (i % 2500) as u32),
                Ipv4Addr::new(10, 0, 0, 77),
                (1024 + (i % 50_000)) as u16,
                7000,
                Protocol::Udp,
            )
            .with_volume(2, 96),
        );
    }
    flows
}

/// Allocations of the one alarmed `process` after 13 quiet intervals.
fn allocations_of_the_alarm(mode: PrefilterMode) -> u64 {
    let config = ExtractionConfig {
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 1000,
        prefilter: mode,
        ..ExtractionConfig::default()
    };
    let mut engine = Engine::new(config).expect("valid configuration");
    for interval in 0..13 {
        let cols = FlowColumns::from_flows(&background(interval));
        assert!(engine.process(&cols).extraction.is_none());
    }
    let cols = FlowColumns::from_flows(&ddos(13));
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = engine.process(&cols);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let extraction = outcome.extraction.expect("the DDoS is extracted");
    assert!(extraction.suspicious_flows > 0, "{mode:?}");
    allocs
}

#[test]
fn an_alarmed_interval_allocates_no_more_than_before() {
    let counted: Vec<(PrefilterMode, u64, u64)> = PARENT_ALLOCS
        .iter()
        .map(|&(mode, parent)| (mode, allocations_of_the_alarm(mode), parent))
        .collect();
    println!("{counted:?}");
    for (mode, allocs, parent) in counted {
        assert!(
            allocs <= parent,
            "{mode:?}: {allocs} allocations, {parent} before"
        );
    }
}
