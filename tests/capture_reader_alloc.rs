//! Memory guard for the capture reader (`anomex_netflow::v9::TraceReader`):
//! reading a capture packet by packet and dropping each item keeps the
//! same peak of live heap whatever the capture's length — the reader
//! holds its refill buffer and one packet, never the capture.
//!
//! A test binary of its own, with one test, because the counting
//! allocator is process-wide. It counts only the test's own thread:
//! the harness's main thread allocates while it waits for the test,
//! and those bytes used to land in one measurement or the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicIsize, Ordering};

use anomex::netflow::v5::V5Exporter;
use anomex::netflow::v9::{
    encode_ipfix_options_template, encode_v9_options_template, TraceItem, TraceReader,
};
use anomex::netflow::{FlowRecord, Protocol};

/// The system allocator plus a live-bytes gauge and its high-water mark,
/// both moved only by threads that set [`COUNTED`].
struct Counting;

// Statistics only: nothing is published through them, so `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread's allocations move the gauges. Set by the
    /// test thread before it allocates anything it later frees.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

fn grow(bytes: usize) {
    if counted() {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if counted() {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the gauges touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A capture of `repeats` copies of one unit — a full v5 datagram, a v9
/// keepalive and an IPFIX keepalive — produced as it is read, so the
/// capture itself never sits on the heap.
struct Capture {
    unit: Vec<u8>,
    at: usize,
    left: usize,
}

impl Capture {
    fn new(repeats: usize) -> Self {
        let flows: Vec<FlowRecord> = (0..30u16)
            .map(|i| {
                let ip = Ipv4Addr::new(10, 0, 0, i as u8);
                FlowRecord::new(u64::from(i), ip, ip, i, 80, Protocol::Tcp)
            })
            .collect();
        let mut unit = V5Exporter::new().export(&flows)[0].to_vec();
        unit.extend_from_slice(&encode_v9_options_template(60, 1, 0));
        unit.extend_from_slice(&encode_ipfix_options_template(60, 2, 0));
        Capture {
            unit,
            at: 0,
            left: repeats,
        }
    }
}

impl Read for Capture {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut n = 0;
        while n < buf.len() && self.left > 0 {
            let take = (buf.len() - n).min(self.unit.len() - self.at);
            buf[n..n + take].copy_from_slice(&self.unit[self.at..self.at + take]);
            (n, self.at) = (n + take, self.at + take);
            if self.at == self.unit.len() {
                (self.at, self.left) = (0, self.left - 1);
            }
        }
        Ok(n)
    }
}

/// The peak of live heap, above what was live before, while reading a
/// capture of `repeats` datagrams (and twice as many heartbeats) and
/// dropping every item.
fn peak_while_reading(repeats: usize) -> usize {
    let capture = Capture::new(repeats);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut datagrams = 0;
    for item in TraceReader::new(capture) {
        if let TraceItem::Flows(datagram) = item.expect("the capture decodes") {
            assert_eq!(datagram.flows.len(), 30);
            datagrams += 1;
        }
    }
    assert_eq!(datagrams, repeats);
    (PEAK.load(Ordering::Relaxed) - before) as usize
}

#[test]
fn reading_a_capture_peaks_the_same_at_1k_and_64k_datagrams() {
    COUNTED.with(|counted| counted.set(true));
    let small = peak_while_reading(1_000);
    let large = peak_while_reading(64_000);
    assert_eq!(small, large, "peak live heap at 1 k vs 64 k datagrams");
}
