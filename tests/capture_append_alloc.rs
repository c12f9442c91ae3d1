//! Allocation guard for the capture reader's append paths
//! (`anomex_netflow::v9::TraceReader::read_into` and `read_columns`):
//! decoding a capture into one reserved `Vec`, or into one reserved
//! wire-width `CaptureColumns` block, allocates no more for 10 000
//! datagrams than for 100 — the reader's refill buffer, and nothing per
//! datagram or per heartbeat.
//!
//! A test binary of its own, with one test, because the counting
//! allocator is process-wide. It counts only the test's own thread, as
//! `capture_reader_alloc.rs` does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use anomex::netflow::v5::V5Exporter;
use anomex::netflow::v9::{
    encode_ipfix_options_template, encode_v9_options_template, Packet, TraceReader,
};
use anomex::netflow::{CaptureColumns, FlowRecord, Protocol};

/// The system allocator plus a count of allocations (fresh or grown)
/// made by threads that set [`COUNTED`].
struct Counting;

// Statistics only: nothing is published through it, so `Relaxed`.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Flows per datagram of the capture: a full v5 datagram.
const FLOWS: usize = 30;

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
        let flows: Vec<FlowRecord> = (0..FLOWS as u16)
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

/// A store a capture's rows are appended to, reserved up front.
trait Rows: Sized {
    fn reserved(rows: usize) -> Self;
    fn read(&mut self, reader: &mut TraceReader<Capture>) -> Option<Packet>;
    fn len(&self) -> usize;
}

impl Rows for Vec<FlowRecord> {
    fn reserved(rows: usize) -> Self {
        Vec::with_capacity(rows)
    }

    fn read(&mut self, reader: &mut TraceReader<Capture>) -> Option<Packet> {
        let packet = reader.read_into(self)?;
        Some(packet.expect("the capture decodes"))
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

impl Rows for CaptureColumns {
    fn reserved(rows: usize) -> Self {
        CaptureColumns::with_capacity(rows)
    }

    fn read(&mut self, reader: &mut TraceReader<Capture>) -> Option<Packet> {
        let packet = reader.read_columns(self)?;
        Some(packet.expect("the capture decodes"))
    }

    fn len(&self) -> usize {
        CaptureColumns::len(self)
    }
}

/// How many allocations reading a capture of `datagrams` datagrams (and
/// twice as many heartbeats) makes, every row appended to one `R`
/// reserved for them all beforehand.
fn allocations_while_appending<R: Rows>(datagrams: usize) -> usize {
    let capture = Capture::new(datagrams);
    let mut rows = R::reserved(datagrams * FLOWS);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut reader = TraceReader::new(capture);
    let (mut headers, mut heartbeats) = (0, 0);
    while let Some(packet) = rows.read(&mut reader) {
        match packet {
            Packet::Flows(header) => {
                assert_eq!(usize::from(header.count), FLOWS);
                headers += 1;
            }
            Packet::Heartbeat(_) => heartbeats += 1,
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!((headers, heartbeats), (datagrams, 2 * datagrams));
    assert_eq!(rows.len(), datagrams * FLOWS);
    allocations
}

/// Both append paths, one after the other: the count is process-wide,
/// so the two cases share one test.
#[test]
fn appending_a_capture_allocates_the_same_at_100_and_10k_datagrams() {
    COUNTED.with(|counted| counted.set(true));
    let small = allocations_while_appending::<Vec<FlowRecord>>(100);
    let large = allocations_while_appending::<Vec<FlowRecord>>(10_000);
    assert_eq!(
        small, large,
        "records: allocations at 100 vs 10 000 datagrams"
    );
    let small = allocations_while_appending::<CaptureColumns>(100);
    let large = allocations_while_appending::<CaptureColumns>(10_000);
    assert_eq!(
        small, large,
        "columns: allocations at 100 vs 10 000 datagrams"
    );
}
