//! Struct-of-arrays flow storage: one contiguous column per feature.
//!
//! The extraction hot loops (histogram building, pre-filtering,
//! transaction construction) each touch one or two fields of every flow
//! in an interval. Stored as an array of [`FlowRecord`] structs, every
//! such scan strides over all ten fields and wastes cache bandwidth on
//! the nine it ignores. [`FlowColumns`] stores what the engine reads of
//! the same flows (the seven fields it histograms and mines: 21 bytes a
//! flow) as seven contiguous columns, so a per-feature scan reads
//! exactly the bytes it needs, in order. A flow's times and TCP flags
//! are not kept: its start time only places it in its window.
//!
//! It is the one columnar layout. The interval assemblers
//! ([`crate::IntervalAssembler`], [`crate::MergeAssembler`]) append each
//! arriving flow to the open window's columns, and the engine scans the
//! closed window as it is; a capture block
//! ([`CaptureColumns`](crate::CaptureColumns)) is the wire's start-time
//! column beside one. Around that:
//!
//! - [`FlowColumns::from_flows`] / [`FlowColumns::push`] transpose
//!   records, and [`FlowColumns::extend_from_rows`] copies a row range
//!   of another store (a block's run into a window, a lane's window into
//!   a merged interval);
//! - [`FlowColumns::to_flows`] reassembles records for checkpoints,
//!   every row starting when its window begins, ending when it starts,
//!   and with no TCP flags, so it lands in the same window if pushed
//!   again;
//! - [`FlowColumns::for_each_raw`] is the one hot-path accessor (the
//!   detector's histogram build and resolve scan through it): it matches
//!   the feature **once**, then runs a tight loop over the single
//!   column, yielding exactly the `u64` keys [`FlowFeature::value_of`]
//!   would produce — bit-identical by construction;
//!   [`FlowColumns::for_each_raw_at`] is
//!   its gather over a row selection (the mining transactions).

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::feature::FlowFeature;
use crate::flow::{FlowRecord, Protocol};
use crate::v5::{be_u16, be_u32, field, RecordSink, V5_RECORD_LEN};

/// A batch of flows stored column-major: one contiguous `Vec` per field
/// the engine reads.
///
/// All seven columns always have identical length ([`FlowColumns::len`]).
/// The protocol column stores the IANA protocol number
/// ([`Protocol::number`]), which round-trips losslessly through
/// [`Protocol::from_number`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowColumns {
    src_ip: Vec<u32>,
    dst_ip: Vec<u32>,
    src_port: Vec<u16>,
    dst_port: Vec<u16>,
    proto: Vec<u8>,
    packets: Vec<u32>,
    bytes: Vec<u32>,
}

impl FlowColumns {
    /// An empty column store.
    #[must_use]
    pub fn new() -> Self {
        FlowColumns::default()
    }

    /// An empty column store with every column pre-allocated for
    /// `capacity` rows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlowColumns {
            src_ip: Vec::with_capacity(capacity),
            dst_ip: Vec::with_capacity(capacity),
            src_port: Vec::with_capacity(capacity),
            dst_port: Vec::with_capacity(capacity),
            proto: Vec::with_capacity(capacity),
            packets: Vec::with_capacity(capacity),
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Convert a record batch to columns.
    #[must_use]
    pub fn from_flows(flows: &[FlowRecord]) -> Self {
        let mut cols = FlowColumns::with_capacity(flows.len());
        flows.iter().for_each(|flow| cols.push(flow));
        cols
    }

    /// Append one flow as a new row across every column.
    pub fn push(&mut self, flow: &FlowRecord) {
        self.src_ip.push(u32::from(flow.src_ip));
        self.dst_ip.push(u32::from(flow.dst_ip));
        self.src_port.push(flow.src_port);
        self.dst_port.push(flow.dst_port);
        self.proto.push(flow.proto.number());
        self.packets.push(flow.packets);
        self.bytes.push(flow.bytes);
    }

    /// Append rows `rows` of `other`, in order: one slice copy per
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is out of bounds for `other`.
    pub fn extend_from_rows(&mut self, other: &FlowColumns, rows: Range<usize>) {
        self.src_ip.extend_from_slice(&other.src_ip[rows.clone()]);
        self.dst_ip.extend_from_slice(&other.dst_ip[rows.clone()]);
        self.src_port
            .extend_from_slice(&other.src_port[rows.clone()]);
        self.dst_port
            .extend_from_slice(&other.dst_port[rows.clone()]);
        self.proto.extend_from_slice(&other.proto[rows.clone()]);
        self.packets.extend_from_slice(&other.packets[rows.clone()]);
        self.bytes.extend_from_slice(&other.bytes[rows]);
    }

    /// Number of rows (flows) stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.src_ip.len()
    }

    /// Whether the store holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.src_ip.is_empty()
    }

    /// Drop all rows, keeping every column's allocation for reuse.
    pub fn clear(&mut self) {
        self.src_ip.clear();
        self.dst_ip.clear();
        self.src_port.clear();
        self.dst_port.clear();
        self.proto.clear();
        self.packets.clear();
        self.bytes.clear();
    }

    /// Reassemble every row as a [`FlowRecord`] that starts at
    /// `start_ms` (its window's begin), ends when it starts and has no
    /// TCP flags: [`FlowRecord::new`]'s defaults.
    #[must_use]
    pub fn to_flows(&self, start_ms: u64) -> Vec<FlowRecord> {
        (0..self.len())
            .map(|i| {
                FlowRecord::new(
                    start_ms,
                    Ipv4Addr::from(self.src_ip[i]),
                    Ipv4Addr::from(self.dst_ip[i]),
                    self.src_port[i],
                    self.dst_port[i],
                    Protocol::from_number(self.proto[i]),
                )
                .with_volume(self.packets[i], self.bytes[i])
            })
            .collect()
    }

    /// The hot-path single-column scan: call `f` with `feature`'s uniform
    /// `u64` key for every row in `range`, in row order.
    ///
    /// The feature is matched **once**; the loop body reads one
    /// contiguous column. The keys are bit-identical to
    /// [`FlowFeature::value_of`] over the reassembled records.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn for_each_raw<F: FnMut(u64)>(&self, feature: FlowFeature, range: Range<usize>, mut f: F) {
        match feature {
            FlowFeature::SrcIp => self.src_ip[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::DstIp => self.dst_ip[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::SrcPort => self.src_port[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::DstPort => self.dst_port[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::Proto => self.proto[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::Packets => self.packets[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::Bytes => self.bytes[range].iter().for_each(|&v| f(u64::from(v))),
            FlowFeature::SrcNet16 => self.src_ip[range]
                .iter()
                .for_each(|&v| f(u64::from(v >> 16))),
            FlowFeature::DstNet16 => self.dst_ip[range]
                .iter()
                .for_each(|&v| f(u64::from(v >> 16))),
        }
    }

    /// [`for_each_raw`](Self::for_each_raw) over the rows `rows`, in
    /// the order given: the gather of a row selection, one column at a
    /// time, with the feature matched once.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of bounds.
    pub fn for_each_raw_at<F: FnMut(u64)>(&self, feature: FlowFeature, rows: &[usize], mut f: F) {
        fn gather<T: Copy>(column: &[T], rows: &[usize], mut f: impl FnMut(T)) {
            rows.iter().for_each(|&i| f(column[i]));
        }
        match feature {
            FlowFeature::SrcIp => gather(&self.src_ip, rows, |v| f(u64::from(v))),
            FlowFeature::DstIp => gather(&self.dst_ip, rows, |v| f(u64::from(v))),
            FlowFeature::SrcPort => gather(&self.src_port, rows, |v| f(u64::from(v))),
            FlowFeature::DstPort => gather(&self.dst_port, rows, |v| f(u64::from(v))),
            FlowFeature::Proto => gather(&self.proto, rows, |v| f(u64::from(v))),
            FlowFeature::Packets => gather(&self.packets, rows, |v| f(u64::from(v))),
            FlowFeature::Bytes => gather(&self.bytes, rows, |v| f(u64::from(v))),
            FlowFeature::SrcNet16 => gather(&self.src_ip, rows, |v| f(u64::from(v >> 16))),
            FlowFeature::DstNet16 => gather(&self.dst_ip, rows, |v| f(u64::from(v >> 16))),
        }
    }

    /// Heap bytes held by the column allocations.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.src_ip.capacity() * 4
            + self.dst_ip.capacity() * 4
            + self.src_port.capacity() * 2
            + self.dst_port.capacity() * 2
            + self.proto.capacity()
            + self.packets.capacity() * 4
            + self.bytes.capacity() * 4
    }
}

impl RecordSink for FlowColumns {
    /// One pass per column over the datagram's record bytes, which stay
    /// in cache between passes; each `extend` sizes its column once.
    fn append_records(&mut self, records: &[u8]) {
        let recs = || records.chunks_exact(V5_RECORD_LEN);
        self.src_ip.extend(recs().map(|r| be_u32(r, field::SRC_IP)));
        self.dst_ip.extend(recs().map(|r| be_u32(r, field::DST_IP)));
        self.src_port
            .extend(recs().map(|r| be_u16(r, field::SRC_PORT)));
        self.dst_port
            .extend(recs().map(|r| be_u16(r, field::DST_PORT)));
        self.proto.extend(recs().map(|r| r[field::PROTO]));
        self.packets
            .extend(recs().map(|r| be_u32(r, field::PACKETS)));
        self.bytes.extend(recs().map(|r| be_u32(r, field::BYTES)));
    }
}

/// A run of flows an interval assembler takes at once: a record slice or
/// a [`CaptureRun`](crate::CaptureRun) of a capture block. It gives what
/// the assembler's one run loop reads: a row's start time, to place the
/// row in its window, and rows appended to the window's columns.
pub trait FlowRun {
    /// Number of flows in the run.
    fn flow_count(&self) -> usize;

    /// Row `i`'s start time, ms.
    fn start_ms_at(&self, i: usize) -> u64;

    /// Append rows `rows` of the run to `out`, one column at a time.
    fn append_rows(&self, rows: Range<usize>, out: &mut FlowColumns);
}

impl FlowRun for [FlowRecord] {
    fn flow_count(&self) -> usize {
        self.len()
    }

    fn start_ms_at(&self, i: usize) -> u64 {
        self[i].start_ms
    }

    fn append_rows(&self, rows: Range<usize>, out: &mut FlowColumns) {
        self[rows].iter().for_each(|flow| out.push(flow));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureColumns;
    use crate::flow::TcpFlags;

    fn sample_flows() -> Vec<FlowRecord> {
        (0..100u32)
            .map(|i| {
                FlowRecord::new(
                    u64::from(i) * 10,
                    Ipv4Addr::from(0x0a00_0000 + i),
                    Ipv4Addr::from(0xc0a8_0000 + i * 7),
                    (1024 + i) as u16,
                    (80 + i % 3) as u16,
                    Protocol::from_number((i % 200) as u8),
                )
                .with_volume(i + 1, (i + 1) * 40)
                .with_end(u64::from(i) * 10 + 5)
                .with_flags(TcpFlags((i % 64) as u8))
            })
            .collect()
    }

    #[test]
    fn round_trip_keeps_every_field_the_columns_hold() {
        let flows = sample_flows();
        let cols = FlowColumns::from_flows(&flows);
        assert_eq!(cols.len(), flows.len());
        assert!(!cols.is_empty());
        let widened = cols.to_flows(7);
        for (row, flow) in widened.iter().zip(&flows) {
            let expected = FlowRecord {
                start_ms: 7,
                end_ms: 7,
                tcp_flags: TcpFlags::default(),
                ..*flow
            };
            assert_eq!(*row, expected);
        }
        assert_eq!(widened.len(), flows.len());
        assert_eq!(
            FlowColumns::from_flows(&widened),
            cols,
            "times and flags are dropped"
        );
    }

    /// The two layouts: a window's row is the seven engine columns, 21
    /// bytes; a capture block's adds the wire's `u32` start time, 25.
    #[test]
    fn a_row_takes_21_bytes_in_a_window_and_25_in_a_block() {
        let cols = FlowColumns::with_capacity(1_000);
        assert_eq!(cols.memory_bytes(), 21 * 1_000);
        let block = CaptureColumns::with_capacity(1_000);
        let block_bytes = block.first.capacity() * 4 + block.flows.memory_bytes();
        assert_eq!(block_bytes, 25 * 1_000);
    }

    #[test]
    fn raw_keys_match_value_of_for_every_feature() {
        let flows = sample_flows();
        let cols = FlowColumns::from_flows(&flows);
        for feature in FlowFeature::EXTENDED {
            let mut scanned = Vec::new();
            cols.for_each_raw(feature, 0..cols.len(), |v| scanned.push(v));
            let expected: Vec<u64> = flows.iter().map(|f| feature.value_of(f).raw).collect();
            assert_eq!(scanned, expected, "{feature} column scan");
            // A gather reads the rows in the order given, repeats included.
            let rows: Vec<usize> = (0..flows.len()).rev().step_by(3).chain([0, 0]).collect();
            let mut gathered = Vec::new();
            cols.for_each_raw_at(feature, &rows, |v| gathered.push(v));
            let expected: Vec<u64> = rows.iter().map(|&i| expected[i]).collect();
            assert_eq!(gathered, expected, "{feature} gather");
        }
    }

    #[test]
    fn for_each_raw_respects_subranges() {
        let flows = sample_flows();
        let cols = FlowColumns::from_flows(&flows);
        let mut scanned = Vec::new();
        cols.for_each_raw(FlowFeature::DstPort, 10..20, |v| scanned.push(v));
        let expected: Vec<u64> = flows[10..20]
            .iter()
            .map(|f| FlowFeature::DstPort.value_of(f).raw)
            .collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn clear_keeps_capacity_and_row_ranges_concatenate() {
        let flows = sample_flows();
        let mut cols = FlowColumns::from_flows(&flows);
        let cap = cols.memory_bytes();
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.memory_bytes(), cap, "clear keeps allocations");
        let all = FlowColumns::from_flows(&flows);
        cols.extend_from_rows(&all, 0..40);
        cols.extend_from_rows(&all, 40..40);
        cols.extend_from_rows(&all, 40..flows.len());
        assert_eq!(cols, all);
        let mut middle = FlowColumns::new();
        middle.extend_from_rows(&all, 17..41);
        assert_eq!(middle, FlowColumns::from_flows(&flows[17..41]));
    }
}
