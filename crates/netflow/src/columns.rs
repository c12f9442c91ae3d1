//! Struct-of-arrays flow storage: one contiguous column per feature.
//!
//! The extraction hot loops (histogram building, pre-filtering,
//! transaction construction) each touch one or two fields of every flow
//! in an interval. Stored as an array of [`FlowRecord`] structs, every
//! such scan strides over all ten fields and wastes cache bandwidth on
//! the nine it ignores. [`FlowColumns`] stores what the engine reads of
//! the same flows (the start time and the seven fields it histograms
//! and mines: 29 bytes a flow) as eight contiguous columns, so a
//! per-feature scan reads exactly the bytes it needs, in order. A
//! record's end time and TCP flags are not kept.
//!
//! It is the one interval layout of the live path: the interval
//! assemblers ([`crate::IntervalAssembler`], [`crate::MergeAssembler`])
//! push each arriving flow into the open window's columns, and the
//! engine scans the closed window as it is. Around that:
//!
//! - [`FlowColumns::from_flows`] converts a record batch;
//! - [`FlowColumns::get`] / [`FlowColumns::iter`] /
//!   [`FlowColumns::to_flows`] reassemble records on demand (checkpoints
//!   still write rows as records), each ending when it starts and with
//!   no TCP flags;
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

/// A batch of flows stored column-major: one contiguous `Vec` per field
/// the engine reads.
///
/// All eight columns always have identical length ([`FlowColumns::len`]);
/// row `i` across them is the [`FlowRecord`] returned by
/// [`FlowColumns::get`], with [`FlowRecord::new`]'s defaults for the two
/// fields a column store does not hold: `end_ms` is `start_ms` and
/// `tcp_flags` is empty. The protocol column stores the IANA protocol
/// number ([`Protocol::number`]), which round-trips losslessly through
/// [`Protocol::from_number`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowColumns {
    pub(crate) start_ms: Vec<u64>,
    pub(crate) src_ip: Vec<u32>,
    pub(crate) dst_ip: Vec<u32>,
    pub(crate) src_port: Vec<u16>,
    pub(crate) dst_port: Vec<u16>,
    pub(crate) proto: Vec<u8>,
    pub(crate) packets: Vec<u32>,
    pub(crate) bytes: Vec<u32>,
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
            start_ms: Vec::with_capacity(capacity),
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
        let mut cols = FlowColumns::new();
        cols.extend_from_flows(flows);
        cols
    }

    /// Append `flows` as new rows, filling one column at a time — a
    /// batch's transpose; [`push`](Self::push) appends a single flow.
    pub fn extend_from_flows(&mut self, flows: &[FlowRecord]) {
        self.start_ms.extend(flows.iter().map(|f| f.start_ms));
        self.src_ip
            .extend(flows.iter().map(|f| u32::from(f.src_ip)));
        self.dst_ip
            .extend(flows.iter().map(|f| u32::from(f.dst_ip)));
        self.src_port.extend(flows.iter().map(|f| f.src_port));
        self.dst_port.extend(flows.iter().map(|f| f.dst_port));
        self.proto.extend(flows.iter().map(|f| f.proto.number()));
        self.packets.extend(flows.iter().map(|f| f.packets));
        self.bytes.extend(flows.iter().map(|f| f.bytes));
    }

    /// Append one flow as a new row across every column.
    pub fn push(&mut self, flow: &FlowRecord) {
        self.start_ms.push(flow.start_ms);
        self.src_ip.push(u32::from(flow.src_ip));
        self.dst_ip.push(u32::from(flow.dst_ip));
        self.src_port.push(flow.src_port);
        self.dst_port.push(flow.dst_port);
        self.proto.push(flow.proto.number());
        self.packets.push(flow.packets);
        self.bytes.push(flow.bytes);
    }

    /// Append every row of `other`, in order.
    pub fn extend_from(&mut self, other: &FlowColumns) {
        self.start_ms.extend_from_slice(&other.start_ms);
        self.src_ip.extend_from_slice(&other.src_ip);
        self.dst_ip.extend_from_slice(&other.dst_ip);
        self.src_port.extend_from_slice(&other.src_port);
        self.dst_port.extend_from_slice(&other.dst_port);
        self.proto.extend_from_slice(&other.proto);
        self.packets.extend_from_slice(&other.packets);
        self.bytes.extend_from_slice(&other.bytes);
    }

    /// Number of rows (flows) stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start_ms.len()
    }

    /// Whether the store holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start_ms.is_empty()
    }

    /// Drop all rows, keeping every column's allocation for reuse.
    pub fn clear(&mut self) {
        self.start_ms.clear();
        self.src_ip.clear();
        self.dst_ip.clear();
        self.src_port.clear();
        self.dst_port.clear();
        self.proto.clear();
        self.packets.clear();
        self.bytes.clear();
    }

    /// Reassemble row `i` as a [`FlowRecord`] — the compatibility shim
    /// for record-oriented consumers.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> FlowRecord {
        FlowRecord::new(
            self.start_ms[i],
            Ipv4Addr::from(self.src_ip[i]),
            Ipv4Addr::from(self.dst_ip[i]),
            self.src_port[i],
            self.dst_port[i],
            Protocol::from_number(self.proto[i]),
        )
        .with_volume(self.packets[i], self.bytes[i])
    }

    /// Iterate the rows as reassembled [`FlowRecord`]s, in order.
    pub fn iter(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Reassemble every row into a fresh `Vec<FlowRecord>`.
    #[must_use]
    pub fn to_flows(&self) -> Vec<FlowRecord> {
        self.iter().collect()
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
        self.start_ms.capacity() * 8
            + self.src_ip.capacity() * 4
            + self.dst_ip.capacity() * 4
            + self.src_port.capacity() * 2
            + self.dst_port.capacity() * 2
            + self.proto.capacity()
            + self.packets.capacity() * 4
            + self.bytes.capacity() * 4
    }
}

/// A run of flows an interval assembler takes at once, in either
/// layout: a record slice or a [`CaptureRun`](crate::CaptureRun) of a
/// capture block. It gives what the assembler's one run loop reads: a
/// row's start time to find the in-window prefix, the rows of that
/// prefix appended to the window's columns, and a row as a record for
/// the one flow that closes a window.
pub trait FlowRun {
    /// Number of flows in the run.
    fn flow_count(&self) -> usize;

    /// Row `i`'s start time, ms.
    fn start_ms_at(&self, i: usize) -> u64;

    /// Row `i` as a [`FlowRecord`].
    fn record_at(&self, i: usize) -> FlowRecord;

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

    fn record_at(&self, i: usize) -> FlowRecord {
        self[i]
    }

    fn append_rows(&self, rows: Range<usize>, out: &mut FlowColumns) {
        out.extend_from_flows(&self[rows]);
    }
}

impl From<&[FlowRecord]> for FlowColumns {
    fn from(flows: &[FlowRecord]) -> Self {
        FlowColumns::from_flows(flows)
    }
}

impl FromIterator<FlowRecord> for FlowColumns {
    fn from_iter<I: IntoIterator<Item = FlowRecord>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut cols = FlowColumns::with_capacity(iter.size_hint().0);
        for flow in iter {
            cols.push(&flow);
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::TcpFlags;
    use crate::stream::tests::held;

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
        let held: Vec<FlowRecord> = flows.iter().map(held).collect();
        let cols = FlowColumns::from_flows(&flows);
        assert_eq!(cols.len(), flows.len());
        assert!(!cols.is_empty());
        for (i, flow) in held.iter().enumerate() {
            assert_eq!(cols.get(i), *flow, "row {i}");
        }
        assert_eq!(cols.to_flows(), held);
        let collected: Vec<FlowRecord> = cols.iter().collect();
        assert_eq!(collected, held);
        assert_eq!(
            FlowColumns::from_flows(&held),
            cols,
            "ends and flags are dropped"
        );
    }

    #[test]
    fn a_row_takes_29_bytes() {
        let cols = FlowColumns::with_capacity(1_000);
        assert_eq!(cols.memory_bytes(), 29 * 1_000);
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
    fn clear_keeps_capacity_and_extend_concatenates() {
        let flows = sample_flows();
        let mut cols = FlowColumns::from_flows(&flows);
        let cap = cols.memory_bytes();
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.memory_bytes(), cap, "clear keeps allocations");
        let a = FlowColumns::from_flows(&flows[..40]);
        let b = FlowColumns::from_flows(&flows[40..]);
        cols.extend_from(&a);
        cols.extend_from(&b);
        assert_eq!(cols, FlowColumns::from_flows(&flows));
    }

    #[test]
    fn from_iterator_matches_from_flows() {
        let flows = sample_flows();
        let a: FlowColumns = flows.iter().copied().collect();
        assert_eq!(a, FlowColumns::from_flows(&flows));
        assert_eq!(FlowColumns::from(&flows[..]), a);
    }
}
