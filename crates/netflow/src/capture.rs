//! Captures held at wire width, one column per field.
//!
//! A NetFlow v5 record carries its start as 32-bit milliseconds of
//! exporter uptime, and the seven fields the engine reads in 4, 2 or 1
//! bytes: 25 bytes a flow, where a [`FlowRecord`] takes 40. Its end
//! time and TCP flags, which no engine stage reads, are not kept.
//! [`CaptureColumns`] keeps a stretch of a capture that way, decoded
//! straight from the datagrams by
//! [`TraceReader::read_columns`](crate::v9::TraceReader::read_columns):
//! a [`Replay`](crate::Replay)'s blocks. An interval assembler takes a
//! [`CaptureRun`], a row range of one block, through [`FlowRun`], and
//! builds a record only for a flow that closes a window.

use std::net::Ipv4Addr;
use std::ops::Range;

use crate::columns::{FlowColumns, FlowRun};
use crate::flow::{FlowRecord, Protocol};
use crate::v5::{be_u16, be_u32, field, RecordSink, V5_RECORD_LEN};

/// A block of a capture, one column per field the engine reads, at its
/// wire width.
///
/// All eight columns always have the same length ([`len`](Self::len));
/// row `i` widens to the [`FlowRecord`] [`get`](Self::get) returns: the
/// record the v5 decoder gives for the same bytes, except that it ends
/// when it starts and carries no TCP flags ([`FlowRecord::new`]'s
/// defaults), as the block holds what the engine reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureColumns {
    start_ms: Vec<u32>,
    src_ip: Vec<u32>,
    dst_ip: Vec<u32>,
    src_port: Vec<u16>,
    dst_port: Vec<u16>,
    proto: Vec<u8>,
    packets: Vec<u32>,
    bytes: Vec<u32>,
}

impl CaptureColumns {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        CaptureColumns::default()
    }

    /// An empty block with every column allocated for `rows` rows.
    #[must_use]
    pub fn with_capacity(rows: usize) -> Self {
        CaptureColumns {
            start_ms: Vec::with_capacity(rows),
            src_ip: Vec::with_capacity(rows),
            dst_ip: Vec::with_capacity(rows),
            src_port: Vec::with_capacity(rows),
            dst_port: Vec::with_capacity(rows),
            proto: Vec::with_capacity(rows),
            packets: Vec::with_capacity(rows),
            bytes: Vec::with_capacity(rows),
        }
    }

    /// Remove every row, keeping each column's allocation, so a reader
    /// can refill the block without touching fresh memory.
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

    /// Number of rows (flows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.start_ms.len()
    }

    /// Whether the block holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start_ms.is_empty()
    }

    /// The `first` column: each flow's start, ms, as the wire carries it.
    #[must_use]
    pub fn start_ms(&self) -> &[u32] {
        &self.start_ms
    }

    /// Row `i` as a [`FlowRecord`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> FlowRecord {
        FlowRecord::new(
            u64::from(self.start_ms[i]),
            Ipv4Addr::from(self.src_ip[i]),
            Ipv4Addr::from(self.dst_ip[i]),
            self.src_port[i],
            self.dst_port[i],
            Protocol::from_number(self.proto[i]),
        )
        .with_volume(self.packets[i], self.bytes[i])
    }

    /// The rows `rows`, as a run an assembler takes.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not within `0..self.len()`.
    #[must_use]
    pub fn run(&self, rows: Range<usize>) -> CaptureRun<'_> {
        assert!(
            rows.start <= rows.end && rows.end <= self.len(),
            "rows {rows:?} of a block of {}",
            self.len()
        );
        CaptureRun { block: self, rows }
    }
}

impl RecordSink for CaptureColumns {
    /// One pass per column over the datagram's record bytes, which stay
    /// in cache between passes; each `extend` sizes its column once.
    fn append_records(&mut self, records: &[u8]) {
        let recs = || records.chunks_exact(V5_RECORD_LEN);
        self.start_ms
            .extend(recs().map(|r| be_u32(r, field::FIRST)));
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

/// Rows `rows` of a [`CaptureColumns`] block: a run of one capture's
/// flows, in file order, that the interval assemblers take through
/// [`FlowRun`] (`IntervalAssembler::push_run` and the layers above it).
#[derive(Debug, Clone)]
pub struct CaptureRun<'a> {
    block: &'a CaptureColumns,
    rows: Range<usize>,
}

impl<'a> CaptureRun<'a> {
    /// The run's stretch of the `first` column.
    #[must_use]
    pub fn start_ms(&self) -> &'a [u32] {
        &self.block.start_ms[self.rows.clone()]
    }
}

impl FlowRun for CaptureRun<'_> {
    fn flow_count(&self) -> usize {
        self.rows.len()
    }

    fn start_ms_at(&self, i: usize) -> u64 {
        u64::from(self.start_ms()[i])
    }

    fn record_at(&self, i: usize) -> FlowRecord {
        assert!(
            i < self.rows.len(),
            "row {i} of a run of {}",
            self.rows.len()
        );
        self.block.get(self.rows.start + i)
    }

    /// One widening copy for the start column, a slice copy for the other
    /// seven.
    fn append_rows(&self, rows: Range<usize>, out: &mut FlowColumns) {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows.len(),
            "rows {rows:?} of a run of {}",
            self.rows.len()
        );
        let (b, at) = (self.block, self.rows.start);
        let rows = at + rows.start..at + rows.end;
        out.start_ms
            .extend(b.start_ms[rows.clone()].iter().map(|&ms| u64::from(ms)));
        out.src_ip.extend_from_slice(&b.src_ip[rows.clone()]);
        out.dst_ip.extend_from_slice(&b.dst_ip[rows.clone()]);
        out.src_port.extend_from_slice(&b.src_port[rows.clone()]);
        out.dst_port.extend_from_slice(&b.dst_port[rows.clone()]);
        out.proto.extend_from_slice(&b.proto[rows.clone()]);
        out.packets.extend_from_slice(&b.packets[rows.clone()]);
        out.bytes.extend_from_slice(&b.bytes[rows]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::TcpFlags;
    use crate::stream::tests::held;
    use crate::v5::{decode_datagram, V5Exporter};
    use crate::v9::{Packet, TraceReader};

    fn sample_flows() -> Vec<FlowRecord> {
        (0..100u32)
            .map(|i| {
                let start = u64::from(i) * 10 + 0xffff_0000 * u64::from(i % 2);
                FlowRecord::new(
                    start,
                    Ipv4Addr::from(0x0a00_0000 + i),
                    Ipv4Addr::from(0xc0a8_0000 + i * 7),
                    (1024 + i) as u16,
                    (80 + i % 3) as u16,
                    Protocol::from_number((i % 200) as u8),
                )
                .with_volume(i + 1, (i + 1) * 40)
                .with_end(start + 5)
                .with_flags(TcpFlags((i % 64) as u8))
            })
            .collect()
    }

    /// The block a reader fills from `flows` exported as v5 datagrams,
    /// and the records the record decoder gives for the same bytes.
    fn read_back(flows: &[FlowRecord]) -> (CaptureColumns, Vec<FlowRecord>) {
        let datagrams = V5Exporter::new().export(flows);
        let bytes = datagrams.concat();
        let mut reader = TraceReader::new(&bytes[..]);
        let mut block = CaptureColumns::new();
        while let Some(packet) = reader.read_columns(&mut block) {
            assert!(matches!(packet, Ok(Packet::Flows(_))));
        }
        let records = (datagrams.iter())
            .flat_map(|d| decode_datagram(d).unwrap().flows)
            .collect();
        (block, records)
    }

    #[test]
    fn rows_widen_to_the_decoded_records() {
        let flows = sample_flows();
        let (block, records) = read_back(&flows);
        assert_eq!(records, flows, "every field fits the wire");
        assert_eq!(block.len(), flows.len());
        let rows: Vec<FlowRecord> = (0..block.len()).map(|i| block.get(i)).collect();
        assert_eq!(rows, records.iter().map(held).collect::<Vec<_>>());
        assert!(
            rows.iter().zip(&records).any(|(r, f)| r != f),
            "ends and flags are dropped"
        );
        let starts: Vec<u64> = block.start_ms().iter().map(|&ms| u64::from(ms)).collect();
        let expected: Vec<u64> = flows.iter().map(|f| f.start_ms).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn a_run_appends_exactly_its_rows() {
        let flows = sample_flows();
        let (block, _) = read_back(&flows);
        let run = block.run(10..70);
        assert_eq!((run.flow_count(), run.record_at(3)), (60, held(&flows[13])));
        assert_eq!(run.start_ms_at(5), flows[15].start_ms);
        let mut out = FlowColumns::from_flows(&flows[..2]);
        run.append_rows(7..31, &mut out);
        let expected: Vec<FlowRecord> = [&flows[..2], &flows[17..41]].concat();
        assert_eq!(
            out.to_flows(),
            expected.iter().map(held).collect::<Vec<_>>()
        );
        run.append_rows(60..60, &mut out);
        assert_eq!(out.len(), 26);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn a_run_past_the_block_panics() {
        let (block, _) = read_back(&sample_flows());
        let _ = block.run(90..101);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn appending_past_the_run_panics() {
        let (block, _) = read_back(&sample_flows());
        block.run(0..10).append_rows(5..11, &mut FlowColumns::new());
    }
}
