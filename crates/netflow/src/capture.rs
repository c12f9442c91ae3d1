//! Captures held at wire width: the start-time column beside the
//! engine's seven.
//!
//! A NetFlow v5 record carries its start as 32-bit milliseconds of
//! exporter uptime, and the seven fields the engine reads in 4, 2 or 1
//! bytes. [`CaptureColumns`] keeps a stretch of a capture as that `first`
//! column beside a [`FlowColumns`] of the seven, 25 bytes a flow where a
//! [`FlowRecord`](crate::FlowRecord) takes 40, decoded straight from the
//! datagrams by
//! [`TraceReader::read_columns`](crate::v9::TraceReader::read_columns):
//! a [`Replay`](crate::Replay)'s blocks. Its end time and TCP flags, which
//! no engine stage reads, are not kept. An interval assembler takes a
//! [`CaptureRun`], a row range of one block, through [`FlowRun`]: it
//! reads the start times to place the rows, and copies them into its
//! window as a row range of the block's [`FlowColumns`].

use std::ops::Range;

use crate::columns::{FlowColumns, FlowRun};
use crate::v5::{be_u32, field, RecordSink, V5_RECORD_LEN};

/// A block of a capture: each flow's start time as the wire carries it,
/// beside the [`FlowColumns`] the engine reads.
///
/// Both always have the same length ([`len`](Self::len)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureColumns {
    /// The wire's `first` column: each flow's start, ms.
    pub(crate) first: Vec<u32>,
    /// The seven fields the engine reads.
    pub(crate) flows: FlowColumns,
}

impl CaptureColumns {
    /// An empty block with every column allocated for `rows` rows.
    #[must_use]
    pub fn with_capacity(rows: usize) -> Self {
        CaptureColumns {
            first: Vec::with_capacity(rows),
            flows: FlowColumns::with_capacity(rows),
        }
    }

    /// Remove every row, keeping each column's allocation, so a reader
    /// can refill the block without touching fresh memory.
    pub fn clear(&mut self) {
        self.first.clear();
        self.flows.clear();
    }

    /// Number of rows (flows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// Whether the block holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// The `first` column: each flow's start, ms, as the wire carries it.
    #[must_use]
    pub fn start_ms(&self) -> &[u32] {
        &self.first
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
    fn append_records(&mut self, records: &[u8]) {
        let starts = records.chunks_exact(V5_RECORD_LEN);
        self.first.extend(starts.map(|r| be_u32(r, field::FIRST)));
        self.flows.append_records(records);
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
        &self.block.first[self.rows.clone()]
    }
}

impl FlowRun for CaptureRun<'_> {
    fn flow_count(&self) -> usize {
        self.rows.len()
    }

    fn start_ms_at(&self, i: usize) -> u64 {
        u64::from(self.start_ms()[i])
    }

    /// A row-range copy of the block's columns.
    fn append_rows(&self, rows: Range<usize>, out: &mut FlowColumns) {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows.len(),
            "rows {rows:?} of a run of {}",
            self.rows.len()
        );
        let at = self.rows.start;
        out.extend_from_rows(&self.block.flows, at + rows.start..at + rows.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowRecord, Protocol, TcpFlags};
    use crate::v5::{decode_datagram, V5Exporter};
    use crate::v9::{Packet, TraceReader};
    use std::net::Ipv4Addr;

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
        let mut block = CaptureColumns::default();
        while let Some(packet) = reader.read_columns(&mut block) {
            assert!(matches!(packet, Ok(Packet::Flows(_))));
        }
        let records = (datagrams.iter())
            .flat_map(|d| decode_datagram(d).unwrap().flows)
            .collect();
        (block, records)
    }

    #[test]
    fn rows_hold_the_decoded_records_start_and_engine_fields() {
        let flows = sample_flows();
        let (block, records) = read_back(&flows);
        assert_eq!(records, flows, "every field fits the wire");
        assert_eq!(block.len(), flows.len());
        assert_eq!(block.flows, FlowColumns::from_flows(&records));
        let starts: Vec<u64> = block.start_ms().iter().map(|&ms| u64::from(ms)).collect();
        let expected: Vec<u64> = flows.iter().map(|f| f.start_ms).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn a_run_appends_exactly_its_rows() {
        let flows = sample_flows();
        let (block, _) = read_back(&flows);
        let run = block.run(10..70);
        assert_eq!(run.flow_count(), 60);
        assert_eq!(run.start_ms_at(5), flows[15].start_ms);
        assert_eq!(run.start_ms().len(), 60);
        let mut out = FlowColumns::from_flows(&flows[..2]);
        run.append_rows(7..31, &mut out);
        let expected: Vec<FlowRecord> = [&flows[..2], &flows[17..41]].concat();
        assert_eq!(out, FlowColumns::from_flows(&expected));
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
