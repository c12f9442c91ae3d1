//! NetFlow version 5 wire codec.
//!
//! The paper's dataset is non-sampled NetFlow collected from a backbone
//! peering link; v5 is the format such collectors exported in 2007. This
//! module implements the complete v5 datagram layout — 24-byte header plus
//! up to thirty 48-byte flow records, all fields big-endian — so the
//! pipeline can ingest and emit the same bytes a real exporter would.
//!
//! Fields that [`crate::flow::FlowRecord`] does not model (next-hop,
//! interface indices, AS numbers, masks, ToS) are encoded as zero and
//! ignored on decode, which is also what most collectors do for
//! single-router deployments.

use std::net::Ipv4Addr;

use crate::error::{DecodeError, EncodeError};
use crate::flow::{FlowRecord, Protocol, TcpFlags};
#[doc(hidden)]
pub use crate::legacy::*;

/// Size of the fixed v5 header in bytes.
pub const V5_HEADER_LEN: usize = 24;
/// Size of one v5 flow record in bytes.
pub const V5_RECORD_LEN: usize = 48;
/// Maximum records per v5 datagram (fits a 1500-byte MTU).
pub const V5_MAX_RECORDS: usize = 30;

/// Decoded NetFlow v5 datagram header.
///
/// The all-zero default mirrors an unsampled exporter at boot (the SWITCH
/// traces are non-sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct V5Header {
    /// Number of flow records in this datagram (1–30).
    pub count: u16,
    /// Milliseconds since the exporter booted.
    pub sys_uptime_ms: u32,
    /// Export wall-clock seconds (UNIX epoch).
    pub unix_secs: u32,
    /// Residual nanoseconds of the export wall clock.
    pub unix_nsecs: u32,
    /// Total flows exported before this datagram (loss detection).
    pub flow_sequence: u32,
    /// Exporter engine type.
    pub engine_type: u8,
    /// Exporter engine slot.
    pub engine_id: u8,
    /// Sampling mode (2 bits) and interval (14 bits); zero = unsampled.
    pub sampling: u16,
}

/// A decoded v5 datagram: header plus flow records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V5Datagram {
    /// The datagram header.
    pub header: V5Header,
    /// The flow records (`header.count` of them).
    pub flows: Vec<FlowRecord>,
}

/// The big-endian `u16` at byte `at` of `b`.
pub(crate) fn be_u16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

/// The big-endian `u32` at byte `at` of `b`.
pub(crate) fn be_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Append `v` to `buf`, big-endian.
pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append `v` to `buf`, big-endian.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Encode up to 30 flows into a single v5 datagram.
///
/// `flow_sequence` is the cumulative flow counter maintained by the caller
/// (see [`V5Exporter`] for a stateful wrapper that manages it).
///
/// # Errors
///
/// [`EncodeError::TooManyRecords`] if more than 30 flows are supplied.
pub fn encode_datagram(
    flows: &[FlowRecord],
    flow_sequence: u32,
    sys_uptime_ms: u32,
) -> Result<Vec<u8>, EncodeError> {
    if flows.len() > V5_MAX_RECORDS {
        return Err(EncodeError::TooManyRecords(flows.len()));
    }
    let mut buf = Vec::with_capacity(V5_HEADER_LEN + flows.len() * V5_RECORD_LEN);
    // -- header --
    put_u16(&mut buf, 5); // version
    put_u16(&mut buf, flows.len() as u16);
    put_u32(&mut buf, sys_uptime_ms);
    put_u32(&mut buf, 0); // unix_secs: synthetic traces have no wall clock
    put_u32(&mut buf, 0); // unix_nsecs
    put_u32(&mut buf, flow_sequence);
    buf.push(0); // engine_type
    buf.push(0); // engine_id
    put_u16(&mut buf, 0); // sampling: non-sampled

    // -- records: the modelled fields at their offsets, the rest zero --
    for flow in flows {
        let mut rec = [0u8; V5_RECORD_LEN];
        let mut set = |at: usize, bytes: &[u8]| rec[at..at + bytes.len()].copy_from_slice(bytes);
        set(field::SRC_IP, &u32::from(flow.src_ip).to_be_bytes());
        set(field::DST_IP, &u32::from(flow.dst_ip).to_be_bytes());
        set(field::PACKETS, &flow.packets.to_be_bytes());
        set(field::BYTES, &flow.bytes.to_be_bytes());
        set(field::FIRST, &(flow.start_ms as u32).to_be_bytes()); // sysuptime ms
        set(field::LAST, &(flow.end_ms as u32).to_be_bytes());
        set(field::SRC_PORT, &flow.src_port.to_be_bytes());
        set(field::DST_PORT, &flow.dst_port.to_be_bytes());
        set(field::TCP_FLAGS, &[flow.tcp_flags.0]);
        set(field::PROTO, &[flow.proto.number()]);
        buf.extend_from_slice(&rec);
    }
    Ok(buf)
}

/// Validate a v5 datagram's header and record length, returning the
/// header and exactly `count` records of record bytes.
pub(crate) fn split_datagram(data: &[u8]) -> Result<(V5Header, &[u8]), DecodeError> {
    if data.len() < V5_HEADER_LEN {
        return Err(DecodeError::TruncatedHeader {
            version: Some(5),
            have: data.len(),
            need: V5_HEADER_LEN,
        });
    }
    let version = be_u16(data, 0);
    if version != 5 {
        return Err(DecodeError::BadVersion {
            found: version,
            expected: &[5],
        });
    }
    let count = be_u16(data, 2);
    if usize::from(count) > V5_MAX_RECORDS {
        return Err(DecodeError::TooManyRecords(count));
    }
    let header = V5Header {
        count,
        sys_uptime_ms: be_u32(data, 4),
        unix_secs: be_u32(data, 8),
        unix_nsecs: be_u32(data, 12),
        flow_sequence: be_u32(data, 16),
        engine_type: data[20],
        engine_id: data[21],
        sampling: be_u16(data, 22),
    };
    let records = &data[V5_HEADER_LEN..];
    let need = usize::from(count) * V5_RECORD_LEN;
    if records.len() < need {
        return Err(DecodeError::TruncatedRecords {
            declared: count,
            have: records.len(),
            need,
        });
    }
    Ok((header, &records[..need]))
}

/// Byte offsets, within a 48-byte v5 flow record, of the fields a
/// [`FlowRecord`] models: the one description of the record layout,
/// which the encoder and both decode paths (records and capture columns)
/// read. Next-hop, interface indices, ToS, AS numbers, masks and padding
/// are the bytes it leaves out.
pub(crate) mod field {
    /// `srcaddr`, `u32`.
    pub(crate) const SRC_IP: usize = 0;
    /// `dstaddr`, `u32`.
    pub(crate) const DST_IP: usize = 4;
    /// `dPkts`, `u32`.
    pub(crate) const PACKETS: usize = 16;
    /// `dOctets`, `u32`.
    pub(crate) const BYTES: usize = 20;
    /// `first`, `u32` sysuptime ms: the flow's start.
    pub(crate) const FIRST: usize = 24;
    /// `last`, `u32` sysuptime ms: the flow's end.
    pub(crate) const LAST: usize = 28;
    /// `srcport`, `u16`.
    pub(crate) const SRC_PORT: usize = 32;
    /// `dstport`, `u16`.
    pub(crate) const DST_PORT: usize = 34;
    /// `tcp_flags`, `u8`.
    pub(crate) const TCP_FLAGS: usize = 37;
    /// `prot`, `u8`.
    pub(crate) const PROTO: usize = 38;
}

/// Decode one 48-byte v5 flow record.
pub(crate) fn decode_record(rec: &[u8]) -> FlowRecord {
    FlowRecord {
        start_ms: u64::from(be_u32(rec, field::FIRST)),
        end_ms: u64::from(be_u32(rec, field::LAST)),
        src_ip: Ipv4Addr::from(be_u32(rec, field::SRC_IP)),
        dst_ip: Ipv4Addr::from(be_u32(rec, field::DST_IP)),
        src_port: be_u16(rec, field::SRC_PORT),
        dst_port: be_u16(rec, field::DST_PORT),
        proto: Protocol::from_number(rec[field::PROTO]),
        packets: be_u32(rec, field::PACKETS),
        bytes: be_u32(rec, field::BYTES),
        tcp_flags: TcpFlags(rec[field::TCP_FLAGS]),
    }
}

/// Where a datagram's records go once it is validated: decoded to
/// [`FlowRecord`]s, or into the columns of a capture block. The capture
/// reader's one framing loop is generic over it.
pub(crate) trait RecordSink {
    /// Append every 48-byte record of `records`, in order.
    fn append_records(&mut self, records: &[u8]);
}

impl RecordSink for Vec<FlowRecord> {
    fn append_records(&mut self, records: &[u8]) {
        self.extend(records.chunks_exact(V5_RECORD_LEN).map(decode_record));
    }
}

/// Decode one v5 datagram from a byte buffer.
///
/// # Errors
///
/// Returns a [`DecodeError`] on short input, a non-v5 version field, a
/// record count above 30, or fewer record bytes than the header declares.
pub fn decode_datagram(data: &[u8]) -> Result<V5Datagram, DecodeError> {
    let mut flows = Vec::new();
    let header = decode_records_into(data, &mut flows)?;
    Ok(V5Datagram { header, flows })
}

/// Decode one v5 datagram, appending its `count` records to `out` and
/// returning the header. Validation precedes the first append, so `out`
/// is unchanged on error; the errors are [`decode_datagram`]'s.
pub(crate) fn decode_records_into(
    data: &[u8],
    out: &mut impl RecordSink,
) -> Result<V5Header, DecodeError> {
    let (header, records) = split_datagram(data)?;
    out.append_records(records);
    Ok(header)
}

/// Stateful exporter: packs an arbitrary flow stream into maximal v5
/// datagrams and maintains the `flow_sequence` counter like a real router.
#[derive(Debug, Default)]
pub struct V5Exporter {
    sequence: u32,
}

impl V5Exporter {
    /// New exporter with sequence counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cumulative flow sequence number.
    #[must_use]
    pub fn sequence(&self) -> u32 {
        self.sequence
    }

    /// Export `flows` as a series of datagrams of at most 30 records each.
    ///
    /// Never fails: chunking guarantees the per-datagram record limit.
    pub fn export(&mut self, flows: &[FlowRecord]) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(flows.len().div_ceil(V5_MAX_RECORDS));
        for chunk in flows.chunks(V5_MAX_RECORDS) {
            let uptime = chunk.last().map_or(0, |f| f.end_ms as u32);
            let dgram = encode_datagram(chunk, self.sequence, uptime)
                .expect("chunk length is bounded by V5_MAX_RECORDS");
            self.sequence = self.sequence.wrapping_add(chunk.len() as u32);
            out.push(dgram);
        }
        out
    }
}

/// Stateful collector: decodes datagrams, accumulates flows, and tracks
/// sequence gaps (lost datagrams) like a real NetFlow collector.
#[derive(Debug, Default)]
pub struct V5Collector {
    flows: Vec<FlowRecord>,
    expected_sequence: Option<u32>,
    lost_flows: u64,
}

impl V5Collector {
    /// New, empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one datagram.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] from [`decode_datagram`]; the collector
    /// state is unchanged on error.
    pub fn ingest(&mut self, data: &[u8]) -> Result<(), DecodeError> {
        let dgram = decode_datagram(data)?;
        if let Some(expected) = self.expected_sequence {
            // A gap means datagrams were dropped between exporter and us.
            self.lost_flows += u64::from(dgram.header.flow_sequence.wrapping_sub(expected));
        }
        self.expected_sequence = Some(
            dgram
                .header
                .flow_sequence
                .wrapping_add(u32::from(dgram.header.count)),
        );
        self.flows.extend(dgram.flows);
        Ok(())
    }

    /// Flows collected so far.
    #[must_use]
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Flows lost to datagram drops, inferred from sequence gaps.
    #[must_use]
    pub fn lost_flows(&self) -> u64 {
        self.lost_flows
    }

    /// Consume the collector, returning the flows.
    #[must_use]
    pub fn into_flows(self) -> Vec<FlowRecord> {
        self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ReadError;
    use crate::v9::{TraceItem, TraceReader};

    fn sample_flow(i: u32) -> FlowRecord {
        FlowRecord::new(
            u64::from(i) * 10,
            Ipv4Addr::from(0x0a00_0001 + i),
            Ipv4Addr::from(0xc0a8_0001),
            (1024 + i) as u16,
            80,
            Protocol::Tcp,
        )
        .with_volume(i + 1, (i + 1) * 40)
        .with_end(u64::from(i) * 10 + 5)
        .with_flags(TcpFlags::syn_only())
    }

    #[test]
    fn round_trip_preserves_all_modeled_fields() {
        let flows: Vec<_> = (0..7).map(sample_flow).collect();
        let bytes = encode_datagram(&flows, 1234, 99_000).unwrap();
        assert_eq!(bytes.len(), V5_HEADER_LEN + 7 * V5_RECORD_LEN);
        let dgram = decode_datagram(&bytes).unwrap();
        assert_eq!(dgram.header.count, 7);
        assert_eq!(dgram.header.flow_sequence, 1234);
        assert_eq!(dgram.header.sys_uptime_ms, 99_000);
        assert_eq!(dgram.header.sampling, 0, "SWITCH traces are non-sampled");
        assert_eq!(dgram.flows, flows);
    }

    /// One v5 datagram written out by hand from the wire layout, every
    /// modelled field distinct, and the flow it carries.
    #[rustfmt::skip]
    const GOLDEN: [u8; V5_HEADER_LEN + V5_RECORD_LEN] = [
        0x00, 0x05,             // version
        0x00, 0x01,             // count
        0x05, 0x06, 0x07, 0x08, // sys_uptime_ms
        0x00, 0x00, 0x00, 0x00, // unix_secs
        0x00, 0x00, 0x00, 0x00, // unix_nsecs
        0x01, 0x02, 0x03, 0x04, // flow_sequence
        0x00, 0x00,             // engine_type, engine_id
        0x00, 0x00,             // sampling
        0x0a, 0x0b, 0x0c, 0x0d, // srcaddr
        0x0e, 0x0f, 0x10, 0x11, // dstaddr
        0x00, 0x00, 0x00, 0x00, // nexthop
        0x00, 0x00, 0x00, 0x00, // input, output ifindex
        0x12, 0x13, 0x14, 0x15, // dPkts
        0x16, 0x17, 0x18, 0x19, // dOctets
        0x1a, 0x1b, 0x1c, 0x1d, // first
        0x1e, 0x1f, 0x20, 0x21, // last
        0x22, 0x23,             // srcport
        0x24, 0x25,             // dstport
        0x00, 0x26, 0x27, 0x00, // pad1, tcp_flags, prot, tos
        0x00, 0x00, 0x00, 0x00, // src_as, dst_as
        0x00, 0x00, 0x00, 0x00, // src_mask, dst_mask, pad2
    ];

    fn golden_flow() -> FlowRecord {
        FlowRecord::new(
            0x1a1b_1c1d,
            Ipv4Addr::new(10, 11, 12, 13),
            Ipv4Addr::new(14, 15, 16, 17),
            0x2223,
            0x2425,
            Protocol::from_number(0x27),
        )
        .with_volume(0x1213_1415, 0x1617_1819)
        .with_end(0x1e1f_2021)
        .with_flags(TcpFlags(0x26))
    }

    #[test]
    fn golden_datagram_pins_the_wire_layout() {
        let flow = golden_flow();
        let bytes = encode_datagram(&[flow], 0x0102_0304, 0x0506_0708).unwrap();
        assert_eq!(bytes, GOLDEN);

        let header = V5Header {
            count: 1,
            sys_uptime_ms: 0x0506_0708,
            flow_sequence: 0x0102_0304,
            ..V5Header::default()
        };
        let dgram = decode_datagram(&GOLDEN).unwrap();
        assert_eq!(
            dgram,
            V5Datagram {
                header,
                flows: vec![flow]
            }
        );

        // The header fields the encoder leaves zero decode from their own
        // offsets, and the record bytes the decoder skips stay skipped.
        let mut wild = GOLDEN;
        wild[8..24].copy_from_slice(&[
            0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, // secs, nsecs
            0x01, 0x02, 0x03, 0x04, 0x39, 0x3a, 0x3b, 0x3c, // seq, engine, sampling
        ]);
        for skipped in [8..16, 36..37, 39..48] {
            wild[V5_HEADER_LEN..][skipped].fill(0xff);
        }
        let header = V5Header {
            unix_secs: 0x3132_3334,
            unix_nsecs: 0x3536_3738,
            engine_type: 0x39,
            engine_id: 0x3a,
            sampling: 0x3b3c,
            ..header
        };
        let dgram = decode_datagram(&wild).unwrap();
        assert_eq!(
            dgram,
            V5Datagram {
                header,
                flows: vec![flow]
            }
        );
    }

    #[test]
    fn rejects_more_than_30_records() {
        let flows: Vec<_> = (0..31).map(sample_flow).collect();
        assert_eq!(
            encode_datagram(&flows, 0, 0).unwrap_err(),
            EncodeError::TooManyRecords(31)
        );
    }

    #[test]
    fn decode_rejects_short_header() {
        let err = decode_datagram(&[0u8; 10]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::TruncatedHeader {
                version: Some(5),
                have: 10,
                need: 24
            }
        );
    }

    #[test]
    fn decode_rejects_bad_version() {
        let flows = vec![sample_flow(0)];
        let mut bytes = encode_datagram(&flows, 0, 0).unwrap();
        bytes[1] = 9; // version low byte
        assert_eq!(
            decode_datagram(&bytes).unwrap_err(),
            DecodeError::BadVersion {
                found: 9,
                expected: &[5]
            }
        );
    }

    #[test]
    fn decode_rejects_truncated_records() {
        let flows = vec![sample_flow(0), sample_flow(1)];
        let bytes = encode_datagram(&flows, 0, 0).unwrap();
        let cut = &bytes[..V5_HEADER_LEN + V5_RECORD_LEN + 3];
        match decode_datagram(cut).unwrap_err() {
            DecodeError::TruncatedRecords { declared: 2, .. } => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_count_over_30() {
        let flows = vec![sample_flow(0)];
        let mut bytes = encode_datagram(&flows, 0, 0).unwrap();
        bytes[2] = 0;
        bytes[3] = 31; // count
        assert_eq!(
            decode_datagram(&bytes).unwrap_err(),
            DecodeError::TooManyRecords(31)
        );
    }

    #[test]
    fn exporter_chunks_and_sequences() {
        let flows: Vec<_> = (0..65).map(sample_flow).collect();
        let mut exporter = V5Exporter::new();
        let dgrams = exporter.export(&flows);
        assert_eq!(dgrams.len(), 3); // 30 + 30 + 5
        assert_eq!(exporter.sequence(), 65);
        let d0 = decode_datagram(&dgrams[0]).unwrap();
        let d1 = decode_datagram(&dgrams[1]).unwrap();
        let d2 = decode_datagram(&dgrams[2]).unwrap();
        assert_eq!(d0.header.flow_sequence, 0);
        assert_eq!(d1.header.flow_sequence, 30);
        assert_eq!(d2.header.flow_sequence, 60);
        assert_eq!(d2.flows.len(), 5);
    }

    #[test]
    fn collector_reassembles_exporter_output() {
        let flows: Vec<_> = (0..65).map(sample_flow).collect();
        let mut exporter = V5Exporter::new();
        let mut collector = V5Collector::new();
        for dgram in exporter.export(&flows) {
            collector.ingest(&dgram).unwrap();
        }
        assert_eq!(collector.flows(), flows.as_slice());
        assert_eq!(collector.lost_flows(), 0);
    }

    #[test]
    fn collector_detects_sequence_gaps() {
        let flows: Vec<_> = (0..90).map(sample_flow).collect();
        let mut exporter = V5Exporter::new();
        let dgrams = exporter.export(&flows);
        let mut collector = V5Collector::new();
        collector.ingest(&dgrams[0]).unwrap();
        // dgrams[1] (30 flows) is lost in transit.
        collector.ingest(&dgrams[2]).unwrap();
        assert_eq!(collector.lost_flows(), 30);
        assert_eq!(collector.flows().len(), 60);
    }

    #[test]
    fn collector_state_unchanged_on_decode_error() {
        let mut collector = V5Collector::new();
        let flows = vec![sample_flow(0)];
        let good = encode_datagram(&flows, 0, 0).unwrap();
        collector.ingest(&good).unwrap();
        let before = collector.flows().len();
        assert!(collector.ingest(&good[..10]).is_err());
        assert_eq!(collector.flows().len(), before);
    }

    /// The datagrams the capture reader frames from `file`, or its first
    /// error.
    fn read_stream(file: &[u8]) -> Result<Vec<V5Datagram>, ReadError> {
        TraceReader::new(file)
            .map(|item| match item? {
                TraceItem::Flows(dgram) => Ok(dgram),
                TraceItem::Heartbeat(p) => panic!("a v5 stream framed a heartbeat: {p:?}"),
            })
            .collect()
    }

    #[test]
    fn stream_decode_reassembles_concatenated_datagrams() {
        let flows: Vec<_> = (0..75).map(sample_flow).collect();
        let mut exporter = V5Exporter::new();
        let mut file = Vec::new();
        for d in exporter.export(&flows) {
            file.extend_from_slice(&d);
        }
        let dgrams = read_stream(&file).unwrap();
        assert_eq!(dgrams.len(), 3);
        let decoded: Vec<FlowRecord> = dgrams.into_iter().flat_map(|d| d.flows).collect();
        assert_eq!(decoded, flows);
    }

    #[test]
    fn stream_decode_rejects_trailing_garbage() {
        let flows = vec![sample_flow(0)];
        let mut file = encode_datagram(&flows, 0, 0).unwrap();
        file.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_stream(&file),
            Err(ReadError::Decode(DecodeError::BadVersion {
                found: 0x0102,
                ..
            }))
        ));
    }

    #[test]
    fn stream_decode_empty_input() {
        assert_eq!(read_stream(&[]).unwrap().len(), 0);
    }

    #[test]
    fn empty_datagram_round_trips() {
        let bytes = encode_datagram(&[], 7, 0).unwrap();
        let dgram = decode_datagram(&bytes).unwrap();
        assert_eq!(dgram.header.count, 0);
        assert!(dgram.flows.is_empty());
    }
}
