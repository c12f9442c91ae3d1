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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::columns::FlowColumns;
use crate::error::{DecodeError, EncodeError};
use crate::flow::{FlowRecord, Protocol, TcpFlags};

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
) -> Result<Bytes, EncodeError> {
    if flows.len() > V5_MAX_RECORDS {
        return Err(EncodeError::TooManyRecords(flows.len()));
    }
    let mut buf = BytesMut::with_capacity(V5_HEADER_LEN + flows.len() * V5_RECORD_LEN);
    // -- header --
    buf.put_u16(5); // version
    buf.put_u16(flows.len() as u16);
    buf.put_u32(sys_uptime_ms);
    buf.put_u32(0); // unix_secs: synthetic traces have no wall clock
    buf.put_u32(0); // unix_nsecs
    buf.put_u32(flow_sequence);
    buf.put_u8(0); // engine_type
    buf.put_u8(0); // engine_id
    buf.put_u16(0); // sampling: non-sampled
                    // -- records --
    for flow in flows {
        buf.put_u32(u32::from(flow.src_ip));
        buf.put_u32(u32::from(flow.dst_ip));
        buf.put_u32(0); // nexthop
        buf.put_u16(0); // input ifindex
        buf.put_u16(0); // output ifindex
        buf.put_u32(flow.packets);
        buf.put_u32(flow.bytes);
        buf.put_u32(flow.start_ms as u32); // first (sysuptime ms)
        buf.put_u32(flow.end_ms as u32); // last
        buf.put_u16(flow.src_port);
        buf.put_u16(flow.dst_port);
        buf.put_u8(0); // pad1
        buf.put_u8(flow.tcp_flags.0);
        buf.put_u8(flow.proto.number());
        buf.put_u8(0); // tos
        buf.put_u16(0); // src_as
        buf.put_u16(0); // dst_as
        buf.put_u8(0); // src_mask
        buf.put_u8(0); // dst_mask
        buf.put_u16(0); // pad2
    }
    Ok(buf.freeze())
}

/// Decode one v5 datagram from a byte buffer.
///
/// # Errors
///
/// Returns a [`DecodeError`] on short input, a non-v5 version field, a
/// record count above 30, or fewer record bytes than the header declares.
pub fn decode_datagram(mut data: &[u8]) -> Result<V5Datagram, DecodeError> {
    if data.len() < V5_HEADER_LEN {
        return Err(DecodeError::TruncatedHeader {
            version: Some(5),
            have: data.len(),
            need: V5_HEADER_LEN,
        });
    }
    let version = data.get_u16();
    if version != 5 {
        return Err(DecodeError::BadVersion {
            found: version,
            expected: &[5],
        });
    }
    let count = data.get_u16();
    if usize::from(count) > V5_MAX_RECORDS {
        return Err(DecodeError::TooManyRecords(count));
    }
    let header = V5Header {
        count,
        sys_uptime_ms: data.get_u32(),
        unix_secs: data.get_u32(),
        unix_nsecs: data.get_u32(),
        flow_sequence: data.get_u32(),
        engine_type: data.get_u8(),
        engine_id: data.get_u8(),
        sampling: data.get_u16(),
    };
    let need = usize::from(count) * V5_RECORD_LEN;
    if data.remaining() < need {
        return Err(DecodeError::TruncatedRecords {
            declared: count,
            have: data.remaining(),
            need,
        });
    }
    let mut flows = Vec::with_capacity(usize::from(count));
    for _ in 0..count {
        let src_ip = Ipv4Addr::from(data.get_u32());
        let dst_ip = Ipv4Addr::from(data.get_u32());
        data.advance(4 + 2 + 2); // nexthop, input, output
        let packets = data.get_u32();
        let bytes = data.get_u32();
        let first = data.get_u32();
        let last = data.get_u32();
        let src_port = data.get_u16();
        let dst_port = data.get_u16();
        data.advance(1); // pad1
        let tcp_flags = TcpFlags(data.get_u8());
        let proto = Protocol::from_number(data.get_u8());
        data.advance(1 + 2 + 2 + 1 + 1 + 2); // tos, ASes, masks, pad2
        flows.push(FlowRecord {
            start_ms: u64::from(first),
            end_ms: u64::from(last),
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            packets,
            bytes,
            tcp_flags,
        });
    }
    Ok(V5Datagram { header, flows })
}

/// Decode one v5 datagram straight into a [`FlowColumns`] store — the
/// columnar fast path with no intermediate `FlowRecord` materialization.
///
/// Appends the datagram's `count` flows as rows of `out` and returns the
/// decoded header. The header and the record-byte length are validated
/// **before** any column is touched, so `out` is unchanged on error
/// (mirroring [`V5Collector::ingest`]), and the errors are exactly those
/// of [`decode_datagram`] on the same input.
///
/// # Errors
///
/// Returns a [`DecodeError`] on short input, a non-v5 version field, a
/// record count above 30, or fewer record bytes than the header declares.
pub fn decode_into_columns(
    mut data: &[u8],
    out: &mut FlowColumns,
) -> Result<V5Header, DecodeError> {
    if data.len() < V5_HEADER_LEN {
        return Err(DecodeError::TruncatedHeader {
            version: Some(5),
            have: data.len(),
            need: V5_HEADER_LEN,
        });
    }
    let version = data.get_u16();
    if version != 5 {
        return Err(DecodeError::BadVersion {
            found: version,
            expected: &[5],
        });
    }
    let count = data.get_u16();
    if usize::from(count) > V5_MAX_RECORDS {
        return Err(DecodeError::TooManyRecords(count));
    }
    let header = V5Header {
        count,
        sys_uptime_ms: data.get_u32(),
        unix_secs: data.get_u32(),
        unix_nsecs: data.get_u32(),
        flow_sequence: data.get_u32(),
        engine_type: data.get_u8(),
        engine_id: data.get_u8(),
        sampling: data.get_u16(),
    };
    let need = usize::from(count) * V5_RECORD_LEN;
    if data.remaining() < need {
        return Err(DecodeError::TruncatedRecords {
            declared: count,
            have: data.remaining(),
            need,
        });
    }
    for _ in 0..count {
        out.src_ip.push(data.get_u32());
        out.dst_ip.push(data.get_u32());
        data.advance(4 + 2 + 2); // nexthop, input, output
        out.packets.push(data.get_u32());
        out.bytes.push(data.get_u32());
        out.start_ms.push(u64::from(data.get_u32())); // first
        out.end_ms.push(u64::from(data.get_u32())); // last
        out.src_port.push(data.get_u16());
        out.dst_port.push(data.get_u16());
        data.advance(1); // pad1
        out.tcp_flags.push(data.get_u8());
        out.proto.push(data.get_u8());
        data.advance(1 + 2 + 2 + 1 + 1 + 2); // tos, ASes, masks, pad2
    }
    Ok(header)
}

/// Decode a concatenated stream of v5 datagrams straight into a
/// [`FlowColumns`] store, returning the per-datagram headers.
///
/// Each datagram's header declares its record count, so the stream is
/// self-framing; the first error is returned as-is. Datagrams
/// decoded before the error remain appended to `out` (the failing
/// datagram itself leaves `out` untouched, per
/// [`decode_into_columns`]).
///
/// # Errors
///
/// Returns the first [`DecodeError`] encountered.
pub fn decode_stream_into_columns(
    mut data: &[u8],
    out: &mut FlowColumns,
) -> Result<Vec<V5Header>, DecodeError> {
    let mut headers = Vec::new();
    while !data.is_empty() {
        let header = decode_into_columns(data, out)?;
        let consumed = V5_HEADER_LEN + usize::from(header.count) * V5_RECORD_LEN;
        data = &data[consumed..];
        headers.push(header);
    }
    Ok(headers)
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
    pub fn export(&mut self, flows: &[FlowRecord]) -> Vec<Bytes> {
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
        let mut bytes = encode_datagram(&flows, 0, 0).unwrap().to_vec();
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
        let mut bytes = encode_datagram(&flows, 0, 0).unwrap().to_vec();
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
        let mut file = encode_datagram(&flows, 0, 0).unwrap().to_vec();
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

    #[test]
    fn columnar_decode_matches_decode_then_convert() {
        let flows: Vec<_> = (0..7).map(sample_flow).collect();
        let bytes = encode_datagram(&flows, 1234, 99_000).unwrap();
        let dgram = decode_datagram(&bytes).unwrap();
        let mut cols = FlowColumns::new();
        let header = decode_into_columns(&bytes, &mut cols).unwrap();
        assert_eq!(header, dgram.header);
        assert_eq!(cols.to_flows(), dgram.flows);
    }

    #[test]
    fn columnar_decode_appends_across_datagrams() {
        let flows: Vec<_> = (0..75).map(sample_flow).collect();
        let mut exporter = V5Exporter::new();
        let mut file = Vec::new();
        for d in exporter.export(&flows) {
            file.extend_from_slice(&d);
        }
        let mut cols = FlowColumns::new();
        let headers = decode_stream_into_columns(&file, &mut cols).unwrap();
        assert_eq!(headers.len(), 3);
        assert_eq!(headers[1].flow_sequence, 30);
        assert_eq!(cols.to_flows(), flows);
    }

    #[test]
    fn columnar_decode_errors_match_and_leave_columns_untouched() {
        let flows = vec![sample_flow(0), sample_flow(1)];
        let good = encode_datagram(&flows, 0, 0).unwrap();
        let mut cols = FlowColumns::new();
        decode_into_columns(&good, &mut cols).unwrap();
        let before = cols.clone();
        for bad in [
            &good[..10],                            // truncated header
            &good[..V5_HEADER_LEN + V5_RECORD_LEN], // truncated records
        ] {
            let record_err = decode_datagram(bad).unwrap_err();
            assert_eq!(decode_into_columns(bad, &mut cols).unwrap_err(), record_err);
            assert_eq!(cols, before, "columns unchanged on error");
        }
        let mut wrong_version = good.to_vec();
        wrong_version[1] = 9;
        assert_eq!(
            decode_into_columns(&wrong_version, &mut cols).unwrap_err(),
            DecodeError::BadVersion {
                found: 9,
                expected: &[5]
            }
        );
        let mut over_count = good.to_vec();
        over_count[2] = 0;
        over_count[3] = 31;
        assert_eq!(
            decode_into_columns(&over_count, &mut cols).unwrap_err(),
            DecodeError::TooManyRecords(31)
        );
        assert_eq!(cols, before);
    }
}
