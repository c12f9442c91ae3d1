//! NetFlow v9 / IPFIX punctuation: template-only packets as heartbeats.
//!
//! The flow records themselves travel as NetFlow v5 in this system (the
//! paper's dataset is v5), but real collectors also receive periodic
//! **template and options-template packets** from v9/IPFIX exporters —
//! sent even when the link is idle, as keepalives carrying sampling
//! configuration and exporter state. For the multi-source watermark grid
//! ([`crate::MergeAssembler`]) these packets matter: an idle-but-live
//! exporter's punctuation proves its clock has advanced, releasing
//! merged intervals that would otherwise wait for `max_lag` to fire.
//!
//! This module decodes exactly that punctuation: v9 (version 9) and
//! IPFIX (version 10) packets whose flowsets are all templates or
//! options templates. Each decodes to a [`Punctuation`] carrying the
//! header's export wall-clock, which callers feed to
//! [`crate::MergeAssembler::heartbeat`]. Data flowsets are rejected with
//! [`DecodeError::UnsupportedFlowset`] — decoding them would need
//! per-exporter template state, and the flow path here is v5.
//!
//! [`TraceReader`] reads a capture interleaving v5 datagrams with
//! v9/IPFIX punctuation from any [`Read`], packet by packet, dispatching
//! on each packet's leading version word: as [`TraceItem`]s, or
//! appending each datagram's rows to a caller-owned store (no allocation
//! per datagram) — records with [`TraceReader::read_into`], wire-width
//! columns with [`TraceReader::read_columns`].
//! [`decode_mixed_stream`] is the same reader over a byte slice.

use std::io::{self, Read};

use crate::capture::CaptureColumns;
use crate::error::{DecodeError, ReadError};
use crate::flow::FlowRecord;
use crate::v5::{
    be_u16, be_u32, decode_records_into, put_u16, put_u32, RecordSink, V5Datagram, V5Header,
    V5_HEADER_LEN, V5_RECORD_LEN,
};

/// The NetFlow v9 version word.
pub const V9_VERSION: u16 = 9;
/// The IPFIX version word (RFC 7011 calls it version 10).
pub const IPFIX_VERSION: u16 = 10;
/// Size of the fixed v9 packet header in bytes.
pub const V9_HEADER_LEN: usize = 20;
/// Size of the fixed IPFIX message header in bytes.
pub const IPFIX_HEADER_LEN: usize = 16;
/// The version words [`decode_punctuation`] accepts.
const PUNCTUATION_VERSIONS: &[u16] = &[V9_VERSION, IPFIX_VERSION];
/// The version words a capture may carry: v5 flows and v9/IPFIX punctuation.
const CAPTURE_VERSIONS: &[u16] = &[5, V9_VERSION, IPFIX_VERSION];
/// The size of a [`TraceReader`]'s buffer: the most one read asks for.
const READ_CHUNK: usize = 64 * 1024;

/// A decoded template-only v9/IPFIX packet — exporter punctuation.
///
/// Carries no flows; its value is the export wall-clock, which advances
/// the exporter's watermark lane in the merge grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Punctuation {
    /// The version word: [`V9_VERSION`] or [`IPFIX_VERSION`].
    pub version: u16,
    /// Export wall-clock in milliseconds (header seconds × 1000) — the
    /// `now_ms` to hand [`crate::MergeAssembler::heartbeat`].
    pub export_ms: u64,
    /// The packet/message sequence number.
    pub sequence: u32,
    /// v9 source id / IPFIX observation domain id.
    pub domain: u32,
}

/// Decode one v9 or IPFIX punctuation packet from the front of `data`,
/// returning it and the number of bytes consumed.
///
/// Every flowset (v9) / set (IPFIX) in the packet must be a template or
/// options template; the presence of a data set makes the packet flow
/// traffic, not punctuation, and is an error here.
///
/// # Errors
///
/// [`DecodeError::BadVersion`] for a version word other than 9 or 10,
/// [`DecodeError::TruncatedHeader`]/[`DecodeError::TruncatedPacket`] on
/// short input, and [`DecodeError::UnsupportedFlowset`] on a data or
/// unknown flowset.
pub fn decode_punctuation(data: &[u8]) -> Result<(Punctuation, usize), DecodeError> {
    if data.len() < 2 {
        return Err(DecodeError::TruncatedHeader {
            version: None,
            have: data.len(),
            need: V9_HEADER_LEN.min(IPFIX_HEADER_LEN),
        });
    }
    match be_u16(data, 0) {
        V9_VERSION => decode_v9(data),
        IPFIX_VERSION => decode_ipfix(data),
        found => Err(DecodeError::BadVersion {
            found,
            expected: PUNCTUATION_VERSIONS,
        }),
    }
}

/// v9: the header counts records, not bytes, so framing walks the
/// flowsets — each one length-prefixed — until the record count is met.
fn decode_v9(packet: &[u8]) -> Result<(Punctuation, usize), DecodeError> {
    if packet.len() < V9_HEADER_LEN {
        return Err(DecodeError::TruncatedHeader {
            version: Some(V9_VERSION),
            have: packet.len(),
            need: V9_HEADER_LEN,
        });
    }
    // version, count, sys_uptime_ms, unix_secs, sequence, source id
    let count = be_u16(packet, 2);
    let unix_secs = be_u32(packet, 8);
    let sequence = be_u32(packet, 12);
    let domain = be_u32(packet, 16);

    let mut data = &packet[V9_HEADER_LEN..];
    let mut records_seen: usize = 0;
    while records_seen < usize::from(count) {
        let (id, body) = read_set_header(&mut data, V9_VERSION)?;
        records_seen += match id {
            0 => count_template_records(body),
            1 => count_options_records(body),
            other => {
                return Err(DecodeError::UnsupportedFlowset {
                    version: V9_VERSION,
                    id: other,
                })
            }
        };
    }
    let punct = Punctuation {
        version: V9_VERSION,
        export_ms: u64::from(unix_secs) * 1000,
        sequence,
        domain,
    };
    Ok((punct, packet.len() - data.len()))
}

/// IPFIX: the header carries the total message length, so framing is
/// direct; the sets still have to all be templates.
fn decode_ipfix(packet: &[u8]) -> Result<(Punctuation, usize), DecodeError> {
    if packet.len() < IPFIX_HEADER_LEN {
        return Err(DecodeError::TruncatedHeader {
            version: Some(IPFIX_VERSION),
            have: packet.len(),
            need: IPFIX_HEADER_LEN,
        });
    }
    // version, length, export time, sequence, observation domain
    let length = usize::from(be_u16(packet, 2));
    let export_secs = be_u32(packet, 4);
    let sequence = be_u32(packet, 8);
    let domain = be_u32(packet, 12);
    if length < IPFIX_HEADER_LEN || packet.len() < length {
        return Err(DecodeError::TruncatedPacket {
            have: packet.len(),
            need: length.max(IPFIX_HEADER_LEN),
        });
    }
    let mut sets = &packet[IPFIX_HEADER_LEN..length];
    while !sets.is_empty() {
        let (id, _body) = read_set_header(&mut sets, IPFIX_VERSION)?;
        if id != 2 && id != 3 {
            return Err(DecodeError::UnsupportedFlowset {
                version: IPFIX_VERSION,
                id,
            });
        }
    }
    let punct = Punctuation {
        version: IPFIX_VERSION,
        export_ms: u64::from(export_secs) * 1000,
        sequence,
        domain,
    };
    Ok((punct, length))
}

/// Read one flowset/set header (id + byte length) and split off its
/// body, leaving `data` positioned at the next set.
fn read_set_header<'a>(data: &mut &'a [u8], version: u16) -> Result<(u16, &'a [u8]), DecodeError> {
    if data.len() < 4 {
        return Err(DecodeError::TruncatedPacket {
            have: data.len(),
            need: 4,
        });
    }
    let id = be_u16(data, 0);
    let length = usize::from(be_u16(data, 2));
    if length < 4 {
        // A set shorter than its own header cannot frame anything.
        return Err(DecodeError::UnsupportedFlowset { version, id });
    }
    let body_len = length - 4;
    let after_header = &data[4..];
    if after_header.len() < body_len {
        return Err(DecodeError::TruncatedPacket {
            have: after_header.len(),
            need: body_len,
        });
    }
    let (body, rest) = after_header.split_at(body_len);
    *data = rest;
    Ok((id, body))
}

/// Count the template records in a template flowset body: each is
/// `template_id, field_count` plus `field_count` 4-byte field specs.
/// Trailing padding (less than a record header, or a zero template id)
/// ends the walk.
fn count_template_records(mut body: &[u8]) -> usize {
    let mut n = 0;
    while body.len() >= 4 {
        let template_id = be_u16(body, 0);
        if template_id == 0 {
            break; // padding
        }
        let field_count = usize::from(be_u16(body, 2));
        let record = 4 + field_count * 4;
        if body.len() < record {
            break;
        }
        body = &body[record..];
        n += 1;
    }
    n
}

/// Count the records in an options-template flowset body: each is
/// `template_id, scope_length, option_length` plus that many bytes of
/// field specs (both lengths are in bytes on the v9 wire).
fn count_options_records(mut body: &[u8]) -> usize {
    let mut n = 0;
    while body.len() >= 6 {
        let template_id = be_u16(body, 0);
        if template_id == 0 {
            break; // padding
        }
        let scope_len = usize::from(be_u16(body, 2));
        let option_len = usize::from(be_u16(body, 4));
        let record = 6 + scope_len + option_len;
        if body.len() < record {
            break;
        }
        body = &body[record..];
        n += 1;
    }
    n
}

/// Encode a v9 keepalive: one options-template flowset (scope `System`,
/// option `samplingInterval`), padded to a 4-byte boundary — the packet
/// an idle Cisco-style exporter sends to prove it is alive.
#[must_use]
pub fn encode_v9_options_template(export_secs: u32, sequence: u32, source_id: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(V9_HEADER_LEN + 20);
    put_u16(&mut buf, V9_VERSION);
    put_u16(&mut buf, 1); // one record (the options template)
    put_u32(&mut buf, 0); // sys_uptime_ms
    put_u32(&mut buf, export_secs);
    put_u32(&mut buf, sequence);
    put_u32(&mut buf, source_id);
    // Options-template flowset: id 1, record = id 256, 4-byte scope
    // (System) + 4-byte option (samplingInterval), 2 bytes padding.
    put_u16(&mut buf, 1); // flowset id: options template
    put_u16(&mut buf, 20); // flowset length incl. header + padding
    put_u16(&mut buf, 256); // options template id
    put_u16(&mut buf, 4); // scope length (bytes)
    put_u16(&mut buf, 4); // option length (bytes)
    put_u16(&mut buf, 1); // scope field: System
    put_u16(&mut buf, 4); // scope field length
    put_u16(&mut buf, 34); // option field: samplingInterval
    put_u16(&mut buf, 4); // option field length
    put_u16(&mut buf, 0); // padding to 4-byte boundary
    buf
}

/// Encode an IPFIX keepalive: one options-template set, the v10
/// counterpart of [`encode_v9_options_template`].
#[must_use]
pub fn encode_ipfix_options_template(export_secs: u32, sequence: u32, domain: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(IPFIX_HEADER_LEN + 14);
    put_u16(&mut buf, IPFIX_VERSION);
    put_u16(&mut buf, (IPFIX_HEADER_LEN + 14) as u16); // total message length
    put_u32(&mut buf, export_secs);
    put_u32(&mut buf, sequence);
    put_u32(&mut buf, domain);
    // Options-template set: id 3; record = id 256, 2 fields of which 1
    // is scope; scope System then option samplingInterval.
    put_u16(&mut buf, 3); // set id: options template
    put_u16(&mut buf, 14); // set length incl. header
    put_u16(&mut buf, 256); // template id
    put_u16(&mut buf, 2); // total field count
    put_u16(&mut buf, 1); // scope field count
    put_u16(&mut buf, 1); // scope field: System
    put_u16(&mut buf, 4); // scope field length
    buf
}

/// One packet of a mixed capture: v5 flow datagrams interleaved with
/// v9/IPFIX punctuation, in file (= collector arrival) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceItem {
    /// A NetFlow v5 datagram carrying flow records.
    Flows(V5Datagram),
    /// A template-only v9/IPFIX packet: an exporter heartbeat.
    Heartbeat(Punctuation),
}

/// One packet read by [`TraceReader::read_into`] or
/// [`TraceReader::read_columns`], whose rows are already in the caller's
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// A NetFlow v5 datagram: its `count` rows were appended.
    Flows(V5Header),
    /// A template-only v9/IPFIX packet: an exporter heartbeat.
    Heartbeat(Punctuation),
}

/// Reads a capture — concatenated v5 datagrams and v9/IPFIX punctuation
/// packets — from any [`Read`], one packet per item, in file order.
///
/// The reader holds one 64 KiB buffer that it refills, so a capture of
/// any length is read in constant memory. Each packet is framed by
/// [`crate::v5::decode_datagram`] or [`decode_punctuation`] on the bytes read so
/// far: before end of input a truncation error means "read more"; at end
/// of input it is the capture's error. So the items and the error are
/// exactly those of one pass over the whole capture, whatever sizes the
/// source's reads return. An export is one UDP datagram, so every packet
/// fits the buffer; bytes that fill it without framing a packet (v9
/// flowsets that never meet the header's record count, an IPFIX length
/// below its own header) fail with [`DecodeError::PacketTooLong`].
///
/// After the first error the iterator is finished.
pub struct TraceReader<R> {
    source: R,
    /// `buf[start..end]` holds the bytes read but not yet framed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The source reported end of input.
    eof: bool,
    /// The last read of the source returned fewer bytes than it asked
    /// for.
    short: bool,
    /// An error was yielded.
    failed: bool,
}

impl<R: Read> TraceReader<R> {
    /// A reader over `source`.
    pub fn new(source: R) -> Self {
        TraceReader {
            source,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            eof: false,
            short: false,
            failed: false,
        }
    }

    /// Whether the next packet waits on the source: its last read
    /// returned fewer bytes than it asked for (a pipe with nothing more
    /// queued), and the bytes buffered frame no whole packet. A file's
    /// reads are full until its end, so a file waits only there. A caller
    /// batching packets hands on what it has rather than block here.
    #[must_use]
    pub fn waits(&self) -> bool {
        let pending = &self.buf[self.start..self.end];
        self.short
            && !self.failed
            && (pending.is_empty()
                || matches!(decode_packet(pending, &mut Discard), Err(e) if is_truncation(&e)))
    }

    /// Read the next packet, appending a v5 datagram's records to
    /// `flows`; [`Iterator::next`] runs it with a fresh `Vec` per
    /// datagram. A caller that reuses `flows` (or reserves it) decodes a
    /// capture with no allocation per datagram. `flows` is appended to
    /// only when a datagram is yielded; `None` at end of input, and
    /// after the first error.
    pub fn read_into(&mut self, flows: &mut Vec<FlowRecord>) -> Option<Result<Packet, ReadError>> {
        self.read_packet(flows)
    }

    /// [`read_into`](Self::read_into) at wire width: a v5 datagram's
    /// rows are appended to the columns of `block`, each field decoded
    /// straight from the datagram. The same packets, rows and errors, on
    /// the same framing.
    pub fn read_columns(
        &mut self,
        block: &mut CaptureColumns,
    ) -> Option<Result<Packet, ReadError>> {
        self.read_packet(block)
    }

    /// The one framing loop: the next packet, a datagram's rows appended
    /// to `sink`.
    fn read_packet(&mut self, sink: &mut impl RecordSink) -> Option<Result<Packet, ReadError>> {
        while !self.failed {
            let pending = &self.buf[self.start..self.end];
            if !pending.is_empty() {
                match decode_packet(pending, sink) {
                    Ok((packet, consumed)) => {
                        self.start += consumed;
                        return Some(Ok(packet));
                    }
                    Err(e) if self.eof || !is_truncation(&e) => {
                        self.failed = true;
                        return Some(Err(ReadError::Decode(e)));
                    }
                    Err(_) => {}
                }
            } else if self.eof {
                return None;
            }
            if let Err(e) = self.refill() {
                self.failed = true;
                return Some(Err(e));
            }
        }
        None
    }

    /// Append what one read of the source returns. A full buffer first
    /// moves its unframed bytes to the front; one unframed packet that
    /// fills it is an error.
    fn refill(&mut self) -> Result<(), ReadError> {
        if self.end == self.buf.len() {
            if self.start == 0 {
                return Err(ReadError::Decode(DecodeError::PacketTooLong {
                    have: self.end,
                }));
            }
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = loop {
            match self.source.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read.map_err(ReadError::Io)?,
            }
        };
        self.short = self.end + n < self.buf.len();
        self.end += n;
        self.eof = n == 0;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceItem, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut flows = Vec::new();
        let packet = self.read_into(&mut flows)?;
        Some(packet.map(|packet| match packet {
            Packet::Flows(header) => TraceItem::Flows(V5Datagram { header, flows }),
            Packet::Heartbeat(punct) => TraceItem::Heartbeat(punct),
        }))
    }
}

/// A sink that keeps no rows: it frames a packet without storing it.
struct Discard;

impl RecordSink for Discard {
    fn append_records(&mut self, _: &[u8]) {}
}

/// Whether `e` could be cured by more bytes.
fn is_truncation(e: &DecodeError) -> bool {
    matches!(
        e,
        DecodeError::TruncatedHeader { .. }
            | DecodeError::TruncatedRecords { .. }
            | DecodeError::TruncatedPacket { .. }
    )
}

/// Decode the packet at the front of `data`, dispatching on its version
/// word: 5 → flow datagram, whose rows are appended to `sink`; 9/10 →
/// punctuation. Returns the packet and its length in bytes, and leaves
/// `sink` as it was on error.
fn decode_packet(data: &[u8], sink: &mut impl RecordSink) -> Result<(Packet, usize), DecodeError> {
    if data.len() < 2 {
        return Err(DecodeError::TruncatedHeader {
            version: None,
            have: data.len(),
            need: 2,
        });
    }
    match be_u16(data, 0) {
        5 => {
            let header = decode_records_into(data, sink)?;
            let consumed = V5_HEADER_LEN + usize::from(header.count) * V5_RECORD_LEN;
            Ok((Packet::Flows(header), consumed))
        }
        V9_VERSION | IPFIX_VERSION => {
            let (punct, consumed) = decode_punctuation(data)?;
            Ok((Packet::Heartbeat(punct), consumed))
        }
        found => Err(DecodeError::BadVersion {
            found,
            expected: CAPTURE_VERSIONS,
        }),
    }
}

/// Decode a whole capture held in memory: [`TraceReader`] over `data`.
///
/// # Errors
///
/// Returns the first [`DecodeError`]: any other version word, a data
/// flowset inside a v9/IPFIX packet, or a truncated packet.
pub fn decode_mixed_stream(data: &[u8]) -> Result<Vec<TraceItem>, DecodeError> {
    TraceReader::new(data)
        .map(|item| {
            item.map_err(|e| match e {
                ReadError::Decode(e) => e,
                ReadError::Io(e) => unreachable!("reading a byte slice cannot fail: {e}"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowRecord, Protocol};
    use crate::v5::encode_datagram;
    use std::net::Ipv4Addr;

    #[test]
    fn v9_options_template_round_trips_as_a_heartbeat() {
        let bytes = encode_v9_options_template(1234, 7, 99);
        let (p, consumed) = decode_punctuation(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(
            p,
            Punctuation {
                version: V9_VERSION,
                export_ms: 1_234_000,
                sequence: 7,
                domain: 99,
            }
        );
    }

    #[test]
    fn ipfix_options_template_round_trips_as_a_heartbeat() {
        let bytes = encode_ipfix_options_template(55, 3, 1);
        let (p, consumed) = decode_punctuation(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(p.version, IPFIX_VERSION);
        assert_eq!(p.export_ms, 55_000);
    }

    /// The punctuation the golden keepalives below carry.
    const GOLDEN_CLOCK: (u32, u32, u32) = (0x0102_0304, 0x0506_0708, 0x090a_0b0c);

    fn golden_punctuation(version: u16) -> Punctuation {
        Punctuation {
            version,
            export_ms: u64::from(GOLDEN_CLOCK.0) * 1000,
            sequence: GOLDEN_CLOCK.1,
            domain: GOLDEN_CLOCK.2,
        }
    }

    #[test]
    fn golden_v9_keepalive_pins_the_wire_layout() {
        #[rustfmt::skip]
        let golden: [u8; 40] = [
            0x00, 0x09,             // version
            0x00, 0x01,             // count: one record
            0x00, 0x00, 0x00, 0x00, // sys_uptime_ms
            0x01, 0x02, 0x03, 0x04, // unix_secs
            0x05, 0x06, 0x07, 0x08, // sequence
            0x09, 0x0a, 0x0b, 0x0c, // source id
            0x00, 0x01,             // flowset id: options template
            0x00, 0x14,             // flowset length
            0x01, 0x00,             // template id 256
            0x00, 0x04,             // scope length (bytes)
            0x00, 0x04,             // option length (bytes)
            0x00, 0x01,             // scope field: System
            0x00, 0x04,             //   length
            0x00, 0x22,             // option field: samplingInterval
            0x00, 0x04,             //   length
            0x00, 0x00,             // padding
        ];
        let (secs, sequence, source_id) = GOLDEN_CLOCK;
        assert_eq!(
            encode_v9_options_template(secs, sequence, source_id),
            golden
        );
        assert_eq!(
            decode_punctuation(&golden).unwrap(),
            (golden_punctuation(V9_VERSION), golden.len())
        );
    }

    #[test]
    fn golden_ipfix_keepalive_pins_the_wire_layout() {
        #[rustfmt::skip]
        let golden: [u8; 30] = [
            0x00, 0x0a,             // version
            0x00, 0x1e,             // message length
            0x01, 0x02, 0x03, 0x04, // export time
            0x05, 0x06, 0x07, 0x08, // sequence
            0x09, 0x0a, 0x0b, 0x0c, // observation domain
            0x00, 0x03,             // set id: options template
            0x00, 0x0e,             // set length
            0x01, 0x00,             // template id 256
            0x00, 0x02,             // field count
            0x00, 0x01,             // scope field count
            0x00, 0x01,             // scope field: System
            0x00, 0x04,             //   length
        ];
        let (secs, sequence, domain) = GOLDEN_CLOCK;
        assert_eq!(
            encode_ipfix_options_template(secs, sequence, domain),
            golden
        );
        assert_eq!(
            decode_punctuation(&golden).unwrap(),
            (golden_punctuation(IPFIX_VERSION), golden.len())
        );
    }

    #[test]
    fn v9_data_flowsets_are_rejected() {
        let mut bytes = encode_v9_options_template(1, 0, 0);
        bytes[20] = 1; // flowset id 1 → 257: a data flowset
        bytes[21] = 1;
        assert_eq!(
            decode_punctuation(&bytes).unwrap_err(),
            DecodeError::UnsupportedFlowset {
                version: V9_VERSION,
                id: 257
            }
        );
    }

    #[test]
    fn ipfix_data_sets_are_rejected() {
        let mut bytes = encode_ipfix_options_template(1, 0, 0);
        bytes[16] = 1; // set id 3 → 259: a data set
        bytes[17] = 3;
        assert_eq!(
            decode_punctuation(&bytes).unwrap_err(),
            DecodeError::UnsupportedFlowset {
                version: IPFIX_VERSION,
                id: 259
            }
        );
    }

    #[test]
    fn truncated_packets_are_rejected() {
        let v9 = encode_v9_options_template(1, 0, 0);
        assert!(decode_punctuation(&v9[..10]).is_err());
        assert!(decode_punctuation(&v9[..v9.len() - 4]).is_err());
        let ipfix = encode_ipfix_options_template(1, 0, 0);
        assert!(decode_punctuation(&ipfix[..ipfix.len() - 2]).is_err());
        assert!(decode_punctuation(&[0x00]).is_err());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        assert_eq!(
            decode_punctuation(&[0, 7, 0, 0]).unwrap_err(),
            DecodeError::BadVersion {
                found: 7,
                expected: &[9, 10]
            }
        );
    }

    #[test]
    fn decode_errors_name_the_format_they_decode() {
        let ipfix = encode_ipfix_options_template(1, 0, 0);
        assert_eq!(
            decode_mixed_stream(&ipfix[..10]).unwrap_err().to_string(),
            "truncated IPFIX header: have 10 bytes, need 16"
        );
        let v9 = encode_v9_options_template(1, 0, 0);
        assert_eq!(
            decode_mixed_stream(&v9[..6]).unwrap_err().to_string(),
            "truncated NetFlow v9 header: have 6 bytes, need 20"
        );
        assert_eq!(
            decode_mixed_stream(&[0, 7, 0, 0]).unwrap_err().to_string(),
            "unsupported NetFlow version 7 (expected 5, 9 or 10)"
        );
        assert_eq!(
            decode_mixed_stream(&[0]).unwrap_err().to_string(),
            "truncated NetFlow packet header: have 1 bytes, need 2"
        );
    }

    #[test]
    fn mixed_stream_interleaves_flows_and_heartbeats_in_file_order() {
        let flow = FlowRecord::new(
            10,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            1024,
            80,
            Protocol::Tcp,
        );
        let mut file = Vec::new();
        file.extend_from_slice(&encode_datagram(&[flow], 0, 0).unwrap());
        file.extend_from_slice(&encode_v9_options_template(60, 1, 0));
        file.extend_from_slice(&encode_ipfix_options_template(120, 2, 0));
        file.extend_from_slice(&encode_datagram(&[flow], 1, 0).unwrap());

        let items = decode_mixed_stream(&file).unwrap();
        assert_eq!(items.len(), 4);
        assert!(matches!(&items[0], TraceItem::Flows(d) if d.flows.len() == 1));
        assert!(
            matches!(&items[1], TraceItem::Heartbeat(p) if p.export_ms == 60_000
                && p.version == V9_VERSION)
        );
        assert!(
            matches!(&items[2], TraceItem::Heartbeat(p) if p.export_ms == 120_000
                && p.version == IPFIX_VERSION)
        );
        assert!(matches!(&items[3], TraceItem::Flows(_)));
    }

    #[test]
    fn mixed_stream_rejects_garbage() {
        assert!(decode_mixed_stream(&[1, 2, 3, 4]).is_err());
    }

    /// A v9 header counting one record, `flowsets` empty template
    /// flowsets of 4 bytes each that count none, and then the record.
    fn v9_behind_empty_flowsets(flowsets: usize) -> Vec<u8> {
        let keepalive = encode_v9_options_template(7, 0, 0);
        let mut packet = keepalive[..V9_HEADER_LEN].to_vec();
        for _ in 0..flowsets {
            packet.extend_from_slice(&[0, 0, 0, 4]);
        }
        packet.extend_from_slice(&keepalive[V9_HEADER_LEN..]);
        packet
    }

    #[test]
    fn a_packet_of_an_exports_size_is_framed_whole() {
        // 64 040 bytes, nearly one refill buffer, then a v5 datagram.
        let mut file = v9_behind_empty_flowsets(16_000);
        file.extend_from_slice(&encode_datagram(&[], 0, 0).unwrap());

        let items = decode_mixed_stream(&file).unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], TraceItem::Heartbeat(p) if p.export_ms == 7_000));
        assert!(matches!(&items[1], TraceItem::Flows(d) if d.flows.is_empty()));
    }

    /// A v9 packet whose flowsets never meet its record count fails once
    /// it fills the buffer, without growing it: after at most two buffers
    /// pulled from the source, not at the end of a megabyte.
    #[test]
    fn a_packet_that_fills_the_buffer_unframed_is_an_error() {
        /// A source that counts the bytes pulled from it.
        struct Counted<'a>(&'a [u8], usize);
        impl Read for Counted<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.0.read(buf)?;
                self.1 += n;
                Ok(n)
            }
        }
        let file = v9_behind_empty_flowsets(1 << 18);
        let mut reader = TraceReader::new(Counted(&file, 0));
        assert!(matches!(
            reader.next(),
            Some(Err(ReadError::Decode(DecodeError::PacketTooLong {
                have: READ_CHUNK
            })))
        ));
        assert!(reader.next().is_none(), "the capture ends at its error");
        assert!(
            reader.source.1 <= 2 * READ_CHUNK,
            "{} bytes pulled",
            reader.source.1
        );
        assert_eq!(reader.buf.len(), READ_CHUNK, "the buffer grew");
    }

    #[test]
    fn io_errors_end_the_capture() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let mut reader = TraceReader::new(Failing);
        assert!(
            matches!(reader.next(), Some(Err(ReadError::Io(e))) if e.to_string() == "disk on fire")
        );
        assert!(reader.next().is_none());
    }

    #[test]
    fn a_reader_waits_after_a_short_read_that_framed_no_whole_packet() {
        /// A pipe: each read hands over the next chunk, whatever it asks.
        struct Pipe(std::collections::VecDeque<Vec<u8>>);
        impl Read for Pipe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let chunk = self.0.pop_front().unwrap_or_default();
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
        }
        let flow = FlowRecord::new(
            0,
            Ipv4Addr::LOCALHOST,
            Ipv4Addr::LOCALHOST,
            1,
            2,
            Protocol::Udp,
        );
        let datagram = |seq| encode_datagram(&[flow], seq, 0).unwrap();
        let (one, two, three) = (datagram(0), datagram(1), datagram(2));
        let chunks = [
            [&one[..], &two[..10]].concat(),
            [&two[10..], &three[..]].concat(),
        ];
        let mut reader = TraceReader::new(Pipe(chunks.into()));
        let mut flows = Vec::new();
        assert!(!reader.waits(), "nothing read yet");
        assert!(reader.read_into(&mut flows).is_some());
        assert!(reader.waits(), "a short read left part of a datagram");
        assert!(reader.read_into(&mut flows).is_some());
        assert!(!reader.waits(), "a whole datagram is buffered");
        assert!(reader.read_into(&mut flows).is_some());
        assert!(reader.waits(), "nothing is buffered");
        assert!(reader.read_into(&mut flows).is_none());
        assert_eq!(flows.len(), 3);

        let file = [one, two, three].concat();
        let mut reader = TraceReader::new(&file[..]);
        assert!(reader.read_into(&mut flows).is_some());
        assert!(!reader.waits(), "a file's buffered datagrams are whole");
    }

    #[test]
    fn template_record_counting_handles_multiple_and_padding() {
        // Two plain templates in one flowset, then 2 bytes of padding.
        let mut buf = Vec::new();
        put_u16(&mut buf, V9_VERSION);
        put_u16(&mut buf, 2); // two records
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 9); // unix_secs
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        put_u16(&mut buf, 0); // flowset id 0: templates
        put_u16(&mut buf, 4 + 12 + 12 + 2); // flowset length
        for template_id in [256u16, 257] {
            put_u16(&mut buf, template_id);
            put_u16(&mut buf, 2); // field count
            put_u16(&mut buf, 8); // IN_BYTES
            put_u16(&mut buf, 4);
            put_u16(&mut buf, 12); // IPV4_DST_ADDR
            put_u16(&mut buf, 4);
        }
        put_u16(&mut buf, 0); // padding
        let (p, consumed) = decode_punctuation(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(p.export_ms, 9000);
    }
}
