//! The legacy surface the frozen benchmark replica imports:
//! `v5::decode_stream_into_columns` decodes what the capture reader
//! decodes. On any bytes it appends the rows `TraceReader::read_into`
//! yields before its first packet that is not a v5 datagram, as
//! `FlowColumns::from_flows` stores them, and returns their headers.
//! At that packet it fails with the v5 decoder's error, which is the
//! reader's own error whenever the packet carries version 5.

use std::net::Ipv4Addr;

use anomex_netflow::v5::{
    decode_datagram, decode_stream_into_columns, V5Exporter, V5Header, V5_HEADER_LEN, V5_RECORD_LEN,
};
use anomex_netflow::v9::{Packet, TraceReader};
use anomex_netflow::{DecodeError, FlowColumns, FlowRecord, Protocol, ReadError, TcpFlags};
use proptest::prelude::*;

/// What the capture reader accepts of `bytes` as v5 datagrams, and what
/// a v5-only decoder must then report: the rows and headers before the
/// first packet that is not a v5 datagram, and the error at it (`None`
/// when the reader reached the end).
fn reference(bytes: &[u8]) -> (FlowColumns, Vec<V5Header>, Option<DecodeError>) {
    let mut reader = TraceReader::new(bytes);
    let (mut flows, mut headers, mut at) = (Vec::new(), Vec::new(), 0);
    let stop = loop {
        match reader.read_into(&mut flows) {
            Some(Ok(Packet::Flows(header))) => {
                at += V5_HEADER_LEN + usize::from(header.count) * V5_RECORD_LEN;
                headers.push(header);
            }
            Some(Ok(Packet::Heartbeat(_))) => break Some(None),
            Some(Err(ReadError::Decode(e))) => break Some(Some(e)),
            Some(Err(ReadError::Io(e))) => panic!("reading a slice cannot fail: {e}"),
            None => break None,
        }
    };
    let error = stop.map(|reader_error| {
        let error = decode_datagram(&bytes[at..]).expect_err("the reader stopped here");
        if bytes[at..].starts_with(&[0, 5]) {
            assert_eq!(reader_error, Some(error.clone()), "a v5 packet fails alike");
        }
        error
    });
    (FlowColumns::from_flows(&flows), headers, error)
}

fn check(bytes: &[u8]) {
    let (rows, ref_headers, ref_error) = reference(bytes);
    let mut cols = FlowColumns::new();
    match decode_stream_into_columns(bytes, &mut cols) {
        Ok(headers) => {
            assert_eq!(ref_error, None);
            assert_eq!(headers, ref_headers);
        }
        Err(e) => assert_eq!(Some(e), ref_error),
    }
    // Success or failure, the store holds exactly the accepted prefix.
    assert_eq!(cols, rows);
}

fn flow(i: u32) -> FlowRecord {
    FlowRecord {
        start_ms: u64::from(i) * 7,
        end_ms: u64::from(i) * 7 + 3,
        src_ip: Ipv4Addr::from(0x0a00_0000 + i),
        dst_ip: Ipv4Addr::from(0xc0a8_0000 + i % 5),
        src_port: 1024 + i as u16,
        dst_port: 80,
        proto: Protocol::from_number((i % 3) as u8 + 6),
        packets: i + 1,
        bytes: 40 * (i + 1),
        tcp_flags: TcpFlags(i as u8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, almost always invalid; half of them carry the
    /// v5 version word up front, so the first packet gets past it.
    #[test]
    fn decode_stream_into_columns_matches_the_reader_on_arbitrary_bytes(
        mut raw in proptest::collection::vec(any::<u8>(), 0..256),
        v5_word in any::<bool>(),
    ) {
        if v5_word && raw.len() >= 2 {
            raw[..2].copy_from_slice(&[0, 5]);
        }
        check(&raw);
    }

    /// Exporter-written streams: valid, cut at an arbitrary byte, or
    /// corrupted in the last datagram's version or the first one's count.
    #[test]
    fn decode_stream_into_columns_matches_the_reader_on_exported_streams(
        take in 0u32..75,
        cut in 0usize..4096,
        corruption in 0u8..4,
    ) {
        let flows: Vec<FlowRecord> = (0..take).map(flow).collect();
        let mut bytes = Vec::new();
        let mut last_start = 0;
        for dgram in V5Exporter::new().export(&flows) {
            last_start = bytes.len();
            bytes.extend_from_slice(&dgram);
        }
        match corruption {
            1 if !bytes.is_empty() => bytes.truncate(cut % (bytes.len() + 1)),
            2 if !bytes.is_empty() => bytes[last_start] = 0xff,
            3 if bytes.len() >= 4 => bytes[2] = 0xff,
            _ => {}
        }
        check(&bytes);
        if corruption == 0 {
            let mut cols = FlowColumns::new();
            let headers = decode_stream_into_columns(&bytes, &mut cols).unwrap();
            prop_assert_eq!(headers.len(), flows.len().div_ceil(30));
            // The store keeps the seven engine fields of every flow: a row
            // widened at time 0 is the flow at time 0 with no duration
            // or TCP flags.
            let held: Vec<FlowRecord> = (flows.iter())
                .map(|&f| FlowRecord { start_ms: 0, end_ms: 0, tcp_flags: TcpFlags::default(), ..f })
                .collect();
            prop_assert_eq!(cols.to_flows(0), held);
        }
    }
}
