//! Property-based tests for the flow substrate.

use std::io::{self, Read};
use std::net::Ipv4Addr;
use std::ops::Range;

use anomex_netflow::snapshot::{SnapshotReader, SnapshotWriter};
use anomex_netflow::v5::{decode_datagram, encode_datagram, V5Collector, V5Datagram, V5Exporter};
use anomex_netflow::v9::{
    decode_mixed_stream, encode_ipfix_options_template, encode_v9_options_template, Packet,
    Punctuation, TraceItem, TraceReader, IPFIX_VERSION, V9_VERSION,
};
use anomex_netflow::{
    CaptureColumns, ClosedInterval, DecodeError, FlowColumns, FlowFeature, FlowRecord, FlowRun,
    FlowTrace, IntervalAssembler, MergeAssembler, MergeConfig, MergedInterval, Protocol, ReadError,
    SourceId, SourceSpec, TcpFlags,
};
use proptest::prelude::*;

fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        0u64..10_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        1u32..100_000,
        1u32..100_000_000,
        any::<u8>(),
        0u64..60_000,
    )
        .prop_map(
            |(start, src, dst, sport, dport, proto, pkts, bytes, flags, dur)| FlowRecord {
                start_ms: start,
                end_ms: start + dur,
                src_ip: Ipv4Addr::from(src),
                dst_ip: Ipv4Addr::from(dst),
                src_port: sport,
                dst_port: dport,
                proto: Protocol::from_number(proto),
                packets: pkts,
                bytes,
                tcp_flags: TcpFlags(flags),
            },
        )
}

/// The windows a plain assembler closed, as a one-lane grid must close
/// them: on grid time (origin-relative), weighted by their own flows.
fn as_grid(closed: impl IntoIterator<Item = ClosedInterval>, origin: u64) -> Vec<MergedInterval> {
    let grid = |c: ClosedInterval| MergedInterval {
        index: c.index,
        begin_ms: c.begin_ms - origin,
        end_ms: c.end_ms - origin,
        source_flows: vec![c.flows.len()],
        flows: c.flows,
    };
    closed.into_iter().map(grid).collect()
}

/// An independent copy of an assembler, through its snapshot codec.
fn copy_of(assembler: &IntervalAssembler) -> IntervalAssembler {
    let mut w = SnapshotWriter::new();
    assembler.encode_snapshot(&mut w);
    let bytes = w.into_bytes();
    IntervalAssembler::decode_snapshot(&mut SnapshotReader::new(&bytes)).unwrap()
}

/// A snapshot payload: what `encode` writes.
fn snapshot(encode: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    encode(&mut w);
    w.into_bytes()
}

/// A mixed capture of `packets` — `(kind, flows, salt)`: kind 0 exports
/// `flows` flows as v5 datagrams, 1 a v9 keepalive, 2 an IPFIX one — and
/// the items it holds, each packet decoded on its own.
fn capture(packets: &[(u8, usize, u32)]) -> (Vec<u8>, Vec<TraceItem>) {
    let mut exporter = V5Exporter::new();
    let (mut bytes, mut items) = (Vec::new(), Vec::new());
    for (i, &(kind, flows, salt)) in packets.iter().enumerate() {
        let sequence = i as u32;
        let heartbeat = |version| {
            TraceItem::Heartbeat(Punctuation {
                version,
                export_ms: u64::from(salt) * 1000,
                sequence,
                domain: salt,
            })
        };
        match kind {
            0 => {
                let flows: Vec<FlowRecord> = (0..flows as u32)
                    .map(|j| {
                        let ip = Ipv4Addr::from(salt ^ j);
                        FlowRecord::new(u64::from(j), ip, ip, j as u16, 80, Protocol::Tcp)
                    })
                    .collect();
                for datagram in exporter.export(&flows) {
                    bytes.extend_from_slice(&datagram);
                    items.push(TraceItem::Flows(decode_datagram(&datagram).unwrap()));
                }
            }
            1 => {
                bytes.extend_from_slice(&encode_v9_options_template(salt, sequence, salt));
                items.push(heartbeat(V9_VERSION));
            }
            _ => {
                bytes.extend_from_slice(&encode_ipfix_options_template(salt, sequence, salt));
                items.push(heartbeat(IPFIX_VERSION));
            }
        }
    }
    (bytes, items)
}

/// Flow `j` of step `i`, starting at `start_ms`, with every other field
/// set from `i` and `j`: neighbouring rows differ in every column, so a
/// column copied one row off shows.
fn varied_flow(start_ms: u64, i: usize, j: usize) -> FlowRecord {
    let (i, j) = (i as u32, j as u32);
    FlowRecord::new(
        start_ms,
        Ipv4Addr::from(i << 16 | j),
        Ipv4Addr::from(!(j << 16 | i)),
        i as u16,
        j as u16,
        Protocol::from_number((i + j) as u8),
    )
    .with_volume(j + 1, (i + 1) * (j + 1) * 40)
    .with_end(start_ms + u64::from(j))
    .with_flags(TcpFlags((i ^ j) as u8))
}

/// `flow` as a column store holds it: every field but the end time and
/// the TCP flags, which take `FlowRecord::new`'s defaults.
fn held(flow: &FlowRecord) -> FlowRecord {
    let (end_ms, tcp_flags) = (flow.start_ms, TcpFlags::default());
    FlowRecord {
        end_ms,
        tcp_flags,
        ..*flow
    }
}

/// Rows `rows` of `block` as records: each row's engine columns widened
/// at its own start time, from the block's `first` column.
fn widen(block: &CaptureColumns, rows: Range<usize>) -> Vec<FlowRecord> {
    let run = block.run(rows);
    (0..run.flow_count())
        .map(|i| {
            let mut row = FlowColumns::new();
            run.append_rows(i..i + 1, &mut row);
            row.to_flows(run.start_ms_at(i))[0]
        })
        .collect()
}

/// `flows` exported as v5 datagrams and read back: as records, and as
/// one wire-width capture block whose rows widen to those records, but
/// for the fields a block does not hold.
fn read_back(flows: &[FlowRecord]) -> (Vec<FlowRecord>, CaptureColumns) {
    let bytes = V5Exporter::new().export(flows).concat();
    let (mut records, mut block) = (Vec::new(), CaptureColumns::default());
    let mut reader = TraceReader::new(&bytes[..]);
    while let Some(packet) = reader.read_into(&mut records) {
        packet.unwrap();
    }
    let mut reader = TraceReader::new(&bytes[..]);
    while let Some(packet) = reader.read_columns(&mut block) {
        packet.unwrap();
    }
    let rows = widen(&block, 0..block.len());
    let held: Vec<FlowRecord> = records.iter().map(held).collect();
    assert_eq!(rows, held, "rows widen to the records");
    (records, block)
}

/// A source that hands out `data` a few bytes per read — read `i` returns
/// at most `sizes[i % sizes.len()]` — failing every other read with
/// `Interrupted` when `interrupt` is set.
struct Trickle<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    interrupt: bool,
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.interrupt && self.reads % 2 == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.sizes[self.reads % self.sizes.len()]
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a reader's append path yields: each datagram's records
/// appended to one `Vec`, the packets, then its one error if any — in
/// the iterator's terms, so the two paths compare directly.
fn drain_into(mut reader: TraceReader<impl Read>) -> (Vec<TraceItem>, Option<DecodeError>) {
    let (mut flows, mut items, mut error) = (Vec::new(), Vec::new(), None);
    loop {
        let before = flows.len();
        let Some(packet) = reader.read_into(&mut flows) else {
            break;
        };
        assert!(error.is_none(), "the reader yielded past its error");
        match packet {
            Ok(Packet::Flows(header)) => {
                let flows = flows[before..].to_vec();
                items.push(TraceItem::Flows(V5Datagram { header, flows }));
                continue;
            }
            Ok(Packet::Heartbeat(punct)) => items.push(TraceItem::Heartbeat(punct)),
            Err(ReadError::Decode(e)) => error = Some(e),
            Err(ReadError::Io(e)) => panic!("a source that never fails failed: {e}"),
        }
        assert_eq!(flows.len(), before, "only a datagram appends flows");
    }
    (items, error)
}

/// Everything a reader's columnar path yields: each datagram's rows
/// appended to one wire-width block, widened back to records per
/// packet, then its one error if any — in the iterator's terms, so the
/// paths compare directly.
fn drain_columns(mut reader: TraceReader<impl Read>) -> (Vec<TraceItem>, Option<DecodeError>) {
    let (mut block, mut items, mut error) = (CaptureColumns::default(), Vec::new(), None);
    loop {
        let before = block.len();
        let Some(packet) = reader.read_columns(&mut block) else {
            break;
        };
        assert!(error.is_none(), "the reader yielded past its error");
        match packet {
            Ok(Packet::Flows(header)) => {
                let flows = widen(&block, before..block.len());
                items.push(TraceItem::Flows(V5Datagram { header, flows }));
                continue;
            }
            Ok(Packet::Heartbeat(punct)) => items.push(TraceItem::Heartbeat(punct)),
            Err(ReadError::Decode(e)) => error = Some(e),
            Err(ReadError::Io(e)) => panic!("a source that never fails failed: {e}"),
        }
        assert_eq!(block.len(), before, "only a datagram appends rows");
    }
    (items, error)
}

/// Everything a reader yields: its items, then its one error if any.
fn drain(reader: TraceReader<impl Read>) -> (Vec<TraceItem>, Option<DecodeError>) {
    let (mut items, mut error) = (Vec::new(), None);
    for item in reader {
        assert!(error.is_none(), "the reader yielded past its error");
        match item {
            Ok(item) => items.push(item),
            Err(ReadError::Decode(e)) => error = Some(e),
            Err(ReadError::Io(e)) => panic!("a source that never fails failed: {e}"),
        }
    }
    (items, error)
}

proptest! {
    /// The capture reader frames a capture the same whatever sizes its
    /// source's reads return: over mixed v5/v9/IPFIX captures (often
    /// longer than the reader's 64 KiB buffer), intact,
    /// cut at any offset or with one byte flipped, a source that returns
    /// 1..=k bytes per read (and is interrupted) yields exactly the items
    /// of one read of the whole capture, then the same first error —
    /// which is `decode_mixed_stream`'s answer — and so do its append
    /// paths: `read_into`, and `read_columns`, whose wire-width rows
    /// widen to the record path's. An intact capture yields its packets,
    /// each as decoded on its own.
    #[test]
    fn the_capture_reader_is_the_slice_decoder_at_any_read_size(
        packets in proptest::collection::vec((0u8..3, 0usize..=600, any::<u32>()), 0..24),
        (mutation, offset, flip) in (0u8..3, any::<usize>(), 1u8..=255),
        (k, sizes, interrupt) in (
            1usize..=64,
            proptest::collection::vec(any::<usize>(), 1..8),
            any::<bool>(),
        ),
    ) {
        let (mut bytes, packets) = capture(&packets);
        match mutation {
            0 => {}
            1 => bytes.truncate(offset % (bytes.len() + 1)),
            _ if bytes.is_empty() => {}
            _ => {
                let at = offset % bytes.len();
                bytes[at] ^= flip;
            }
        }
        let whole = drain(TraceReader::new(&bytes[..]));
        let trickle = Trickle {
            data: &bytes,
            sizes: sizes.iter().map(|s| 1 + s % k).collect(),
            interrupt,
            reads: 0,
        };
        prop_assert_eq!(&drain(TraceReader::new(trickle)), &whole);
        // The append path, through the same trickle: a packet decoded
        // again after a short read appends its records once.
        let trickle = Trickle {
            data: &bytes,
            sizes: sizes.iter().map(|s| 1 + s % k).collect(),
            interrupt,
            reads: 0,
        };
        prop_assert_eq!(&drain_into(TraceReader::new(trickle)), &whole);
        // The columnar path, through the same trickle: the same packets
        // in the same order, rows that widen to the records but for the
        // fields a block does not hold, and the same first error after
        // the same packets.
        let trickle = Trickle {
            data: &bytes,
            sizes: sizes.iter().map(|s| 1 + s % k).collect(),
            interrupt,
            reads: 0,
        };
        let held_items = (whole.0.iter())
            .map(|item| match item {
                TraceItem::Flows(d) => TraceItem::Flows(V5Datagram {
                    header: d.header,
                    flows: d.flows.iter().map(held).collect(),
                }),
                beat => beat.clone(),
            })
            .collect();
        prop_assert_eq!(drain_columns(TraceReader::new(trickle)), (held_items, whole.1.clone()));
        match decode_mixed_stream(&bytes) {
            Ok(items) => prop_assert_eq!((items, None), whole),
            Err(e) => prop_assert_eq!(Some(e), whole.1),
        }
        if mutation == 0 {
            prop_assert_eq!(whole, (packets, None));
        }
    }

    /// A one-lane merge grid is the plain interval assembler. For any
    /// arrival sequence — a clock that mostly runs forward, jumps ahead
    /// across empty windows, steps back into closed windows (late) or
    /// before the origin (pre-origin), with heartbeats mixed in — both
    /// emit the same windows at the same arrivals (index, bounds, flows,
    /// empties included) and count the same late and pre-origin drops.
    /// A grid rebuilt from the plain assembler at an arbitrary cut
    /// ([`MergeAssembler::from_single`], the version-1 checkpoint
    /// reader) continues exactly like the grid that ran all along.
    #[test]
    fn one_lane_merge_is_the_plain_assembler(
        steps in proptest::collection::vec((0u8..8, 0u64..3_000, 0u8..5), 0..250),
        origin in 0u64..2_000,
        interval_ms in 200u64..2_000,
        cut_pct in 0usize..=100,
    ) {
        let (src, ip) = (SourceId(0), Ipv4Addr::LOCALHOST);
        let mut plain = IntervalAssembler::new(origin, interval_ms);
        let lane = [SourceSpec::new(0u32, origin)];
        let mut merged = MergeAssembler::try_new(MergeConfig::new(interval_ms), &lane).unwrap();
        let cut = steps.len() * cut_pct / 100;
        let mut resumed: Option<MergeAssembler> = None;
        let (mut now, mut flows) = (0u64, 0u64);
        for (i, &(kind, delta, back)) in steps.iter().enumerate() {
            if i == cut {
                resumed = Some(MergeAssembler::from_single(copy_of(&plain), flows));
            }
            now = if back == 0 { now.saturating_sub(delta) } else { now + delta };
            let (expected, got, again) = if kind == 0 {
                (
                    plain.advance_to(now),
                    merged.heartbeat(src, now),
                    resumed.as_mut().map(|r| r.heartbeat(src, now)),
                )
            } else {
                flows += 1;
                let flow = FlowRecord::new(now, ip, ip, i as u16, 2, Protocol::Udp);
                (
                    plain.push(flow),
                    merged.push(src, flow),
                    resumed.as_mut().map(|r| r.push(src, flow)),
                )
            };
            if let Some(again) = again {
                prop_assert_eq!(&again, &got);
            }
            prop_assert_eq!(got, as_grid(expected, origin));
        }
        let mut resumed =
            resumed.unwrap_or_else(|| MergeAssembler::from_single(copy_of(&plain), flows));
        let tail = merged.flush();
        prop_assert_eq!(&resumed.flush(), &tail);
        prop_assert_eq!(tail, as_grid(plain.flush(), origin));
        let stats = merged.source_stats()[0];
        prop_assert_eq!(stats.flows, flows);
        prop_assert_eq!(stats.late_flows, plain.late_flows());
        prop_assert_eq!(stats.pre_origin_flows, plain.pre_origin_flows());
        prop_assert_eq!(stats.stale_flows, 0);
        prop_assert_eq!(resumed.source_stats(), merged.source_stats());
    }

    /// A run is a per-flow fold cut at its first closing flow, in either
    /// layout. Over one to three sources with their own origins, each
    /// fed runs of flows on a clock that mostly runs forward, jumps
    /// several windows ahead, or steps back into closed windows (late)
    /// or before the origin (pre-origin), with heartbeats and
    /// `finish_source` in between and a lateness bound of none or 0..3
    /// intervals. One source in four has its origin and clock past the
    /// wire's 32 bits: its heartbeats open windows there, and every flow
    /// it sends, which the wire cuts to the low 32 bits, is pre-origin
    /// or late — unless a window test reads unwidened times. Each run
    /// is exported as v5 datagrams and read back, as records and as a
    /// wire-width capture block: every `IntervalAssembler::push_run`, on
    /// the records or on a row range of the block, consumes exactly the
    /// flows up to and including the first one whose `push` closes a
    /// window, and returns what that push returned; every
    /// `MergeAssembler::push_run` stops at the same flow and returns the
    /// grid intervals that `push` on each of those flows returns. After
    /// every call, the `SourceStats` and all snapshots' bytes equal the
    /// per-flow fold's.
    #[test]
    fn push_run_is_push_on_each_flow_up_to_the_first_close(
        origins in proptest::collection::vec((0u64..3_000, 0u8..4), 1..=3),
        interval_ms in 200u64..2_000,
        lag in 0u64..=3,
        bounded in any::<bool>(),
        steps in proptest::collection::vec(
            (0u8..16, 0usize..3, proptest::collection::vec((0u64..4_000, 0u8..6), 0..24)),
            0..40,
        ),
    ) {
        const WRAP: u64 = 1 << 32;
        let origins: Vec<u64> = (origins.iter())
            .map(|&(origin, past_the_wire)| origin + WRAP * u64::from(past_the_wire == 0))
            .collect();
        let specs: Vec<SourceSpec> = (0u32..).zip(&origins).map(|(i, &o)| SourceSpec::new(i, o)).collect();
        let config = MergeConfig {
            interval_ms,
            max_lag_intervals: bounded.then_some(lag),
        };
        // Per layout — record runs, capture rows, and the per-flow fold
        // both must equal — one grid and one plain assembler per source.
        let grid = || MergeAssembler::try_new(config, &specs).unwrap();
        let (mut by_run, mut by_rows, mut by_flow) = (grid(), grid(), grid());
        let lanes = || -> Vec<IntervalAssembler> {
            origins.iter().map(|&o| IntervalAssembler::new(o, interval_ms)).collect()
        };
        let (mut runs, mut rows, mut flows) = (lanes(), lanes(), lanes());
        let mut clocks: Vec<u64> = origins.iter().map(|&o| o / WRAP * WRAP).collect();
        let mut finished = vec![false; origins.len()];
        for (i, (kind, source, deltas)) in steps.into_iter().enumerate() {
            let s = source % origins.len();
            let src = SourceId(s as u32);
            if finished[s] {
                continue;
            }
            match kind {
                0 => {
                    let now = clocks[s] + deltas.first().map_or(0, |d| d.0);
                    let expected = by_flow.heartbeat(src, now);
                    prop_assert_eq!(by_run.heartbeat(src, now), expected.clone());
                    prop_assert_eq!(by_rows.heartbeat(src, now), expected);
                    let expected = flows[s].advance_to(now);
                    prop_assert_eq!(runs[s].advance_to(now), expected.clone());
                    prop_assert_eq!(rows[s].advance_to(now), expected);
                }
                1 => {
                    finished[s] = true;
                    let expected = by_flow.finish_source(src);
                    prop_assert_eq!(by_run.finish_source(src), expected.clone());
                    prop_assert_eq!(by_rows.finish_source(src), expected);
                    let expected = flows[s].flush();
                    prop_assert_eq!(runs[s].flush(), expected.clone());
                    prop_assert_eq!(rows[s].flush(), expected);
                }
                _ => {
                    // Mostly small steps forward; jumps of several
                    // windows, and steps back, now and then.
                    let run: Vec<FlowRecord> = (deltas.iter().enumerate())
                        .map(|(j, &(delta, how))| {
                            clocks[s] = match how {
                                0 => clocks[s].saturating_sub(delta),
                                1 => clocks[s] + delta * 3,
                                _ => clocks[s] + delta / 16,
                            };
                            varied_flow(clocks[s], i, j)
                        })
                        .collect();
                    let (records, block) = read_back(&run);
                    let mut at = 0;
                    while at < records.len() {
                        let rest = &records[at..];
                        let (mut n, mut expected) = (0, Vec::new());
                        for &flow in rest {
                            n += 1;
                            expected = flows[s].push(flow);
                            if !expected.is_empty() {
                                break;
                            }
                        }
                        let capture = block.run(at..records.len());
                        prop_assert_eq!(runs[s].push_run(rest), (n, expected.clone()));
                        prop_assert_eq!(rows[s].push_run(&capture), (n, expected));
                        let lane = snapshot(|w| flows[s].encode_snapshot(w));
                        prop_assert_eq!(snapshot(|w| runs[s].encode_snapshot(w)), lane.clone());
                        prop_assert_eq!(snapshot(|w| rows[s].encode_snapshot(w)), lane);

                        let expected: Vec<MergedInterval> =
                            rest[..n].iter().flat_map(|&flow| by_flow.push(src, flow)).collect();
                        prop_assert_eq!(by_run.push_run(src, rest), (n, expected.clone()));
                        prop_assert_eq!(by_rows.push_run(src, &capture), (n, expected));
                        let stats = by_flow.source_stats();
                        prop_assert_eq!(by_run.source_stats(), stats.clone());
                        prop_assert_eq!(by_rows.source_stats(), stats);
                        let grid = snapshot(|w| by_flow.encode_snapshot(w));
                        prop_assert_eq!(snapshot(|w| by_run.encode_snapshot(w)), grid.clone());
                        prop_assert_eq!(snapshot(|w| by_rows.encode_snapshot(w)), grid);
                        at += n;
                    }
                }
            }
        }
        let tail = by_flow.flush();
        prop_assert_eq!(by_run.flush(), tail.clone());
        prop_assert_eq!(by_rows.flush(), tail);
        prop_assert_eq!(by_run.source_stats(), by_flow.source_stats());
        prop_assert_eq!(by_rows.source_stats(), by_flow.source_stats());
        let drops = |a: &IntervalAssembler| (a.late_flows(), a.pre_origin_flows());
        for s in 0..origins.len() {
            prop_assert_eq!(drops(&runs[s]), drops(&flows[s]));
            prop_assert_eq!(drops(&rows[s]), drops(&flows[s]));
            if !finished[s] {
                let expected = flows[s].flush();
                prop_assert_eq!(runs[s].flush(), expected.clone());
                prop_assert_eq!(rows[s].flush(), expected);
            }
        }
    }

    /// Encoding then decoding a datagram preserves every modeled field.
    /// Note: v5 timestamps are u32 ms, so we constrain start times above.
    #[test]
    fn v5_round_trip(flows in proptest::collection::vec(arb_flow(), 0..=30)) {
        let bytes = encode_datagram(&flows, 42, 7).unwrap();
        let dgram = decode_datagram(&bytes).unwrap();
        prop_assert_eq!(dgram.flows, flows);
    }

    /// Decoding arbitrary bytes never panics — it either parses or errors.
    #[test]
    fn v5_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decode_datagram(&data);
    }

    /// Exporter → collector is lossless for arbitrary flow streams.
    #[test]
    fn export_collect_lossless(flows in proptest::collection::vec(arb_flow(), 0..200)) {
        let mut exporter = V5Exporter::new();
        let mut collector = V5Collector::new();
        for dgram in exporter.export(&flows) {
            collector.ingest(&dgram).unwrap();
        }
        prop_assert_eq!(collector.lost_flows(), 0);
        prop_assert_eq!(collector.into_flows(), flows);
    }

    /// Interval slicing partitions the trace: every flow appears in exactly
    /// one interval and the interval windows tile the time axis.
    #[test]
    fn intervals_partition(
        flows in proptest::collection::vec(arb_flow(), 1..300),
        interval_ms in 1u64..100_000,
    ) {
        let n = flows.len();
        let trace = FlowTrace::from_flows(flows);
        let ivs = trace.intervals(0, interval_ms);
        let total: usize = ivs.iter().map(|iv| iv.flows.len()).sum();
        prop_assert_eq!(total, n);
        for (i, iv) in ivs.iter().enumerate() {
            prop_assert_eq!(iv.index, i as u64);
            prop_assert_eq!(iv.end_ms - iv.begin_ms, interval_ms);
            for f in iv.flows {
                prop_assert!(f.start_ms >= iv.begin_ms && f.start_ms < iv.end_ms);
            }
        }
    }

    /// Streaming assembly of a time-sorted flow stream produces the same
    /// interval contents as batch slicing.
    #[test]
    fn streaming_equals_batch(
        flows in proptest::collection::vec(arb_flow(), 1..300),
        interval_ms in 1u64..100_000,
    ) {
        let mut sorted = flows;
        sorted.sort_by_key(|f| f.start_ms);

        let trace = FlowTrace::from_flows(sorted.clone());
        let batch: Vec<usize> = trace.intervals(0, interval_ms).iter().map(|iv| iv.flows.len()).collect();

        let mut asm = IntervalAssembler::new(0, interval_ms);
        let mut streamed = Vec::new();
        for f in sorted {
            for c in asm.push(f) {
                streamed.push(c.flows.len());
            }
        }
        if let Some(c) = asm.flush() {
            streamed.push(c.flows.len());
        }
        prop_assert_eq!(asm.late_flows(), 0);
        prop_assert_eq!(streamed, batch);
    }

    /// Feature extraction is total and the rendered value parses back for
    /// port/count features.
    #[test]
    fn feature_values_render(flow in arb_flow()) {
        for feat in FlowFeature::ALL {
            let v = feat.value_of(&flow);
            prop_assert!(v.matches(&flow));
            let s = v.render();
            match feat {
                FlowFeature::SrcIp | FlowFeature::DstIp => {
                    let ip: Ipv4Addr = s.parse().unwrap();
                    prop_assert_eq!(u64::from(u32::from(ip)), v.raw);
                }
                _ => {
                    prop_assert_eq!(s.parse::<u64>().unwrap(), v.raw);
                }
            }
        }
    }
}
