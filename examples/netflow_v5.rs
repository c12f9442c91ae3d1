//! NetFlow v5 wire-format round trip: what the bytes on the wire look
//! like, how sequence gaps (lost datagrams) are detected, and how decoded
//! flows feed the extraction pipeline.
//!
//! ```sh
//! cargo run --release --example netflow_v5
//! ```

use anomex::core::prefilter_indices_columns;
use anomex::netflow::v5::{decode_datagram, V5Collector, V5Exporter, V5_HEADER_LEN, V5_RECORD_LEN};
use anomex::netflow::FlowColumns;
use anomex::prelude::*;

fn main() {
    // Some flows to export: a short web session and a DNS lookup.
    let flows = vec![
        FlowRecord::new(
            1_000,
            "192.0.2.10".parse().unwrap(),
            "198.51.100.80".parse().unwrap(),
            51_234,
            80,
            Protocol::Tcp,
        )
        .with_volume(12, 9_000)
        .with_end(1_420)
        .with_flags(TcpFlags(TcpFlags::SYN | TcpFlags::ACK | TcpFlags::FIN)),
        FlowRecord::new(
            1_100,
            "192.0.2.10".parse().unwrap(),
            "198.51.100.53".parse().unwrap(),
            53_123,
            53,
            Protocol::Udp,
        )
        .with_volume(1, 64),
    ];

    // --- Export ---
    let mut exporter = V5Exporter::new();
    let datagrams = exporter.export(&flows);
    println!(
        "exported {} flows in {} datagram(s)",
        flows.len(),
        datagrams.len()
    );
    let wire = &datagrams[0];
    println!(
        "datagram: {} bytes = {}-byte header + {} x {}-byte records",
        wire.len(),
        V5_HEADER_LEN,
        flows.len(),
        V5_RECORD_LEN
    );
    print!("first 24 bytes (header):");
    for (i, b) in wire.iter().take(V5_HEADER_LEN).enumerate() {
        if i % 8 == 0 {
            print!("\n  ");
        }
        print!("{b:02x} ");
    }
    println!("\n");

    // --- Decode ---
    let dgram = decode_datagram(wire).expect("well-formed datagram");
    println!("decoded header: {:?}", dgram.header);
    for f in &dgram.flows {
        println!("decoded flow:   {f}");
    }
    assert_eq!(dgram.flows, flows, "lossless round trip");

    // --- Loss detection via sequence numbers ---
    let many: Vec<FlowRecord> = (0..90u32)
        .map(|i| {
            FlowRecord::new(
                u64::from(i) * 100,
                "192.0.2.10".parse().unwrap(),
                "198.51.100.80".parse().unwrap(),
                51_000 + i as u16,
                80,
                Protocol::Tcp,
            )
        })
        .collect();
    let mut exporter = V5Exporter::new();
    let dgrams = exporter.export(&many); // 3 datagrams of 30
    let mut collector = V5Collector::new();
    collector.ingest(&dgrams[0]).unwrap();
    // dgrams[1] is lost in transit...
    collector.ingest(&dgrams[2]).unwrap();
    println!(
        "\nloss detection: ingested 2 of 3 datagrams -> collector inferred {} lost flows",
        collector.lost_flows()
    );

    // --- Malformed input is rejected, not panicked on ---
    let err = decode_datagram(&wire[..10]).unwrap_err();
    println!("truncated datagram -> {err}");
    let mut wrong_version = wire.to_vec();
    wrong_version[1] = 9;
    let err = decode_datagram(&wrong_version).unwrap_err();
    println!("wrong version     -> {err}");

    // --- Straight into the pipeline ---
    let mut metadata = MetaData::new();
    metadata.insert(FlowFeature::DstPort, 80);
    let collected = FlowColumns::from_flows(&collector.into_flows());
    let suspicious = prefilter_indices_columns(&collected, &metadata, PrefilterMode::Union);
    println!(
        "\npre-filtering the collected flows against {{dstPort=80}} keeps {} flows",
        suspicious.len()
    );
}
