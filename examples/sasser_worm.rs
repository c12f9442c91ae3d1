//! Union vs. intersection pre-filtering on a multi-stage anomaly — the
//! paper's Sasser-worm argument (§II-A).
//!
//! Sasser propagates in stages: (1) SYN scans on port 445 to find victims,
//! (2) connections to a backdoor on port 9996, (3) download of the 16-kB
//! worm executable. Detectors annotate the alarm with meta-data from
//! *different stages* — flags that appear in *different flows*. A filter
//! keeping flows that match ALL meta-data (intersection) finds nothing; the
//! paper's union filter recovers every stage.
//!
//! ```sh
//! cargo run --release --example sasser_worm
//! ```

use std::net::Ipv4Addr;

use anomex::core::{render_report, PrefilterMode};
use anomex::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the three-stage Sasser footprint plus web background.
fn sasser_trace() -> Vec<FlowRecord> {
    let mut rng = StdRng::seed_from_u64(4);
    let infected = Ipv4Addr::new(10, 5, 5, 5);
    let mut flows = Vec::new();

    // Stage 1: SYN scan on 445 — 4 000 one-packet probes.
    for i in 0..4000u32 {
        flows.push(
            FlowRecord::new(
                u64::from(i) * 10,
                infected,
                Ipv4Addr::from(0x0a10_0000 + i),
                rng.random_range(1024..=u16::MAX),
                445,
                Protocol::Tcp,
            )
            .with_volume(1, 40)
            .with_flags(TcpFlags::syn_only()),
        );
    }
    // Stage 2: backdoor connections on port 9996 to the responsive hosts.
    for i in 0..1500u32 {
        flows.push(
            FlowRecord::new(
                40_000 + u64::from(i) * 20,
                infected,
                Ipv4Addr::from(0x0a10_0000 + i * 2),
                rng.random_range(1024..=u16::MAX),
                9996,
                Protocol::Tcp,
            )
            .with_volume(6, 480),
        );
    }
    // Stage 3: 16-kB executable download — a fixed flow size (12 packets).
    for i in 0..1500u32 {
        flows.push(
            FlowRecord::new(
                70_000 + u64::from(i) * 20,
                Ipv4Addr::from(0x0a10_0000 + i * 2),
                infected,
                rng.random_range(1024..=u16::MAX),
                5554,
                Protocol::Tcp,
            )
            .with_volume(12, 16_384),
        );
    }
    // Benign web background.
    for i in 0..20_000u32 {
        flows.push(
            FlowRecord::new(
                u64::from(i) * 5,
                Ipv4Addr::from(0x0a00_0000 + (i % 4096)),
                Ipv4Addr::from(0x5000_0000 + i),
                rng.random_range(1024..=u16::MAX),
                80,
                Protocol::Tcp,
            )
            .with_volume(rng.random_range(2..40), rng.random_range(100..50_000)),
        );
    }
    flows.sort_by_key(|f| f.start_ms);
    flows
}

fn main() {
    let flows = sasser_trace();

    // The alarm's meta-data names one artifact of each stage — port 445
    // (scan), port 9996 (backdoor), and the 12-packet download size —
    // exactly the flow-disjoint situation §II-A describes.
    let mut metadata = MetaData::new();
    metadata.insert(FlowFeature::DstPort, 445);
    metadata.insert(FlowFeature::DstPort, 9996);
    metadata.insert(FlowFeature::Packets, 12);

    println!("trace: {} flows; meta-data:\n{metadata}\n", flows.len());

    for prefilter in [PrefilterMode::Intersection, PrefilterMode::Union] {
        let config = ExtractionConfig {
            min_support: 1000,
            prefilter,
            ..ExtractionConfig::default()
        };
        let engine = Engine::sequential(config).expect("valid configuration");
        let extraction = engine.extract(&flows, &metadata);
        println!("=== {prefilter:?} pre-filter ===");
        println!(
            "suspicious flows: {} / {}",
            extraction.suspicious_flows, extraction.total_flows
        );
        if extraction.itemsets.is_empty() {
            println!("-> NOTHING extracted: the anomaly is missed entirely\n");
        } else {
            println!("{}", render_report(&extraction));
        }
    }

    println!(
        "The intersection is empty because no single flow carries port 445 AND\n\
         port 9996 AND 12 packets — the union recovers all three worm stages\n\
         (paper §II-A; DoWitcher comparison in §IV)."
    );
}
