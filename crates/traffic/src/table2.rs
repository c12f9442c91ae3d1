//! The paper's §II-B worked example (Table II) as a reproducible workload.
//!
//! The paper took a 15-minute window where destination port 7000 was the
//! only flagged feature (53 467 candidate flows) and *artificially added*
//! the flows of the three most popular destination ports — 80 (252 069
//! flows), 9022 (22 667, backscatter), and 25 (22 659) — to force
//! false-positive item-sets. Apriori with s = 10 000 then produced 15
//! maximal item-sets. This module rebuilds that input set, component by
//! component, at any volume scale, and mines it as the paper did:
//! [`Table2Workload::apriori_extraction`] returns Apriori's maximal
//! item-sets and per-level audit trail, the example's narrative, with the
//! rounds derived from FP-growth's frequent item-sets.
//!
//! (The paper quotes 350 872 total flows while its per-port numbers sum to
//! 350 862; we reproduce the per-port numbers, which are the operative
//! ones.)

use std::net::Ipv4Addr;

use anomex_core::{
    cost_reduction, prefilter_indices_columns, Extraction, PrefilterMode, TransactionMode,
};
use anomex_detector::MetaData;
use anomex_mining::apriori::apriori;
use anomex_mining::AprioriConfig;
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol, TcpFlags};

use crate::inject::{backscatter, flooding};
use crate::rng::Rng;

/// Component volumes of the Table II input set at `scale = 1.0`.
pub mod paper_counts {
    /// Candidate anomalous flows on destination port 7000.
    pub const FLOODING: u64 = 53_467;
    /// Flows on the most popular destination port, 80.
    pub const WEB: u64 = 252_069;
    /// Backscatter flows on destination port 9022.
    pub const BACKSCATTER: u64 = 22_667;
    /// Mail flows on destination port 25.
    pub const SMTP: u64 = 22_659;
    /// The minimum support used in the example.
    pub const MIN_SUPPORT: u64 = 10_000;
}

/// The constructed workload with its named actors.
#[derive(Debug, Clone)]
pub struct Table2Workload {
    /// All flows (flooding + injected popular-port flows), time-sorted.
    pub flows: Vec<FlowRecord>,
    /// The flood victim (the paper's host E).
    pub victim: Ipv4Addr,
    /// The flooded destination port (7000).
    pub flood_port: u16,
    /// The flooding sources.
    pub flood_sources: Vec<Ipv4Addr>,
    /// The HTTP proxies/caches (the paper's hosts A, B, C).
    pub proxies: [Ipv4Addr; 3],
    /// The SMTP servers receiving the port-25 traffic.
    pub mail_servers: [Ipv4Addr; 2],
    /// The scaled minimum support matching the workload volume.
    pub min_support: u64,
}

impl Table2Workload {
    /// The example's meta-data: the flooded port and the three popular
    /// ports the paper added (80, 9022 and 25), all as `dstPort`.
    #[must_use]
    pub fn metadata(&self) -> MetaData {
        let mut metadata = MetaData::new();
        for port in [self.flood_port, 80, 9022, 25] {
            metadata.insert(FlowFeature::DstPort, u64::from(port));
        }
        metadata
    }

    /// Table II as the paper mined it: the flows pre-filtered with
    /// [`metadata`](Self::metadata) (union, canonical width-7
    /// transactions, as the engine's default configuration does) and
    /// mined by [`apriori`] for the maximal item-sets at
    /// [`min_support`](Self::min_support). Unlike an engine extraction,
    /// it carries Apriori's per-level audit trail in
    /// [`Extraction::levels`], derived from FP-growth's frequent
    /// item-sets. Interval 0, no rules.
    #[must_use]
    pub fn apriori_extraction(&self) -> Extraction {
        let metadata = self.metadata();
        let cols = FlowColumns::from_flows(&self.flows);
        let indices = prefilter_indices_columns(&cols, &metadata, PrefilterMode::Union);
        let set = TransactionMode::Canonical.transactions_at_columns(&cols, &indices);
        let mined = apriori(&set, &AprioriConfig::maximal(self.min_support));
        Extraction {
            interval: 0,
            metadata,
            total_flows: cols.len(),
            suspicious_flows: indices.len(),
            cost_reduction: cost_reduction(cols.len() as u64, mined.itemsets.len()),
            itemsets: mined.itemsets,
            levels: mined.levels,
            rules: None,
        }
    }
}

/// Build the Table II input set at the given volume scale
/// (`scale = 1.0` reproduces the paper's 350 k flows; 0.1 is plenty for
/// tests).
///
/// # Panics
///
/// Panics if `scale` is not positive.
#[must_use]
pub fn table2_workload(seed: u64, scale: f64) -> Table2Workload {
    assert!(scale > 0.0, "scale must be positive");
    let s = |n: u64| ((n as f64 * scale) as u64).max(1);
    let mut rng = Rng::seed_from_u64(seed);
    let window_ms = 15 * 60 * 1000;

    let victim = Ipv4Addr::new(10, 3, 0, 7);
    let flood_port = 7000;
    let flood_sources = vec![
        Ipv4Addr::new(91, 7, 1, 1),
        Ipv4Addr::new(91, 7, 1, 2),
        Ipv4Addr::new(91, 7, 1, 3),
    ];
    let proxies = [
        Ipv4Addr::new(10, 1, 0, 10),
        Ipv4Addr::new(10, 1, 0, 11),
        Ipv4Addr::new(10, 1, 0, 12),
    ];
    let mail_servers = [Ipv4Addr::new(10, 8, 0, 25), Ipv4Addr::new(10, 8, 1, 25)];

    let mut flows = Vec::new();

    // --- Port 7000: the real anomaly (Flooding at host E). ---
    flows.extend(flooding::generate(
        &flood_sources,
        victim,
        flood_port,
        s(paper_counts::FLOODING),
        0,
        window_ms,
        &mut rng,
    ));

    // --- Port 80: proxies A, B, C plus a diffuse client population. ---
    // Proxies/caches ship page content: bulk transfers with per-flow
    // varying sizes, so each proxy surfaces as ONE maximal item-set
    // {srcIP, dstPort=80, proto} like the paper's hosts A, B, C.
    let proxy_volumes = [s(65_000), s(48_000), s(32_000)];
    for (proxy, volume) in proxies.iter().zip(proxy_volumes) {
        for _ in 0..volume {
            flows.push(web_flow(*proxy, &mut rng, window_ms, true));
        }
    }
    // Saturating: at tiny scales the `max(1)` floors of the parts can
    // exceed the floored total.
    let diffuse_web = s(paper_counts::WEB).saturating_sub(proxy_volumes.iter().sum::<u64>());
    for _ in 0..diffuse_web {
        let client = Ipv4Addr::from(0x0a00_0000 | (rng.u32() & 0x001F_FFFF));
        flows.push(web_flow(client, &mut rng, window_ms, false));
    }

    // --- Port 9022: backscatter (each flow a different source). ---
    flows.extend(backscatter::generate(
        9022,
        s(paper_counts::BACKSCATTER),
        0,
        window_ms,
        &mut rng,
    ));

    // --- Port 25: mail toward two MX hosts. ---
    let mx_volumes = [s(13_000), s(paper_counts::SMTP).saturating_sub(s(13_000))];
    for (server, volume) in mail_servers.iter().zip(mx_volumes) {
        for _ in 0..volume {
            flows.push(smtp_flow(*server, &mut rng, window_ms));
        }
    }

    flows.sort_by_key(|f| f.start_ms);
    Table2Workload {
        flows,
        victim,
        flood_port,
        flood_sources,
        proxies,
        mail_servers,
        min_support: s(paper_counts::MIN_SUPPORT),
    }
}

/// One web flow originated by `src` toward a random external server.
/// `bulk` flows (proxy/cache content) vary freely in size; client flows
/// include the quantized mice (SYN-only, small control exchanges) whose
/// (#packets, #bytes) pairs become the paper's benign frequent item-sets.
fn web_flow(src: Ipv4Addr, rng: &mut Rng, window_ms: u64, bulk: bool) -> FlowRecord {
    let dst = Ipv4Addr::from(rng.u32() | 0x4000_0000);
    let start = rng.range(0..window_ms);
    let packets: u32 = if bulk {
        rng.range(4..60)
    } else {
        match rng.range(0..10u32) {
            0..=4 => rng.range_inclusive(1..=3),
            5..=8 => rng.range(4..30),
            _ => rng.range(30..2000),
        }
    };
    let bytes = if packets <= 3 {
        packets * [40u32, 48, 52][rng.range(0..3usize)]
    } else {
        packets * rng.range(200..1400u32)
    };
    FlowRecord::new(
        start,
        src,
        dst,
        rng.range_inclusive(1024..=u16::MAX),
        80,
        Protocol::Tcp,
    )
    .with_volume(packets, bytes)
    .with_end(start + u64::from(rng.range(1..20_000u32)))
    .with_flags(TcpFlags(TcpFlags::SYN | TcpFlags::ACK | TcpFlags::FIN))
}

/// One mail delivery toward `server` from a random sender.
fn smtp_flow(server: Ipv4Addr, rng: &mut Rng, window_ms: u64) -> FlowRecord {
    let sender = Ipv4Addr::from(rng.u32() | 0x2000_0000);
    let start = rng.range(0..window_ms);
    let packets = rng.range(8..25u32);
    FlowRecord::new(
        start,
        sender,
        server,
        rng.range_inclusive(1024..=u16::MAX),
        25,
        Protocol::Tcp,
    )
    .with_volume(packets, packets * rng.range(300..900u32))
    .with_end(start + u64::from(rng.range(500..8000u32)))
    .with_flags(TcpFlags(
        TcpFlags::SYN | TcpFlags::ACK | TcpFlags::PSH | TcpFlags::FIN,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_volumes_match_paper_at_full_scale() {
        let w = table2_workload(1, 1.0);
        let by_port = |p: u16| w.flows.iter().filter(|f| f.dst_port == p).count() as u64;
        assert_eq!(by_port(7000), paper_counts::FLOODING);
        assert_eq!(by_port(80), paper_counts::WEB);
        assert_eq!(by_port(9022), paper_counts::BACKSCATTER);
        assert_eq!(by_port(25), paper_counts::SMTP);
        assert_eq!(w.min_support, paper_counts::MIN_SUPPORT);
        assert_eq!(
            w.flows.len() as u64,
            paper_counts::FLOODING
                + paper_counts::WEB
                + paper_counts::BACKSCATTER
                + paper_counts::SMTP
        );
    }

    #[test]
    fn scaled_volumes_track_scale() {
        let w = table2_workload(1, 0.1);
        let by_port = |p: u16| w.flows.iter().filter(|f| f.dst_port == p).count() as u64;
        assert_eq!(by_port(7000), (paper_counts::FLOODING as f64 * 0.1) as u64);
        assert_eq!(w.min_support, 1000);
    }

    #[test]
    fn proxies_each_exceed_min_support() {
        let w = table2_workload(1, 0.1);
        for proxy in w.proxies {
            let n = w.flows.iter().filter(|f| f.src_ip == proxy).count() as u64;
            assert!(n >= w.min_support, "proxy {proxy} has only {n} flows");
        }
    }

    #[test]
    fn flood_sources_each_exceed_min_support() {
        let w = table2_workload(1, 0.1);
        for src in &w.flood_sources {
            let n = w.flows.iter().filter(|f| f.src_ip == *src).count() as u64;
            assert!(n >= w.min_support, "flood source {src} has only {n} flows");
        }
    }

    /// At tiny scales every component floors at one flow; the web and
    /// mail remainders saturate at zero instead of wrapping to ~2⁶⁴
    /// flows.
    #[test]
    fn tiny_scales_build_a_handful_of_flows() {
        for scale in [1e-7, 1e-6, 1e-5, 2e-5] {
            let w = table2_workload(1, scale);
            let n = w.flows.len();
            assert!((4..=20).contains(&n), "scale {scale}: {n} flows");
            assert_eq!(w.min_support, 1, "scale {scale}");
        }
    }

    #[test]
    fn deterministic() {
        let a = table2_workload(9, 0.05);
        let b = table2_workload(9, 0.05);
        assert_eq!(a.flows, b.flows);
    }
}
