//! Flooding injector: a *few* compromised hosts hammering one victim
//! host/port (the paper's §II-B example: "several compromised hosts were
//! flooding the victim host E on destination port 7000").

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// Generate `n` flood flows from the given sources toward `victim:port`.
pub fn generate(
    sources: &[Ipv4Addr],
    victim: Ipv4Addr,
    port: u16,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    assert!(!sources.is_empty(), "flooding needs at least one source");
    (0..n)
        .map(|_| {
            let src = sources[rng.range(0..sources.len())];
            let start = start_in(begin_ms, interval_ms, rng);
            // Flood flows are short bursts of small packets. Packet counts
            // and sizes vary flow to flow (scripted floods retransmit and
            // fragment), so no single (#packets, #bytes) pair dominates —
            // what stays frequent is the (source, victim, port) triple.
            let packets = rng.range_inclusive(1..=8u32);
            let bytes = packets * rng.range_inclusive(40..=60u32);
            FlowRecord::new(start, src, victim, ephemeral_port(rng), port, Protocol::Tcp)
                .with_volume(packets, bytes)
                .with_end(start + u64::from(rng.range(0..200u32)))
                .with_flags(TcpFlags::syn_only())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flows_hit_victim_and_port() {
        let sources = vec![Ipv4Addr::new(9, 1, 1, 1), Ipv4Addr::new(9, 1, 1, 2)];
        let victim = Ipv4Addr::new(10, 0, 0, 5);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(&sources, victim, 7000, 1000, 0, 60_000, &mut rng);
        assert_eq!(flows.len(), 1000);
        assert!(flows
            .iter()
            .all(|f| f.dst_ip == victim && f.dst_port == 7000));
        assert!(flows.iter().all(|f| sources.contains(&f.src_ip)));
    }

    #[test]
    fn uses_few_sources_many_src_ports() {
        let sources = vec![Ipv4Addr::new(9, 1, 1, 1)];
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(
            &sources,
            Ipv4Addr::new(10, 0, 0, 5),
            7000,
            500,
            0,
            60_000,
            &mut rng,
        );
        let distinct_src_ports: std::collections::BTreeSet<u16> =
            flows.iter().map(|f| f.src_port).collect();
        assert!(distinct_src_ports.len() > 300, "source ports should churn");
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let mut rng = Rng::seed_from_u64(3);
        let _ = generate(
            &[],
            Ipv4Addr::new(10, 0, 0, 5),
            7000,
            10,
            0,
            60_000,
            &mut rng,
        );
    }
}
