//! Network-experiment injector: the paper traced one anomaly class to "a
//! PlanetLab node running in our university" — a measurement host emitting
//! bulk probe traffic with tool-fixed ports.

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol};

use super::start_in;
use crate::rng::Rng;

/// Generate `n` probe flows from the experiment `node` with fixed
/// source/destination ports toward many remote hosts.
pub fn generate(
    node: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    (0..n)
        .map(|_| {
            let dst = Ipv4Addr::from(rng.u32());
            let start = start_in(begin_ms, interval_ms, rng);
            // Measurement probes: fixed small UDP payload.
            FlowRecord::new(start, node, dst, src_port, dst_port, Protocol::Udp)
                .with_volume(3, 3 * 64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_endpoint_ports_many_destinations() {
        let node = Ipv4Addr::new(10, 2, 3, 4);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(node, 33434, 33435, 800, 0, 60_000, &mut rng);
        assert!(flows
            .iter()
            .all(|f| f.src_ip == node && f.src_port == 33434 && f.dst_port == 33435));
        let dsts: std::collections::BTreeSet<Ipv4Addr> = flows.iter().map(|f| f.dst_ip).collect();
        assert!(dsts.len() > 700);
    }

    #[test]
    fn probes_are_udp_with_fixed_size() {
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(
            Ipv4Addr::new(10, 2, 3, 4),
            33434,
            33435,
            100,
            0,
            60_000,
            &mut rng,
        );
        assert!(flows
            .iter()
            .all(|f| f.proto == Protocol::Udp && f.packets == 3));
    }
}
