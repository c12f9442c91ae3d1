//! Distributed (botnet) scan injector: *many* sources probing one target
//! subnet on one port.
//!
//! This is the §III-D hard case: no single source or destination IP is
//! frequent, so canonical item-set mining can only pin the destination
//! port and flow length — the *network range* under attack is invisible
//! without the prefix dimensions.

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// Generate `n` probes from `attackers` distinct bots into the /16 subnet
/// of `subnet` on `port`.
pub fn generate(
    subnet: Ipv4Addr,
    port: u16,
    attackers: u32,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    assert!(
        attackers > 0,
        "distributed scan needs at least one attacker"
    );
    let net = u32::from(subnet) & 0xFFFF_0000;
    let bot_base: u32 = 0x7300_0000 ^ (u32::from(port) << 10);
    (0..n)
        .map(|_| {
            let bot = bot_base.wrapping_add(rng.range(0..attackers).wrapping_mul(1361));
            // Each probe hits a random host inside the target subnet.
            let dst = Ipv4Addr::from(net | (rng.u32() & 0xFFFF));
            let start = start_in(begin_ms, interval_ms, rng);
            FlowRecord::new(
                start,
                Ipv4Addr::from(bot),
                dst,
                ephemeral_port(rng),
                port,
                Protocol::Tcp,
            )
            .with_volume(1, 40)
            .with_flags(TcpFlags::syn_only())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_stay_in_the_target_subnet() {
        let subnet = Ipv4Addr::new(10, 16, 0, 0);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(subnet, 445, 500, 2000, 0, 60_000, &mut rng);
        assert!(flows
            .iter()
            .all(|f| u32::from(f.dst_ip) & 0xFFFF_0000 == u32::from(subnet) & 0xFFFF_0000));
        assert!(flows.iter().all(|f| f.dst_port == 445));
    }

    #[test]
    fn no_single_endpoint_dominates() {
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(
            Ipv4Addr::new(10, 16, 0, 0),
            445,
            800,
            4000,
            0,
            60_000,
            &mut rng,
        );
        let mut src_counts = std::collections::HashMap::new();
        let mut dst_counts = std::collections::HashMap::new();
        for f in &flows {
            *src_counts.entry(f.src_ip).or_insert(0u32) += 1;
            *dst_counts.entry(f.dst_ip).or_insert(0u32) += 1;
        }
        let max_src = src_counts.values().max().copied().unwrap();
        let max_dst = dst_counts.values().max().copied().unwrap();
        // The heaviest endpoint carries well under 1% of the probes —
        // canonical mining cannot pin this anomaly to an address.
        assert!(max_src < 40, "heaviest source {max_src}");
        assert!(max_dst < 40, "heaviest destination {max_dst}");
    }

    #[test]
    #[should_panic(expected = "at least one attacker")]
    fn zero_attackers_panics() {
        let mut rng = Rng::seed_from_u64(3);
        let _ = generate(Ipv4Addr::new(10, 16, 0, 0), 445, 0, 10, 0, 60_000, &mut rng);
    }
}
