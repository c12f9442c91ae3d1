//! Backscatter injector.
//!
//! When a third party is hit by a spoofed-source DoS attack, its replies
//! (SYN-ACK/RST) go to the spoofed addresses — some of which land in the
//! monitored network. The paper identified such traffic on destination
//! port 9022: "each flow has a different source IP address and a random
//! source port number".

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// Generate `n` backscatter flows converging on destination `port`.
pub fn generate(
    port: u16,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    (0..n)
        .map(|_| {
            // Every flow from a different (random remote) source.
            let src = Ipv4Addr::from(rng.u32());
            // Scattered across the local address space.
            let dst = Ipv4Addr::from(0x0a00_0000 | (rng.u32() & 0x001F_FFFF));
            let start = start_in(begin_ms, interval_ms, rng);
            FlowRecord::new(start, src, dst, ephemeral_port(rng), port, Protocol::Tcp)
                .with_volume(1, 40)
                .with_flags(TcpFlags::syn_ack())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_dst_port_random_sources() {
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(9022, 2000, 0, 60_000, &mut rng);
        assert!(flows.iter().all(|f| f.dst_port == 9022));
        let distinct_srcs: std::collections::BTreeSet<Ipv4Addr> =
            flows.iter().map(|f| f.src_ip).collect();
        // "each flow has a different source IP": collisions are rare.
        assert!(
            distinct_srcs.len() > 1990,
            "only {} distinct sources",
            distinct_srcs.len()
        );
    }

    #[test]
    fn single_packet_syn_ack_replies() {
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(9022, 100, 0, 60_000, &mut rng);
        assert!(flows
            .iter()
            .all(|f| f.packets == 1 && f.tcp_flags == TcpFlags::syn_ack()));
    }
}
