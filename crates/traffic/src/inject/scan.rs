//! Scanning injector: one source probing many destinations on a fixed
//! port with identical minimal flows — "distributed scanning activity
//! typically has a common destination port and often a fixed flow length
//! that will appear as a frequent item-set" (paper §III-D).

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// Generate `n` scan probes from `scanner` across the local address space
/// on `port`.
pub fn generate(
    scanner: Ipv4Addr,
    port: u16,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    // Sequential sweep with a random starting offset — the classic
    // horizontal-scan footprint.
    let sweep_base: u32 = 0x0a00_0000 | (rng.u32() & 0x001F_0000);
    (0..n)
        .map(|i| {
            let dst = Ipv4Addr::from(sweep_base.wrapping_add(i as u32));
            let start = start_in(begin_ms, interval_ms, rng);
            // Fixed flow length: 1 SYN packet, 40 bytes.
            FlowRecord::new(
                start,
                scanner,
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
    fn one_source_many_destinations_fixed_port() {
        let scanner = Ipv4Addr::new(66, 6, 6, 6);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(scanner, 445, 3000, 0, 60_000, &mut rng);
        assert!(flows
            .iter()
            .all(|f| f.src_ip == scanner && f.dst_port == 445));
        let dsts: std::collections::BTreeSet<Ipv4Addr> = flows.iter().map(|f| f.dst_ip).collect();
        assert_eq!(dsts.len(), 3000, "every probe hits a distinct destination");
    }

    #[test]
    fn fixed_flow_length_signature() {
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(Ipv4Addr::new(6, 6, 6, 6), 22, 500, 0, 60_000, &mut rng);
        assert!(flows.iter().all(|f| f.packets == 1 && f.bytes == 40));
    }
}
