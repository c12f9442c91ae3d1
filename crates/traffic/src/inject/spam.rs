//! Spam injector: a botnet delivering bulk mail to the monitored
//! network's SMTP servers (destination port 25).

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// SMTP destination port.
pub const SMTP_PORT: u16 = 25;

/// Generate `n` spam delivery flows from `senders` bots to the given mail
/// servers.
pub fn generate(
    servers: &[Ipv4Addr],
    senders: u32,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    assert!(!servers.is_empty(), "spam needs at least one target server");
    assert!(senders > 0, "spam needs at least one sender");
    let base: u32 = 0x5b00_0000;
    (0..n)
        .map(|_| {
            let bot = base.wrapping_add(rng.range(0..senders).wrapping_mul(2003));
            let server = servers[rng.range(0..servers.len())];
            let start = start_in(begin_ms, interval_ms, rng);
            // A mail delivery: handshake + DATA, a few kB.
            let packets = rng.range(8..25u32);
            let bytes = packets * rng.range(300..900u32);
            FlowRecord::new(
                start,
                Ipv4Addr::from(bot),
                server,
                ephemeral_port(rng),
                SMTP_PORT,
                Protocol::Tcp,
            )
            .with_volume(packets, bytes)
            .with_end(start + u64::from(rng.range(500..5000u32)))
            .with_flags(TcpFlags(
                TcpFlags::SYN | TcpFlags::ACK | TcpFlags::PSH | TcpFlags::FIN,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_flows_target_port_25_on_given_servers() {
        let servers = vec![Ipv4Addr::new(10, 0, 0, 25), Ipv4Addr::new(10, 0, 1, 25)];
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(&servers, 60, 1000, 0, 60_000, &mut rng);
        assert!(flows.iter().all(|f| f.dst_port == SMTP_PORT));
        assert!(flows.iter().all(|f| servers.contains(&f.dst_ip)));
    }

    #[test]
    fn mail_flows_are_bigger_than_probes() {
        let servers = vec![Ipv4Addr::new(10, 0, 0, 25)];
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(&servers, 10, 200, 0, 60_000, &mut rng);
        assert!(flows.iter().all(|f| f.packets >= 8 && f.bytes >= 2400));
    }

    #[test]
    #[should_panic(expected = "at least one target server")]
    fn no_servers_panics() {
        let mut rng = Rng::seed_from_u64(3);
        let _ = generate(&[], 10, 10, 0, 60_000, &mut rng);
    }
}
