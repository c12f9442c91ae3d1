//! DDoS injector: *many* distinct sources attacking one victim service.
//! Distinguished from Flooding by the size of the source set (paper:
//! "'Flooding' differs from a standard 'DDoS' in that it involves a small
//! number of sources").

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use super::{ephemeral_port, start_in};
use crate::rng::Rng;

/// Generate `n` attack flows from `attackers` distinct bots toward
/// `victim:port`.
pub fn generate(
    victim: Ipv4Addr,
    port: u16,
    attackers: u32,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    assert!(attackers > 0, "DDoS needs at least one attacker");
    // A stable bot army: derive attacker addresses from a base so the same
    // event keeps the same bots across intervals (realistic for botnets).
    let base: u32 = 0x2d00_0000 ^ (u32::from(port) << 8);
    (0..n)
        .map(|_| {
            let bot = base.wrapping_add(rng.range(0..attackers).wrapping_mul(977));
            let start = start_in(begin_ms, interval_ms, rng);
            let packets = rng.range_inclusive(1..=4);
            FlowRecord::new(
                start,
                Ipv4Addr::from(bot),
                victim,
                ephemeral_port(rng),
                port,
                Protocol::Tcp,
            )
            .with_volume(packets, packets * 52)
            .with_flags(TcpFlags::syn_only())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_sources_one_victim() {
        let victim = Ipv4Addr::new(10, 0, 0, 80);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(victim, 80, 800, 4000, 0, 60_000, &mut rng);
        assert!(flows.iter().all(|f| f.dst_ip == victim && f.dst_port == 80));
        let sources: std::collections::BTreeSet<Ipv4Addr> =
            flows.iter().map(|f| f.src_ip).collect();
        assert!(
            sources.len() > 500,
            "expected a large bot army, got {}",
            sources.len()
        );
    }

    #[test]
    fn bot_army_is_stable_across_intervals() {
        let victim = Ipv4Addr::new(10, 0, 0, 80);
        let mut rng1 = Rng::seed_from_u64(1);
        let mut rng2 = Rng::seed_from_u64(99);
        let a: std::collections::BTreeSet<Ipv4Addr> =
            generate(victim, 80, 50, 2000, 0, 60_000, &mut rng1)
                .iter()
                .map(|f| f.src_ip)
                .collect();
        let b: std::collections::BTreeSet<Ipv4Addr> =
            generate(victim, 80, 50, 2000, 60_000, 60_000, &mut rng2)
                .iter()
                .map(|f| f.src_ip)
                .collect();
        assert_eq!(a, b, "same bots attack in every interval");
    }

    #[test]
    #[should_panic(expected = "at least one attacker")]
    fn zero_attackers_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = generate(Ipv4Addr::new(10, 0, 0, 1), 80, 0, 10, 0, 60_000, &mut rng);
    }
}
