//! Unknown-class injector: an intense, unattributable exchange between two
//! hosts over churning ports — the kind of event the paper's analysts
//! could not classify but that still disrupts feature distributions.

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol};

use super::start_in;
use crate::rng::Rng;

/// Generate `n` flows of an odd bidirectional exchange between `a` and `b`.
pub fn generate(
    a: Ipv4Addr,
    b: Ipv4Addr,
    n: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    (0..n)
        .map(|i| {
            let start = start_in(begin_ms, interval_ms, rng);
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
            // Random high ports on both sides, fixed tiny payload — looks
            // like a custom UDP protocol or tunneling.
            FlowRecord::new(
                start,
                src,
                dst,
                rng.range(20_000..60_000),
                rng.range(20_000..60_000),
                Protocol::Udp,
            )
            .with_volume(2, 2 * 128)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_stays_between_the_two_hosts() {
        let a = Ipv4Addr::new(10, 9, 9, 9);
        let b = Ipv4Addr::new(185, 2, 2, 2);
        let mut rng = Rng::seed_from_u64(1);
        let flows = generate(a, b, 600, 0, 60_000, &mut rng);
        assert!(flows
            .iter()
            .all(|f| (f.src_ip == a && f.dst_ip == b) || (f.src_ip == b && f.dst_ip == a)));
        let forward = flows.iter().filter(|f| f.src_ip == a).count();
        assert_eq!(forward, 300, "both directions present");
    }

    #[test]
    fn ports_churn() {
        let mut rng = Rng::seed_from_u64(2);
        let flows = generate(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            400,
            0,
            60_000,
            &mut rng,
        );
        let ports: std::collections::BTreeSet<u16> = flows.iter().map(|f| f.dst_port).collect();
        assert!(ports.len() > 350);
    }
}
