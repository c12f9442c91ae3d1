//! Per-class anomaly injectors.
//!
//! Each injector turns an [`crate::anomaly::EventSpec`] into the
//! flow-level footprint the paper describes for that class: flooding is a
//! few sources hammering one service; backscatter converges on a port with
//! random sources; scans fan one source across destinations; and so on.
//! All injectors are deterministic given the caller's RNG.

pub mod backscatter;
pub mod ddos;
pub mod dscan;
pub mod experiment;
pub mod flooding;
pub mod scan;
pub mod spam;
pub mod unknown;

use anomex_netflow::FlowRecord;

use crate::anomaly::{EventParams, EventSpec};
use crate::rng::Rng;

/// Generate the flows an event injects into one interval.
///
/// `begin_ms..begin_ms + interval_ms` is the measurement window. Real
/// attacks do not align to measurement grids: the event's flows are
/// concentrated in a random contiguous **burst** covering 35–100 % of the
/// window (drawn from `rng`, so deterministic per event/interval). Returns
/// an empty vector when the event is not active in `interval`.
pub fn inject(
    spec: &EventSpec,
    interval: u64,
    begin_ms: u64,
    interval_ms: u64,
    rng: &mut Rng,
) -> Vec<FlowRecord> {
    if !spec.active_in(interval) {
        return Vec::new();
    }
    // Burst placement: a contiguous sub-span of the window.
    let burst_frac = rng.f64_range(0.35..=1.0);
    let burst_ms = ((interval_ms as f64) * burst_frac) as u64;
    let burst_ms = burst_ms.max(1);
    let offset = rng.range_inclusive(0..=interval_ms - burst_ms);
    let begin_ms = begin_ms + offset;
    let interval_ms = burst_ms;
    let n = spec.flows_per_interval;
    match &spec.params {
        EventParams::Flooding {
            sources,
            victim,
            port,
        } => flooding::generate(sources, *victim, *port, n, begin_ms, interval_ms, rng),
        EventParams::Backscatter { port } => {
            backscatter::generate(*port, n, begin_ms, interval_ms, rng)
        }
        EventParams::NetworkExperiment {
            node,
            src_port,
            dst_port,
        } => experiment::generate(*node, *src_port, *dst_port, n, begin_ms, interval_ms, rng),
        EventParams::DDoS {
            victim,
            port,
            attackers,
        } => ddos::generate(*victim, *port, *attackers, n, begin_ms, interval_ms, rng),
        EventParams::Scanning { scanner, port } => {
            scan::generate(*scanner, *port, n, begin_ms, interval_ms, rng)
        }
        EventParams::DistributedScan {
            subnet,
            port,
            attackers,
        } => dscan::generate(*subnet, *port, *attackers, n, begin_ms, interval_ms, rng),
        EventParams::Spam { servers, senders } => {
            spam::generate(servers, *senders, n, begin_ms, interval_ms, rng)
        }
        EventParams::Unknown { a, b } => unknown::generate(*a, *b, n, begin_ms, interval_ms, rng),
    }
}

/// Uniform flow start time within the interval window.
pub(crate) fn start_in(begin_ms: u64, interval_ms: u64, rng: &mut Rng) -> u64 {
    begin_ms + rng.range(0..interval_ms)
}

/// A random ephemeral source port (1024–65535).
pub(crate) fn ephemeral_port(rng: &mut Rng) -> u16 {
    rng.range_inclusive(1024..=u16::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::EventId;
    use std::net::Ipv4Addr;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn spec(params: EventParams) -> EventSpec {
        EventSpec {
            id: EventId(0),
            start_interval: 5,
            duration: 2,
            flows_per_interval: 500,
            params,
        }
    }

    #[test]
    fn inactive_interval_injects_nothing() {
        let s = spec(EventParams::Backscatter { port: 9022 });
        assert!(inject(&s, 4, 0, 60_000, &mut rng()).is_empty());
        assert!(inject(&s, 7, 0, 60_000, &mut rng()).is_empty());
    }

    #[test]
    fn active_interval_injects_requested_count() {
        let s = spec(EventParams::Scanning {
            scanner: Ipv4Addr::new(7, 7, 7, 7),
            port: 22,
        });
        let flows = inject(&s, 5, 300_000, 60_000, &mut rng());
        assert_eq!(flows.len(), 500);
        for f in &flows {
            assert!(f.start_ms >= 300_000 && f.start_ms < 360_000);
        }
    }

    #[test]
    fn injection_is_deterministic_per_rng_seed() {
        let s = spec(EventParams::DDoS {
            victim: Ipv4Addr::new(10, 0, 0, 9),
            port: 80,
            attackers: 100,
        });
        let a = inject(&s, 5, 0, 60_000, &mut rng());
        let b = inject(&s, 5, 0, 60_000, &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn every_class_injects_flows_matching_its_signature() {
        let all = [
            EventParams::Flooding {
                sources: vec![Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(9, 9, 9, 10)],
                victim: Ipv4Addr::new(10, 0, 0, 5),
                port: 7000,
            },
            EventParams::Backscatter { port: 9022 },
            EventParams::NetworkExperiment {
                node: Ipv4Addr::new(10, 1, 1, 1),
                src_port: 33434,
                dst_port: 33435,
            },
            EventParams::DDoS {
                victim: Ipv4Addr::new(10, 0, 0, 6),
                port: 80,
                attackers: 300,
            },
            EventParams::Scanning {
                scanner: Ipv4Addr::new(7, 7, 7, 7),
                port: 445,
            },
            EventParams::Spam {
                servers: vec![Ipv4Addr::new(10, 0, 0, 25)],
                senders: 30,
            },
            EventParams::Unknown {
                a: Ipv4Addr::new(1, 1, 1, 1),
                b: Ipv4Addr::new(2, 2, 2, 2),
            },
        ];
        for params in all {
            let s = spec(params);
            let flows = inject(&s, 5, 0, 60_000, &mut rng());
            assert_eq!(flows.len(), 500, "{}", s.class());
            // At least one signature value must hold for most of the
            // injected flows (anomalies have common characteristics — the
            // paper's core assumption).
            let sig = s.signature_values();
            let matching = flows
                .iter()
                .filter(|f| sig.iter().any(|v| v.matches(f)))
                .count();
            assert!(
                matching as f64 >= 0.99 * flows.len() as f64,
                "{}: only {matching}/{} flows match the signature",
                s.class(),
                flows.len()
            );
            // All flows fit the feature-value width contract (ports < 2^16
            // etc.) — implicitly checked by FlowRecord's types.
        }
    }
}
