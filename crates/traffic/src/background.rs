//! Background backbone traffic model.
//!
//! Synthesizes SWITCH-like peering-link traffic: Zipf-popular services and
//! endpoints, heavy-tailed (Pareto) flow sizes, a diurnal rate cycle, and
//! configurable **heavy hitters** (the paper's HTTP proxies/caches A, B, C
//! that "sent a lot of traffic on destination port 80" and show up as
//! legitimate frequent item-sets). The generator is deterministic given a
//! seed, and each interval can be generated independently.

use std::net::Ipv4Addr;

use anomex_netflow::{FlowRecord, Protocol, TcpFlags};

use crate::dist::{BoundedPareto, Zipf};
use crate::rng::Rng;

/// Well-known service ports and their relative popularity on a backbone
/// link (HTTP dominates, then TLS, mail, DNS, and a long tail).
const SERVICES: [(u16, f64); 14] = [
    (80, 30.0),
    (443, 18.0),
    (53, 8.0),
    (25, 6.0),
    (8080, 3.0),
    (110, 2.0),
    (143, 2.0),
    (993, 2.0),
    (22, 2.0),
    (123, 2.0),
    (21, 1.0),
    (3389, 1.0),
    (8443, 1.0),
    (1935, 1.0),
];
/// Relative weight of the random-high-port (P2P-ish) tail.
const TAIL_WEIGHT: f64 = 21.0;

/// A host that originates a disproportionate share of traffic to one
/// service port (HTTP proxy, cache, mail relay, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The heavy-hitting local host.
    pub host: Ipv4Addr,
    /// The destination service port its traffic goes to.
    pub port: u16,
    /// Fraction of the interval's flows this host originates (0..1).
    pub share: f64,
}

/// Background traffic model configuration.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Mean flows per measurement interval (before diurnal/noise factors).
    pub flows_per_interval: u64,
    /// First address of the local (campus) range.
    pub local_base: u32,
    /// Number of addresses in the local range (SWITCH: ≈ 2.2 M).
    pub local_size: u32,
    /// Distinct popular external hosts.
    pub external_population: u32,
    /// Enable the diurnal (day/night) rate cycle.
    pub diurnal: bool,
    /// Intervals per day (96 at Δ = 15 min) for the diurnal phase.
    pub intervals_per_day: u64,
    /// Multiplicative volume jitter amplitude (0 = none, 0.05 = ±5%).
    pub noise: f64,
    /// Traffic-*mix* drift amplitude (0 = stationary composition). Real
    /// backbone traffic changes composition between intervals — the share
    /// of control mice, the flow-size tail, the service mix all wander.
    /// This drift is what calibrates the detectors' MAD σ̂: without it the
    /// first-difference of the KL series is unrealistically quiet and the
    /// detectors hair-trigger on common feature values (flow sizes in
    /// particular), flooding the meta-data. 0.2 ≈ ±20% relative swing.
    ///
    /// The drift is *continuous*: mix parameters are drawn per interval
    /// from [`BackgroundConfig::mix_seed`] and linearly interpolated within
    /// each interval, so re-slicing the stream at a different Δ never sees
    /// artificial composition jumps at interval boundaries.
    pub mix_drift: f64,
    /// Seed of the drift process (independent of the flow-level RNG so
    /// consecutive intervals share their boundary mix).
    pub mix_seed: u64,
    /// Heavy-hitter hosts (legitimate frequent item-set sources).
    pub heavy_hitters: Vec<HeavyHitter>,
}

impl Default for BackgroundConfig {
    /// Test-scale defaults: 20 k flows per interval over a /11-sized local
    /// range, three HTTP proxies mirroring the paper's hosts A, B, C.
    fn default() -> Self {
        BackgroundConfig {
            flows_per_interval: 20_000,
            local_base: 0x0a00_0000, // 10.0.0.0
            local_size: 1 << 21,     // ≈ 2.1 M addresses, SWITCH-like
            external_population: 500_000,
            diurnal: true,
            intervals_per_day: 96,
            noise: 0.04,
            mix_drift: 0.2,
            mix_seed: 0xA5A5_5A5A,
            heavy_hitters: vec![
                HeavyHitter {
                    host: Ipv4Addr::new(10, 1, 0, 10),
                    port: 80,
                    share: 0.035,
                },
                HeavyHitter {
                    host: Ipv4Addr::new(10, 1, 0, 11),
                    port: 80,
                    share: 0.030,
                },
                HeavyHitter {
                    host: Ipv4Addr::new(10, 1, 0, 12),
                    port: 80,
                    share: 0.025,
                },
            ],
        }
    }
}

/// Traffic-mix parameters at one point of the drift process.
#[derive(Debug, Clone, Copy)]
struct IntervalMix {
    pareto_alpha: f64,
    control_frac: f64,
    udp_frac: f64,
}

impl IntervalMix {
    /// Linear interpolation between two mix states.
    fn lerp(a: &IntervalMix, b: &IntervalMix, t: f64) -> IntervalMix {
        let l = |x: f64, y: f64| x + (y - x) * t;
        IntervalMix {
            pareto_alpha: l(a.pareto_alpha, b.pareto_alpha),
            control_frac: l(a.control_frac, b.control_frac),
            udp_frac: l(a.udp_frac, b.udp_frac),
        }
    }
}

/// The background traffic generator.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    config: BackgroundConfig,
    local_zipf: Zipf,
    external_zipf: Zipf,
}

impl BackgroundModel {
    /// Build a generator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `local_size` or `external_population` is zero, or a heavy
    /// hitter share is outside `[0, 1)`.
    #[must_use]
    pub fn new(config: BackgroundConfig) -> Self {
        assert!(config.local_size > 0, "local range must be non-empty");
        assert!(
            config.external_population > 0,
            "external population must be non-empty"
        );
        let total_share: f64 = config.heavy_hitters.iter().map(|h| h.share).sum();
        assert!(
            (0.0..1.0).contains(&total_share),
            "heavy hitter shares must sum to less than 1"
        );
        // Popularity over *ranks*; ranks are mapped to addresses below.
        // Cap the rank space so CDF precomputation stays cheap even for
        // multi-million address ranges (ranks beyond the cap are in the
        // far tail anyway).
        let local_ranks = config.local_size.min(100_000) as usize;
        let external_ranks = config.external_population.min(100_000) as usize;
        BackgroundModel {
            local_zipf: Zipf::new(local_ranks, 0.9),
            external_zipf: Zipf::new(external_ranks, 1.0),
            config,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BackgroundConfig {
        &self.config
    }

    /// Diurnal volume factor for an interval (mean ≈ 1).
    #[must_use]
    pub fn diurnal_factor(&self, interval: u64) -> f64 {
        if !self.config.diurnal {
            return 1.0;
        }
        let phase = (interval % self.config.intervals_per_day) as f64
            / self.config.intervals_per_day as f64;
        // Peak mid-day, trough at night.
        1.0 + 0.3 * (std::f64::consts::TAU * (phase - 0.25)).sin()
    }

    /// Number of flows to generate in an interval (diurnal × jitter).
    pub fn flow_count(&self, interval: u64, rng: &mut Rng) -> u64 {
        let base = self.config.flows_per_interval as f64 * self.diurnal_factor(interval);
        let jitter = 1.0 + self.config.noise * (rng.f64() * 2.0 - 1.0);
        (base * jitter).max(0.0) as u64
    }

    /// Map a popularity rank to a local address (rank 0 = most popular).
    fn local_addr(&self, rank: usize) -> Ipv4Addr {
        // Spread ranks over the range with a multiplicative hash so
        // popular hosts are not numerically adjacent.
        let spread = (rank as u32).wrapping_mul(2_654_435_761) % self.config.local_size;
        Ipv4Addr::from(self.config.local_base.wrapping_add(spread))
    }

    /// Map a popularity rank to an external address.
    fn external_addr(&self, rank: usize) -> Ipv4Addr {
        let mut z = (rank as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let addr = (z >> 16) as u32;
        // Avoid mapping into the local range.
        if (addr.wrapping_sub(self.config.local_base)) < self.config.local_size {
            Ipv4Addr::from(addr ^ 0x8000_0000)
        } else {
            Ipv4Addr::from(addr)
        }
    }

    /// Pick a service port using the weighted popularity table.
    fn service_port(&self, rng: &mut Rng) -> u16 {
        let total: f64 = SERVICES.iter().map(|&(_, w)| w).sum::<f64>() + TAIL_WEIGHT;
        let mut u = rng.f64() * total;
        for &(port, w) in &SERVICES {
            if u < w {
                return port;
            }
            u -= w;
        }
        // Long tail: a random unprivileged port.
        rng.range_inclusive(1024..=u16::MAX)
    }

    /// Flow volume: heavy-tailed packets. A *fraction* of the small flows
    /// are pure control exchanges with quantized packet sizes (40-byte
    /// SYN/ACK-class packets) — these produce the frequent
    /// (#packets, #bytes) pairs the paper observes as benign frequent
    /// item-sets — while the rest vary freely, keeping any single pair a
    /// sub-percent minority like in real traffic.
    fn volume(&self, mix: &IntervalMix, rng: &mut Rng) -> (u32, u32) {
        let packets = BoundedPareto::new(1.0, 20_000.0, mix.pareto_alpha).sample_int(rng);
        let pkt_size = if packets <= 3 && rng.f64() < mix.control_frac {
            // Control mice: the classic quantized sizes.
            *[40u32, 44, 48, 52]
                .get(rng.range(0..4usize))
                .expect("fixed table")
        } else if packets <= 3 {
            // Small data flows: diverse sizes.
            rng.range(40..1460)
        } else {
            rng.range(64..1460)
        };
        (packets, packets.saturating_mul(pkt_size))
    }

    /// Generate one interval's background flows.
    ///
    /// `begin_ms` is the interval's wall-clock start; flows start uniformly
    /// within `[begin_ms, begin_ms + interval_ms)`.
    pub fn generate(
        &self,
        interval: u64,
        begin_ms: u64,
        interval_ms: u64,
        rng: &mut Rng,
    ) -> Vec<FlowRecord> {
        let n = self.flow_count(interval, rng);
        let mix_start = self.mix_at(interval);
        let mix_end = self.mix_at(interval + 1);
        let mut flows = Vec::with_capacity(n as usize);
        for _ in 0..n {
            flows.push(self.one_flow(begin_ms, interval_ms, &mix_start, &mix_end, rng));
        }
        flows
    }

    /// The drift process state at an interval boundary — deterministic in
    /// `(mix_seed, interval)` so neighbouring intervals agree on their
    /// shared boundary.
    fn mix_at(&self, interval: u64) -> IntervalMix {
        // A truncated SplitMix64 finalizer, not `rng::mix`: the goldens pin its output.
        let mut z = self.config.mix_seed ^ interval.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let mut rng = Rng::seed_from_u64(z);
        let d = self.config.mix_drift;
        let mut wobble = || 1.0 + d * (rng.f64() * 2.0 - 1.0);
        IntervalMix {
            pareto_alpha: (1.15 * wobble()).clamp(1.01, 1.6),
            control_frac: (0.35 * wobble()).clamp(0.05, 0.8),
            udp_frac: (0.10 * wobble()).clamp(0.01, 0.4),
        }
    }

    fn one_flow(
        &self,
        begin_ms: u64,
        interval_ms: u64,
        mix_start: &IntervalMix,
        mix_end: &IntervalMix,
        rng: &mut Rng,
    ) -> FlowRecord {
        let start = begin_ms + rng.range(0..interval_ms);
        // Continuous drift: the mix at this flow's position in the window.
        let t = (start - begin_ms) as f64 / interval_ms as f64;
        let mix = IntervalMix::lerp(mix_start, mix_end, t);
        let (packets, bytes) = self.volume(&mix, rng);

        // Heavy hitter?
        let mut share_roll = rng.f64();
        for hh in &self.config.heavy_hitters {
            if share_roll < hh.share {
                // The proxy/cache originates a flow to some external
                // server on its service port.
                let dst = self.external_addr(self.external_zipf.sample(rng));
                return FlowRecord::new(
                    start,
                    hh.host,
                    dst,
                    rng.range_inclusive(1024..=u16::MAX),
                    hh.port,
                    Protocol::Tcp,
                )
                .with_volume(packets, bytes)
                .with_end(start + u64::from(rng.range(1..30_000u32)))
                .with_flags(TcpFlags(TcpFlags::SYN | TcpFlags::ACK | TcpFlags::FIN));
            }
            share_roll -= hh.share;
        }

        // Regular client/server session, inbound or outbound.
        let local = self.local_addr(self.local_zipf.sample(rng));
        let external = self.external_addr(self.external_zipf.sample(rng));
        let service = self.service_port(rng);
        let client_port = rng.range_inclusive(1024..=u16::MAX);
        let proto = match service {
            53 | 123 => Protocol::Udp,
            _ if rng.f64() < 0.02 => Protocol::Icmp,
            _ if rng.f64() < mix.udp_frac => Protocol::Udp,
            _ => Protocol::Tcp,
        };
        let outbound = rng.f64() < 0.5;
        let (src, dst, sport, dport) = if outbound {
            (local, external, client_port, service)
        } else {
            (external, local, client_port, service)
        };
        let mut flow = FlowRecord::new(start, src, dst, sport, dport, proto)
            .with_volume(packets, bytes)
            .with_end(start + u64::from(rng.range(1..60_000u32)));
        if proto == Protocol::Tcp {
            flow = flow.with_flags(TcpFlags(TcpFlags::SYN | TcpFlags::ACK | TcpFlags::FIN));
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BackgroundModel {
        BackgroundModel::new(BackgroundConfig {
            flows_per_interval: 5000,
            noise: 0.0,
            diurnal: false,
            ..BackgroundConfig::default()
        })
    }

    #[test]
    fn generates_requested_volume() {
        let m = model();
        let mut rng = Rng::seed_from_u64(1);
        let flows = m.generate(0, 0, 900_000, &mut rng);
        assert_eq!(flows.len(), 5000);
        assert!(flows.iter().all(|f| f.start_ms < 900_000));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = model();
        let a = m.generate(3, 0, 900_000, &mut Rng::seed_from_u64(7));
        let b = m.generate(3, 0, 900_000, &mut Rng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn port_80_dominates() {
        let m = model();
        let mut rng = Rng::seed_from_u64(2);
        let flows = m.generate(0, 0, 900_000, &mut rng);
        let web = flows.iter().filter(|f| f.dst_port == 80).count();
        let ssh = flows.iter().filter(|f| f.dst_port == 22).count();
        assert!(web > 5 * ssh, "web {web} vs ssh {ssh}");
        // Port 80 should be roughly 30% + proxies ≈ 35% of traffic.
        let share = web as f64 / flows.len() as f64;
        assert!((0.25..0.50).contains(&share), "port-80 share {share}");
    }

    #[test]
    fn heavy_hitters_originate_their_share() {
        let m = model();
        let mut rng = Rng::seed_from_u64(3);
        let flows = m.generate(0, 0, 900_000, &mut rng);
        let hh_host = Ipv4Addr::new(10, 1, 0, 10);
        let from_hh = flows.iter().filter(|f| f.src_ip == hh_host).count();
        let share = from_hh as f64 / flows.len() as f64;
        assert!((0.02..0.05).contains(&share), "proxy share {share}");
        // All proxy flows go to port 80.
        assert!(flows
            .iter()
            .filter(|f| f.src_ip == hh_host)
            .all(|f| f.dst_port == 80));
    }

    #[test]
    fn flow_sizes_are_heavy_tailed() {
        let m = model();
        let mut rng = Rng::seed_from_u64(4);
        // Pool several intervals: with Pareto(α≈1.15) the expected
        // >1000-packet count in a single 5000-flow interval is ~2, so a
        // one-interval assertion is at the mercy of the RNG stream.
        let flows: Vec<_> = (0..4)
            .flat_map(|i| m.generate(i, 0, 900_000, &mut rng))
            .collect();
        let small = flows.iter().filter(|f| f.packets <= 3).count() as f64 / flows.len() as f64;
        let elephants = flows.iter().filter(|f| f.packets > 1000).count();
        assert!(small > 0.5, "mice dominate: {small}");
        assert!(elephants > 0, "elephants exist");
    }

    #[test]
    fn diurnal_cycle_peaks_and_troughs() {
        let m = BackgroundModel::new(BackgroundConfig {
            flows_per_interval: 10_000,
            diurnal: true,
            intervals_per_day: 96,
            noise: 0.0,
            ..BackgroundConfig::default()
        });
        // factor at mid-day (interval 48 = phase 0.5) vs midnight (0).
        let noon = m.diurnal_factor(48);
        let midnight = m.diurnal_factor(0);
        assert!(
            noon > 1.1 && midnight < 0.9,
            "noon {noon} midnight {midnight}"
        );
        // Mean over a day ≈ 1.
        let mean: f64 = (0..96).map(|i| m.diurnal_factor(i)).sum::<f64>() / 96.0;
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn external_addresses_stay_external() {
        let m = model();
        let base = m.config().local_base;
        let size = m.config().local_size;
        for rank in 0..10_000 {
            let addr = u32::from(m.external_addr(rank));
            assert!(
                addr.wrapping_sub(base) >= size,
                "external rank {rank} mapped into the local range"
            );
        }
    }

    #[test]
    fn dns_flows_are_udp() {
        let m = model();
        let mut rng = Rng::seed_from_u64(5);
        let flows = m.generate(0, 0, 900_000, &mut rng);
        assert!(flows
            .iter()
            .filter(|f| f.dst_port == 53)
            .all(|f| f.proto == Protocol::Udp));
    }

    #[test]
    #[should_panic(expected = "must sum to less than 1")]
    fn oversubscribed_heavy_hitters_panic() {
        let cfg = BackgroundConfig {
            heavy_hitters: vec![HeavyHitter {
                host: Ipv4Addr::new(10, 0, 0, 1),
                port: 80,
                share: 1.5,
            }],
            ..BackgroundConfig::default()
        };
        let _ = BackgroundModel::new(cfg);
    }
}
