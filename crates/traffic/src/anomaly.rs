//! Event specifications over the anomaly classes of paper Table IV.
//!
//! The paper's two-week SWITCH trace contained 36 events across seven
//! manually-classified anomaly classes ([`AnomalyClass`], which the
//! engine's classifier shares). Each [`EventSpec`] describes one
//! synthetic event precisely enough to (a) inject its flows and (b) score
//! extracted item-sets against it (the *signature values* an analyst would
//! recognize as the root cause).

use std::fmt;
use std::net::Ipv4Addr;

pub use anomex_core::AnomalyClass;
use anomex_netflow::{FeatureValue, FlowFeature};

/// Identifier of one injected event within a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{:02}", self.0)
    }
}

/// Class-specific event parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventParams {
    /// Few sources flooding one victim host/port.
    Flooding {
        /// The attacking hosts (small set).
        sources: Vec<Ipv4Addr>,
        /// The flooded host.
        victim: Ipv4Addr,
        /// The flooded destination port.
        port: u16,
    },
    /// Backscatter arriving on a fixed destination port.
    Backscatter {
        /// The destination port the backscatter converges on.
        port: u16,
    },
    /// A measurement node probing from a fixed source.
    NetworkExperiment {
        /// The experimenting host.
        node: Ipv4Addr,
        /// Source port of the probe tool.
        src_port: u16,
        /// Destination port of the probe tool.
        dst_port: u16,
    },
    /// Many sources attacking one victim.
    DDoS {
        /// The attacked host.
        victim: Ipv4Addr,
        /// The attacked service port.
        port: u16,
        /// Number of distinct attacking sources.
        attackers: u32,
    },
    /// One source scanning many destinations on one port.
    Scanning {
        /// The scanning host.
        scanner: Ipv4Addr,
        /// The scanned destination port.
        port: u16,
    },
    /// A botnet scanning one /16 subnet: many sources, many destinations,
    /// one port — only the *prefix* dimension pins the target range
    /// (paper §III-D).
    DistributedScan {
        /// Any address inside the targeted /16 (the low 16 bits are
        /// ignored).
        subnet: Ipv4Addr,
        /// The scanned destination port.
        port: u16,
        /// Number of distinct scanning bots.
        attackers: u32,
    },
    /// Bulk mail toward a set of SMTP servers.
    Spam {
        /// The targeted mail servers.
        servers: Vec<Ipv4Addr>,
        /// Number of distinct spamming sources.
        senders: u32,
    },
    /// Unattributed: an intense, odd flow pattern between two hosts.
    Unknown {
        /// One endpoint.
        a: Ipv4Addr,
        /// The other endpoint.
        b: Ipv4Addr,
    },
}

impl EventParams {
    /// The class this parameter set belongs to.
    #[must_use]
    pub fn class(&self) -> AnomalyClass {
        match self {
            EventParams::Flooding { .. } => AnomalyClass::Flooding,
            EventParams::Backscatter { .. } => AnomalyClass::Backscatter,
            EventParams::NetworkExperiment { .. } => AnomalyClass::NetworkExperiment,
            EventParams::DDoS { .. } => AnomalyClass::DDoS,
            EventParams::Scanning { .. } => AnomalyClass::Scanning,
            EventParams::DistributedScan { .. } => AnomalyClass::Scanning,
            EventParams::Spam { .. } => AnomalyClass::Spam,
            EventParams::Unknown { .. } => AnomalyClass::Unknown,
        }
    }
}

/// One injected anomaly event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSpec {
    /// Scenario-unique identifier.
    pub id: EventId,
    /// First interval (inclusive) the event is active in.
    pub start_interval: u64,
    /// Number of consecutive active intervals (≥ 1).
    pub duration: u64,
    /// Event flows injected per active interval.
    pub flows_per_interval: u64,
    /// Class-specific parameters.
    pub params: EventParams,
}

impl EventSpec {
    /// The event's anomaly class.
    #[must_use]
    pub fn class(&self) -> AnomalyClass {
        self.params.class()
    }

    /// Whether the event is active in the given interval.
    #[must_use]
    pub fn active_in(&self, interval: u64) -> bool {
        interval >= self.start_interval && interval < self.start_interval + self.duration
    }

    /// The intervals this event is active in.
    pub fn active_intervals(&self) -> impl Iterator<Item = u64> {
        self.start_interval..self.start_interval + self.duration
    }

    /// The feature values an analyst would recognize as this event's root
    /// cause — used to score extracted item-sets as true positives.
    #[must_use]
    pub fn signature_values(&self) -> Vec<FeatureValue> {
        let ip = |addr: Ipv4Addr| u64::from(u32::from(addr));
        match &self.params {
            EventParams::Flooding {
                sources,
                victim,
                port,
            } => {
                let mut v = vec![
                    FeatureValue::new(FlowFeature::DstIp, ip(*victim)),
                    FeatureValue::new(FlowFeature::DstPort, u64::from(*port)),
                ];
                v.extend(
                    sources
                        .iter()
                        .map(|s| FeatureValue::new(FlowFeature::SrcIp, ip(*s))),
                );
                v
            }
            EventParams::Backscatter { port } => {
                vec![FeatureValue::new(FlowFeature::DstPort, u64::from(*port))]
            }
            EventParams::NetworkExperiment {
                node,
                src_port,
                dst_port,
            } => vec![
                FeatureValue::new(FlowFeature::SrcIp, ip(*node)),
                FeatureValue::new(FlowFeature::SrcPort, u64::from(*src_port)),
                FeatureValue::new(FlowFeature::DstPort, u64::from(*dst_port)),
            ],
            EventParams::DDoS { victim, port, .. } => vec![
                FeatureValue::new(FlowFeature::DstIp, ip(*victim)),
                FeatureValue::new(FlowFeature::DstPort, u64::from(*port)),
            ],
            EventParams::Scanning { scanner, port } => vec![
                FeatureValue::new(FlowFeature::SrcIp, ip(*scanner)),
                FeatureValue::new(FlowFeature::DstPort, u64::from(*port)),
            ],
            EventParams::DistributedScan { subnet, port, .. } => vec![
                FeatureValue::new(FlowFeature::DstPort, u64::from(*port)),
                FeatureValue::new(FlowFeature::DstNet16, u64::from(u32::from(*subnet) >> 16)),
            ],
            EventParams::Spam { servers, .. } => {
                let mut v = vec![FeatureValue::new(FlowFeature::DstPort, 25)];
                v.extend(
                    servers
                        .iter()
                        .map(|s| FeatureValue::new(FlowFeature::DstIp, ip(*s))),
                );
                v
            }
            // The exchange is bidirectional: both hosts appear as source
            // and as destination.
            EventParams::Unknown { a, b } => vec![
                FeatureValue::new(FlowFeature::SrcIp, ip(*a)),
                FeatureValue::new(FlowFeature::DstIp, ip(*b)),
                FeatureValue::new(FlowFeature::SrcIp, ip(*b)),
                FeatureValue::new(FlowFeature::DstIp, ip(*a)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> EventSpec {
        EventSpec {
            id: EventId(3),
            start_interval: 10,
            duration: 2,
            flows_per_interval: 1000,
            params: EventParams::Scanning {
                scanner: Ipv4Addr::new(1, 2, 3, 4),
                port: 445,
            },
        }
    }

    #[test]
    fn activity_window() {
        let e = spec();
        assert!(!e.active_in(9));
        assert!(e.active_in(10));
        assert!(e.active_in(11));
        assert!(!e.active_in(12));
        assert_eq!(e.active_intervals().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn class_derived_from_params() {
        assert_eq!(spec().class(), AnomalyClass::Scanning);
    }

    #[test]
    fn scanning_signature_has_scanner_and_port() {
        let sig = spec().signature_values();
        assert!(sig.contains(&FeatureValue::new(FlowFeature::DstPort, 445)));
        assert!(sig.contains(&FeatureValue::new(
            FlowFeature::SrcIp,
            u64::from(u32::from(Ipv4Addr::new(1, 2, 3, 4)))
        )));
    }

    #[test]
    fn every_class_has_a_nonempty_signature() {
        let params = [
            EventParams::Flooding {
                sources: vec![Ipv4Addr::new(9, 9, 9, 9)],
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
                attackers: 500,
            },
            EventParams::Scanning {
                scanner: Ipv4Addr::new(7, 7, 7, 7),
                port: 22,
            },
            EventParams::Spam {
                servers: vec![Ipv4Addr::new(10, 0, 0, 25)],
                senders: 40,
            },
            EventParams::Unknown {
                a: Ipv4Addr::new(1, 1, 1, 1),
                b: Ipv4Addr::new(2, 2, 2, 2),
            },
        ];
        for (i, p) in params.into_iter().enumerate() {
            let spec = EventSpec {
                id: EventId(i as u32),
                start_interval: 0,
                duration: 1,
                flows_per_interval: 10,
                params: p,
            };
            assert!(!spec.signature_values().is_empty(), "{}", spec.class());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(EventId(7).to_string(), "E07");
    }
}
