//! The anomaly classes and heuristic item-set classification.
//!
//! The paper classifies extracted anomalies manually, "combining hints
//! extracted from visual inspection, like targeted ports or IP addresses,
//! with the expertise of the analyst" (§III-A). This module encodes those
//! published hints as rules over the item-set's *shape* — which features
//! are pinned and to what — so evaluations can score classification
//! automatically. It is a heuristic aid, not a claim of the paper.

use std::fmt;

use anomex_mining::ItemSet;
use anomex_netflow::FlowFeature;

/// The seven anomaly classes of the paper's ground truth (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnomalyClass {
    /// High-volume flows from a *small* number of sources to one victim.
    Flooding,
    /// Responses to a spoofed attack elsewhere: many distinct source IPs
    /// and random source ports toward a fixed destination port.
    Backscatter,
    /// A measurement host (the paper's PlanetLab node) generating bulk
    /// probe traffic with fixed ports.
    NetworkExperiment,
    /// Distributed denial of service: *many* sources, one victim.
    DDoS,
    /// Horizontal scan: one source probing many destinations on one port.
    Scanning,
    /// Bulk mail toward SMTP servers (destination port 25).
    Spam,
    /// An event the analyst could not attribute.
    Unknown,
}

impl AnomalyClass {
    /// All classes, in Table IV order.
    pub const ALL: [AnomalyClass; 7] = [
        AnomalyClass::Flooding,
        AnomalyClass::Backscatter,
        AnomalyClass::NetworkExperiment,
        AnomalyClass::DDoS,
        AnomalyClass::Scanning,
        AnomalyClass::Spam,
        AnomalyClass::Unknown,
    ];
}

impl fmt::Display for AnomalyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AnomalyClass::Flooding => "Flooding",
            AnomalyClass::Backscatter => "Backscatter",
            AnomalyClass::NetworkExperiment => "Network Experiment",
            AnomalyClass::DDoS => "DDoS",
            AnomalyClass::Scanning => "Scanning",
            AnomalyClass::Spam => "Spam",
            AnomalyClass::Unknown => "Unknown",
        };
        f.write_str(name)
    }
}

/// Well-known mail port.
const SMTP: u64 = 25;

/// Guess the anomaly class of an extracted item-set from its shape.
///
/// The rules mirror the paper's published reasoning:
/// - port 25 with many senders → Spam;
/// - fixed source + fixed destination port, no destination IP, minimal
///   flows → Scanning (one host probing many);
/// - fixed destination port + 1-packet flows, no pinned endpoints →
///   Backscatter ("each flow has a different source IP address");
/// - fixed source *and* both ports pinned → Network Experiment
///   (measurement tools use fixed port pairs);
/// - source + victim + port pinned → Flooding (few sources ⇒ the source
///   survives mining);
/// - victim pinned without a source → DDoS (many sources ⇒ no single
///   source is frequent);
/// - two endpoints pinned with no service port → Unknown.
#[must_use]
pub fn classify_itemset(itemset: &ItemSet) -> Option<AnomalyClass> {
    let has = |f: FlowFeature| itemset.items().iter().any(|i| i.feature() == f);
    let value_of = |f: FlowFeature| -> Option<u64> {
        itemset
            .items()
            .iter()
            .find(|i| i.feature() == f)
            .map(|i| i.value())
    };

    let src_ip = has(FlowFeature::SrcIp);
    let dst_ip = has(FlowFeature::DstIp);
    let src_port = has(FlowFeature::SrcPort);
    let dst_port = value_of(FlowFeature::DstPort);
    let packets = value_of(FlowFeature::Packets);

    if dst_port == Some(SMTP) {
        return Some(AnomalyClass::Spam);
    }
    if src_ip && src_port && dst_port.is_some() && !dst_ip {
        return Some(AnomalyClass::NetworkExperiment);
    }
    if src_ip && dst_ip && dst_port.is_some() {
        return Some(AnomalyClass::Flooding);
    }
    if src_ip && !dst_ip && dst_port.is_some() {
        return Some(AnomalyClass::Scanning);
    }
    if !src_ip && !dst_ip && dst_port.is_some() && packets == Some(1) {
        return Some(AnomalyClass::Backscatter);
    }
    if !src_ip && dst_ip && dst_port.is_some() {
        return Some(AnomalyClass::DDoS);
    }
    if src_ip && dst_ip && dst_port.is_none() {
        return Some(AnomalyClass::Unknown);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_mining::Item;

    fn set(items: &[(FlowFeature, u64)]) -> ItemSet {
        ItemSet::new(
            items.iter().map(|&(f, v)| Item::new(f, v)).collect(),
            10_000,
        )
    }

    #[test]
    fn spam_by_port_25() {
        let s = set(&[(FlowFeature::DstIp, 42), (FlowFeature::DstPort, 25)]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::Spam));
    }

    #[test]
    fn scan_is_source_plus_port_without_victim() {
        let s = set(&[(FlowFeature::SrcIp, 7), (FlowFeature::DstPort, 445)]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::Scanning));
    }

    #[test]
    fn flooding_pins_source_victim_port() {
        let s = set(&[
            (FlowFeature::SrcIp, 9),
            (FlowFeature::DstIp, 5),
            (FlowFeature::DstPort, 7000),
        ]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::Flooding));
    }

    #[test]
    fn ddos_pins_victim_without_source() {
        let s = set(&[(FlowFeature::DstIp, 5), (FlowFeature::DstPort, 80)]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::DDoS));
    }

    #[test]
    fn backscatter_is_port_plus_single_packet() {
        let s = set(&[
            (FlowFeature::DstPort, 9022),
            (FlowFeature::Proto, 6),
            (FlowFeature::Packets, 1),
            (FlowFeature::Bytes, 40),
        ]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::Backscatter));
    }

    #[test]
    fn experiment_pins_both_ports_and_source() {
        let s = set(&[
            (FlowFeature::SrcIp, 12),
            (FlowFeature::SrcPort, 33434),
            (FlowFeature::DstPort, 33435),
        ]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::NetworkExperiment));
    }

    #[test]
    fn unknown_is_endpoint_pair_without_port() {
        let s = set(&[(FlowFeature::SrcIp, 1), (FlowFeature::DstIp, 2)]);
        assert_eq!(classify_itemset(&s), Some(AnomalyClass::Unknown));
    }

    #[test]
    fn display_names() {
        assert_eq!(
            AnomalyClass::NetworkExperiment.to_string(),
            "Network Experiment"
        );
        assert_eq!(AnomalyClass::ALL.len(), 7);
    }

    #[test]
    fn benign_shapes_are_unclassified() {
        // A bare popular port with a flow size — the classic benign
        // frequent item-set — matches no rule (packets != 1).
        let s = set(&[(FlowFeature::DstPort, 80), (FlowFeature::Packets, 3)]);
        assert_eq!(classify_itemset(&s), None);
        let s = set(&[(FlowFeature::Packets, 2), (FlowFeature::Bytes, 96)]);
        assert_eq!(classify_itemset(&s), None);
    }
}
