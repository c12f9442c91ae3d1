//! Traffic features: the dimensions along which flows are histogrammed,
//! voted on, pre-filtered, and mined.
//!
//! The paper uses **five** features for detection (source/destination IP,
//! source/destination port, packets per flow) and **seven** for item-set
//! mining (those five plus protocol and bytes); the §III-D multilevel
//! extension adds two /16 **prefix** features. [`FlowFeature`] enumerates
//! all nine; detection code defaults to
//! [`FlowFeature::DETECTION_FEATURES`], mining to [`FlowFeature::ALL`]
//! (canonical) or [`FlowFeature::EXTENDED`] (with prefixes).
//!
//! A feature *value* is represented uniformly as a `u64` key
//! ([`FeatureValue`]) so that histogramming, voting, and item encoding
//! can be generic over features. The mapping is invertible per feature.

use std::fmt;
use std::net::Ipv4Addr;

use crate::flow::FlowRecord;

/// One of the per-flow traffic features.
///
/// The first seven are the paper's canonical transaction width; the two
/// `*Net16` prefix features are the paper's §III-D extension ("anomalies
/// that affect certain network ranges … can be captured by using IP
/// address prefixes as additional dimensions for item-set mining").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowFeature {
    /// Source IPv4 address.
    SrcIp,
    /// Destination IPv4 address.
    DstIp,
    /// Source transport port.
    SrcPort,
    /// Destination transport port.
    DstPort,
    /// IP protocol number.
    Proto,
    /// Number of packets in the flow.
    Packets,
    /// Number of bytes in the flow.
    Bytes,
    /// Source /16 network prefix (multilevel mining dimension).
    SrcNet16,
    /// Destination /16 network prefix (multilevel mining dimension).
    DstNet16,
}

impl FlowFeature {
    /// All seven features, in the canonical (paper) order:
    /// srcIP, dstIP, srcPort, dstPort, protocol, #packets, #bytes.
    pub const ALL: [FlowFeature; 7] = [
        FlowFeature::SrcIp,
        FlowFeature::DstIp,
        FlowFeature::SrcPort,
        FlowFeature::DstPort,
        FlowFeature::Proto,
        FlowFeature::Packets,
        FlowFeature::Bytes,
    ];

    /// All features including the /16 prefix dimensions, in index order —
    /// the width-9 *extended* transaction of the §III-D multilevel mining
    /// mode.
    pub const EXTENDED: [FlowFeature; 9] = [
        FlowFeature::SrcIp,
        FlowFeature::DstIp,
        FlowFeature::SrcPort,
        FlowFeature::DstPort,
        FlowFeature::Proto,
        FlowFeature::Packets,
        FlowFeature::Bytes,
        FlowFeature::SrcNet16,
        FlowFeature::DstNet16,
    ];

    /// The five features monitored by histogram detectors in the paper's
    /// evaluation (§II-E, "Number of Detectors m"): source and destination
    /// IP address, source and destination port, and packets per flow.
    pub const DETECTION_FEATURES: [FlowFeature; 5] = [
        FlowFeature::SrcIp,
        FlowFeature::DstIp,
        FlowFeature::SrcPort,
        FlowFeature::DstPort,
        FlowFeature::Packets,
    ];

    /// Stable small integer index (0..9) in [`FlowFeature::EXTENDED`]
    /// order. Used for compact item encoding in the mining crate.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FlowFeature::SrcIp => 0,
            FlowFeature::DstIp => 1,
            FlowFeature::SrcPort => 2,
            FlowFeature::DstPort => 3,
            FlowFeature::Proto => 4,
            FlowFeature::Packets => 5,
            FlowFeature::Bytes => 6,
            FlowFeature::SrcNet16 => 7,
            FlowFeature::DstNet16 => 8,
        }
    }

    /// Inverse of [`FlowFeature::index`]. Panics on `i >= 9`.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        FlowFeature::EXTENDED[i]
    }

    /// Extract this feature's value from a flow as a uniform `u64` key.
    #[must_use]
    pub fn value_of(self, flow: &FlowRecord) -> FeatureValue {
        let raw = match self {
            FlowFeature::SrcIp => u64::from(u32::from(flow.src_ip)),
            FlowFeature::DstIp => u64::from(u32::from(flow.dst_ip)),
            FlowFeature::SrcPort => u64::from(flow.src_port),
            FlowFeature::DstPort => u64::from(flow.dst_port),
            FlowFeature::Proto => u64::from(flow.proto.number()),
            FlowFeature::Packets => u64::from(flow.packets),
            FlowFeature::Bytes => u64::from(flow.bytes),
            FlowFeature::SrcNet16 => u64::from(u32::from(flow.src_ip) >> 16),
            FlowFeature::DstNet16 => u64::from(u32::from(flow.dst_ip) >> 16),
        };
        FeatureValue { feature: self, raw }
    }

    /// The paper's label for the feature (matches Table II's item notation).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlowFeature::SrcIp => "srcIP",
            FlowFeature::DstIp => "dstIP",
            FlowFeature::SrcPort => "srcPort",
            FlowFeature::DstPort => "dstPort",
            FlowFeature::Proto => "protocol",
            FlowFeature::Packets => "#packets",
            FlowFeature::Bytes => "#bytes",
            FlowFeature::SrcNet16 => "srcNet16",
            FlowFeature::DstNet16 => "dstNet16",
        }
    }
}

impl fmt::Display for FlowFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete value of one feature, as extracted from a flow.
///
/// The `raw` key is the uniform `u64` encoding; [`FeatureValue::render`]
/// produces the human-readable form (dotted quad for IPs, plain number for
/// the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureValue {
    /// The feature this value belongs to.
    pub feature: FlowFeature,
    /// The uniform `u64` encoding of the value.
    pub raw: u64,
}

impl FeatureValue {
    /// Construct directly from a feature and raw key.
    #[must_use]
    pub fn new(feature: FlowFeature, raw: u64) -> Self {
        FeatureValue { feature, raw }
    }

    /// Human-readable rendering: dotted quad for IP features, decimal
    /// otherwise.
    #[must_use]
    pub fn render(&self) -> String {
        match self.feature {
            FlowFeature::SrcIp | FlowFeature::DstIp => {
                // Raw keys for IP features always fit in u32 by construction.
                Ipv4Addr::from(self.raw as u32).to_string()
            }
            FlowFeature::SrcNet16 | FlowFeature::DstNet16 => {
                format!("{}/16", Ipv4Addr::from((self.raw as u32) << 16))
            }
            _ => self.raw.to_string(),
        }
    }

    /// Whether the given flow carries this value in this feature.
    #[must_use]
    pub fn matches(&self, flow: &FlowRecord) -> bool {
        self.feature.value_of(flow).raw == self.raw
    }
}

impl fmt::Display for FeatureValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.feature, self.render())
    }
}

/// Error parsing a `feature=value` string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFeatureValueError {
    /// The string has no `=` separator.
    MissingSeparator,
    /// The feature label is not one of the known labels.
    UnknownFeature(String),
    /// The value part does not parse for the feature's type.
    BadValue(String),
}

impl fmt::Display for ParseFeatureValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFeatureValueError::MissingSeparator => {
                write!(f, "expected feature=value (e.g. dstPort=7000)")
            }
            ParseFeatureValueError::UnknownFeature(s) => write!(
                f,
                "unknown feature {s:?} (expected one of srcIP, dstIP, srcPort, dstPort, \
                 protocol, #packets, #bytes, srcNet16, dstNet16)"
            ),
            ParseFeatureValueError::BadValue(s) => write!(f, "cannot parse value {s:?}"),
        }
    }
}

impl std::error::Error for ParseFeatureValueError {}

impl std::str::FromStr for FeatureValue {
    type Err = ParseFeatureValueError;

    /// Parse the rendered form back: `dstPort=7000`, `srcIP=10.0.0.1`,
    /// `dstNet16=10.16.0.0/16`, `#packets=3` (the `#` is optional).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (label, value) = s
            .split_once('=')
            .ok_or(ParseFeatureValueError::MissingSeparator)?;
        let label = label.trim();
        let feature = FlowFeature::EXTENDED
            .into_iter()
            .find(|f| f.label() == label || f.label().trim_start_matches('#') == label)
            .ok_or_else(|| ParseFeatureValueError::UnknownFeature(label.to_string()))?;
        let value = value.trim();
        let bad = || ParseFeatureValueError::BadValue(value.to_string());
        let raw = match feature {
            FlowFeature::SrcIp | FlowFeature::DstIp => {
                let ip: Ipv4Addr = value.parse().map_err(|_| bad())?;
                u64::from(u32::from(ip))
            }
            FlowFeature::SrcNet16 | FlowFeature::DstNet16 => {
                let base = value.strip_suffix("/16").unwrap_or(value);
                let ip: Ipv4Addr = base.parse().map_err(|_| bad())?;
                u64::from(u32::from(ip) >> 16)
            }
            // Parse at the field's own width, so a value no flow can
            // carry (dstPort=99999) is an error, not a silent non-match.
            FlowFeature::SrcPort | FlowFeature::DstPort => {
                u64::from(value.parse::<u16>().map_err(|_| bad())?)
            }
            FlowFeature::Proto => u64::from(value.parse::<u8>().map_err(|_| bad())?),
            FlowFeature::Packets | FlowFeature::Bytes => {
                u64::from(value.parse::<u32>().map_err(|_| bad())?)
            }
        };
        Ok(FeatureValue::new(feature, raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Protocol;

    fn flow() -> FlowRecord {
        FlowRecord::new(
            0,
            "192.168.1.10".parse().unwrap(),
            "10.20.30.40".parse().unwrap(),
            5555,
            80,
            Protocol::Tcp,
        )
        .with_volume(3, 120)
    }

    #[test]
    fn all_features_have_stable_indices() {
        for (i, feat) in FlowFeature::EXTENDED.iter().enumerate() {
            assert_eq!(feat.index(), i);
            assert_eq!(FlowFeature::from_index(i), *feat);
        }
        assert_eq!(&FlowFeature::EXTENDED[..7], &FlowFeature::ALL);
    }

    #[test]
    fn prefix_features_extract_and_render() {
        let f = flow();
        let v = FlowFeature::SrcNet16.value_of(&f);
        assert_eq!(
            v.raw,
            u64::from(u32::from("192.168.1.10".parse::<Ipv4Addr>().unwrap()) >> 16)
        );
        assert_eq!(v.render(), "192.168.0.0/16");
        let v = FlowFeature::DstNet16.value_of(&f);
        assert_eq!(v.to_string(), "dstNet16=10.20.0.0/16");
        assert!(v.matches(&f));
    }

    #[test]
    fn detection_features_are_the_papers_five() {
        assert_eq!(FlowFeature::DETECTION_FEATURES.len(), 5);
        assert!(!FlowFeature::DETECTION_FEATURES.contains(&FlowFeature::Proto));
        assert!(!FlowFeature::DETECTION_FEATURES.contains(&FlowFeature::Bytes));
    }

    #[test]
    fn value_extraction_matches_fields() {
        let f = flow();
        assert_eq!(FlowFeature::SrcPort.value_of(&f).raw, 5555);
        assert_eq!(FlowFeature::DstPort.value_of(&f).raw, 80);
        assert_eq!(FlowFeature::Proto.value_of(&f).raw, 6);
        assert_eq!(FlowFeature::Packets.value_of(&f).raw, 3);
        assert_eq!(FlowFeature::Bytes.value_of(&f).raw, 120);
        assert_eq!(
            FlowFeature::SrcIp.value_of(&f).raw,
            u64::from(u32::from("192.168.1.10".parse::<Ipv4Addr>().unwrap()))
        );
    }

    #[test]
    fn render_ip_as_dotted_quad() {
        let f = flow();
        let v = FlowFeature::DstIp.value_of(&f);
        assert_eq!(v.render(), "10.20.30.40");
        assert_eq!(v.to_string(), "dstIP=10.20.30.40");
    }

    #[test]
    fn render_port_as_number() {
        let f = flow();
        let v = FlowFeature::DstPort.value_of(&f);
        assert_eq!(v.to_string(), "dstPort=80");
    }

    #[test]
    fn matches_agrees_with_extraction() {
        let f = flow();
        for feat in FlowFeature::ALL {
            let v = feat.value_of(&f);
            assert!(v.matches(&f), "{v} should match its own flow");
        }
        let other = FeatureValue::new(FlowFeature::DstPort, 443);
        assert!(!other.matches(&f));
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(FlowFeature::Packets.to_string(), "#packets");
        assert_eq!(FlowFeature::SrcIp.to_string(), "srcIP");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let f = flow();
        for feat in FlowFeature::EXTENDED {
            let v = feat.value_of(&f);
            let parsed: FeatureValue = v.to_string().parse().unwrap();
            assert_eq!(parsed, v, "round trip of {v}");
        }
    }

    #[test]
    fn parse_accepts_hash_free_count_labels() {
        let v: FeatureValue = "packets=3".parse().unwrap();
        assert_eq!(v, FeatureValue::new(FlowFeature::Packets, 3));
        let v: FeatureValue = "bytes=120".parse().unwrap();
        assert_eq!(v, FeatureValue::new(FlowFeature::Bytes, 120));
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert_eq!(
            "dstPort7000".parse::<FeatureValue>().unwrap_err(),
            ParseFeatureValueError::MissingSeparator
        );
        assert!(matches!(
            "dstFoo=1".parse::<FeatureValue>().unwrap_err(),
            ParseFeatureValueError::UnknownFeature(_)
        ));
        assert!(matches!(
            "srcIP=not.an.ip".parse::<FeatureValue>().unwrap_err(),
            ParseFeatureValueError::BadValue(_)
        ));
        assert!(matches!(
            "dstPort=abc".parse::<FeatureValue>().unwrap_err(),
            ParseFeatureValueError::BadValue(_)
        ));
        // Values wider than the feature's field.
        for wide in ["dstPort=65536", "protocol=256", "#packets=4294967296"] {
            assert!(
                matches!(
                    wide.parse::<FeatureValue>().unwrap_err(),
                    ParseFeatureValueError::BadValue(_)
                ),
                "{wide}"
            );
        }
        let widest: FeatureValue = "#bytes=4294967295".parse().unwrap();
        assert_eq!(widest.raw, u64::from(u32::MAX));
    }

    #[test]
    fn parse_prefix_with_or_without_suffix() {
        let a: FeatureValue = "dstNet16=10.16.0.0/16".parse().unwrap();
        let b: FeatureValue = "dstNet16=10.16.9.9".parse().unwrap();
        assert_eq!(a, b, "low bits are masked away");
    }
}
