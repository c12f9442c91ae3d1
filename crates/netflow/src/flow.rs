//! Flow records: the fundamental unit of data in the anomaly-extraction
//! pipeline.
//!
//! A [`FlowRecord`] is the 5-tuple plus volume counters that a NetFlow-style
//! exporter emits for every unidirectional flow it observes. The paper mines
//! *seven* features per flow (source/destination IP and port, protocol,
//! packet count, byte count); all seven live here.

use std::fmt;
use std::net::Ipv4Addr;

/// IP protocol carried by a flow.
///
/// Only the protocols that matter for backbone anomaly analysis get named
/// variants; everything else is carried verbatim in [`Protocol::Other`] so a
/// round trip through the NetFlow codec is lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMP (protocol number 1).
    Icmp,
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// Any other IP protocol, by number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    #[must_use]
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    /// Build from an IANA protocol number, normalizing the named variants.
    #[must_use]
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Tcp => write!(f, "TCP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Other(n) => write!(f, "proto{n}"),
        }
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        Protocol::from_number(n)
    }
}

/// TCP control-flag bits accumulated over a flow, NetFlow-style
/// (`tcp_flags` field: the OR of the flags of all packets in the flow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN bit.
    pub const FIN: u8 = 0x01;
    /// SYN bit.
    pub const SYN: u8 = 0x02;
    /// RST bit.
    pub const RST: u8 = 0x04;
    /// PSH bit.
    pub const PSH: u8 = 0x08;
    /// ACK bit.
    pub const ACK: u8 = 0x10;
    /// URG bit.
    pub const URG: u8 = 0x20;

    /// A pure SYN flow (scan / flood signature).
    #[must_use]
    pub fn syn_only() -> Self {
        TcpFlags(Self::SYN)
    }

    /// SYN+ACK (backscatter signature).
    #[must_use]
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }

    /// Whether the given bit(s) are all set.
    #[must_use]
    pub fn contains(self, bits: u8) -> bool {
        self.0 & bits == bits
    }
}

/// A unidirectional flow record (NetFlow v5 semantics).
///
/// Timestamps are in **milliseconds** since an arbitrary epoch (for synthetic
/// traces: since the start of the scenario; for decoded NetFlow v5: `sysuptime`
/// milliseconds). The pipeline only ever uses differences and interval
/// bucketing, so the epoch does not matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowRecord {
    /// Flow start time, ms.
    pub start_ms: u64,
    /// Flow end time, ms (`>= start_ms`).
    pub end_ms: u64,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 for protocols without ports).
    pub src_port: u16,
    /// Destination transport port (0 for protocols without ports).
    pub dst_port: u16,
    /// IP protocol.
    pub proto: Protocol,
    /// Number of packets in the flow (NetFlow `dPkts`). Always `>= 1`.
    pub packets: u32,
    /// Number of layer-3 bytes in the flow (NetFlow `dOctets`).
    pub bytes: u32,
    /// Cumulative TCP flags (zero for non-TCP).
    pub tcp_flags: TcpFlags,
}

impl FlowRecord {
    /// Create a flow with the volume counters defaulted to a single
    /// 40-byte packet (minimal TCP segment), starting and ending at
    /// `start_ms`. Use the builder-style setters to refine.
    #[must_use]
    pub fn new(
        start_ms: u64,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        proto: Protocol,
    ) -> Self {
        FlowRecord {
            start_ms,
            end_ms: start_ms,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            packets: 1,
            bytes: 40,
            tcp_flags: TcpFlags::default(),
        }
    }

    /// Set the packet and byte counters.
    #[must_use]
    pub fn with_volume(mut self, packets: u32, bytes: u32) -> Self {
        self.packets = packets;
        self.bytes = bytes;
        self
    }

    /// Set the end timestamp (duration = `end_ms - start_ms`).
    #[must_use]
    pub fn with_end(mut self, end_ms: u64) -> Self {
        debug_assert!(end_ms >= self.start_ms);
        self.end_ms = end_ms;
        self
    }

    /// Set the cumulative TCP flags.
    #[must_use]
    pub fn with_flags(mut self, flags: TcpFlags) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Flow duration in milliseconds.
    #[must_use]
    pub fn duration_ms(&self) -> u64 {
        self.end_ms - self.start_ms
    }

    /// Mean packet size in bytes (0 if the flow somehow has no packets).
    #[must_use]
    pub fn mean_packet_size(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            f64::from(self.bytes) / f64::from(self.packets)
        }
    }
}

impl fmt::Display for FlowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{} pkts={} bytes={}",
            self.proto,
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.packets,
            self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn protocol_number_round_trip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn protocol_normalizes_named_variants() {
        assert_eq!(Protocol::from_number(6), Protocol::Tcp);
        assert_eq!(Protocol::from_number(17), Protocol::Udp);
        assert_eq!(Protocol::from_number(1), Protocol::Icmp);
        assert_eq!(Protocol::from_number(47), Protocol::Other(47));
    }

    #[test]
    fn protocol_display() {
        assert_eq!(Protocol::Tcp.to_string(), "TCP");
        assert_eq!(Protocol::Other(47).to_string(), "proto47");
    }

    #[test]
    fn tcp_flags_contains() {
        let f = TcpFlags::syn_ack();
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
    }

    #[test]
    fn flow_builder_sets_fields() {
        let f = FlowRecord::new(
            1000,
            ip("10.0.0.1"),
            ip("10.0.0.2"),
            1234,
            80,
            Protocol::Tcp,
        )
        .with_volume(10, 4000)
        .with_end(1500)
        .with_flags(TcpFlags::syn_only());
        assert_eq!(f.duration_ms(), 500);
        assert_eq!(f.packets, 10);
        assert_eq!(f.bytes, 4000);
        assert!((f.mean_packet_size() - 400.0).abs() < f64::EPSILON);
        assert!(f.tcp_flags.contains(TcpFlags::SYN));
    }

    #[test]
    fn default_flow_is_single_minimal_packet() {
        let f = FlowRecord::new(0, ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Protocol::Udp);
        assert_eq!(f.packets, 1);
        assert_eq!(f.bytes, 40);
        assert_eq!(f.duration_ms(), 0);
    }

    #[test]
    fn mean_packet_size_zero_packets() {
        let mut f = FlowRecord::new(0, ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Protocol::Udp);
        f.packets = 0;
        assert_eq!(f.mean_packet_size(), 0.0);
    }

    #[test]
    fn flow_display_mentions_endpoints() {
        let f = FlowRecord::new(0, ip("10.0.0.1"), ip("10.0.0.2"), 1234, 80, Protocol::Tcp);
        let s = f.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(s.contains("10.0.0.2:80"));
    }
}
