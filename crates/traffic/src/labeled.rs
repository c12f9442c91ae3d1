//! Ground-truth-labeled intervals.
//!
//! The paper's hardest practical problem — "inherent limitations in finding
//! the precise ground truth of event flows in real-world traffic traces"
//! (§I-B) — disappears with a synthetic workload: every flow knows which
//! event injected it. [`LabeledInterval`] carries that per-flow label.

use anomex_netflow::FlowRecord;

use crate::anomaly::EventId;

/// One generated measurement interval with exact per-flow ground truth.
#[derive(Debug, Clone)]
pub struct LabeledInterval {
    /// Zero-based interval index within the scenario.
    pub index: u64,
    /// Inclusive window start, ms.
    pub begin_ms: u64,
    /// Exclusive window end, ms.
    pub end_ms: u64,
    /// The interval's flows, time-ordered.
    pub flows: Vec<FlowRecord>,
    /// Parallel to `flows`: the event that injected each flow
    /// (`None` = background).
    pub labels: Vec<Option<EventId>>,
}

impl LabeledInterval {
    /// Whether any event flow is present.
    #[must_use]
    pub fn is_anomalous(&self) -> bool {
        self.labels.iter().any(Option::is_some)
    }

    /// Number of flows injected by a specific event.
    #[must_use]
    pub fn event_flow_count(&self, id: EventId) -> usize {
        self.labels.iter().filter(|l| **l == Some(id)).count()
    }

    /// Total number of event (non-background) flows.
    #[must_use]
    pub fn anomalous_flow_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Iterate (flow, label) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowRecord, Option<EventId>)> + '_ {
        self.flows.iter().zip(self.labels.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn flow() -> FlowRecord {
        FlowRecord::new(
            0,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            Protocol::Tcp,
        )
    }

    fn interval() -> LabeledInterval {
        LabeledInterval {
            index: 0,
            begin_ms: 0,
            end_ms: 1000,
            flows: vec![flow(); 5],
            labels: vec![
                None,
                Some(EventId(1)),
                Some(EventId(1)),
                Some(EventId(2)),
                None,
            ],
        }
    }

    #[test]
    fn counts_and_presence() {
        let iv = interval();
        assert!(iv.is_anomalous());
        assert_eq!(iv.anomalous_flow_count(), 3);
        assert_eq!(iv.event_flow_count(EventId(1)), 2);
        assert_eq!(iv.event_flow_count(EventId(2)), 1);
        assert_eq!(iv.event_flow_count(EventId(9)), 0);
    }

    #[test]
    fn background_only_interval() {
        let iv = LabeledInterval {
            index: 1,
            begin_ms: 0,
            end_ms: 1000,
            flows: vec![flow(); 3],
            labels: vec![None; 3],
        };
        assert!(!iv.is_anomalous());
        assert_eq!(iv.anomalous_flow_count(), 0);
    }

    #[test]
    fn iter_pairs_flows_with_labels() {
        let iv = interval();
        let labeled: Vec<_> = iv.iter().filter(|(_, l)| l.is_some()).collect();
        assert_eq!(labeled.len(), 3);
    }
}
