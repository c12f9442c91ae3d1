//! Entropy-based anomaly detection — an alternative detector family from
//! the paper's Table I.
//!
//! The paper's extraction method is detector-agnostic: anything that can
//! name suspicious feature values can feed the pre-filter ("useful
//! meta-data provided by various anomaly detectors", Table I; entropy
//! detectors per Wagner & Plattner, ref. 33, and Lakhina et al., ref. 18).
//! This module implements the classic sample-entropy detector: track the
//! per-interval Shannon entropy of a feature's exact value distribution,
//! alarm on *two-sided* spikes of its first difference (scans raise
//! entropy by spraying values; DoS concentrates it), and propose the
//! values whose probability shifted most as meta-data.

use std::collections::{BTreeMap, BTreeSet};

use anomex_netflow::{FlowFeature, FlowRecord};

use crate::threshold::{robust_sigma, SIGMA_FLOOR};

/// Shannon entropy (bits) of a value-count map, summed in value order so
/// that the same counts give the same bits.
///
/// Returns 0 for an empty map (no flows ⇒ no uncertainty).
#[must_use]
pub fn shannon_entropy(counts: &BTreeMap<u64, u64>) -> f64 {
    let total: u64 = counts.values().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut h = 0.0;
    for &c in counts.values() {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

/// What the entropy detector saw in one interval.
#[derive(Debug, Clone)]
pub struct EntropyObservation {
    /// The interval's sample entropy (bits).
    pub entropy: f64,
    /// First difference of the entropy series (`None` on the first
    /// interval).
    pub first_diff: Option<f64>,
    /// Whether the two-sided alarm fired (never during training).
    pub alarm: bool,
    /// The feature values with the largest probability shifts (empty
    /// unless `alarm`).
    pub values: BTreeSet<u64>,
}

/// Sample-entropy detector for one traffic feature.
///
/// Unlike the histogram clones, this detector tracks the *exact* value
/// distribution (no hashing), which is viable for features with bounded
/// alphabets (ports, packet counts, prefixes) and demonstrates meta-data
/// interoperability for the extraction pipeline.
#[derive(Debug)]
pub struct EntropyDetector {
    feature: FlowFeature,
    alpha: f64,
    training_intervals: usize,
    training_diffs: Vec<f64>,
    sigma: Option<f64>,
    prev_counts: Option<BTreeMap<u64, u64>>,
    prev_entropy: Option<f64>,
    /// Maximum number of meta-data values proposed per alarm.
    max_values: usize,
}

impl EntropyDetector {
    /// New detector with threshold `alpha · σ̂` fitted after
    /// `training_intervals` first differences.
    ///
    /// # Panics
    ///
    /// Panics if `training_intervals < 2`.
    #[must_use]
    pub fn new(feature: FlowFeature, alpha: f64, training_intervals: usize) -> Self {
        assert!(
            training_intervals >= 2,
            "need at least 2 training intervals"
        );
        EntropyDetector {
            feature,
            alpha,
            training_intervals,
            training_diffs: Vec::new(),
            sigma: None,
            prev_counts: None,
            prev_entropy: None,
            max_values: 32,
        }
    }

    /// The monitored feature.
    #[must_use]
    pub fn feature(&self) -> FlowFeature {
        self.feature
    }

    /// The fitted σ̂, once training completes.
    #[must_use]
    pub fn sigma(&self) -> Option<f64> {
        self.sigma
    }

    /// Whether training has completed.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.sigma.is_some()
    }

    /// Observe one interval.
    pub fn observe(&mut self, flows: &[FlowRecord]) -> EntropyObservation {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for flow in flows {
            *counts.entry(self.feature.value_of(flow).raw).or_insert(0) += 1;
        }
        let entropy = shannon_entropy(&counts);
        let first_diff = self.prev_entropy.map(|prev| entropy - prev);

        let mut alarm = false;
        let mut values = BTreeSet::new();
        if let Some(diff) = first_diff {
            match self.sigma {
                None => {
                    self.training_diffs.push(diff);
                    if self.training_diffs.len() >= self.training_intervals {
                        self.sigma = Some(robust_sigma(&self.training_diffs).max(SIGMA_FLOOR));
                        self.training_diffs.clear();
                    }
                }
                Some(sigma) => {
                    // Two-sided: concentration (DoS) drops entropy, value
                    // spraying (scans) raises it.
                    if diff.abs() > self.alpha * sigma {
                        alarm = true;
                        values = self.top_movers(&counts, flows.len() as u64);
                    }
                }
            }
        }

        self.prev_entropy = Some(entropy);
        self.prev_counts = Some(counts);
        EntropyObservation {
            entropy,
            first_diff,
            alarm,
            values,
        }
    }

    /// The values whose probability shifted most against the previous
    /// interval, capped at `max_values`, covering ≥ 50 % of the total
    /// shift. Every value of either interval is weighed once; equal
    /// shifts rank the smaller value first.
    fn top_movers(&self, counts: &BTreeMap<u64, u64>, total: u64) -> BTreeSet<u64> {
        let empty = BTreeMap::new();
        let prev = self.prev_counts.as_ref().unwrap_or(&empty);
        let prev_total: u64 = prev.values().sum();
        let p_now = |v: u64| counts.get(&v).copied().unwrap_or(0) as f64 / total.max(1) as f64;
        let p_before =
            |v: u64| prev.get(&v).copied().unwrap_or(0) as f64 / prev_total.max(1) as f64;
        let values: BTreeSet<u64> = counts.keys().chain(prev.keys()).copied().collect();
        let mut shifts: Vec<(u64, f64)> = values
            .into_iter()
            .map(|v| (v, (p_now(v) - p_before(v)).abs()))
            .collect();
        shifts.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let total_shift: f64 = shifts.iter().map(|&(_, s)| s).sum();
        let mut out = BTreeSet::new();
        let mut covered = 0.0;
        for (value, shift) in shifts {
            if out.len() >= self.max_values || (covered >= 0.5 * total_shift && !out.is_empty()) {
                break;
            }
            out.insert(value);
            covered += shift;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn flows_to_ports(ports: &[u16]) -> Vec<FlowRecord> {
        ports
            .iter()
            .map(|&p| {
                FlowRecord::new(
                    0,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    4000,
                    p,
                    Protocol::Tcp,
                )
            })
            .collect()
    }

    fn steady(i: u64) -> Vec<FlowRecord> {
        // 64 evenly-used ports with a small deterministic wobble.
        let ports: Vec<u16> = (0..512u16).map(|j| 1 + (j + i as u16) % 64).collect();
        flows_to_ports(&ports)
    }

    #[test]
    fn entropy_of_uniform_beats_concentrated() {
        let mut uniform = BTreeMap::new();
        for v in 0..16u64 {
            uniform.insert(v, 10);
        }
        let mut concentrated = BTreeMap::new();
        concentrated.insert(1u64, 150);
        concentrated.insert(2, 10);
        assert!(shannon_entropy(&uniform) > shannon_entropy(&concentrated));
        // Uniform over 16 values = exactly 4 bits.
        assert!((shannon_entropy(&uniform) - 4.0).abs() < 1e-12);
        assert_eq!(shannon_entropy(&BTreeMap::new()), 0.0);
    }

    fn trained() -> EntropyDetector {
        let mut d = EntropyDetector::new(FlowFeature::DstPort, 3.0, 8);
        for i in 0..10 {
            let obs = d.observe(&steady(i));
            assert!(!obs.alarm, "no alarm during training");
        }
        assert!(d.is_trained());
        d
    }

    #[test]
    fn scan_raises_entropy_and_alarms() {
        let mut d = trained();
        // A port scan sprays 400 distinct previously-unseen ports.
        let mut flows = steady(10);
        flows.extend(flows_to_ports(&(1000..1400).collect::<Vec<u16>>()));
        let obs = d.observe(&flows);
        assert!(obs.first_diff.unwrap() > 0.0, "spraying raises entropy");
        assert!(obs.alarm);
        assert!(!obs.values.is_empty());
    }

    #[test]
    fn flood_concentration_drops_entropy_and_alarms() {
        let mut d = trained();
        // A flood on one port concentrates the distribution.
        let mut flows = steady(10);
        flows.extend(flows_to_ports(&vec![7000u16; 3000]));
        let obs = d.observe(&flows);
        assert!(obs.first_diff.unwrap() < 0.0, "concentration drops entropy");
        assert!(obs.alarm, "two-sided threshold catches the drop");
        assert!(
            obs.values.contains(&7000),
            "the flooded port is the top mover: {:?}",
            obs.values
        );
    }

    #[test]
    fn steady_traffic_stays_quiet() {
        let mut d = trained();
        for i in 10..20 {
            let obs = d.observe(&steady(i));
            assert!(!obs.alarm, "interval {i} alarmed on steady traffic");
        }
    }

    #[test]
    fn top_movers_are_bounded() {
        let mut d = trained();
        let mut flows = steady(10);
        flows.extend(flows_to_ports(&(2000..4000).collect::<Vec<u16>>()));
        let obs = d.observe(&flows);
        assert!(obs.alarm);
        assert!(
            obs.values.len() <= 32,
            "meta-data capped: {}",
            obs.values.len()
        );
    }

    #[test]
    fn empty_interval_is_tolerated() {
        let mut d = EntropyDetector::new(FlowFeature::DstPort, 3.0, 3);
        for _ in 0..6 {
            let obs = d.observe(&[]);
            assert_eq!(obs.entropy, 0.0);
            assert!(!obs.alarm);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 training intervals")]
    fn short_training_panics() {
        let _ = EntropyDetector::new(FlowFeature::DstPort, 3.0, 1);
    }
}
