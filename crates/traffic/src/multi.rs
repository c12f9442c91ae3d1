//! Multi-exporter scenarios: one workload observed over several links.
//!
//! The paper's traces come from **multiple SWITCH border routers**, each
//! exporting its own link's traffic into one collector. This module
//! synthesizes that setting: a [`MultiSourceScenario`] is a set of links,
//! each with its own background volume (`rate`), its own exporter clock
//! offset (`skew_ms`), and its own share of the planted anomalies —
//! events hit a *subset* of links, exactly as a scan entering through one
//! border router does.
//!
//! Each link is an ordinary [`Scenario`] (independent Zipf/Pareto
//! background, deterministic per `(seed, link, interval)`), so per-link
//! traffic streams in O(interval) memory;
//! [`generate`](MultiSourceScenario::generate) returns flows timestamped
//! in the **link-local clock** (grid time plus the link's skew), matching what
//! that exporter would put on the wire. Feed them to a merge layer with
//! [`source_specs`](MultiSourceScenario::source_specs) and the skews
//! cancel back onto one shared interval grid.

use anomex_netflow::{SourceId, SourceSpec};

use crate::labeled::LabeledInterval;
use crate::scenario::Scenario;

/// One link (exporter) of a multi-source scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Background volume multiplier relative to the base scenario
    /// (1.0 = the base link rate). Must be positive.
    pub rate: f64,
    /// Exporter clock offset: this link's flows are timestamped
    /// `skew_ms` later than grid time, as if the router's clock ran
    /// ahead. The link's [`SourceSpec::origin_ms`] equals this skew.
    pub skew_ms: u64,
    /// Whether the planted anomaly events traverse this link.
    pub carries_anomalies: bool,
}

impl Default for LinkConfig {
    /// A full-rate, skew-free link that carries anomalies.
    fn default() -> Self {
        LinkConfig {
            rate: 1.0,
            skew_ms: 0,
            carries_anomalies: true,
        }
    }
}

/// A reproducible multi-exporter workload: one [`Scenario`] per link,
/// sharing an interval grid but differing in volume, clock skew, and
/// anomaly exposure.
#[derive(Debug, Clone)]
pub struct MultiSourceScenario {
    links: Vec<LinkConfig>,
    scenarios: Vec<Scenario>,
}

impl MultiSourceScenario {
    /// Build a multi-link workload over the fast test scenario
    /// ([`Scenario::small`]): each link gets an independent background
    /// (derived from `seed` and the link index), volume scaled by its
    /// `rate`, and the small scenario's three planted events only when
    /// it `carries_anomalies`.
    ///
    /// # Panics
    ///
    /// Panics when `links` is empty or any rate is not positive.
    #[must_use]
    pub fn small(seed: u64, links: Vec<LinkConfig>) -> Self {
        assert!(!links.is_empty(), "a multi-source scenario needs links");
        let scenarios = links
            .iter()
            .enumerate()
            .map(|(i, link)| {
                assert!(link.rate > 0.0, "link {i} rate must be positive");
                // Each link sees different traffic: its own seed, hence
                // its own endpoint mix, drift, and event details.
                let base = Scenario::small(seed ^ (0x5EED_0001_u64.wrapping_mul(i as u64 + 1)));
                let mut config = base.config().clone();
                config.background.flows_per_interval =
                    ((config.background.flows_per_interval as f64 * link.rate) as u64).max(1);
                let events = if link.carries_anomalies {
                    base.events().to_vec()
                } else {
                    Vec::new()
                };
                Scenario::new(config, events)
            })
            .collect();
        MultiSourceScenario { links, scenarios }
    }

    /// A ready-made `n`-link preset: link 0 at full rate, skew-free,
    /// carrying the anomalies; each further link at a lower rate with a
    /// distinct sub-interval clock skew, anomaly-free — the common
    /// "attack enters through one border router" shape.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn uniform(seed: u64, n: usize) -> Self {
        assert!(n > 0, "need at least one link");
        let links = (0..n)
            .map(|i| LinkConfig {
                rate: 1.0 / (1.0 + 0.5 * i as f64),
                skew_ms: (i as u64) * 437,
                carries_anomalies: i == 0,
            })
            .collect();
        Self::small(seed, links)
    }

    /// The link configurations, in source order.
    #[must_use]
    pub fn links(&self) -> &[LinkConfig] {
        &self.links
    }

    /// The merge-layer bindings: source `i` with origin equal to its
    /// clock skew, so every link lands on the same grid.
    #[must_use]
    pub fn source_specs(&self) -> Vec<SourceSpec> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, link)| SourceSpec::new(SourceId(i as u32), link.skew_ms))
            .collect()
    }

    /// Number of grid intervals (shared by every link).
    #[must_use]
    pub fn interval_count(&self) -> u64 {
        self.scenarios[0].interval_count()
    }

    /// Interval length Δ in ms (shared by every link).
    #[must_use]
    pub fn interval_ms(&self) -> u64 {
        self.scenarios[0].interval_ms()
    }

    /// The per-link scenario (events, anomalous intervals, …).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    #[must_use]
    pub fn link_scenario(&self, source: usize) -> &Scenario {
        &self.scenarios[source]
    }

    /// Generate one link's interval, timestamped in the **link-local
    /// clock** (grid time shifted by the link's skew) — what that
    /// exporter would emit on the wire. Deterministic in
    /// `(seed, source, interval)`.
    ///
    /// # Panics
    ///
    /// Panics when `source` or `interval` is out of range.
    #[must_use]
    pub fn generate(&self, source: usize, interval: u64) -> LabeledInterval {
        let skew = self.links[source].skew_ms;
        let mut iv = self.scenarios[source].generate(interval);
        if skew > 0 {
            iv.begin_ms += skew;
            iv.end_ms += skew;
            for flow in &mut iv.flows {
                flow.start_ms += skew;
                flow.end_ms += skew;
            }
        }
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_preset_shapes_links() {
        let ms = MultiSourceScenario::uniform(7, 3);
        assert_eq!(ms.links().len(), 3);
        assert!(ms.links()[0].carries_anomalies);
        assert!(!ms.links()[1].carries_anomalies);
        assert!(ms.links()[1].rate < ms.links()[0].rate);
        let specs = ms.source_specs();
        assert_eq!(specs[0].origin_ms, 0);
        assert_eq!(specs[2].origin_ms, 2 * 437);
        assert_eq!(specs[1].id, SourceId(1));
    }

    #[test]
    fn anomalies_only_on_carrying_links() {
        let ms = MultiSourceScenario::uniform(3, 2);
        assert!(!ms.link_scenario(0).events().is_empty());
        assert!(ms.link_scenario(1).events().is_empty());
        // The small scenario's flood interval is anomalous on link 0
        // only.
        let flood = *ms
            .link_scenario(0)
            .anomalous_intervals()
            .iter()
            .next()
            .unwrap();
        assert!(ms.generate(0, flood).is_anomalous());
        assert!(!ms.generate(1, flood).is_anomalous());
    }

    #[test]
    fn skew_shifts_timestamps_into_the_local_clock() {
        let links = vec![
            LinkConfig::default(),
            LinkConfig {
                skew_ms: 250,
                ..LinkConfig::default()
            },
        ];
        let ms = MultiSourceScenario::small(5, links);
        let grid = ms.interval_ms();
        let iv0 = ms.generate(0, 2);
        let iv1 = ms.generate(1, 2);
        assert_eq!(iv0.begin_ms, 2 * grid);
        assert_eq!(iv1.begin_ms, 2 * grid + 250);
        assert!(iv1.flows.iter().all(|f| f.start_ms >= iv1.begin_ms));
        assert!(iv1.flows.iter().all(|f| f.start_ms < iv1.end_ms));
    }

    #[test]
    fn links_see_different_traffic_but_generation_is_deterministic() {
        let ms = MultiSourceScenario::uniform(11, 2);
        let a = ms.generate(0, 4);
        let b = ms.generate(1, 4);
        assert_ne!(a.flows, b.flows, "independent backgrounds");
        let again = ms.generate(1, 4);
        assert_eq!(b.flows, again.flows, "deterministic per (seed, link)");
    }

    #[test]
    fn rate_scales_link_volume() {
        let links = vec![
            LinkConfig::default(),
            LinkConfig {
                rate: 0.25,
                ..LinkConfig::default()
            },
        ];
        let ms = MultiSourceScenario::small(9, links);
        let full = ms.generate(0, 5).flows.len();
        let quarter = ms.generate(1, 5).flows.len();
        assert!(
            quarter * 3 < full,
            "quarter-rate link carries much less: {quarter} vs {full}"
        );
    }

    #[test]
    #[should_panic(expected = "needs links")]
    fn empty_links_panic() {
        let _ = MultiSourceScenario::small(1, Vec::new());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn non_positive_rate_panics() {
        let _ = MultiSourceScenario::small(
            1,
            vec![LinkConfig {
                rate: 0.0,
                ..LinkConfig::default()
            }],
        );
    }
}
