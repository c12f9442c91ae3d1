//! Scenarios: reproducible multi-interval workloads with planted events.
//!
//! [`Scenario::two_weeks`] mirrors the paper's evaluation dataset: two
//! weeks of 15-minute intervals with **36 events in 31 anomalous
//! intervals** across the seven Table IV classes, after a one-day training
//! period. Volumes are scaled (configurable) so the default runs on a
//! laptop; `scale` multiplies both background and event flow counts up to
//! paper magnitude.
//!
//! Every interval is generated independently and deterministically from
//! `(seed, interval)`, so scenarios stream in O(interval) memory and can be
//! regenerated piecewise.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use anomex_netflow::FlowRecord;

use crate::anomaly::{EventId, EventParams, EventSpec};
use crate::background::{BackgroundConfig, BackgroundModel};
use crate::inject;
use crate::labeled::LabeledInterval;
use crate::rng::{mix, Rng};

/// 15 minutes in milliseconds — the paper's Δ.
pub const FIFTEEN_MIN_MS: u64 = 15 * 60 * 1000;
/// Intervals per day at Δ = 15 min.
pub const INTERVALS_PER_DAY: u64 = 96;
/// Two weeks of 15-minute intervals.
pub const TWO_WEEKS_INTERVALS: u64 = 14 * INTERVALS_PER_DAY;

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed; every interval derives its own RNG from it.
    pub seed: u64,
    /// Number of measurement intervals.
    pub intervals: u64,
    /// Interval length in milliseconds.
    pub interval_ms: u64,
    /// Background traffic model.
    pub background: BackgroundConfig,
}

/// A reproducible workload: background model + planted events.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
    model: BackgroundModel,
    events: Vec<EventSpec>,
}

impl Scenario {
    /// Build a scenario from a config and explicit events.
    ///
    /// # Panics
    ///
    /// Panics if any event extends beyond the scenario or injects zero
    /// flows.
    #[must_use]
    pub fn new(config: ScenarioConfig, events: Vec<EventSpec>) -> Self {
        for e in &events {
            assert!(
                e.start_interval + e.duration <= config.intervals,
                "{} extends beyond the scenario ({} + {} > {})",
                e.id,
                e.start_interval,
                e.duration,
                config.intervals
            );
            assert!(e.flows_per_interval > 0, "{} injects no flows", e.id);
            assert!(e.duration > 0, "{} has zero duration", e.id);
        }
        let model = BackgroundModel::new(config.background.clone());
        Scenario {
            config,
            model,
            events,
        }
    }

    /// The paper-shaped evaluation workload: two weeks, Δ = 15 min,
    /// 36 events in 31 distinct anomalous intervals across all seven
    /// classes, first day anomaly-free for training. Event volumes are a
    /// few percent of the interval volume — like the paper's, large enough
    /// to disrupt their own feature values but not the global flow-size
    /// mix.
    ///
    /// `scale = 1.0` gives a laptop-friendly ~20 k background flows per
    /// interval; `scale ≈ 50` reaches the paper's 0.7–2.6 M.
    #[must_use]
    pub fn two_weeks(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let s = |n: u64| ((n as f64 * scale) as u64).max(1);
        let background = BackgroundConfig {
            flows_per_interval: s(20_000),
            mix_seed: seed ^ 0xD1F7,
            ..BackgroundConfig::default()
        };
        let config = ScenarioConfig {
            seed,
            intervals: TWO_WEEKS_INTERVALS,
            interval_ms: FIFTEEN_MIN_MS,
            background,
        };

        // 31 anomalous intervals, spread over days 2–14; the first five
        // host two events each (36 events total, like the paper).
        let slots: Vec<u64> = (0..31)
            .map(|i| 100 + i * 38 + (mix(seed, i) % 7)) // jittered spacing
            .collect();
        debug_assert!(slots.iter().all(|&s| s < TWO_WEEKS_INTERVALS));

        let local = |a: u8, b: u8, c: u8| Ipv4Addr::new(10, a, b, c);
        let mut events = Vec::new();
        let mut next_id = 0u32;
        let mut push =
            |events: &mut Vec<EventSpec>, interval: u64, flows: u64, params: EventParams| {
                events.push(EventSpec {
                    id: EventId(next_id),
                    start_interval: interval,
                    duration: 1,
                    flows_per_interval: s(flows),
                    params,
                });
                next_id += 1;
            };

        // Class layout: 12 scans, 5 floods, 5 backscatter, 4 DDoS, 4 spam,
        // 3 network experiments, 3 unknown = 36 events.
        let scan_ports = [
            445u16, 22, 3389, 23, 1433, 5900, 139, 445, 80, 8080, 22, 445,
        ];
        for (i, &port) in scan_ports.iter().enumerate() {
            let scanner = Ipv4Addr::new(60 + i as u8, 7, 7, 7);
            push(
                &mut events,
                slots[i],
                700 + (i as u64 % 3) * 150,
                EventParams::Scanning { scanner, port },
            );
        }
        for i in 0..5u64 {
            let sources = vec![
                Ipv4Addr::new(90 + i as u8, 1, 1, 1),
                Ipv4Addr::new(90 + i as u8, 1, 1, 2),
                Ipv4Addr::new(90 + i as u8, 1, 1, 3),
            ];
            push(
                &mut events,
                slots[12 + i as usize],
                1200 + i * 150,
                EventParams::Flooding {
                    sources,
                    victim: local(3, i as u8, 7),
                    port: 7000 + i as u16,
                },
            );
        }
        for i in 0..5u64 {
            push(
                &mut events,
                slots[17 + i as usize],
                600 + i * 100,
                EventParams::Backscatter {
                    port: 9022 + (i as u16) * 100,
                },
            );
        }
        for i in 0..4u64 {
            push(
                &mut events,
                slots[22 + i as usize],
                1000 + i * 200,
                EventParams::DDoS {
                    victim: local(5, i as u8, 80),
                    port: if i % 2 == 0 { 80 } else { 53 },
                    attackers: 800 + (i as u32) * 300,
                },
            );
        }
        for i in 0..4u64 {
            push(
                &mut events,
                slots[26 + i as usize],
                800 + i * 100,
                EventParams::Spam {
                    servers: vec![local(8, 0, 25), local(8, 1, 25)],
                    senders: 60 + (i as u32) * 20,
                },
            );
        }
        // Slots 0–29 are used above; the three experiments double up on
        // slots 0–2 and two unknowns on slots 3–4 (five intervals with two
        // events each), while the last unknown takes slot 30 alone:
        // 36 events over 31 distinct intervals, like the paper.
        for i in 0..3u64 {
            push(
                &mut events,
                slots[i as usize],
                600 + i * 100,
                EventParams::NetworkExperiment {
                    node: local(12, 0, 42 + i as u8),
                    src_port: 33434,
                    dst_port: 33435 + i as u16,
                },
            );
        }
        for i in 0..2u64 {
            push(
                &mut events,
                slots[3 + i as usize],
                800,
                EventParams::Unknown {
                    a: local(13, i as u8, 1),
                    b: Ipv4Addr::new(185, 44, i as u8, 9),
                },
            );
        }
        push(
            &mut events,
            slots[30],
            800,
            EventParams::Unknown {
                a: local(13, 9, 1),
                b: Ipv4Addr::new(185, 44, 9, 9),
            },
        );

        Scenario::new(config, events)
    }

    /// A small, fast scenario for tests: `intervals` intervals of 1-minute
    /// windows with a reduced background and a handful of events.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        let background = BackgroundConfig {
            flows_per_interval: 4000,
            diurnal: false,
            noise: 0.03,
            // Mild composition drift: short training windows (tests use
            // ~10 intervals) cannot calibrate σ̂ against full drift.
            mix_drift: 0.05,
            mix_seed: seed ^ 0xD1F7,
            ..BackgroundConfig::default()
        };
        let config = ScenarioConfig {
            seed,
            intervals: 40,
            interval_ms: 60_000,
            background,
        };
        let events = vec![
            EventSpec {
                id: EventId(0),
                start_interval: 20,
                duration: 1,
                flows_per_interval: 3000,
                params: EventParams::Flooding {
                    sources: vec![Ipv4Addr::new(91, 1, 1, 1), Ipv4Addr::new(91, 1, 1, 2)],
                    victim: Ipv4Addr::new(10, 3, 0, 7),
                    port: 7000,
                },
            },
            EventSpec {
                id: EventId(1),
                start_interval: 28,
                duration: 1,
                flows_per_interval: 2500,
                params: EventParams::Scanning {
                    scanner: Ipv4Addr::new(66, 6, 6, 6),
                    port: 445,
                },
            },
            EventSpec {
                id: EventId(2),
                start_interval: 34,
                duration: 1,
                flows_per_interval: 2000,
                params: EventParams::Backscatter { port: 9022 },
            },
        ];
        Scenario::new(config, events)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The planted events.
    #[must_use]
    pub fn events(&self) -> &[EventSpec] {
        &self.events
    }

    /// Number of intervals.
    #[must_use]
    pub fn interval_count(&self) -> u64 {
        self.config.intervals
    }

    /// Interval length in ms.
    #[must_use]
    pub fn interval_ms(&self) -> u64 {
        self.config.interval_ms
    }

    /// The set of intervals containing at least one active event.
    #[must_use]
    pub fn anomalous_intervals(&self) -> BTreeSet<u64> {
        self.events
            .iter()
            .flat_map(EventSpec::active_intervals)
            .collect()
    }

    /// Events active in a given interval.
    #[must_use]
    pub fn events_in(&self, interval: u64) -> Vec<&EventSpec> {
        self.events
            .iter()
            .filter(|e| e.active_in(interval))
            .collect()
    }

    /// Generate one interval (background + active events), time-sorted and
    /// labeled. Deterministic in `(seed, interval)`.
    ///
    /// # Panics
    ///
    /// Panics if `interval >= interval_count()`.
    #[must_use]
    pub fn generate(&self, interval: u64) -> LabeledInterval {
        assert!(interval < self.config.intervals, "interval out of range");
        let begin_ms = interval * self.config.interval_ms;
        let end_ms = begin_ms + self.config.interval_ms;

        let mut rng = Rng::seed_from_u64(mix(self.config.seed, interval));
        let mut pairs: Vec<(FlowRecord, Option<EventId>)> = self
            .model
            .generate(interval, begin_ms, self.config.interval_ms, &mut rng)
            .into_iter()
            .map(|f| (f, None))
            .collect();

        for event in &self.events {
            if event.active_in(interval) {
                let mut ev_rng = Rng::seed_from_u64(mix(
                    self.config.seed,
                    mix(u64::from(event.id.0) + 1, interval),
                ));
                for flow in inject::inject(
                    event,
                    interval,
                    begin_ms,
                    self.config.interval_ms,
                    &mut ev_rng,
                ) {
                    pairs.push((flow, Some(event.id)));
                }
            }
        }

        pairs.sort_by_key(|(f, _)| f.start_ms);
        let (flows, labels) = pairs.into_iter().unzip();
        LabeledInterval {
            index: interval,
            begin_ms,
            end_ms,
            flows,
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyClass;

    #[test]
    fn two_weeks_has_the_papers_event_structure() {
        let sc = Scenario::two_weeks(42, 0.1);
        assert_eq!(sc.interval_count(), TWO_WEEKS_INTERVALS);
        assert_eq!(sc.events().len(), 36, "36 events like the paper");
        assert_eq!(sc.anomalous_intervals().len(), 31, "31 anomalous intervals");
        // First day is clean for training.
        assert!(sc
            .anomalous_intervals()
            .iter()
            .all(|&i| i >= INTERVALS_PER_DAY));
        // All seven classes are represented.
        let classes: BTreeSet<AnomalyClass> = sc.events().iter().map(EventSpec::class).collect();
        assert_eq!(classes.len(), 7);
    }

    #[test]
    fn class_counts_match_layout() {
        let sc = Scenario::two_weeks(1, 0.1);
        let count = |class: AnomalyClass| sc.events().iter().filter(|e| e.class() == class).count();
        assert_eq!(count(AnomalyClass::Scanning), 12);
        assert_eq!(count(AnomalyClass::Flooding), 5);
        assert_eq!(count(AnomalyClass::Backscatter), 5);
        assert_eq!(count(AnomalyClass::DDoS), 4);
        assert_eq!(count(AnomalyClass::Spam), 4);
        assert_eq!(count(AnomalyClass::NetworkExperiment), 3);
        assert_eq!(count(AnomalyClass::Unknown), 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let sc = Scenario::small(7);
        let a = sc.generate(20);
        let b = sc.generate(20);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn event_interval_carries_labeled_flows() {
        let sc = Scenario::small(7);
        let iv = sc.generate(20);
        assert!(iv.is_anomalous());
        let event_flows = iv.labels.iter().filter(|l| **l == Some(EventId(0)));
        assert_eq!(event_flows.count(), 3000);
        // Background is present too.
        assert!(iv.flows.len() > 3000);
    }

    #[test]
    fn clean_interval_has_no_labels() {
        let sc = Scenario::small(7);
        let iv = sc.generate(5);
        assert!(!iv.is_anomalous());
    }

    #[test]
    fn flows_are_time_sorted_within_window() {
        let sc = Scenario::small(7);
        let iv = sc.generate(20);
        assert!(iv.flows.windows(2).all(|w| w[0].start_ms <= w[1].start_ms));
        assert!(iv
            .flows
            .iter()
            .all(|f| f.start_ms >= iv.begin_ms && f.start_ms < iv.end_ms));
    }

    #[test]
    fn scale_multiplies_volumes() {
        let small = Scenario::two_weeks(1, 0.05);
        let big = Scenario::two_weeks(1, 0.1);
        assert_eq!(
            big.config().background.flows_per_interval,
            2 * small.config().background.flows_per_interval
        );
        assert_eq!(
            big.events()[0].flows_per_interval,
            2 * small.events()[0].flows_per_interval
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::small(1).generate(3);
        let b = Scenario::small(2).generate(3);
        assert_ne!(a.flows, b.flows);
    }

    #[test]
    #[should_panic(expected = "extends beyond the scenario")]
    fn event_past_end_panics() {
        let mut sc = Scenario::small(1);
        let cfg = sc.config().clone();
        let mut events = sc.events().to_vec();
        events[0].start_interval = 39;
        events[0].duration = 5;
        sc = Scenario::new(cfg, events);
        let _ = sc;
    }

    #[test]
    #[should_panic(expected = "interval out of range")]
    fn generate_out_of_range_panics() {
        let _ = Scenario::small(1).generate(40);
    }
}
