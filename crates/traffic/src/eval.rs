//! Scenario evaluation harness — reproduces the paper's §III analyses.
//!
//! Runs a labeled [`Scenario`] through the engine and scores what it
//! mined — the suspicious transactions the engine itself gathered, under
//! the configuration's pre-filter and transaction mode — with the exact
//! per-flow ground truth the synthetic workload provides:
//!
//! - interval-level detection (Fig. 6 ROC inputs: per-clone scores +
//!   truth);
//! - item-set-level true/false positives (Fig. 9), scored by the dominant
//!   label of the flows each item-set matches;
//! - classification-cost reduction (Fig. 10);
//! - per-class detection and extraction summary (Table IV).

use std::collections::BTreeMap;

use anomex_core::{
    classify_itemset, cost_reduction, prefilter_indices_columns, AnomalyClass, Engine, Extraction,
    ExtractionConfig,
};
use anomex_mining::{mine, ItemSet, TransactionSet};
use anomex_netflow::FlowColumns;

use crate::{EventId, Scenario};

/// An extracted item-set judged against ground truth.
#[derive(Debug, Clone)]
pub struct EvaluatedItemSet {
    /// The item-set.
    pub itemset: ItemSet,
    /// Suspicious flows matching every item of the set.
    pub matching_flows: u64,
    /// Fraction of those flows carrying an event label.
    pub event_flow_fraction: f64,
    /// The most common event among matching flows, if any.
    pub dominant_event: Option<EventId>,
    /// True positive: the majority of matching flows belong to an event.
    pub is_tp: bool,
    /// The rule-based class hint (for Table IV-style summaries).
    pub class_hint: Option<AnomalyClass>,
}

/// Judge item-sets against labeled suspicious transactions (`labels[i]`
/// is transaction `i`'s flow label). An item-set is a true positive when
/// the majority of the transactions it matches are event flows — the
/// automated equivalent of the paper's manual "matched the identified
/// events" judgement.
///
/// # Panics
///
/// Panics if `transactions` and `labels` differ in length.
#[must_use]
pub fn evaluate_itemsets(
    itemsets: &[ItemSet],
    transactions: &TransactionSet,
    labels: &[Option<EventId>],
) -> Vec<EvaluatedItemSet> {
    assert_eq!(
        transactions.len(),
        labels.len(),
        "transactions and labels must align"
    );
    itemsets
        .iter()
        .map(|set| {
            let mut matching = 0u64;
            let mut per_event: BTreeMap<EventId, u64> = BTreeMap::new();
            let mut labeled = 0u64;
            for (t, label) in transactions.transactions().iter().zip(labels) {
                if t.contains_all(set.items()) {
                    matching += 1;
                    if let Some(id) = label {
                        labeled += 1;
                        *per_event.entry(*id).or_insert(0) += 1;
                    }
                }
            }
            let fraction = if matching == 0 {
                0.0
            } else {
                labeled as f64 / matching as f64
            };
            let dominant = per_event.iter().max_by_key(|&(_, n)| *n).map(|(&id, _)| id);
            EvaluatedItemSet {
                itemset: set.clone(),
                matching_flows: matching,
                event_flow_fraction: fraction,
                dominant_event: if fraction >= 0.5 { dominant } else { None },
                is_tp: fraction >= 0.5,
                class_hint: classify_itemset(set),
            }
        })
        .collect()
}

/// One interval's record in a scenario run.
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    /// Interval index.
    pub interval: u64,
    /// Ground truth: does the interval contain event flows?
    pub truth_anomalous: bool,
    /// Did the detector bank alarm?
    pub alarm: bool,
    /// Total flows in the interval.
    pub total_flows: usize,
    /// The extraction at the configured support (when alarmed).
    pub extraction: Option<Extraction>,
    /// Judged item-sets of that extraction.
    pub evaluated: Vec<EvaluatedItemSet>,
    /// The suspicious transactions the extraction mined (stored only
    /// when alarmed, for support sweeps).
    pub suspicious: TransactionSet,
    /// Flow labels parallel to `suspicious`.
    pub suspicious_labels: Vec<Option<EventId>>,
}

impl IntervalRecord {
    /// Number of false-positive item-sets at the configured support.
    #[must_use]
    pub fn fp_itemsets(&self) -> usize {
        self.evaluated.iter().filter(|e| !e.is_tp).count()
    }

    /// Number of true-positive item-sets at the configured support.
    #[must_use]
    pub fn tp_itemsets(&self) -> usize {
        self.evaluated.iter().filter(|e| e.is_tp).count()
    }
}

/// A full scenario run: per-interval records plus ROC inputs.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Per-interval records, in order.
    pub records: Vec<IntervalRecord>,
    /// Per-clone interval scores (max over features of `d/σ̂`), for Fig. 6
    /// ROC curves. Indexed `[clone][interval]`.
    pub clone_scores: Vec<Vec<f64>>,
    /// Ground-truth labels per interval (anomalous or not).
    pub truth: Vec<bool>,
}

/// One point of the Fig. 9 support sweep.
#[derive(Debug, Clone)]
pub struct SupportSweepPoint {
    /// The minimum support.
    pub min_support: u64,
    /// FP item-set count per alarmed anomalous interval.
    pub fp_per_interval: Vec<usize>,
    /// Mean FP item-sets over those intervals.
    pub avg_fp: f64,
    /// Fraction of alarmed anomalous intervals with zero FP item-sets.
    pub zero_fp_fraction: f64,
    /// Fraction of alarmed anomalous intervals where the event was still
    /// extracted (≥ 1 TP item-set) — guards against support set too high.
    pub extracted_fraction: f64,
}

/// One row of the Table IV summary.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The anomaly class.
    pub class: String,
    /// Number of planted events of this class.
    pub occurrences: usize,
    /// Average injected flows per event-interval (ground truth).
    pub avg_flows: f64,
    /// Events of this class whose interval raised an alarm.
    pub detected: usize,
    /// Events of this class extracted (≥ 1 item-set matching the event).
    pub extracted: usize,
}

/// Run a scenario through the engine and record everything needed for
/// the paper's evaluation figures. Each interval is transposed once and
/// fed to [`Engine::process`]; on an extraction, the suspicious rows are
/// selected and gathered by the calls the engine makes, so the judged
/// transactions are exactly the mined ones.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn run_scenario(scenario: &Scenario, config: &ExtractionConfig) -> ScenarioRun {
    let mut pipeline = Engine::new(config.clone())
        .unwrap_or_else(|e| panic!("invalid extraction configuration: {e}"));
    let n_clones = config.detector.clones;
    let mut clone_scores: Vec<Vec<f64>> = vec![Vec::new(); n_clones];
    let mut truth = Vec::new();
    let mut records = Vec::new();

    for i in 0..scenario.interval_count() {
        let labeled = scenario.generate(i);
        let cols = FlowColumns::from_flows(&labeled.flows);
        let outcome = pipeline.process(&cols);

        // Per-clone normalized scores for ROC analysis.
        for (c, scores) in clone_scores.iter_mut().enumerate() {
            let mut best = 0.0f64;
            for (f, feat_obs) in outcome.observation.features.iter().enumerate() {
                if let (Some(diff), Some(threshold)) = (
                    feat_obs.clones[c].first_diff,
                    pipeline.bank().detectors()[f].clones()[c].threshold(),
                ) {
                    best = best.max(diff / threshold.sigma());
                }
            }
            scores.push(best);
        }
        truth.push(labeled.is_anomalous());

        let (suspicious, suspicious_labels, evaluated) = match &outcome.extraction {
            Some(ex) => {
                let idx = prefilter_indices_columns(&cols, &ex.metadata, config.prefilter);
                let s = config.transactions.transactions_at_columns(&cols, &idx);
                let l: Vec<Option<EventId>> = idx.iter().map(|&j| labeled.labels[j]).collect();
                let ev = evaluate_itemsets(&ex.itemsets, &s, &l);
                (s, l, ev)
            }
            None => (TransactionSet::new(), Vec::new(), Vec::new()),
        };

        records.push(IntervalRecord {
            interval: i,
            truth_anomalous: labeled.is_anomalous(),
            alarm: outcome.observation.alarm,
            total_flows: labeled.flows.len(),
            extraction: outcome.extraction,
            evaluated,
            suspicious,
            suspicious_labels,
        });
    }

    ScenarioRun {
        records,
        clone_scores,
        truth,
    }
}

impl ScenarioRun {
    /// Interval-level detection counts after training:
    /// `(true_positives, false_positives, false_negatives, true_negatives)`.
    #[must_use]
    pub fn detection_counts(&self, skip_training: usize) -> (usize, usize, usize, usize) {
        let (mut tp, mut fp, mut fns, mut tn) = (0, 0, 0, 0);
        for r in self.records.iter().skip(skip_training) {
            match (r.alarm, r.truth_anomalous) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fns += 1,
                (false, false) => tn += 1,
            }
        }
        (tp, fp, fns, tn)
    }

    /// The alarmed, truly-anomalous intervals (the paper's "anomalous
    /// intervals" whose item-sets get analyzed).
    #[must_use]
    pub fn alarmed_anomalous(&self) -> Vec<&IntervalRecord> {
        self.records
            .iter()
            .filter(|r| r.alarm && r.truth_anomalous)
            .collect()
    }

    /// Fig. 9: re-mine every alarmed anomalous interval's suspicious
    /// transactions at each support and count FP item-sets.
    #[must_use]
    pub fn fp_sweep(&self, supports: &[u64]) -> Vec<SupportSweepPoint> {
        supports
            .iter()
            .map(|&s| {
                let mut fp_per_interval = Vec::new();
                let mut zero_fp = 0usize;
                let mut extracted = 0usize;
                for r in self.alarmed_anomalous() {
                    let itemsets = mine(&r.suspicious, s, None).0;
                    let judged = evaluate_itemsets(&itemsets, &r.suspicious, &r.suspicious_labels);
                    let fps = judged.iter().filter(|e| !e.is_tp).count();
                    if fps == 0 {
                        zero_fp += 1;
                    }
                    if judged.iter().any(|e| e.is_tp) {
                        extracted += 1;
                    }
                    fp_per_interval.push(fps);
                }
                let n = fp_per_interval.len().max(1) as f64;
                SupportSweepPoint {
                    min_support: s,
                    avg_fp: fp_per_interval.iter().sum::<usize>() as f64 / n,
                    zero_fp_fraction: zero_fp as f64 / n,
                    extracted_fraction: extracted as f64 / n,
                    fp_per_interval,
                }
            })
            .collect()
    }

    /// Fig. 10: average classification-cost reduction at each support.
    #[must_use]
    pub fn cost_sweep(&self, supports: &[u64]) -> Vec<(u64, f64)> {
        supports
            .iter()
            .map(|&s| {
                let per_interval: Vec<(u64, usize)> = self
                    .alarmed_anomalous()
                    .iter()
                    .map(|r| {
                        let itemsets = mine(&r.suspicious, s, None).0;
                        (r.total_flows as u64, itemsets.len())
                    })
                    .collect();
                (s, average_cost_reduction(&per_interval))
            })
            .collect()
    }

    /// Table IV: per-class occurrences, average event flows, detection and
    /// extraction counts.
    #[must_use]
    pub fn table4(&self, scenario: &Scenario) -> Vec<Table4Row> {
        let mut rows = Vec::new();
        for class in AnomalyClass::ALL {
            let events: Vec<_> = scenario
                .events()
                .iter()
                .filter(|e| e.class() == class)
                .collect();
            if events.is_empty() {
                continue;
            }
            let occurrences = events.len();
            let avg_flows = events
                .iter()
                .map(|e| e.flows_per_interval as f64)
                .sum::<f64>()
                / occurrences as f64;
            let mut detected = 0usize;
            let mut extracted = 0usize;
            for event in &events {
                let intervals: Vec<u64> = event.active_intervals().collect();
                let was_detected = intervals
                    .iter()
                    .any(|&i| self.records.get(i as usize).is_some_and(|r| r.alarm));
                let was_extracted = intervals.iter().any(|&i| {
                    self.records.get(i as usize).is_some_and(|r| {
                        r.evaluated
                            .iter()
                            .any(|e| e.dominant_event == Some(event.id))
                    })
                });
                if was_detected {
                    detected += 1;
                }
                if was_extracted {
                    extracted += 1;
                }
            }
            rows.push(Table4Row {
                class: class.to_string(),
                occurrences,
                avg_flows,
                detected,
                extracted,
            });
        }
        rows
    }
}

/// Average cost reduction across intervals: mean of per-interval `R`
/// ([`cost_reduction`]).
///
/// Returns 0 for an empty input.
fn average_cost_reduction(per_interval: &[(u64, usize)]) -> f64 {
    if per_interval.is_empty() {
        return 0.0;
    }
    per_interval
        .iter()
        .map(|&(f, i)| cost_reduction(f, i))
        .sum::<f64>()
        / per_interval.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_core::TransactionMode;
    use anomex_mining::Item;
    use anomex_netflow::{FlowFeature, FlowRecord, Protocol};
    use std::net::Ipv4Addr;

    /// The canonical transactions of every flow, gathered as the engine
    /// gathers them.
    fn mined(flows: &[FlowRecord]) -> TransactionSet {
        let all: Vec<usize> = (0..flows.len()).collect();
        TransactionMode::Canonical.transactions_at_columns(&FlowColumns::from_flows(flows), &all)
    }

    fn scan_flow(i: u32) -> FlowRecord {
        FlowRecord::new(
            u64::from(i),
            Ipv4Addr::new(66, 6, 6, 6),
            Ipv4Addr::from(0x0a00_0000 + i),
            40_000,
            445,
            Protocol::Tcp,
        )
        .with_volume(1, 40)
    }

    fn web_flow(i: u32) -> FlowRecord {
        FlowRecord::new(
            u64::from(i),
            Ipv4Addr::from(0x0900_0000 + i),
            Ipv4Addr::from(0x0800_0000 + (i % 64)),
            (1024 + i) as u16,
            80,
            Protocol::Tcp,
        )
        .with_volume(3, 120)
    }

    #[test]
    fn itemset_judged_tp_when_event_flows_dominate() {
        let mut flows: Vec<FlowRecord> = (0..100).map(scan_flow).collect();
        let mut labels: Vec<Option<EventId>> = vec![Some(EventId(1)); 100];
        flows.extend((0..40).map(web_flow));
        labels.extend(vec![None; 40]);

        let scan_set = ItemSet::new(
            vec![
                Item::new(
                    FlowFeature::SrcIp,
                    u64::from(u32::from(Ipv4Addr::new(66, 6, 6, 6))),
                ),
                Item::new(FlowFeature::DstPort, 445),
            ],
            100,
        );
        let web_set = ItemSet::new(vec![Item::new(FlowFeature::DstPort, 80)], 40);
        let judged = evaluate_itemsets(&[scan_set, web_set], &mined(&flows), &labels);
        assert!(judged[0].is_tp);
        assert_eq!(judged[0].dominant_event, Some(EventId(1)));
        assert_eq!(judged[0].matching_flows, 100);
        assert!(!judged[1].is_tp, "benign web item-set is a FP");
        assert_eq!(judged[1].dominant_event, None);
    }

    #[test]
    fn class_hint_travels_with_judgement() {
        let flows: Vec<FlowRecord> = (0..10).map(scan_flow).collect();
        let labels = vec![Some(EventId(0)); 10];
        let set = ItemSet::new(
            vec![
                Item::new(
                    FlowFeature::SrcIp,
                    u64::from(u32::from(Ipv4Addr::new(66, 6, 6, 6))),
                ),
                Item::new(FlowFeature::DstPort, 445),
            ],
            10,
        );
        let judged = evaluate_itemsets(&[set], &mined(&flows), &labels);
        assert_eq!(judged[0].class_hint, Some(AnomalyClass::Scanning));
    }

    #[test]
    fn small_scenario_end_to_end() {
        let scenario = Scenario::small(23);
        let mut config = ExtractionConfig {
            interval_ms: 60_000,
            min_support: 700,
            ..ExtractionConfig::default()
        };
        config.detector.training_intervals = 10;
        let run = run_scenario(&scenario, &config);
        assert_eq!(run.records.len(), 40);
        assert_eq!(run.truth.iter().filter(|&&t| t).count(), 3);

        // All three events detected, no false alarms after training.
        let (tp, fp, fns, tn) = run.detection_counts(12);
        assert_eq!(tp, 3, "all events detected (fp={fp}, fn={fns}, tn={tn})");
        assert_eq!(fns, 0);
        assert!(fp <= 2, "at most a stray false alarm, got {fp}");

        // Every alarmed anomalous interval extracted its event.
        for r in run.alarmed_anomalous() {
            assert!(
                r.evaluated.iter().any(|e| e.is_tp),
                "interval {} extracted nothing true",
                r.interval
            );
        }

        // Sweep machinery runs and behaves monotonically-ish.
        let sweep = run.fp_sweep(&[300, 700, 1500]);
        assert_eq!(sweep.len(), 3);
        assert!(
            sweep[0].avg_fp >= sweep[2].avg_fp,
            "FPs shrink with support"
        );
        let costs = run.cost_sweep(&[300, 1500]);
        assert!(
            costs[1].1 >= costs[0].1,
            "cost reduction grows with support"
        );

        // Table IV summary covers the three planted classes.
        let table = run.table4(&scenario);
        assert_eq!(table.len(), 3);
        for row in &table {
            assert_eq!(row.detected, row.occurrences, "{} missed", row.class);
            assert_eq!(
                row.extracted, row.occurrences,
                "{} not extracted",
                row.class
            );
        }

        // Clone scores align with intervals.
        assert_eq!(run.clone_scores.len(), config.detector.clones);
        assert!(run.clone_scores.iter().all(|s| s.len() == 40));
    }

    #[test]
    fn average_over_intervals() {
        let data = [(1000u64, 1usize), (2000, 2), (3000, 3)];
        let avg = average_cost_reduction(&data);
        assert!((avg - 1000.0).abs() < 1e-9);
        assert_eq!(average_cost_reduction(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn label_mismatch_panics() {
        let _ = evaluate_itemsets(&[], &mined(&[scan_flow(0)]), &[]);
    }
}
