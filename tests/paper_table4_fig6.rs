//! Paper-fidelity pins: the two-week evaluation (Table IV, §III-D) and
//! the per-clone ROC curves (Fig. 6), with the reproduced *outputs* held
//! as numbers so a detector or miner rewrite cannot drift the
//! reproduction silently.
//!
//! Workload: `Scenario::two_weeks(42, 0.05)` under the configurations the
//! `table4_two_weeks` and `fig6_roc` binaries build (half a day of
//! training; support `max(1 % of the interval volume, 10)` resp. 100;
//! events graded ×0.05 … ×1.0 for the ROC). The pinned values were
//! recorded from those binaries before the old measurement stack was
//! retired (PR 17). Counts are exact; AUC and the ROC operating points
//! carry the tolerances stated at each assertion.

use anomex::prelude::*;
use anomex::traffic::{FIFTEEN_MIN_MS, INTERVALS_PER_DAY};

const SEED: u64 = 42;
const SCALE: f64 = 0.05;

/// The evaluation configuration of the figure binaries: the paper's
/// detector settings with half a day of training.
fn eval_config(min_support: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: FIFTEEN_MIN_MS,
        detector: DetectorConfig {
            training_intervals: INTERVALS_PER_DAY as usize / 2,
            ..DetectorConfig::default()
        },
        min_support,
        ..ExtractionConfig::default()
    }
}

#[test]
fn table4_detection_and_extraction_counts_are_pinned() {
    let scenario = Scenario::two_weeks(SEED, SCALE);
    let one_percent = (scenario.config().background.flows_per_interval as f64 * 0.01) as u64;
    let run = run_scenario(&scenario, &eval_config(one_percent.max(10)));

    // (class, occurrences, detected, extracted) in Table IV order.
    let expected = [
        ("Flooding", 5, 5, 5),
        ("Backscatter", 5, 5, 5),
        ("Network Experiment", 3, 3, 3),
        ("DDoS", 4, 3, 3),
        ("Scanning", 12, 10, 10),
        ("Spam", 4, 1, 1),
        ("Unknown", 3, 2, 0),
    ];
    let rows = run.table4(&scenario);
    let got: Vec<(&str, usize, usize, usize)> = rows
        .iter()
        .map(|r| (r.class.as_str(), r.occurrences, r.detected, r.extracted))
        .collect();
    assert_eq!(got, expected, "per-class occurrences/detected/extracted");

    // Interval-level detection after the training day: (TP, FP, FN, TN).
    assert_eq!(
        run.detection_counts(INTERVALS_PER_DAY as usize),
        (24, 8, 7, 1209)
    );

    // §III-D headline: every alarmed anomalous interval has its event
    // extracted; 20 of the 24 carry no false-positive item-set.
    let alarmed = run.alarmed_anomalous();
    assert_eq!(alarmed.len(), 24);
    let extracted = alarmed
        .iter()
        .filter(|r| r.evaluated.iter().any(|e| e.is_tp))
        .count();
    assert_eq!(extracted, 24, "alarmed anomalous intervals extracted");
    let zero_fp = alarmed.iter().filter(|r| r.fp_itemsets() == 0).count();
    assert_eq!(zero_fp, 20, "zero-FP intervals");
}

#[test]
fn fig6_roc_operating_points_are_pinned() {
    let base = Scenario::two_weeks(SEED, SCALE);
    let grades = [0.05, 0.10, 0.20, 0.40, 0.70, 1.00];
    let events: Vec<EventSpec> = base
        .events()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = e.clone();
            let g = grades[i % grades.len()];
            e.flows_per_interval = ((e.flows_per_interval as f64 * g) as u64).max(5);
            e
        })
        .collect();
    let scenario = Scenario::new(base.config().clone(), events);
    let run = run_scenario(&scenario, &eval_config(100));

    // Skip the training day: scores there are zero by construction.
    let skip = INTERVALS_PER_DAY as usize;
    let truth = &run.truth[skip..];
    let anomalous = truth.iter().filter(|&&t| t).count();
    assert_eq!(anomalous, 31);

    // Per clone: AUC, then alarmed anomalous intervals (of 31) at
    // FPR budgets 0.01 / 0.03 / 0.08.
    let expected = [
        (0.789, [15.0, 16.0, 17.0]),
        (0.757, [12.0, 12.0, 13.0]),
        (0.829, [14.0, 15.0, 17.0]),
    ];
    assert_eq!(run.clone_scores.len(), expected.len());
    for (c, (scores, (auc, hits))) in run.clone_scores.iter().zip(expected).enumerate() {
        let roc = RocCurve::from_scores(&scores[skip..], truth);
        assert!(
            (roc.auc() - auc).abs() <= 0.005,
            "clone {c}: AUC {:.4} vs pinned {auc} ± 0.005",
            roc.auc()
        );
        for (budget, hits) in [0.01, 0.03, 0.08].into_iter().zip(hits) {
            let got = roc.tpr_at_fpr(budget) * anomalous as f64;
            // One interval either way.
            assert!(
                (got - hits).abs() <= 1.0 + 1e-9,
                "clone {c}: {got:.2}/31 alarmed at FPR {budget} vs pinned {hits} ± 1"
            );
        }
    }
}
