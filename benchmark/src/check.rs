//! The output checker: pass against pass, mode against mode, reports
//! against the planted truth.
//!
//! The operation this benchmark counts is one interval of one pass. An
//! interval fails when its pass produced no usable output, when its
//! alarm flag or report differs from the first pass of the same mode,
//! or when `extract` and `stream` disagree on its report — the
//! repository's own invariant is that the two are byte-identical.

use std::collections::BTreeMap;

use crate::parse::{PassOutput, Report};
use crate::workload::Truth;

/// What the checker needs of one interval of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IntervalView<'a> {
    /// `None` for `extract`, which prints no per-interval line.
    alarm: Option<bool>,
    report: Option<&'a str>,
}

fn views(output: &PassOutput) -> BTreeMap<u64, IntervalView<'_>> {
    let mut map: BTreeMap<u64, IntervalView<'_>> = output
        .lines
        .iter()
        .map(|l| {
            let view = IntervalView {
                alarm: Some(l.alarm),
                report: None,
            };
            (l.index, view)
        })
        .collect();
    for report in &output.reports {
        map.entry(report.interval)
            .or_insert(IntervalView {
                alarm: None,
                report: None,
            })
            .report = Some(&report.text);
    }
    map
}

/// Keys on which two maps differ, a key present in one map only
/// included.
fn differing_keys<V: PartialEq>(a: &BTreeMap<u64, V>, b: &BTreeMap<u64, V>) -> u64 {
    a.keys()
        .chain(b.keys().filter(|k| !a.contains_key(k)))
        .filter(|k| a.get(k) != b.get(k))
        .count() as u64
}

/// Intervals on which two passes of one mode disagree (alarm flag or
/// report text), plus any difference in interval count.
pub fn differing_intervals(reference: &PassOutput, pass: &PassOutput) -> u64 {
    differing_keys(&views(reference), &views(pass)) + reference.intervals.abs_diff(pass.intervals)
}

/// Intervals on which the `extract` and `stream` reports are not
/// byte-identical (a report present in one mode only counts too).
pub fn mode_mismatches(extract: &PassOutput, stream: &PassOutput) -> u64 {
    let by_interval = |o: &'_ PassOutput| -> BTreeMap<u64, String> {
        o.reports
            .iter()
            .map(|r| (r.interval, r.text.clone()))
            .collect()
    };
    differing_keys(&by_interval(extract), &by_interval(stream))
        + extract.intervals.abs_diff(stream.intervals)
}

/// Failed and attempted interval counts over a set of passes of one
/// mode (`None` = a pass with no usable output). The first usable pass
/// is the reference the others are held to.
pub fn count_failures(passes: &[Option<&PassOutput>], expected_intervals: u64) -> (u64, u64) {
    let attempted = expected_intervals * passes.len() as u64;
    let reference = passes.iter().flatten().next();
    let failed = passes
        .iter()
        .map(|pass| match (pass, reference) {
            (Some(output), Some(reference)) => {
                differing_intervals(reference, output).min(expected_intervals)
            }
            _ => expected_intervals,
        })
        .sum();
    (failed, attempted)
}

/// How the reports of one pass score against the planted events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Planted events whose signature item-set is in their interval's
    /// report.
    pub recalled: u64,
    /// Planted events.
    pub planted: u64,
    /// Reported item-sets.
    pub itemsets: u64,
    /// Reported item-sets that contain no planted signature of their
    /// interval.
    pub fp_itemsets: u64,
    /// Reports (= alarmed intervals with an extraction).
    pub reports: u64,
}

impl Accuracy {
    /// `recalled ÷ planted`; 1 when nothing was planted.
    pub fn event_recall(&self) -> f64 {
        if self.planted == 0 {
            1.0
        } else {
            self.recalled as f64 / self.planted as f64
        }
    }

    /// Item-sets an operator reads per alarmed interval.
    pub fn itemsets_per_alarm(&self) -> f64 {
        self.itemsets as f64 / self.reports.max(1) as f64
    }

    /// Of those, the ones matching nothing that was planted.
    pub fn fp_itemsets_per_alarm(&self) -> f64 {
        self.fp_itemsets as f64 / self.reports.max(1) as f64
    }
}

fn contains_signature(itemset: &[String], signature: &[String]) -> bool {
    signature.iter().all(|item| itemset.contains(item))
}

/// Score one pass's reports against the truth.
pub fn score(reports: &[Report], truth: &Truth) -> Accuracy {
    let mut acc = Accuracy {
        recalled: 0,
        planted: truth.events.len() as u64,
        itemsets: 0,
        fp_itemsets: 0,
        reports: reports.len() as u64,
    };
    let matches = |itemset: &[String], interval: u64| {
        truth
            .events
            .iter()
            .filter(|e| e.interval == interval)
            .flat_map(|e| &e.signatures)
            .any(|s| contains_signature(itemset, s))
    };
    for report in reports {
        acc.itemsets += report.itemsets.len() as u64;
        acc.fp_itemsets += report
            .itemsets
            .iter()
            .filter(|set| !matches(set, report.interval))
            .count() as u64;
    }
    for event in &truth.events {
        let found = reports
            .iter()
            .filter(|r| r.interval == event.interval)
            .flat_map(|r| &r.itemsets)
            .any(|set| event.signatures.iter().any(|s| contains_signature(set, s)));
        acc.recalled += u64::from(found);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::IntervalLine;
    use crate::workload::PlantedEvent;

    fn report(interval: u64, sets: &[&[&str]]) -> Report {
        Report {
            interval,
            text: format!("report {interval} {sets:?}"),
            itemsets: sets
                .iter()
                .map(|s| s.iter().map(ToString::to_string).collect())
                .collect(),
        }
    }

    fn stream_pass(alarms: &[u64], reports: Vec<Report>) -> PassOutput {
        PassOutput {
            lines: (0..4)
                .map(|i| IntervalLine {
                    index: i,
                    flows: 10,
                    micros: 5,
                    alarm: alarms.contains(&i),
                })
                .collect(),
            reports,
            intervals: 4,
            alarms: alarms.len() as u64,
        }
    }

    #[test]
    fn identical_passes_do_not_differ_timing_aside() {
        let a = stream_pass(&[2], vec![report(2, &[&["dstPort=7000"]])]);
        let mut b = a.clone();
        b.lines[1].micros = 999;
        assert_eq!(differing_intervals(&a, &b), 0);
    }

    #[test]
    fn a_flipped_flag_or_changed_report_fails_that_interval_only() {
        let a = stream_pass(&[2], vec![report(2, &[&["dstPort=7000"]])]);
        let flipped = stream_pass(&[2, 3], vec![report(2, &[&["dstPort=7000"]])]);
        assert_eq!(differing_intervals(&a, &flipped), 1);
        let changed = stream_pass(&[2], vec![report(2, &[&["dstPort=7001"]])]);
        assert_eq!(differing_intervals(&a, &changed), 1);
        let missing = stream_pass(&[2], vec![]);
        assert_eq!(differing_intervals(&a, &missing), 1);
    }

    #[test]
    fn modes_compare_on_report_text_alone() {
        let stream = stream_pass(&[2], vec![report(2, &[&["dstPort=7000"]])]);
        let extract = PassOutput {
            lines: vec![],
            reports: vec![report(2, &[&["dstPort=7000"]])],
            intervals: 4,
            alarms: 1,
        };
        assert_eq!(mode_mismatches(&extract, &stream), 0);
        let other = PassOutput {
            reports: vec![report(3, &[&["dstPort=7000"]])],
            ..extract.clone()
        };
        assert_eq!(
            mode_mismatches(&other, &stream),
            2,
            "one missing, one extra"
        );
    }

    #[test]
    fn a_dead_pass_fails_all_its_intervals_and_is_not_the_reference() {
        let good = stream_pass(&[2], vec![report(2, &[&["dstPort=7000"]])]);
        let passes = [None, Some(&good), Some(&good), None];
        assert_eq!(count_failures(&passes, 4), (8, 16));
        assert_eq!(count_failures(&[None], 4), (4, 4));
    }

    #[test]
    fn scoring_wants_the_whole_signature_in_one_itemset() {
        let truth = Truth {
            flows: 0,
            bytes: 0,
            digest: 0,
            intervals: 4,
            events: vec![
                PlantedEvent {
                    interval: 2,
                    class: "Scanning".into(),
                    signatures: vec![vec!["srcIP=6.6.6.6".into(), "dstPort=445".into()]],
                },
                PlantedEvent {
                    interval: 3,
                    class: "Unknown".into(),
                    signatures: vec![
                        vec!["srcIP=1.1.1.1".into(), "dstIP=2.2.2.2".into()],
                        vec!["srcIP=2.2.2.2".into(), "dstIP=1.1.1.1".into()],
                    ],
                },
            ],
        };
        let reports = vec![
            report(
                2,
                &[
                    &["srcIP=6.6.6.6", "dstPort=445", "protocol=6"],
                    &["dstPort=445", "protocol=6"],
                ],
            ),
            report(3, &[&["srcIP=2.2.2.2", "dstIP=1.1.1.1", "protocol=17"]]),
            report(1, &[&["dstPort=80"]]),
        ];
        let acc = score(&reports, &truth);
        assert_eq!((acc.recalled, acc.planted), (2, 2));
        assert_eq!((acc.itemsets, acc.fp_itemsets, acc.reports), (4, 2, 3));
        assert_eq!(acc.event_recall(), 1.0);
        // The same item-set in another interval matches nothing.
        let misplaced = score(
            &reports[..1],
            &Truth {
                events: truth.events[1..].to_vec(),
                ..truth
            },
        );
        assert_eq!((misplaced.recalled, misplaced.fp_itemsets), (0, 2));
    }
}
