//! Receiver-operating-characteristic analysis (paper §III-B, Fig. 6).
//!
//! The paper assesses detection accuracy with ROC curves: sweep the alarm
//! threshold, and for each setting compute the false-positive rate (alarms
//! on non-anomalous intervals / all non-anomalous intervals) and the
//! true-positive rate (alarms on ground-truth intervals / all ground-truth
//! intervals). This module is detector-agnostic: it consumes per-interval
//! *scores* (e.g., the normalized KL first difference, `d/σ̂`) and boolean
//! ground-truth labels.

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// The threshold generating this point.
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate (detection rate) at this threshold.
    pub tpr: f64,
}

/// A ROC curve: points ordered by descending threshold (ascending FPR).
#[derive(Debug, Clone, Default)]
pub struct RocCurve {
    /// The curve's points.
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Build a ROC curve from per-interval scores and ground-truth labels,
    /// sweeping the threshold over every distinct score (plus +∞).
    /// An interval alarms at threshold `t` iff `score > t` (one-sided,
    /// like the detector).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are empty.
    #[must_use]
    pub fn from_scores(scores: &[f64], truth: &[bool]) -> Self {
        assert_eq!(scores.len(), truth.len(), "scores and labels must align");
        assert!(!scores.is_empty(), "cannot build a ROC curve from nothing");

        let mut thresholds: Vec<f64> = scores.to_vec();
        thresholds.sort_by(|a, b| b.partial_cmp(a).expect("scores are never NaN"));
        thresholds.dedup();

        let positives = truth.iter().filter(|&&t| t).count().max(1) as f64;
        let negatives = truth.iter().filter(|&&t| !t).count().max(1) as f64;

        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        }];
        for &thr in &thresholds {
            let mut tp = 0usize;
            let mut fp = 0usize;
            for (&score, &is_anomalous) in scores.iter().zip(truth) {
                if score > thr {
                    if is_anomalous {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
            points.push(RocPoint {
                threshold: thr,
                fpr: fp as f64 / negatives,
                tpr: tp as f64 / positives,
            });
        }
        // Ensure the terminal (1,1)-ish point exists: threshold below min.
        let min_score = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut tp = 0usize;
        let mut fp = 0usize;
        for (&score, &is_anomalous) in scores.iter().zip(truth) {
            if score > min_score - 1.0 {
                if is_anomalous {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        points.push(RocPoint {
            threshold: min_score - 1.0,
            fpr: fp as f64 / negatives,
            tpr: tp as f64 / positives,
        });
        RocCurve { points }
    }

    /// Area under the curve via trapezoidal integration over FPR.
    #[must_use]
    pub fn auc(&self) -> f64 {
        let mut pts = self.points.clone();
        pts.sort_by(|a, b| a.fpr.partial_cmp(&b.fpr).expect("rates are never NaN"));
        let mut area = 0.0;
        for w in pts.windows(2) {
            area += (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0;
        }
        area
    }

    /// The detection rate achieved at (or just below) a given FPR budget —
    /// the paper quotes e.g. "a detection rate of 0.8 corresponds to a
    /// false positive rate of 0.03".
    #[must_use]
    pub fn tpr_at_fpr(&self, fpr_budget: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.fpr <= fpr_budget)
            .map(|p| p.tpr)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = [0.1, 0.2, 0.3, 5.0, 6.0, 7.0];
        let truth = [false, false, false, true, true, true];
        let roc = RocCurve::from_scores(&scores, &truth);
        assert!((roc.auc() - 1.0).abs() < 1e-9, "auc = {}", roc.auc());
        assert!((roc.tpr_at_fpr(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_scores_give_diagonal_auc() {
        // Alternating labels over identical score ramp ⇒ AUC ≈ 0.5.
        let scores: Vec<f64> = (0..200).map(f64::from).collect();
        let truth: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let roc = RocCurve::from_scores(&scores, &truth);
        assert!((roc.auc() - 0.5).abs() < 0.05, "auc = {}", roc.auc());
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scores = [5.0, 6.0, 7.0, 0.1, 0.2, 0.3];
        let truth = [false, false, false, true, true, true];
        let roc = RocCurve::from_scores(&scores, &truth);
        assert!(roc.auc() < 0.01);
    }

    #[test]
    fn endpoints_are_present() {
        let roc = RocCurve::from_scores(&[1.0, 2.0], &[false, true]);
        let first = roc.points.first().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        let last = roc.points.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn curve_is_monotone_in_fpr_and_tpr() {
        let scores = [0.5, 1.5, 0.7, 3.0, 2.5, 0.1, 4.0, 0.2];
        let truth = [false, true, false, true, false, false, true, false];
        let roc = RocCurve::from_scores(&scores, &truth);
        for w in roc.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr - 1e-12);
            assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
    }

    #[test]
    fn tpr_at_fpr_budget() {
        let scores = [0.0, 1.0, 2.0, 3.0];
        let truth = [false, false, true, true];
        let roc = RocCurve::from_scores(&scores, &truth);
        // At FPR = 0 we can still catch both positives (threshold between
        // 1 and 2).
        assert!((roc.tpr_at_fpr(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = RocCurve::from_scores(&[1.0], &[true, false]);
    }

    #[test]
    #[should_panic(expected = "from nothing")]
    fn empty_input_panics() {
        let _ = RocCurve::from_scores(&[], &[]);
    }
}
