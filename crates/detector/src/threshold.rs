//! Robust alarm thresholding on the first difference of the KL series.
//!
//! The paper observes that the first difference of the KL time series is
//! approximately zero-mean normal, and derives a robust estimate of its
//! standard deviation via the **median absolute deviation** (MAD) over a
//! limited number of training intervals (§II-C). An alarm fires when the
//! first difference exceeds `α·σ̂` — one-sided, because positive spikes
//! mean *additional* similar flows while negative spikes mark anomaly end.

/// Scale factor turning a MAD into a consistent σ estimate for normal data.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Numerical floor for σ̂: a perfectly constant training series would give
/// σ̂ = 0 and make the detector fire on femto-scale float noise.
pub const SIGMA_FLOOR: f64 = 1e-9;

/// Median of a sample (average of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty(), "median of an empty sample");
    let mut v: Vec<f64> = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("KL differences are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Robust σ estimate: `1.4826 × median(|x - median(x)|)`, floored at
/// [`SIGMA_FLOOR`].
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn robust_sigma(sample: &[f64]) -> f64 {
    let med = median(sample);
    let deviations: Vec<f64> = sample.iter().map(|x| (x - med).abs()).collect();
    (MAD_TO_SIGMA * median(&deviations)).max(SIGMA_FLOOR)
}

/// One-sided alarm threshold trained on first-difference samples.
#[derive(Debug, Clone)]
pub struct FirstDiffThreshold {
    /// Threshold multiplier α (the paper uses 3).
    pub alpha: f64,
    sigma: f64,
}

impl FirstDiffThreshold {
    /// Fit from training first-differences.
    ///
    /// # Panics
    ///
    /// Panics on an empty training sample.
    #[must_use]
    pub fn fit(alpha: f64, training_diffs: &[f64]) -> Self {
        FirstDiffThreshold {
            alpha,
            sigma: robust_sigma(training_diffs),
        }
    }

    /// Reassemble a threshold from a previously fitted `(α, σ̂)` pair —
    /// the checkpoint-restore path. Because σ̂ travels as its raw bit
    /// pattern through a snapshot, the rebuilt threshold alarms on
    /// *exactly* the same first differences as the one that was saved.
    #[must_use]
    pub fn from_parts(alpha: f64, sigma: f64) -> Self {
        FirstDiffThreshold { alpha, sigma }
    }

    /// The fitted robust σ̂.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The alarm threshold `α·σ̂`.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.alpha * self.sigma
    }

    /// One-sided alarm test: positive spikes only (paper §II-C).
    #[must_use]
    pub fn is_alarm(&self, first_diff: f64) -> bool {
        first_diff > self.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    fn robust_sigma_of_known_sample() {
        // sample: deviations from median 0 are |±1|, |±2| → MAD = 1.5.
        let s = [-2.0, -1.0, 1.0, 2.0];
        let expected = MAD_TO_SIGMA * 1.5;
        assert!((robust_sigma(&s) - expected).abs() < 1e-12);
    }

    #[test]
    fn robust_sigma_ignores_outliers() {
        // MAD is immune to a huge outlier; the sample σ is not.
        let mut clean: Vec<f64> = (0..100).map(|i| f64::from(i % 7) - 3.0).collect();
        let sigma_clean = robust_sigma(&clean);
        clean.push(1e9);
        let sigma_dirty = robust_sigma(&clean);
        assert!((sigma_clean - sigma_dirty).abs() / sigma_clean < 0.05);
    }

    #[test]
    fn constant_series_hits_floor() {
        let s = [0.0; 50];
        assert_eq!(robust_sigma(&s), SIGMA_FLOOR);
    }

    #[test]
    fn one_sided_alarm() {
        let t = FirstDiffThreshold::fit(3.0, &[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let thr = t.value();
        assert!(thr > 0.0);
        assert!(t.is_alarm(thr * 1.01));
        assert!(!t.is_alarm(thr * 0.99));
        // Negative spikes NEVER alarm, however large.
        assert!(!t.is_alarm(-1e12));
    }

    #[test]
    fn alpha_scales_threshold() {
        let diffs = [-1.0, 0.0, 1.0, 2.0, -2.0];
        let t3 = FirstDiffThreshold::fit(3.0, &diffs);
        let t5 = FirstDiffThreshold::fit(5.0, &diffs);
        assert!((t5.value() / t3.value() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(t3.sigma(), t5.sigma());
    }
}
