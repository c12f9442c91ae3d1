//! A single histogram clone: one feature, one hash function, full
//! detection state machine.
//!
//! Per measurement interval the clone (1) builds the feature histogram,
//! (2) computes the KL distance to the previous interval's histogram,
//! (3) thresholds the first difference of the KL series (after a training
//! phase that fits the MAD-based σ̂), and (4) on alarm, runs the iterative
//! bin identification and proposes the feature values observed in the
//! anomalous bins.

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

use crate::binid::{identify_from, BinIdentification};
use crate::hash::BinHasher;
use crate::histogram::{count_interval, resolve_clones, FeatureHistogram, Keys};
use crate::kl::ScoreTables;
use crate::threshold::{FirstDiffThreshold, SIGMA_FLOOR};

/// What one clone saw in one interval.
#[derive(Debug, Clone)]
pub struct CloneObservation {
    /// KL distance to the previous interval (`None` on the very first
    /// interval, which has no reference).
    pub kl: Option<f64>,
    /// First difference of the KL series (`None` for the first two
    /// intervals).
    pub first_diff: Option<f64>,
    /// Whether this clone raised an alarm (never during training).
    pub alarm: bool,
    /// Feature values this clone proposes as anomalous, ascending and
    /// each once (empty unless `alarm`).
    pub values: Vec<u64>,
    /// The bin-identification audit trail, when an alarm fired.
    pub bin_identification: Option<BinIdentification>,
}

/// Detection phase of a clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClonePhase {
    /// Accumulating KL first-differences; no alarms yet.
    Training,
    /// Threshold fitted; alarms active.
    Detecting,
}

/// One histogram clone with its full temporal state.
#[derive(Debug)]
pub struct HistogramClone {
    feature: FlowFeature,
    hasher: BinHasher,
    bins: u32,
    alpha: f64,
    training_intervals: usize,
    training_diffs: Vec<f64>,
    threshold: Option<FirstDiffThreshold>,
    prev_histogram: Option<FeatureHistogram>,
    prev_kl: Option<f64>,
}

impl HistogramClone {
    /// New clone.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or `training_intervals < 2` (at least two
    /// first differences are needed for a meaningful MAD).
    #[must_use]
    pub fn new(
        feature: FlowFeature,
        hasher: BinHasher,
        bins: u32,
        alpha: f64,
        training_intervals: usize,
    ) -> Self {
        assert!(bins > 0, "bin count must be positive");
        assert!(
            training_intervals >= 2,
            "need at least 2 training intervals"
        );
        HistogramClone {
            feature,
            hasher,
            bins,
            alpha,
            training_intervals,
            training_diffs: Vec::new(),
            threshold: None,
            prev_histogram: None,
            prev_kl: None,
        }
    }

    /// The monitored feature.
    #[must_use]
    pub fn feature(&self) -> FlowFeature {
        self.feature
    }

    /// The clone's hash function.
    #[must_use]
    pub fn hasher(&self) -> BinHasher {
        self.hasher
    }

    /// The clone's bin count `k`.
    #[must_use]
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> ClonePhase {
        if self.threshold.is_some() {
            ClonePhase::Detecting
        } else {
            ClonePhase::Training
        }
    }

    /// The fitted threshold, once training completes.
    #[must_use]
    pub fn threshold(&self) -> Option<&FirstDiffThreshold> {
        self.threshold.as_ref()
    }

    /// The reference histogram the next interval is scored against: the
    /// last observed interval's counts (`None` before the first).
    #[must_use]
    pub fn reference(&self) -> Option<&FeatureHistogram> {
        self.prev_histogram.as_ref()
    }

    /// Observe one interval's flows and advance the state machine:
    /// transpose them once, count the column, score the histogram and,
    /// on alarm, resolve the anomalous bins from the column.
    pub fn observe(&mut self, flows: &[FlowRecord]) -> CloneObservation {
        let cols = FlowColumns::from_flows(flows);
        let mut current = FeatureHistogram::new(self.feature, self.hasher, self.bins);
        count_interval(&cols, std::slice::from_mut(&mut current));
        let mut observation = self.score(&mut current, &mut ScoreTables::new());
        if let Some(id) = &observation.bin_identification {
            let keys = Keys::Column(&cols, self.feature);
            let (mut sets, _) =
                resolve_clones(&keys, self.bins, &[(self.hasher, &id.bins)], 1, None);
            observation.values = sets.pop().expect("one clone, one set");
        }
        observation
    }

    /// Score the interval histogram `current` and advance the state
    /// machine, short of resolving values: an alarm carries its bin
    /// identification and empty `values`, which the caller resolves — in
    /// one pass for all of a feature's alarmed clones. KL pair terms and
    /// bin identification's terms are remembered in `tables`.
    ///
    /// `current` then becomes the reference histogram, and the outgoing
    /// reference is handed back in its place, as the buffer the next
    /// interval counts into (on the first interval, a copy stays).
    ///
    /// # Panics
    ///
    /// Panics if `current` was built by a different clone (feature,
    /// hasher, or bin count mismatch).
    pub(crate) fn score(
        &mut self,
        current: &mut FeatureHistogram,
        tables: &mut ScoreTables,
    ) -> CloneObservation {
        assert!(
            current.feature() == self.feature
                && current.hasher() == self.hasher
                && current.bins() == self.bins,
            "histogram was built by a different clone"
        );
        let kl = self
            .prev_histogram
            .as_ref()
            .map(|prev| tables.kl.distance(current.counts(), prev.counts()));
        let first_diff = match (kl, self.prev_kl) {
            (Some(now), Some(before)) => Some(now - before),
            _ => None,
        };

        let mut alarm = false;
        let mut bin_identification = None;

        if let Some(diff) = first_diff {
            match &self.threshold {
                None => {
                    // Training phase: collect the difference, fit when full.
                    self.training_diffs.push(diff);
                    if self.training_diffs.len() >= self.training_intervals {
                        self.threshold =
                            Some(FirstDiffThreshold::fit(self.alpha, &self.training_diffs));
                        self.training_diffs.clear();
                        self.training_diffs.shrink_to_fit();
                    }
                }
                Some(threshold) => {
                    if threshold.is_alarm(diff) {
                        alarm = true;
                        let prev = self
                            .prev_histogram
                            .as_ref()
                            .expect("first_diff exists ⇒ previous histogram exists");
                        let target_kl = self
                            .prev_kl
                            .expect("first_diff exists ⇒ previous KL exists")
                            + threshold.value();
                        bin_identification = Some(identify_from(
                            current.counts(),
                            prev.counts(),
                            kl.expect("first_diff exists ⇒ KL exists"),
                            target_kl,
                            &mut tables.smoothed,
                        ));
                    }
                }
            }
        }

        self.prev_kl = kl;
        match &mut self.prev_histogram {
            Some(prev) => std::mem::swap(prev, current),
            None => self.prev_histogram = Some(current.clone()),
        }

        CloneObservation {
            kl,
            first_diff,
            alarm,
            values: Vec::new(),
            bin_identification,
        }
    }

    /// Change the threshold multiplier α in place — live reconfiguration
    /// at an interval boundary. Applies to the already-fitted threshold
    /// (σ̂ is untouched; only the multiplier moves) and to any future fit
    /// if the clone is still training.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.alpha = alpha;
        if let Some(t) = &mut self.threshold {
            t.alpha = alpha;
        }
    }

    /// Serialize the clone's mutable temporal state: collected training
    /// differences, the fitted threshold (if any), the previous
    /// interval's histogram, and the previous KL value. The structural
    /// identity (feature, hasher, bins, α, training length) is *not*
    /// written — [`restore_snapshot`](Self::restore_snapshot) is called
    /// on a clone freshly rebuilt from the same configuration, which
    /// regenerates it deterministically.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.usize(self.training_diffs.len());
        for &d in &self.training_diffs {
            w.f64(d);
        }
        match &self.threshold {
            Some(t) => {
                w.bool(true);
                w.f64(t.alpha);
                w.f64(t.sigma());
            }
            None => w.bool(false),
        }
        match &self.prev_histogram {
            Some(h) => {
                w.bool(true);
                h.encode_snapshot(w);
            }
            None => w.bool(false),
        }
        match self.prev_kl {
            Some(kl) => {
                w.bool(true);
                w.f64(kl);
            }
            None => w.bool(false),
        }
    }

    /// Overwrite this clone's mutable state with a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot). Because floats travel
    /// as raw bit patterns, the restored clone scores subsequent
    /// intervals bit-identically to the clone that was saved.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload and
    /// [`RestoreError::Corrupt`] when the embedded histogram disagrees
    /// with this clone's bin count, or when a float holds a value the
    /// detector never computes: a non-finite training difference or
    /// previous KL, a threshold α that is not finite and positive, or a
    /// σ̂ that is not finite or lies below [`SIGMA_FLOOR`].
    pub fn restore_snapshot(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), RestoreError> {
        let n = r.seq_len(8)?;
        let mut training_diffs = Vec::with_capacity(n);
        for _ in 0..n {
            training_diffs.push(finite(r.f64()?, "training difference")?);
        }
        let threshold = if r.bool()? {
            let alpha = r.f64()?;
            let sigma = r.f64()?;
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err(RestoreError::Corrupt(format!("threshold alpha {alpha}")));
            }
            if !(sigma.is_finite() && sigma >= SIGMA_FLOOR) {
                return Err(RestoreError::Corrupt(format!("threshold sigma {sigma}")));
            }
            Some(FirstDiffThreshold::from_parts(alpha, sigma))
        } else {
            None
        };
        let prev_histogram = if r.bool()? {
            Some(FeatureHistogram::decode_snapshot(
                self.feature,
                self.hasher,
                self.bins,
                r,
            )?)
        } else {
            None
        };
        let prev_kl = if r.bool()? {
            Some(finite(r.f64()?, "previous KL")?)
        } else {
            None
        };
        self.training_diffs = training_diffs;
        self.threshold = threshold;
        self.prev_histogram = prev_histogram;
        self.prev_kl = prev_kl;
        Ok(())
    }

    /// Approximate retained heap footprint (the previous histogram), for
    /// the §III-E overhead report.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.prev_histogram
            .as_ref()
            .map_or(0, FeatureHistogram::memory_bytes)
    }
}

/// `value`, or [`RestoreError::Corrupt`] naming `what` if it is not finite.
fn finite(value: f64, what: &str) -> Result<f64, RestoreError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(RestoreError::Corrupt(format!("{what} {value}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    /// Steady background: 200 flows to ports 1..=200 (one each).
    fn background(interval: u64) -> Vec<FlowRecord> {
        (1..=200u16)
            .map(|p| {
                FlowRecord::new(
                    interval * 60_000 + u64::from(p),
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    4000,
                    p,
                    Protocol::Tcp,
                )
            })
            .collect()
    }

    /// Background plus a 2000-flow flood on port 7000.
    fn flooded(interval: u64) -> Vec<FlowRecord> {
        let mut flows = background(interval);
        for i in 0..2000u64 {
            flows.push(FlowRecord::new(
                interval * 60_000 + i,
                Ipv4Addr::new(192, 168, 0, 7),
                Ipv4Addr::new(10, 0, 0, 99),
                (1024 + (i % 40_000)) as u16,
                7000,
                Protocol::Tcp,
            ));
        }
        flows
    }

    fn trained_clone() -> HistogramClone {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 1024, 3.0, 10);
        // 12 intervals of steady traffic: 10 first-diffs → training done.
        for i in 0..12 {
            let obs = clone.observe(&background(i));
            assert!(!obs.alarm, "no alarms during training");
        }
        assert_eq!(clone.phase(), ClonePhase::Detecting);
        clone
    }

    #[test]
    fn first_interval_has_no_kl() {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 5);
        let obs = clone.observe(&background(0));
        assert!(obs.kl.is_none());
        assert!(obs.first_diff.is_none());
        let obs = clone.observe(&background(1));
        assert!(obs.kl.is_some());
        assert!(obs.first_diff.is_none());
        let obs = clone.observe(&background(2));
        assert!(obs.first_diff.is_some());
    }

    #[test]
    fn steady_traffic_never_alarms() {
        let mut clone = trained_clone();
        for i in 12..30 {
            let obs = clone.observe(&background(i));
            assert!(!obs.alarm, "interval {i} alarmed on steady traffic");
        }
    }

    #[test]
    fn flood_triggers_alarm_with_correct_value() {
        let mut clone = trained_clone();
        let obs = clone.observe(&flooded(12));
        assert!(obs.alarm, "flood must alarm");
        assert!(
            obs.values.contains(&7000),
            "port 7000 must be proposed: {:?}",
            obs.values
        );
        let id = obs
            .bin_identification
            .expect("alarm carries the audit trail");
        assert!(id.converged);
        assert!(!id.bins.is_empty());
        // The flood is concentrated: the first removed bin is the port-7000
        // bin.
        let expected_bin = BinHasher::new(7).bin_of(7000, 1024);
        assert_eq!(id.bins[0], expected_bin);
    }

    #[test]
    fn alarm_clears_after_anomaly_persists() {
        // Reference = previous interval ⇒ a *persistent* anomaly only spikes
        // the first difference at its start (paper §II-C).
        let mut clone = trained_clone();
        assert!(clone.observe(&flooded(12)).alarm);
        let obs = clone.observe(&flooded(13));
        assert!(!obs.alarm, "steady-state anomaly must not re-alarm");
    }

    #[test]
    fn anomaly_end_does_not_alarm_one_sided() {
        let mut clone = trained_clone();
        assert!(clone.observe(&flooded(12)).alarm);
        let obs = clone.observe(&background(13));
        // The KL spikes again at anomaly end, but the first difference of
        // the *end* transition is positive too... verify one-sidedness via
        // sign: dKL(end) = KL(end-vs-anomalous) - KL(anomalous-vs-normal).
        // Both are large; what matters is no panic and a well-formed
        // observation.
        assert!(obs.kl.unwrap() > 0.0);
    }

    #[test]
    fn empty_intervals_are_tolerated() {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 3);
        for _ in 0..6 {
            let obs = clone.observe(&[]);
            assert!(!obs.alarm);
            if let Some(kl) = obs.kl {
                assert!(kl.abs() < 1e-9, "empty vs empty is identical");
            }
        }
    }

    #[test]
    fn memory_is_reported_after_first_interval() {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 1024, 3.0, 5);
        assert_eq!(clone.memory_bytes(), 0);
        clone.observe(&background(0));
        assert!(clone.memory_bytes() >= 1024 * 8);
    }

    #[test]
    fn snapshot_round_trip_scores_bit_identically() {
        for cut in [1usize, 5, 12, 13] {
            // Run `cut` intervals, snapshot, restore into a fresh clone,
            // then drive both through the same tail (with a flood) and
            // compare every observation to the bit.
            let mut live =
                HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 1024, 3.0, 10);
            for i in 0..cut as u64 {
                live.observe(&background(i));
            }
            let mut w = SnapshotWriter::new();
            live.encode_snapshot(&mut w);
            let buf = w.into_bytes();
            let mut restored =
                HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 1024, 3.0, 10);
            let mut r = SnapshotReader::new(&buf);
            restored.restore_snapshot(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored.phase(), live.phase(), "cut {cut}");
            for i in cut as u64..16 {
                let flows = if i == 14 { flooded(i) } else { background(i) };
                let a = live.observe(&flows);
                let b = restored.observe(&flows);
                assert_eq!(
                    a.kl.map(f64::to_bits),
                    b.kl.map(f64::to_bits),
                    "cut {cut} interval {i}"
                );
                assert_eq!(a.alarm, b.alarm, "cut {cut} interval {i}");
                assert_eq!(a.values, b.values, "cut {cut} interval {i}");
            }
        }
    }

    #[test]
    fn set_alpha_moves_the_fitted_threshold() {
        let mut clone = trained_clone();
        let before = clone.threshold().unwrap().value();
        clone.set_alpha(6.0);
        let after = clone.threshold().unwrap().value();
        assert!((after / before - 2.0).abs() < 1e-12, "α 3→6 doubles it");
        assert_eq!(clone.threshold().unwrap().sigma(), before / 3.0);
    }

    #[test]
    fn restore_rejects_foreign_bin_count() {
        let mut live = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 5);
        live.observe(&background(0));
        let mut w = SnapshotWriter::new();
        live.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut other = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 128, 3.0, 5);
        let mut r = SnapshotReader::new(&buf);
        assert!(other.restore_snapshot(&mut r).is_err());
    }

    #[test]
    fn scoring_hands_back_the_outgoing_reference() {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 5);
        let build = |flows: &[FlowRecord]| {
            FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(7), 64, flows)
        };
        let (first, second) = (build(&background(0)), build(&flooded(1)));
        let mut tables = ScoreTables::new();
        let mut current = first.clone();
        assert!(clone.score(&mut current, &mut tables).kl.is_none());
        assert_eq!(
            current.counts(),
            first.counts(),
            "the first interval keeps a copy"
        );
        current = second.clone();
        let kl = clone.score(&mut current, &mut tables).kl;
        assert_eq!(current.counts(), first.counts(), "the outgoing reference");
        assert_eq!(
            kl.map(f64::to_bits),
            Some(crate::kl_distance(second.counts(), first.counts()).to_bits())
        );
        assert_eq!(clone.reference().unwrap().counts(), second.counts());
    }

    #[test]
    #[should_panic(expected = "different clone")]
    fn foreign_histogram_panics() {
        let mut clone = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(7), 64, 3.0, 5);
        let mut h =
            FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(8), 64, &background(0));
        let _ = clone.score(&mut h, &mut ScoreTables::new());
    }

    #[test]
    #[should_panic(expected = "at least 2 training intervals")]
    fn too_short_training_panics() {
        let _ = HistogramClone::new(FlowFeature::DstPort, BinHasher::new(1), 64, 3.0, 1);
    }
}
