//! Per-feature detector: `n` histogram clones plus l-of-n voting.
//!
//! [`FeatureDetector::observe_columns`] is the detect step for one
//! feature: it counts the interval's column into every clone's count
//! buffer (`count_interval`), scores each clone against its reference
//! histogram and, when at least `l` clones alarmed, resolves the vote
//! from the same column: one pass keeps the values at least `l` of the
//! alarmed clones claim, as one ascending list, returned beside the
//! observation. A feature below quorum resolves nothing and votes an
//! empty list.

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature};

use crate::bank::{VotedRows, MAX_CLONES};
use crate::clone::{CloneObservation, ClonePhase, HistogramClone};
use crate::hash::{derive_hashers, BinHasher};
use crate::histogram::{count_interval, resolve_clones, FeatureHistogram};
use crate::kl::ScoreTables;

/// What one feature detector (all clones + voting) saw in one interval.
#[derive(Debug, Clone)]
pub struct FeatureObservation {
    /// The feature this observation belongs to.
    pub feature: FlowFeature,
    /// Per-clone observations, in clone order.
    pub clones: Vec<CloneObservation>,
    /// Number of clones that alarmed.
    pub alarmed_clones: usize,
    /// Whether the feature-level alarm fired (≥ `l` clones alarmed).
    pub alarm: bool,
}

/// A histogram-based detector for one traffic feature.
#[derive(Debug)]
pub struct FeatureDetector {
    feature: FlowFeature,
    clones: Vec<HistogramClone>,
    /// Each clone's count buffer for the next interval — the reference
    /// histogram that clone retired in the last one.
    counts: Vec<FeatureHistogram>,
    votes: usize,
}

impl FeatureDetector {
    /// Build a detector with `clones` clones of `bins` bins each, requiring
    /// `votes` agreeing clones, thresholding at `alpha·σ̂` after
    /// `training_intervals` training first-differences.
    ///
    /// Clone hash functions are derived deterministically from
    /// `seed` and the feature index, so detectors over different features
    /// (and different seeds) use independent binnings.
    ///
    /// # Panics
    ///
    /// Panics if `clones` is not in `1..=`[`MAX_CLONES`] or `votes` is
    /// not in `1..=clones`.
    #[must_use]
    pub fn new(
        feature: FlowFeature,
        bins: u32,
        clones: usize,
        votes: usize,
        alpha: f64,
        training_intervals: usize,
        seed: u64,
    ) -> Self {
        assert!(clones >= 1, "need at least one clone");
        assert!(
            clones <= MAX_CLONES,
            "clones {clones} must be at most {MAX_CLONES}"
        );
        assert!(
            (1..=clones).contains(&votes),
            "votes {votes} must be within 1..={clones}"
        );
        let family_seed = BinHasher::new(seed).mix(feature.index() as u64);
        let hashers = derive_hashers(family_seed, clones);
        let clones = hashers
            .iter()
            .map(|&h| HistogramClone::new(feature, h, bins, alpha, training_intervals))
            .collect();
        let counts = hashers
            .iter()
            .map(|&h| FeatureHistogram::new(feature, h, bins))
            .collect();
        FeatureDetector {
            feature,
            clones,
            counts,
            votes,
        }
    }

    /// The monitored feature.
    #[must_use]
    pub fn feature(&self) -> FlowFeature {
        self.feature
    }

    /// The vote quorum `l`.
    #[must_use]
    pub fn votes(&self) -> usize {
        self.votes
    }

    /// Whether every clone has finished training.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.clones
            .iter()
            .all(|c| c.phase() == ClonePhase::Detecting)
    }

    /// Access the clones (for ROC evaluation of individual clones).
    #[must_use]
    pub fn clones(&self) -> &[HistogramClone] {
        &self.clones
    }

    /// Observe one interval held as columns and advance every clone's
    /// state machine: each clone counts the feature's column into its
    /// count buffer and is scored against its reference histogram; at
    /// quorum, one more pass over the column resolves the vote from the
    /// alarmed clones' bins. Returns the observation and the vote: the
    /// (l-of-n) anomalous feature values, ascending and each once, empty
    /// unless the feature alarmed. A detector observed on its own builds
    /// fresh scoring tables per call; a
    /// [`DetectorBank`](crate::DetectorBank) reuses one set for all its
    /// detectors.
    pub fn observe_columns(&mut self, cols: &FlowColumns) -> (FeatureObservation, Vec<u64>) {
        self.observe_with(cols, &mut ScoreTables::new(), &mut VotedRows::default())
    }

    /// [`observe_columns`](Self::observe_columns), remembering scoring
    /// terms in `tables`. At quorum, the resolve pass also marks in `rows`
    /// the rows that carry a voted value.
    pub(crate) fn observe_with(
        &mut self,
        cols: &FlowColumns,
        tables: &mut ScoreTables,
        rows: &mut VotedRows,
    ) -> (FeatureObservation, Vec<u64>) {
        count_interval(cols, &mut self.counts);
        let clones: Vec<CloneObservation> = (self.clones.iter_mut())
            .zip(&mut self.counts)
            .map(|(clone, counts)| clone.score(counts, tables))
            .collect();
        let alarmed_clones = clones.iter().filter(|o| o.alarm).count();
        let alarm = alarmed_clones >= self.votes;
        let vote = if alarm {
            // One pass over the column resolves the vote.
            let claims: Vec<(BinHasher, &[u32])> = (self.clones.iter().zip(&clones))
                .filter_map(|(c, o)| Some((c.hasher(), &o.bin_identification.as_ref()?.bins[..])))
                .collect();
            let marks = rows.marks(self.feature, cols.len());
            resolve_clones(
                cols,
                self.feature,
                self.clones[0].bins(),
                &claims,
                self.votes,
                Some(marks),
            )
        } else {
            Vec::new()
        };
        let observation = FeatureObservation {
            feature: self.feature,
            clones,
            alarmed_clones,
            alarm,
        };
        (observation, vote)
    }

    /// Change the threshold multiplier α on every clone — live
    /// reconfiguration at an interval boundary.
    pub fn set_alpha(&mut self, alpha: f64) {
        for clone in &mut self.clones {
            clone.set_alpha(alpha);
        }
    }

    /// Serialize every clone's mutable temporal state, in clone order.
    /// The detector's structure (feature, hashers, quorum) is rebuilt
    /// from configuration on restore, not written.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.usize(self.clones.len());
        for clone in &self.clones {
            clone.encode_snapshot(w);
        }
    }

    /// Overwrite every clone's mutable state from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Corrupt`] when the snapshot's clone count differs
    /// from this detector's configuration, plus the per-clone decode
    /// errors.
    pub fn restore_snapshot(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), RestoreError> {
        let n = r.seq_len(1)?;
        if n != self.clones.len() {
            return Err(RestoreError::Corrupt(format!(
                "snapshot has {n} clones, detector expects {}",
                self.clones.len()
            )));
        }
        for clone in &mut self.clones {
            clone.restore_snapshot(r)?;
        }
        Ok(())
    }

    /// Retained heap footprint across clones (§III-E overhead report):
    /// their reference histograms. The count buffers recycled from them
    /// are scratch and not counted.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.clones.iter().map(HistogramClone::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::{FlowRecord, Protocol};
    use std::net::Ipv4Addr;

    fn background(interval: u64, salt: u64) -> FlowColumns {
        FlowColumns::from_flows(&background_flows(interval, salt))
    }

    fn background_flows(interval: u64, salt: u64) -> Vec<FlowRecord> {
        (0..300u64)
            .map(|i| {
                FlowRecord::new(
                    interval * 60_000 + i,
                    Ipv4Addr::from(0x0a00_0000 + ((i * 7 + salt) % 128) as u32),
                    Ipv4Addr::new(10, 0, 0, 2),
                    4000,
                    (1 + (i * 13 + salt) % 500) as u16,
                    Protocol::Tcp,
                )
            })
            .collect()
    }

    fn flood(interval: u64, n: u64) -> FlowColumns {
        let mut flows = background_flows(interval, interval);
        for i in 0..n {
            flows.push(FlowRecord::new(
                interval * 60_000 + i,
                Ipv4Addr::new(192, 168, 1, 1),
                Ipv4Addr::new(10, 0, 0, 9),
                (2000 + (i % 30_000)) as u16,
                7000,
                Protocol::Tcp,
            ));
        }
        FlowColumns::from_flows(&flows)
    }

    fn trained(votes: usize) -> FeatureDetector {
        let mut det = FeatureDetector::new(FlowFeature::DstPort, 1024, 3, votes, 3.0, 12, 99);
        for i in 0..14 {
            det.observe_columns(&background(i, i));
        }
        assert!(det.is_trained());
        det
    }

    #[test]
    fn unanimous_vote_finds_the_flood_port() {
        let mut det = trained(3);
        let (obs, vote) = det.observe_columns(&flood(14, 4000));
        assert!(obs.alarm);
        assert_eq!(obs.alarmed_clones, 3);
        assert!(vote.contains(&7000));
        // Unanimous voting keeps very few values besides the true one:
        // every kept value collided with the anomalous bin in ALL 3 clones.
        assert!(vote.len() < 50, "kept {}", vote.len());
    }

    #[test]
    fn union_vote_keeps_more_values_than_intersection() {
        let mut det_union = trained(1);
        let mut det_inter = trained(3);
        let (union_obs, union_vote) = det_union.observe_columns(&flood(14, 4000));
        let (inter_obs, inter_vote) = det_inter.observe_columns(&flood(14, 4000));
        assert!(union_obs.alarm && inter_obs.alarm);
        assert!(
            union_vote.len() >= inter_vote.len(),
            "union {} < intersection {}",
            union_vote.len(),
            inter_vote.len()
        );
        assert!(inter_vote
            .iter()
            .all(|v| union_vote.binary_search(v).is_ok()));
    }

    #[test]
    fn no_alarm_without_quorum() {
        // With votes = 3, nothing fires on steady traffic.
        let mut det = trained(3);
        for i in 14..20 {
            let (obs, vote) = det.observe_columns(&background(i, i));
            assert!(!obs.alarm, "steady interval {i} alarmed");
            assert!(vote.is_empty());
        }
    }

    #[test]
    fn clone_hashers_are_distinct() {
        let det = FeatureDetector::new(FlowFeature::DstPort, 64, 5, 1, 3.0, 5, 1);
        let mut seeds: Vec<u64> = det.clones().iter().map(|c| c.hasher().seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5);
    }

    #[test]
    #[should_panic(expected = "must be within")]
    fn invalid_quorum_panics() {
        let _ = FeatureDetector::new(FlowFeature::DstPort, 64, 3, 4, 3.0, 5, 1);
    }

    #[test]
    #[should_panic(expected = "must be at most")]
    fn more_than_max_clones_panics() {
        let _ = FeatureDetector::new(FlowFeature::DstPort, 64, MAX_CLONES + 1, 1, 3.0, 5, 1);
    }

    #[test]
    fn memory_scales_with_clones() {
        let mut one = FeatureDetector::new(FlowFeature::DstPort, 1024, 1, 1, 3.0, 5, 1);
        let mut three = FeatureDetector::new(FlowFeature::DstPort, 1024, 3, 1, 3.0, 5, 1);
        one.observe_columns(&background(0, 0));
        three.observe_columns(&background(0, 0));
        assert!(three.memory_bytes() > 2 * one.memory_bytes());
    }
}
