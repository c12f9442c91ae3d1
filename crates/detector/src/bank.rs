//! The detector bank: `m` feature detectors producing consolidated
//! meta-data.
//!
//! The paper runs five histogram detectors (srcIP, dstIP, srcPort, dstPort,
//! packets-per-flow) and consolidates their per-feature meta-data by
//! **union** into the pre-filter input (Fig. 3). [`DetectorBank`] is that
//! assembly: feed it intervals, get alarms plus merged [`MetaData`].

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

use crate::detector::{FeatureDetector, FeatureObservation};
use crate::kl::ScoreTables;
use crate::metadata::MetaData;

/// Largest bin count `k` a [`DetectorConfig`] accepts (paper: 512–2048).
pub const MAX_BINS: u32 = 1 << 16;

/// Largest clone count `n` a [`DetectorConfig`] accepts (paper: n ≤ 25).
/// Resolve asks each alarmed clone about a key in turn, so `n` bounds
/// its work per flow.
pub const MAX_CLONES: usize = 64;

/// Configuration of a detector bank — the paper's Table III parameters.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Histogram bins `k` per clone (paper: 1024; range 512–2048).
    pub bins: u32,
    /// Histogram clones `n` per feature (paper: 3).
    pub clones: usize,
    /// Vote quorum `l` (paper: 3, i.e. unanimous with n = 3).
    pub votes: usize,
    /// Threshold multiplier α on the first-difference σ̂ (paper: 3).
    pub alpha: f64,
    /// Number of first-difference samples used to fit σ̂.
    pub training_intervals: usize,
    /// The monitored features (paper: the five detection features).
    pub features: Vec<FlowFeature>,
    /// Master seed for all clone hash functions.
    pub seed: u64,
}

impl Default for DetectorConfig {
    /// The paper's evaluation setting: k = 1024, n = l = 3, α = 3, five
    /// detection features.
    fn default() -> Self {
        DetectorConfig {
            bins: 1024,
            clones: 3,
            votes: 3,
            alpha: 3.0,
            training_intervals: 48,
            features: FlowFeature::DETECTION_FEATURES.to_vec(),
            seed: 0x616e_6f6d_6578, // "anomex"
        }
    }
}

impl DetectorConfig {
    /// Validate the parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_BINS).contains(&self.bins) {
            return Err(format!("bins {} must be within 1..={MAX_BINS}", self.bins));
        }
        if !(1..=MAX_CLONES).contains(&self.clones) {
            return Err(format!(
                "clones {} must be within 1..={MAX_CLONES}",
                self.clones
            ));
        }
        if !(1..=self.clones).contains(&self.votes) {
            return Err(format!(
                "votes {} must be within 1..={}",
                self.votes, self.clones
            ));
        }
        if self.training_intervals < 2 {
            return Err("need at least 2 training intervals".into());
        }
        if self.features.is_empty() {
            return Err("need at least one monitored feature".into());
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err("alpha must be positive and finite".into());
        }
        Ok(())
    }

    /// Serialize the configuration into a snapshot payload, so a restore
    /// can rebuild the bank structure without out-of-band knowledge.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u32(self.bins);
        w.usize(self.clones);
        w.usize(self.votes);
        w.f64(self.alpha);
        w.usize(self.training_intervals);
        w.usize(self.features.len());
        for &f in &self.features {
            w.u8(f.index() as u8);
        }
        w.u64(self.seed);
    }

    /// Rebuild a configuration from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload,
    /// [`RestoreError::Corrupt`] on an unknown feature index or a
    /// configuration that fails [`validate`](Self::validate).
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let bins = r.u32()?;
        let clones = r.usize()?;
        let votes = r.usize()?;
        let alpha = r.f64()?;
        let training_intervals = r.usize()?;
        let n = r.seq_len(1)?;
        let mut features = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = usize::from(r.u8()?);
            if idx >= FlowFeature::EXTENDED.len() {
                return Err(RestoreError::Corrupt(format!("bad feature index {idx}")));
            }
            features.push(FlowFeature::from_index(idx));
        }
        let seed = r.u64()?;
        let config = DetectorConfig {
            bins,
            clones,
            votes,
            alpha,
            training_intervals,
            features,
            seed,
        };
        config
            .validate()
            .map_err(|e| RestoreError::Corrupt(format!("invalid detector config: {e}")))?;
        Ok(config)
    }
}

/// What the whole bank saw in one interval.
#[derive(Debug, Clone)]
pub struct BankObservation {
    /// Zero-based interval index since the bank was created.
    pub interval: u64,
    /// Per-feature observations, in configured feature order.
    pub features: Vec<FeatureObservation>,
    /// Whether any feature alarmed.
    pub alarm: bool,
    /// Union of the voted meta-data of all alarmed features (Fig. 3's
    /// "⋃ Mᵢ"): each alarmed feature's vote, the one sorted list
    /// [`FeatureDetector::observe_columns`] returned for it.
    pub metadata: MetaData,
}

/// The rows of the last observed interval whose value of a feature was
/// voted, as the detector's resolve pass marks them: what the
/// pre-filter keeps, read off that pass instead of a second scan of the
/// alarmed columns. The pre-filter combines the bitsets of the features
/// its meta-data names ([`DetectorBank::voted_rows`]).
///
/// Each feature at quorum marks its rows in a bitset of its own: bit `r`
/// is set when row `r`'s value of that feature was voted. A bitset is
/// zeroed and filled only on an interval where its feature reaches
/// quorum; any other interval leaves no bitset without touching the
/// buffer, which is kept for the next alarm.
#[derive(Debug, Clone, Default)]
pub struct VotedRows {
    /// One bitset of `words` words per feature index.
    bits: Vec<u64>,
    words: usize,
    /// The features whose bitset belongs to this interval.
    marked: u16,
}

impl VotedRows {
    /// `feature`'s bitset over the interval's rows, bit `r` of word
    /// `r / 64` for row `r`; `None` unless the feature reached quorum.
    #[must_use]
    pub fn feature_rows(&self, feature: FlowFeature) -> Option<&[u64]> {
        let f = feature.index();
        (self.marked >> f & 1 == 1).then(|| &self.bits[f * self.words..(f + 1) * self.words])
    }

    /// Forget the last interval's rows, without touching the bitsets.
    fn reset(&mut self) {
        (self.words, self.marked) = (0, 0);
    }

    /// `feature`'s bitset over this interval's `rows` rows, zeroed on
    /// the interval's first mark of that feature.
    pub(crate) fn marks(&mut self, feature: FlowFeature, rows: usize) -> &mut [u64] {
        let words = rows.div_ceil(64);
        if self.marked == 0 {
            self.bits.resize(FlowFeature::EXTENDED.len() * words, 0);
            self.words = words;
        }
        let f = feature.index();
        let bits = &mut self.bits[f * words..(f + 1) * words];
        if self.marked >> f & 1 == 0 {
            bits.fill(0);
            self.marked |= 1 << f;
        }
        bits
    }
}

/// `m` feature detectors operated in lockstep.
#[derive(Debug)]
pub struct DetectorBank {
    detectors: Vec<FeatureDetector>,
    interval: u64,
    /// Scoring's remembered terms, reused by every clone of every
    /// feature: in one interval they all score KL under the same
    /// normalizers.
    tables: ScoreTables,
    /// The rows the last interval's resolve passes marked as voted.
    voted_rows: VotedRows,
}

impl DetectorBank {
    /// Build a bank from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DetectorConfig::validate`]).
    #[must_use]
    pub fn new(config: &DetectorConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid detector configuration: {e}");
        }
        let detectors = config
            .features
            .iter()
            .map(|&feature| {
                FeatureDetector::new(
                    feature,
                    config.bins,
                    config.clones,
                    config.votes,
                    config.alpha,
                    config.training_intervals,
                    config.seed,
                )
            })
            .collect();
        DetectorBank {
            detectors,
            interval: 0,
            tables: ScoreTables::new(),
            voted_rows: VotedRows::default(),
        }
    }

    /// Observe one interval's flows with every detector: transpose them
    /// once and run [`observe_columns`](Self::observe_columns).
    pub fn observe(&mut self, flows: &[FlowRecord]) -> BankObservation {
        self.observe_columns(&FlowColumns::from_flows(flows))
    }

    /// Observe one interval held as columns — the detect step: every
    /// detector counts its feature's column into its clones, scores and
    /// votes ([`FeatureDetector::observe_columns`]), and the alarmed
    /// features' votes move into the meta-data. Each
    /// feature at quorum also marks the rows whose value it voted, in
    /// [`voted_rows`](Self::voted_rows). Once past the first interval and
    /// training, an unalarmed interval allocates only what the returned
    /// observation owns.
    pub fn observe_columns(&mut self, cols: &FlowColumns) -> BankObservation {
        self.voted_rows.reset();
        let mut features = Vec::with_capacity(self.detectors.len());
        let mut metadata = MetaData::new();
        for detector in &mut self.detectors {
            let (obs, vote) = detector.observe_with(cols, &mut self.tables, &mut self.voted_rows);
            metadata.insert_all(obs.feature, vote);
            features.push(obs);
        }
        let alarm = features.iter().any(|o| o.alarm);
        let observation = BankObservation {
            interval: self.interval,
            features,
            alarm,
            metadata,
        };
        self.interval += 1;
        observation
    }

    /// The rows of the last observed interval whose value of a feature
    /// at quorum was voted: under the observation's meta-data, the rows
    /// a pre-filter keeps are combined from these bitsets without another
    /// scan of the columns.
    #[must_use]
    pub fn voted_rows(&self) -> &VotedRows {
        &self.voted_rows
    }

    /// Whether all detectors finished training.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.detectors.iter().all(FeatureDetector::is_trained)
    }

    /// Access the per-feature detectors.
    #[must_use]
    pub fn detectors(&self) -> &[FeatureDetector] {
        &self.detectors
    }

    /// Change the threshold multiplier α on every clone of every
    /// detector — live reconfiguration at an interval boundary. Fitted
    /// σ̂s are untouched; only the multiplier moves.
    pub fn set_alpha(&mut self, alpha: f64) {
        for det in &mut self.detectors {
            det.set_alpha(alpha);
        }
    }

    /// Serialize the bank's complete mutable state — the interval
    /// counter and every clone's temporal state, in configured detector
    /// order. Structure (features, hashers, quorums) is rebuilt from the
    /// [`DetectorConfig`] on restore; hash functions are re-derived from
    /// the seed, so only their *state* travels.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.interval);
        w.usize(self.detectors.len());
        for det in &self.detectors {
            det.encode_snapshot(w);
        }
    }

    /// Overwrite this bank's mutable state with a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot). The bank must have
    /// been built from the same [`DetectorConfig`] that produced the
    /// snapshot; the restored bank then scores subsequent intervals
    /// bit-identically to the bank that was saved.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Corrupt`] when the snapshot's detector count
    /// differs from this bank's configuration, plus the per-detector
    /// decode errors.
    pub fn restore_snapshot(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), RestoreError> {
        let interval = r.u64()?;
        let n = r.seq_len(1)?;
        if n != self.detectors.len() {
            return Err(RestoreError::Corrupt(format!(
                "snapshot has {n} detectors, bank expects {}",
                self.detectors.len()
            )));
        }
        for det in &mut self.detectors {
            det.restore_snapshot(r)?;
        }
        self.interval = interval;
        Ok(())
    }

    /// Retained heap footprint of all reference histograms — reproduces
    /// the paper's §III-E memory accounting (5 detectors × 3 clones ×
    /// 1024 bins ≈ hundreds of kB).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.detectors
            .iter()
            .map(FeatureDetector::memory_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn config() -> DetectorConfig {
        DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        }
    }

    fn background(interval: u64) -> Vec<FlowRecord> {
        (0..400u64)
            .map(|i| {
                FlowRecord::new(
                    interval * 60_000 + i,
                    Ipv4Addr::from(0x0a00_0000 + ((i * 31 + interval) % 256) as u32),
                    Ipv4Addr::from(0xc0a8_0000 + ((i * 17) % 64) as u32),
                    (1024 + (i * 7) % 2000) as u16,
                    (1 + (i * 13) % 800) as u16,
                    Protocol::Tcp,
                )
                .with_volume(1 + (i % 9) as u32, 40 * (1 + (i % 9) as u32))
            })
            .collect()
    }

    fn ddos(interval: u64) -> Vec<FlowRecord> {
        let mut flows = background(interval);
        for i in 0..3000u64 {
            flows.push(
                FlowRecord::new(
                    interval * 60_000 + i,
                    Ipv4Addr::from(0x3000_0000 + (i % 2500) as u32), // many sources
                    Ipv4Addr::new(10, 0, 0, 77),                     // one victim
                    (1024 + (i % 50_000)) as u16,
                    7000,
                    Protocol::Udp,
                )
                .with_volume(2, 96),
            );
        }
        flows
    }

    #[test]
    fn default_config_is_the_papers() {
        let c = DetectorConfig::default();
        assert_eq!(c.bins, 1024);
        assert_eq!(c.clones, 3);
        assert_eq!(c.votes, 3);
        assert!((c.alpha - 3.0).abs() < f64::EPSILON);
        assert_eq!(c.features.len(), 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = config();
        c.votes = 5;
        assert!(c.validate().is_err());
        c = config();
        c.bins = 0;
        assert!(c.validate().is_err());
        c.bins = MAX_BINS + 1;
        assert!(c.validate().is_err());
        c.bins = MAX_BINS;
        c.clones = MAX_CLONES;
        assert!(c.validate().is_ok());
        c.clones = MAX_CLONES + 1;
        assert!(c.validate().is_err());
        c = config();
        c.features.clear();
        assert!(c.validate().is_err());
        c = config();
        c.alpha = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ddos_alarms_dst_features_and_produces_metadata() {
        let mut bank = DetectorBank::new(&config());
        for i in 0..13 {
            let obs = bank.observe(&background(i));
            assert!(!obs.alarm, "training interval {i} alarmed");
        }
        assert!(bank.is_trained());
        let obs = bank.observe(&ddos(13));
        assert!(obs.alarm, "DDoS must raise an alarm");
        let alarmed: Vec<FlowFeature> = (obs.features.iter())
            .filter(|o| o.alarm)
            .map(|o| o.feature)
            .collect();
        assert!(
            alarmed.contains(&FlowFeature::DstIp) || alarmed.contains(&FlowFeature::DstPort),
            "a destination feature must alarm, got {alarmed:?}"
        );
        assert!(!obs.metadata.is_empty());
        // The victim artifacts should be in the meta-data.
        let has_victim_port = obs
            .metadata
            .values_for(FlowFeature::DstPort)
            .is_some_and(|v| v.contains(&7000));
        let has_victim_ip = obs
            .metadata
            .values_for(FlowFeature::DstIp)
            .is_some_and(|v| v.contains(&u64::from(u32::from(Ipv4Addr::new(10, 0, 0, 77)))));
        assert!(
            has_victim_port || has_victim_ip,
            "victim must appear in meta-data"
        );
    }

    #[test]
    fn interval_counter_advances() {
        let mut bank = DetectorBank::new(&config());
        assert_eq!(bank.interval, 0);
        bank.observe(&background(0));
        bank.observe(&background(1));
        assert_eq!(bank.interval, 2);
    }

    #[test]
    fn memory_footprint_reported() {
        let mut bank = DetectorBank::new(&config());
        bank.observe(&background(0));
        // 5 features × 3 clones × 1024 bins × 8 bytes of counts.
        assert_eq!(bank.memory_bytes(), 5 * 3 * 1024 * 8);
    }

    #[test]
    fn bank_snapshot_round_trip_is_bit_identical() {
        // Train past the threshold fit, snapshot mid-stream, restore into
        // a bank rebuilt from the (decoded) config, and verify the tail —
        // including a DDoS interval — scores identically to the bit.
        let mut live = DetectorBank::new(&config());
        for i in 0..13 {
            live.observe(&background(i));
        }
        let mut w = SnapshotWriter::new();
        config().encode_snapshot(&mut w);
        live.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let decoded_config = DetectorConfig::decode_snapshot(&mut r).unwrap();
        let mut restored = DetectorBank::new(&decoded_config);
        restored.restore_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.interval, live.interval);
        assert_eq!(restored.is_trained(), live.is_trained());
        for i in 13..17 {
            let flows = if i == 14 { ddos(i) } else { background(i) };
            let a = live.observe(&flows);
            let b = restored.observe(&flows);
            assert_eq!(a.alarm, b.alarm, "interval {i}");
            assert_eq!(a.metadata, b.metadata, "interval {i}");
            for (x, y) in a.features.iter().zip(&b.features) {
                for (cx, cy) in x.clones.iter().zip(&y.clones) {
                    assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn bank_restore_rejects_detector_count_mismatch() {
        let mut live = DetectorBank::new(&config());
        live.observe(&background(0));
        let mut w = SnapshotWriter::new();
        live.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut other_config = config();
        other_config.features = vec![FlowFeature::DstPort];
        let mut other = DetectorBank::new(&other_config);
        let mut r = SnapshotReader::new(&buf);
        assert!(other.restore_snapshot(&mut r).is_err());
    }

    #[test]
    fn config_snapshot_round_trips_and_validates() {
        let c = config();
        let mut w = SnapshotWriter::new();
        c.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        let back = DetectorConfig::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.bins, c.bins);
        assert_eq!(back.features, c.features);
        assert_eq!(back.seed, c.seed);
        assert_eq!(back.alpha.to_bits(), c.alpha.to_bits());
        // A config that decodes but violates its own invariants is corrupt.
        let mut bad = config();
        bad.votes = 99;
        let mut w = SnapshotWriter::new();
        bad.encode_snapshot(&mut w);
        let buf = w.into_bytes();
        let mut r = SnapshotReader::new(&buf);
        assert!(DetectorConfig::decode_snapshot(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid detector configuration")]
    fn bad_config_panics_on_construction() {
        let mut c = config();
        c.clones = 0;
        let _ = DetectorBank::new(&c);
    }
}
