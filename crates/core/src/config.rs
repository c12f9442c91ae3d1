//! Pipeline configuration — the paper's Table III parameters in one
//! struct.
//!
//! | Parameter | Paper symbol | Field | Paper value |
//! |-----------|--------------|-------|-------------|
//! | number of detectors | m | `detector.features` | 5 features |
//! | interval length | Δ | `interval_ms` | 15 min (5–15) |
//! | hash/bin count | k = 2^h | `detector.bins` | 1024 (512–2048) |
//! | histogram clones | n | `detector.clones` | 3 (1–25 analytic) |
//! | vote quorum | l | `detector.votes` | 3 (1–n) |
//! | threshold multiplier | — | `detector.alpha` | 3 |
//! | minimum support | s | `min_support` | 10 000 (3 000–10 000) |

use anomex_detector::DetectorConfig;
use anomex_mining::RuleConfig;
use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
pub use anomex_netflow::ConfigError;
use anomex_netflow::MINUTE_MS;

use crate::pipeline::TransactionMode;
use crate::prefilter::PrefilterMode;

/// Complete configuration of the anomaly-extraction pipeline.
#[derive(Debug, Clone)]
pub struct ExtractionConfig {
    /// Measurement interval length Δ in milliseconds.
    pub interval_ms: u64,
    /// Histogram detector bank parameters (k, n, l, α, features, seed).
    pub detector: DetectorConfig,
    /// Pre-filter semantics (union per the paper; intersection as
    /// baseline).
    pub prefilter: PrefilterMode,
    /// Absolute minimum support `s` for frequent item-set mining
    /// (FP-growth, [`anomex_mining::mine`]).
    pub min_support: u64,
    /// Transaction shape: canonical width-7 or prefix-extended width-9
    /// (the §III-D multilevel mode).
    pub transactions: TransactionMode,
    /// Association-rule layer on top of the item-set summary: `Some` to
    /// generate, filter and rank rules per extraction (metric filters
    /// plus the rare-itemset mode), `None` (the default) for the paper's
    /// item-set-only output.
    pub rules: Option<RuleConfig>,
}

impl Default for ExtractionConfig {
    /// The paper's evaluation configuration: Δ = 15 min, k = 1024,
    /// n = l = 3, α = 3, union pre-filter, s = 10 000 — mined with
    /// FP-growth (the same item-sets as the paper's Apriori).
    fn default() -> Self {
        ExtractionConfig {
            interval_ms: 15 * MINUTE_MS,
            detector: DetectorConfig::default(),
            prefilter: PrefilterMode::Union,
            min_support: 10_000,
            transactions: TransactionMode::Canonical,
            rules: None,
        }
    }
}

/// The checkpoint's miner byte: FP-growth's tag from when the miner was
/// a setting (0 Apriori, 1 FP-growth, 2 Eclat).
const MINER_TAG_FP_GROWTH: u8 = 1;

impl ExtractionConfig {
    /// Validate all parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval_ms == 0 {
            return Err(ConfigError::new("interval length must be positive"));
        }
        if self.min_support == 0 {
            return Err(ConfigError::new("minimum support must be at least 1"));
        }
        if let Some(rules) = &self.rules {
            rules.validate().map_err(ConfigError::new)?;
        }
        self.detector.validate().map_err(ConfigError::new)
    }

    /// Serialize the full configuration into a checkpoint payload. The
    /// configuration travels with every engine snapshot so a restore is
    /// self-contained: structural detector state (hashers, bins, clone
    /// counts) is rebuilt from this record rather than serialized. The
    /// record keeps the byte of the miner older builds let one choose:
    /// it is always written as FP-growth's tag, `1`.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.interval_ms);
        self.detector.encode_snapshot(w);
        w.u8(match self.prefilter {
            PrefilterMode::Union => 0,
            PrefilterMode::Intersection => 1,
        });
        w.u64(self.min_support);
        w.u8(MINER_TAG_FP_GROWTH);
        w.u8(match self.transactions {
            TransactionMode::Canonical => 0,
            TransactionMode::WithPrefixes => 1,
        });
        match &self.rules {
            None => w.bool(false),
            Some(rc) => {
                w.bool(true);
                w.f64(rc.min_confidence);
                w.f64(rc.min_lift);
                w.bool(rc.rare);
            }
        }
    }

    /// Decode a configuration written by
    /// [`encode_snapshot`](Self::encode_snapshot), re-validating every
    /// constraint so a tampered checkpoint cannot smuggle in parameters
    /// a live constructor would reject.
    ///
    /// A miner tag of 0, 1 or 2 (Apriori, FP-growth or Eclat, which older
    /// builds wrote) is read and ignored: every miner returned FP-growth's
    /// item-sets and supports, and FP-growth runs on.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError::Corrupt`] on an unknown mode tag or a
    /// configuration that fails [`validate`](Self::validate), and any
    /// reader error on truncated input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, RestoreError> {
        let interval_ms = r.u64()?;
        let detector = DetectorConfig::decode_snapshot(r)?;
        let prefilter = match r.u8()? {
            0 => PrefilterMode::Union,
            1 => PrefilterMode::Intersection,
            tag => {
                return Err(RestoreError::Corrupt(format!(
                    "unknown prefilter tag {tag}"
                )))
            }
        };
        let min_support = r.u64()?;
        match r.u8()? {
            0..=2 => {}
            tag => return Err(RestoreError::Corrupt(format!("unknown miner tag {tag}"))),
        }
        let transactions = match r.u8()? {
            0 => TransactionMode::Canonical,
            1 => TransactionMode::WithPrefixes,
            tag => {
                return Err(RestoreError::Corrupt(format!(
                    "unknown transaction-mode tag {tag}"
                )))
            }
        };
        let rules = if r.bool()? {
            Some(RuleConfig {
                min_confidence: r.f64()?,
                min_lift: r.f64()?,
                rare: r.bool()?,
            })
        } else {
            None
        };
        let config = ExtractionConfig {
            interval_ms,
            detector,
            prefilter,
            min_support,
            transactions,
            rules,
        };
        config
            .validate()
            .map_err(|e| RestoreError::Corrupt(format!("invalid restored configuration: {e}")))?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ExtractionConfig::default();
        assert_eq!(c.interval_ms, 900_000);
        assert_eq!(c.min_support, 10_000);
        assert_eq!(c.prefilter, PrefilterMode::Union);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_cascades_to_detector() {
        let mut c = ExtractionConfig::default();
        c.detector.votes = 99;
        assert!(c.validate().is_err());
        c = ExtractionConfig::default();
        c.min_support = 0;
        assert!(c.validate().is_err());
        c = ExtractionConfig::default();
        c.interval_ms = 0;
        assert!(c.validate().is_err());
        c = ExtractionConfig::default();
        c.rules = Some(RuleConfig {
            min_confidence: 2.0,
            ..RuleConfig::default()
        });
        assert!(c.validate().is_err(), "rule filters are validated too");
    }

    #[test]
    fn snapshot_round_trips_every_knob() {
        let config = ExtractionConfig {
            interval_ms: 60_000,
            prefilter: PrefilterMode::Intersection,
            min_support: 1234,
            transactions: crate::pipeline::TransactionMode::WithPrefixes,
            rules: Some(RuleConfig {
                min_confidence: 0.75,
                min_lift: 1.5,
                rare: true,
            }),
            ..ExtractionConfig::default()
        };
        let mut w = SnapshotWriter::new();
        config.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = ExtractionConfig::decode_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.interval_ms, config.interval_ms);
        assert_eq!(back.prefilter, config.prefilter);
        assert_eq!(back.min_support, config.min_support);
        assert_eq!(back.transactions, config.transactions);
        let rules = back.rules.unwrap();
        assert_eq!(rules.min_confidence.to_bits(), 0.75f64.to_bits());
        assert_eq!(rules.min_lift.to_bits(), 1.5f64.to_bits());
        assert!(rules.rare);
        assert_eq!(back.detector.seed, config.detector.seed);
    }

    #[test]
    fn snapshot_decode_rejects_truncation_and_bad_tags() {
        let mut w = SnapshotWriter::new();
        ExtractionConfig::default().encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        // Truncated mid-payload: typed error, no panic.
        let mut r = SnapshotReader::new(&bytes[..8]);
        assert!(ExtractionConfig::decode_snapshot(&mut r).is_err());
        // Corrupt the trailing rules-presence flag into an out-of-range
        // bool: typed error, no panic.
        let mut evil = bytes.clone();
        *evil.last_mut().unwrap() = 7;
        let mut r = SnapshotReader::new(&evil);
        assert!(ExtractionConfig::decode_snapshot(&mut r).is_err());
    }

    /// The config record with its miner byte set to `tag`, and where
    /// that byte sits: after Δ, the detector record, the pre-filter tag
    /// and `s`.
    fn with_miner_tag(config: &ExtractionConfig, tag: u8) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        config.encode_snapshot(&mut w);
        let mut bytes = w.into_bytes();
        let mut head = SnapshotWriter::new();
        head.u64(config.interval_ms);
        config.detector.encode_snapshot(&mut head);
        let at = head.into_bytes().len() + 1 + 8;
        assert_eq!(
            bytes[at], MINER_TAG_FP_GROWTH,
            "the miner byte is FP-growth's"
        );
        bytes[at] = tag;
        bytes
    }

    /// Older builds wrote 0 (Apriori) or 2 (Eclat) when asked to: those
    /// records decode to the same configuration and re-encode with
    /// FP-growth's tag, while any other tag is still corrupt.
    #[test]
    fn old_miner_tags_decode_and_reencode_as_fp_growth() {
        let config = ExtractionConfig {
            min_support: 77,
            ..ExtractionConfig::default()
        };
        let mut w = SnapshotWriter::new();
        config.encode_snapshot(&mut w);
        let current = w.into_bytes();
        for tag in 0..=2 {
            let bytes = with_miner_tag(&config, tag);
            let mut r = SnapshotReader::new(&bytes);
            let back = ExtractionConfig::decode_snapshot(&mut r).unwrap();
            r.finish().unwrap();
            let mut w = SnapshotWriter::new();
            back.encode_snapshot(&mut w);
            assert_eq!(w.into_bytes(), current, "tag {tag} re-encodes as FP-growth");
        }
        for tag in [3, 255] {
            let bytes = with_miner_tag(&config, tag);
            match ExtractionConfig::decode_snapshot(&mut SnapshotReader::new(&bytes)) {
                Err(RestoreError::Corrupt(message)) => {
                    assert!(message.contains("unknown miner tag"), "{message}");
                }
                other => panic!("tag {tag}: {other:?}"),
            }
        }
    }
}
