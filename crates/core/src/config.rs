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

use std::fmt;

use anomex_detector::DetectorConfig;
use anomex_mining::{MinerKind, RuleConfig};
use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::MINUTE_MS;

use crate::pipeline::TransactionMode;
use crate::prefilter::PrefilterMode;

/// An invalid [`ExtractionConfig`]: which constraint was violated, in
/// human-readable form. Returned by [`ExtractionConfig::validate`] and
/// [`Engine::new`](crate::Engine::new) so library users get a `Result`
/// instead of a panic path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Wrap a constraint-violation description.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError(message.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.0
    }
}

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
    /// Absolute minimum support `s` for frequent item-set mining.
    pub min_support: u64,
    /// Which mining algorithm to run (identical outputs, different cost).
    pub miner: MinerKind,
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
    /// n = l = 3, α = 3, union pre-filter, s = 10 000 — mined with the
    /// default [`MinerKind`] (FP-growth; same item-sets as the paper's
    /// Apriori).
    fn default() -> Self {
        ExtractionConfig {
            interval_ms: 15 * MINUTE_MS,
            detector: DetectorConfig::default(),
            prefilter: PrefilterMode::Union,
            min_support: 10_000,
            miner: MinerKind::default(),
            transactions: TransactionMode::Canonical,
            rules: None,
        }
    }
}

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
    /// counts) is rebuilt from this record rather than serialized.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.interval_ms);
        self.detector.encode_snapshot(w);
        w.u8(match self.prefilter {
            PrefilterMode::Union => 0,
            PrefilterMode::Intersection => 1,
        });
        w.u64(self.min_support);
        w.u8(match self.miner {
            MinerKind::Apriori => 0,
            MinerKind::FpGrowth => 1,
            MinerKind::Eclat => 2,
        });
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
        let miner = match r.u8()? {
            0 => MinerKind::Apriori,
            1 => MinerKind::FpGrowth,
            2 => MinerKind::Eclat,
            tag => return Err(RestoreError::Corrupt(format!("unknown miner tag {tag}"))),
        };
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
            miner,
            transactions,
            rules,
        };
        config
            .validate()
            .map_err(|e| RestoreError::Corrupt(format!("invalid restored configuration: {e}")))?;
        Ok(config)
    }

    /// Scale the minimum support relative to an expected interval volume —
    /// the paper's guidance that "a suitable s is typically in the range
    /// between 1% and 10% of the total number of input flows" (§II-E).
    #[must_use]
    pub fn with_relative_support(mut self, interval_flows: u64, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be within [0, 1]"
        );
        self.min_support = ((interval_flows as f64 * fraction) as u64).max(1);
        self
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
        assert_eq!(c.miner, MinerKind::FpGrowth);
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
    fn relative_support_rule_of_thumb() {
        // 1% of one million flows → s = 10 000, the paper's setting.
        let c = ExtractionConfig::default().with_relative_support(1_000_000, 0.01);
        assert_eq!(c.min_support, 10_000);
        let c = ExtractionConfig::default().with_relative_support(50, 0.01);
        assert_eq!(c.min_support, 1, "floored at 1");
    }

    #[test]
    #[should_panic(expected = "fraction must be within")]
    fn bad_fraction_panics() {
        let _ = ExtractionConfig::default().with_relative_support(100, 2.0);
    }

    #[test]
    fn snapshot_round_trips_every_knob() {
        let config = ExtractionConfig {
            interval_ms: 60_000,
            prefilter: PrefilterMode::Intersection,
            min_support: 1234,
            miner: MinerKind::Eclat,
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
        assert_eq!(back.miner, config.miner);
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
}
