//! The extraction engine: the one type the whole pipeline runs through.
//!
//! Construct it with [`Engine::new`] from
//! one [`ExtractionConfig`] — the paper's Table III parameters plus the
//! pre-filter, transaction and rule-layer choices — and run it
//! either way:
//!
//! - **Online:** feed intervals through [`Engine::process`], which
//!   accepts either interval representation via [`IntervalInput`] — a
//!   record slice or a columnar store.
//! - **Offline:** [`Engine::extract`] mines one batch of flows under
//!   meta-data from elsewhere (another detector, an operator's hints) —
//!   the same tail, under the same configuration, that an alarmed
//!   interval runs online.
//! - **Durability:** [`Engine::snapshot`] serializes the complete
//!   mutable state (configuration + detector bank) into a checkpoint
//!   payload and [`Engine::restore`] rebuilds an engine that scores
//!   bit-identically from the next interval on.
//! - **Live reconfiguration:** [`Engine::reconfigure`] applies a
//!   [`ReconfigRequest`] — validated as a whole, applied atomically,
//!   rejected without side effects.
//!
//! # Execution
//!
//! Every interval runs on the engine's one thread, in the paper's order:
//!
//! ```text
//!  detect:      DetectorBank::observe_columns: per feature, each clone
//!               counts the column into its recycled buffer and is
//!               scored; alarmed clones resolve values from the column,
//!               and a feature at quorum marks the rows whose value it
//!               voted
//!  pre-filter:  prefilter_indices_voted joins the marked rows (no
//!               column scan)
//!  mine:        the suspicious rows gathered one column at a time; one
//!               per-column count and the FP-tree search
//! ```
//!
//! The streaming front-end
//! ([`MultiSourceExtractor`](crate::MultiSourceExtractor)) runs the
//! engine on its own pipeline thread, so assembling interval t+1
//! overlaps the engine's work on interval t.
//!
//! **Columnar storage.** The engine holds each interval as a
//! [`FlowColumns`] struct-of-arrays store: every hot pass — histograms,
//! resolve, transaction gathering — walks only the contiguous column(s)
//! it reads. The streaming path assembles its windows as columns and
//! hands them over as they are; a record slice is transposed into fresh
//! columns on each call.

use anomex_detector::{DetectorBank, MetaData};
use anomex_mining::RuleConfig;
use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowRecord};

use crate::config::{ConfigError, ExtractionConfig};
use crate::pipeline::{mine_at_indices, Extraction, IntervalOutcome};
use crate::prefilter::prefilter_indices_voted;

/// One interval's flows, in whichever representation the caller already
/// holds. [`Engine::process`] accepts `impl Into<IntervalInput>`, so
/// record slices (plain or `Vec`-owned) and columnar stores all feed
/// the same entry point.
#[derive(Debug)]
pub enum IntervalInput<'a> {
    /// A borrowed record slice, transposed into columns on each call.
    Records(&'a [FlowRecord]),
    /// A columnar store — the transpose-free path.
    Columns(&'a FlowColumns),
}

impl<'a> From<&'a [FlowRecord]> for IntervalInput<'a> {
    fn from(flows: &'a [FlowRecord]) -> Self {
        IntervalInput::Records(flows)
    }
}

impl<'a> From<&'a Vec<FlowRecord>> for IntervalInput<'a> {
    fn from(flows: &'a Vec<FlowRecord>) -> Self {
        IntervalInput::Records(flows)
    }
}

impl<'a> From<&'a FlowColumns> for IntervalInput<'a> {
    fn from(cols: &'a FlowColumns) -> Self {
        IntervalInput::Columns(cols)
    }
}

/// A request to change pipeline parameters on a live engine. Every field
/// is optional — `None` leaves the current setting untouched — and the
/// resulting configuration is validated as a whole before anything is
/// applied, so a rejected request has no effect at all.
///
/// In streaming operation
/// ([`MultiSourceExtractor::reconfigure`](crate::MultiSourceExtractor::reconfigure))
/// the request travels through the pipeline's work channel and lands
/// **between intervals**: every interval submitted before the request is
/// processed under the old parameters, everything after under the new —
/// no flows are dropped or reprocessed.
#[derive(Debug, Clone, Default)]
pub struct ReconfigRequest {
    /// New absolute minimum support `s` for mining.
    pub min_support: Option<u64>,
    /// New detector threshold multiplier α. Applies to already-fitted
    /// thresholds too (σ̂ estimates are kept; only the multiplier
    /// moves).
    pub alpha: Option<f64>,
    /// Replace the association-rule layer: `Some(Some(config))` installs
    /// or retunes it, `Some(None)` removes it, `None` leaves it alone.
    pub rules: Option<Option<RuleConfig>>,
}

impl ReconfigRequest {
    /// The configuration this request turns `config` into, not yet
    /// validated: what [`Engine::reconfigure`] validates and applies.
    #[must_use]
    pub fn apply(&self, config: &ExtractionConfig) -> ExtractionConfig {
        let mut candidate = config.clone();
        if let Some(s) = self.min_support {
            candidate.min_support = s;
        }
        if let Some(alpha) = self.alpha {
            candidate.detector.alpha = alpha;
        }
        if let Some(rules) = self.rules {
            candidate.rules = rules;
        }
        candidate
    }

    /// Whether the request changes anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.min_support.is_none() && self.alpha.is_none() && self.rules.is_none()
    }
}

/// The anomaly-extraction engine: detector bank → voted meta-data →
/// pre-filter → item-set mining (paper Fig. 3), online and offline,
/// plus checkpointing and live reconfiguration. Every interval runs on
/// the calling thread; see the [module docs](self).
#[derive(Debug)]
pub struct Engine {
    config: ExtractionConfig,
    bank: DetectorBank,
}

impl Engine {
    /// Build the engine, rejecting an invalid configuration with an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn new(config: ExtractionConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let bank = DetectorBank::new(&config.detector);
        Ok(Engine { config, bank })
    }

    /// Offline extraction (§II-B with meta-data from elsewhere):
    /// pre-filter `flows` with `metadata` and mine the survivors under
    /// the engine's configuration — support, pre-filter, transaction
    /// shape and rule layer. It is the tail an alarmed
    /// interval runs in [`process`](Self::process): given that
    /// interval's flows and voted meta-data it returns the same
    /// extraction, tagged interval 0. The detector bank is not touched.
    ///
    /// ```
    /// use anomex_core::{Engine, ExtractionConfig};
    /// use anomex_detector::MetaData;
    /// use anomex_netflow::FlowFeature;
    ///
    /// let config = ExtractionConfig { min_support: 500, ..ExtractionConfig::default() };
    /// let engine = Engine::new(config).unwrap();
    /// let mut md = MetaData::new();
    /// md.insert(FlowFeature::DstPort, 7000);
    /// let extraction = engine.extract(&[], &md);
    /// assert_eq!(extraction.total_flows, 0);
    /// ```
    #[must_use]
    pub fn extract(&self, flows: &[FlowRecord], metadata: &MetaData) -> Extraction {
        let cols = FlowColumns::from_flows(flows);
        let indices = crate::prefilter_indices_columns(&cols, metadata, self.config.prefilter);
        mine_at_indices(0, &cols, &indices, metadata, &self.config)
    }

    /// The pipeline configuration.
    #[must_use]
    pub fn config(&self) -> &ExtractionConfig {
        &self.config
    }

    /// The underlying detector bank (KL series, memory accounting, …).
    #[must_use]
    pub fn bank(&self) -> &DetectorBank {
        &self.bank
    }

    /// Whether all detectors have finished training.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        self.bank.is_trained()
    }

    /// Feed one interval through detection and, on alarm, extraction —
    /// accepting the interval in whichever representation the caller
    /// holds (see [`IntervalInput`]); bit-identical across
    /// representations of the same flows. Records are transposed into
    /// columns first; a columnar interval (an assembled window) is
    /// scanned as it is.
    pub fn process<'a>(&mut self, input: impl Into<IntervalInput<'a>>) -> IntervalOutcome {
        match input.into() {
            IntervalInput::Records(flows) => self.process_columns(&FlowColumns::from_flows(flows)),
            IntervalInput::Columns(cols) => self.process_columns(cols),
        }
    }

    fn process_columns(&mut self, cols: &FlowColumns) -> IntervalOutcome {
        let observation = self.bank.observe_columns(cols);
        let extraction = if observation.alarm && !observation.metadata.is_empty() {
            let indices = prefilter_indices_voted(
                self.bank.voted_rows(),
                &observation.metadata,
                self.config.prefilter,
            );
            Some(mine_at_indices(
                observation.interval,
                cols,
                &indices,
                &observation.metadata,
                &self.config,
            ))
        } else {
            None
        };
        IntervalOutcome {
            observation,
            extraction,
        }
    }

    /// Apply a validated parameter change at this interval boundary: the
    /// requested overrides are merged into a candidate configuration,
    /// the candidate is validated as a whole, and only then does
    /// anything land — a rejected request leaves the engine untouched. A
    /// new α propagates into already-fitted thresholds (σ̂ estimates are
    /// kept).
    ///
    /// # Errors
    ///
    /// Returns the first constraint the requested configuration would
    /// violate.
    pub fn reconfigure(&mut self, req: &ReconfigRequest) -> Result<(), ConfigError> {
        let candidate = req.apply(&self.config);
        candidate.validate()?;
        self.config = candidate;
        if let Some(alpha) = req.alpha {
            self.bank.set_alpha(alpha);
        }
        Ok(())
    }

    /// Serialize the engine's complete mutable state into a checkpoint
    /// payload: the full configuration (so a restore is self-contained)
    /// followed by a shard-count field, always 1, that older payloads
    /// used, and the detector bank's temporal state. Structural state —
    /// hashers, bins, clone wiring — is *not* serialized; it is rebuilt
    /// deterministically from the configuration's seeds. [`restore`](Self::restore) rebuilds an
    /// engine that scores every subsequent interval bit-identically to
    /// this one.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.config.encode_snapshot(&mut w);
        w.usize(1);
        self.bank.encode_snapshot(&mut w);
        w.into_bytes()
    }

    /// Rebuild an engine from a [`snapshot`](Self::snapshot) payload. The
    /// shard count an older engine recorded (any count: the output never
    /// depended on it) is read and ignored.
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from a truncated or corrupt payload (a zero
    /// shard count included), or one whose configuration fails
    /// validation.
    pub fn restore(payload: &[u8]) -> Result<Self, RestoreError> {
        let mut r = SnapshotReader::new(payload);
        let config = ExtractionConfig::decode_snapshot(&mut r)?;
        if r.usize()? == 0 {
            return Err(RestoreError::Corrupt("zero shard count".into()));
        }
        let mut engine = Self::new(config)
            .map_err(|e| RestoreError::Corrupt(format!("invalid restored engine: {e}")))?;
        engine.bank.restore_snapshot(&mut r)?;
        r.finish()?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_detector::DetectorConfig;

    fn test_config(min_support: u64) -> ExtractionConfig {
        ExtractionConfig {
            interval_ms: 60_000,
            detector: DetectorConfig {
                training_intervals: 10,
                ..DetectorConfig::default()
            },
            min_support,
            ..ExtractionConfig::default()
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut c = test_config(100);
        c.min_support = 0;
        let err = Engine::new(c).unwrap_err();
        assert!(err.to_string().contains("support"), "{err}");
        assert!(Engine::new(test_config(100)).is_ok());
    }

    /// An engine payload whose detector configuration is `detector`,
    /// written by hand because no engine can be built from it: the
    /// configuration, one shard, and the state of a three-clone bank
    /// that has seen no interval.
    fn hostile_payload(detector: DetectorConfig) -> Vec<u8> {
        let config = ExtractionConfig {
            detector,
            ..test_config(500)
        };
        let mut w = SnapshotWriter::new();
        config.encode_snapshot(&mut w);
        w.usize(1);
        w.u64(0);
        w.usize(config.detector.features.len());
        for _ in &config.detector.features {
            w.usize(3);
            for _ in 0..3 {
                w.usize(0);
                w.bool(false);
                w.bool(false);
                w.bool(false);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_detector_sizes_it_cannot_allocate() {
        let huge_clones = DetectorConfig {
            clones: 1 << 40,
            ..test_config(500).detector
        };
        let huge_bins = DetectorConfig {
            bins: u32::MAX,
            ..test_config(500).detector
        };
        for detector in [huge_clones, huge_bins] {
            let payload = hostile_payload(detector);
            assert!(
                matches!(Engine::restore(&payload), Err(RestoreError::Corrupt(_))),
                "a hostile detector size must be a typed error"
            );
        }
    }

    #[test]
    fn reconfigure_is_atomic() {
        let mut engine = Engine::new(test_config(800)).unwrap();
        // Invalid support: rejected, nothing changes.
        let bad = ReconfigRequest {
            min_support: Some(0),
            alpha: Some(5.0),
            ..ReconfigRequest::default()
        };
        assert!(engine.reconfigure(&bad).is_err());
        assert_eq!(engine.config().min_support, 800);
        assert_eq!(engine.config().detector.alpha.to_bits(), 3.0f64.to_bits());
        // Valid request: everything lands.
        let good = ReconfigRequest {
            min_support: Some(400),
            alpha: Some(4.5),
            rules: Some(Some(RuleConfig::default())),
        };
        engine.reconfigure(&good).unwrap();
        assert_eq!(engine.config().min_support, 400);
        assert_eq!(engine.config().detector.alpha.to_bits(), 4.5f64.to_bits());
        assert!(engine.config().rules.is_some());
        // Clearing the rule layer via the nested option.
        let clear = ReconfigRequest {
            rules: Some(None),
            ..ReconfigRequest::default()
        };
        engine.reconfigure(&clear).unwrap();
        assert!(engine.config().rules.is_none());
        assert!(ReconfigRequest::default().is_empty());
    }
}
