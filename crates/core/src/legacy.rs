//! What only the frozen benchmark replica calls, in the call shapes it
//! imports: `StreamingExtractor` (re-exported hidden at the crate root
//! and in `streaming`), `Engine::sequential`,
//! `MultiSourceExtractor::try_new` and the record `merge_source_rules`.
//! Thin adapters over the main path, deleted with `tests/legacy.rs` in
//! ROADMAP item 12(b). Still pinned in the main modules, for other
//! users: `Engine::process` on records (ROADMAP item 16).

use std::num::NonZeroUsize;

use anomex_netflow::{FlowColumns, FlowRecord, SourceId, SourceSpec};

use crate::config::{ConfigError, ExtractionConfig};
use crate::engine::Engine;
use crate::streaming::{MultiSourceExtractor, MultiStreamEvent, MultiStreamSummary, StreamEvent};

impl Engine {
    /// [`Engine::new`].
    #[doc(hidden)]
    pub fn sequential(config: ExtractionConfig) -> Result<Self, ConfigError> {
        Self::new(config)
    }
}

impl MultiSourceExtractor {
    /// [`MultiSourceExtractor::new`] whose events fill
    /// [`MultiStreamEvent::flow_data`]; `_shards` selects nothing.
    #[doc(hidden)]
    pub fn try_new(
        config: ExtractionConfig,
        _shards: NonZeroUsize,
        sources: &[SourceSpec],
        max_lag_intervals: Option<u64>,
    ) -> Result<Self, ConfigError> {
        let mut stream = Self::new(config, sources, max_lag_intervals)?;
        stream.flow_data = true;
        Ok(stream)
    }
}

/// [`source_rules`](crate::source_rules) on records, transposed and
/// pre-filtered under `metadata` first.
#[must_use]
pub fn merge_source_rules(
    flows: &[FlowRecord],
    source_flows: &[usize],
    metadata: &anomex_detector::MetaData,
    config: &ExtractionConfig,
) -> Option<anomex_mining::RuleSet> {
    let cols = FlowColumns::from_flows(flows);
    let rows = crate::prefilter_indices_columns(&cols, metadata, config.prefilter);
    crate::source_rules(&cols, source_flows, &rows, config)
}

/// A [`MultiSourceExtractor`] over one exporter (source `0`, no
/// lateness bound) that speaks plain [`StreamEvent`]s. Its checkpoint
/// payload is the one-lane grid's, so [`MultiSourceExtractor::restore`]
/// resumes it. Every method re-raises a panic from the pipeline thread.
#[derive(Debug)]
pub struct StreamingExtractor(MultiSourceExtractor);

impl StreamingExtractor {
    /// A one-exporter stream with windows `[origin_ms + i*Δ, origin_ms +
    /// (i+1)*Δ)`; `_shards` selects nothing.
    pub fn try_new(
        config: ExtractionConfig,
        _shards: NonZeroUsize,
        origin_ms: u64,
    ) -> Result<Self, ConfigError> {
        let source = [SourceSpec::new(0u32, origin_ms)];
        MultiSourceExtractor::new(config, &source, None).map(StreamingExtractor)
    }

    /// [`MultiSourceExtractor::push`] for the one source.
    pub fn push(&mut self, flow: FlowRecord) -> Vec<StreamEvent> {
        plain(self.0.push(SourceId(0), flow))
    }

    /// [`MultiSourceExtractor::checkpoint`].
    pub fn checkpoint(&mut self) -> (Vec<StreamEvent>, Vec<u8>) {
        let (events, payload) = self.0.checkpoint();
        (plain(events), payload)
    }

    /// [`MultiSourceExtractor::finish`].
    #[must_use]
    pub fn finish(self) -> (Vec<StreamEvent>, MultiStreamSummary) {
        let (events, summary) = self.0.finish();
        (plain(events), summary)
    }
}

fn plain(events: Vec<MultiStreamEvent>) -> Vec<StreamEvent> {
    events.into_iter().map(|e| e.event).collect()
}
