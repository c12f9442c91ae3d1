//! # anomex-core — the anomaly-extraction pipeline
//!
//! The primary contribution of Brauckhoff, Dimitropoulos, Wagner &
//! Salamatian, *Anomaly Extraction in Backbone Networks Using Association
//! Rules* (ACM IMC 2009; extended in IEEE/ACM ToN 20(6), 2012), as a Rust
//! library.
//!
//! **Problem.** During an interval with an anomaly alarm, find — and
//! summarize — the flows associated with the event that caused it.
//!
//! **Method** (Fig. 3 of the paper):
//! 1. histogram-based detectors with cloning + voting produce *meta-data*:
//!    suspicious feature values ([`anomex_detector`]);
//! 2. the **union** of the meta-data pre-filters the interval's flows into
//!    a suspicious subset ([`mod@prefilter`]);
//! 3. **maximal frequent item-set mining** (FP-growth,
//!    [`anomex_mining::mine`]) over the suspicious flows yields a handful
//!    of item-sets that pinpoint the anomaly.
//!
//! Entry points:
//! - [`Engine`] — the one engine type, built from one
//!   [`ExtractionConfig`]: online operation via [`Engine::process`] over
//!   either [`IntervalInput`] representation (feed intervals, get
//!   [`Extraction`]s), offline extraction under meta-data from elsewhere
//!   via [`Engine::extract`] (the same tail, under the same
//!   configuration), each interval on the calling thread — plus
//!   checkpointing ([`Engine::snapshot`] /
//!   [`Engine::restore`]) and live reconfiguration
//!   ([`Engine::reconfigure`] with a [`ReconfigRequest`]);
//! - [`MultiSourceExtractor`] — the one continuous engine: N ≥ 1
//!   exporters push flows, per-source assemblers with independent clock
//!   origins merge onto one watermark-closed interval grid (the paper's
//!   multi-router SWITCH setting), and a [`MultiStreamEvent`] comes back
//!   per closed Δ-interval, with interval `t+1` assembling while
//!   interval `t` extracts (double buffering) — bit-identical to
//!   extracting the per-interval concatenation of all sources' flows.
//!   Durable operation ([`MultiSourceExtractor::save`] /
//!   [`MultiSourceExtractor::load`] resume the stream bit-identically
//!   after a crash) and boundary-aligned live reconfiguration come with
//!   it;
//! - [`report`] — Table II-style rendering (Apriori's level audit trail,
//!   for Table II, via [`render_level_stats`]);
//! - [`source_rules`] — the association-rule layer merged across
//!   sources (a fan-in's [`MultiStreamEvent::source_rules`]): rules
//!   filtered by confidence/lift and ranked by a meta-detection z-score
//!   pass (see [`anomex_mining::rules`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classify;
pub mod config;
pub mod cost;
pub mod engine;
mod legacy;
pub mod pipeline;
pub mod prefilter;
pub mod report;
pub mod streaming;

pub use classify::{classify_itemset, AnomalyClass};
pub use config::{ConfigError, ExtractionConfig};
pub use cost::cost_reduction;
pub use engine::{Engine, IntervalInput, ReconfigRequest};
#[doc(hidden)]
pub use legacy::*;
pub use pipeline::{source_rules, Extraction, IntervalOutcome, TransactionMode};
pub use prefilter::{prefilter_indices_columns, prefilter_indices_voted, PrefilterMode};
pub use report::{render_level_stats, render_report, render_report_with_levels, render_rule_merge};
pub use streaming::{
    latency_percentile, MultiSourceExtractor, MultiStreamEvent, MultiStreamSummary, StreamEvent,
};
