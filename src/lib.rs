//! # anomex — Anomaly Extraction in Backbone Networks Using Association Rules
//!
//! A complete Rust implementation of Brauckhoff, Dimitropoulos, Wagner &
//! Salamatian, *Anomaly Extraction in Backbone Networks Using Association
//! Rules* (ACM IMC 2009; extended version IEEE/ACM Transactions on
//! Networking 20(6), 2012).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`netflow`] | flow records, the seven traffic features, NetFlow v5 codec, traces & interval streaming |
//! | [`detector`] | KL-distance histogram detectors, histogram cloning, iterative bin identification, l-of-n voting, ROC analysis |
//! | [`mining`] | width-7 flow transactions, FP-growth (the one miner extraction runs), the paper's modified Apriori (maximal item-sets and Table II's rounds, derived from FP-growth's frequent item-sets), association rules |
//! | [`traffic`] | synthetic backbone workloads with per-flow ground truth (the SWITCH-trace stand-in), and the evaluation harness that scores extractions against it |
//! | [`core`] | the extraction pipeline: union pre-filter + maximal frequent item-set summaries, streaming multi-source engine, checkpoints, reports |
//!
//! ## Quickstart
//!
//! ```
//! use anomex::prelude::*;
//!
//! // A workload with a planted flooding anomaly and exact ground truth.
//! let scenario = Scenario::small(7);
//!
//! // The paper's pipeline: 5 histogram detectors (k = 1024 bins,
//! // n = l = 3 clones), union pre-filter, maximal frequent item-sets
//! // (mined with FP-growth).
//! let mut config = ExtractionConfig::default();
//! config.interval_ms = scenario.interval_ms();
//! config.detector.training_intervals = 10;
//! config.min_support = 800;
//!
//! let mut pipeline = Engine::new(config).unwrap();
//! let mut found = false;
//! for i in 0..scenario.interval_count() {
//!     let interval = scenario.generate(i);
//!     if let Some(extraction) = pipeline.process(&interval.flows).extraction {
//!         // A handful of item-sets summarize the anomalous flows.
//!         found |= extraction
//!             .itemsets
//!             .iter()
//!             .any(|set| set.to_string().contains("dstPort=7000"));
//!     }
//! }
//! assert!(found, "the planted flood was extracted");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use anomex_core as core;
pub use anomex_detector as detector;
pub use anomex_mining as mining;
pub use anomex_netflow as netflow;
pub use anomex_traffic as traffic;

/// The commonly-used types in one import.
pub mod prelude {
    pub use anomex_core::{
        classify_itemset, render_report, AnomalyClass, Engine, Extraction, ExtractionConfig,
        IntervalInput, MultiSourceExtractor, MultiStreamEvent, MultiStreamSummary, PrefilterMode,
        ReconfigRequest, StreamEvent,
    };
    pub use anomex_detector::{DetectorBank, DetectorConfig, MetaData, RocCurve};
    pub use anomex_mining::{ItemSet, Transaction, TransactionSet};
    pub use anomex_netflow::{
        FlowFeature, FlowRecord, FlowTrace, IntervalAssembler, MergeAssembler, MergeConfig,
        Protocol, SourceId, SourceSpec, TcpFlags,
    };
    pub use anomex_traffic::{run_scenario, table2_workload, EventSpec, Scenario};
}
