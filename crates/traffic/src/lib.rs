//! # anomex-traffic — synthetic backbone workloads with exact ground truth
//!
//! The workload substrate of the
//! [anomex](https://crates.io/crates/anomex) anomaly-extraction system
//! (Brauckhoff et al., IMC 2009 / IEEE ToN 2012).
//!
//! The paper evaluates on two weeks of proprietary SWITCH/AS559 NetFlow;
//! this crate synthesizes the closest open equivalent:
//!
//! - [`background`] — Zipf-popular endpoints/services, Pareto flow sizes,
//!   diurnal cycle, configurable heavy hitters (the paper's proxies
//!   A/B/C);
//! - [`inject`] — one injector per Table IV anomaly class: Flooding,
//!   Backscatter, Network Experiment, DDoS, Scanning, Spam, Unknown;
//! - [`scenario`] — [`Scenario::two_weeks`] plants 36 events in 31
//!   anomalous intervals over two weeks of 15-minute windows, streaming
//!   and fully deterministic;
//! - [`table2`] — the §II-B worked example (port-7000 flood + injected
//!   popular ports) at any scale;
//! - [`multi`] — multi-exporter scenarios: the same grid observed over
//!   several links with per-link rate, clock skew, and anomaly exposure
//!   (the paper's multi-router collection setting);
//! - [`labeled`] — per-flow ground-truth labels, exact by construction;
//! - [`rng`] — the seeded generator every workload draws from; the
//!   goldens pin its stream;
//! - [`eval`] — the §III evaluation harness: [`run_scenario`] runs a
//!   scenario through `anomex_core`'s engine and judges what it mined
//!   against the labels (Figs. 6, 9, 10 and Table IV).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anomaly;
pub mod background;
pub mod dist;
pub mod eval;
pub mod inject;
pub mod labeled;
pub mod multi;
pub mod rng;
pub mod scenario;
pub mod table2;

pub use anomaly::{AnomalyClass, EventId, EventParams, EventSpec};
pub use background::{BackgroundConfig, BackgroundModel, HeavyHitter};
pub use dist::{BoundedPareto, Zipf};
pub use eval::{
    evaluate_itemsets, run_scenario, EvaluatedItemSet, IntervalRecord, ScenarioRun,
    SupportSweepPoint, Table4Row,
};
pub use labeled::LabeledInterval;
pub use multi::{LinkConfig, MultiSourceScenario};
pub use scenario::{
    Scenario, ScenarioConfig, FIFTEEN_MIN_MS, INTERVALS_PER_DAY, TWO_WEEKS_INTERVALS,
};
pub use table2::{table2_workload, Table2Workload};
