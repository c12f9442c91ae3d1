//! # anomex-detector — histogram-based anomaly detection
//!
//! The detection substrate of the
//! [anomex](https://crates.io/crates/anomex) anomaly-extraction system
//! (Brauckhoff et al., IMC 2009 / IEEE ToN 2012), §II-C–§II-D of the paper:
//!
//! - [`kl`] — Kullback–Leibler distance between per-interval flow-count
//!   histograms;
//! - [`threshold`] — MAD-robust σ̂ estimation and the one-sided
//!   `α·σ̂` alarm test on the first difference of the KL series;
//! - [`hash`] / [`histogram`] — histogram *cloning*: per-clone seeded hash
//!   binning into counts-only histograms. Flows enter histograms straight
//!   from the interval's columns ([`DetectorBank::observe_columns`]), and
//!   an alarmed clone resolves its anomalous bins to values from the same
//!   column ([`FeatureHistogram::resolve`]);
//! - [`binid`] — the iterative anomalous-bin identification that simulates
//!   flow removal until the alarm clears (Fig. 5);
//! - [`mod@vote`] — l-of-n voting across clones;
//! - [`detector`] / [`bank`] — per-feature detectors and the five-feature
//!   detector bank producing consolidated [`MetaData`];
//! - [`roc`] — ROC curve analysis for the threshold sweep (Fig. 6);
//! - [`entropy`] — a sample-entropy detector (Table I's alternative
//!   detector family) producing the same [`MetaData`] interface.
//!
//! The output of this crate — [`MetaData`] — is what the extraction
//! pipeline (`anomex-core`) uses to pre-filter suspicious flows before
//! frequent item-set mining.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bank;
pub mod binid;
pub mod clone;
pub mod detector;
pub mod entropy;
pub mod hash;
pub mod histogram;
pub mod kl;
mod legacy;
pub mod metadata;
pub mod roc;
pub mod threshold;
pub mod vote;

pub use bank::{BankObservation, DetectorBank, DetectorConfig, VotedRows, MAX_BINS, MAX_CLONES};
pub use binid::{identify_anomalous_bins, BinIdentification};
pub use clone::{CloneObservation, ClonePhase, HistogramClone};
pub use detector::{FeatureDetector, FeatureObservation};
pub use entropy::{shannon_entropy, EntropyDetector, EntropyObservation};
pub use hash::{derive_hashers, BinHasher};
pub use histogram::FeatureHistogram;
pub use kl::kl_distance;
#[doc(hidden)]
pub use legacy::*;
pub use metadata::MetaData;
pub use roc::{RocCurve, RocPoint};
pub use threshold::{median, robust_sigma, FirstDiffThreshold, MAD_TO_SIGMA, SIGMA_FLOOR};
pub use vote::vote;
