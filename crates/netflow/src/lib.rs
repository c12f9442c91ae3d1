//! # anomex-netflow — flow-record substrate
//!
//! The data layer of the [anomex](https://crates.io/crates/anomex) anomaly
//! extraction system (Brauckhoff et al., *Anomaly Extraction in Backbone
//! Networks Using Association Rules*, IMC 2009 / IEEE ToN 2012).
//!
//! Provides:
//!
//! - [`FlowRecord`] / [`Protocol`] / [`TcpFlags`] — unidirectional NetFlow
//!   v5-style flow records;
//! - [`FlowFeature`] / [`FeatureValue`] — the seven per-flow traffic
//!   features the paper histograms and mines, with a uniform `u64` value
//!   encoding;
//! - [`v5`] — a complete NetFlow v5 wire codec (header + 48-byte records,
//!   big-endian) with a sequence-tracking exporter and collector;
//! - [`v9`] — v9/IPFIX template-only punctuation packets decoded as
//!   exporter heartbeats for the multi-source watermark grid, and the
//!   capture reader ([`v9::TraceReader`]) that frames mixed captures
//!   packet by packet from any `Read`;
//! - [`FlowTrace`] / [`Interval`] — batch traces sliced into measurement
//!   intervals;
//! - [`IntervalAssembler`] — streaming interval assembly for online
//!   operation;
//! - [`SourceId`] / [`SourceSpec`] — exporter identity and per-exporter
//!   clock origins for multi-router ingestion;
//! - [`MergeAssembler`] — N exporters fanned in onto one shared interval
//!   grid with watermark close semantics and per-source drop accounting;
//! - [`Replay`] — captures replayed onto that grid in collector arrival
//!   order, in runs that end only where a window can close;
//! - [`FlowColumns`] — struct-of-arrays storage of a flow batch (one
//!   contiguous column per feature) for cache-friendly single-column
//!   scans;
//! - [`CaptureColumns`] — a stretch of a capture held at wire width
//!   (30 bytes a flow), which the assemblers take a row range of
//!   ([`CaptureRun`]) through [`FlowRun`], as they take record slices;
//! - [`snapshot`] — the versioned, checksummed checkpoint codec that
//!   durable operation is built on: atomic checkpoint files, bit-exact
//!   state round trips, and typed [`RestoreError`]s on hostile input.
//!
//! This crate has no opinion about detection or mining; it only defines
//! what a flow is and how flows are grouped in time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod columns;
pub mod error;
pub mod feature;
pub mod flow;
mod legacy;
pub mod merge;
pub mod replay;
pub mod snapshot;
pub mod source;
pub mod stream;
pub mod trace;
pub mod v5;
pub mod v9;

pub use capture::{CaptureColumns, CaptureRun};
pub use columns::{FlowColumns, FlowRun};
pub use error::{ConfigError, DecodeError, EncodeError, ReadError, ReplayError, ReplayErrorKind};
pub use feature::{FeatureValue, FlowFeature, ParseFeatureValueError};
pub use flow::{FlowRecord, Protocol, TcpFlags};
pub use merge::{MergeAssembler, MergeConfig, MergedInterval, SourceStats};
pub use replay::{Arrival, ReadStats, Replay};
pub use snapshot::{
    read_checkpoint, write_checkpoint, RestoreError, SnapshotReader, SnapshotWriter,
    CHECKPOINT_VERSION,
};
pub use source::{SourceId, SourceSpec};
pub use stream::{ClosedInterval, IntervalAssembler};
pub use trace::{FlowTrace, Interval, MINUTE_MS};
