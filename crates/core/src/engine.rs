//! The extraction engine: the one type the whole pipeline runs through.
//!
//! - **Offline:** build an [`ExtractRequest`] (flows + meta-data + every
//!   knob, each defaulting to the paper's setting) and call
//!   [`Engine::extract`].
//! - **Online:** construct with [`Engine::new`] (or
//!   [`Engine::sequential`]) and feed intervals through
//!   [`Engine::process`], which accepts either interval representation
//!   via [`IntervalInput`] — a record slice or an `Arc`-shared columnar
//!   store.
//! - **Durability:** [`Engine::snapshot`] serializes the complete
//!   mutable state (configuration + detector bank) into a checkpoint
//!   payload and [`Engine::restore`] rebuilds an engine that scores
//!   bit-identically from the next interval on.
//! - **Live reconfiguration:** [`Engine::reconfigure`] applies a
//!   [`ReconfigRequest`] — validated as a whole, applied atomically,
//!   rejected without side effects.
//!
//! # Sharding
//!
//! The two expensive per-interval structures are sums over flows:
//! detector histograms (integer bin counts) and miner support counts. An
//! engine with more than one shard exploits that by splitting each
//! interval into balanced contiguous index ranges
//! ([`anomex_netflow::shard`]) and fanning those passes across a
//! persistent [`WorkerPool`]:
//!
//! ```text
//!            interval flows  ────────┬──────────┬──────────┐
//!                                 shard 0    shard 1    shard K
//!  detect:                       partial₀   partial₁   partialₖ     (pool jobs)
//!                                    └──── merge in order ────┘
//!                                   DetectorBank::observe_partial    (scored once)
//!  pre-filter:                one column scan per meta-data feature  (inline)
//!  mine:                      transactions built from index slices;
//!                             support counting over chunks, merged;  (pool jobs)
//!                             join / tree / lattice search           (inline)
//! ```
//!
//! The pre-filter is under 1 % of every benchmark workload
//! (`core.prefilter.ns_per_flow`, `share.prefilter_gather`) — less than
//! the pool dispatches a sharded pass would cost — so it runs on the
//! calling thread at every shard count.
//!
//! **Determinism is the load-bearing design constraint**: every merge is
//! either an exact integer sum (histogram bins, support counts) or an
//! in-order concatenation (the histogram shards' raw keys, Eclat
//! tid-lists, rule blocks). All are independent of thread scheduling,
//! so the output is **bit-identical** for every shard count and all
//! three miners — asserted by the cross-shard determinism property
//! suite. At one shard there is no pool and no thread: every stage runs
//! inline ([`Exec::Inline`]), so the sequential pipeline *is* the
//! sharded pipeline at K = 1 and there is exactly one implementation to
//! keep correct.
//!
//! The pool's threads are spawned once (at construction, or for the
//! duration of one [`Engine::extract`] call) and serve every pass — the
//! detector's shard scatter-gather and the miners' counting passes share
//! one set of workers, so nothing oversubscribes the machine. Pool jobs
//! are `'static`, so per-interval state is shared by `Arc`: the
//! interval's columnar store and the detector's immutable hash
//! specification ([`BankHasher`]).
//!
//! **Columnar storage.** The engine holds each interval as a
//! [`FlowColumns`] struct-of-arrays store: every hot pass — histogram
//! partials, pre-filter verdicts, transaction gathering — walks only the
//! contiguous column(s) it reads, and the detector's shards are *index
//! ranges* over the columns. Record-slice input transposes once per
//! interval into a recycled columnar scratch buffer.

use std::num::NonZeroUsize;
use std::sync::Arc;

use anomex_detector::{BankHasher, BankObservation, DetectorBank, MetaData};
use anomex_mining::par::{map_ranges_arc, Exec, WorkerPool};
use anomex_mining::{MinerKind, RuleConfig};
use anomex_netflow::shard::{default_shards, MAX_SHARDS};
use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowRecord};

use crate::config::{ConfigError, ExtractionConfig};
use crate::pipeline::{mine_at_indices, Extraction, IntervalOutcome, TransactionMode};
use crate::prefilter::{
    prefilter_indices_columns, prefilter_indices_columns_range_with, PrefilterMode,
    PrefilterScratch,
};

/// One interval's flows, in whichever representation the caller already
/// holds. [`Engine::process`] accepts `impl Into<IntervalInput>`, so
/// record slices (plain, `Vec`- or `Arc<Vec>`-owned) and columnar stores
/// all feed the same entry point.
#[derive(Debug)]
pub enum IntervalInput<'a> {
    /// A borrowed record slice (transposed once into the engine's
    /// recycled columnar scratch).
    Records(&'a [FlowRecord]),
    /// An `Arc`-owned columnar store — the transpose-free path.
    Columns(&'a Arc<FlowColumns>),
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

impl<'a> From<&'a Arc<Vec<FlowRecord>>> for IntervalInput<'a> {
    fn from(flows: &'a Arc<Vec<FlowRecord>>) -> Self {
        IntervalInput::Records(flows)
    }
}

impl<'a> From<&'a Arc<FlowColumns>> for IntervalInput<'a> {
    fn from(cols: &'a Arc<FlowColumns>) -> Self {
        IntervalInput::Columns(cols)
    }
}

/// A complete offline extraction request: the flows, the meta-data that
/// drives pre-filtering, and every pipeline knob — built fluently, with
/// each knob defaulting to the paper's setting (union pre-filter,
/// canonical transactions, no rule layer, one shard) and the default
/// miner (FP-growth).
///
/// ```
/// use anomex_core::{Engine, ExtractRequest};
/// use anomex_detector::MetaData;
/// use anomex_netflow::FlowFeature;
///
/// let mut md = MetaData::new();
/// md.insert(FlowFeature::DstPort, 7000);
/// let flows = Vec::new();
/// let extraction = Engine::extract(&ExtractRequest::new(&flows, &md, 500));
/// assert_eq!(extraction.total_flows, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ExtractRequest<'a> {
    interval: u64,
    flows: &'a [FlowRecord],
    metadata: &'a MetaData,
    prefilter: PrefilterMode,
    transactions: TransactionMode,
    miner: MinerKind,
    min_support: u64,
    rules: Option<&'a RuleConfig>,
    shards: NonZeroUsize,
}

impl<'a> ExtractRequest<'a> {
    /// A request over `flows` with the given pre-filter `metadata` and
    /// absolute minimum support, everything else at the paper's
    /// defaults.
    #[must_use]
    pub fn new(flows: &'a [FlowRecord], metadata: &'a MetaData, min_support: u64) -> Self {
        ExtractRequest {
            interval: 0,
            flows,
            metadata,
            prefilter: PrefilterMode::Union,
            transactions: TransactionMode::Canonical,
            miner: MinerKind::default(),
            min_support,
            rules: None,
            shards: NonZeroUsize::MIN,
        }
    }

    /// Tag the extraction with an interval index (default 0).
    #[must_use]
    pub fn interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Pre-filter semantics (default: union, per the paper).
    #[must_use]
    pub fn prefilter(mut self, mode: PrefilterMode) -> Self {
        self.prefilter = mode;
        self
    }

    /// Transaction shape (default: canonical width-7).
    #[must_use]
    pub fn transactions(mut self, mode: TransactionMode) -> Self {
        self.transactions = mode;
        self
    }

    /// Mining algorithm (default: [`MinerKind::default`], FP-growth; all
    /// miners return bit-identical item-sets, and only
    /// [`MinerKind::Apriori`] fills [`Extraction::levels`]).
    #[must_use]
    pub fn miner(mut self, miner: MinerKind) -> Self {
        self.miner = miner;
        self
    }

    /// Enable the association-rule layer (default: item-sets only).
    #[must_use]
    pub fn rules(mut self, rules: &'a RuleConfig) -> Self {
        self.rules = Some(rules);
        self
    }

    /// Fan the extraction out over `shards` pool workers (default: 1 =
    /// inline; output is bit-identical for every count). Counts above
    /// [`MAX_SHARDS`] are clamped to it — [`Engine::extract`] has no
    /// error channel, and the output does not depend on the count.
    #[must_use]
    pub fn shards(mut self, shards: NonZeroUsize) -> Self {
        self.shards = shards.min(MAX_SHARDS);
        self
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
    /// New absolute minimum support `s` for the miner.
    pub min_support: Option<u64>,
    /// New detector threshold multiplier α. Applies to already-fitted
    /// thresholds too (σ̂ estimates are kept; only the multiplier
    /// moves).
    pub alpha: Option<f64>,
    /// Replace the association-rule layer: `Some(Some(config))` installs
    /// or retunes it, `Some(None)` removes it, `None` leaves it alone.
    pub rules: Option<Option<RuleConfig>>,
    /// New shard count (at most [`MAX_SHARDS`]): the persistent worker
    /// pool is rebuilt at the boundary. Output is unaffected — the
    /// pipeline is bit-identical for every shard count.
    pub shards: Option<NonZeroUsize>,
}

impl ReconfigRequest {
    /// Whether the request changes anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.min_support.is_none()
            && self.alpha.is_none()
            && self.rules.is_none()
            && self.shards.is_none()
    }
}

/// The worker pool for a shard count: `None` at one shard (inline).
fn spawn_pool(shards: NonZeroUsize) -> Option<WorkerPool> {
    (shards.get() > 1).then(|| WorkerPool::new(shards))
}

/// Reject a shard count the engine will not spawn threads for.
fn check_shards(shards: NonZeroUsize) -> Result<(), ConfigError> {
    if shards > MAX_SHARDS {
        return Err(ConfigError::new(format!(
            "shard count {shards} exceeds the maximum of {MAX_SHARDS}"
        )));
    }
    Ok(())
}

/// The execution context an optional pool stands for.
fn exec_of(pool: &Option<WorkerPool>) -> Exec<'_> {
    pool.as_ref().map_or(Exec::Inline, Exec::Pool)
}

/// Observe one columnar interval in the given execution context: workers
/// build [`BankHasher`] partials over *index ranges* of the store (each
/// feature's histogram fed by a single-column scan), the partials merge
/// in range order, and the bank scores the result once — bit-identical
/// KL values to a sequential record-based
/// [`DetectorBank::observe`], for every context.
fn observe_columns(
    bank: &mut DetectorBank,
    hasher: &Arc<BankHasher>,
    cols: &Arc<FlowColumns>,
    exec: Exec<'_>,
) -> BankObservation {
    let hasher = Arc::clone(hasher);
    let partials = map_ranges_arc(exec, cols, cols.len(), move |cols, range| {
        hasher.partial_columns(cols, range)
    });
    match partials.into_iter().reduce(|mut acc, p| {
        acc.merge(p);
        acc
    }) {
        Some(merged) => bank.observe_partial(merged),
        // Empty interval: nothing to shard, observe it directly.
        None => bank.observe(&[]),
    }
}

/// The anomaly-extraction engine: detector bank → voted meta-data →
/// pre-filter → item-set mining (paper Fig. 3), online and offline,
/// plus checkpointing and live reconfiguration.
///
/// Each interval is split into `shards` contiguous flow shards;
/// detection and the miners' counting passes fan out over a
/// **persistent worker pool** (spawned once at construction, fed jobs
/// every interval) and merge deterministically, so for any fixed input
/// the outcome stream is bit-identical regardless of shard count. See the
/// [module docs](self) for the execution model.
#[derive(Debug)]
pub struct Engine {
    config: ExtractionConfig,
    shards: NonZeroUsize,
    bank: DetectorBank,
    /// Immutable histogramming spec shared with pool workers each
    /// interval; the mutable scoring state stays in `bank`.
    hasher: Arc<BankHasher>,
    /// The long-lived worker pool; `None` at one shard (inline).
    pool: Option<WorkerPool>,
    /// Recycled columnar store backing the per-interval `Arc`: record
    /// input transposes into these columns, and after the interval's
    /// jobs finish the `Arc` is unique again and the allocations are
    /// reclaimed — one column-build pass per interval, no per-interval
    /// allocation churn.
    scratch: FlowColumns,
    /// Recycled pre-filter hit buffer, so steady-state pre-filtering
    /// does not re-allocate one byte per flow each alarmed interval.
    prefilter_scratch: PrefilterScratch,
}

impl Engine {
    /// Build the engine, rejecting an invalid configuration with an
    /// error. With more than one shard this spawns the persistent worker
    /// pool — `shards` long-lived threads that serve every subsequent
    /// interval.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint, or a shard
    /// count above [`MAX_SHARDS`].
    pub fn new(config: ExtractionConfig, shards: NonZeroUsize) -> Result<Self, ConfigError> {
        config.validate()?;
        check_shards(shards)?;
        let bank = DetectorBank::new(&config.detector);
        let hasher = Arc::new(bank.hasher());
        Ok(Engine {
            config,
            shards,
            bank,
            hasher,
            pool: spawn_pool(shards),
            scratch: FlowColumns::new(),
            prefilter_scratch: PrefilterScratch::default(),
        })
    }

    /// Build a sequential (single-shard, inline) engine.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn sequential(config: ExtractionConfig) -> Result<Self, ConfigError> {
        Self::new(config, NonZeroUsize::MIN)
    }

    /// Build with one shard per available hardware thread — the "as
    /// fast as the hardware allows" default.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn with_available_parallelism(config: ExtractionConfig) -> Result<Self, ConfigError> {
        Self::new(config, default_shards())
    }

    /// One-shot offline extraction: pre-filter the request's flows with
    /// its meta-data and mine maximal frequent item-sets, honouring every
    /// knob on the request. With more than one shard a [`WorkerPool`] is
    /// spawned for the duration of the call and drives the miner's
    /// support counting (and the rule fan-out); output is bit-identical
    /// for every shard count.
    ///
    /// # Panics
    ///
    /// Panics if `min_support` is zero or a pool worker panics.
    #[must_use]
    pub fn extract(req: &ExtractRequest<'_>) -> Extraction {
        let pool = spawn_pool(req.shards);
        // One conversion into the columnar store up front; every pass
        // below (pre-filter, transaction gather) walks contiguous
        // columns.
        let cols = FlowColumns::from_flows(req.flows);
        let indices = prefilter_indices_columns(&cols, req.metadata, req.prefilter);
        mine_at_indices(
            req.interval,
            &cols,
            &indices,
            req.metadata,
            req.transactions,
            req.miner,
            req.min_support,
            req.rules,
            exec_of(&pool),
        )
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

    /// The number of shards each interval is split into.
    #[must_use]
    pub fn shards(&self) -> NonZeroUsize {
        self.shards
    }

    /// Feed one interval through detection and, on alarm, extraction —
    /// accepting the interval in whichever representation the caller
    /// holds (see [`IntervalInput`]); bit-identical across
    /// representations of the same flows. Records transpose once into
    /// the engine's recycled columnar scratch store; a columnar interval
    /// (e.g. built straight from datagrams via
    /// [`decode_into_columns`](anomex_netflow::v5::decode_into_columns))
    /// skips the transpose.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn process<'a>(&mut self, input: impl Into<IntervalInput<'a>>) -> IntervalOutcome {
        match input.into() {
            IntervalInput::Records(flows) => {
                let mut cols = std::mem::take(&mut self.scratch);
                cols.clear();
                for flow in flows {
                    cols.push(flow);
                }
                let shared = Arc::new(cols);
                let outcome = self.process_columns(&shared);
                if let Ok(cols) = Arc::try_unwrap(shared) {
                    self.scratch = cols;
                }
                outcome
            }
            IntervalInput::Columns(cols) => self.process_columns(cols),
        }
    }

    fn process_columns(&mut self, cols: &Arc<FlowColumns>) -> IntervalOutcome {
        let exec = exec_of(&self.pool);
        let observation = observe_columns(&mut self.bank, &self.hasher, cols, exec);
        let extraction = if observation.alarm && !observation.metadata.is_empty() {
            let indices = prefilter_indices_columns_range_with(
                cols,
                0..cols.len(),
                &observation.metadata,
                self.config.prefilter,
                &mut self.prefilter_scratch,
            );
            Some(mine_at_indices(
                observation.interval,
                cols,
                &indices,
                &observation.metadata,
                self.config.transactions,
                self.config.miner,
                self.config.min_support,
                self.config.rules.as_ref(),
                exec,
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
    /// kept); a new shard count rebuilds the persistent worker pool.
    ///
    /// # Errors
    ///
    /// Returns the first constraint the requested configuration would
    /// violate, or a shard count above [`MAX_SHARDS`].
    pub fn reconfigure(&mut self, req: &ReconfigRequest) -> Result<(), ConfigError> {
        let mut candidate = self.config.clone();
        if let Some(s) = req.min_support {
            candidate.min_support = s;
        }
        if let Some(alpha) = req.alpha {
            candidate.detector.alpha = alpha;
        }
        if let Some(rules) = &req.rules {
            candidate.rules = *rules;
        }
        candidate.validate()?;
        if let Some(shards) = req.shards {
            check_shards(shards)?;
        }
        self.config = candidate;
        if let Some(alpha) = req.alpha {
            self.bank.set_alpha(alpha);
        }
        if let Some(shards) = req.shards {
            if shards != self.shards {
                self.shards = shards;
                self.pool = spawn_pool(shards);
            }
        }
        Ok(())
    }

    /// Serialize the engine's complete mutable state into a checkpoint
    /// payload: the full configuration (so a restore is self-contained)
    /// followed by the shard count and the detector bank's temporal
    /// state. Structural state — hashers, bins, clone wiring — is *not*
    /// serialized; it is rebuilt deterministically from the
    /// configuration's seeds. [`restore`](Self::restore) rebuilds an
    /// engine that scores every subsequent interval bit-identically to
    /// this one.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.config.encode_snapshot(&mut w);
        w.usize(self.shards.get());
        self.bank.encode_snapshot(&mut w);
        w.into_bytes()
    }

    /// Rebuild an engine from a [`snapshot`](Self::snapshot) payload.
    /// `shards` overrides the saved shard count (the output stream is
    /// shard-invariant, so a checkpoint taken at 8 shards restores
    /// correctly onto a 2-core box); `None` keeps the saved count.
    ///
    /// # Errors
    ///
    /// Any [`RestoreError`] from a truncated or corrupt payload, one
    /// whose configuration fails validation, or a shard count above
    /// [`MAX_SHARDS`].
    pub fn restore(payload: &[u8], shards: Option<NonZeroUsize>) -> Result<Self, RestoreError> {
        let mut r = SnapshotReader::new(payload);
        let config = ExtractionConfig::decode_snapshot(&mut r)?;
        let saved_shards = r.usize()?;
        let shards = match shards {
            Some(s) => s,
            None => NonZeroUsize::new(saved_shards)
                .ok_or_else(|| RestoreError::Corrupt("zero shard count".into()))?,
        };
        let mut engine = Self::new(config, shards)
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
    use anomex_netflow::FlowFeature;
    use anomex_traffic::{table2_workload, Scenario};

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

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
    fn offline_sharded_extraction_matches_sequential() {
        let w = table2_workload(7, 0.05);
        let mut md = MetaData::new();
        md.insert(FlowFeature::DstPort, 7000);
        md.insert(FlowFeature::DstPort, 80);
        let reference = Engine::extract(&ExtractRequest::new(&w.flows, &md, w.min_support));
        for shards in 1..=6 {
            let sharded = Engine::extract(
                &ExtractRequest::new(&w.flows, &md, w.min_support).shards(nz(shards)),
            );
            assert_eq!(sharded.itemsets, reference.itemsets, "shards={shards}");
            assert_eq!(sharded.levels, reference.levels, "shards={shards}");
            assert_eq!(sharded.suspicious_flows, reference.suspicious_flows);
            assert_eq!(
                sharded.cost_reduction.to_bits(),
                reference.cost_reduction.to_bits()
            );
        }
        let eclat = Engine::extract(
            &ExtractRequest::new(&w.flows, &md, w.min_support)
                .miner(MinerKind::Eclat)
                .shards(nz(3)),
        );
        assert_eq!(
            eclat.itemsets, reference.itemsets,
            "miners and shards agree"
        );
    }

    #[test]
    fn online_sharded_pipeline_matches_sequential_bit_for_bit() {
        let scenario = Scenario::small(11);
        let mut sequential = Engine::sequential(test_config(800)).unwrap();
        let mut sharded = Engine::new(test_config(800), nz(4)).unwrap();
        for i in 0..scenario.interval_count().min(24) {
            let interval = scenario.generate(i);
            let a = sequential.process(&interval.flows);
            let b = sharded.process(&interval.flows);
            assert_eq!(a.observation.alarm, b.observation.alarm, "interval {i}");
            assert_eq!(a.observation.metadata, b.observation.metadata);
            for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
                for (cx, cy) in x.clones.iter().zip(&y.clones) {
                    assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
                }
            }
            match (&a.extraction, &b.extraction) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.itemsets, y.itemsets, "interval {i}");
                    assert_eq!(x.levels, y.levels);
                    assert_eq!(x.suspicious_flows, y.suspicious_flows);
                    assert_eq!(x.cost_reduction.to_bits(), y.cost_reduction.to_bits());
                }
                _ => panic!("extraction presence diverged at interval {i}"),
            }
        }
    }

    #[test]
    fn available_parallelism_constructor_works() {
        let e = Engine::with_available_parallelism(test_config(500)).unwrap();
        assert!(e.shards().get() >= 1);
        assert!(!e.is_trained());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut c = test_config(100);
        c.min_support = 0;
        let err = Engine::new(c.clone(), nz(4)).unwrap_err();
        assert!(err.to_string().contains("support"), "{err}");
        assert!(Engine::sequential(c).is_err());
        assert!(Engine::sequential(test_config(100)).is_ok());
        // A shard count the OS may not be able to serve is rejected
        // before any thread is spawned.
        let err = Engine::new(test_config(100), nz(MAX_SHARDS.get() + 1)).unwrap_err();
        assert!(err.to_string().contains("shard count"), "{err}");
    }

    #[test]
    fn offline_shard_counts_above_the_bound_are_clamped() {
        let md = MetaData::new();
        let req = ExtractRequest::new(&[], &md, 1).shards(nz(usize::MAX));
        assert_eq!(req.shards, MAX_SHARDS);
    }

    #[test]
    fn process_accepts_every_interval_representation() {
        let scenario = Scenario::small(11);
        let mut by_slice = Engine::sequential(test_config(800)).unwrap();
        let mut by_arc = Engine::sequential(test_config(800)).unwrap();
        let mut by_columns = Engine::sequential(test_config(800)).unwrap();
        for i in 0..scenario.interval_count().min(14) {
            let interval = scenario.generate(i);
            let a = by_slice.process(interval.flows.as_slice());
            let shared = Arc::new(interval.flows.clone());
            let b = by_arc.process(&shared);
            let mut cols = FlowColumns::new();
            for flow in &interval.flows {
                cols.push(flow);
            }
            let cols = Arc::new(cols);
            let c = by_columns.process(&cols);
            assert_eq!(a.observation.alarm, b.observation.alarm, "interval {i}");
            assert_eq!(b.observation.alarm, c.observation.alarm, "interval {i}");
            assert_eq!(a.observation.metadata, b.observation.metadata);
            assert_eq!(b.observation.metadata, c.observation.metadata);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let scenario = Scenario::small(11);
        let mut live = Engine::new(test_config(800), nz(2)).unwrap();
        for i in 0..13 {
            let _ = live.process(scenario.generate(i).flows.as_slice());
        }
        let payload = live.snapshot();
        let mut restored = Engine::restore(&payload, Some(nz(1))).unwrap();
        assert_eq!(restored.is_trained(), live.is_trained());
        assert_eq!(restored.config().min_support, live.config().min_support);
        for i in 13..scenario.interval_count().min(22) {
            let flows = scenario.generate(i).flows;
            let a = live.process(flows.as_slice());
            let b = restored.process(flows.as_slice());
            assert_eq!(a.observation.alarm, b.observation.alarm, "interval {i}");
            assert_eq!(a.observation.metadata, b.observation.metadata);
            for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
                for (cx, cy) in x.clones.iter().zip(&y.clones) {
                    assert_eq!(cx.kl.map(f64::to_bits), cy.kl.map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Engine::restore(&[1, 2, 3], None).is_err());
        let mut live = Engine::sequential(test_config(500)).unwrap();
        let _ = live.process([].as_slice());
        let mut payload = live.snapshot();
        assert!(Engine::restore(&payload, Some(nz(MAX_SHARDS.get() + 1))).is_err());
        payload.truncate(payload.len() / 2);
        assert!(Engine::restore(&payload, None).is_err());
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
                matches!(
                    Engine::restore(&payload, None),
                    Err(RestoreError::Corrupt(_))
                ),
                "a hostile detector size must be a typed error"
            );
        }
    }

    #[test]
    fn reconfigure_is_atomic() {
        let mut engine = Engine::sequential(test_config(800)).unwrap();
        // Invalid support: rejected, nothing changes.
        let bad = ReconfigRequest {
            min_support: Some(0),
            alpha: Some(5.0),
            ..ReconfigRequest::default()
        };
        assert!(engine.reconfigure(&bad).is_err());
        assert_eq!(engine.config().min_support, 800);
        assert_eq!(engine.config().detector.alpha.to_bits(), 3.0f64.to_bits());
        // Oversized shard count: rejected before the valid fields land.
        let bad = ReconfigRequest {
            min_support: Some(400),
            shards: Some(nz(MAX_SHARDS.get() + 1)),
            ..ReconfigRequest::default()
        };
        assert!(engine.reconfigure(&bad).is_err());
        assert_eq!(engine.config().min_support, 800);
        assert_eq!(engine.shards().get(), 1);
        // Valid request: everything lands, including a pool rebuild.
        let good = ReconfigRequest {
            min_support: Some(400),
            alpha: Some(4.5),
            rules: Some(Some(RuleConfig::default())),
            shards: Some(nz(2)),
        };
        engine.reconfigure(&good).unwrap();
        assert_eq!(engine.config().min_support, 400);
        assert_eq!(engine.config().detector.alpha.to_bits(), 4.5f64.to_bits());
        assert!(engine.config().rules.is_some());
        assert_eq!(engine.shards().get(), 2);
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
