//! Deterministic parallel map over transaction chunks.
//!
//! Every support-counting pass in this crate — Apriori's level-1 and
//! level-k counts, FP-growth's first scan, Eclat's tid-list construction
//! — is a sum over transactions, so it can run as: split the input into
//! balanced contiguous index ranges
//! ([`anomex_netflow::shard::chunk_ranges`]), map each range as a job on
//! the engine's worker pool, and reduce the per-range results **in range
//! order** on the calling thread. Integer-count reductions are
//! order-independent and exact, and ordered reductions (tid-list
//! concatenation) see ranges in input order, so the parallel passes are
//! bit-identical to the inline ones for every pool width — the engine's
//! load-bearing determinism guarantee.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;

use anomex_netflow::shard::chunk_ranges;
use crossbeam::WorkerPool;

pub use crossbeam::{TreeJob, TreeScope};

/// Minimum number of items per worker before a parallel pass is worth its
/// job dispatches: below this, counting a chunk is faster than handing it
/// to another thread, so the pass runs inline.
pub const MIN_ITEMS_PER_THREAD: usize = 1024;

/// Where a deterministic parallel pass runs its chunks.
///
/// The two variants produce **bit-identical results** — every merge in
/// the engine is an exact integer sum, a set union, or an in-order
/// concatenation — and differ only in execution cost:
///
/// - [`Exec::Inline`] runs everything on the calling thread;
/// - [`Exec::Pool`] submits the chunks as jobs to a persistent
///   [`WorkerPool`], whose threads are spawned once and serve every pass
///   of every interval.
#[derive(Debug, Clone, Copy)]
pub enum Exec<'p> {
    /// Everything on the calling thread.
    Inline,
    /// Jobs on a long-lived worker pool.
    Pool(&'p WorkerPool),
}

impl Exec<'_> {
    /// Run everything inline on the calling thread.
    #[must_use]
    pub fn inline() -> Exec<'static> {
        Exec::Inline
    }

    /// The parallelism this context offers.
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            Exec::Inline => 1,
            Exec::Pool(pool) => pool.threads(),
        }
    }
}

/// Map balanced contiguous chunks of shared (`Arc`-owned) `items` in the
/// given execution context, returning the per-chunk results **in chunk
/// order**.
///
/// The mapper receives each chunk's starting index in `items` plus the
/// chunk itself, so chunk-relative positions can be rebased to global
/// ones (Eclat's transaction ids). A slice-shaped view of
/// [`map_ranges_arc`], which owns the splitting rule.
///
/// # Panics
///
/// Propagates a panic from the mapper on the calling thread.
pub fn map_chunks_arc<T, R, F>(exec: Exec<'_>, items: &Arc<Vec<T>>, map: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &[T]) -> R + Send + Sync + 'static,
{
    map_ranges_arc(exec, items, items.len(), move |items, range| {
        map(range.start, &items[range])
    })
}

/// Map balanced contiguous **index ranges** of a shared container in the
/// given execution context, returning the per-range results **in range
/// order** — the one place the engine decides whether and how a flat
/// pass splits.
///
/// This is how columnar stores
/// ([`anomex_netflow::FlowColumns`](anomex_netflow::columns::FlowColumns))
/// and transaction vectors alike ride the engine's parallel passes: the
/// container is shared behind an `Arc`, each worker receives
/// `(&container, range)` and walks only what it needs over its rows.
/// The pass runs inline as the single range `0..len` when the context
/// width is 1 or `len < 2 ×` [`MIN_ITEMS_PER_THREAD`]; otherwise the
/// ranges are [`chunk_ranges`]`(len, workers)` with
/// `workers = width.min(len / MIN_ITEMS_PER_THREAD).max(2)`, each
/// submitted as one pool job. The mapper must be `'static` because pool
/// jobs are owned by threads that outlive the call — capture `Arc`
/// handles, not references.
///
/// # Panics
///
/// Propagates a panic from the mapper on the calling thread.
pub fn map_ranges_arc<C, R, F>(exec: Exec<'_>, data: &Arc<C>, len: usize, map: F) -> Vec<R>
where
    C: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&C, Range<usize>) -> R + Send + Sync + 'static,
{
    if len == 0 {
        return Vec::new();
    }
    let pool = match exec {
        Exec::Pool(pool) if pool.threads() > 1 && len >= 2 * MIN_ITEMS_PER_THREAD => pool,
        _ => return vec![map(data, 0..len)],
    };
    let workers = pool.threads().min(len / MIN_ITEMS_PER_THREAD).max(2);
    let workers = NonZeroUsize::new(workers).expect("workers >= 2");
    let map = Arc::new(map);
    let jobs: Vec<Box<dyn FnOnce() -> R + Send>> = chunk_ranges(len, workers)
        .into_iter()
        .map(|range| {
            let data = Arc::clone(data);
            let map = Arc::clone(&map);
            Box::new(move || map(&data, range)) as Box<_>
        })
        .collect();
    pool.run_ordered(jobs)
}

/// Run a fork/join tree of mining tasks in the given execution context,
/// returning every task's result **in spawn order** (pre-order over the
/// task tree).
///
/// Under [`Exec::Pool`] with more than one worker the tree runs as pool
/// tasks ([`WorkerPool::run_tree`]): jobs fork children onto the shared
/// deque, forks never block, and results merge by spawn path — so the
/// recursive search phases (Apriori's level-k join+prune blocks,
/// FP-growth's conditional trees, Eclat's prefix branches) share the
/// engine's one pool with the flat counting passes, without
/// oversubscription. In every other context the tree executes
/// sequentially on the calling thread ([`crossbeam::run_tree_inline`])
/// with the same result contract, so the output is **bit-identical**
/// across all contexts; only the wall-clock differs. Jobs read
/// [`TreeScope::width`] to decide whether forking is worth a queue
/// operation (1 under sequential execution — don't fork).
///
/// # Panics
///
/// Propagates a panic from a tree job on the calling thread; pool
/// workers survive it.
#[must_use]
pub fn run_tree_exec<R: Send + 'static>(exec: Exec<'_>, roots: Vec<TreeJob<R>>) -> Vec<R> {
    match exec {
        Exec::Pool(pool) if pool.threads() > 1 => pool.run_tree(roots),
        _ => crossbeam::run_tree_inline(roots),
    }
}

/// Per-task dispatch overhead assumed when a pool has not measured its
/// own ([`WorkerPool::calibrate_dispatch_overhead`]): a queue push, a
/// wakeup, and the tree bookkeeping, as recorded on the development
/// container. Chosen so that on an idle executor the fork cut-offs
/// reproduce the fixed PR 5 thresholds (64 join sets, 64
/// conditional-tree nodes, 1024 tids) that the determinism suites were
/// tuned against.
pub const DEFAULT_DISPATCH_OVERHEAD_NS: u64 = 20_000;

/// What a prospective fork would spend its time on — the unit-cost table
/// of the fork cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Apriori level-k candidate join: units are frequent sets in the
    /// current level (each joined against its prefix group and pruned).
    JoinSets,
    /// FP-growth conditional mining: units are arena nodes of the
    /// (conditional) tree to walk.
    TreeNodes,
    /// Eclat lattice branch: units are transaction ids in the branch's
    /// tid-list (each intersected per extension).
    TidEntries,
}

impl WorkKind {
    /// Estimated nanoseconds of mining work per unit. Calibrated against
    /// the PR 5 thresholds: ~overhead/64 for set- and node-walk work,
    /// ~overhead/1024 for tid intersections.
    #[must_use]
    pub const fn unit_ns(self) -> u64 {
        match self {
            WorkKind::JoinSets | WorkKind::TreeNodes => 313,
            WorkKind::TidEntries => 20,
        }
    }
}

/// The shared fork cost model: fork only when the estimated work of the
/// subtask is worth at least K× the per-task dispatch overhead, with K
/// doubling for every task already sitting in the forking worker's own
/// deque (capped at 2⁶) — a saturated pool stops fine-graining, an idle
/// one forks eagerly.
///
/// The **decision** is adaptive (it reads live queue depth), but the
/// **result** is not: `run_tree` merges by spawn path, Apriori sorts
/// each level after counting, and FP-growth/Eclat sort their flattened
/// output — so any fork granularity yields bit-identical mining output.
/// That invariance is what makes a live-load-adaptive policy safe under
/// the exec-equivalence suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkPolicy {
    overhead_ns: u64,
}

impl Default for ForkPolicy {
    /// The recorded-constant policy ([`DEFAULT_DISPATCH_OVERHEAD_NS`]).
    fn default() -> Self {
        ForkPolicy {
            overhead_ns: DEFAULT_DISPATCH_OVERHEAD_NS,
        }
    }
}

impl ForkPolicy {
    /// A policy with an explicit per-task overhead (nanoseconds).
    #[must_use]
    pub const fn with_overhead_ns(overhead_ns: u64) -> Self {
        ForkPolicy { overhead_ns }
    }

    /// The policy for an execution context: a pool's own calibrated
    /// dispatch overhead when it has one, the recorded constant
    /// otherwise (uncalibrated pools, inline).
    #[must_use]
    pub fn for_exec(exec: &Exec<'_>) -> Self {
        match exec {
            Exec::Pool(pool) => {
                let measured = pool.dispatch_overhead_ns();
                if measured > 0 {
                    ForkPolicy {
                        overhead_ns: measured,
                    }
                } else {
                    ForkPolicy::default()
                }
            }
            Exec::Inline => ForkPolicy::default(),
        }
    }

    /// The per-task dispatch overhead this policy amortizes against.
    #[must_use]
    pub const fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// The core decision at an explicit width and live queue depth:
    /// `units × unit_ns ≥ overhead × 2^min(depth, 6)`, and never fork at
    /// width 1.
    #[must_use]
    pub fn should_fork_at(
        &self,
        width: usize,
        queue_depth: usize,
        units: usize,
        kind: WorkKind,
    ) -> bool {
        if width <= 1 {
            return false;
        }
        let work = (units as u64).saturating_mul(kind.unit_ns());
        let k = 1u64 << queue_depth.min(6);
        work >= self.overhead_ns.saturating_mul(k)
    }

    /// The decision from inside a tree task, reading width and live
    /// local-deque depth from its scope.
    #[must_use]
    pub fn should_fork<R: Send + 'static>(
        &self,
        scope: &TreeScope<'_, R>,
        units: usize,
        kind: WorkKind,
    ) -> bool {
        scope.width() > 1 && self.should_fork_at(scope.width(), scope.queue_depth(), units, kind)
    }
}

/// Sum per-chunk `u64` count vectors element-wise into the first one —
/// the reduce step for index-aligned support counting. Returns an empty
/// vector if there are no parts.
#[must_use]
pub fn sum_count_vecs(parts: Vec<Vec<u64>>) -> Vec<u64> {
    let mut parts = parts.into_iter();
    let Some(mut total) = parts.next() else {
        return Vec::new();
    };
    for part in parts {
        debug_assert_eq!(total.len(), part.len());
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn arc_chunk_sums_match_sequential_for_every_context() {
        let data: Arc<Vec<u64>> = Arc::new((0..50_000).map(|i| i % 97).collect());
        let expected: u64 = data.iter().sum();
        let pools: Vec<WorkerPool> = (1..=8).map(|n| WorkerPool::new(nz(n))).collect();
        let execs = std::iter::once(Exec::inline()).chain(pools.iter().map(Exec::Pool));
        for exec in execs {
            let total: u64 = map_chunks_arc(exec, &data, |_, chunk| chunk.iter().sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, expected, "{exec:?}");
        }
    }

    #[test]
    fn empty_input_yields_no_parts() {
        let data: Arc<Vec<u64>> = Arc::new(Vec::new());
        let pool = WorkerPool::new(nz(4));
        for exec in [Exec::inline(), Exec::Pool(&pool)] {
            assert!(map_chunks_arc(exec, &data, |_, _| 0u64).is_empty());
        }
    }

    #[test]
    fn arc_chunks_arrive_in_order_on_the_pool() {
        let data: Arc<Vec<u64>> = Arc::new((0..10_000).collect());
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(nz(threads));
            let parts = map_chunks_arc(Exec::Pool(&pool), &data, |start, chunk| {
                (start, chunk.len())
            });
            let mut next = 0;
            for (start, len) in parts {
                assert_eq!(start, next, "threads={threads}");
                next = start + len;
            }
            assert_eq!(next, data.len());
        }
    }

    #[test]
    fn arc_small_inputs_run_inline_without_touching_the_pool() {
        let data: Arc<Vec<u64>> = Arc::new((0..100).collect());
        let pool = WorkerPool::new(nz(4));
        let parts = map_chunks_arc(Exec::Pool(&pool), &data, |start, chunk| {
            (start, chunk.len())
        });
        assert_eq!(parts, vec![(0, 100)]);
        assert_eq!(Arc::strong_count(&data), 1, "no job kept a handle");
    }

    #[test]
    fn range_walks_split_exactly_at_chunk_range_boundaries() {
        // The dedup-chunking contract: a columnar range walk and a record
        // chunk walk of the same length shard at identical `chunk_ranges`
        // boundaries (the chunk walk is a slice view of the range walk).
        let len = 10_000usize;
        let data: Arc<Vec<u64>> = Arc::new((0..len as u64).collect());
        for threads in [2usize, 3, 16] {
            let pool = WorkerPool::new(nz(threads));
            let exec = Exec::Pool(&pool);
            let seen: Vec<Range<usize>> = map_ranges_arc(exec, &data, len, |_, range| range);
            let workers = threads.min(len / MIN_ITEMS_PER_THREAD).max(2);
            let expected = chunk_ranges(len, nz(workers));
            assert_eq!(seen, expected, "{exec:?}");
            let chunks = map_chunks_arc(exec, &data, |start, chunk| start..start + chunk.len());
            assert_eq!(seen, chunks, "record chunks split identically ({exec:?})");
        }
    }

    #[test]
    fn range_walk_sums_match_chunk_sums_for_every_context() {
        let data: Arc<Vec<u64>> = Arc::new((0..30_000).map(|i| i % 89).collect());
        let expected: u64 = data.iter().sum();
        let (pool, wide) = (WorkerPool::new(nz(4)), WorkerPool::new(nz(7)));
        for exec in [Exec::inline(), Exec::Pool(&pool), Exec::Pool(&wide)] {
            let total: u64 = map_ranges_arc(exec, &data, data.len(), |d, range| {
                d[range].iter().sum::<u64>()
            })
            .into_iter()
            .sum();
            assert_eq!(total, expected, "{exec:?}");
        }
    }

    #[test]
    fn range_walk_small_inputs_run_inline() {
        let data: Arc<Vec<u64>> = Arc::new((0..100).collect());
        let pool = WorkerPool::new(nz(4));
        let parts = map_ranges_arc(Exec::Pool(&pool), &data, data.len(), |_, range| range);
        assert_eq!(parts, vec![0..100]);
        assert_eq!(Arc::strong_count(&data), 1, "no job kept a handle");
        assert!(map_ranges_arc(Exec::inline(), &data, 0, |_, r| r).is_empty());
    }

    #[test]
    fn sum_count_vecs_adds_elementwise() {
        let parts = vec![vec![1u64, 2, 3], vec![10, 20, 30], vec![100, 200, 300]];
        assert_eq!(sum_count_vecs(parts), vec![111, 222, 333]);
        assert!(sum_count_vecs(Vec::new()).is_empty());
    }

    #[test]
    fn default_policy_reproduces_the_recorded_thresholds_when_idle() {
        let policy = ForkPolicy::default();
        // The PR 5 fixed cut-offs, on an idle (depth-0) multi-worker
        // executor: 64 sets / 64 nodes / ~1024 tids.
        assert!(policy.should_fork_at(4, 0, 64, WorkKind::JoinSets));
        assert!(!policy.should_fork_at(4, 0, 63, WorkKind::JoinSets));
        assert!(policy.should_fork_at(4, 0, 64, WorkKind::TreeNodes));
        assert!(policy.should_fork_at(4, 0, 1024, WorkKind::TidEntries));
        assert!(!policy.should_fork_at(4, 0, 512, WorkKind::TidEntries));
    }

    #[test]
    fn policy_never_forks_at_width_one() {
        let policy = ForkPolicy::default();
        assert!(!policy.should_fork_at(1, 0, usize::MAX, WorkKind::JoinSets));
    }

    #[test]
    fn queue_depth_doubles_the_required_work() {
        let policy = ForkPolicy::default();
        assert!(policy.should_fork_at(4, 0, 64, WorkKind::JoinSets));
        assert!(!policy.should_fork_at(4, 1, 64, WorkKind::JoinSets));
        assert!(policy.should_fork_at(4, 1, 128, WorkKind::JoinSets));
        // The exponent saturates at 2^6, so huge depths still fork huge
        // work instead of overflowing the comparison.
        assert!(policy.should_fork_at(4, 10_000, 1 << 20, WorkKind::JoinSets));
    }

    #[test]
    fn for_exec_prefers_the_pools_calibrated_overhead() {
        let pool = WorkerPool::new(nz(2));
        assert_eq!(
            ForkPolicy::for_exec(&Exec::Pool(&pool)).overhead_ns(),
            DEFAULT_DISPATCH_OVERHEAD_NS,
            "uncalibrated pool falls back to the recorded constant"
        );
        let measured = pool.calibrate_dispatch_overhead();
        assert_eq!(
            ForkPolicy::for_exec(&Exec::Pool(&pool)).overhead_ns(),
            measured
        );
        assert_eq!(
            ForkPolicy::for_exec(&Exec::inline()).overhead_ns(),
            DEFAULT_DISPATCH_OVERHEAD_NS
        );
    }
}
