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
}
