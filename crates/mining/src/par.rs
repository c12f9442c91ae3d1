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
//!
//! The pool itself is [`WorkerPool`]: threads spawned once, one shared
//! FIFO queue, and a single operation — run a batch of jobs and return
//! their results in submission order ([`WorkerPool::run_ordered`]).

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use anomex_netflow::shard::chunk_ranges;

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

/// A unit of work: an owned closure, so jobs can outlive the caller's
/// stack frame and run on threads spawned long before it existed.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The run queue every worker of one pool pops from.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by `Drop`; workers exit once it is set *and* `jobs` is
    /// empty.
    closed: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("pool mutex poisoned");
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            // Contain panics so one bad job cannot take the worker
            // down; run_ordered re-throws on the caller. Jobs run
            // outside the lock, so they cannot poison it.
            let _ = catch_unwind(AssertUnwindSafe(job));
            queue = shared.queue.lock().expect("pool mutex poisoned");
        } else if queue.closed {
            return;
        } else {
            queue = shared.ready.wait(queue).expect("pool mutex poisoned");
        }
    }
}

/// A long-lived pool of worker threads popping jobs from one shared
/// FIFO queue.
///
/// Workers are spawned once at construction and live until the pool
/// is dropped, so running a batch of jobs costs queue pushes instead
/// of thread spawns — the difference that matters when the same pool
/// serves every measurement interval of a stream.
///
/// A job that panics is contained: the panic is caught, the worker
/// survives, and the payload is re-thrown on the thread that called
/// [`run_ordered`](WorkerPool::run_ordered). Dropping the pool lets
/// queued jobs drain and joins every worker.
///
/// Jobs must not call `run_ordered` on the pool they run on: with
/// every worker blocked waiting, no one is left to run the nested
/// batch.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(threads: NonZeroUsize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (0..threads.get())
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("anomex-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run a batch of jobs on the pool and return their results **in
    /// submission order** — the scatter/gather primitive behind every
    /// deterministic parallel pass. Blocks until the whole batch
    /// finishes.
    ///
    /// # Panics
    ///
    /// Re-throws the panic of the earliest-submitted job that
    /// panicked (after the batch has drained, so the pool stays
    /// consistent).
    #[must_use]
    pub fn run_ordered<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
    ) -> Vec<R> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        {
            let mut queue = self.shared.queue.lock().expect("pool mutex poisoned");
            for (i, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                queue.jobs.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    // The receiver outlives the batch; ignore a send
                    // failure anyway so a worker never panics here.
                    let _ = tx.send((i, result));
                }));
            }
        }
        self.shared.ready.notify_all();
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<R>>> = Vec::new();
        slots.resize_with(n, || None);
        for _ in 0..n {
            let (i, result) = rx.recv().expect("pool worker vanished mid-batch");
            slots[i] = Some(result);
        }
        // Propagate the earliest panic deterministically.
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.expect("every batch slot was filled") {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }
}

impl Drop for WorkerPool {
    /// Close the queue (jobs already queued still drain) and join
    /// every worker.
    fn drop(&mut self) {
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.closed = true;
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            // Workers contain job panics; surface nothing and keep
            // joining the rest.
            let _ = handle.join();
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn batch_results_arrive_in_submission_order() {
        let pool = WorkerPool::new(nz(4));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run_ordered(jobs);
        assert_eq!(out, (0..64usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(nz(2));
        for round in 0..10u64 {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8)
                .map(|i| Box::new(move || round * 100 + i) as Box<dyn FnOnce() -> u64 + Send>)
                .collect();
            let out = pool.run_ordered(jobs);
            assert_eq!(out, (0..8).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkerPool::new(nz(1));
        let out: Vec<u32> = pool.run_ordered(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn drop_drains_the_queue_and_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(nz(3));
        // Queue behind the pool's back, as a batch whose caller went
        // away would leave them: dropping must still run all 32.
        {
            let mut queue = pool.shared.queue.lock().unwrap();
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                queue.jobs.push_back(Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(shared.strong_count(), 0, "every worker exited");
    }

    #[test]
    fn panicking_job_propagates_but_pool_survives() {
        let pool = WorkerPool::new(nz(2));
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job exploded")),
            Box::new(|| 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_ordered(jobs)))
            .expect_err("panic must propagate to the caller");
        let message = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("job exploded"), "{message}");
        // The workers survived the panic: the pool still runs batches.
        let out = pool.run_ordered(vec![Box::new(|| 7u32) as Box<dyn FnOnce() -> u32 + Send>]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn single_thread_pool_runs_jobs_in_submission_order() {
        let pool = WorkerPool::new(nz(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|i| {
                let log = Arc::clone(&log);
                Box::new(move || log.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let _: Vec<()> = pool.run_ordered(jobs);
        assert_eq!(*log.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }
}
