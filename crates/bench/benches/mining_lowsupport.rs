//! Low-support mining: sequential vs pool **flat counting** as the
//! support falls — the band rare-rule mining works in (§III-E; ROADMAP
//! items 4 and 6). Under `Exec::Pool` only the counting passes run on
//! the pool (single-item counts, Apriori's level-k count, Eclat's
//! tid-lists); every miner's search runs on the calling thread. So the
//! pool rows show how much of each miner is counting: Apriori's drop
//! towards 1/width, FP-growth's and Eclat's stay near their sequential
//! rows, more so as the support falls and the search grows. On a 1-CPU
//! container every pool row reads ~1.0x of its sequential row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;

use anomex_mining::par::Exec;
use anomex_mining::{MinerKind, TransactionSet};
use anomex_traffic::table2_workload;
use crossbeam::WorkerPool;

fn pool_width() -> NonZeroUsize {
    std::thread::available_parallelism()
        .map(|n| n.min(NonZeroUsize::new(4).unwrap()))
        .unwrap_or(NonZeroUsize::MIN)
}

fn bench_lowsupport(c: &mut Criterion) {
    let w = table2_workload(2009, 0.1);
    let tx = TransactionSet::from_flows(&w.flows);
    let pool = WorkerPool::new(pool_width());
    let mut group = c.benchmark_group("mining_lowsupport");
    group.sample_size(10);
    for div in [4u64, 16, 64] {
        let s = (w.min_support / div).max(2);
        for miner in MinerKind::ALL {
            group.bench_with_input(BenchmarkId::new(format!("{miner}_seq"), s), &s, |b, &s| {
                b.iter(|| black_box(miner.mine_all_exec(black_box(&tx), s, Exec::inline())))
            });
            group.bench_with_input(BenchmarkId::new(format!("{miner}_pool"), s), &s, |b, &s| {
                b.iter(|| black_box(miner.mine_all_exec(black_box(&tx), s, Exec::Pool(&pool))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lowsupport);
criterion_main!(benches);
