//! Low-support mining: sequential vs pool **flat counting** as the
//! support falls — the band rare-rule mining works in (§III-E; ROADMAP
//! items 4 and 6). Under `Exec::Pool` only the counting passes run on
//! the pool (single-item counts, Apriori's level-k count, Eclat's
//! tid-lists); every miner's search runs on the calling thread. So the
//! pool rows show how much of each miner is counting: Apriori's drop
//! towards 1/width, FP-growth's and Eclat's stay near their sequential
//! rows, more so as the support falls and the search grows. On a 1-CPU
//! machine every pool row reads ~1.0x of its sequential row.
//!
//! Each cell is the minimum wall time over a fixed number of runs, on
//! the Table II workload at scale 0.1.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin mining_lowsupport
//! ```

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use anomex_mining::par::{Exec, WorkerPool};
use anomex_mining::{MinerKind, TransactionSet};
use anomex_traffic::table2_workload;

/// Runs per cell; the cell reports the fastest.
const RUNS: usize = 10;

fn pool_width() -> NonZeroUsize {
    std::thread::available_parallelism()
        .map(|n| n.min(NonZeroUsize::new(4).unwrap()))
        .unwrap_or(NonZeroUsize::MIN)
}

/// The fastest of [`RUNS`] wall times of `mine`, in milliseconds.
fn min_ms<R>(mut mine: impl FnMut() -> R) -> f64 {
    let best = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(mine());
            t0.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO);
    best.as_secs_f64() * 1e3
}

fn main() {
    let w = table2_workload(2009, 0.1);
    let tx = TransactionSet::from_flows(&w.flows);
    let pool = WorkerPool::new(pool_width());
    println!(
        "== mining_lowsupport: {} transactions, pool width {}, min of {RUNS} runs ==",
        tx.len(),
        pool.threads()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>9}",
        "miner", "support", "seq ms", "pool ms", "pool/seq"
    );
    for div in [4u64, 16, 64] {
        let s = (w.min_support / div).max(2);
        for miner in MinerKind::ALL {
            let seq = min_ms(|| miner.mine_all_exec(black_box(&tx), s, Exec::inline()));
            let pooled = min_ms(|| miner.mine_all_exec(black_box(&tx), s, Exec::Pool(&pool)));
            println!(
                "{:<10} {s:>8} {seq:>10.2} {pooled:>10.2} {:>8.2}x",
                miner.to_string(),
                pooled / seq
            );
        }
    }
}
