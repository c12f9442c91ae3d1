//! Low-support mining: FP-growth's all-frequent run time as the support
//! falls — the band rare-rule mining works in (§III-E; ROADMAP item 4),
//! kept as the yardstick a rare-item miner is measured against.
//!
//! Each cell is the minimum wall time over a fixed number of runs, on
//! the Table II workload at scale 0.1.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin mining_lowsupport
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use anomex_mining::fpgrowth::fpgrowth;
use anomex_mining::TransactionSet;
use anomex_netflow::FlowColumns;
use anomex_traffic::table2_workload;

/// Runs per cell; the cell reports the fastest.
const RUNS: usize = 10;

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
    let rows: Vec<usize> = (0..w.flows.len()).collect();
    let tx = TransactionSet::from_columns_at(&FlowColumns::from_flows(&w.flows), &rows);
    println!(
        "== mining_lowsupport: {} transactions, min of {RUNS} runs ==",
        tx.len()
    );
    println!("{:<10} {:>8} {:>10}", "miner", "support", "ms");
    for div in [4u64, 16, 64] {
        let s = (w.min_support / div).max(2);
        let fpgrowth_ms = min_ms(|| fpgrowth(black_box(&tx), s));
        println!("{:<10} {s:>8} {fpgrowth_ms:>10.2}", "fp-growth");
    }
}
