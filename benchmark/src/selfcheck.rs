//! `benchmark selfcheck`: do two sets of runs of the *same* build agree
//! within the benchmark's own bounds?
//!
//! This is the driver's acceptance rule run locally: per workload, the
//! sets are interleaved over seeds 1..N; for each end-to-end metric it
//! prints each set's median and spread (interquartile range ÷ median,
//! quartiles as Python's `statistics.quantiles(values, n=4)`), the gap
//! between the medians and the bound. A gap or a spread beyond the bound
//! is a breach (`setup_s` is exempt from the spread rule, as it is for
//! the driver), and so is a failed interval or a differing failed count.

use crate::manifest::END_TO_END;
use crate::run::{run, Env};
use crate::stats::{iqr_over_median, median};
use crate::workload::Workload;

/// Run the check; `Ok(false)` when a bound was breached.
pub fn selfcheck(
    env: &Env,
    only: Option<Workload>,
    sets: usize,
    runs: usize,
    seconds: u64,
) -> Result<bool, String> {
    if sets < 2 || runs < 2 {
        return Err("selfcheck needs --sets >= 2 and --runs >= 2".into());
    }
    let workloads = only.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut agreed = true;
    for workload in workloads {
        // values[set][metric][run], failed[set]
        let mut values = vec![vec![Vec::with_capacity(runs); END_TO_END.len()]; sets];
        let mut failed = vec![0u64; sets];
        for seed in 1..=runs as u64 {
            for set in 0..sets {
                let outcome = run(env, workload, seed, seconds)?;
                failed[set] += outcome.failed;
                for (slot, (_, value)) in values[set].iter_mut().zip(&outcome.metrics) {
                    slot.push(*value);
                }
            }
        }

        println!(
            "\n### `{}`: {sets} sets x {runs} runs (seeds 1..{runs})\n",
            workload.name()
        );
        println!("| metric | unit | median A | median B | gap | spread A | spread B | bound | |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (m, metric) in END_TO_END.iter().enumerate() {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let base = median(&values[0][m]);
            let base_spread = iqr_over_median(&values[0][m]);
            for set in &values[1..] {
                let (other, spread) = (median(&set[m]), iqr_over_median(&set[m]));
                let gap = metric
                    .better
                    .worsening(base, other)
                    .max(metric.better.worsening(other, base));
                let spread_ok = metric.name == "setup_s" || base_spread.max(spread) <= bound;
                let ok = gap <= bound && spread_ok;
                agreed &= ok;
                println!(
                    "| `{}` | {} | {base:.4} | {other:.4} | {gap:.4} | {base_spread:.4} | {spread:.4} | {bound} | {} |",
                    metric.name,
                    metric.unit,
                    if ok { "ok" } else { "BREACH" },
                );
            }
        }
        let failures_ok = failed.iter().all(|&f| f == 0);
        agreed &= failures_ok;
        println!(
            "\nfailed intervals per set: {failed:?} ({})",
            if failures_ok { "ok" } else { "BREACH" }
        );
    }
    println!("\nselfcheck: {}", if agreed { "passed" } else { "FAILED" });
    Ok(agreed)
}
