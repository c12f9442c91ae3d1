//! **Fig. 9** — false-positive item-sets vs. the minimum support
//! parameter, over the alarmed anomalous intervals of a two-week run.
//! The paper reports: 70% of intervals have no FP item-sets at all; the
//! average over all intervals falls from ≈ 8.5 (s = 3000) to ≈ 2
//! (s = 10 000); the worst few intervals dominate.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig9_fp_itemsets [scale]
//! ```

use anomex_bench::{arg_scale, eval_config, supports_for};
use anomex_traffic::{run_scenario, Scenario, FIFTEEN_MIN_MS, INTERVALS_PER_DAY};

fn main() {
    let scale = arg_scale(0.25);
    let scenario = Scenario::two_weeks(42, scale);
    let fpi = scenario.config().background.flows_per_interval;
    let config = eval_config(
        FIFTEEN_MIN_MS,
        INTERVALS_PER_DAY as usize / 2,
        supports_for(fpi)[0],
    );
    println!("== Fig. 9: FP item-sets vs minimum support (scale {scale}) ==");
    let run = run_scenario(&scenario, &config);
    let alarmed = run.alarmed_anomalous().len();
    println!("alarmed anomalous intervals: {alarmed}\n");

    // The paper's support range is defined against ~1M-flow intervals;
    // scale it with the workload.
    let supports = supports_for(fpi);
    let sweep = run.fp_sweep(&supports);

    println!(
        "{:>10} {:>8} {:>10} {:>12} {:>10}",
        "support", "avg FP", "zero-FP%", "extracted%", "max FP"
    );
    for point in &sweep {
        println!(
            "{:>10} {:>8.2} {:>9.0}% {:>11.0}% {:>10}",
            point.min_support,
            point.avg_fp,
            point.zero_fp_fraction * 100.0,
            point.extracted_fraction * 100.0,
            point.fp_per_interval.iter().max().copied().unwrap_or(0),
        );
    }

    // Per-interval lines for the FP-prone intervals (the paper plots the
    // 10 intervals with any FPs).
    let last = sweep.last().expect("non-empty sweep");
    let prone: Vec<usize> = (0..last.fp_per_interval.len())
        .filter(|&i| sweep.iter().any(|p| p.fp_per_interval[i] > 0))
        .collect();
    println!(
        "\nFP-prone intervals: {} of {alarmed} (paper: 10 of 31 = 30%)",
        prone.len()
    );
    print!("{:>10}", "support");
    for &i in prone.iter().take(10) {
        print!(
            " {:>6}",
            format!("iv{}", run.alarmed_anomalous()[i].interval)
        );
    }
    println!();
    for point in &sweep {
        print!("{:>10}", point.min_support);
        for &i in prone.iter().take(10) {
            print!(" {:>6}", point.fp_per_interval[i]);
        }
        println!();
    }
    println!(
        "\nshape check vs paper: avg FP falls with s (paper 8.5 -> 2); a small set \
         of intervals carries almost all FPs; FPs come from common ports / short \
         flow lengths colliding with anomaly meta-data."
    );
}
