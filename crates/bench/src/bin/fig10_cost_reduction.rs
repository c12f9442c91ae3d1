//! **Fig. 10** — average classification-cost reduction `R = F / I` vs.
//! the minimum support parameter. The paper reports 600 000–800 000
//! against 0.7–2.6 M-flow intervals, increasing with s and saturating
//! once the item-set count bottoms out.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig10_cost_reduction [scale]
//! ```

use anomex_bench::{arg_scale, bar, eval_config, supports_for};
use anomex_mining::MinerKind;
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
    println!("== Fig. 10: classification-cost reduction vs minimum support (scale {scale}) ==");
    let run = run_scenario(&scenario, &config);
    let flows: Vec<usize> = run
        .alarmed_anomalous()
        .iter()
        .map(|r| r.total_flows)
        .collect();
    println!(
        "alarmed anomalous intervals: {} | flows per interval: {}..{}\n",
        flows.len(),
        flows.iter().min().copied().unwrap_or(0),
        flows.iter().max().copied().unwrap_or(0),
    );

    let supports = supports_for(fpi);
    let costs = run.cost_sweep(&supports, MinerKind::FpGrowth);
    let max = costs.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);

    println!("{:>10} {:>14}  profile", "support", "avg reduction");
    for &(s, r) in &costs {
        println!("{s:>10} {r:>14.0}  {}", bar(r, max, 40));
    }

    // Shape checks.
    let increasing = costs.windows(2).all(|w| w[1].1 >= w[0].1 * 0.98);
    let saturation = if costs.len() >= 2 {
        let tail = costs[costs.len() - 1].1 / costs[costs.len() - 2].1;
        (0.9..=1.2).contains(&tail)
    } else {
        false
    };
    println!("\nshape check vs paper:");
    println!("  reduction grows with support: {increasing} (paper: yes)");
    println!("  saturates at high support:    {saturation} (paper: yes, once the minimum item-set count is reached)");
    println!(
        "  magnitude ≈ interval flow count / handful of item-sets (paper: 600k-800k \
         against ~1M-flow intervals; scales linearly with the workload)"
    );
}
