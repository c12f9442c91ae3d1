//! **Fig. 4** — KL-distance time series for the source-IP feature over
//! two days (top panel) and its first difference with the ±3σ̂ alarm
//! threshold (bottom panel).
//!
//! Prints both series as aligned columns with ASCII bars; pipe to a file
//! for plotting (`interval, kl, first_diff, threshold, alarm, truth`).
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig4_kl_timeseries [scale]
//! ```

use anomex_bench::{arg_scale, bar};
use anomex_detector::{BinHasher, FirstDiffThreshold, HistogramClone};
use anomex_netflow::{FlowColumns, FlowFeature};
use anomex_traffic::{Scenario, INTERVALS_PER_DAY};

fn main() {
    let scale = arg_scale(0.25);
    let scenario = Scenario::two_weeks(42, scale);
    let two_days = 2 * INTERVALS_PER_DAY;

    // One srcIP clone, like the paper's Fig. 4; thresholds fit on day one.
    let mut clone = HistogramClone::new(
        FlowFeature::SrcIp,
        BinHasher::new(4242),
        1024,
        3.0,
        INTERVALS_PER_DAY as usize / 2,
    );

    let mut rows = Vec::new();
    for i in 0..two_days {
        let interval = scenario.generate(i);
        let obs = clone.observe(&FlowColumns::from_flows(&interval.flows));
        rows.push((
            i,
            obs.kl.unwrap_or(0.0),
            obs.first_diff,
            clone.threshold().map(FirstDiffThreshold::value),
            obs.alarm,
            interval.is_anomalous(),
        ));
    }

    let kl_max = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    println!("== Fig. 4: srcIP KL series over two days (scale {scale}) ==");
    println!(
        "{:>8} {:>10} {:>11} {:>10} {:>6} {:>6}  kl-bar",
        "interval", "kl", "first_diff", "threshold", "alarm", "truth"
    );
    for (i, kl, diff, thr, alarm, truth) in &rows {
        println!(
            "{:>8} {:>10.5} {:>11} {:>10} {:>6} {:>6}  {}",
            i,
            kl,
            diff.map_or("-".into(), |d| format!("{d:+.5}")),
            thr.map_or("-".into(), |t| format!("{t:.5}")),
            if *alarm { "ALARM" } else { "" },
            if *truth { "event" } else { "" },
            bar(*kl, kl_max, 40),
        );
    }

    // Paper-shape checks.
    let alarms: Vec<u64> = rows.iter().filter(|r| r.4).map(|r| r.0).collect();
    let events: Vec<u64> = rows.iter().filter(|r| r.5).map(|r| r.0).collect();
    println!("\nevent intervals in window: {events:?}");
    println!("alarm intervals in window: {alarms:?}");
    println!(
        "(the paper's Fig. 4 shows exactly this: a noisy baseline with spikes at \
         distribution changes, thresholded one-sided at 3σ̂ of the first difference)"
    );
}
