//! **Fig. 5** — convergence of the iterative anomalous-bin identification:
//! the KL distance after each simulated bin removal, dropping sharply in
//! the first round and crossing the alarm-clearing target within a few
//! rounds.
//!
//! The clearing target is computed exactly as the live detector computes
//! it: previous interval's KL plus the MAD-fitted 3σ̂ threshold on the KL
//! first difference.
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig5_bin_identification [scale]
//! ```

use anomex_bench::{arg_scale, bar};
use anomex_detector::{
    identify_anomalous_bins, kl_distance, BinHasher, FeatureHistogram, FirstDiffThreshold,
};
use anomex_netflow::{FlowColumns, FlowFeature};
use anomex_traffic::Scenario;

fn main() {
    let scale = arg_scale(0.25);
    let scenario = Scenario::two_weeks(42, scale);

    // A flooding interval; train the threshold on the preceding intervals.
    let flood_event = scenario
        .events()
        .iter()
        .find(|e| matches!(e.class(), anomex_traffic::AnomalyClass::Flooding))
        .expect("the two-week scenario plants floods");
    let at = flood_event.start_interval;
    let hasher = BinHasher::new(77);
    let hist = |i: u64| {
        FeatureHistogram::build(
            FlowFeature::DstPort,
            hasher,
            1024,
            &FlowColumns::from_flows(&scenario.generate(i).flows),
        )
    };

    // KL series over the 40 intervals before the event.
    let mut kls = Vec::new();
    let mut prev = hist(at - 41);
    for i in (at - 40)..=at {
        let cur = hist(i);
        kls.push(kl_distance(cur.counts(), prev.counts()));
        prev = cur;
    }
    let diffs: Vec<f64> = kls.windows(2).map(|w| w[1] - w[0]).collect();
    let threshold = FirstDiffThreshold::fit(3.0, &diffs[..diffs.len() - 1]);
    let kl_prev = kls[kls.len() - 2];
    let target = kl_prev + threshold.value();

    let current = hist(at);
    let reference = hist(at - 1);
    let id = identify_anomalous_bins(current.counts(), reference.counts(), target);

    println!(
        "== Fig. 5: iterative bin identification on the {} flood (interval {at}) ==",
        flood_event.id
    );
    println!(
        "dstPort histogram, k = 1024 | σ̂ = {:.2e} | clearing target KL = {target:.5}\n",
        threshold.sigma()
    );
    println!("{:>6} {:>12}  trajectory", "round", "KL distance");
    let max = id.kl_trajectory[0];
    for (round, kl) in id.kl_trajectory.iter().enumerate() {
        println!("{round:>6} {kl:>12.6}  {}", bar(*kl, max, 50));
    }
    println!("\nbins removed ({} rounds): {:?}", id.bins.len(), id.bins);
    println!("converged: {}", id.converged);

    let first_drop = (id.kl_trajectory[0] - id.kl_trajectory[1]) / id.kl_trajectory[0];
    println!(
        "first-round drop: {:.1}% of the initial distance (paper: \"already after \
         the first round, the KL distance decreases significantly\")",
        first_drop * 100.0
    );

    // Cross-check: the first removed bin holds the flood port.
    let flood_port = match flood_event.params {
        anomex_traffic::EventParams::Flooding { port, .. } => u64::from(port),
        _ => unreachable!(),
    };
    println!(
        "first removed bin is the flood-port bin: {}",
        id.bins.first() == Some(&hasher.bin_of(flood_port, 1024))
    );
}
