//! **Voting ablation (§III-C empirical companion)** — sweep the vote
//! quorum `l` for fixed n and measure, on real pipeline runs, what the
//! analytic curves of Figs. 7–8 predict: small `l` keeps more meta-data
//! values (more suspicious flows, more FP item-sets); large `l` keeps
//! fewer (risking missed anomalous values).
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin voting_sweep [scale]
//! ```

use anomex_bench::{arg_scale, eval_config, supports_for};
use anomex_traffic::{run_scenario, Scenario, FIFTEEN_MIN_MS, INTERVALS_PER_DAY};

fn main() {
    let scale = arg_scale(0.25);
    let scenario = Scenario::two_weeks(42, scale);
    let n = 5;

    println!("== voting sweep: n = {n}, l = 1..={n} (scale {scale}) ==\n");
    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "l", "alarms", "meta values", "susp flows", "extracted", "TP sets", "FP sets"
    );

    for l in 1..=n {
        let fpi = scenario.config().background.flows_per_interval;
        let mut config = eval_config(
            FIFTEEN_MIN_MS,
            INTERVALS_PER_DAY as usize / 2,
            supports_for(fpi)[0],
        );
        config.detector.clones = n;
        config.detector.votes = l;
        let run = run_scenario(&scenario, &config);

        let alarmed = run.alarmed_anomalous();
        let meta_values: usize = alarmed
            .iter()
            .filter_map(|r| r.extraction.as_ref())
            .map(|e| e.metadata.len())
            .sum();
        let suspicious: usize = alarmed.iter().map(|r| r.suspicious.len()).sum();
        let extracted = alarmed
            .iter()
            .filter(|r| r.evaluated.iter().any(|e| e.is_tp))
            .count();
        let tp: usize = alarmed.iter().map(|r| r.tp_itemsets()).sum();
        let fp: usize = alarmed.iter().map(|r| r.fp_itemsets()).sum();

        println!(
            "{l:>3} {:>9} {meta_values:>12} {suspicious:>12} {:>10} {tp:>8} {fp:>8}",
            alarmed.len(),
            format!("{extracted}/{}", alarmed.len()),
        );
    }

    println!(
        "\nexpected shape (Figs. 7-8): meta-data values and suspicious flows shrink \
         as l grows (γ falls), while extraction quality holds until l approaches n \
         (β grows slowly for p ≈ 1). The paper runs l = n = 3."
    );
}
