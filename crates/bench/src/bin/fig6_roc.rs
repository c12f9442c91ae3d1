//! **Fig. 6** — ROC curves (false-positive rate vs. true-positive rate)
//! for three histogram clones, produced by sweeping the alarm threshold
//! over the normalized KL first-difference scores of a two-week run.
//!
//! The paper's ground truth (manual inspection) includes *marginal*
//! anomalies that strict thresholds miss — that is why its curve passes
//! TPR ≈ 0.4 at FPR 0.01 and only reaches TPR 1.0 at FPR 0.05–0.08. To
//! reproduce that regime, this experiment grades the planted events from
//! far-below-noise to clearly-visible (×0.05 … ×1.0 of their nominal
//! volume).
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin fig6_roc [scale]
//! ```

use anomex_bench::{arg_scale, eval_config};
use anomex_detector::RocCurve;
use anomex_traffic::{run_scenario, Scenario, FIFTEEN_MIN_MS, INTERVALS_PER_DAY};

fn main() {
    let scale = arg_scale(0.25);
    let base = Scenario::two_weeks(42, scale);

    // Grade the 36 events across difficulty levels: many weak, some
    // strong — the detectability mix a two-week backbone trace actually
    // contains.
    let grades = [0.05, 0.10, 0.20, 0.40, 0.70, 1.00];
    let events: Vec<_> = base
        .events()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = e.clone();
            let g = grades[i % grades.len()];
            e.flows_per_interval = ((e.flows_per_interval as f64 * g) as u64).max(5);
            e
        })
        .collect();
    let scenario = Scenario::new(base.config().clone(), events);

    let config = eval_config(FIFTEEN_MIN_MS, INTERVALS_PER_DAY as usize / 2, 100);
    println!("== Fig. 6: per-clone ROC over two weeks with graded events (scale {scale}) ==");
    let run = run_scenario(&scenario, &config);

    // Skip the training day: scores there are zero by construction.
    let skip = INTERVALS_PER_DAY as usize;
    let truth: Vec<bool> = run.truth[skip..].to_vec();
    println!(
        "ground truth: {} anomalous intervals, graded volumes {:?}\n",
        truth.iter().filter(|&&t| t).count(),
        grades
    );

    for (c, scores) in run.clone_scores.iter().enumerate() {
        let scores = &scores[skip..];
        let roc = RocCurve::from_scores(scores, &truth);
        println!("clone {c}: AUC = {:.3}", roc.auc());
        println!("{:>12} {:>8} {:>8}", "threshold", "FPR", "TPR");
        let step = (roc.points.len() / 20).max(1);
        for p in roc.points.iter().step_by(step) {
            println!("{:>12.3} {:>8.4} {:>8.4}", p.threshold, p.fpr, p.tpr);
        }
        println!(
            "paper anchors -> TPR@FPR=0.01: {:.2} (paper ~0.4) | TPR@FPR=0.03: {:.2} (paper ~0.8) | TPR@FPR=0.08: {:.2} (paper ~1.0)\n",
            roc.tpr_at_fpr(0.01),
            roc.tpr_at_fpr(0.03),
            roc.tpr_at_fpr(0.08)
        );
    }
    println!(
        "(the paper's curves are lower bounds — \"some of the false-positive \
         intervals might contain unknown anomalous traffic\"; the same holds here \
         for the sub-noise ×0.05 events)"
    );
}
