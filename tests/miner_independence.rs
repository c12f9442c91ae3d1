//! Miner independence at the report: every [`MinerKind`] must print the
//! same bytes. FP-growth is the default miner and Apriori the paper's
//! reference, so a report that changed with `--miner` would make the
//! default path a different program from the one Table II validates.
//! Asserted through the online [`Engine`] (detector → pre-filter → mine →
//! optional rule layer → [`render_report`]) over several scenario seeds,
//! and through the per-source rule merge on a two-source split.

use anomex::core::{
    merge_source_rules, render_report, render_rule_merge, Engine, ExtractionConfig,
};
use anomex::mining::RuleConfig;
use anomex::prelude::*;

fn config_for(scenario: &Scenario, miner: MinerKind, rules: bool) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        miner,
        rules: rules.then(RuleConfig::default),
        ..ExtractionConfig::default()
    }
}

/// Every alarmed interval's rendered report, plus — with the rule layer
/// on — the per-source rule merge of a two-source split of the interval
/// (the first third of its flows as one source, the rest as the other).
fn rendered(intervals: &[Vec<FlowRecord>], config: ExtractionConfig) -> Vec<String> {
    let mut engine = Engine::sequential(config.clone()).unwrap();
    let mut out = Vec::new();
    for flows in intervals {
        let Some(extraction) = engine.process(flows).extraction else {
            continue;
        };
        out.push(render_report(&extraction));
        let split = [flows.len() / 3, flows.len() - flows.len() / 3];
        if let Some(merged) = merge_source_rules(flows, &split, &extraction.metadata, &config) {
            out.push(render_rule_merge(&merged, split.len()));
        }
    }
    out
}

/// Compare FP-growth and Eclat against Apriori over one scenario seed,
/// with and without the rule layer; returns how many reports and rule
/// merges were compared.
fn check_seed(seed: u64) -> (usize, usize) {
    let scenario = Scenario::small(seed);
    let intervals: Vec<Vec<FlowRecord>> = (0..scenario.interval_count())
        .map(|i| scenario.generate(i).flows)
        .collect();
    let (mut reports, mut merges) = (0, 0);
    for rules in [false, true] {
        let reference = rendered(&intervals, config_for(&scenario, MinerKind::Apriori, rules));
        for miner in [MinerKind::FpGrowth, MinerKind::Eclat] {
            let got = rendered(&intervals, config_for(&scenario, miner, rules));
            let ctx = format!("seed {seed}, {miner}, rules {rules}");
            assert_eq!(got.len(), reference.len(), "{ctx}");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a, b, "{ctx}");
            }
        }
        let count = |prefix: &str| reference.iter().filter(|r| r.starts_with(prefix)).count();
        reports += count("Anomaly extraction report");
        merges += count("Per-source rule merge");
    }
    (reports, merges)
}

#[test]
fn reports_do_not_depend_on_the_miner() {
    // One thread per seed: each seed is independent and the suite runs
    // unoptimized.
    let counts: Vec<(usize, usize)> = std::thread::scope(|s| {
        let seeds = [7, 11, 29].map(|seed| s.spawn(move || check_seed(seed)));
        seeds.map(|h| h.join().unwrap()).to_vec()
    });
    let reports: usize = counts.iter().map(|c| c.0).sum();
    let merges: usize = counts.iter().map(|c| c.1).sum();
    assert!(
        reports > 0,
        "no interval alarmed: the comparison is vacuous"
    );
    assert!(
        merges > 0,
        "no rule merge rendered: the merge comparison is vacuous"
    );
}
