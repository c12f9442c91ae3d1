//! Paper-fidelity pin: the §II-B worked example (Table II) through the
//! public offline entry point, with the reproduced *outputs* held as
//! exact numbers so a refactor cannot drift the reproduction silently.
//!
//! Workload: `table2_workload(2009, 0.05)` — the flood on port 7000 plus
//! the artificially added popular ports 80, 9022 and 25 — with all four
//! ports as meta-data. Table II's rounds are Apriori's, derived from
//! FP-growth's frequent item-sets (`Table2Workload::apriori_extraction`);
//! its per-level audit trail is pinned, and the engine's FP-growth
//! extraction must return exactly its item-sets and supports. The pinned values were recorded
//! before PR 14 folded the online types into `Engine` and must stay
//! identical.

use anomex::mining::LevelStats;
use anomex::prelude::*;
use anomex::traffic::table2_workload;

/// Per-level (candidates, frequent, maximal), levels 1..=5.
const LEVELS: [(u64, u64, u64); 5] = [(0, 22, 0), (181, 38, 5), (21, 21, 7), (4, 4, 4), (0, 0, 0)];
const TOTAL_FLOWS: usize = 17_541;
const MAXIMAL_ITEMSETS: usize = 16;

#[test]
fn table2_level_stats_and_itemsets_are_pinned() {
    let w = table2_workload(2009, 0.05);
    let expected_levels: Vec<LevelStats> = LEVELS
        .iter()
        .enumerate()
        .map(|(i, &(candidates, frequent, maximal))| LevelStats {
            level: i + 1,
            candidates,
            frequent,
            maximal,
        })
        .collect();

    let apriori = w.apriori_extraction();
    assert_eq!(apriori.levels, expected_levels);
    let config = ExtractionConfig {
        min_support: w.min_support,
        ..ExtractionConfig::default()
    };
    let ex = Engine::new(config)
        .unwrap()
        .extract(&w.flows, &w.metadata());
    for (miner, run) in [("apriori", &apriori), ("fp-growth", &ex)] {
        assert_eq!(run.total_flows, TOTAL_FLOWS, "{miner}");
        assert_eq!(
            run.suspicious_flows, TOTAL_FLOWS,
            "every port is meta-data ({miner})"
        );
        assert_eq!(run.itemsets.len(), MAXIMAL_ITEMSETS, "{miner}");
    }
    assert_eq!(ex.itemsets, apriori.itemsets);
    for (a, b) in ex.itemsets.iter().zip(&apriori.itemsets) {
        assert_eq!(a.support, b.support, "{a}");
    }

    // What the paper's operator reads off the table: the flood is three
    // item-sets (one per source) on the victim, and each HTTP proxy
    // surfaces as one item-set of its own.
    let rendered: Vec<String> = apriori.itemsets.iter().map(ToString::to_string).collect();
    let flood: Vec<&String> = rendered
        .iter()
        .filter(|s| s.contains(&format!("dstPort={}", w.flood_port)))
        .collect();
    assert_eq!(flood.len(), 3, "{rendered:#?}");
    for (set, source) in flood.iter().zip(&w.flood_sources) {
        assert!(set.contains(&format!("srcIP={source}")), "{set}");
        assert!(set.contains(&format!("dstIP={}", w.victim)), "{set}");
    }
    for proxy in w.proxies {
        let hits = rendered
            .iter()
            .filter(|s| s.contains(&format!("srcIP={proxy}")))
            .count();
        assert_eq!(hits, 1, "proxy {proxy}: {rendered:#?}");
    }
}
