//! Paper-fidelity pin: the §II-B worked example (Table II) through the
//! public offline entry point, with the reproduced *outputs* held as
//! exact numbers so a refactor cannot drift the reproduction silently.
//!
//! Workload: `table2_workload(2009, 0.05)` — the flood on port 7000 plus
//! the artificially added popular ports 80, 9022 and 25 — with all four
//! ports as meta-data. The pinned values were recorded before PR 14
//! folded the online types into `Engine` and must stay identical at any
//! shard count and (item-sets) across all three miners.

use std::num::NonZeroUsize;

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
    let mut md = MetaData::new();
    for port in [w.flood_port, 80, 9022, 25] {
        md.insert(FlowFeature::DstPort, u64::from(port));
    }
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

    let mut reference: Option<Vec<ItemSet>> = None;
    for shards in [1usize, 4] {
        for miner in MinerKind::ALL {
            let config = ExtractionConfig {
                min_support: w.min_support,
                miner,
                ..ExtractionConfig::default()
            };
            let ex = Engine::new(config, NonZeroUsize::new(shards).unwrap())
                .unwrap()
                .extract(&w.flows, &md);
            let ctx = format!("{miner}, {shards} shard(s)");
            assert_eq!(ex.total_flows, TOTAL_FLOWS, "{ctx}");
            assert_eq!(
                ex.suspicious_flows, TOTAL_FLOWS,
                "every port is meta-data ({ctx})"
            );
            assert_eq!(ex.itemsets.len(), MAXIMAL_ITEMSETS, "{ctx}");
            if miner == MinerKind::Apriori {
                assert_eq!(ex.levels, expected_levels, "{ctx}");
            }
            let reference = reference.get_or_insert_with(|| ex.itemsets.clone());
            assert_eq!(&ex.itemsets, reference, "{ctx}");
            for (a, b) in ex.itemsets.iter().zip(reference.iter()) {
                assert_eq!(a.support, b.support, "{a} ({ctx})");
            }
        }
    }

    // What the paper's operator reads off the table: the flood is three
    // item-sets (one per source) on the victim, and each HTTP proxy
    // surfaces as one item-set of its own.
    let rendered: Vec<String> = reference
        .expect("at least one run")
        .iter()
        .map(ToString::to_string)
        .collect();
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
