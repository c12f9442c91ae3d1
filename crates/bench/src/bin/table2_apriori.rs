//! **Table II** — the §II-B worked example: maximal frequent item-sets
//! mined from 350 872 flows (port-7000 flood + injected popular ports)
//! with s = 10 000, including the per-round Apriori audit trail the paper
//! narrates ("in the first iteration, a total of 60 frequent 1-item-sets
//! were found…").
//!
//! ```sh
//! cargo run --release -p anomex-bench --bin table2_apriori [scale]
//! ```

use anomex_bench::arg_scale;
use anomex_core::{render_report_with_levels, Engine, ExtractionConfig};
use anomex_detector::MetaData;
use anomex_mining::MinerKind;
use anomex_netflow::FlowFeature;
use anomex_traffic::table2_workload;
use std::time::Instant;

fn main() {
    let scale = arg_scale(1.0);
    let w = table2_workload(2009, scale);
    println!("== Table II reproduction (scale {scale}) ==");
    println!(
        "input flows: {} | minimum support: {}\n",
        w.flows.len(),
        w.min_support
    );

    let mut metadata = MetaData::new();
    for port in [u64::from(w.flood_port), 80, 9022, 25] {
        metadata.insert(FlowFeature::DstPort, port);
    }

    // Apriori on purpose (the default miner is FP-growth): the paper's
    // narrative is its per-round audit trail.
    let config = ExtractionConfig {
        min_support: w.min_support,
        miner: MinerKind::Apriori,
        ..ExtractionConfig::default()
    };
    let engine = Engine::sequential(config).expect("valid configuration");
    let t0 = Instant::now();
    let extraction = engine.extract(&w.flows, &metadata);
    let elapsed = t0.elapsed();

    println!("{}", render_report_with_levels(&extraction));

    let port7000 = extraction
        .itemsets
        .iter()
        .filter(|s| s.to_string().contains("dstPort=7000"))
        .count();
    let proxies = w
        .proxies
        .iter()
        .filter(|p| {
            extraction
                .itemsets
                .iter()
                .any(|s| s.to_string().contains(&format!("srcIP={p}")))
        })
        .count();
    let backscatter = extraction
        .itemsets
        .iter()
        .filter(|s| s.to_string().contains("dstPort=9022"))
        .count();

    println!("-- paper-vs-measured --");
    println!(
        "total maximal item-sets     paper: 15   measured: {}",
        extraction.itemsets.len()
    );
    println!("item-sets with dstPort=7000 paper:  3   measured: {port7000}");
    println!("proxies A/B/C surfaced      paper:  3   measured: {proxies}");
    println!("backscatter item-sets       paper:  1+  measured: {backscatter}");
    println!(
        "victim E pinned             paper: yes  measured: {}",
        extraction
            .itemsets
            .iter()
            .any(|s| s.to_string().contains(&format!("dstIP={}", w.victim)))
    );
    println!(
        "\nmodified-Apriori runtime: {elapsed:?} over {} flows (paper: up to 5 min in Python on a 2006 Opteron)",
        w.flows.len()
    );
}
