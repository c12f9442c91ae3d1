//! The paper's §II-B worked example (Table II): extract a port-7000
//! flooding attack from 350 k flows that also contain the three most
//! popular destination ports, added deliberately to provoke false-positive
//! item-sets.
//!
//! ```sh
//! cargo run --release --example ddos_port7000            # paper scale (350k flows)
//! cargo run --release --example ddos_port7000 -- 0.1     # 10% scale
//! ```

use anomex::core::render_report;
use anomex::prelude::*;

fn main() {
    let scale: f64 = std::env::args().nth(1).map_or(1.0, |s| {
        s.parse().expect("scale must be a number, e.g. 0.1")
    });

    // The Table II input set: 53 467 port-7000 flood flows (the real
    // anomaly at host E) + 252 069 port-80 flows (proxies A, B, C among
    // them) + 22 667 port-9022 backscatter + 22 659 port-25 mail flows.
    let w = table2_workload(2009, scale);
    println!(
        "input: {} flows, minimum support {}\n",
        w.flows.len(),
        w.min_support
    );

    // In the paper's example, destination port 7000 was the only flagged
    // feature value; the popular ports are forced through the pre-filter
    // to imitate collisions.
    let mut metadata = MetaData::new();
    for port in [w.flood_port, 80, 9022, 25] {
        metadata.insert(FlowFeature::DstPort, u64::from(port));
    }

    let config = ExtractionConfig {
        min_support: w.min_support,
        ..ExtractionConfig::default()
    };
    let engine = Engine::sequential(config).expect("valid configuration");
    let extraction = engine.extract(&w.flows, &metadata);
    println!("{}", render_report(&extraction));

    // The paper's headline observations about Table II:
    let port7000 = extraction
        .itemsets
        .iter()
        .filter(|s| s.to_string().contains("dstPort=7000"))
        .count();
    println!("item-sets pinning dstPort=7000 (paper: 3): {port7000}");
    println!(
        "total maximal item-sets (paper: 15):          {}",
        extraction.itemsets.len()
    );
    let victim = extraction
        .itemsets
        .iter()
        .any(|s| s.to_string().contains(&format!("dstIP={}", w.victim)));
    println!("victim host E pinned:                         {victim}");
}
