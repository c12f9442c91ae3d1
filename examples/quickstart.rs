//! Quickstart: run the full anomaly-extraction pipeline on a small
//! synthetic workload and print the extraction reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use anomex::core::render_report;
use anomex::prelude::*;

fn main() {
    // A 40-interval workload with three planted anomalies (a flood on
    // port 7000, a scan on port 445, and backscatter on port 9022) and a
    // realistic backbone background.
    let scenario = Scenario::small(7);

    // The paper's pipeline configuration (Table III), adapted to the
    // workload's 1-minute intervals and ~4k-flow volume: k = 1024 bins,
    // n = l = 3 clones, α = 3, union pre-filter, maximal frequent
    // item-sets (mined with FP-growth).
    let config = ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    };

    let mut pipeline = Engine::new(config).unwrap();

    println!("processing {} intervals...\n", scenario.interval_count());
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        let outcome = pipeline.process(&interval.flows);
        if let Some(extraction) = outcome.extraction {
            println!("{}", render_report(&extraction));
            // Ground truth check (only possible on synthetic data):
            let truth: Vec<String> = scenario
                .events_in(i)
                .iter()
                .map(|e| format!("{} ({})", e.id, e.class()))
                .collect();
            println!("ground truth for interval {i}: {}\n", truth.join(", "));
        }
    }

    println!(
        "detector memory footprint: {:.1} kB of bin counts (paper §III-E reports 472 kB for 5×3×1024 bins)",
        pipeline.bank().memory_bytes() as f64 / 1024.0
    );
}
