//! Plugging a different detector family into the extraction pipeline —
//! the paper's Table I point: "the presented anomaly extraction approach
//! is generic and can be used with different anomaly detectors that
//! provide meta-data about identified anomalies."
//!
//! Here a sample-**entropy** detector (Wagner & Plattner-style, Table I
//! row "entropy detectors") watches the destination-port distribution. On
//! alarm, its top-moving values become the meta-data that drives the same
//! union pre-filter + maximal item-set mining as the histogram bank.
//!
//! ```sh
//! cargo run --release --example custom_detector
//! ```

use anomex::core::render_report;
use anomex::detector::EntropyDetector;
use anomex::prelude::*;

fn main() {
    let scenario = Scenario::small(7);

    // One entropy detector on destination ports (scans spray ports and
    // raise entropy; floods concentrate them and drop it — the detector
    // thresholds |ΔH| two-sided).
    let mut detector = EntropyDetector::new(FlowFeature::DstPort, 3.0, 10);
    // The rest of the pipeline, configured as usual: its offline entry
    // point mines whatever meta-data it is handed.
    let config = ExtractionConfig {
        min_support: 800,
        ..ExtractionConfig::default()
    };
    let engine = Engine::new(config).expect("valid configuration");

    println!(
        "entropy-driven extraction over {} intervals\n",
        scenario.interval_count()
    );
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        let obs = detector.observe(&interval.flows);

        if i % 8 == 0 || obs.alarm {
            println!(
                "interval {i:>2}: H(dstPort) = {:.3} bits{}{}",
                obs.entropy,
                obs.first_diff
                    .map_or(String::new(), |d| format!(" (Δ {d:+.3})")),
                if obs.alarm { "  << ALARM" } else { "" }
            );
        }
        if !obs.alarm {
            continue;
        }

        // The entropy detector's top-moving values are the meta-data; the
        // rest of the pipeline is unchanged.
        let mut metadata = MetaData::new();
        metadata.insert_all(FlowFeature::DstPort, obs.values.iter().copied());
        let mut extraction = engine.extract(&interval.flows, &metadata);
        extraction.interval = i;
        println!("{}", render_report(&extraction));
        let truth: Vec<String> = scenario
            .events_in(i)
            .iter()
            .map(|e| format!("{} ({})", e.id, e.class()))
            .collect();
        println!("ground truth: {}\n", truth.join(", "));
    }
}
