//! Facade smoke test: the README/`src/lib.rs` quickstart as a named
//! test, so a regression in the public entry path fails
//! `smoke::quickstart_extracts_planted_flood` rather than (only) a doc
//! example.

use anomex::prelude::*;

/// Mirrors the `anomex` crate-level doctest: a `Scenario::small`
/// workload with a planted port-7000 flood must come out of the
/// pipeline as an item-set naming that port.
#[test]
fn quickstart_extracts_planted_flood() {
    let scenario = Scenario::small(7);

    let config = ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    };

    let mut pipeline = Engine::sequential(config).unwrap();
    let mut found = false;
    let mut extractions = 0usize;
    for i in 0..scenario.interval_count() {
        let interval = scenario.generate(i);
        if let Some(extraction) = pipeline.process(&interval.flows).extraction {
            extractions += 1;
            found |= extraction
                .itemsets
                .iter()
                .any(|set| set.to_string().contains("dstPort=7000"));
        }
    }
    assert!(
        extractions > 0,
        "at least one interval must alarm and extract"
    );
    assert!(found, "the planted dstPort=7000 flood was not extracted");
}
