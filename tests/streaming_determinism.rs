//! Streaming determinism suite: the continuous streaming engine must be
//! **bit-identical** to batch extraction over the same flows — for
//! arbitrary scenario seeds. The streaming path adds two
//! layers on top of the engine (the interval assembler and the
//! double-buffered pipeline thread), and neither may perturb a single
//! bit of output: the assembler emits exactly the windows batch slicing
//! produces (empty windows included), and the pipeline thread feeds them
//! in order through the same engine. These properties assert the whole
//! stack, flow by flow, against the batch reference.

use anomex::core::{Engine, Extraction, ExtractionConfig};
use anomex::prelude::*;
use anomex_core::IntervalOutcome;
use proptest::prelude::*;

fn config_for(scenario: &Scenario) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    }
}

/// One exporter at origin 0: a fan-in of one.
fn one_lane(config: ExtractionConfig) -> MultiSourceExtractor {
    MultiSourceExtractor::new(config, &[SourceSpec::new(0u32, 0)], None).unwrap()
}

/// Assert two extractions are the same to the bit.
fn assert_extractions_identical(a: &Extraction, b: &Extraction, context: &str) {
    assert_eq!(a.itemsets, b.itemsets, "{context}: itemsets diverged");
    for (x, y) in a.itemsets.iter().zip(&b.itemsets) {
        assert_eq!(x.support, y.support, "{context}: support diverged on {x}");
    }
    assert_eq!(a.levels, b.levels, "{context}: level stats diverged");
    assert_eq!(a.total_flows, b.total_flows, "{context}");
    assert_eq!(a.suspicious_flows, b.suspicious_flows, "{context}");
    assert_eq!(
        a.cost_reduction.to_bits(),
        b.cost_reduction.to_bits(),
        "{context}: cost reduction diverged"
    );
    assert_eq!(a.metadata, b.metadata, "{context}");
}

/// Assert one streamed outcome equals one batch outcome, KL bits and all.
fn assert_outcomes_identical(a: &IntervalOutcome, b: &IntervalOutcome, context: &str) {
    assert_eq!(a.observation.alarm, b.observation.alarm, "{context}");
    assert_eq!(a.observation.metadata, b.observation.metadata, "{context}");
    assert_eq!(a.suspicious_rows, b.suspicious_rows, "{context}");
    for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
        assert_eq!(x.alarm, y.alarm, "{context}");
        for (cx, cy) in x.clones.iter().zip(&y.clones) {
            assert_eq!(
                cx.kl.map(f64::to_bits),
                cy.kl.map(f64::to_bits),
                "{context}"
            );
            assert_eq!(
                cx.first_diff.map(f64::to_bits),
                cy.first_diff.map(f64::to_bits),
                "{context}"
            );
        }
    }
    match (&a.extraction, &b.extraction) {
        (None, None) => {}
        (Some(x), Some(y)) => assert_extractions_identical(x, y, context),
        _ => panic!("{context}: extraction presence diverged"),
    }
}

/// `cases`, scaled by `PROPTEST_CASES / 256` so a wide sweep widens this
/// suite as it widens the default properties (256 cases); at least one
/// case, and a default run keeps `cases`.
fn scaled(cases: u32) -> ProptestConfig {
    let wide = u64::from(cases) * u64::from(ProptestConfig::default().cases) / 256;
    ProptestConfig::with_cases(wide.clamp(1, u64::from(u32::MAX)) as u32)
}

proptest! {
    // Full scenarios (training + detection) per case: few, heavy cases.
    #![proptest_config(scaled(3))]

    /// Flow-by-flow streaming through a one-lane [`MultiSourceExtractor`] produces
    /// the same alarm stream, meta-data, bit-identical KL series, and
    /// identical extractions as the batch pipeline.
    #[test]
    fn streaming_equals_batch(seed in 0u64..1_000) {
        let scenario = Scenario::small(seed);
        let intervals = scenario.interval_count().min(22);

        let mut batch = Engine::new(config_for(&scenario)).unwrap();
        let mut stream = one_lane(config_for(&scenario));

        let mut events = Vec::new();
        let mut batch_outcomes = Vec::new();
        for i in 0..intervals {
            let interval = scenario.generate(i);
            batch_outcomes.push(batch.process(&interval.flows));
            for flow in interval.flows {
                events.extend(stream.push(SourceId(0), flow));
            }
        }
        let (tail, summary) = stream.finish();
        events.extend(tail);

        prop_assert_eq!(events.len() as u64, intervals, "one event per interval");
        prop_assert_eq!(summary.intervals, intervals);
        prop_assert_eq!(summary.dropped_flows, 0);
        for (i, (e, reference)) in events.iter().zip(&batch_outcomes).enumerate() {
            prop_assert_eq!(e.event.index, i as u64);
            assert_outcomes_identical(
                &e.event.outcome,
                reference,
                &format!("seed={seed} interval={i}"),
            );
        }
    }

}

/// Dropping a mid-stream extractor (pipeline thread active, work in
/// flight) must join its thread without hanging or leaking — the
/// facade-level shutdown-safety check of the streaming stack.
#[test]
fn abandoned_streams_and_extractors_shut_down_cleanly() {
    let scenario = Scenario::small(3);
    let mut stream = one_lane(config_for(&scenario));
    // Enough flows to close a few intervals and keep work queued.
    for i in 0..3 {
        for flow in scenario.generate(i).flows {
            let _ = stream.push(SourceId(0), flow);
        }
    }
    drop(stream);
}
