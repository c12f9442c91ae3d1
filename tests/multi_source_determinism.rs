//! Multi-source determinism suite: the N-exporter merge engine must be
//! **bit-identical** to batch extraction of the per-interval
//! concatenation of all sources' flows — for every source count,
//! clock skew, and cross-source interleaving, and even when a source
//! goes silent mid-stream. The merge layer adds per-source assemblers
//! and a watermark grid on top of the streaming stack, and none of it
//! may perturb a single bit of output: a merged interval is exactly the
//! source-ordered concatenation of each lane's window, fed in order
//! through the same engine the batch path uses.

use anomex::core::{Engine, Extraction, ExtractionConfig, IntervalOutcome, MultiSourceExtractor};
use anomex::prelude::*;
use anomex::traffic::{LinkConfig, MultiSourceScenario};
use proptest::prelude::*;

fn config_for(interval_ms: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    }
}

/// SplitMix64: a tiny deterministic generator for interleaving choices.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// Assert one merged outcome equals one batch outcome, KL bits and all.
fn assert_outcomes_identical(a: &IntervalOutcome, b: &IntervalOutcome, context: &str) {
    assert_eq!(a.observation.alarm, b.observation.alarm, "{context}");
    assert_eq!(a.observation.metadata, b.observation.metadata, "{context}");
    for (x, y) in a.observation.features.iter().zip(&b.observation.features) {
        assert_eq!(x.alarm, y.alarm, "{context}");
        assert_eq!(&x.voted_values, &y.voted_values, "{context}");
        for (cx, cy) in x.clones.iter().zip(&y.clones) {
            assert_eq!(
                cx.kl.map(f64::to_bits),
                cy.kl.map(f64::to_bits),
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

proptest! {
    // Full scenarios (training + detection) per case: few, heavy cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// N-source merged extraction is bit-identical to batch
    /// extraction of the per-interval concatenation of all sources'
    /// flows — for arbitrary source counts, per-source clock skews,
    /// and cross-source delivery orders (whole-interval rotation),
    /// including one source going silent mid-stream.
    #[test]
    fn multi_source_equals_batch_of_concatenated_flows(
        seed in 0u64..1_000,
        n_sources in 1usize..=3,
        skew_step in 0u64..2_000,
        silence_raw in 0u64..20,
    ) {
        // The vendored proptest has no `option::of`; values below 12
        // mean "no source goes silent", 12..20 are the cutoff interval.
        let silence_at = (silence_raw >= 12).then_some(silence_raw);
        let rates = [1.0, 0.45, 0.3];
        let links: Vec<LinkConfig> = (0..n_sources)
            .map(|i| LinkConfig {
                rate: rates[i],
                skew_ms: i as u64 * skew_step,
                carries_anomalies: i == 0,
            })
            .collect();
        let scenario = MultiSourceScenario::small(seed, links);
        let intervals = scenario.interval_count().min(22);
        // A source can only go silent when there is another one to keep
        // the stream (and the watermark) alive.
        let silent = (n_sources > 1).then_some(n_sources - 1).zip(silence_at);

        // Batch reference: one engine over the per-interval
        // concatenation (source order), silent source contributing
        // nothing from its cutoff on.
        let config = config_for(scenario.interval_ms());
        let mut batch = Engine::new(config.clone()).unwrap();
        let mut reference = Vec::new();
        for i in 0..intervals {
            let mut merged = Vec::new();
            for s in 0..n_sources {
                if silent.is_some_and(|(ss, c)| ss == s && i >= c) {
                    continue;
                }
                merged.extend(scenario.generate(s, i).flows);
            }
            reference.push(batch.process(&merged));
        }

        // Streamed fan-in: deliver whole per-source intervals in a
        // rotated order that changes every interval, so sources race
        // each other differently case by case.
        let mut engine =
            MultiSourceExtractor::new(config, &scenario.source_specs(), None).unwrap();
        let mut order_state = seed ^ 0xC0FF_EE00;
        let mut events = Vec::new();
        for i in 0..intervals {
            let rotation = (mix(&mut order_state) as usize) % n_sources;
            for r in 0..n_sources {
                let s = (r + rotation) % n_sources;
                if let Some((ss, c)) = silent {
                    if s == ss && i >= c {
                        if i == c {
                            events.extend(engine.finish_source(SourceId(s as u32)));
                        }
                        continue;
                    }
                }
                for flow in scenario.generate(s, i).flows {
                    events.extend(engine.push(SourceId(s as u32), flow));
                }
            }
        }
        let (tail, summary) = engine.finish();
        events.extend(tail);

        prop_assert_eq!(events.len() as u64, intervals, "one event per grid interval");
        prop_assert_eq!(summary.intervals, intervals);
        prop_assert_eq!(summary.dropped_flows, 0);
        prop_assert_eq!(summary.sources.len(), n_sources);
        for (i, (event, reference)) in events.iter().zip(&reference).enumerate() {
            prop_assert_eq!(event.event.index, i as u64);
            prop_assert_eq!(
                event.source_flows.iter().sum::<usize>(),
                event.event.flows,
                "per-source weights sum to the merged flow count"
            );
            assert_outcomes_identical(
                &event.event.outcome,
                reference,
                &format!(
                    "seed={seed} sources={n_sources} \
                     skew={skew_step} silent={silent:?} interval={i}"
                ),
            );
        }
    }

    /// Flow-level interleaving invariance: any two cross-source delivery
    /// orders (per-source order preserved) yield byte-for-byte the same
    /// merged event stream — the merge's scheduling independence, on a
    /// workload small enough to exercise per-flow races.
    #[test]
    fn merged_events_are_interleaving_invariant(
        seed in 0u64..1_000,
        order_a in 0u64..1_000_000,
        order_b in 0u64..1_000_000,
    ) {
        let interval_ms = 1_000u64;
        // Two hand-built lanes, four windows each, with a skewed clock
        // on lane 1.
        let specs = [SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 300)];
        let lane = |origin: u64, salt: u64| -> Vec<FlowRecord> {
            let mut state = seed ^ salt;
            (0..40u64)
                .map(|i| {
                    let window = i / 10;
                    let jitter = mix(&mut state) % interval_ms;
                    FlowRecord::new(
                        origin + window * interval_ms + jitter,
                        std::net::Ipv4Addr::new(10, 0, (mix(&mut state) % 8) as u8, 1),
                        std::net::Ipv4Addr::new(10, 1, 0, (mix(&mut state) % 8) as u8),
                        (1000 + mix(&mut state) % 8) as u16,
                        (53 + mix(&mut state) % 3) as u16,
                        Protocol::Udp,
                    )
                })
                .collect()
        };
        let mut lanes = vec![lane(0, 0xAA), lane(300, 0xBB)];
        for flows in &mut lanes {
            flows.sort_by_key(|f| f.start_ms);
        }

        let run = |order_seed: u64| -> Vec<(u64, usize, Vec<usize>, bool)> {
            let mut engine =
                MultiSourceExtractor::new(config_for(interval_ms), &specs, None).unwrap();
            let mut cursors = [0usize; 2];
            let mut state = order_seed;
            let mut events = Vec::new();
            loop {
                let remaining: Vec<usize> = (0..2)
                    .filter(|&s| cursors[s] < lanes[s].len())
                    .collect();
                if remaining.is_empty() {
                    break;
                }
                let s = remaining[(mix(&mut state) as usize) % remaining.len()];
                let flow = lanes[s][cursors[s]];
                cursors[s] += 1;
                events.extend(engine.push(SourceId(s as u32), flow));
            }
            let (tail, _) = engine.finish();
            events.extend(tail);
            events
                .into_iter()
                .map(|e| {
                    let alarmed = e.alarmed();
                    (e.event.index, e.event.flows, e.source_flows, alarmed)
                })
                .collect()
        };
        prop_assert_eq!(run(order_a), run(order_b));
    }
}
