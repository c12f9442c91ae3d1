//! The engine against the paper's method written out once
//! (`tests/reference`): on generated scenarios, under varied k, n, l, α,
//! training length, pre-filter and transaction shape, offline and
//! streamed, every interval must carry the same alarms, the same
//! anomalous bins, the same meta-data and the same item-sets, with KL
//! equal within 1e-12 relative.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! case.

mod reference;

use anomex::core::{IntervalOutcome, PrefilterMode, TransactionMode};
use anomex::detector::DetectorBank;
use anomex::mining::ItemSet;
use anomex::prelude::*;
use proptest::prelude::*;
use reference::{ItemSets, Paper, Params, Report};

/// One case's choices.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    k: u32,
    clones: usize,
    votes: usize,
    alpha: f64,
    training: usize,
    union: bool,
    prefixes: bool,
    min_support: u64,
    streamed: bool,
}

/// What a case reached, for the coverage test.
#[derive(Debug, Default)]
struct Reached {
    /// Extractions compared.
    extractions: usize,
    /// Extractions with an item-set of two items or more, so some
    /// frequent set was not maximal.
    non_maximal: usize,
    /// Extractions whose meta-data spans two features or more, so union
    /// and intersection can differ.
    multi_feature: usize,
    /// Clones that alarmed while their feature stayed below quorum.
    below_quorum: usize,
}

fn config_of(case: &Case, scenario: &Scenario) -> ExtractionConfig {
    let mut config = ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        min_support: case.min_support,
        prefilter: if case.union {
            PrefilterMode::Union
        } else {
            PrefilterMode::Intersection
        },
        transactions: if case.prefixes {
            TransactionMode::WithPrefixes
        } else {
            TransactionMode::Canonical
        },
        ..ExtractionConfig::default()
    };
    let detector = &mut config.detector;
    (detector.bins, detector.clones, detector.votes) = (case.k, case.clones, case.votes);
    (detector.alpha, detector.training_intervals) = (case.alpha, case.training);
    detector.seed = case.seed;
    config
}

/// The engine's outcomes for every interval, offline or streamed.
fn engine_outcomes(
    config: ExtractionConfig,
    scenario: &Scenario,
    streamed: bool,
) -> Vec<IntervalOutcome> {
    let intervals = 0..scenario.interval_count();
    if !streamed {
        let mut engine = Engine::new(config).expect("valid configuration");
        return intervals
            .map(|i| engine.process(&scenario.generate(i).flows))
            .collect();
    }
    let one = [SourceSpec::new(0u32, 0)];
    let mut stream = MultiSourceExtractor::new(config, &one, None).expect("valid configuration");
    let mut events = Vec::new();
    for i in intervals {
        for flow in scenario.generate(i).flows {
            events.extend(stream.push(SourceId(0), flow));
        }
    }
    events.extend(stream.finish().0);
    events.into_iter().map(|e| e.event.outcome).collect()
}

fn itemsets_of(sets: &[ItemSet]) -> ItemSets {
    (sets.iter())
        .map(|set| {
            let items = set
                .items()
                .iter()
                .map(|i| (i.feature(), i.value()))
                .collect();
            (items, set.support)
        })
        .collect()
}

fn metadata_of(md: &MetaData) -> reference::MetaData {
    (md.features())
        .map(|f| (f, md.values_for(f).unwrap().iter().copied().collect()))
        .collect()
}

/// Compare one interval, printing `context` on a difference.
fn compare(got: &IntervalOutcome, want: &Report, context: &str, reached: &mut Reached) {
    let observation = &got.observation;
    assert_eq!(observation.alarm, want.alarm, "alarm: {context}");
    assert_eq!(observation.features.len(), want.features.len(), "{context}");
    for (feature, wanted) in observation.features.iter().zip(&want.features) {
        let context = format!("{} {context}", wanted.feature);
        assert_eq!(feature.feature, wanted.feature, "{context}");
        assert_eq!(feature.alarm, wanted.alarm, "feature alarm: {context}");
        for (c, (clone, w)) in feature.clones.iter().zip(&wanted.clones).enumerate() {
            match (clone.kl, w.kl) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
                    "clone {c} KL {a} vs {b}: {context}"
                ),
                (a, b) => panic!("clone {c} KL {a:?} vs {b:?}: {context}"),
            }
            assert_eq!(clone.alarm, w.alarm, "clone {c} alarm: {context}");
            let bins = clone.bin_identification.as_ref().map(|id| &id.bins);
            assert_eq!(bins, w.bins.as_ref(), "clone {c} bins: {context}");
            reached.below_quorum += usize::from(clone.alarm && !feature.alarm);
        }
    }
    assert_eq!(
        metadata_of(&observation.metadata),
        want.metadata,
        "meta-data: {context}"
    );
    let extraction = got.extraction.as_ref();
    let got = extraction.map(|e| (e.suspicious_flows, itemsets_of(&e.itemsets)));
    assert_eq!(got, want.extraction, "extraction: {context}");
    if let Some((_, itemsets)) = &want.extraction {
        reached.extractions += 1;
        reached.non_maximal += usize::from(itemsets.keys().any(|set| set.len() > 1));
        reached.multi_feature += usize::from(want.metadata.len() > 1);
    }
}

/// Run one case over every interval of `Scenario::small(case.seed)`.
fn check(case: &Case) -> Reached {
    let scenario = Scenario::small(case.seed);
    let config = config_of(case, &scenario);
    let hashers = (DetectorBank::new(&config.detector).detectors().iter())
        .map(|d| (d.feature(), d.clones().iter().map(|c| c.hasher()).collect()))
        .collect();
    let mut paper = Paper::new(
        Params {
            k: case.k,
            votes: case.votes,
            alpha: case.alpha,
            training: case.training,
            union: case.union,
            prefixes: case.prefixes,
            min_support: case.min_support,
        },
        hashers,
    );
    let outcomes = engine_outcomes(config, &scenario, case.streamed);
    assert_eq!(outcomes.len() as u64, scenario.interval_count(), "{case:?}");
    let mut reached = Reached::default();
    for (i, outcome) in outcomes.iter().enumerate() {
        let want = paper.interval(&scenario.generate(i as u64).flows);
        compare(
            outcome,
            &want,
            &format!("interval {i} of {case:?}"),
            &mut reached,
        );
    }
    reached
}

/// `cases`, scaled by `PROPTEST_CASES / 256` so a wide sweep widens this
/// property as it widens the default ones (256 cases); at least one case.
fn scaled(cases: u32) -> ProptestConfig {
    let wide = u64::from(cases) * u64::from(ProptestConfig::default().cases) / 256;
    ProptestConfig::with_cases(wide.clamp(1, u64::from(u32::MAX)) as u32)
}

proptest! {
    // Whole scenarios per case, each run twice: few, heavy cases.
    #![proptest_config(scaled(4))]

    #[test]
    fn engine_matches_the_paper(
        seed in 0u64..1_000,
        k in proptest::sample::select(vec![16u32, 128, 1024]),
        clones in 1usize..=4,
        quorum in 0usize..4,
        alpha_tenths in 20u32..=45,
        training in 4usize..=12,
        union in any::<bool>(),
        prefixes in any::<bool>(),
        min_support in proptest::sample::select(vec![150u64, 400, 1200]),
        streamed in any::<bool>(),
    ) {
        check(&Case {
            seed,
            k,
            clones,
            votes: 1 + quorum % clones,
            alpha: f64::from(alpha_tenths) / 10.0,
            training,
            union,
            prefixes,
            min_support,
            streamed,
        });
    }
}

/// Two fixed cases reach what the property must compare: extractions
/// whose item-sets are not all single items (so the maximal filter
/// decides) and meta-data over two features or more (so union and
/// intersection differ), in both pre-filter modes, offline and streamed;
/// and clones alarming below their feature's quorum.
#[test]
fn the_cases_reach_every_stage() {
    let streamed = Case {
        seed: 906,
        k: 1024,
        clones: 4,
        votes: 4,
        alpha: 4.0,
        training: 7,
        union: false,
        prefixes: true,
        min_support: 150,
        streamed: true,
    };
    let offline = Case {
        seed: 973,
        k: 128,
        clones: 2,
        votes: 1,
        alpha: 4.5,
        training: 10,
        union: true,
        prefixes: false,
        min_support: 150,
        streamed: false,
    };
    for case in [&streamed, &offline] {
        let reached = check(case);
        assert!(reached.non_maximal > 0, "{reached:?} {case:?}");
        assert!(reached.multi_feature > 0, "{reached:?} {case:?}");
        if case.streamed {
            assert!(reached.below_quorum > 0, "{reached:?} {case:?}");
        }
    }
}
