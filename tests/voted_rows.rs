//! The fused pre-filter: on an alarmed interval the engine takes its
//! suspicious rows from the marks the detector's resolve pass leaves
//! ([`DetectorBank::voted_rows`], joined by [`prefilter_indices_voted`]),
//! not from a scan of the meta-data's columns. Those rows must be
//! exactly what [`prefilter_indices_columns`] keeps under
//! the interval's voted meta-data, in both pre-filter modes, at every
//! quorum, for small and large voted sets, and when a feature's clones
//! alarm below the quorum beside one that reaches it.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! case.

use std::net::Ipv4Addr;

use anomex::core::{
    prefilter_indices_columns, prefilter_indices_voted, Engine, ExtractionConfig, PrefilterMode,
};
use anomex::detector::{BankObservation, DetectorBank, DetectorConfig};
use anomex::netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol};
use proptest::prelude::*;

/// A small deterministic generator (SplitMix64): the intervals of a case
/// follow from its seed alone.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One interval: background flows over `spread` values per feature, and
/// on a flood interval a burst of flows sharing a destination and port,
/// whose sources and packet counts spread over `flood_spread` values.
fn interval(draws: &mut Draws, spread: u64, flood: Option<(u64, u64)>) -> FlowColumns {
    let mut flows = Vec::new();
    for _ in 0..200 + draws.below(40) {
        flows.push(
            FlowRecord::new(
                0,
                Ipv4Addr::from(0x0a00_0000 + draws.below(spread) as u32),
                Ipv4Addr::from(0xc0a8_0000 + draws.below(spread) as u32),
                1024 + draws.below(spread) as u16,
                80 + draws.below(spread) as u16,
                Protocol::Tcp,
            )
            .with_volume(1 + draws.below(spread.min(30)) as u32, 100),
        );
    }
    if let Some((size, flood_spread)) = flood {
        for _ in 0..size {
            flows.push(
                FlowRecord::new(
                    0,
                    Ipv4Addr::from(0x3000_0000 + draws.below(flood_spread) as u32),
                    Ipv4Addr::new(10, 9, 9, 9),
                    2000 + draws.below(flood_spread) as u16,
                    7000,
                    Protocol::Udp,
                )
                .with_volume(1 + draws.below(flood_spread) as u32, 60),
            );
        }
    }
    FlowColumns::from_flows(&flows)
}

/// What one case's intervals showed, for the coverage test.
#[derive(Debug, Default)]
struct Seen {
    /// Largest voted set of one feature, over the alarmed intervals.
    largest_vote: usize,
    /// Smallest non-empty voted set of one feature.
    smallest_vote: Option<usize>,
    /// An interval where one feature reached its quorum while another's
    /// clones alarmed below it.
    below_quorum_beside_alarm: bool,
    /// Alarmed intervals with non-empty meta-data.
    extracted: usize,
}

/// Run one case: a bank and an engine with `n` clones of `bins` bins and
/// quorum `l` see twelve plain intervals (training takes the first ten)
/// and eight more, every other one flooded; on every interval the marked
/// rows must be the pre-filter's in both modes, the engine's suspicious
/// rows the pre-filter's in its mode (none without an extraction), and
/// its suspicious flows their count.
fn check_case(seed: u64, bins: u32, n: usize, l: usize, mode: PrefilterMode) -> Seen {
    let detector = DetectorConfig {
        bins,
        clones: n,
        votes: l,
        training_intervals: 8,
        seed,
        ..DetectorConfig::default()
    };
    let mut bank = DetectorBank::new(&detector);
    let mut engine = Engine::new(ExtractionConfig {
        detector,
        min_support: 20,
        prefilter: mode,
        ..ExtractionConfig::default()
    })
    .expect("valid configuration");
    let mut draws = Draws(seed);
    let spread = 4 + draws.below(60);
    let mut seen = Seen::default();
    for i in 0..20 {
        let flood = (i >= 12 && i % 2 == 0).then(|| (20 + draws.below(300), 1 + draws.below(40)));
        let cols = interval(&mut draws, spread, flood);
        let observation = bank.observe_columns(&cols);
        let case = format!("seed {seed} bins {bins} n {n} l {l} interval {i}");
        let md = &observation.metadata;
        for filter in [PrefilterMode::Union, PrefilterMode::Intersection] {
            assert_eq!(
                prefilter_indices_voted(bank.voted_rows(), md, filter),
                prefilter_indices_columns(&cols, md, filter),
                "{filter:?}: {case}"
            );
        }
        let outcome = engine.process(&cols);
        assert_eq!(outcome.observation.metadata, *md, "{case}");
        let extracted = observation.alarm && !md.is_empty();
        let scanned = if extracted {
            prefilter_indices_columns(&cols, md, mode)
        } else {
            Vec::new()
        };
        assert_eq!(outcome.suspicious_rows, scanned, "engine rows: {case}");
        assert_eq!(
            outcome.extraction.map(|e| e.suspicious_flows),
            extracted.then_some(outcome.suspicious_rows.len()),
            "engine: {case}"
        );
        record(&mut seen, &observation, extracted);
    }
    seen
}

fn record(seen: &mut Seen, observation: &BankObservation, extracted: bool) {
    seen.extracted += usize::from(extracted);
    for feature in observation.features.iter().filter(|f| f.alarm) {
        let size = (observation.metadata.values_for(feature.feature)).map_or(0, <[u64]>::len);
        seen.largest_vote = seen.largest_vote.max(size);
        if size > 0 {
            seen.smallest_vote = Some(seen.smallest_vote.map_or(size, |s| s.min(size)));
        }
    }
    let quorum = observation.features.iter().any(|f| f.alarm);
    let below = (observation.features.iter()).any(|f| !f.alarm && f.alarmed_clones > 0);
    seen.below_quorum_beside_alarm |= quorum && below;
}

proptest! {
    /// Generated alarmed intervals: the marked rows are the pre-filter's
    /// under the voted meta-data, and the engine mines that many flows.
    #[test]
    fn marked_rows_are_the_prefilter_rows(
        seed in any::<u64>(),
        bins in 0usize..4,
        n in 1usize..=5,
        l in 0usize..5,
        union in any::<bool>(),
    ) {
        let mode = if union { PrefilterMode::Union } else { PrefilterMode::Intersection };
        check_case(seed, [2, 8, 64, 1024][bins], n, 1 + l % n, mode);
    }
}

/// The cases above reach what they must cover: every quorum `l` in
/// `1..=n`, voted sets of at most 16 values and of more, and a feature
/// alarming below its quorum beside one that reaches it — on fixed
/// seeds, so the coverage does not depend on the draw.
#[test]
fn the_cases_cover_both_modes_every_quorum_and_both_set_sizes() {
    let mut all = Seen::default();
    for n in 1..=4 {
        for l in 1..=n {
            let mut extracted = 0;
            for (i, bins) in [2u32, 8, 64, 1024].into_iter().enumerate() {
                for mode in [PrefilterMode::Union, PrefilterMode::Intersection] {
                    let seen = check_case(0x5EED + i as u64, bins, n, l, mode);
                    extracted += seen.extracted;
                    all.largest_vote = all.largest_vote.max(seen.largest_vote);
                    if let Some(size) = seen.smallest_vote {
                        all.smallest_vote = Some(all.smallest_vote.map_or(size, |s| s.min(size)));
                    }
                    all.below_quorum_beside_alarm |= seen.below_quorum_beside_alarm;
                }
            }
            assert!(extracted > 0, "n {n} l {l}: no extraction");
        }
    }
    assert!(
        all.largest_vote > 16,
        "largest voted set {}",
        all.largest_vote
    );
    assert!(
        all.smallest_vote.is_some_and(|s| s <= 16),
        "{:?}",
        all.smallest_vote
    );
    assert!(
        all.below_quorum_beside_alarm,
        "no feature alarmed below its quorum"
    );
}

/// Training intervals reach no quorum and leave no rows.
#[test]
fn an_interval_without_quorum_leaves_no_rows() {
    let mut bank = DetectorBank::new(&DetectorConfig::default());
    let mut draws = Draws(7);
    for _ in 0..3 {
        let cols = interval(&mut draws, 50, Some((100, 3)));
        let observation = bank.observe_columns(&cols);
        assert!(!observation.alarm, "training intervals do not alarm");
        assert!(FlowFeature::EXTENDED
            .iter()
            .all(|&f| bank.voted_rows().feature_rows(f).is_none()));
    }
}
