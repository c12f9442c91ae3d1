//! Property-based tests for the detection substrate.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use anomex_detector::{
    identify_anomalous_bins, kl_distance, robust_sigma, vote, BinHasher, FeatureDetector,
    FeatureHistogram, FeatureObservation, RocCurve, MAX_BINS, SIGMA_FLOOR,
};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord, Protocol};
use anomex_traffic::Scenario;
use proptest::prelude::*;

/// The interval's keys of `feature`, in row order.
fn column_keys(cols: &FlowColumns, feature: FlowFeature) -> Vec<u64> {
    let mut keys = Vec::with_capacity(cols.len());
    cols.for_each_raw(feature, 0..cols.len(), |key| keys.push(key));
    keys
}

/// Observe `cols` with `detector` and check the scoring contracts of
/// every clone that alarmed: its bin identification starts from its own
/// KL bit for bit, its values are [`FeatureHistogram::resolve`] of its
/// bins over the column's keys (the detector resolves them once per
/// feature, from the column), and the voted values are [`vote`] of the
/// clone sets. Returns the observation.
fn observe_checked(detector: &mut FeatureDetector, cols: &FlowColumns) -> FeatureObservation {
    let observation = detector.observe_columns(cols);
    let keys = column_keys(cols, detector.feature());
    let mut alarmed = 0;
    for (clone, state) in observation.clones.iter().zip(detector.clones()) {
        let Some(id) = &clone.bin_identification else {
            assert!(!clone.alarm && clone.values.is_empty());
            continue;
        };
        alarmed += 1;
        let kl = clone.kl.expect("an alarm has a KL");
        assert_eq!(id.kl_trajectory[0].to_bits(), kl.to_bits());
        let histogram = FeatureHistogram::new(state.feature(), state.hasher(), state.bins());
        assert_eq!(clone.values, histogram.resolve(&keys, &id.bins));
    }
    assert_eq!(observation.alarmed_clones, alarmed);
    if observation.alarm {
        let sets: Vec<BTreeSet<u64>> = observation
            .clones
            .iter()
            .map(|c| c.values.iter().copied().collect())
            .collect();
        assert_eq!(observation.voted_values, vote(&sets, detector.votes()));
    }
    observation
}

/// Run every detection feature's detector (three clones, quorum `votes`)
/// over `Scenario::small(seed)` through [`observe_checked`]; returns the
/// numbers of clones that alarmed together in one feature and interval.
fn check_small_scenario(seed: u64, votes: usize) -> BTreeSet<usize> {
    let scenario = Scenario::small(seed);
    let mut detectors: Vec<FeatureDetector> = FlowFeature::DETECTION_FEATURES
        .iter()
        .map(|&feature| FeatureDetector::new(feature, 1024, 3, votes, 3.0, 10, seed))
        .collect();
    let mut alarmed = BTreeSet::new();
    for interval in 0..scenario.interval_count() {
        let cols = FlowColumns::from_flows(&scenario.generate(interval).flows);
        for detector in &mut detectors {
            let observation = observe_checked(detector, &cols);
            if observation.alarmed_clones > 0 {
                alarmed.insert(observation.alarmed_clones);
            }
        }
    }
    alarmed
}

/// The `#packets` value a generated row carries: the edges of the
/// detector's value table (it tallies values below 256), the extremes,
/// and small and arbitrary values.
fn packets(kind: u8, raw: u32) -> u32 {
    match kind {
        0 => 0,
        1 => 255,
        2 => 256,
        3 => u32::MAX,
        4 => raw % 300,
        _ => raw,
    }
}

proptest! {
    /// `FeatureDetector::observe_columns` counts each interval into
    /// every clone as a per-flow `BinHasher::bin_of` count would — for
    /// every feature (`#packets` through its value table, around the
    /// table's edge), for k ∈ {1, 7, 1 024, `MAX_BINS`}, over empty,
    /// one-flow and larger intervals, into buffers recycled from the
    /// previous intervals. After each interval a clone's reference
    /// histogram is that interval's counts and total. The values of an
    /// arbitrary subset of bins, `FeatureHistogram::resolve` over the
    /// interval's keys, are those of a `BTreeMap` of bin → values.
    #[test]
    fn observe_columns_counts_like_a_per_flow_oracle(
        intervals in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((any::<u32>(), 0u16..64, 0u8..6, any::<u32>()), 0..150)),
            1..5,
        ),
        feature_idx in 0usize..9,
        seed in any::<u64>(),
        bins in proptest::sample::select(vec![1u32, 7, 1024, MAX_BINS]),
        clones in 1usize..4,
        subsets in proptest::collection::vec(proptest::collection::vec(0u32..1100, 0..8), 3),
    ) {
        let feature = FlowFeature::EXTENDED[feature_idx];
        let mut detector = FeatureDetector::new(feature, bins, clones, 1, 3.0, 2, seed);
        for (shape, rows) in &intervals {
            // Shapes 0 and 1 cut the interval to no flow and one flow.
            let rows = &rows[..rows.len().min(match shape { 0 => 0, 1 => 1, _ => usize::MAX })];
            let flows: Vec<FlowRecord> = rows
                .iter()
                .map(|&(ip, port, kind, raw)| {
                    FlowRecord::new(
                        0,
                        Ipv4Addr::from((ip % 40).wrapping_mul(0x9E37_79B9)),
                        Ipv4Addr::from(ip.rotate_left(7) % 50),
                        port,
                        port ^ 0x1f,
                        Protocol::from_number(port as u8 % 3),
                    )
                    .with_volume(packets(kind, raw), raw)
                })
                .collect();
            let cols = FlowColumns::from_flows(&flows);
            detector.observe_columns(&cols);
            let keys = column_keys(&cols, feature);
            for (clone, subset) in detector.clones().iter().zip(&subsets) {
                let mut counts = vec![0u64; bins as usize];
                let mut values: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
                for flow in &flows {
                    let value = feature.value_of(flow).raw;
                    let bin = clone.hasher().bin_of(value, bins);
                    counts[bin as usize] += 1;
                    values.entry(bin).or_default().insert(value);
                }
                let histogram = clone.reference().expect("an interval was observed");
                prop_assert!(histogram.counts() == &counts[..], "{} k = {}", feature, bins);
                prop_assert_eq!(histogram.total(), flows.len() as u64);
                // Bins drawn past `bins` hold nothing, like empty bins.
                let want: BTreeSet<u64> = subset
                    .iter()
                    .filter_map(|bin| values.get(bin))
                    .flatten()
                    .copied()
                    .collect();
                prop_assert_eq!(
                    histogram.resolve(&keys, subset),
                    Vec::from_iter(want),
                    "{} bins {:?}",
                    feature,
                    subset
                );
                if bins <= 1024 {
                    let all: Vec<u32> = (0..bins).collect();
                    let every: BTreeSet<u64> = values.values().flatten().copied().collect();
                    prop_assert_eq!(histogram.resolve(&keys, &all), Vec::from_iter(every));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// On `Scenario::small` streams, every alarmed clone's
    /// `kl_trajectory[0]` is bit-equal to its `kl`, and the values the
    /// detector resolves once per feature are each clone's own
    /// `FeatureHistogram::resolve`.
    #[test]
    fn alarmed_clones_reuse_their_kl_and_share_one_resolve(
        seed in any::<u64>(),
        votes in 1usize..=3,
    ) {
        let alarmed = check_small_scenario(seed, votes);
        prop_assert!(!alarmed.is_empty(), "the planted events raised no clone alarm");
    }
}

/// The shared resolve covers every number of alarmed clones: over a few
/// small scenarios, features alarm with one, two and all three clones.
#[test]
fn shared_resolve_is_checked_for_one_to_all_alarmed_clones() {
    let mut seen = BTreeSet::new();
    for seed in 1..=4 {
        seen.extend(check_small_scenario(seed, 1));
    }
    assert_eq!(seen, BTreeSet::from([1, 2, 3]));
}

/// A trained detector meeting an interval whose keys are all one value,
/// or no keys at all: whatever clones alarm resolve exactly what
/// `FeatureHistogram::resolve` does (one value, or nothing).
#[test]
fn shared_resolve_handles_duplicate_and_empty_keys() {
    let background = |interval: u16| -> FlowColumns {
        let flows: Vec<FlowRecord> = (0..400u16)
            .map(|i| {
                FlowRecord::new(
                    u64::from(i),
                    Ipv4Addr::new(10, 0, (i % 7) as u8, (i % 13) as u8),
                    Ipv4Addr::new(10, 1, 0, 2),
                    4000 + i % 50,
                    1 + (i * 7 + interval) % 300,
                    Protocol::Tcp,
                )
            })
            .collect();
        FlowColumns::from_flows(&flows)
    };
    let one_value: Vec<FlowRecord> = (0..2000u64)
        .map(|i| {
            FlowRecord::new(
                i,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 1, 0, 2),
                4000,
                7000,
                Protocol::Tcp,
            )
        })
        .collect();
    for (name, last) in [
        ("all-duplicate keys", FlowColumns::from_flows(&one_value)),
        ("no keys", FlowColumns::new()),
    ] {
        for clones in 1..=4 {
            let mut detector =
                FeatureDetector::new(FlowFeature::DstPort, 256, clones, 1, 3.0, 6, 5);
            for interval in 0..10 {
                observe_checked(&mut detector, &background(interval));
            }
            let observation = observe_checked(&mut detector, &last);
            assert_eq!(
                observation.alarmed_clones, clones,
                "{name}, {clones} clones"
            );
            let want = if last.is_empty() {
                BTreeSet::new()
            } else {
                BTreeSet::from([7000])
            };
            for clone in &observation.clones {
                let values: BTreeSet<u64> = clone.values.iter().copied().collect();
                assert!(values.is_subset(&want), "{name}: {:?}", clone.values);
            }
        }
    }
}

proptest! {
    /// KL(p, p) = 0 for any histogram.
    #[test]
    fn kl_self_is_zero(h in proptest::collection::vec(0u64..100_000, 1..256)) {
        prop_assert_eq!(kl_distance(&h, &h), 0.0);
    }

    /// KL is non-negative (Gibbs' inequality, preserved by smoothing).
    #[test]
    fn kl_nonnegative(
        p in proptest::collection::vec(0u64..100_000, 32),
        q in proptest::collection::vec(0u64..100_000, 32),
    ) {
        let d = kl_distance(&p, &q);
        prop_assert!(d >= 0.0);
        prop_assert!(d.is_finite());
    }

    /// Bin identification always converges for a positive target, removes
    /// no bin twice, and ends below the target.
    #[test]
    fn binid_converges(
        reference in proptest::collection::vec(0u64..10_000, 64),
        spikes in proptest::collection::vec((0usize..64, 1u64..1_000_000), 0..8),
        target_milli in 1u64..1000,
    ) {
        let mut current = reference.clone();
        for &(bin, mass) in &spikes {
            current[bin] += mass;
        }
        let target = target_milli as f64 / 1000.0;
        let id = identify_anomalous_bins(&current, &reference, target);
        prop_assert!(id.converged);
        prop_assert!(*id.kl_trajectory.last().unwrap() <= target);
        let mut bins = id.bins.clone();
        bins.sort_unstable();
        bins.dedup();
        prop_assert_eq!(bins.len(), id.bins.len(), "a bin was removed twice");
        // Termination bound: at most one round per bin.
        prop_assert!(id.bins.len() <= reference.len());
    }

    /// Voting is monotone: raising the quorum never adds values, l=1 is
    /// the union, l=n the intersection.
    #[test]
    fn voting_monotone(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..50, 0..20), 1..6
        ),
    ) {
        let n = sets.len();
        let union: BTreeSet<u64> = sets.iter().flatten().copied().collect();
        let inter: BTreeSet<u64> = sets
            .iter()
            .skip(1)
            .fold(sets[0].clone(), |acc, s| acc.intersection(s).copied().collect());
        prop_assert_eq!(vote(&sets, 1), union);
        prop_assert_eq!(vote(&sets, n), inter);
        let mut prev = vote(&sets, 1);
        for l in 2..=n {
            let cur = vote(&sets, l);
            prop_assert!(cur.is_subset(&prev));
            prev = cur;
        }
    }

    /// The robust σ is invariant under shifts and scales with the data.
    #[test]
    fn robust_sigma_affine(sample in proptest::collection::vec(-1000.0f64..1000.0, 3..64),
                           shift in -100.0f64..100.0) {
        let sigma = robust_sigma(&sample);
        let shifted: Vec<f64> = sample.iter().map(|x| x + shift).collect();
        let sigma_shifted = robust_sigma(&shifted);
        prop_assert!((sigma - sigma_shifted).abs() < 1e-6 * sigma.max(1.0));
        let scaled: Vec<f64> = sample.iter().map(|x| x * 3.0).collect();
        let sigma_scaled = robust_sigma(&scaled);
        if sigma > SIGMA_FLOOR {
            prop_assert!((sigma_scaled / sigma - 3.0).abs() < 1e-6);
        }
    }

    /// Hash binning is deterministic and in-range for any seed.
    #[test]
    fn hash_bins_in_range(seed in any::<u64>(), values in proptest::collection::vec(any::<u64>(), 1..100), bins in 1u32..4096) {
        let h = BinHasher::new(seed);
        for &v in &values {
            let b = h.bin_of(v, bins);
            prop_assert!(b < bins);
            prop_assert_eq!(b, h.bin_of(v, bins));
        }
    }

    /// ROC curves are monotone with endpoints (0,0) and (1,1), and AUC is
    /// within [0,1].
    #[test]
    fn roc_invariants(
        scored in proptest::collection::vec((0.0f64..100.0, any::<bool>()), 2..100),
    ) {
        let scores: Vec<f64> = scored.iter().map(|&(s, _)| s).collect();
        let truth: Vec<bool> = scored.iter().map(|&(_, t)| t).collect();
        let roc = RocCurve::from_scores(&scores, &truth);
        let first = roc.points.first().unwrap();
        prop_assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        let last = roc.points.last().unwrap();
        prop_assert!(last.fpr >= 1.0 - 1e-9 || truth.iter().all(|&t| t));
        for w in roc.points.windows(2) {
            prop_assert!(w[1].fpr >= w[0].fpr - 1e-12);
            prop_assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
        let auc = roc.auc();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&auc));
    }
}
