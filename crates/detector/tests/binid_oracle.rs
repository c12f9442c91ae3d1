//! Bin identification against its direct recomputation: the oracle
//! below is the procedure as the paper states it — each round re-scans
//! every bin for the largest deviation and recomputes the full smoothed
//! KL distance — and `identify_anomalous_bins` (one ranking, a running
//! sum) must take the same decisions on every input.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! whole failing case.

use anomex_detector::{identify_anomalous_bins, kl_distance, BinIdentification};
use proptest::collection::vec;
use proptest::prelude::*;

/// The direct recomputation: O(k) per round for the scan and the KL.
fn oracle(current: &[u64], reference: &[u64], target_kl: f64) -> BinIdentification {
    let mut work: Vec<u64> = current.to_vec();
    let mut bins = Vec::new();
    let mut kl_trajectory = vec![kl_distance(&work, reference)];
    while *kl_trajectory.last().expect("non-empty") > target_kl {
        // `max_by_key` returns the last maximum: ties go to the highest bin.
        let candidate = work
            .iter()
            .zip(reference)
            .enumerate()
            .filter(|(_, (&w, &r))| w != r)
            .max_by_key(|(_, (&w, &r))| w.abs_diff(r));
        let Some((bin, _)) = candidate else {
            return BinIdentification {
                bins,
                kl_trajectory,
                converged: false,
            };
        };
        work[bin] = reference[bin];
        bins.push(bin as u32);
        kl_trajectory.push(kl_distance(&work, reference));
    }
    BinIdentification {
        bins,
        kl_trajectory,
        converged: true,
    }
}

/// The rounding bound `identify_anomalous_bins` guards its decisions
/// with, for the trajectory entry after removing `removed`.
fn rounding_bound(current: &[u64], reference: &[u64], removed: &[u32]) -> f64 {
    let k = current.len() as f64;
    let scale: f64 = current
        .iter()
        .zip(reference)
        .filter(|(w, r)| w != r)
        .map(|(&w, &r)| {
            let w1 = w as f64 + 1.0;
            (w1 * (w1 / (r as f64 + 1.0)).log2()).abs() + w1
        })
        .sum();
    let mut w_total: u64 = current.iter().sum();
    for &bin in removed {
        w_total = w_total - current[bin as usize] + reference[bin as usize];
    }
    let p = w_total as f64 + k;
    let q = reference.iter().sum::<u64>() as f64 + k;
    f64::EPSILON
        * (2.0 * k + removed.len() as f64 + 16.0)
        * (scale / p + (q / p).log2().abs() + 1.0)
}

/// Same bins, convergence and stopping round as the oracle; the first KL
/// bit for bit, the later ones within the rounding bound.
fn assert_matches_oracle(current: &[u64], reference: &[u64], target_kl: f64) {
    let case = format!("current {current:?} reference {reference:?} target {target_kl:e}");
    let want = oracle(current, reference, target_kl);
    let got = identify_anomalous_bins(current, reference, target_kl);
    assert_eq!(got.bins, want.bins, "bins: {case}");
    assert_eq!(got.converged, want.converged, "converged: {case}");
    assert_eq!(
        got.kl_trajectory.len(),
        want.kl_trajectory.len(),
        "stopping round: {case}"
    );
    assert_eq!(
        got.kl_trajectory[0].to_bits(),
        want.kl_trajectory[0].to_bits(),
        "initial KL: {case}"
    );
    for round in 1..want.kl_trajectory.len() {
        let bound = rounding_bound(current, reference, &want.bins[..round]);
        let (g, w) = (got.kl_trajectory[round], want.kl_trajectory[round]);
        assert!(
            (g - w).abs() <= bound,
            "round {round}: {g:e} vs {w:e} (bound {bound:e}): {case}"
        );
    }
}

/// A target of one of five kinds: negative (unreachable), tiny, exactly
/// one of the oracle's own trajectory values (the `>` boundary), a
/// fraction of the initial distance, or zero.
fn pick_target(current: &[u64], reference: &[u64], kind: u8, pick: usize, frac: f64) -> f64 {
    match kind {
        0 => -frac.max(f64::MIN_POSITIVE),
        1 => 1e-9,
        2 => {
            let full = oracle(current, reference, f64::NEG_INFINITY);
            full.kl_trajectory[pick % full.kl_trajectory.len()]
        }
        3 => frac * kl_distance(current, reference),
        _ => 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Up to 64 bins of small counts, so many deviations tie; a quarter
    /// of the cases are identical histograms, a quarter add spikes, and a
    /// quarter compare against a reference about a thousand times busier.
    #[test]
    fn one_ranking_and_a_running_sum_decide_like_the_oracle(
        k in 1usize..=64,
        pairs in vec((0u64..6, 0u64..6), 64),
        shape in 0u8..4,
        spikes in vec((0usize..64, 1u64..100_000), 0..4),
        kind in 0u8..5,
        pick in any::<usize>(),
        frac in 0.0f64..1.0,
    ) {
        let reference: Vec<u64> = pairs[..k].iter().map(|&(r, _)| r).collect();
        let mut current: Vec<u64> = match shape {
            0 => reference.clone(),
            _ => pairs[..k].iter().map(|&(_, w)| w).collect(),
        };
        if shape == 2 {
            for &(bin, mass) in &spikes {
                current[bin % k] += mass;
            }
        }
        let reference = if shape == 3 {
            reference.iter().map(|r| r * 1000 + 7).collect()
        } else {
            reference
        };
        let target = pick_target(&current, &reference, kind, pick, frac);
        assert_matches_oracle(&current, &reference, target);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The detector's own size: 1 024 bins of a few thousand flows, with
    /// floods on a few bins.
    #[test]
    fn detector_sized_histograms_decide_like_the_oracle(
        base in vec((0u64..12, 0u64..12), 1024),
        spikes in vec((0usize..1024, 1u64..50_000), 0..6),
        kind in 0u8..5,
        pick in any::<usize>(),
        frac in 0.0f64..1.0,
    ) {
        let reference: Vec<u64> = base.iter().map(|&(r, _)| r).collect();
        let mut current: Vec<u64> = base.iter().map(|&(_, w)| w).collect();
        for &(bin, mass) in &spikes {
            current[bin] += mass;
        }
        let target = pick_target(&current, &reference, kind, pick, frac);
        assert_matches_oracle(&current, &reference, target);
    }
}
