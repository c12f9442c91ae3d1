//! Bin identification against two references.
//!
//! - **The direct recomputation.** The oracle below is the procedure as
//!   the paper states it — each round re-scans every bin for the largest
//!   deviation and recomputes the full smoothed KL distance — and
//!   `identify_anomalous_bins` must take the same decisions on every
//!   input.
//! - **The ranked running sum, bit for bit.** `heap_ranking` is the
//!   earlier form of the procedure: a heap over every differing bin,
//!   built before the first round, and each term of the running sum
//!   computed directly. The detector's form finds the first round's bin
//!   by its set-up scan and takes small-count terms from a table, and
//!   must give the same bins, convergence and every `kl_trajectory`
//!   entry to the bit.
//!
//! The vendored proptest does not shrink, so every assertion prints the
//! whole failing case.

use std::collections::BinaryHeap;

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

/// The ranked running sum as it stood before the first round was taken
/// by a scan: every differing bin ranked in a max-heap on
/// `(|w − r|, bin)` up front, one pop per round, each term of S computed
/// directly, and a round within the rounding bound of the target
/// re-decided with a direct KL.
fn heap_ranking(current: &[u64], reference: &[u64], target_kl: f64) -> BinIdentification {
    let term = |w: u64, r: u64| {
        let w1 = w as f64 + 1.0;
        w1 * (w1 / (r as f64 + 1.0)).log2()
    };
    let mut bins = Vec::new();
    let mut kl_trajectory = vec![kl_distance(current, reference)];
    if kl_trajectory[0] <= target_kl {
        return BinIdentification {
            bins,
            kl_trajectory,
            converged: true,
        };
    }
    let (mut w_total, mut r_total) = (0u64, 0u64);
    let (mut sum, mut scale) = (0.0f64, 0.0f64);
    let mut ranking = Vec::new();
    for (bin, (&w, &r)) in current.iter().zip(reference).enumerate() {
        w_total += w;
        r_total += r;
        if w != r {
            let t = term(w, r);
            sum += t;
            scale += t.abs() + (w as f64 + 1.0);
            ranking.push((w.abs_diff(r), bin as u32));
        }
    }
    let mut ranking = BinaryHeap::from(ranking);
    let k = current.len() as f64;
    let q = r_total as f64 + k;
    let mut work = current.to_vec();
    while *kl_trajectory.last().expect("non-empty") > target_kl {
        let Some((_, bin)) = ranking.pop() else {
            return BinIdentification {
                bins,
                kl_trajectory,
                converged: false,
            };
        };
        let (w, r) = (current[bin as usize], reference[bin as usize]);
        sum -= term(w, r);
        w_total = w_total - w + r;
        work[bin as usize] = r;
        bins.push(bin);
        let p = w_total as f64 + k;
        let log_ratio = (q / p).log2();
        let mut kl = (sum / p + log_ratio).max(0.0);
        let bound = f64::EPSILON
            * (2.0 * k + bins.len() as f64 + 16.0)
            * (scale / p + log_ratio.abs() + 1.0);
        if (kl - target_kl).abs() <= bound {
            kl = kl_distance(&work, reference);
        }
        kl_trajectory.push(kl);
    }
    BinIdentification {
        bins,
        kl_trajectory,
        converged: true,
    }
}

/// The same bins, convergence and `kl_trajectory` bits as
/// [`heap_ranking`]; returns the number of rounds taken.
fn assert_bits_match_heap_ranking(current: &[u64], reference: &[u64], target_kl: f64) -> usize {
    let case = format!("current {current:?} reference {reference:?} target {target_kl:e}");
    let want = heap_ranking(current, reference, target_kl);
    let got = identify_anomalous_bins(current, reference, target_kl);
    assert_eq!(got.bins, want.bins, "bins: {case}");
    assert_eq!(got.converged, want.converged, "converged: {case}");
    let bits = |id: &BinIdentification| -> Vec<u64> {
        id.kl_trajectory.iter().map(|kl| kl.to_bits()).collect()
    };
    assert_eq!(bits(&got), bits(&want), "kl_trajectory: {case}");
    got.bins.len()
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

proptest! {
    /// Bit for bit against the heap ranking, on five shapes: tied small
    /// counts, counts from 0 to a few hundred (so pairs fall on both
    /// sides of the 64-count table), floods over a busy reference, a
    /// diffuse difference on every bin cleaned down to a tiny target
    /// (hundreds of rounds), and one spike whose removal alone clears
    /// the alarm (exactly one round).
    #[test]
    fn bits_match_the_heap_ranking(
        shape in 0u8..5,
        k in 1usize..=1024,
        pairs in vec((0u64..300, 0u64..300), 1024),
        spike in (0usize..1024, 1u64..100_000),
        kind in 0u8..5,
        pick in any::<usize>(),
        frac in 0.0f64..1.0,
    ) {
        let (mut current, mut reference): (Vec<u64>, Vec<u64>) = match shape {
            0 => pairs[..k].iter().map(|&(w, r)| (w % 4, r % 4)).unzip(),
            1 => pairs[..k].iter().copied().unzip(),
            2 => pairs[..k].iter().map(|&(w, r)| (w % 16, r % 16 * 1000)).unzip(),
            3 => (0..k as u64).map(|bin| (11 + bin % 3, 10)).unzip(),
            _ => pairs[..k].iter().map(|&(_, r)| (r % 50, r % 50)).unzip(),
        };
        let target = match shape {
            3 => 1e-300,
            4 => {
                // The spike's own KL is the start; its removal ends it.
                current[spike.0 % k] += spike.1;
                kl_distance(&current, &reference) * frac.max(1e-3)
            }
            _ => {
                if shape == 2 {
                    current[spike.0 % k] += spike.1;
                }
                pick_target(&current, &reference, kind, pick, frac)
            }
        };
        if shape == 0 && kind == 4 {
            // Every deviation tied: the highest bin goes first.
            reference.iter_mut().for_each(|r| *r = 2);
            current.iter_mut().enumerate().for_each(|(bin, w)| *w = 1 + 2 * (bin as u64 % 2));
        }
        let rounds = assert_bits_match_heap_ranking(&current, &reference, target);
        if shape == 3 && k > 1 {
            prop_assert_eq!(rounds, k, "every differing bin is removed");
        }
        if shape == 4 && k > 1 && kl_distance(&current, &reference) > target {
            prop_assert_eq!(rounds, 1, "one spike, one round");
        }
    }
}

/// The fixed ends of the shapes above: 1 000 rounds, an unreachable
/// target, exactly one round, and ties broken towards the highest bin.
#[test]
fn heap_ranking_bits_at_the_extremes() {
    let reference = vec![10u64; 1024];
    let current: Vec<u64> = (0..1024u64).map(|bin| 11 + bin % 3).collect();
    assert_eq!(
        assert_bits_match_heap_ranking(&current, &reference, 1e-300),
        1024
    );
    let current: Vec<u64> = (0..1024u64).map(|bin| 10 + bin % 2 * 90).collect();
    assert_eq!(
        assert_bits_match_heap_ranking(&current, &reference, -1.0),
        512
    );
    let mut spiked = reference.clone();
    spiked[700] += 5_000;
    let after = kl_distance(&reference, &reference);
    assert_eq!(
        assert_bits_match_heap_ranking(&spiked, &reference, after + 1e-9),
        1
    );
    let tied: Vec<u64> = (0..64u64)
        .map(|bin| if bin % 2 == 0 { 5 } else { 15 })
        .collect();
    let id = identify_anomalous_bins(&tied, &[10; 64], 0.0);
    assert_eq!(id.bins[..3], [63, 62, 61]);
    assert_bits_match_heap_ranking(&tied, &[10; 64], 0.0);
}
