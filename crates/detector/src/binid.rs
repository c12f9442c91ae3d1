//! Iterative identification of anomalous histogram bins (paper §II-C,
//! Fig. 5).
//!
//! When a clone alarms, the detector must find *which bins* caused the KL
//! spike. The paper's algorithm simulates the removal of suspicious flows:
//! in each round, pick the bin with the largest absolute count difference
//! from the reference histogram, set its count equal to the reference
//! count, and recompute the KL distance — until the "cleaned" histogram no
//! longer generates an alert.
//!
//! A round costs one pop from a ranking and one log₂, not a KL pass over
//! the k bins:
//!
//! - **Removal order.** An untouched bin's deviation |wᵢ − rᵢ| never
//!   changes. The pass that sets up the running sum also finds the most
//!   deviating bin, which is all the first round needs; only a clone
//!   that needs a second round ranks the remaining bins that differ from
//!   the reference (a max-heap on `(|wᵢ − rᵢ|, bin)`) and pops one per
//!   round. Ties go to the highest bin either way, as a scan for the
//!   last maximum would. One round is the common case: on the
//!   benchmark's `alarm` and `fanin` captures (seed 1) 57 % and 60 % of
//!   the alarmed clones stop after it, while a few run past 180 rounds.
//!   So the result's lists start small, and the second round sizes the
//!   ranking and both lists once, from the count of differing bins the
//!   set-up pass takes; a clone that stops well short of that room
//!   gives it back, so it holds none for the many bins it never resets.
//! - **KL per round.** With add-one smoothing, P = W + k and Q = R + k (W
//!   and R the current and reference totals), the distance is
//!   KL = S/P + log₂(Q/P) with S = Σ (wᵢ+1)·log₂((wᵢ+1)/(rᵢ+1)). Resetting
//!   a bin to its reference count zeroes its term of S and moves W by
//!   rᵢ − wᵢ, so a round updates two running values and takes one log₂.
//!   A term of S depends on its count pair alone: for counts below 64
//!   it is computed once into a table the detector bank keeps for its
//!   lifetime, and S is summed in bin order, so the values are those of
//!   the direct expression bit for bit.
//! - **Exact decisions.** The running value differs from a direct
//!   [`kl_distance`] only by rounding. A round whose value lies within
//!   that rounding bound of the target is re-decided with [`kl_distance`]
//!   on the cleaned histogram, so the stopping round, the bins and
//!   convergence are those of the direct recomputation on every input.

use std::collections::BinaryHeap;

use crate::kl::{kl_distance, PairTable};

/// Result of the iterative bin-identification procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct BinIdentification {
    /// Bins flagged anomalous, in removal order (most deviating first).
    pub bins: Vec<u32>,
    /// KL distance after each round; `kl_trajectory[0]` is the initial
    /// distance, `kl_trajectory[r]` the distance after removing `r` bins.
    /// This is exactly the series plotted in the paper's Fig. 5.
    pub kl_trajectory: Vec<f64>,
    /// Whether the procedure converged below the target (it can only fail
    /// on the pathological all-bins-differ case, after k rounds).
    pub converged: bool,
}

/// Identify anomalous bins by simulated flow removal.
///
/// `current` and `reference` are the per-bin counts of the alarming and the
/// reference interval; `target_kl` is the KL value below which the alarm
/// clears (the caller computes it from its threshold state: the alarm
/// condition is on the *first difference* of the KL series, so the target
/// is `previous_kl + threshold`).
///
/// `kl_trajectory[0]` is `kl_distance(current, reference)` bit for bit;
/// later entries come from the running sum (see the module docs) and agree
/// with a direct [`kl_distance`] to within rounding.
///
/// # Panics
///
/// Panics if the histograms have different lengths or are empty.
#[must_use]
pub fn identify_anomalous_bins(
    current: &[u64],
    reference: &[u64],
    target_kl: f64,
) -> BinIdentification {
    assert_eq!(
        current.len(),
        reference.len(),
        "histograms must have the same bin count"
    );
    identify_from(
        current,
        reference,
        kl_distance(current, reference),
        target_kl,
        &mut PairTable::new(),
    )
}

/// [`identify_anomalous_bins`] starting from `kl`, the caller's own
/// `kl_distance(current, reference)` — an alarmed clone computed it a
/// moment earlier for its alarm test — which becomes `kl_trajectory[0]`.
/// Terms of S for small counts are remembered in `terms`.
pub(crate) fn identify_from(
    current: &[u64],
    reference: &[u64],
    kl: f64,
    target_kl: f64,
    terms: &mut PairTable,
) -> BinIdentification {
    let mut bins = Vec::new();
    let mut kl_trajectory = vec![kl];
    // Built on the first round: a histogram already at or below the
    // target needs only the one KL pass above.
    let mut running: Option<RunningKl<'_>> = None;
    let mut converged = true;

    while *kl_trajectory.last().expect("non-empty") > target_kl {
        let running = running.get_or_insert_with(|| RunningKl::new(current, reference, terms));
        let Some((bin, mut kl, bound)) = running.remove_next(terms) else {
            // Fully aligned with the reference yet still above target:
            // the target is unreachable (e.g., negative). Report
            // non-convergence instead of looping.
            converged = false;
            break;
        };
        if bins.len() == 1 {
            // A second round: at most every bin that differed is reset.
            bins.reserve_exact(running.differing - 1);
            kl_trajectory.reserve_exact(running.differing - 1);
        }
        bins.push(bin);
        if (kl - target_kl).abs() <= bound {
            kl = kl_distance(&cleaned(current, reference, &bins), reference);
        }
        kl_trajectory.push(kl);
    }
    // Rounds that stopped well short of that room give it back.
    if kl_trajectory.capacity() > 2 * kl_trajectory.len() {
        bins.shrink_to_fit();
        kl_trajectory.shrink_to_fit();
    }
    BinIdentification {
        bins,
        kl_trajectory,
        converged,
    }
}

/// The cleaned histogram's KL distance as running values: the most
/// deviating bin (until the first round takes it), then the bins that
/// still differ from the reference, ranked, and S, W and Q of the
/// closed form in the module docs.
struct RunningKl<'a> {
    current: &'a [u64],
    reference: &'a [u64],
    /// The first round's bin: the last of the most deviating bins.
    first: Option<u32>,
    /// `(|w − r|, bin)` of every bin not yet reset, built on the second
    /// round at its final size; ties pop the higher bin.
    ranking: Option<BinaryHeap<(u64, u32)>>,
    /// S = Σ (wᵢ+1)·log₂((wᵢ+1)/(rᵢ+1)) over the bins not yet reset.
    sum: f64,
    /// Σ (|termᵢ| + wᵢ + 1) over the bins that differed at the start:
    /// what the rounding error of S and of a direct KL scales with.
    scale: f64,
    /// W, the cleaned histogram's total.
    w_total: u64,
    /// Q = R + k.
    q: f64,
    k: f64,
    removed: usize,
    /// How many bins differed from the reference at the start.
    differing: usize,
}

impl<'a> RunningKl<'a> {
    /// One pass over the bins.
    fn new(current: &'a [u64], reference: &'a [u64], terms: &mut PairTable) -> Self {
        let (mut w_total, mut r_total) = (0u64, 0u64);
        let (mut sum, mut scale) = (0.0f64, 0.0f64);
        let mut first: Option<(u64, u32)> = None;
        let mut differing = 0;
        for (bin, (&w, &r)) in current.iter().zip(reference).enumerate() {
            w_total += w;
            r_total += r;
            if w != r {
                differing += 1;
                let term = terms.get(w, r, smoothed_term);
                sum += term;
                scale += term.abs() + (w as f64 + 1.0);
                let deviation = w.abs_diff(r);
                match first {
                    Some((best, _)) if deviation < best => {}
                    _ => first = Some((deviation, bin as u32)),
                }
            }
        }
        let k = current.len() as f64;
        RunningKl {
            current,
            reference,
            first: first.map(|(_, bin)| bin),
            ranking: None,
            sum,
            scale,
            w_total,
            q: r_total as f64 + k,
            k,
            removed: 0,
            differing,
        }
    }

    /// The next bin to reset: the first round's from the set-up pass,
    /// later ones from the ranking, which the second round builds.
    fn next_bin(&mut self) -> Option<u32> {
        if self.removed == 0 {
            return self.first;
        }
        let (current, reference, first) = (self.current, self.reference, self.first);
        let others = self.differing - 1;
        let ranking = self.ranking.get_or_insert_with(|| {
            let mut ranked = Vec::with_capacity(others);
            ranked.extend(
                (current.iter().zip(reference).enumerate())
                    .filter(|&(bin, (&w, &r))| w != r && Some(bin as u32) != first)
                    .map(|(bin, (&w, &r))| (w.abs_diff(r), bin as u32)),
            );
            BinaryHeap::from(ranked)
        });
        ranking.pop().map(|(_, bin)| bin)
    }

    /// Reset the most-deviating remaining bin to its reference count:
    /// that bin, the KL distance after it, and the bound on how far that
    /// value and a direct [`kl_distance`] can lie apart. `None` when no
    /// bin differs any more.
    fn remove_next(&mut self, terms: &mut PairTable) -> Option<(u32, f64, f64)> {
        let bin = self.next_bin()?;
        let (w, r) = (self.current[bin as usize], self.reference[bin as usize]);
        self.sum -= terms.get(w, r, smoothed_term);
        self.w_total = self.w_total - w + r;
        self.removed += 1;

        let p = self.w_total as f64 + self.k;
        let log_ratio = (self.q / p).log2();
        let kl = (self.sum / p + log_ratio).max(0.0);
        // Worst-case rounding of S (k terms summed, one subtraction per
        // round) plus that of a direct `kl_distance` (k terms summed),
        // each within a few ε of the absolute terms.
        let bound = f64::EPSILON
            * (2.0 * self.k + self.removed as f64 + 16.0)
            * (self.scale / p + log_ratio.abs() + 1.0);
        Some((bin, kl, bound))
    }
}

/// One bin's term of S: (w+1)·log₂((w+1)/(r+1)).
fn smoothed_term(w: u64, r: u64) -> f64 {
    let w1 = w as f64 + 1.0;
    w1 * (w1 / (r as f64 + 1.0)).log2()
}

/// `current` with each removed bin reset to its reference count.
fn cleaned(current: &[u64], reference: &[u64], bins: &[u32]) -> Vec<u64> {
    let mut work = current.to_vec();
    for &bin in bins {
        work[bin as usize] = reference[bin as usize];
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_spiked_bin_is_found_first() {
        let reference = vec![100u64; 16];
        let mut current = reference.clone();
        current[5] += 5000; // a flood concentrated on one bin
        let id = identify_anomalous_bins(&current, &reference, 0.001);
        assert!(id.converged);
        assert_eq!(id.bins[0], 5);
        // Removing the spike alone should clean the histogram.
        assert_eq!(id.bins.len(), 1);
        assert!(id.kl_trajectory[1] < id.kl_trajectory[0]);
    }

    #[test]
    fn multiple_spikes_found_in_deviation_order() {
        let reference = vec![1000u64; 8];
        let mut current = reference.clone();
        current[2] += 9000;
        current[6] += 4000;
        let id = identify_anomalous_bins(&current, &reference, 0.0001);
        assert!(id.converged);
        assert_eq!(&id.bins[..2], &[2, 6]);
    }

    /// The result's lists hold room for the rounds taken, not for every
    /// bin that differs: on 1 024 bins that all differ, thirteen of them
    /// spiked, a run stopped after 2 to 13 rounds keeps each list's
    /// capacity within twice its round count plus one.
    #[test]
    fn lists_hold_room_for_the_rounds_taken() {
        let reference = vec![1000u64; 1024];
        let mut current: Vec<u64> = (0..1024).map(|i| 1001 + i % 3).collect();
        for spike in 0..13 {
            current[spike * 75] += 9_000 - 600 * spike as u64;
        }
        let all = identify_anomalous_bins(&current, &reference, -1.0);
        assert_eq!(all.bins.len(), 1024, "every bin differs");
        for rounds in 2..=13 {
            let (before, after) = (all.kl_trajectory[rounds - 1], all.kl_trajectory[rounds]);
            let id = identify_anomalous_bins(&current, &reference, (before + after) / 2.0);
            assert_eq!(id.bins.len(), rounds);
            let room = 2 * (rounds + 1);
            let held = (id.bins.capacity(), id.kl_trajectory.capacity());
            assert!(
                held.0 <= room && held.1 <= room,
                "{rounds} rounds hold {held:?}"
            );
        }
    }

    #[test]
    fn equal_deviations_remove_the_higher_bin_first() {
        // Bins 1 and 3 deviate by 500 each, one up and one down; the
        // ranking breaks the tie towards the higher index.
        let reference = vec![1000u64; 6];
        let mut current = reference.clone();
        current[1] += 500;
        current[3] -= 500;
        let id = identify_anomalous_bins(&current, &reference, 1e-12);
        assert!(id.converged);
        assert_eq!(id.bins, vec![3, 1]);
        assert!(*id.kl_trajectory.last().unwrap() <= 1e-12);
    }

    #[test]
    fn kl_trajectory_converges_for_diffuse_spikes() {
        // Aligning one bin renormalizes the others, so the trajectory is
        // not strictly monotone in general — but it must terminate below
        // the target within k rounds (each round aligns one more bin).
        let reference = vec![500u64; 32];
        let mut current = reference.clone();
        for (i, c) in current.iter_mut().enumerate() {
            *c += (i as u64 % 5) * 300;
        }
        let id = identify_anomalous_bins(&current, &reference, 1e-6);
        assert!(id.converged);
        assert!(id.bins.len() <= 32);
        assert!(*id.kl_trajectory.last().unwrap() <= 1e-6);
        assert!(id.kl_trajectory.last().unwrap() < id.kl_trajectory.first().unwrap());
    }

    #[test]
    fn already_clean_histogram_needs_no_rounds() {
        let h = vec![10u64, 20, 30];
        let id = identify_anomalous_bins(&h, &h, 0.001);
        assert!(id.converged);
        assert!(id.bins.is_empty());
        assert_eq!(id.kl_trajectory.len(), 1);
    }

    #[test]
    fn unreachable_target_reports_nonconvergence() {
        let h = vec![10u64, 20, 30];
        let id = identify_anomalous_bins(&h, &h, -1.0);
        assert!(!id.converged);
        assert!(id.bins.is_empty());
    }

    #[test]
    fn negative_deviation_bins_are_cleaned_too() {
        // An anomaly *ending* leaves bins below the reference; the
        // procedure must clean those as well (|difference|, not signed).
        let reference = vec![1000u64; 8];
        let mut current = reference.clone();
        current[3] = 0;
        let id = identify_anomalous_bins(&current, &reference, 1e-6);
        assert!(id.converged);
        assert_eq!(id.bins, vec![3]);
    }

    #[test]
    fn first_round_drops_kl_significantly() {
        // Paper Fig. 5: "Already after the first round, the KL distance
        // decreases significantly" — for a concentrated anomaly the first
        // removal should eliminate most of the distance.
        let reference = vec![2000u64; 1024];
        let mut current = reference.clone();
        current[100] += 500_000;
        let id = identify_anomalous_bins(&current, &reference, 1e-9);
        let drop = (id.kl_trajectory[0] - id.kl_trajectory[1]) / id.kl_trajectory[0];
        assert!(drop > 0.9, "first-round drop only {drop:.3}");
    }
}
