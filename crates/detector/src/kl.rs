//! Kullback–Leibler distance between binned flow-count distributions.
//!
//! The detector computes, per interval and per feature, the KL distance
//! between the current interval's histogram `p` and the previous interval's
//! histogram `q` (paper §II-C):
//!
//! ```text
//! D(p ‖ q) = Σᵢ pᵢ · log₂(pᵢ / qᵢ)
//! ```
//!
//! Zero-count bins would make the distance undefined; the paper does not
//! specify a convention, so we apply **add-one (Laplace) smoothing** to both
//! histograms before normalizing. This preserves the two properties the
//! detector relies on — identical histograms give exactly 0, and
//! distribution *changes* (not volume changes) drive the distance — while
//! keeping D finite for disjoint supports.
//!
//! **One term per distinct count pair.** Within one call the normalizers
//! Σpᵢ + k and Σqᵢ + k are fixed, so a bin's term is a function of its
//! count pair `(pc, qc)` alone. A 1 024-bin histogram of an interval
//! holds some 90–150 distinct pairs, nearly all of small counts, so
//! each pair's term is computed once: a 64 × 64 table indexed by
//! `(pc, qc)` for counts below 64, with an occupancy bitmap beside it.
//! A bin with a count at or above the side takes its term directly. The
//! result is the per-bin loop's bit for bit: a remembered term is the
//! same expression on the same operands, and the terms are added one bin
//! at a time in bin order, as that loop adds them.
//!
//! The table is a `KlMemo` its caller owns: the detector bank keeps one
//! and reuses it for every clone, feature and interval, so a call does
//! not zero 32 KiB of terms. A term depends on its pair and on the two
//! normalizers only, and within one interval every clone of every
//! feature scores the same number of flows against the same reference
//! interval: the table keeps the normalizers its terms were computed
//! under, and a call under others first clears the occupancy bitmap,
//! which gates every read. A remembered term is therefore always the
//! expression the per-bin loop would compute. [`kl_distance`] builds a
//! fresh table per call.

/// KL distance in bits between two histograms of equal bin count, with
/// add-one smoothing. `p` is the current interval, `q` the reference.
///
/// # Panics
///
/// Panics if the histograms have different lengths or are empty.
#[must_use]
pub fn kl_distance(p: &[u64], q: &[u64]) -> f64 {
    KlMemo::new().distance(p, q)
}

/// Counts below this, in both histograms, share one remembered term per
/// `(current, reference)` pair; one bitmap word per current count.
const PAIR_SIDE: usize = 64;
const _: () = assert!(PAIR_SIDE <= u64::BITS as usize);

/// A remembered term per count pair `(current, reference)` for counts
/// below 64, with an occupancy bitmap that gates every read. Its owner
/// decides what a term is, and when the terms go stale.
pub(crate) struct PairTable {
    /// `terms[pc][qc]`, valid once bit `qc` of `seen[pc]` is set.
    terms: Box<[[f64; PAIR_SIDE]; PAIR_SIDE]>,
    seen: [u64; PAIR_SIDE],
}

impl PairTable {
    pub(crate) fn new() -> Self {
        PairTable {
            terms: Box::new([[0.0; PAIR_SIDE]; PAIR_SIDE]),
            seen: [0; PAIR_SIDE],
        }
    }

    /// Forget every remembered term.
    fn clear(&mut self) {
        self.seen = [0; PAIR_SIDE];
    }

    /// `term(pc, qc)`, remembered when both counts are small: the same
    /// expression on the same operands, so the same bits.
    #[inline]
    pub(crate) fn get(&mut self, pc: u64, qc: u64, term: impl FnOnce(u64, u64) -> f64) -> f64 {
        if pc >= PAIR_SIDE as u64 || qc >= PAIR_SIDE as u64 {
            return term(pc, qc);
        }
        let (row, bit) = (pc as usize, 1u64 << qc);
        if self.seen[row] & bit == 0 {
            self.seen[row] |= bit;
            self.terms[row][qc as usize] = term(pc, qc);
        }
        self.terms[row][qc as usize]
    }
}

impl std::fmt::Debug for PairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairTable").finish_non_exhaustive()
    }
}

/// The pair-term table of [`kl_distance`], kept by its owner across
/// calls so that a call need not zero it (see the module docs).
#[derive(Debug)]
pub(crate) struct KlMemo {
    table: PairTable,
    /// The bits of the normalizers Σp + k and Σq + k the valid terms
    /// were computed under.
    norms: (u64, u64),
}

impl KlMemo {
    pub(crate) fn new() -> Self {
        KlMemo {
            table: PairTable::new(),
            norms: (0, 0),
        }
    }

    /// [`kl_distance`] of `p` against `q`, remembering pair terms in
    /// this table.
    pub(crate) fn distance(&mut self, p: &[u64], q: &[u64]) -> f64 {
        assert_eq!(p.len(), q.len(), "histograms must have the same bin count");
        assert!(!p.is_empty(), "histograms must have at least one bin");
        let k = p.len() as f64;
        let p_total: u64 = p.iter().sum();
        let q_total: u64 = q.iter().sum();
        let p_norm = p_total as f64 + k;
        let q_norm = q_total as f64 + k;
        let term = |pc: u64, qc: u64| {
            let pi = (pc as f64 + 1.0) / p_norm;
            let qi = (qc as f64 + 1.0) / q_norm;
            pi * (pi / qi).log2()
        };
        let norms = (p_norm.to_bits(), q_norm.to_bits());
        if norms != self.norms {
            self.table.clear();
            self.norms = norms;
        }
        let mut d = 0.0;
        for (&pc, &qc) in p.iter().zip(q) {
            d += self.table.get(pc, qc, term);
        }
        // Clamp the tiny negative residue floating-point rounding can leave
        // when p == q.
        d.max(0.0)
    }
}

/// The tables a clone's scoring remembers terms in: the KL distance's,
/// and bin identification's terms of its running sum, which depend on
/// their count pair alone and so never go stale. The detector bank keeps
/// one set for all its clones.
#[derive(Debug)]
pub(crate) struct ScoreTables {
    pub(crate) kl: KlMemo,
    pub(crate) smoothed: PairTable,
}

impl ScoreTables {
    pub(crate) fn new() -> Self {
        ScoreTables {
            kl: KlMemo::new(),
            smoothed: PairTable::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_histograms_have_zero_distance() {
        let h = vec![10u64, 20, 30, 0, 5];
        assert_eq!(kl_distance(&h, &h), 0.0);
    }

    #[test]
    fn scaled_histograms_have_zero_distance() {
        // KL is about the *distribution*: doubling every count leaves the
        // distribution unchanged (up to smoothing, which vanishes as counts
        // grow). Uses large counts so smoothing is negligible.
        let p: Vec<u64> = vec![100_000, 200_000, 300_000, 400_000];
        let q: Vec<u64> = p.iter().map(|c| c * 2).collect();
        assert!(kl_distance(&p, &q) < 1e-6);
    }

    #[test]
    fn distance_is_positive_for_different_distributions() {
        let p = vec![1000u64, 0, 0, 0];
        let q = vec![250u64, 250, 250, 250];
        assert!(kl_distance(&p, &q) > 1.0);
    }

    #[test]
    fn distance_is_asymmetric() {
        let p = vec![900u64, 50, 25, 25];
        let q = vec![250u64, 250, 250, 250];
        let d_pq = kl_distance(&p, &q);
        let d_qp = kl_distance(&q, &p);
        assert!(
            (d_pq - d_qp).abs() > 1e-3,
            "KL should be asymmetric: {d_pq} vs {d_qp}"
        );
    }

    #[test]
    fn concentrated_shift_increases_distance() {
        // An attack concentrating mass on one bin moves the distance more
        // than a diffuse wiggle of the same volume.
        let base = vec![100u64; 16];
        let mut concentrated = base.clone();
        concentrated[3] += 800;
        let mut diffuse = base.clone();
        for c in diffuse.iter_mut() {
            *c += 50;
        }
        assert!(kl_distance(&concentrated, &base) > kl_distance(&diffuse, &base));
    }

    #[test]
    fn empty_interval_against_busy_reference_is_finite() {
        let p = vec![0u64; 8];
        let q = vec![1000u64; 8];
        let d = kl_distance(&p, &q);
        assert!(d.is_finite());
        assert!(
            d < 1e-9,
            "uniform-empty vs uniform-busy has equal distributions: {d}"
        );
    }

    #[test]
    fn a_reused_memo_scores_like_a_fresh_one() {
        // Calls that share the first call's normalizers reuse its terms;
        // a call under other normalizers meets the same pairs and must
        // not read them.
        let mut memo = KlMemo::new();
        let calls = [
            (vec![1u64, 2, 3, 4, 70], vec![4u64, 3, 2, 1, 0]),
            (vec![2u64, 1, 3, 70, 4], vec![3u64, 4, 2, 0, 1]),
            (vec![1u64, 2, 3, 4, 0], vec![4u64, 3, 2, 1, 900]),
            (vec![4u64, 3, 2, 1, 70], vec![1u64, 2, 3, 4, 0]),
            (vec![0u64; 5], vec![0u64; 5]),
        ];
        for (p, q) in &calls {
            let fresh = KlMemo::new().distance(p, q);
            assert_eq!(memo.distance(p, q).to_bits(), fresh.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "same bin count")]
    fn mismatched_lengths_panic() {
        let _ = kl_distance(&[1, 2], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_histograms_panic() {
        let _ = kl_distance(&[], &[]);
    }
}
