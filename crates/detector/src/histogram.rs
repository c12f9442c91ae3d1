//! Hashed feature histograms: per-bin flow counts, and the resolver that
//! maps anomalous bins back to feature values.
//!
//! A histogram counts flows per bin for one traffic feature, binning values
//! with a clone-specific hash function. A bin aggregates many feature
//! values, so the paper's "map of bins and corresponding feature values"
//! (§II-D) is needed only for the bins of a clone that alarmed — a few
//! intervals in a hundred: [`FeatureHistogram::resolve`] rebuilds it then
//! from the interval's raw keys, which the column scan collects anyway.
//! A detector resolves all alarmed clones of a feature in one pass over
//! its keys.

use std::collections::BTreeSet;

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

use crate::detector::FeatureHasher;
use crate::hash::BinHasher;

/// Largest total a restored histogram may record. A histogram counts
/// one interval's flows, all held in memory, so no total the detector
/// computes comes near it; bin identification adds a reference
/// histogram's counts to the next interval's, which this leaves room for.
const MAX_RESTORED_TOTAL: u64 = u64::MAX / 2;

/// One interval's histogram for one feature under one hash function.
#[derive(Debug, Clone)]
pub struct FeatureHistogram {
    feature: FlowFeature,
    hasher: BinHasher,
    counts: Vec<u64>,
    total: u64,
}

impl FeatureHistogram {
    /// New empty histogram with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn new(feature: FlowFeature, hasher: BinHasher, bins: u32) -> Self {
        assert!(bins > 0, "bin count must be positive");
        FeatureHistogram {
            feature,
            hasher,
            counts: vec![0; bins as usize],
            total: 0,
        }
    }

    /// Build a histogram over one interval's flows: transpose them once
    /// and run the one column scan,
    /// [`FeatureHasher::partial_columns`], for this single clone.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn build(feature: FlowFeature, hasher: BinHasher, bins: u32, flows: &[FlowRecord]) -> Self {
        Self::scan(feature, hasher, bins, flows).0
    }

    /// [`build`](Self::build), also returning the interval's raw keys in
    /// flow order — what [`resolve`](Self::resolve) reads.
    pub(crate) fn scan(
        feature: FlowFeature,
        hasher: BinHasher,
        bins: u32,
        flows: &[FlowRecord],
    ) -> (Self, Vec<u64>) {
        let cols = FlowColumns::from_flows(flows);
        let mut partial =
            FeatureHasher::new(feature, vec![hasher], bins).partial_columns(&cols, 0..cols.len());
        let histogram = partial.histograms.pop().expect("one hasher, one histogram");
        (histogram, partial.keys)
    }

    /// Count every key (the uniform `u64` keys of
    /// [`FlowFeature::value_of`]) into its bin — the per-clone loop of
    /// [`FeatureHasher::partial_columns`].
    pub(crate) fn count_values(&mut self, keys: &[u64]) {
        let bins = self.bins();
        for &key in keys {
            self.counts[self.hasher.bin_of(key, bins) as usize] += 1;
        }
        self.total += keys.len() as u64;
    }

    /// The monitored feature.
    #[must_use]
    pub fn feature(&self) -> FlowFeature {
        self.feature
    }

    /// The hash function binning this histogram.
    #[must_use]
    pub fn hasher(&self) -> BinHasher {
        self.hasher
    }

    /// Number of bins `k`.
    #[must_use]
    pub fn bins(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Per-bin flow counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total flows counted.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The distinct feature values among `keys` that this histogram's
    /// hash function places in any of `bins` — an alarmed clone's
    /// candidate values once its anomalous bins are identified. `keys`
    /// are the raw keys the histogram was counted from
    /// ([`FeaturePartial::keys`](crate::FeaturePartial::keys)); one
    /// `bin_of` pass over them against a bitmap of the requested bins
    /// keeps the matching keys, which are sorted and deduplicated once.
    /// Bins outside `0..bins()` hold no values.
    #[must_use]
    pub fn resolve(&self, keys: &[u64], bins: &[u32]) -> BTreeSet<u64> {
        let mut sets = resolve_clones(keys, self.bins(), &[(self.hasher, bins)]);
        sets.pop().expect("one clone, one set")
    }

    /// Serialize the histogram's contents — per-bin counts, total, and an
    /// empty bin→values section (where older checkpoints kept that map,
    /// so the layout is unchanged). The identifying triple (feature,
    /// hasher, bins) is *not* written: the restore side rebuilds it from
    /// the owning clone's configuration and passes it to
    /// [`decode_snapshot`](Self::decode_snapshot).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.usize(self.counts.len());
        for &c in &self.counts {
            w.u64(c);
        }
        w.u64(self.total);
        w.usize(0);
    }

    /// Rebuild a histogram from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot), under the given
    /// identity (which the snapshot deliberately does not carry). An
    /// older checkpoint's bin→values map is validated and discarded:
    /// scoring never reads a previous interval's values.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload and
    /// [`RestoreError::Corrupt`] when the recorded bin count disagrees
    /// with `bins`, the counts do not add up to the recorded total (or
    /// overflow), the total is above `u64::MAX / 2`, or a bin index is
    /// out of range.
    pub fn decode_snapshot(
        feature: FlowFeature,
        hasher: BinHasher,
        bins: u32,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self, RestoreError> {
        let count_len = r.seq_len(8)?;
        if count_len != bins as usize {
            return Err(RestoreError::Corrupt(format!(
                "histogram has {count_len} bins, clone expects {bins}"
            )));
        }
        let mut counts = Vec::with_capacity(count_len);
        for _ in 0..count_len {
            counts.push(r.u64()?);
        }
        let total = r.u64()?;
        let sum = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if sum != Some(total) || total > MAX_RESTORED_TOTAL {
            let sum = sum.map_or_else(|| "more than u64::MAX".to_string(), |s| s.to_string());
            return Err(RestoreError::Corrupt(format!(
                "histogram counts add up to {sum}, recorded total {total} \
                 (at most {MAX_RESTORED_TOTAL})"
            )));
        }
        let occupied = r.seq_len(4)?;
        for _ in 0..occupied {
            let bin = r.u32()?;
            if bin >= bins {
                return Err(RestoreError::Corrupt(format!(
                    "bin {bin} out of range for {bins}-bin histogram"
                )));
            }
            for _ in 0..r.seq_len(8)? {
                r.u64()?;
            }
        }
        Ok(FeatureHistogram {
            feature,
            hasher,
            counts,
            total,
        })
    }

    /// Heap footprint in bytes (the counts), used to reproduce the
    /// paper's §III-E memory numbers.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }
}

/// Slots of [`resolve_clones`]' table of recently claimed keys.
const RECENT_SLOTS: usize = 64;

/// [`FeatureHistogram::resolve`] for several clones of one feature at
/// once — each alarmed clone's hash function with its anomalous bins, all
/// over `k` bins — returning each clone's values, in clone order.
///
/// One pass over `keys` bins each key with every clone, into a mask of
/// the clones whose anomalous bins claim it, and keeps the claimed keys.
/// A small direct-mapped table of recently claimed keys skips repeats —
/// a flood's value recurs in thousands of flows — so the kept keys are
/// nearly distinct when they are sorted and deduplicated; the table only
/// saves work, as a repeat it misses is kept again and dropped by the
/// deduplication. Each clone's
/// set is then read off the masks in key order. Work is one `bin_of` per
/// key and clone and one sort of a few claimed keys: no set insert per
/// flow, and a feature's keys are read once however many clones alarmed.
pub(crate) fn resolve_clones(
    keys: &[u64],
    k: u32,
    clones: &[(BinHasher, &[u32])],
) -> Vec<BTreeSet<u64>> {
    let mut sets = Vec::with_capacity(clones.len());
    // One mask bit per clone.
    for group in clones.chunks(u64::BITS as usize) {
        let marked: Vec<Vec<bool>> = group
            .iter()
            .map(|&(_, bins)| {
                let mut marked = vec![false; k as usize];
                for &bin in bins {
                    if let Some(mark) = marked.get_mut(bin as usize) {
                        *mark = true;
                    }
                }
                marked
            })
            .collect();
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        let mut recent = [None; RECENT_SLOTS];
        for &key in keys {
            // Fibonacci hashing: the product's top bits pick the slot.
            let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> (u64::BITS - RECENT_SLOTS.trailing_zeros())) as usize;
            if recent[slot] == Some(key) {
                continue;
            }
            let mut mask = 0u64;
            for (bit, (&(hasher, _), marked)) in group.iter().zip(&marked).enumerate() {
                if marked[hasher.bin_of(key, k) as usize] {
                    mask |= 1 << bit;
                }
            }
            if mask != 0 {
                claimed.push((key, mask));
                recent[slot] = Some(key);
            }
        }
        claimed.sort_unstable_by_key(|&(key, _)| key);
        claimed.dedup_by_key(|&mut (key, _)| key);
        sets.extend((0..group.len()).map(|bit| {
            claimed
                .iter()
                .filter(|&&(_, mask)| mask >> bit & 1 == 1)
                .map(|&(key, _)| key)
                .collect::<BTreeSet<u64>>()
        }));
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::Protocol;
    use std::net::Ipv4Addr;

    fn flow_to_port(port: u16) -> FlowRecord {
        FlowRecord::new(
            0,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            port,
            Protocol::Tcp,
        )
    }

    #[test]
    fn counts_are_conserved() {
        let flows: Vec<_> = (0..500u16).map(flow_to_port).collect();
        let h = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        assert_eq!(h.total(), 500);
        assert_eq!(h.counts().iter().sum::<u64>(), 500);
    }

    #[test]
    fn repeated_value_lands_in_same_bin() {
        let flows: Vec<_> = (0..100).map(|_| flow_to_port(7000)).collect();
        let (h, keys) = FeatureHistogram::scan(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let nonzero: Vec<_> = h.counts().iter().filter(|&&c| c > 0).collect();
        assert_eq!(nonzero, vec![&100u64]);
        let bin = BinHasher::new(1).bin_of(7000, 64);
        assert_eq!(h.resolve(&keys, &[bin]), BTreeSet::from([7000]));
    }

    #[test]
    fn reverse_map_finds_the_value() {
        let flows = vec![flow_to_port(7000)];
        let (h, keys) =
            FeatureHistogram::scan(FlowFeature::DstPort, BinHasher::new(9), 1024, &flows);
        let bin = BinHasher::new(9).bin_of(7000, 1024);
        assert_eq!(h.resolve(&keys, &[bin]), BTreeSet::from([7000]));
        // Other bins are empty, and bins past the end hold nothing.
        let other = (bin + 1) % 1024;
        assert!(h.resolve(&keys, &[other]).is_empty());
        assert!(h.resolve(&keys, &[1024, u32::MAX]).is_empty());
    }

    #[test]
    fn values_in_bins_unions() {
        let flows = vec![flow_to_port(80), flow_to_port(7000), flow_to_port(25)];
        let hasher = BinHasher::new(3);
        let (h, keys) = FeatureHistogram::scan(FlowFeature::DstPort, hasher, 1024, &flows);
        let bins: Vec<u32> = [80u64, 7000, 25]
            .iter()
            .map(|&v| hasher.bin_of(v, 1024))
            .collect();
        assert_eq!(h.resolve(&keys, &bins), BTreeSet::from([25, 80, 7000]));
    }

    #[test]
    fn collisions_share_a_bin() {
        // With 1 bin everything collides; the resolver keeps them apart.
        let flows = vec![flow_to_port(1), flow_to_port(2)];
        let (h, keys) = FeatureHistogram::scan(FlowFeature::DstPort, BinHasher::new(1), 1, &flows);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.resolve(&keys, &[0]), BTreeSet::from([1, 2]));
    }

    #[test]
    fn resolve_clones_matches_a_per_clone_scan() {
        // 70 clones (two mask groups), extreme keys, and repeats
        // interleaved so the recent-key table both hits and evicts.
        let mut keys: Vec<u64> = vec![u64::MAX, 0, u64::MAX, 1 << 63];
        keys.extend((0..3000u64).map(|i| if i % 3 == 0 { 7000 } else { i % 97 * 1_000_003 }));
        let hashers: Vec<BinHasher> = (0..70).map(BinHasher::new).collect();
        let bins: Vec<Vec<u32>> = (0..70u32).map(|c| vec![c % 16, (c * 7) % 16, 99]).collect();
        let clones: Vec<(BinHasher, &[u32])> = hashers
            .iter()
            .zip(&bins)
            .map(|(&h, b)| (h, &b[..]))
            .collect();
        let sets = resolve_clones(&keys, 16, &clones);
        assert_eq!(sets.len(), 70);
        for ((hasher, bins), set) in clones.iter().zip(&sets) {
            let want: BTreeSet<u64> = keys
                .iter()
                .copied()
                .filter(|&key| bins.contains(&hasher.bin_of(key, 16)))
                .collect();
            assert_eq!(set, &want);
        }
        assert!(sets.iter().any(|set| set.contains(&u64::MAX)));
    }

    #[test]
    fn memory_accounting_is_positive_and_scales() {
        let flows: Vec<_> = (0..10u16).map(flow_to_port).collect();
        let small = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let big = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 1024, &flows);
        assert_eq!(small.memory_bytes(), 64 * 8);
        assert_eq!(big.memory_bytes(), 1024 * 8);
    }

    #[test]
    #[should_panic(expected = "bin count must be positive")]
    fn zero_bins_panics() {
        let _ = FeatureHistogram::new(FlowFeature::DstPort, BinHasher::new(0), 0);
    }
}
