//! Hashed feature histograms: per-bin flow counts, the one function that
//! counts an interval's column into them, and the resolver that maps
//! anomalous bins back to feature values.
//!
//! A histogram counts flows per bin for one traffic feature, binning values
//! with a clone-specific hash function. `count_interval` fills every clone
//! of a feature straight from the interval's [`FlowColumns`]. A bin
//! aggregates many feature values, so the paper's "map of bins and
//! corresponding feature values" (§II-D) is needed only for the bins of a
//! clone that alarmed — a few intervals in a hundred:
//! [`FeatureHistogram::resolve`] rebuilds it then from the interval's
//! keys. A detector resolves all alarmed clones of a feature in one pass
//! over its column.

use std::collections::BTreeSet;

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

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
    /// and count the column with `count_interval`, the one builder.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn build(feature: FlowFeature, hasher: BinHasher, bins: u32, flows: &[FlowRecord]) -> Self {
        let mut histogram = Self::new(feature, hasher, bins);
        count_interval(
            &FlowColumns::from_flows(flows),
            std::slice::from_mut(&mut histogram),
        );
        histogram
    }

    /// Add `count` flows of `value` to its bin, leaving the total.
    fn add(&mut self, value: u64, count: u64) {
        let bin = self.hasher.bin_of(value, self.bins());
        self.counts[bin as usize] += count;
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
    /// hash function places in any of `bins`, ascending — an alarmed
    /// clone's candidate values once its anomalous bins are identified.
    /// `keys` are the raw keys the histogram was counted from, in row
    /// order ([`FlowColumns::for_each_raw`]); one `bin_of` pass over them
    /// against a bitmap of the requested bins keeps the matching keys,
    /// which are sorted and deduplicated once. Bins outside `0..bins()`
    /// hold no values.
    #[must_use]
    pub fn resolve(&self, keys: &[u64], bins: &[u32]) -> Vec<u64> {
        let (mut sets, _) = resolve_clones(
            &Keys::Slice(keys),
            self.bins(),
            &[(self.hasher, bins)],
            1,
            None,
        );
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

/// `#packets` values below this are tallied in a table before binning;
/// they are 99.8 % of the flows of each seed-1 benchmark capture.
const PACKETS_TABLE: usize = 256;

/// Count the interval `cols` into `histograms` — clones of one feature,
/// each with its own hash function, all with one bin count — replacing
/// what they held. The crate's one histogram builder.
///
/// Each clone runs one `bin_of` loop over the feature's column.
/// `#packets` repeats a few small values in nearly every flow, so its
/// column is read once instead: values below [`PACKETS_TABLE`] are
/// tallied in a table and each tallied value is binned once per clone
/// with its count; larger values are counted per flow. Either way a
/// bin's count is the same integer, added in another order.
pub(crate) fn count_interval(cols: &FlowColumns, histograms: &mut [FeatureHistogram]) {
    let Some(feature) = histograms.first().map(FeatureHistogram::feature) else {
        return;
    };
    for histogram in histograms.iter_mut() {
        histogram.counts.fill(0);
        histogram.total = cols.len() as u64;
    }
    if feature == FlowFeature::Packets {
        let mut table = [0u64; PACKETS_TABLE];
        cols.for_each_raw(feature, 0..cols.len(), |value| {
            match table.get_mut(value as usize) {
                Some(count) => *count += 1,
                None => histograms.iter_mut().for_each(|h| h.add(value, 1)),
            }
        });
        for (value, &count) in table.iter().enumerate().filter(|&(_, &c)| c > 0) {
            histograms
                .iter_mut()
                .for_each(|h| h.add(value as u64, count));
        }
    } else {
        for histogram in histograms.iter_mut() {
            let (hasher, bins) = (histogram.hasher, histogram.bins());
            let counts = &mut histogram.counts;
            cols.for_each_raw(feature, 0..cols.len(), |key| {
                counts[hasher.bin_of(key, bins) as usize] += 1;
            });
        }
    }
}

/// A feature's keys, in row order, as [`resolve_clones`] reads them.
pub(crate) enum Keys<'a> {
    /// Keys already collected.
    Slice(&'a [u64]),
    /// One feature's column.
    Column(&'a FlowColumns, FlowFeature),
}

impl Keys<'_> {
    fn for_each(&self, mut f: impl FnMut(u64)) {
        match self {
            Keys::Slice(keys) => keys.iter().for_each(|&key| f(key)),
            Keys::Column(cols, feature) => cols.for_each_raw(*feature, 0..cols.len(), f),
        }
    }
}

/// Slots of [`resolve_clones`]' table of recently claimed keys.
const RECENT_SLOTS: usize = 64;

/// [`FeatureHistogram::resolve`] for several clones of one feature at
/// once — each alarmed clone's hash function with its anomalous bins, all
/// over `k` bins — returning each clone's values (ascending), in clone
/// order, and the values at least `votes` of the clones claim.
///
/// One pass over `keys` bins each key with every clone, into a mask of
/// the clones whose anomalous bins claim it, and keeps the claimed keys.
/// A small direct-mapped table of recently claimed keys skips repeats — a
/// flood's value recurs in thousands of flows — so the kept keys are
/// nearly distinct when they are sorted and deduplicated; the table only
/// saves work, as a repeat it misses is kept again and dropped by the
/// deduplication. A key is voted exactly when its mask has at least
/// `votes` bits, and the table keeps that verdict beside the key, so
/// given `marks`, a bitset over the rows, the same pass sets the bit of
/// every row whose key is voted. The vote and each clone's set are read
/// off the masks in key order. Work is one `bin_of` per key and clone and
/// one sort of a few claimed keys: no set insert per flow, and a
/// feature's keys are read once however many clones alarmed.
///
/// # Panics
///
/// Panics if more than 64 clones are given, or if `marks` has fewer bits
/// than there are keys.
pub(crate) fn resolve_clones(
    keys: &Keys<'_>,
    k: u32,
    clones: &[(BinHasher, &[u32])],
    votes: usize,
    mut marks: Option<&mut [u64]>,
) -> (Vec<Vec<u64>>, BTreeSet<u64>) {
    // One mask bit per clone.
    assert!(
        clones.len() <= u64::BITS as usize,
        "at most 64 clones resolve at once"
    );
    let k = k as usize;
    // Clone c's bin b is claimed when `marked[c * k + b]`.
    let mut marked = vec![false; clones.len() * k];
    for (claims, &(_, bins)) in marked.chunks_exact_mut(k.max(1)).zip(clones) {
        for &bin in bins {
            if let Some(mark) = claims.get_mut(bin as usize) {
                *mark = true;
            }
        }
    }
    let mut claimed: Vec<(u64, u64)> = Vec::new();
    // A claimed key and whether it is voted.
    let mut recent: [Option<(u64, bool)>; RECENT_SLOTS] = [None; RECENT_SLOTS];
    let mut row = 0;
    keys.for_each(|key| {
        // Fibonacci hashing: the product's top bits pick the slot.
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (u64::BITS - RECENT_SLOTS.trailing_zeros())) as usize;
        let voted = match recent[slot] {
            Some((seen, voted)) if seen == key => voted,
            _ => {
                let mut mask = 0u64;
                for (bit, &(hasher, _)) in clones.iter().enumerate() {
                    if marked[bit * k + hasher.bin_of(key, k as u32) as usize] {
                        mask |= 1 << bit;
                    }
                }
                // A key no clone claims is not voted: the quorum is at
                // least 1.
                mask != 0 && {
                    let voted = mask.count_ones() as usize >= votes;
                    claimed.push((key, mask));
                    recent[slot] = Some((key, voted));
                    voted
                }
            }
        };
        if let Some(marks) = &mut marks {
            marks[row / 64] |= u64::from(voted) << (row % 64);
        }
        row += 1;
    });
    claimed.sort_unstable_by_key(|&(key, _)| key);
    claimed.dedup_by_key(|&mut (key, _)| key);
    let sets = (0..clones.len())
        .map(|bit| {
            claimed
                .iter()
                .filter(|&&(_, mask)| mask >> bit & 1 == 1)
                .map(|&(key, _)| key)
                .collect()
        })
        .collect();
    let voted = (claimed.iter())
        .filter(|&&(_, mask)| mask.count_ones() as usize >= votes)
        .map(|&(key, _)| key)
        .collect();
    (sets, voted)
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

    /// [`FeatureHistogram::build`], with the raw keys `resolve` reads.
    fn scan(
        feature: FlowFeature,
        hasher: BinHasher,
        bins: u32,
        flows: &[FlowRecord],
    ) -> (FeatureHistogram, Vec<u64>) {
        let keys = flows.iter().map(|f| feature.value_of(f).raw).collect();
        (FeatureHistogram::build(feature, hasher, bins, flows), keys)
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
        let (h, keys) = scan(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let nonzero: Vec<_> = h.counts().iter().filter(|&&c| c > 0).collect();
        assert_eq!(nonzero, vec![&100u64]);
        let bin = BinHasher::new(1).bin_of(7000, 64);
        assert_eq!(h.resolve(&keys, &[bin]), [7000]);
    }

    #[test]
    fn reverse_map_finds_the_value() {
        let flows = vec![flow_to_port(7000)];
        let (h, keys) = scan(FlowFeature::DstPort, BinHasher::new(9), 1024, &flows);
        let bin = BinHasher::new(9).bin_of(7000, 1024);
        assert_eq!(h.resolve(&keys, &[bin]), [7000]);
        // Other bins are empty, and bins past the end hold nothing.
        let other = (bin + 1) % 1024;
        assert!(h.resolve(&keys, &[other]).is_empty());
        assert!(h.resolve(&keys, &[1024, u32::MAX]).is_empty());
    }

    #[test]
    fn values_in_bins_unions() {
        let flows = vec![flow_to_port(80), flow_to_port(7000), flow_to_port(25)];
        let hasher = BinHasher::new(3);
        let (h, keys) = scan(FlowFeature::DstPort, hasher, 1024, &flows);
        let bins: Vec<u32> = [80u64, 7000, 25]
            .iter()
            .map(|&v| hasher.bin_of(v, 1024))
            .collect();
        assert_eq!(h.resolve(&keys, &bins), [25, 80, 7000]);
    }

    #[test]
    fn collisions_share_a_bin() {
        // With 1 bin everything collides; the resolver keeps them apart.
        let flows = vec![flow_to_port(1), flow_to_port(2)];
        let (h, keys) = scan(FlowFeature::DstPort, BinHasher::new(1), 1, &flows);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.resolve(&keys, &[0]), [1, 2]);
    }

    #[test]
    fn resolve_clones_matches_a_per_clone_scan() {
        // 64 clones (every mask bit), extreme keys, and repeats
        // interleaved so the recent-key table both hits and evicts; the
        // vote at quorum 2 and its row marks against a direct count.
        let mut keys: Vec<u64> = vec![u64::MAX, 0, u64::MAX, 1 << 63];
        keys.extend((0..3000u64).map(|i| if i % 3 == 0 { 7000 } else { i % 97 * 1_000_003 }));
        let hashers: Vec<BinHasher> = (0..64).map(BinHasher::new).collect();
        let bins: Vec<Vec<u32>> = (0..64u32).map(|c| vec![c % 16, (c * 7) % 16, 99]).collect();
        let clones: Vec<(BinHasher, &[u32])> = hashers
            .iter()
            .zip(&bins)
            .map(|(&h, b)| (h, &b[..]))
            .collect();
        let mut marks = vec![0u64; keys.len().div_ceil(64)];
        let (sets, voted) = resolve_clones(&Keys::Slice(&keys), 16, &clones, 9, Some(&mut marks));
        assert_eq!(sets.len(), 64);
        for ((hasher, bins), set) in clones.iter().zip(&sets) {
            let want: BTreeSet<u64> = keys
                .iter()
                .copied()
                .filter(|&key| bins.contains(&hasher.bin_of(key, 16)))
                .collect();
            assert!(set.iter().eq(&want), "ascending, each once");
        }
        assert!(sets.iter().any(|set| set.contains(&u64::MAX)));
        let claims = |key: u64| sets.iter().filter(|set| set.contains(&key)).count();
        let want: BTreeSet<u64> = keys
            .iter()
            .copied()
            .filter(|&key| claims(key) >= 9)
            .collect();
        assert!(!want.is_empty() && want.len() < sets.iter().map(Vec::len).sum());
        assert_eq!(voted, want);
        for (row, &key) in keys.iter().enumerate() {
            let mark = marks[row / 64] >> (row % 64) & 1 == 1;
            assert_eq!(mark, want.contains(&key), "key {key}");
        }
    }

    #[test]
    fn packets_count_through_the_table_like_per_flow() {
        // Values around the table's edge, repeats, and the largest count.
        let packets = [0, 1, 1, 255, 256, 256, 7, u32::MAX, 1000, 255, 0];
        let flows: Vec<FlowRecord> = packets
            .iter()
            .map(|&p| flow_to_port(80).with_volume(p, 40))
            .collect();
        let mut clones: Vec<FeatureHistogram> = (0..3)
            .map(|seed| FeatureHistogram::new(FlowFeature::Packets, BinHasher::new(seed), 16))
            .collect();
        // A buffer holding an older interval's counts is replaced.
        clones[1].counts[3] = 99;
        count_interval(&FlowColumns::from_flows(&flows[1..]), &mut clones);
        for clone in &clones {
            let mut want = [0u64; 16];
            for &p in &packets[1..] {
                want[clone.hasher().bin_of(u64::from(p), 16) as usize] += 1;
            }
            assert_eq!(clone.counts(), &want[..]);
            assert_eq!(clone.total(), packets.len() as u64 - 1);
        }
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
