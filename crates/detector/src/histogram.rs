//! Hashed feature histograms: per-bin flow counts, the one function that
//! counts an interval's column into them, and the resolver that maps
//! anomalous bins back to feature values.
//!
//! A histogram counts flows per bin for one traffic feature, binning values
//! with a clone-specific hash function. `count_interval` fills every clone
//! of a feature straight from the interval's [`FlowColumns`]. A bin
//! aggregates many feature values, so the paper's "map of bins and
//! corresponding feature values" (§II-D) is needed only for the bins of
//! the clones that alarmed — a few intervals in a hundred. A detector
//! whose feature reaches quorum resolves only the vote then: the values
//! at least `l` of its alarmed clones claim, in one pass over its
//! column (`resolve_clones`).

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature};

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

    /// Build a histogram over one interval's columns with
    /// `count_interval`, the one builder.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn build(feature: FlowFeature, hasher: BinHasher, bins: u32, cols: &FlowColumns) -> Self {
        let mut histogram = Self::new(feature, hasher, bins);
        count_interval(cols, std::slice::from_mut(&mut histogram));
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

/// Slots of [`resolve_clones`]' table of recently claimed keys.
const RECENT_SLOTS: usize = 64;

/// The l-of-n vote over several clones of one feature: each alarmed
/// clone's hash function with its anomalous bins, all over `k` bins.
/// Returns, ascending and each once, the keys of `feature` in `cols`
/// that at least `votes` of the clones claim — a clone claims a key
/// whose bin is among its anomalous bins.
///
/// One pass over the column asks the clones in order whether they claim a
/// key and stops once the verdict is settled: at the `votes`-th claim,
/// or at the first miss that leaves too few clones to reach `votes`
/// (at the paper's unanimous quorum, the first miss). Only voted keys
/// are kept. A small direct-mapped table of recently claimed keys and
/// their verdicts skips repeats — a flood's value recurs in thousands
/// of flows — so the kept keys are nearly distinct when they are sorted
/// and deduplicated; the table only saves work, as a repeat it misses
/// is asked again. Given `marks`, a bitset over the rows, the same pass
/// sets the bit of every row whose key is voted. Work is at most one
/// `bin_of` per key and clone and one sort of the voted keys: no set
/// insert per flow, and a feature's keys are read once however many
/// clones alarmed.
///
/// # Panics
///
/// Panics if `votes` is zero or `marks` has fewer bits than there are
/// rows.
pub(crate) fn resolve_clones(
    cols: &FlowColumns,
    feature: FlowFeature,
    k: u32,
    clones: &[(BinHasher, &[u32])],
    votes: usize,
    mut marks: Option<&mut [u64]>,
) -> Vec<u64> {
    assert!(votes >= 1, "the quorum is at least 1");
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
    let mut voted_keys = Vec::new();
    // A claimed key and whether it is voted.
    let mut recent: [Option<(u64, bool)>; RECENT_SLOTS] = [None; RECENT_SLOTS];
    let mut row = 0;
    cols.for_each_raw(feature, 0..cols.len(), |key| {
        // Fibonacci hashing: the product's top bits pick the slot.
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (u64::BITS - RECENT_SLOTS.trailing_zeros())) as usize;
        let voted = match recent[slot] {
            Some((seen, voted)) if seen == key => voted,
            _ => {
                let mut claims = 0;
                for (c, &(hasher, _)) in clones.iter().enumerate() {
                    if claims >= votes || claims + (clones.len() - c) < votes {
                        break;
                    }
                    claims += usize::from(marked[c * k + hasher.bin_of(key, k as u32) as usize]);
                }
                let voted = claims >= votes;
                if voted {
                    voted_keys.push(key);
                }
                // Only a claimed key is remembered: an unclaimed one is
                // usually background, settled again by a `bin_of` or a
                // few.
                if claims > 0 {
                    recent[slot] = Some((key, voted));
                }
                voted
            }
        };
        if let Some(marks) = &mut marks {
            marks[row / 64] |= u64::from(voted) << (row % 64);
        }
        row += 1;
    });
    voted_keys.sort_unstable();
    voted_keys.dedup();
    voted_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_netflow::{FlowRecord, Protocol};
    use proptest::collection::vec;
    use proptest::prelude::*;
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

    /// [`FeatureHistogram::build`] over `flows`, with their columns.
    fn scan(
        feature: FlowFeature,
        hasher: BinHasher,
        bins: u32,
        flows: &[FlowRecord],
    ) -> (FeatureHistogram, FlowColumns) {
        let cols = FlowColumns::from_flows(flows);
        (FeatureHistogram::build(feature, hasher, bins, &cols), cols)
    }

    /// The values of `h`'s feature in `cols` that `h`'s hash function
    /// places in any of `bins`: the vote of one clone.
    fn resolve(h: &FeatureHistogram, cols: &FlowColumns, bins: &[u32]) -> Vec<u64> {
        resolve_clones(cols, h.feature(), h.bins(), &[(h.hasher(), bins)], 1, None)
    }

    #[test]
    fn counts_are_conserved() {
        let flows: Vec<_> = (0..500u16).map(flow_to_port).collect();
        let cols = FlowColumns::from_flows(&flows);
        let h = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &cols);
        assert_eq!(h.total(), 500);
        assert_eq!(h.counts().iter().sum::<u64>(), 500);
    }

    #[test]
    fn repeated_value_lands_in_same_bin() {
        let flows: Vec<_> = (0..100).map(|_| flow_to_port(7000)).collect();
        let (h, cols) = scan(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let nonzero: Vec<_> = h.counts().iter().filter(|&&c| c > 0).collect();
        assert_eq!(nonzero, vec![&100u64]);
        let bin = BinHasher::new(1).bin_of(7000, 64);
        assert_eq!(resolve(&h, &cols, &[bin]), [7000]);
    }

    #[test]
    fn reverse_map_finds_the_value() {
        let flows = vec![flow_to_port(7000)];
        let (h, cols) = scan(FlowFeature::DstPort, BinHasher::new(9), 1024, &flows);
        let bin = BinHasher::new(9).bin_of(7000, 1024);
        assert_eq!(resolve(&h, &cols, &[bin]), [7000]);
        // Other bins are empty, and bins past the end hold nothing.
        let other = (bin + 1) % 1024;
        assert!(resolve(&h, &cols, &[other]).is_empty());
        assert!(resolve(&h, &cols, &[1024, u32::MAX]).is_empty());
    }

    #[test]
    fn values_in_bins_unions() {
        let flows = vec![flow_to_port(80), flow_to_port(7000), flow_to_port(25)];
        let hasher = BinHasher::new(3);
        let (h, cols) = scan(FlowFeature::DstPort, hasher, 1024, &flows);
        let bins: Vec<u32> = [80u64, 7000, 25]
            .iter()
            .map(|&v| hasher.bin_of(v, 1024))
            .collect();
        assert_eq!(resolve(&h, &cols, &bins), [25, 80, 7000]);
    }

    #[test]
    fn collisions_share_a_bin() {
        // With 1 bin everything collides; the resolver keeps them apart.
        let flows = vec![flow_to_port(1), flow_to_port(2)];
        let (h, cols) = scan(FlowFeature::DstPort, BinHasher::new(1), 1, &flows);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(resolve(&h, &cols, &[0]), [1, 2]);
    }

    /// Keys a column can hold (the widest hold 32 bits), with repeats and
    /// extremes: a kind picks an extreme, one of eight recurring keys (so
    /// the recent-key table hits and evicts), or any key.
    fn key((kind, draw): (u8, u32)) -> u32 {
        match kind {
            0 => [0, 1 << 31, u32::MAX - 1, u32::MAX][draw as usize % 4],
            1 => (draw % 8).wrapping_mul(0x9E37_79B9),
            _ => draw,
        }
    }

    proptest! {
        /// The vote of n ∈ 1..=64 clones at every quorum l ∈ 1..=n, and
        /// its row marks, equal a direct per-clone `bin_of` count with
        /// threshold l. A clone may claim every bin, and some bins lie
        /// past `k`.
        #[test]
        fn resolve_clones_is_a_per_clone_count(
            n in 1usize..=64,
            k in 1u32..=16,
            keys in vec((0u8..4, any::<u32>()), 0..400),
            clones in vec((any::<u64>(), 0u8..4, vec(0u32..20, 0..6)), 64),
        ) {
            let keys: Vec<u64> = keys.into_iter().map(|k| u64::from(key(k))).collect();
            // The keys as the source addresses of an interval's rows.
            let flows: Vec<FlowRecord> = (keys.iter())
                .map(|&key| {
                    let (src, dst) = (Ipv4Addr::from(key as u32), Ipv4Addr::new(10, 0, 0, 2));
                    FlowRecord::new(0, src, dst, 4000, 80, Protocol::Tcp)
                })
                .collect();
            let cols = FlowColumns::from_flows(&flows);
            let bins: Vec<(BinHasher, Vec<u32>)> = clones[..n]
                .iter()
                .map(|(seed, kind, bins)| {
                    let all = *kind == 0;
                    (BinHasher::new(*seed), if all { (0..k).collect() } else { bins.clone() })
                })
                .collect();
            let clones: Vec<(BinHasher, &[u32])> =
                bins.iter().map(|(h, b)| (*h, &b[..])).collect();
            // Each row's claims, counted clone by clone.
            let claims: Vec<usize> = keys
                .iter()
                .map(|&key| {
                    (clones.iter())
                        .filter(|(hasher, bins)| bins.contains(&hasher.bin_of(key, k)))
                        .count()
                })
                .collect();
            for votes in 1..=n {
                let mut marks = vec![0u64; keys.len().div_ceil(64)];
                let voted = resolve_clones(
                    &cols,
                    FlowFeature::SrcIp,
                    k,
                    &clones,
                    votes,
                    Some(&mut marks),
                );
                let mut want: Vec<u64> = (keys.iter().zip(&claims))
                    .filter(|&(_, &c)| c >= votes)
                    .map(|(&key, _)| key)
                    .collect();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(&voted, &want, "{} clones, quorum {}", n, votes);
                for (row, &c) in claims.iter().enumerate() {
                    let mark = marks[row / 64] >> (row % 64) & 1 == 1;
                    prop_assert_eq!(mark, c >= votes, "{} clones, quorum {}, row {}", n, votes, row);
                }
            }
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
        let cols = FlowColumns::from_flows(&flows);
        let small = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &cols);
        let big = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 1024, &cols);
        assert_eq!(small.memory_bytes(), 64 * 8);
        assert_eq!(big.memory_bytes(), 1024 * 8);
    }

    #[test]
    #[should_panic(expected = "bin count must be positive")]
    fn zero_bins_panics() {
        let _ = FeatureHistogram::new(FlowFeature::DstPort, BinHasher::new(0), 0);
    }
}
