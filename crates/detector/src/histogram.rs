//! Hashed feature histograms with bin→value reverse maps.
//!
//! A histogram counts flows per bin for one traffic feature, binning values
//! with a clone-specific hash function. Because a bin aggregates many
//! feature values (e.g., 64 ports per bin with 1024 bins over the port
//! space), the histogram also records *which* values were observed in each
//! bin during the interval — the paper's "map of bins and corresponding
//! feature values" (§II-D) needed to turn anomalous bins back into
//! candidate feature values.

use std::collections::{BTreeSet, HashMap};

use anomex_netflow::snapshot::{RestoreError, SnapshotReader, SnapshotWriter};
use anomex_netflow::{FlowColumns, FlowFeature, FlowRecord};

use crate::detector::FeatureHasher;
use crate::hash::BinHasher;

/// One interval's histogram for one feature under one hash function.
#[derive(Debug, Clone)]
pub struct FeatureHistogram {
    feature: FlowFeature,
    hasher: BinHasher,
    counts: Vec<u64>,
    /// bin → set of feature values observed in that bin this interval.
    values: HashMap<u32, BTreeSet<u64>>,
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
            values: HashMap::new(),
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
        let cols = FlowColumns::from_flows(flows);
        let mut partial =
            FeatureHasher::new(feature, vec![hasher], bins).partial_columns(&cols, 0..cols.len());
        partial.histograms.pop().expect("one hasher, one histogram")
    }

    /// Merge another partial histogram into this one: per-bin counts add
    /// and per-bin value sets union, so merging shard partials yields
    /// exactly the histogram a single pass over the concatenated shards
    /// would have built (counts are integers — no rounding, no order
    /// dependence). Consumes `other` so bins observed in only one shard
    /// move their value set instead of copying it — the merge is the
    /// sequential fraction of a sharded observation, so it stays cheap.
    ///
    /// # Panics
    ///
    /// Panics if the histograms disagree on feature, hasher, or bin
    /// count — partials are only mergeable within one clone.
    pub fn merge(&mut self, other: FeatureHistogram) {
        assert!(
            self.feature == other.feature
                && self.hasher == other.hasher
                && self.counts.len() == other.counts.len(),
            "cannot merge histograms of different clones"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        for (bin, values) in other.values {
            match self.values.entry(bin) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().extend(values);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(values);
                }
            }
        }
    }

    /// Count every key (the uniform `u64` keys of
    /// [`FlowFeature::value_of`]) into its bin **without** recording it
    /// in the bin→values reverse map — the per-clone loop of
    /// [`FeatureHasher::partial_columns`], which then registers each
    /// *distinct* key once through [`note_value`](Self::note_value).
    pub(crate) fn count_values(&mut self, keys: &[u64]) {
        let bins = self.bins();
        for &key in keys {
            self.counts[self.hasher.bin_of(key, bins) as usize] += 1;
        }
        self.total += keys.len() as u64;
    }

    /// Record `value` in the bin→values reverse map without counting it
    /// — the companion of [`count_values`](Self::count_values).
    pub(crate) fn note_value(&mut self, value: u64) {
        let bin = self.hasher.bin_of(value, self.counts.len() as u32);
        self.values.entry(bin).or_default().insert(value);
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

    /// Feature values observed in a bin this interval (empty if none).
    pub fn values_in_bin(&self, bin: u32) -> impl Iterator<Item = u64> + '_ {
        self.values.get(&bin).into_iter().flatten().copied()
    }

    /// Number of distinct feature values observed this interval.
    #[must_use]
    pub fn distinct_values(&self) -> usize {
        self.values.values().map(BTreeSet::len).sum()
    }

    /// Collect all values observed across a set of bins — the clone's
    /// candidate feature values once anomalous bins are identified.
    #[must_use]
    pub fn values_in_bins(&self, bins: &[u32]) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        for &bin in bins {
            out.extend(self.values_in_bin(bin));
        }
        out
    }

    /// Serialize the histogram's contents — per-bin counts, total, and
    /// the bin→values reverse map (non-empty bins only, in ascending bin
    /// order so the encoding is deterministic despite the `HashMap`).
    /// The identifying triple (feature, hasher, bins) is *not* written:
    /// the restore side rebuilds it from the owning clone's
    /// configuration and passes it to
    /// [`decode_snapshot`](Self::decode_snapshot).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.usize(self.counts.len());
        for &c in &self.counts {
            w.u64(c);
        }
        w.u64(self.total);
        let mut bins: Vec<u32> = self.values.keys().copied().collect();
        bins.sort_unstable();
        w.usize(bins.len());
        for bin in bins {
            w.u32(bin);
            let set = &self.values[&bin];
            w.usize(set.len());
            for &v in set {
                w.u64(v);
            }
        }
    }

    /// Rebuild a histogram from a snapshot written by
    /// [`encode_snapshot`](Self::encode_snapshot), under the given
    /// identity (which the snapshot deliberately does not carry).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] on a short payload and
    /// [`RestoreError::Corrupt`] when the recorded bin count disagrees
    /// with `bins` or a bin index is out of range.
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
        let occupied = r.seq_len(4)?;
        let mut values = HashMap::with_capacity(occupied);
        for _ in 0..occupied {
            let bin = r.u32()?;
            if bin >= bins {
                return Err(RestoreError::Corrupt(format!(
                    "bin {bin} out of range for {bins}-bin histogram"
                )));
            }
            let n = r.seq_len(8)?;
            let mut set = BTreeSet::new();
            for _ in 0..n {
                set.insert(r.u64()?);
            }
            values.insert(bin, set);
        }
        Ok(FeatureHistogram {
            feature,
            hasher,
            counts,
            values,
            total,
        })
    }

    /// Approximate heap footprint in bytes (counts + value maps), used to
    /// reproduce the paper's §III-E memory numbers.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let counts = self.counts.len() * std::mem::size_of::<u64>();
        let values: usize = self
            .values
            .values()
            .map(|set| set.len() * std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            .sum();
        counts + values
    }
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
        assert_eq!(h.distinct_values(), 500);
    }

    #[test]
    fn repeated_value_lands_in_same_bin() {
        let flows: Vec<_> = (0..100).map(|_| flow_to_port(7000)).collect();
        let h = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let nonzero: Vec<_> = h.counts().iter().filter(|&&c| c > 0).collect();
        assert_eq!(nonzero, vec![&100u64]);
        assert_eq!(h.distinct_values(), 1);
    }

    #[test]
    fn reverse_map_finds_the_value() {
        let flows = vec![flow_to_port(7000)];
        let h = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(9), 1024, &flows);
        let bin = BinHasher::new(9).bin_of(7000, 1024);
        let vals: Vec<u64> = h.values_in_bin(bin).collect();
        assert_eq!(vals, vec![7000]);
        // Other bins are empty.
        let other = (bin + 1) % 1024;
        assert_eq!(h.values_in_bin(other).count(), 0);
    }

    #[test]
    fn values_in_bins_unions() {
        let flows = vec![flow_to_port(80), flow_to_port(7000), flow_to_port(25)];
        let hasher = BinHasher::new(3);
        let h = FeatureHistogram::build(FlowFeature::DstPort, hasher, 1024, &flows);
        let bins: Vec<u32> = [80u64, 7000, 25]
            .iter()
            .map(|&v| hasher.bin_of(v, 1024))
            .collect();
        let vals = h.values_in_bins(&bins);
        assert!(vals.contains(&80) && vals.contains(&7000) && vals.contains(&25));
    }

    #[test]
    fn collisions_share_a_bin() {
        // With 1 bin everything collides; the reverse map keeps them apart.
        let flows = vec![flow_to_port(1), flow_to_port(2)];
        let h = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 1, &flows);
        assert_eq!(h.counts(), &[2]);
        assert_eq!(h.values_in_bin(0).count(), 2);
    }

    #[test]
    fn memory_accounting_is_positive_and_scales() {
        let small = FeatureHistogram::build(
            FlowFeature::DstPort,
            BinHasher::new(1),
            64,
            &(0..10u16).map(flow_to_port).collect::<Vec<_>>(),
        );
        let big = FeatureHistogram::build(
            FlowFeature::DstPort,
            BinHasher::new(1),
            1024,
            &(0..10u16).map(flow_to_port).collect::<Vec<_>>(),
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "different clones")]
    fn merging_across_clones_panics() {
        let flows = vec![flow_to_port(80)];
        let mut a = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(1), 64, &flows);
        let b = FeatureHistogram::build(FlowFeature::DstPort, BinHasher::new(2), 64, &flows);
        a.merge(b);
    }

    #[test]
    #[should_panic(expected = "bin count must be positive")]
    fn zero_bins_panics() {
        let _ = FeatureHistogram::new(FlowFeature::DstPort, BinHasher::new(0), 0);
    }
}
