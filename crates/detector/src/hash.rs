//! Seeded hash functions for histogram cloning.
//!
//! Each histogram clone bins feature values with an *independent* random
//! hash function (paper §II-D, "a histogram clone with k bins uses a hash
//! function to randomly place each traffic feature value into a bin").
//! We use the SplitMix64 finalizer keyed by a per-clone seed: deterministic,
//! portable across platforms and runs, and passes avalanche tests — the
//! properties random projections in sketches need.

use serde::{Deserialize, Serialize};

/// A seeded 64-bit mixing function mapping feature values to histogram bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinHasher {
    seed: u64,
}

impl BinHasher {
    /// Create a hasher from a seed. Different seeds give (statistically)
    /// independent binnings.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        BinHasher { seed }
    }

    /// The seed this hasher was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mix a value to a uniform 64-bit output (SplitMix64 finalizer over
    /// the seed-offset input).
    #[must_use]
    #[inline]
    pub fn mix(&self, value: u64) -> u64 {
        let mut z = value
            .wrapping_add(self.seed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Map a feature value to a bin in `0..bins`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    #[inline]
    pub fn bin_of(&self, value: u64, bins: u32) -> u32 {
        assert!(bins > 0, "bin count must be positive");
        // Multiply-shift range reduction: unbiased enough for binning and
        // cheaper/cleaner than modulo for non-power-of-two bin counts.
        ((u128::from(self.mix(value)) * u128::from(bins)) >> 64) as u32
    }
}

/// Derive `n` independent per-clone hashers from a master seed.
/// (Seeds are themselves mixed so that consecutive master seeds do not
/// produce correlated clone families.)
#[must_use]
pub fn derive_hashers(master_seed: u64, n: usize) -> Vec<BinHasher> {
    let master = BinHasher::new(master_seed);
    (0..n as u64)
        .map(|i| BinHasher::new(master.mix(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = BinHasher::new(42);
        assert_eq!(h.bin_of(12345, 1024), h.bin_of(12345, 1024));
        assert_eq!(h.mix(7), BinHasher::new(42).mix(7));
    }

    #[test]
    fn different_seeds_bin_differently() {
        let a = BinHasher::new(1);
        let b = BinHasher::new(2);
        let differing = (0..1000u64)
            .filter(|&v| a.bin_of(v, 1024) != b.bin_of(v, 1024))
            .count();
        // With 1024 bins, ~99.9% of values should land in different bins.
        assert!(
            differing > 950,
            "only {differing}/1000 values binned differently"
        );
    }

    #[test]
    fn bins_are_in_range() {
        let h = BinHasher::new(99);
        for bins in [1u32, 2, 512, 1024, 1000, 2048] {
            for v in 0..200u64 {
                assert!(h.bin_of(v, bins) < bins);
            }
        }
    }

    #[test]
    fn single_bin_maps_everything_to_zero() {
        let h = BinHasher::new(5);
        for v in 0..100 {
            assert_eq!(h.bin_of(v, 1), 0);
        }
    }

    #[test]
    fn uniformity_rough_chi_square() {
        // 64k sequential values into 64 bins: each bin expects 1024.
        // A correct mixer keeps every bin within ±20% of expectation.
        let h = BinHasher::new(1234);
        let bins = 64u32;
        let mut counts = vec![0u32; bins as usize];
        for v in 0..65_536u64 {
            counts[h.bin_of(v, bins) as usize] += 1;
        }
        let expect = 1024.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(
                dev < 0.2,
                "bin {i} count {c} deviates {dev:.2} from uniform"
            );
        }
    }

    #[test]
    fn avalanche_single_bit_flip() {
        // Flipping one input bit should flip ~32 of 64 output bits.
        let h = BinHasher::new(7);
        let mut total_flips = 0u32;
        let samples = 256u64;
        for v in 0..samples {
            let base = h.mix(v);
            let flipped = h.mix(v ^ 1);
            total_flips += (base ^ flipped).count_ones();
        }
        let mean = f64::from(total_flips) / samples as f64;
        assert!((24.0..40.0).contains(&mean), "mean flipped bits {mean}");
    }

    #[test]
    fn derive_hashers_yields_distinct_seeds() {
        let hs = derive_hashers(0, 25);
        let mut seeds: Vec<_> = hs.iter().map(BinHasher::seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 25);
    }

    #[test]
    #[should_panic(expected = "bin count must be positive")]
    fn zero_bins_panics() {
        let _ = BinHasher::new(0).bin_of(1, 0);
    }
}
