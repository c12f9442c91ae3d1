//! Deterministic partitioning of flow batches into contiguous shards.
//!
//! The extraction pipeline is embarrassingly partitionable by flow: every
//! per-interval structure it builds (histograms, item counts, tid-lists)
//! is a sum over flows, so a batch can be split into contiguous chunks,
//! processed independently, and the partial results merged in chunk order
//! with bit-identical totals. This module is the single source of truth
//! for *how* a batch is split, so the detector, the miners, and the
//! engine all agree on shard boundaries.
//!
//! Chunks are contiguous index ranges covering `0..len` exactly once, in
//! order, with sizes differing by at most one (the first `len % shards`
//! chunks take the extra element). Determinism follows from the layout
//! being a pure function of `(len, shards)`.

use std::num::NonZeroUsize;
use std::ops::Range;

/// The balanced contiguous index ranges that split `len` elements into at
/// most `shards` chunks.
///
/// Ranges are returned in ascending order, are non-empty, and concatenate
/// to exactly `0..len`. Fewer than `shards` ranges are returned when
/// `len < shards` (never an empty range); an empty input yields no ranges.
#[must_use]
pub fn chunk_ranges(len: usize, shards: NonZeroUsize) -> Vec<Range<usize>> {
    let shards = shards.get().min(len);
    if shards == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// The largest shard count the engine accepts. Every shard is an OS
/// thread, and a count the OS cannot serve aborts the process inside
/// thread spawning instead of failing cleanly, so every entry point
/// (CLI `--threads`, engine construction, reconfiguration, restore)
/// rejects anything above this bound — far beyond any machine's useful
/// parallelism, far below where thread creation starts to fail.
pub const MAX_SHARDS: NonZeroUsize = match NonZeroUsize::new(1024) {
    Some(n) => n,
    None => unreachable!(),
};

/// The number of shards to use by default: the machine's available
/// parallelism (at most [`MAX_SHARDS`]), or 1 when it cannot be
/// determined.
#[must_use]
pub fn default_shards() -> NonZeroUsize {
    std::thread::available_parallelism()
        .unwrap_or(NonZeroUsize::MIN)
        .min(MAX_SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn ranges_cover_exactly_once_in_order() {
        for len in [0usize, 1, 2, 7, 8, 9, 100, 1023] {
            for shards in 1..=9 {
                let ranges = chunk_ranges(len, nz(shards));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} shards={shards}");
                    assert!(r.end > r.start, "empty range at len={len}");
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} shards={shards}");
            }
        }
    }

    #[test]
    fn sizes_are_balanced() {
        let ranges = chunk_ranges(10, nz(4));
        let sizes: Vec<usize> = ranges
            .iter()
            .map(std::iter::ExactSizeIterator::len)
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn fewer_chunks_than_shards_for_tiny_inputs() {
        assert_eq!(chunk_ranges(2, nz(8)).len(), 2);
        assert!(chunk_ranges(0, nz(8)).is_empty());
    }

    #[test]
    fn default_shards_is_positive_and_bounded() {
        assert!(default_shards() <= MAX_SHARDS);
    }
}
