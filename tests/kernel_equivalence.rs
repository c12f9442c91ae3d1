//! Kernel bit-identity suite: the batched/AVX2 kernels of
//! `anomex_detector::kernels` must match the scalar references —
//! `BinHasher::mix`/`bin_of` and the scalar pre-filter — **bit-for-bit**
//! on every input, which is the contract that lets the whole online
//! stack (sharded, streaming, checkpoint/restore) ride the vectorized
//! hot loops untouched. Properties cover arbitrary values, seeds, bin
//! counts, value-set sizes, and ranges — including empty slices,
//! sub-chunk (`len < 8`) inputs, and `len % 8 != 0` tails — on **both**
//! backends explicitly, plus an end-to-end extraction bit-identity case
//! whose meaning under `ANOMEX_FORCE_SCALAR=1` vs auto dispatch is
//! checked by the CI matrix running this suite under both settings.

use anomex::core::{
    prefilter_indices, prefilter_indices_columns_range, prefilter_indices_columns_range_with,
    Engine, ExtractionConfig, PrefilterMode, PrefilterScratch,
};
use anomex::detector::kernels::{
    self, active_backend, bin_batch_with, member_batch_with, mix_batch_with, KernelBackend,
    SmallValueSet, LANES,
};
use anomex::detector::{BinHasher, DetectorConfig, MetaData};
use anomex::netflow::{FlowColumns, FlowFeature};
use anomex::traffic::Scenario;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::num::NonZeroUsize;

const BACKENDS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `mix_batch` ≡ `BinHasher::mix` per lane, on both backends, for
    /// arbitrary values and lengths (tails included).
    #[test]
    fn mix_batch_matches_bin_hasher(
        seed in any::<u64>(),
        values in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let reference = BinHasher::new(seed);
        let mut out = vec![0u64; values.len()];
        for backend in BACKENDS {
            mix_batch_with(backend, seed, &values, &mut out);
            for (k, &v) in values.iter().enumerate() {
                prop_assert_eq!(out[k], reference.mix(v), "{:?} lane {}", backend, k);
            }
        }
    }

    /// `bin_batch` ≡ `BinHasher::bin_of` per lane, on both backends, for
    /// arbitrary values, seeds, and bin counts.
    #[test]
    fn bin_batch_matches_bin_hasher(
        seed in any::<u64>(),
        bins in 1u32..=u32::MAX,
        values in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let reference = BinHasher::new(seed);
        let mut out = vec![0u32; values.len()];
        for backend in BACKENDS {
            bin_batch_with(backend, seed, bins, &values, &mut out);
            for (k, &v) in values.iter().enumerate() {
                prop_assert_eq!(out[k], reference.bin_of(v, bins), "{:?} lane {}", backend, k);
            }
        }
    }

    /// `member_batch` accumulates exactly `BTreeSet::contains` per lane,
    /// on both backends, for arbitrary small sets (1..=16 members) and
    /// values biased to collide with the set.
    #[test]
    fn member_batch_matches_btree_set(
        set_values in proptest::collection::btree_set(0u64..64, 1..=16),
        values in proptest::collection::vec(0u64..64, 0..100),
    ) {
        let reference: BTreeSet<u64> = set_values.clone();
        let small = SmallValueSet::new(set_values).expect("1..=16 members fit");
        for backend in BACKENDS {
            let mut hits = vec![0u8; values.len()];
            member_batch_with(backend, &small, &values, &mut hits);
            for (k, &v) in values.iter().enumerate() {
                prop_assert_eq!(
                    hits[k],
                    u8::from(reference.contains(&v)),
                    "{:?} lane {}", backend, k
                );
            }
        }
    }

    /// `SmallValueSet` refuses exactly the sets the pre-filter must keep
    /// on the `BTreeSet` fallback path: empty and >16 members.
    #[test]
    fn small_value_set_capacity_contract(
        set_values in proptest::collection::btree_set(any::<u64>(), 0..40),
    ) {
        let n = set_values.len();
        match SmallValueSet::new(set_values.iter().copied()) {
            Some(s) => {
                prop_assert!((1..=SmallValueSet::MAX).contains(&n));
                prop_assert_eq!(s.member_count(), n);
                for &v in &set_values {
                    prop_assert!(s.contains(v));
                }
            }
            None => prop_assert!(n == 0 || n > SmallValueSet::MAX),
        }
    }

    /// The kernel-backed columnar pre-filter ≡ the record-based scalar
    /// pre-filter on arbitrary flows, meta-data (small sets, large sets,
    /// several features), ranges, and both modes — and the scratch-reuse
    /// form returns the same thing again on a dirty scratch.
    #[test]
    fn columnar_prefilter_matches_record_reference(
        flows_seed in proptest::collection::vec((0u16..32, 1u32..20), 0..120),
        ports in proptest::collection::btree_set(0u64..32, 0..24),
        packets in proptest::collection::btree_set(1u64..20, 0..4),
        split in 0usize..121,
        union in any::<bool>(),
    ) {
        let flows: Vec<_> = flows_seed
            .iter()
            .map(|&(port, pkts)| sample_flow(port, pkts))
            .collect();
        let mut md = MetaData::new();
        for &p in &ports {
            md.insert(FlowFeature::DstPort, p);
        }
        for &p in &packets {
            md.insert(FlowFeature::Packets, p);
        }
        let mode = if union { PrefilterMode::Union } else { PrefilterMode::Intersection };
        let cols = FlowColumns::from_flows(&flows);
        let reference = prefilter_indices(&flows, &md, mode);
        let whole = prefilter_indices_columns_range(&cols, 0..flows.len(), &md, mode);
        prop_assert_eq!(&whole, &reference);
        // Split ranges concatenate to the whole (shard contract) and a
        // recycled dirty scratch changes nothing.
        let split = split.min(flows.len());
        let mut scratch = PrefilterScratch::default();
        let mut parts =
            prefilter_indices_columns_range_with(&cols, 0..split, &md, mode, &mut scratch);
        parts.extend(prefilter_indices_columns_range_with(
            &cols, split..flows.len(), &md, mode, &mut scratch,
        ));
        prop_assert_eq!(&parts, &reference);
    }
}

fn sample_flow(dst_port: u16, packets: u32) -> anomex::netflow::FlowRecord {
    use std::net::Ipv4Addr;
    anomex::netflow::FlowRecord::new(
        0,
        Ipv4Addr::new(10, 0, (dst_port >> 8) as u8, dst_port as u8),
        Ipv4Addr::new(10, 1, 0, 1),
        4000,
        dst_port,
        anomex::netflow::Protocol::Tcp,
    )
    .with_volume(packets, packets * 40)
}

/// When `ANOMEX_FORCE_SCALAR` pins the scalar path (the dedicated CI
/// leg), dispatch must resolve to it; without the override the resolved
/// backend is machine-dependent but stable.
#[test]
fn force_scalar_env_pins_backend() {
    let forced = std::env::var("ANOMEX_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(active_backend(), KernelBackend::Scalar);
    }
    assert_eq!(active_backend(), active_backend(), "dispatch is pinned");
}

/// Explicit tail shapes: every length from empty through three full
/// chunks, on both backends, against the scalar reference.
#[test]
fn all_tail_lengths_match() {
    let seed = 0x616e_6f6d_6578;
    let reference = BinHasher::new(seed);
    let set = SmallValueSet::new([1u64, 5, 9]).expect("3 members");
    for n in 0..=(3 * LANES) {
        let values: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x1234_5678_9abc))
            .collect();
        for backend in BACKENDS {
            let mut bins = vec![0u32; n];
            bin_batch_with(backend, seed, 1024, &values, &mut bins);
            let expect: Vec<u32> = values.iter().map(|&v| reference.bin_of(v, 1024)).collect();
            assert_eq!(bins, expect, "{backend:?} n={n}");
            let mut hits = vec![0u8; n];
            member_batch_with(backend, &set, &values, &mut hits);
            let expect: Vec<u8> = values
                .iter()
                .map(|&v| u8::from([1u64, 5, 9].contains(&v)))
                .collect();
            assert_eq!(hits, expect, "{backend:?} n={n}");
        }
    }
}

/// End-to-end bit-identity with the kernels active: the sharded columnar
/// engine (kernel-backed binning + pre-filtering) produces exactly what
/// the sequential record-based pipeline (pure scalar `BinHasher` path)
/// produces on the paper's Table 2 workload. Run under both the auto
/// and `ANOMEX_FORCE_SCALAR=1` CI legs, this pins kernel output ==
/// scalar output through the entire extraction stack.
#[test]
fn end_to_end_extraction_bit_identity() {
    let scenario = Scenario::small(2009);
    let config = ExtractionConfig {
        interval_ms: 60_000,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    };
    let mut sequential = Engine::sequential(config.clone()).expect("valid config");
    let mut sharded = Engine::new(config, NonZeroUsize::new(4).expect("nonzero")).expect("valid");
    let backend = kernels::active_backend();
    let mut alarms = 0usize;
    for i in 0..scenario.interval_count().min(24) {
        let interval = scenario.generate(i);
        let seq = sequential.process(&interval.flows);
        let par = sharded.process(&interval.flows);
        assert_eq!(
            seq.observation.alarm, par.observation.alarm,
            "interval {i} ({backend:?})"
        );
        assert_eq!(seq.observation.metadata, par.observation.metadata);
        alarms += usize::from(seq.observation.alarm);
        match (&seq.extraction, &par.extraction) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.itemsets, y.itemsets, "interval {i} ({backend:?})");
                assert_eq!(x.suspicious_flows, y.suspicious_flows);
                assert_eq!(x.cost_reduction.to_bits(), y.cost_reduction.to_bits());
            }
            _ => panic!("extraction presence diverged at interval {i} ({backend:?})"),
        }
    }
    assert!(
        alarms > 0,
        "workload never alarmed — the case proves nothing"
    );
}
