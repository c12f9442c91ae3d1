//! Criterion benches for the vectorized columnar kernels: batched
//! SplitMix64 binning vs the per-value scalar `BinHasher` loop, and
//! branch-free small-set membership vs the `BTreeSet` probe, over the
//! Table II workload's columns at the fixed 0.05 scale.
//!
//! Both kernel backends produce bit-identical output to the scalar
//! reference (proptest-pinned by `tests/kernel_equivalence.rs`); these
//! benches measure the only thing that changes: wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;

use anomex_detector::kernels::{self, KernelBackend, SmallValueSet};
use anomex_detector::BinHasher;
use anomex_netflow::{FlowColumns, FlowFeature};
use anomex_traffic::table2_workload;

const SCALE: f64 = 0.05;
const BINS: u32 = 1024;
const SEED: u64 = 0x616e_6f6d_6578;

/// The benchmark column: every DstPort value of the scaled Table II
/// workload, widened to the kernels' `u64` lane shape.
fn port_column() -> Vec<u64> {
    let w = table2_workload(2009, SCALE);
    let cols = FlowColumns::from_flows(&w.flows);
    let mut values = Vec::with_capacity(cols.len());
    cols.for_each_raw(FlowFeature::DstPort, 0..cols.len(), |v| values.push(v));
    values
}

fn bench_bin(c: &mut Criterion) {
    let values = port_column();
    let hasher = BinHasher::new(SEED);
    let mut out = vec![0u32; values.len()];

    let mut group = c.benchmark_group("kernels_bin_table2");
    group.bench_function("scalar_loop", |b| {
        b.iter(|| {
            for (o, &v) in out.iter_mut().zip(&values) {
                *o = hasher.bin_of(black_box(v), BINS);
            }
            black_box(out.last().copied())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            kernels::bin_batch(SEED, BINS, black_box(&values), &mut out);
            black_box(out.last().copied())
        })
    });
    group.bench_function("batched_forced_scalar", |b| {
        b.iter(|| {
            kernels::bin_batch_with(
                KernelBackend::Scalar,
                SEED,
                BINS,
                black_box(&values),
                &mut out,
            );
            black_box(out.last().copied())
        })
    });
    group.finish();
}

fn bench_membership(c: &mut Criterion) {
    let values = port_column();
    // The Table II meta-data ports: the flagged flood port plus the three
    // popular ports the paper injected — the realistic small-set case.
    let ports = [7000u64, 80, 9022, 25];
    let small = SmallValueSet::new(ports).expect("4 values fit");
    let tree: BTreeSet<u64> = ports.into_iter().collect();
    let mut hits = vec![0u8; values.len()];

    let mut group = c.benchmark_group("kernels_membership_table2");
    group.bench_function("btreeset_loop", |b| {
        b.iter(|| {
            for (h, &v) in hits.iter_mut().zip(&values) {
                *h = u8::from(tree.contains(black_box(&v)));
            }
            black_box(hits.last().copied())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            hits.iter_mut().for_each(|h| *h = 0);
            kernels::member_batch(&small, black_box(&values), &mut hits);
            black_box(hits.last().copied())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bin, bench_membership);
criterion_main!(benches);
