//! Criterion benches for the sharded parallel extraction engine: the
//! Table-2 workload end to end (sharded pre-filter → zero-copy
//! transactions → parallel support counting) at 1/2/4/8 shards, per
//! miner. The 1-shard rows double as the sequential baseline — the
//! engine runs inline without spawning threads there — so the group
//! directly reads off the sharding speedup.
//!
//! The sharded output is bit-identical to sequential for every shard
//! count (the engine's determinism guarantee); these benches measure the
//! only thing that changes: wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;

use anomex_core::{Engine, ExtractRequest};
use anomex_detector::MetaData;
use anomex_mining::MinerKind;
use anomex_netflow::FlowFeature;
use anomex_traffic::table2_workload;

/// The Table II meta-data: the flagged flood port plus the three popular
/// ports the paper injected to force false-positive item-sets.
fn table2_metadata() -> MetaData {
    let mut md = MetaData::new();
    for port in [7000u64, 80, 9022, 25] {
        md.insert(FlowFeature::DstPort, port);
    }
    md
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench_sharded_extraction(c: &mut Criterion) {
    let w = table2_workload(2009, 0.2);
    let md = table2_metadata();
    let mut group = c.benchmark_group("sharded_extract_table2");
    group.sample_size(10);
    for shards in SHARD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("apriori", shards),
            &shards,
            |b, &shards| {
                let shards = NonZeroUsize::new(shards).unwrap();
                b.iter(|| {
                    black_box(Engine::extract(
                        &ExtractRequest::new(black_box(&w.flows), &md, w.min_support)
                            .shards(shards),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_sharded_miners(c: &mut Criterion) {
    let w = table2_workload(2009, 0.2);
    let md = table2_metadata();
    let mut group = c.benchmark_group("sharded_miners_table2");
    group.sample_size(10);
    for miner in MinerKind::ALL {
        for shards in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(miner.to_string(), shards),
                &shards,
                |b, &shards| {
                    let shards = NonZeroUsize::new(shards).unwrap();
                    b.iter(|| {
                        black_box(Engine::extract(
                            &ExtractRequest::new(black_box(&w.flows), &md, w.min_support)
                                .miner(miner)
                                .shards(shards),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_extraction, bench_sharded_miners);
criterion_main!(benches);
