//! Criterion benches for the streaming extraction engine: the Table-2
//! workload tiled across consecutive Δ-intervals, run (a) as batch
//! interval slices through the pool-backed [`Engine`] and
//! (b) as a flow-by-flow replay through [`StreamingExtractor`], whose
//! double buffer overlaps interval assembly with extraction.
//!
//! Streaming output is bit-identical to batch (asserted by the
//! streaming determinism suite); these benches measure the only thing
//! that changes: throughput. On one core the streaming engine pays the
//! assembler plus channel hops; on multicore hardware the pipeline
//! overlap and the persistent pool's amortized spawns are the win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;

use anomex_core::{Engine, ExtractionConfig, StreamingExtractor};
use anomex_detector::DetectorConfig;
use anomex_netflow::FlowRecord;
use anomex_traffic::table2_workload;

const INTERVAL_MS: u64 = 60_000;
const INTERVALS: u64 = 6;

/// Tile the Table-2 workload over `INTERVALS` consecutive windows: the
/// same flows, timestamps shifted into each window, so every interval
/// carries the paper's flood + popular-port mix.
fn tiled_stream() -> (Vec<Vec<FlowRecord>>, u64) {
    let w = table2_workload(2009, 0.05);
    let mut intervals = Vec::new();
    for i in 0..INTERVALS {
        let shifted: Vec<FlowRecord> = w
            .flows
            .iter()
            .map(|f| {
                let mut f = *f;
                f.start_ms = i * INTERVAL_MS + f.start_ms % INTERVAL_MS;
                f
            })
            .collect();
        intervals.push(shifted);
    }
    (intervals, w.min_support)
}

fn config(min_support: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: INTERVAL_MS,
        detector: DetectorConfig {
            training_intervals: 2,
            ..DetectorConfig::default()
        },
        min_support,
        ..ExtractionConfig::default()
    }
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    let (intervals, min_support) = tiled_stream();
    let mut group = c.benchmark_group("streaming_vs_batch_table2");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("batch", shards), &shards, |b, &shards| {
            let shards = NonZeroUsize::new(shards).unwrap();
            b.iter(|| {
                let mut engine = Engine::new(config(min_support), shards).unwrap();
                let mut alarms = 0u32;
                for interval in &intervals {
                    if engine.process(black_box(interval)).extraction.is_some() {
                        alarms += 1;
                    }
                }
                black_box(alarms)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("streaming", shards),
            &shards,
            |b, &shards| {
                let shards = NonZeroUsize::new(shards).unwrap();
                b.iter(|| {
                    let mut engine =
                        StreamingExtractor::try_new(config(min_support), shards, 0).unwrap();
                    let mut events = 0usize;
                    for interval in &intervals {
                        for &flow in interval {
                            events += engine.push(black_box(flow)).len();
                        }
                    }
                    let (tail, summary) = engine.finish();
                    black_box((events + tail.len(), summary.alarms))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_vs_batch);
criterion_main!(benches);
