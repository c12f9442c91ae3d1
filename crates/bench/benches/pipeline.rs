//! Criterion benches for the end-to-end pipeline: pre-filtering and the
//! full per-interval processing cost on quiet vs. anomalous intervals.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use anomex_core::{prefilter, Engine, ExtractRequest, ExtractionConfig, PrefilterMode};
use anomex_detector::{DetectorConfig, MetaData};
use anomex_mining::MinerKind;
use anomex_netflow::FlowFeature;
use anomex_traffic::{table2_workload, Scenario};

fn bench_prefilter(c: &mut Criterion) {
    let w = table2_workload(2009, 0.2);
    let mut md = MetaData::new();
    md.insert(FlowFeature::DstPort, 7000);
    md.insert(FlowFeature::DstPort, 80);
    c.bench_function("prefilter_union_70k_flows", |b| {
        b.iter(|| black_box(prefilter(black_box(&w.flows), &md, PrefilterMode::Union)))
    });
}

fn bench_offline_extraction(c: &mut Criterion) {
    let w = table2_workload(2009, 0.2);
    let mut md = MetaData::new();
    for port in [7000u64, 80, 9022, 25] {
        md.insert(FlowFeature::DstPort, port);
    }
    c.bench_function("extract_table2_scale0.2", |b| {
        b.iter(|| {
            black_box(Engine::extract(
                &ExtractRequest::new(black_box(&w.flows), &md, w.min_support)
                    .miner(MinerKind::FpGrowth),
            ))
        })
    });
}

fn bench_online_interval(c: &mut Criterion) {
    let scenario = Scenario::two_weeks(42, 0.25);
    // Pre-generate: training day + one quiet + one anomalous interval.
    let training: Vec<_> = (0..60).map(|i| scenario.generate(i)).collect();
    let quiet = scenario.generate(90);
    let anomalous = scenario.generate(scenario.events()[0].start_interval);
    let config = ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 48,
            ..DetectorConfig::default()
        },
        min_support: 700,
        ..ExtractionConfig::default()
    };

    let mut group = c.benchmark_group("online_interval");
    group.sample_size(10);
    group.bench_function("quiet", |b| {
        b.iter_batched(
            || {
                let mut p = Engine::sequential(config.clone()).unwrap();
                for iv in &training {
                    p.process(&iv.flows);
                }
                p
            },
            |mut p| black_box(p.process(black_box(&quiet.flows))),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("anomalous", |b| {
        b.iter_batched(
            || {
                let mut p = Engine::sequential(config.clone()).unwrap();
                for iv in &training {
                    p.process(&iv.flows);
                }
                p
            },
            |mut p| black_box(p.process(black_box(&anomalous.flows))),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prefilter,
    bench_offline_extraction,
    bench_online_interval
);
criterion_main!(benches);
