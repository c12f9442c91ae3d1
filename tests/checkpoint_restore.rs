//! Durability suite: kill-and-resume must be **bit-identical** to an
//! uninterrupted run — the load-bearing contract of the checkpoint
//! subsystem. A checkpoint serializes the complete online state
//! (detector baselines and histograms, assembler watermarks and the
//! in-progress window, drop counters, stream counters), so a process
//! that dies after a checkpoint and restores from it must emit exactly
//! the events the never-killed process would have emitted, for every
//! miner, shard count (restore may even change it — output is
//! shard-invariant), and multi-source interleaving. Alongside the
//! resume property, the suite pins the robustness half of the contract:
//! hostile checkpoint files fail with a typed [`RestoreError`], never a
//! panic, and live reconfiguration drops no flows.

use anomex::netflow::snapshot::{
    read_checkpoint, write_checkpoint, RestoreError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
use anomex::prelude::*;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::path::PathBuf;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn config_for(scenario: &Scenario, miner: MinerKind) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        miner,
        ..ExtractionConfig::default()
    }
}

/// One exporter at origin 0: a fan-in of one.
fn one_lane(config: ExtractionConfig, shards: usize) -> MultiSourceExtractor {
    MultiSourceExtractor::try_new(config, nz(shards), &[SourceSpec::new(0u32, 0)], None).unwrap()
}

/// Assert two stream events are the same to the bit (indices, flow
/// counts, alarms, voted meta-data, KL series, and extractions).
fn assert_events_identical(a: &StreamEvent, b: &StreamEvent, context: &str) {
    assert_eq!(a.index, b.index, "{context}: interval index diverged");
    assert_eq!(a.flows, b.flows, "{context}: flow count diverged");
    assert_eq!(a.alarmed(), b.alarmed(), "{context}: alarm diverged");
    assert_eq!(
        a.outcome.observation.metadata, b.outcome.observation.metadata,
        "{context}: meta-data diverged"
    );
    for (x, y) in a
        .outcome
        .observation
        .features
        .iter()
        .zip(&b.outcome.observation.features)
    {
        for (cx, cy) in x.clones.iter().zip(&y.clones) {
            assert_eq!(
                cx.kl.map(f64::to_bits),
                cy.kl.map(f64::to_bits),
                "{context}: KL bits diverged"
            );
        }
    }
    match (&a.outcome.extraction, &b.outcome.extraction) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.itemsets, y.itemsets, "{context}: itemsets diverged");
            assert_eq!(
                x.cost_reduction.to_bits(),
                y.cost_reduction.to_bits(),
                "{context}: cost reduction diverged"
            );
        }
        _ => panic!("{context}: extraction presence diverged"),
    }
}

proptest! {
    // Whole-scenario runs (training + detection), so few, heavy cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill-and-resume: stream a scenario, checkpoint at an arbitrary
    /// flow position (mid-window included), drop the engine (the
    /// simulated crash), restore — possibly onto a *different* shard
    /// count — and continue. Events and summary must be bit-identical
    /// to the uninterrupted run, for every miner.
    #[test]
    fn kill_and_resume_is_bit_identical(
        seed in 0u64..1_000,
        cut_pct in 20u64..80,
        shards in 1usize..=4,
        resume_shards in 1usize..=4,
        miner_idx in 0usize..3,
    ) {
        let scenario = Scenario::small(seed);
        let miner = MinerKind::ALL[miner_idx];
        let intervals = scenario.interval_count().min(22);
        let flows: Vec<FlowRecord> = (0..intervals)
            .flat_map(|i| scenario.generate(i).flows)
            .collect();
        let cut = (flows.len() as u64 * cut_pct / 100) as usize;

        let src = SourceId(0);
        let mut reference = one_lane(config_for(&scenario, miner), shards);
        let mut ref_events = Vec::new();
        let mut interrupted = one_lane(config_for(&scenario, miner), shards);
        let mut resumed_events = Vec::new();
        for (i, flow) in flows.iter().enumerate() {
            ref_events.extend(reference.push(src, *flow));
            if i < cut {
                resumed_events.extend(interrupted.push(src, *flow));
            }
        }
        let (tail, payload) = interrupted.checkpoint();
        resumed_events.extend(tail);
        drop(interrupted); // the crash: only the payload survives
        let mut resumed =
            MultiSourceExtractor::restore(&payload, Some(nz(resume_shards))).unwrap();
        for flow in &flows[cut..] {
            resumed_events.extend(resumed.push(src, *flow));
        }
        let (tail, ref_summary) = reference.finish();
        ref_events.extend(tail);
        let (tail, resumed_summary) = resumed.finish();
        resumed_events.extend(tail);

        prop_assert_eq!(ref_summary, resumed_summary);
        prop_assert_eq!(ref_events.len(), resumed_events.len());
        for (a, b) in ref_events.iter().zip(&resumed_events) {
            assert_events_identical(
                &a.event,
                &b.event,
                &format!("seed={seed} miner={miner} cut={cut} shards={shards}->{resume_shards}"),
            );
        }
    }
}

/// Multi-source kill-and-resume under skew: one exporter runs a full
/// interval ahead of the other, the checkpoint lands mid-grid (lane
/// watermarks apart, windows half-assembled), and the restored engine
/// still emits exactly what the uninterrupted run emits.
#[test]
fn multi_source_resume_survives_skewed_lanes() {
    let scenario = Scenario::small(17);
    let intervals = scenario.interval_count().min(20);
    let specs = [SourceSpec::new(0u32, 0), SourceSpec::new(1u32, 0)];
    let config = || config_for(&scenario, MinerKind::FpGrowth);

    // Split each interval between the sources, then interleave with
    // source 1 a whole interval ahead of source 0.
    let mut pushes: Vec<(SourceId, FlowRecord)> = Vec::new();
    let mut lagging: Vec<Vec<FlowRecord>> = Vec::new();
    for i in 0..intervals {
        let flows = scenario.generate(i).flows;
        let half = flows.len() / 2;
        lagging.push(flows[..half].to_vec());
        pushes.extend(flows[half..].iter().map(|f| (SourceId(1), *f)));
        if i >= 1 {
            let behind = std::mem::take(&mut lagging[(i - 1) as usize]);
            pushes.extend(behind.into_iter().map(|f| (SourceId(0), f)));
        }
    }
    if let Some(last) = lagging.last_mut() {
        let behind = std::mem::take(last);
        pushes.extend(behind.into_iter().map(|f| (SourceId(0), f)));
    }
    let cut = pushes.len() / 2;

    let mut reference = MultiSourceExtractor::try_new(config(), nz(2), &specs, None).unwrap();
    let mut ref_events = Vec::new();
    let mut interrupted = MultiSourceExtractor::try_new(config(), nz(2), &specs, None).unwrap();
    let mut resumed_events = Vec::new();
    for (i, (source, flow)) in pushes.iter().enumerate() {
        ref_events.extend(reference.push(*source, *flow));
        if i < cut {
            resumed_events.extend(interrupted.push(*source, *flow));
        }
    }
    let (tail, payload) = interrupted.checkpoint();
    resumed_events.extend(tail);
    drop(interrupted);
    let mut resumed = MultiSourceExtractor::restore(&payload, Some(nz(1))).unwrap();
    for (source, flow) in &pushes[cut..] {
        resumed_events.extend(resumed.push(*source, *flow));
    }
    let (tail, ref_summary) = reference.finish();
    ref_events.extend(tail);
    let (tail, resumed_summary) = resumed.finish();
    resumed_events.extend(tail);

    assert_eq!(ref_summary.intervals, resumed_summary.intervals);
    assert_eq!(ref_summary.alarms, resumed_summary.alarms);
    assert_eq!(ref_summary.extractions, resumed_summary.extractions);
    assert_eq!(ref_summary.total_flows, resumed_summary.total_flows);
    assert_eq!(ref_summary.dropped_flows, resumed_summary.dropped_flows);
    assert_eq!(ref_summary.sources, resumed_summary.sources);
    assert_eq!(ref_events.len(), resumed_events.len());
    for (a, b) in ref_events.iter().zip(&resumed_events) {
        assert_eq!(
            a.source_flows, b.source_flows,
            "per-source weights diverged"
        );
        assert_events_identical(&a.event, &b.event, "multi-source skew");
    }
}

/// A fresh payload restores; every corruption mode fails with the right
/// typed [`RestoreError`] — and none of them panics.
#[test]
fn checkpoint_files_reject_corruption_with_typed_errors() {
    let dir = std::env::temp_dir().join(format!("anomex-restore-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| -> PathBuf { dir.join(name) };

    let scenario = Scenario::small(3);
    let mut stream =
        StreamingExtractor::try_new(config_for(&scenario, MinerKind::Apriori), nz(1), 0).unwrap();
    for i in 0..3 {
        for flow in scenario.generate(i).flows {
            let _ = stream.push(flow);
        }
    }
    let (_, payload) = stream.checkpoint();

    // Round trip through the atomic file layer.
    let good = path("good.ckpt");
    write_checkpoint(&good, &payload).unwrap();
    let (version, bytes) = read_checkpoint(&good).unwrap();
    assert_eq!(version, CHECKPOINT_VERSION);
    assert_eq!(bytes, payload);
    assert!(
        MultiSourceExtractor::restore(&bytes, None).is_ok(),
        "the one-source shorthand checkpoints the one-lane grid"
    );

    let raw = std::fs::read(&good).unwrap();

    // Truncated: file ends inside the declared payload.
    let truncated = path("truncated.ckpt");
    std::fs::write(&truncated, &raw[..raw.len() - 7]).unwrap();
    assert!(matches!(
        read_checkpoint(&truncated),
        Err(RestoreError::Truncated)
    ));

    // Bad magic: not a checkpoint at all.
    let mut evil = raw.clone();
    evil[..CHECKPOINT_MAGIC.len()].copy_from_slice(b"NOTACKPT");
    let bad_magic = path("bad-magic.ckpt");
    std::fs::write(&bad_magic, &evil).unwrap();
    assert!(matches!(
        read_checkpoint(&bad_magic),
        Err(RestoreError::BadMagic)
    ));

    // Version bump: written by a future format.
    let mut evil = raw.clone();
    evil[CHECKPOINT_MAGIC.len()] = 0xfe; // version u32, little-endian
    let bad_version = path("bad-version.ckpt");
    std::fs::write(&bad_version, &evil).unwrap();
    assert!(matches!(
        read_checkpoint(&bad_version),
        Err(RestoreError::UnsupportedVersion { found: 0xfe })
    ));

    // Payload bit-flip: the checksum catches it.
    let mut evil = raw.clone();
    let last = evil.len() - 1;
    evil[last] ^= 0xff;
    let flipped = path("flipped.ckpt");
    std::fs::write(&flipped, &evil).unwrap();
    assert!(matches!(
        read_checkpoint(&flipped),
        Err(RestoreError::ChecksumMismatch)
    ));

    // Missing file: an I/O error, not a panic (the CLI maps this to a
    // cold start when `--resume` finds no checkpoint).
    assert!(matches!(
        read_checkpoint(&path("never-written.ckpt")),
        Err(RestoreError::Io(_))
    ));

    // A framed-but-gibberish payload must fail restore, not panic.
    let garbage: Vec<u8> = (0..payload.len()).map(|i| (i * 31) as u8).collect();
    let framed = path("garbage.ckpt");
    write_checkpoint(&framed, &garbage).unwrap();
    let (_, garbage) = read_checkpoint(&framed).unwrap();
    assert!(MultiSourceExtractor::restore(&garbage, None).is_err());
    assert!(MultiSourceExtractor::restore_v1(&garbage, None).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// Live reconfiguration through the facade: applied at an interval
/// boundary, audited in the summary, and — the acceptance criterion —
/// dropping zero flows (`dropped_flows == 0` while every pushed flow
/// lands in a processed interval).
#[test]
fn reconfiguration_is_audited_and_drops_nothing() {
    let scenario = Scenario::small(29);
    let intervals = scenario.interval_count().min(16);
    let mut stream = one_lane(config_for(&scenario, MinerKind::Eclat), 2);
    let mut events = Vec::new();
    let mut pushed = 0u64;
    for i in 0..intervals {
        for flow in scenario.generate(i).flows {
            events.extend(stream.push(SourceId(0), flow));
            pushed += 1;
        }
        if i == intervals / 2 {
            // Tighten support and move the detection threshold mid-run.
            let (more, verdict) = stream.reconfigure(ReconfigRequest {
                min_support: Some(600),
                alpha: Some(2.0),
                ..ReconfigRequest::default()
            });
            events.extend(more);
            verdict.unwrap();
            // An invalid request is rejected, audited, and changes nothing.
            let (more, verdict) = stream.reconfigure(ReconfigRequest {
                min_support: Some(0),
                ..ReconfigRequest::default()
            });
            events.extend(more);
            assert!(verdict.is_err());
        }
    }
    let (tail, summary) = stream.finish();
    events.extend(tail);
    assert_eq!(summary.reconfigs_applied, 1);
    assert_eq!(summary.reconfigs_rejected, 1);
    assert_eq!(summary.total_flows, pushed);
    assert_eq!(
        summary.dropped_flows, 0,
        "reconfiguration must drop no flows"
    );
    assert_eq!(
        events.iter().map(|e| e.event.flows as u64).sum::<u64>(),
        pushed,
        "every pushed flow lands in a processed interval"
    );
}
