//! Durability suite: kill-and-resume must be **bit-identical** to an
//! uninterrupted run — the load-bearing contract of the checkpoint
//! subsystem. A checkpoint serializes the complete online state
//! (detector baselines and histograms, assembler watermarks and the
//! in-progress window, drop counters, stream counters), so a process
//! that dies after a checkpoint and restores from it must emit exactly
//! the events the never-killed process would have emitted, for every
//! multi-source interleaving — and so must a checkpoint an older build
//! wrote under another miner. Alongside the
//! resume property, the suite pins the robustness half of the contract:
//! hostile checkpoint files fail with a typed [`RestoreError`], never a
//! panic, and live reconfiguration drops no flows.

use anomex::netflow::snapshot::{
    read_checkpoint, write_checkpoint, RestoreError, SnapshotWriter, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
use anomex::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn config_for(scenario: &Scenario) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms: scenario.interval_ms(),
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    }
}

/// One exporter at origin 0: a fan-in of one.
fn one_lane(config: ExtractionConfig) -> MultiSourceExtractor {
    let source = [SourceSpec::new(0u32, 0)];
    MultiSourceExtractor::new(config, &source, None).unwrap()
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
    /// simulated crash), restore, and continue. Events and summary must
    /// be bit-identical to the uninterrupted run.
    #[test]
    fn kill_and_resume_is_bit_identical(seed in 0u64..1_000, cut_pct in 20u64..80) {
        let scenario = Scenario::small(seed);
        let intervals = scenario.interval_count().min(22);
        let flows: Vec<FlowRecord> = (0..intervals)
            .flat_map(|i| scenario.generate(i).flows)
            .collect();
        let cut = (flows.len() as u64 * cut_pct / 100) as usize;

        let src = SourceId(0);
        let mut reference = one_lane(config_for(&scenario));
        let mut ref_events = Vec::new();
        let mut interrupted = one_lane(config_for(&scenario));
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
        let mut resumed = MultiSourceExtractor::restore(&payload).unwrap();
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
                &format!("seed={seed} cut={cut}"),
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
    let config = || config_for(&scenario);

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

    let mut reference = MultiSourceExtractor::new(config(), &specs, None).unwrap();
    let mut ref_events = Vec::new();
    let mut interrupted = MultiSourceExtractor::new(config(), &specs, None).unwrap();
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
    let mut resumed = MultiSourceExtractor::restore(&payload).unwrap();
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

/// Older builds let the configuration pick the miner, and wrote its tag
/// into the checkpoint's configuration record: 0 for Apriori, 2 for
/// Eclat. Every miner returned the same item-sets, so nothing else in
/// the checkpoint depended on it: such a checkpoint is today's with that
/// one byte changed. Both tags still restore, and the resumed stream
/// emits what the uninterrupted run emits (mined with FP-growth).
#[test]
fn checkpoints_written_under_apriori_or_eclat_resume_identically() {
    let scenario = Scenario::small(23);
    let config = config_for(&scenario);
    let flows: Vec<FlowRecord> = (0..scenario.interval_count().min(22))
        .flat_map(|i| scenario.generate(i).flows)
        .collect();
    let cut = flows.len() * 3 / 5;
    let src = SourceId(0);

    let mut reference = one_lane(config.clone());
    let mut ref_events = Vec::new();
    let mut interrupted = one_lane(config.clone());
    let mut head_events = Vec::new();
    for (i, flow) in flows.iter().enumerate() {
        ref_events.extend(reference.push(src, *flow));
        if i < cut {
            head_events.extend(interrupted.push(src, *flow));
        }
    }
    let (tail, payload) = interrupted.checkpoint();
    head_events.extend(tail);
    let (tail, ref_summary) = reference.finish();
    ref_events.extend(tail);

    // The configuration record sits in the payload once; its miner byte
    // follows Δ, the detector record, the pre-filter tag and `s`.
    let mut record = SnapshotWriter::new();
    config.encode_snapshot(&mut record);
    let record = record.into_bytes();
    let at = (0..=payload.len() - record.len())
        .filter(|&i| payload[i..].starts_with(&record))
        .collect::<Vec<_>>();
    let [at] = at[..] else {
        panic!("the configuration record occurs {} times", at.len());
    };
    let mut head = SnapshotWriter::new();
    head.u64(config.interval_ms);
    config.detector.encode_snapshot(&mut head);
    let miner_byte = at + head.into_bytes().len() + 1 + 8;
    assert_eq!(payload[miner_byte], 1, "written as FP-growth's tag");

    for tag in [0u8, 2] {
        let mut old = payload.clone();
        old[miner_byte] = tag;
        let mut resumed = MultiSourceExtractor::restore(&old).unwrap();
        let (_, rewritten) = resumed.checkpoint();
        assert_eq!(rewritten, payload, "tag {tag} re-encodes as FP-growth");
        let mut events = head_events.clone();
        for flow in &flows[cut..] {
            events.extend(resumed.push(src, *flow));
        }
        let (tail, summary) = resumed.finish();
        events.extend(tail);
        assert_eq!(summary, ref_summary, "tag {tag}");
        assert_eq!(events.len(), ref_events.len(), "tag {tag}");
        assert!(
            events.iter().any(|e| e.event.outcome.extraction.is_some()),
            "the planted flood is extracted"
        );
        for (a, b) in ref_events.iter().zip(&events) {
            assert_events_identical(&a.event, &b.event, &format!("miner tag {tag}"));
        }
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
    let config = config_for(&scenario);
    let mut stream = one_lane(config);
    for i in 0..3 {
        for flow in scenario.generate(i).flows {
            let _ = stream.push(SourceId(0), flow);
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
        MultiSourceExtractor::restore(&bytes).is_ok(),
        "a one-lane checkpoint restores"
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
    assert!(MultiSourceExtractor::restore(&garbage).is_err());
    assert!(MultiSourceExtractor::restore_v1(&garbage).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

/// Live reconfiguration through the facade: applied at an interval
/// boundary, audited in the summary, and — the acceptance requirement —
/// dropping zero flows (`dropped_flows == 0` while every pushed flow
/// lands in a processed interval).
#[test]
fn reconfiguration_is_audited_and_drops_nothing() {
    let scenario = Scenario::small(29);
    let intervals = scenario.interval_count().min(16);
    let mut stream = one_lane(config_for(&scenario));
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
