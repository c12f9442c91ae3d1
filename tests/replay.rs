//! The library replay end to end: a three-link capture written as NetFlow
//! v5 files and replayed through `anomex_netflow::Replay` into one
//! `MultiSourceExtractor` gives the events of the batch reference (one
//! `Engine` over the per-interval concatenation of every link's flows,
//! as in `multi_source_determinism`), in few runs. A link cut
//! mid-datagram is replayed up to its last whole datagram and then stops
//! the replay with a typed error naming it, and so does a link without a
//! flow, when the replay opens.

use std::fs::File;
use std::path::{Path, PathBuf};

use anomex::core::{Engine, ExtractionConfig, MultiSourceExtractor};
use anomex::netflow::v5::{V5Exporter, V5_HEADER_LEN, V5_RECORD_LEN};
use anomex::netflow::{Arrival, DecodeError, ReadError, Replay, ReplayError, ReplayErrorKind};
use anomex::prelude::*;
use anomex::traffic::MultiSourceScenario;

/// The configuration of `multi_source_determinism`.
fn config_for(interval_ms: u64) -> ExtractionConfig {
    ExtractionConfig {
        interval_ms,
        detector: DetectorConfig {
            training_intervals: 10,
            ..DetectorConfig::default()
        },
        min_support: 800,
        ..ExtractionConfig::default()
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Each link of the first `intervals` intervals of `scenario` as one
/// NetFlow v5 capture, in memory.
fn captures(scenario: &MultiSourceScenario, intervals: u64) -> Vec<Vec<u8>> {
    (0..scenario.links().len())
        .map(|s| {
            let mut exporter = V5Exporter::new();
            (0..intervals)
                .flat_map(|i| exporter.export(&scenario.generate(s, i).flows))
                .flatten()
                .collect()
        })
        .collect()
}

/// Write each capture to `dir/link{s}.nfv5` and open the files for a
/// replay, each named by its path.
fn open_files(dir: &Path, captures: &[Vec<u8>]) -> Vec<(String, File)> {
    (captures.iter().enumerate())
        .map(|(s, bytes)| {
            let path = dir.join(format!("link{s}.nfv5"));
            std::fs::write(&path, bytes).unwrap();
            (path.display().to_string(), File::open(&path).unwrap())
        })
        .collect()
}

#[test]
fn a_replayed_three_link_capture_gives_the_batch_events() {
    let dir = scratch_dir("anomex-replay-three-links-test");
    let scenario = MultiSourceScenario::uniform(3, 3);
    let intervals = scenario.interval_count().min(25);
    let config = config_for(scenario.interval_ms());
    let links = captures(&scenario, intervals);

    // The links' own clock origins, so each merged interval is the
    // concatenation of the scenario's per-link intervals.
    let specs = scenario.source_specs();
    let files = open_files(&dir, &links);
    let mut replay = Replay::open(files, config.interval_ms, Some(&specs)).unwrap();
    assert_eq!(replay.sources(), specs);
    let mut engine = MultiSourceExtractor::new(config.clone(), &specs, None).unwrap();
    let (mut events, mut runs) = (Vec::new(), 0);
    while let Some((source, arrival)) = replay.next(engine.assembler()).unwrap() {
        events.extend(match arrival {
            Arrival::Run(flows) => {
                runs += 1;
                let (n, events) = engine.push_run(source, &flows);
                replay.consume(source, n);
                events
            }
            Arrival::Heartbeat(ms) => engine.heartbeat(source, ms),
        });
    }
    let read = replay.finish();
    let (tail, summary) = engine.finish();
    events.extend(tail);

    let mut batch = Engine::new(config).unwrap();
    let mut flows = 0;
    assert_eq!(events.len() as u64, intervals, "one event per interval");
    for (i, event) in (0..intervals).zip(&events) {
        let per_link: Vec<Vec<FlowRecord>> = (0..links.len())
            .map(|s| scenario.generate(s, i).flows)
            .collect();
        let weights: Vec<usize> = per_link.iter().map(Vec::len).collect();
        let expected = batch.process(&per_link.concat());
        assert_eq!(event.event.index, i);
        assert_eq!(event.source_flows, weights, "interval {i}");
        let (got, expected) = (
            format!("{:?}", event.event.outcome),
            format!("{expected:?}"),
        );
        assert!(got == expected, "interval {i}: the outcome differs");
        flows += weights.iter().sum::<usize>();
    }
    assert!(events.iter().any(|e| e.alarmed()), "the anomalies alarm");
    assert_eq!((read.flows, summary.total_flows), (flows, flows as u64));
    assert_eq!(summary.dropped_flows, 0);
    assert!(runs < 1_000, "{runs} runs for {flows} flows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cut_or_empty_link_stops_the_replay_with_its_error() {
    let dir = scratch_dir("anomex-replay-cut-link-test");
    let scenario = MultiSourceScenario::uniform(5, 3);
    let mut links = captures(&scenario, 12);
    // Link 1 cut inside the record after two fifths of its datagrams.
    let (mut at, mut starts) = (0, Vec::new());
    while at < links[1].len() {
        let count = usize::from(u16::from_be_bytes([links[1][at + 2], links[1][at + 3]]));
        starts.push((at, count));
        at += V5_HEADER_LEN + count * V5_RECORD_LEN;
    }
    let cut = starts.len() * 2 / 5;
    let kept: usize = starts[..cut].iter().map(|&(_, count)| count).sum();
    links[1].truncate(starts[cut].0 + V5_HEADER_LEN + V5_RECORD_LEN / 2);

    let files = open_files(&dir, &links);
    let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    let mut replay = Replay::open(files, scenario.interval_ms(), None).unwrap();
    let mut grid =
        MergeAssembler::try_new(MergeConfig::new(scenario.interval_ms()), &replay.sources())
            .unwrap();
    let mut fed = [0; 3];
    let error = loop {
        match replay.next(&grid) {
            Ok(Some((source, Arrival::Run(flows)))) => {
                let n = grid.push_run(source, &flows).0;
                replay.consume(source, n);
                fed[source.0 as usize] += n;
            }
            Ok(Some((source, Arrival::Heartbeat(ms)))) => drop(grid.heartbeat(source, ms)),
            Ok(None) => panic!("the cut link replayed to its end"),
            Err(e) => break e,
        }
    };
    assert_eq!(
        fed[1], kept,
        "link 1's flows before the cut are replayed first"
    );
    let ReplayError { source, kind } = error;
    assert_eq!(source, names[1]);
    assert!(
        matches!(
            kind,
            ReplayErrorKind::Read(ReadError::Decode(DecodeError::TruncatedRecords { .. }))
        ),
        "{kind:?}"
    );
    assert!(replay.next(&grid).unwrap().is_none(), "the replay is over");

    let empty = dir.join("empty.nfv5");
    std::fs::write(&empty, []).unwrap();
    let mut files = open_files(&dir, &links[..1]);
    files.push((empty.display().to_string(), File::open(&empty).unwrap()));
    let Err(error) = Replay::open(files, scenario.interval_ms(), None) else {
        panic!("a link without a flow opened");
    };
    assert!(matches!(error.kind, ReplayErrorKind::Empty), "{error:?}");
    assert_eq!(
        error.to_string(),
        format!("{}: trace is empty", empty.display())
    );
    std::fs::remove_dir_all(&dir).ok();
}
