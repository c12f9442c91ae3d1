//! The capture reader runs a bounded ring of blocks ahead of the replay,
//! so `extract`'s peak memory does not grow with the capture: on two
//! two-weeks captures, one three times the other and each more than
//! twice the ring (32 blocks of 4 096 flows), the peak resident sets
//! `--timings` reports agree within 1 MiB, and the reader never holds
//! more than the ring (`read_ahead_peak_blocks`). One-minute windows over the
//! 15-minute scenario make the engine slower than the reader, so the
//! reader runs ahead until the ring is full.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Flows the reader may hold ahead of the replay: 32 blocks of 4 096.
const RING_FLOWS: u64 = 32 * 4_096;

fn anomex(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_anomex"))
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "anomex {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

/// Write a two-weeks capture of `intervals` quarter hours; returns its
/// flow count.
fn generate(out: &Path, intervals: u32) -> u64 {
    let text = anomex(&[
        "generate",
        "--scenario",
        "two-weeks",
        "--intervals",
        &intervals.to_string(),
        "--out",
        path(out),
    ]);
    let (_, rest) = text.split_once("intervals, ").expect("a summary line");
    let (flows, _) = rest.split_once(' ').expect("a flow count");
    flows.parse().expect("a flow count")
}

/// `extract --timings` on `capture`: the value of each `timings:` key.
fn timings(capture: &Path) -> Vec<(String, f64)> {
    let text = anomex(&[
        "extract",
        "--in",
        path(capture),
        "--interval-min",
        "1",
        "--timings",
    ]);
    let line = text.lines().last().expect("a trailer");
    (line.strip_prefix("timings: "))
        .unwrap_or_else(|| panic!("last line {line:?}"))
        .split(' ')
        .map(|pair| {
            let (key, value) = pair.split_once('=').expect("key=value");
            (key.to_owned(), value.parse().expect("a number"))
        })
        .collect()
}

fn value(timings: &[(String, f64)], key: &str) -> Option<f64> {
    timings.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

#[test]
fn peak_memory_does_not_grow_with_the_capture() {
    let dir: PathBuf = std::env::temp_dir().join("anomex-bounded-memory-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (small, large) = (dir.join("small.nfv5"), dir.join("large.nfv5"));
    let (small_flows, large_flows) = (generate(&small, 55), generate(&large, 180));
    assert!(small_flows > 2 * RING_FLOWS, "{small_flows} flows");
    assert!(large_flows >= 3 * small_flows, "{large_flows} flows");

    let (small, large) = (timings(&small), timings(&large));
    for run in [&small, &large] {
        let peak = value(run, "read_ahead_peak_blocks").expect("read_ahead_peak_blocks");
        assert!(
            (1.0..=32.0).contains(&peak),
            "{peak} blocks read ahead: {run:?}"
        );
    }
    // Without /proc there is no reading to compare.
    let (Some(small_kib), Some(large_kib)) =
        (value(&small, "peak_rss_kib"), value(&large, "peak_rss_kib"))
    else {
        assert!(std::fs::read_to_string("/proc/self/status").is_err());
        return;
    };
    assert_eq!(value(&large, "read_flows"), Some(large_flows as f64));
    // The reader ran a full ring ahead and waited for the replay.
    let full = value(&large, "read_full_ms").expect("read_full_ms");
    assert!(full > 0.0, "the reader never filled its ring: {large:?}");
    assert!(
        (large_kib - small_kib).abs() <= 1024.0,
        "peak RSS {small_kib} KiB on {small_flows} flows, {large_kib} KiB on {large_flows}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
